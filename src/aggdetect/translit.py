"""Rule-based Devanagari to Roman transliteration.

A fixed character/akshara table drives a single left-to-right pass:
consonants carry an inherent ``a`` unless followed by a dependent vowel
sign or a virama, vowel signs contribute their Roman vowels, anusvara
becomes ``n``, visarga becomes ``h``, the nukta is dropped, and a virama
suppresses the inherent vowel.  Everything outside the Devanagari block
passes through untouched.  Devanagari codepoints absent from the table
also pass through and are reported via :func:`transliterate_with_count`.

The table is versioned; bump :data:`TABLE_VERSION` on any change: a saved
model that transliterates with another version refuses to load.
"""

from __future__ import annotations

import re

TABLE_VERSION = 1

_DEVANAGARI_LO = 0x0900
_DEVANAGARI_HI = 0x097F
# A maximal run of Devanagari characters: transliteration never looks
# past one, since every other character flushes the pending consonant.
DEVANAGARI_RUN_RE = re.compile(f"[{chr(_DEVANAGARI_LO)}-{chr(_DEVANAGARI_HI)}]+")

# Independent vowels and other self-contained signs.
INDEPENDENT = {
    "ऄ": "a",   # short A
    "अ": "a",   # अ
    "आ": "aa",  # आ
    "इ": "i",   # इ
    "ई": "ee",  # ई
    "उ": "u",   # उ
    "ऊ": "oo",  # ऊ
    "ऋ": "ri",  # ऋ
    "ऌ": "li",  # ऌ
    "ऍ": "e",   # ऍ candra E
    "ऎ": "e",   # ऎ short E
    "ए": "e",   # ए
    "ऐ": "ai",  # ऐ
    "ऑ": "o",   # ऑ candra O
    "ऒ": "o",   # ऒ short O
    "ओ": "o",   # ओ
    "औ": "au",  # औ
    "ॐ": "om",  # ॐ
    "ॠ": "ri",  # ॠ
    "ॡ": "li",  # ॡ
    "।": ".",   # । danda
    "॥": ".",   # ॥ double danda
    "०": "0",
    "१": "1",
    "२": "2",
    "३": "3",
    "४": "4",
    "५": "5",
    "६": "6",
    "७": "7",
    "८": "8",
    "९": "9",
    "॰": ".",   # ॰ abbreviation sign
    "ॲ": "a",   # ॲ candra A
}

CONSONANTS = {
    "क": "k",
    "ख": "kh",
    "ग": "g",
    "घ": "gh",
    "ङ": "n",
    "च": "ch",
    "छ": "chh",
    "ज": "j",
    "झ": "jh",
    "ञ": "n",
    "ट": "t",
    "ठ": "th",
    "ड": "d",
    "ढ": "dh",
    "ण": "n",
    "त": "t",
    "थ": "th",
    "द": "d",
    "ध": "dh",
    "न": "n",
    "ऩ": "n",   # ऩ
    "प": "p",
    "फ": "ph",
    "ब": "b",
    "भ": "bh",
    "म": "m",
    "य": "y",
    "र": "r",
    "ऱ": "r",   # ऱ
    "ल": "l",
    "ळ": "l",   # ळ
    "ऴ": "l",   # ऴ
    "व": "v",
    "श": "sh",
    "ष": "sh",
    "स": "s",
    "ह": "h",
    # Nukta (precomposed) consonants.
    "क़": "q",   # क़
    "ख़": "kh",  # ख़
    "ग़": "g",   # ग़
    "ज़": "z",   # ज़
    "ड़": "r",   # ड़
    "ढ़": "rh",  # ढ़
    "फ़": "f",   # फ़
    "य़": "y",   # य़
}

# Dependent vowel signs (matras).
VOWEL_SIGNS = {
    "ा": "aa",
    "ि": "i",
    "ी": "ee",
    "ु": "u",
    "ू": "oo",
    "ृ": "ri",
    "ॄ": "ri",
    "ॅ": "e",   # candra E
    "ॆ": "e",   # short E
    "े": "e",
    "ै": "ai",
    "ॉ": "o",   # candra O
    "ॊ": "o",   # short O
    "ो": "o",
    "ौ": "au",
    "ॢ": "li",
    "ॣ": "li",
}

# Emitted verbatim after closing any pending consonant.
MODIFIERS = {
    "ँ": "n",  # candrabindu
    "ं": "n",  # anusvara
    "ः": "h",  # visarga
}

VIRAMA = "्"

# Dropped without output: nukta, avagraha, vedic tone marks, high dot.
IGNORED = frozenset({"़", "ऽ", "॑", "॒", "॓", "॔", "ॱ"})


def is_devanagari(ch: str) -> bool:
    return _DEVANAGARI_LO <= ord(ch) <= _DEVANAGARI_HI


def transliterate_with_count(text: str) -> tuple[str, int]:
    """Romanize Devanagari spans; returns (romanized text, unknown count).

    Unknown Devanagari codepoints (not in the table) pass through
    unchanged and are counted.
    """
    out: list[str] = []
    pending: str | None = None  # consonant awaiting its vowel decision
    unknown = 0

    def flush() -> None:
        nonlocal pending
        if pending is not None:
            out.append(pending + "a")
            pending = None

    for ch in text:
        if not is_devanagari(ch):
            flush()
            out.append(ch)
            continue
        if ch in IGNORED:
            continue
        if ch in CONSONANTS:
            flush()
            pending = CONSONANTS[ch]
        elif ch in VOWEL_SIGNS:
            if pending is not None:
                out.append(pending + VOWEL_SIGNS[ch])
                pending = None
            else:
                out.append(VOWEL_SIGNS[ch])
        elif ch == VIRAMA:
            if pending is not None:
                out.append(pending)
                pending = None
        elif ch in INDEPENDENT:
            flush()
            out.append(INDEPENDENT[ch])
        elif ch in MODIFIERS:
            flush()
            out.append(MODIFIERS[ch])
        else:
            flush()
            out.append(ch)
            unknown += 1
    flush()
    return "".join(out), unknown


def transliterate(text: str) -> str:
    """Romanize Devanagari spans, passing other characters through."""
    return transliterate_with_count(text)[0]


def table_rows() -> list[tuple[str, str, str]]:
    """The full mapping table as (character, roman, kind) rows for audit."""
    rows = []
    for ch, roman in sorted(CONSONANTS.items()):
        rows.append((ch, roman, "consonant"))
    for ch, roman in sorted(VOWEL_SIGNS.items()):
        rows.append((ch, roman, "vowel_sign"))
    for ch, roman in sorted(INDEPENDENT.items()):
        rows.append((ch, roman, "independent"))
    for ch, roman in sorted(MODIFIERS.items()):
        rows.append((ch, roman, "modifier"))
    rows.append((VIRAMA, "", "virama"))
    for ch in sorted(IGNORED):
        rows.append((ch, "", "ignored"))
    return rows
