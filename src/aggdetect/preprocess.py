"""Comment normalization: cleaning, minor stemming, script handling,
and dictionary-based spell correction.

``clean_text`` applies, in order: lowercasing, URL/email removal,
standalone-number removal, whole-token expansion rewrites with minor
per-token stemming, and joins what is left with single spaces.  No URL,
email or number can span whitespace, so cleaning is one pass over the
comment's whitespace tokens: a number is a token that ``str.isdecimal``
accepts, and the URL and email regexes run only on a comment that holds
their marker (``://`` or ``www.`` in any case; ``@``).  The whole function
is idempotent, which downstream code relies on (a cleaned corpus can
safely be cleaned again); ``CleanConfig`` refuses the expansions that
would break this.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path
from typing import NoReturn

from .errors import ResourceError, UsageError
from .translit import DEVANAGARI_RUN_RE, transliterate_with_count

# Neither can match across whitespace. Under IGNORECASE only "w" and "W"
# match "w", so a URL needs "://" or a lowercased "www."; an email needs "@".
_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_EMAIL_RE = re.compile(r"[\w.+-]+@[\w-]+\.[\w.-]+")

# Tokens the plural-s rule must never touch.
NO_STRIP = frozenset(
    {"this", "his", "was", "is", "as", "us", "thus", "yes", "its", "has", "news", "does", "goes"}
)

DEFAULT_EXPANSIONS: dict[str, str] = {
    "u": "you",
    "r": "are",
    "ur": "your",
    "y": "why",
    "plz": "please",
    "pls": "please",
    "thx": "thanks",
    "gr8": "great",
    "dont": "do not",
    "don't": "do not",
    "cant": "can not",
    "can't": "can not",
    "wont": "will not",
    "won't": "will not",
    "im": "i am",
    "i'm": "i am",
}


@dataclass(frozen=True)
class CleanConfig:
    """The stages of :func:`clean_text`.

    Construction raises UsageError for ``expansions`` that are not strings
    to strings, and for those that would make cleaning not idempotent: a
    replacement that an enabled earlier stage would change (upper-case
    letters, a URL, an email address, a standalone number), or a key whose
    rewriting does not finish within ``_MAX_REWRITE_DEPTH - 1`` nested
    rewrites, as in a cycle ``a -> b -> a``.
    """

    lowercase: bool = True
    strip_urls: bool = True
    strip_emails: bool = True
    strip_numbers: bool = True
    minor_stemming: bool = True
    expansions: dict[str, str] = field(default_factory=lambda: dict(DEFAULT_EXPANSIONS))

    def __post_init__(self) -> None:
        expansions = self.expansions
        if not isinstance(expansions, dict):
            raise UsageError(
                f"expansions must be an object of strings to strings, got {expansions!r}"
            )
        for key, replacement in expansions.items():
            if not isinstance(key, str) or not isinstance(replacement, str):
                raise UsageError(f"expansions: {key!r}: {replacement!r} is not a string")
            stage = self._stage_changing(replacement)
            if stage:
                raise UsageError(
                    f"expansions: the replacement of {key!r}, {replacement!r}, "
                    f"would be changed by {stage} when cleaned again"
                )
        depths: dict[str, int] = {}
        for key in expansions:
            _rewrite_depth(key, self, [key], depths)

    def _stage_changing(self, replacement: str) -> str | None:
        if self.lowercase and replacement != replacement.lower():
            return "lowercasing"
        if self.strip_urls and _URL_RE.search(replacement):
            return "URL removal"
        if self.strip_emails and _EMAIL_RE.search(replacement):
            return "email removal"
        if self.strip_numbers and any(part.isdecimal() for part in replacement.split()):
            return "number removal"
        return None

    @staticmethod
    def for_language(language: str) -> "CleanConfig":
        # Stemming and contraction expansion are English-specific; romanized
        # Hindi keeps URL/email/number removal and lowercasing only.
        if language == "hindi":
            return CleanConfig(minor_stemming=False, expansions={})
        return CleanConfig()


def _stem_once(token: str) -> str:
    if token.endswith("'s"):
        stem = token[:-2]
        if not stem.isdigit():
            token = stem
    if token.endswith("s") and token not in NO_STRIP:
        stem = token[:-1]
        if len(stem) >= 3 and not stem.isdigit():
            token = stem
    if token.endswith("ing"):
        stem = token[:-3]
        if len(stem) >= 4 and not stem.isdigit():
            token = stem
    return token


def _stem_token(token: str) -> str:
    # Iterate to a fixed point so that cleaning is idempotent even when one
    # strip exposes another suffix (e.g. "passings" -> "pass" -> "pas").
    while True:
        stemmed = _stem_once(token)
        if stemmed == token:
            return token
        token = stemmed


_MAX_REWRITE_DEPTH = 8


def _stem(token: str, config: CleanConfig) -> str:
    return _stem_token(token) if config.minor_stemming else token


def _rewrite_step(token: str, stem: str, config: CleanConfig) -> list[str] | None:
    """The tokens one rewrite turns ``token``, whose :func:`_stem` is
    ``stem``, into: the words of its expansion, or its stem when that is an
    expansion key ("u's" -> "u"); None when no rewrite applies."""
    replacement = config.expansions.get(token)
    if replacement is not None and replacement.split() != [token]:
        return replacement.split()
    if stem != token and stem in config.expansions:
        return [stem]
    return None


def _rewrite_token(token: str, config: CleanConfig, depth: int = 0) -> list[str]:
    # Expansion, then stemming, to the fixed point a second pass would
    # reach; the token is stemmed once. The depth cap guards against
    # rewrite cycles, which CleanConfig refuses.
    stem = _stem(token, config)
    parts = _rewrite_step(token, stem, config) if depth < _MAX_REWRITE_DEPTH else None
    if parts is None:
        return [stem]
    return [out for part in parts for out in _rewrite_token(part, config, depth + 1)]


def _rewrite_depth(
    token: str, config: CleanConfig, chain: list[str], depths: dict[str, int]
) -> int:
    """The number of nested rewrites ``_rewrite_token`` makes on ``token``,
    the last of ``chain``, which starts at an expansion key. Raise
    UsageError once the chain needs ``_MAX_REWRITE_DEPTH`` of them, one
    being left for a stem that leads to the key."""
    if token not in depths and len(chain) <= _MAX_REWRITE_DEPTH:
        parts = _rewrite_step(token, _stem(token, config), config)
        depths[token] = 0 if parts is None else 1 + max(
            (_rewrite_depth(part, config, chain + [part], depths) for part in parts), default=0
        )
    # a longer chain, as a cycle makes, is refused whatever its last token
    depth = depths.get(token, 0)
    if len(chain) - 1 + depth >= _MAX_REWRITE_DEPTH:
        raise UsageError(
            f"expansions: rewriting {chain[0]!r} does not finish within "
            f"{_MAX_REWRITE_DEPTH - 1} nested rewrites: {' -> '.join(chain)}"
        )
    return depth


def _clean_token(token: str, config: CleanConfig) -> str:
    """What cleaning leaves of one whitespace token of the lowercased text
    without URLs and emails: nothing of a standalone number (digits within
    a token, slang like "b4", survive), else its rewrite."""
    if config.strip_numbers and token.isdecimal():
        return ""
    # a bare "'s" stems to "", and an expansion may be empty
    return " ".join(filter(None, _rewrite_token(token, config)))


def _clean(text: str, config: CleanConfig, rewrites: dict[str, str]) -> str:
    """:func:`clean_text`, remembering in ``rewrites`` what is left of each
    distinct token when the config rewrites tokens."""
    if config.lowercase:
        text = text.lower()
    if config.strip_urls and (
        "://" in text or "www." in (text if config.lowercase else text.lower())
    ):
        text = _URL_RE.sub(" ", text)
    if config.strip_emails and "@" in text:
        text = _EMAIL_RE.sub(" ", text)
    tokens = text.split()
    if not (config.expansions or config.minor_stemming):
        if config.strip_numbers:
            tokens = [token for token in tokens if not token.isdecimal()]
        return " ".join(tokens)
    words = []
    for token in tokens:
        cleaned = rewrites.get(token)
        if cleaned is None:
            cleaned = rewrites[token] = _clean_token(token, config)
        if cleaned:
            words.append(cleaned)
    return " ".join(words)


# Built once: construction checks the expansions, which costs more than
# cleaning one comment.
_DEFAULT_CLEAN = CleanConfig()


def clean_text(text: str, config: CleanConfig | None = None) -> str:
    """Normalize one comment in one pass over its whitespace tokens; the
    URL and email regexes run only where their marker occurs. Total and
    idempotent. Each call rewrites its tokens afresh, where
    :meth:`PreprocessSettings.apply` remembers each distinct token's
    rewrite in a memo that grows without bound."""
    return _clean(text, config or _DEFAULT_CLEAN, {})


@dataclass
class SpellDictionary:
    """Token -> frequency map used for distance-1 spell correction.

    Construction also builds the search index of :func:`spell_correct`:
    the alphabet of the entries, the entries in sorted order, and the
    reversed entries in sorted order. ``entries`` must not change after
    construction, or the index and the remembered corrections go stale.
    A dictionary that ``Resources.load`` returns may be shared: every live
    model whose file has the same SHA-256 holds this object and its memo of
    corrections, which is a pure function of ``entries``.
    """

    entries: dict[str, int]

    def __post_init__(self) -> None:
        self._alphabet = sorted(set("".join(self.entries)))
        self._forward = sorted(self.entries)
        self._backward = sorted(entry[::-1] for entry in self.entries)
        # out-of-dictionary token -> its correction, shared by every call
        self._corrections: dict[str, str] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, token: str) -> bool:
        return token in self.entries


def load_spell_dictionary(text: str, path: Path) -> SpellDictionary:
    """Parse a ``token<TAB>count`` dictionary's text; ``path`` names the file
    in messages. Blank lines are skipped, tokens are lowercased, and the
    counts of tokens that lowercase alike are summed. Each row is split once
    and its count parsed in one pass; only a text with a fault is scanned
    again, line by line, to name the first offending line."""
    lines = text.splitlines()
    rows = [line.split("\t") for line in lines if line.strip()]
    try:
        counts = [int(count) for _token, count in rows]
        valid = not counts or min(counts) >= 1
    except ValueError:  # a row without exactly one tab, or a count int() refuses
        valid = False
    if not valid:
        _raise_first_fault(path, lines)
    entries: dict[str, int] = {}
    for (token, _count), count in zip(rows, counts):
        token = token.lower()
        entries[token] = entries.get(token, 0) + count
    return SpellDictionary(entries)


def _raise_first_fault(path: Path, lines: list[str]) -> NoReturn:
    """Raise ResourceError for the first row of a spell dictionary that is
    malformed, has a bad count or a count below 1."""
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ResourceError(f"{path}: malformed dictionary row at line {lineno}")
        try:
            count = int(parts[1])
        except ValueError:
            raise ResourceError(f"{path}: bad count at line {lineno}: {parts[1]!r}") from None
        if count < 1:
            raise ResourceError(f"{path}: count must be >= 1 at line {lineno}")
    raise AssertionError(f"{path}: no faulty row found")


def save_spell_dictionary(dictionary: SpellDictionary, path: str | Path) -> None:
    lines = [f"{token}\t{count}\n" for token, count in sorted(dictionary.entries.items())]
    Path(path).write_text("".join(lines), encoding="utf-8")


def _reach(token: str, ordered: list[str]) -> int:
    """The length of the longest prefix of ``token`` that begins some string
    of the sorted, non-empty list ``ordered``."""
    lo = 0
    for i in range(1, len(token) + 1):
        prefix = token[:i]
        lo = bisect_left(ordered, prefix, lo)
        if lo == len(ordered) or not ordered[lo].startswith(prefix):
            return i - 1
    return len(token)


def _candidates(token: str, dictionary: SpellDictionary) -> set[str]:
    """The entries one delete, adjacent transpose, insert or replace away
    from ``token``. An insert or a replace at position i keeps ``token[:i]``
    as the head of the edit and the rest of the token as its tail, so the
    alphabet is tried only where that head begins some entry and that tail
    ends one."""
    entries = dictionary.entries
    if not entries:
        return set()
    n = len(token)
    head = _reach(token, dictionary._forward)
    tail = _reach(token[::-1], dictionary._backward)
    alphabet = dictionary._alphabet
    edits = [token[:i] + token[i + 1:] for i in range(n)]
    edits += [token[:i] + token[i + 1] + token[i] + token[i + 2:] for i in range(n - 1)]
    for i in range(max(0, n - tail), head + 1):  # inserts before token[i]
        left, right = token[:i], token[i:]
        edits += [left + ch + right for ch in alphabet]
    for i in range(max(0, n - 1 - tail), min(head, n - 1) + 1):  # replaces of token[i]
        left, right = token[:i], token[i + 1:]
        edits += [left + ch + right for ch in alphabet]
    found = {edit for edit in edits if edit in entries}
    found.discard(token)
    return found


def spell_correct(tokens: list[str], dictionary: SpellDictionary) -> list[str]:
    """Correct out-of-dictionary tokens to their best distance-1 neighbor.

    In-dictionary tokens are never changed.  A token's candidates are the
    entries one delete, adjacent transpose, insert or replace away (Norvig's
    distance-1 edits); inserts and replaces are tried only at the positions
    where the dictionary's sorted index shows an entry can start with the
    token's head and end with its tail.  Candidates are ranked by
    dictionary frequency, ties broken lexicographically; tokens with no
    candidate stay as they are.  Corrections are remembered on the
    dictionary, so each distinct token is corrected once.
    """
    entries = dictionary.entries
    corrected: list[str] = []
    cache = dictionary._corrections
    for token in tokens:
        if token in entries:
            corrected.append(token)
            continue
        if token in cache:
            corrected.append(cache[token])
            continue
        candidates = _candidates(token, dictionary)
        if candidates:
            best = min(candidates, key=lambda c: (-entries[c], c))
        else:
            best = token
        cache[token] = best
        corrected.append(best)
    return corrected


@dataclass
class PreprocessSettings:
    """Everything needed to replay preprocessing at prediction time.

    Transliteration is local to a maximal run of Devanagari characters
    (every other character ends the pending consonant), so each distinct
    run is transliterated once per settings object and remembered with its
    unknown count. Likewise each distinct token's expansion and stemming
    rewrite is computed once and remembered. The memos are not fields:
    ``==`` and ``repr`` ignore them, and they start empty in every
    ``train`` and every loaded model. They pay on input whose runs and
    tokens repeat, and like the spell dictionary's corrections they grow
    without bound in a long-lived process. ``clean`` must not be replaced
    after the first document, or the remembered rewrites go stale.
    ``spell_dictionary`` is not copied: models that load a dictionary file
    with the same SHA-256 while one of them is alive share one dictionary,
    and so one memo of corrections, which does not start empty.
    """

    clean: CleanConfig
    transliterate: bool = False
    spell_dictionary: SpellDictionary | None = None

    def __post_init__(self) -> None:
        # Devanagari run -> (romanized run, unknown count)
        self._romanized: dict[str, tuple[str, int]] = {}
        # token of the lowercased text -> what cleaning leaves of it
        self._rewrites: dict[str, str] = {}

    def apply(self, text: str) -> str:
        return self._apply(text)[0]

    def apply_with_stats(self, text: str) -> tuple[str, int]:
        """Like :meth:`apply` but also reports unknown-Devanagari count."""
        return self._apply(text)

    def _apply(self, text: str) -> tuple[str, int]:
        unknowns: list[int] = []
        if self.transliterate:
            memo = self._romanized

            def romanize(run: re.Match) -> str:
                hit = memo.get(run[0])
                if hit is None:
                    hit = memo[run[0]] = transliterate_with_count(run[0])
                unknowns.append(hit[1])
                return hit[0]

            text = DEVANAGARI_RUN_RE.sub(romanize, text)
        text = _clean(text, self.clean, self._rewrites)
        if self.spell_dictionary is not None and text:
            text = " ".join(spell_correct(text.split(" "), self.spell_dictionary))
        return text, sum(unknowns)
