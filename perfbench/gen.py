"""Seeded, deterministic input generator for the benchmark.

Writes TRAC-shaped labelled corpora (escaped TSV, ``id<TAB>text<TAB>label``)
for code-mixed Hindi and for English, plus the English resources: a
100-d text embedding table and a ``token<TAB>count`` spell dictionary.
The same seed always gives byte-identical files.

Token draws follow a Zipf law over the word types. Each class also owns a
Zipf-weighted subset of the types that a share of its tokens comes from,
so a classifier can beat chance without the task being trivial. The
properties later claims depend on (counts, Devanagari token share, typo
share, embedding coverage, share of tokens outside the spell dictionary)
are measured on what was written and returned as a dict.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

LABEL_NAMES = ("NAG", "CAG", "OAG")
# Most comments are non-aggressive, as in TRAC, but the imbalance is milder:
# with a rare class, whether the capped solver ever predicts it swings with
# the seed, and so do the scores.
CLASS_PRIOR = (0.38, 0.33, 0.29)
# Zipf-Mandelbrot ranks: weight 1 / (rank + ZIPF_SHIFT) ** ZIPF_EXPONENT.
ZIPF_EXPONENT = 1.05
ZIPF_SHIFT = 2.7
MIN_TOKENS, MAX_TOKENS = 5, 45
# Share of a document's tokens drawn from its class's own subset, and that
# subset's share of the word types.
SIGNAL_SHARE = 0.35
CLASS_SUBSET_SHARE = 0.125
SHARED_HEAD = 200
# English only: share of tokens with an adjacent transposition, and shares
# of the word types in the embedding table and the spell dictionary.
TYPO_SHARE = 0.03
EMBEDDING_SHARE = 0.6
EMBEDDING_DIM = 100
DICTIONARY_SHARE = 0.95
# Steps of the two rank sequences that choose those types; two different
# irrationals, so the two choices do not line up.
GOLDEN_STEP = 0.6180339887498949
SQRT2_STEP = 0.4142135623730951

_ROMAN_ONSETS = ("k", "kh", "g", "ch", "j", "t", "d", "n", "p", "b", "bh", "m",
                 "y", "r", "l", "v", "sh", "s", "h")
_ROMAN_VOWELS = ("a", "aa", "i", "ee", "u", "oo", "e", "ai", "o")
# Devanagari letters with their usual romanization, used only to keep two
# word types from reading the same once romanized.
_DEVA_CONSONANTS = dict(zip(
    "कखगघचछजझटठडढणतथदधनपफबभमयरलवशषसह",
    "k kh g gh ch chh j jh t th d dh n t th d dh n p ph b bh m y r l v sh sh s h".split()))
_DEVA_VOWEL_SIGNS = dict(zip("ािीुूेैोौ", "aa i ee u oo e ai o au".split()))
_DEVA_ANUSVARA = "ं"
# A Devanagari codepoint outside the program's transliteration table; real
# comments carry a few of these and the program counts them.
_DEVA_UNKNOWN = "ॻ"
_EN_ONSETS = ("b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p",
              "r", "s", "t", "v", "w", "z", "br", "st", "tr", "gr", "pl")
_EN_VOWELS = ("a", "e", "i", "o", "u", "ea", "ou")


@dataclass
class Lexicon:
    """Word types in rank order, their draw weights, and each class's own
    types with the weights those are drawn by."""

    types: list[str]
    zipf: np.ndarray
    class_types: list[np.ndarray]
    class_zipf: np.ndarray


def _zipf(n: int) -> np.ndarray:
    weights = 1.0 / (np.arange(1, n + 1, dtype=np.float64) + ZIPF_SHIFT) ** ZIPF_EXPONENT
    return weights / weights.sum()


def _unique_words(rng: np.random.Generator, n: int, make) -> list[str]:
    """Words for ranks 0..n-1 from ``make(rng, rank) -> (word, key)``,
    redrawn until the key is unique. The word's shape (script, length)
    depends on its rank only and its letters on the seed, so the amount of
    text per token does not swing with the seed. Every shape has far more
    spellings than ranks that use it."""
    seen: set[str] = set()
    words: list[str] = []
    while len(words) < n:
        word, key = make(rng, len(words))
        if key not in seen:
            seen.add(key)
            words.append(word)
    return words


def _roman_word(rng: np.random.Generator, syllables: int) -> str:
    return "".join(_ROMAN_ONSETS[rng.integers(len(_ROMAN_ONSETS))]
                   + _ROMAN_VOWELS[rng.integers(len(_ROMAN_VOWELS))]
                   for _ in range(syllables))


def _devanagari_word(rng: np.random.Generator, aksharas: int) -> tuple[str, str]:
    """A Devanagari word and its romanization."""
    consonants, signs = list(_DEVA_CONSONANTS), list(_DEVA_VOWEL_SIGNS)
    word, roman = [], []
    for _ in range(aksharas):
        consonant = consonants[rng.integers(len(consonants))]
        word.append(consonant)
        vowel = "a"
        if rng.random() < 0.6:
            sign = signs[rng.integers(len(signs))]
            word.append(sign)
            vowel = _DEVA_VOWEL_SIGNS[sign]
        roman.append(_DEVA_CONSONANTS[consonant] + vowel)
    if rng.random() < 0.1:
        word.append(_DEVA_ANUSVARA)
        roman.append("n")
    if rng.random() < 0.01:
        word.append(_DEVA_UNKNOWN)
        roman.append(_DEVA_UNKNOWN)
    return "".join(word), "".join(roman)


def _hindi_word(rng: np.random.Generator, rank: int) -> tuple[str, str]:
    # Even ranks are Devanagari, odd ranks romanized Hindi. Keys are the
    # romanized forms, so no two types merge once the program romanizes.
    if rank % 2 == 0:
        return _devanagari_word(rng, 2 + (rank // 2) % 3)
    word = _roman_word(rng, 2 + (rank // 2) % 2)
    return word, word


def _english_word(rng: np.random.Generator, rank: int) -> tuple[str, str]:
    # Words end in a vowel, so the English cleaner's plural/-ing stemming
    # leaves correctly spelled words alone and they match the resources.
    word = "".join(_EN_ONSETS[rng.integers(len(_EN_ONSETS))]
                   + _EN_VOWELS[rng.integers(len(_EN_VOWELS))]
                   for _ in range(2 + rank % 3))
    return word, word


def _by_rank(n: int, share: float, step: float) -> np.ndarray:
    """Mask over ranks 0..n-1 that keeps ``share`` of them, spread evenly
    down the Zipf curve (a low-discrepancy sequence). A random mask keeps or
    drops a few head words by chance, and the token share it covers then
    swings with the seed, and with it the work spell correction does."""
    return (np.arange(n) * step) % 1.0 < share


def _lexicon(types: list[str]) -> Lexicon:
    n = len(types)
    size = int(n * CLASS_SUBSET_SHARE)
    # Interleaved ranks give every class signal words of the same global
    # frequencies, so task difficulty does not swing with the seed; the
    # most frequent types stay shared, like function words.
    ranks = SHARED_HEAD + len(LABEL_NAMES) * np.arange(size)
    class_types = [ranks + c for c in range(len(LABEL_NAMES))]
    return Lexicon(types=types, zipf=_zipf(n), class_types=class_types,
                   class_zipf=_zipf(size))


def _documents(rng: np.random.Generator, lexicon: Lexicon, n_docs: int,
               typo_share: float = 0.0) -> tuple[list[tuple[str, int]], int, int]:
    """(text, label index) rows, plus the token and typo counts."""
    # Class counts and the multiset of lengths are fixed; the seed only
    # orders them, so every seed gives the same amount of work per class.
    counts = np.floor(np.array(CLASS_PRIOR) * n_docs).astype(np.int64)
    counts[0] += n_docs - counts.sum()
    labels = rng.permutation(np.repeat(np.arange(len(LABEL_NAMES)), counts))
    lengths = rng.permutation(
        MIN_TOKENS + np.arange(n_docs) * (MAX_TOKENS - MIN_TOKENS + 1) // max(n_docs, 1))
    n_tokens = int(lengths.sum())
    ranks = rng.choice(len(lexicon.types), size=n_tokens, p=lexicon.zipf)
    token_labels = np.repeat(labels, lengths)
    signal = rng.random(n_tokens) < SIGNAL_SHARE
    for c in range(len(LABEL_NAMES)):
        mask = signal & (token_labels == c)
        ranks[mask] = rng.choice(lexicon.class_types[c], size=int(mask.sum()),
                                 p=lexicon.class_zipf)
    tokens = [lexicon.types[r] for r in ranks]
    n_typos = 0
    if typo_share:
        for i in np.nonzero(rng.random(n_tokens) < typo_share)[0]:
            word = tokens[i]
            j = int(rng.integers(len(word) - 1))
            swapped = word[:j] + word[j + 1] + word[j] + word[j + 2:]
            if swapped != word:
                tokens[i] = swapped
                n_typos += 1
    ends = np.cumsum(lengths)
    rows = [(" ".join(tokens[end - length:end]), int(label))
            for label, length, end in zip(labels, lengths, ends)]
    return rows, n_tokens, n_typos


def _write_corpus(path: Path, prefix: str, rows: list[tuple[str, int]]) -> None:
    lines = [f"{prefix}{i:06d}\t{text}\t{LABEL_NAMES[label]}\n"
             for i, (text, label) in enumerate(rows)]
    path.write_text("".join(lines), encoding="utf-8")


def _token_share(rows: list[tuple[str, int]], predicate) -> float:
    total = hits = 0
    for text, _label in rows:
        for token in text.split(" "):
            total += 1
            hits += predicate(token)
    return hits / total if total else 0.0


def _splits(rng: np.random.Generator, lexicon: Lexicon, out_dir: Path, prefix: str,
            sizes: tuple[int, int, int], typo_share: float = 0.0) -> tuple[dict, list, int]:
    """Write train/val/test corpora; their sizes, all rows, and the typo count."""
    props: dict = {"word_types": len(lexicon.types)}
    tokens = typos = 0
    all_rows = []
    for split, n in zip(("train", "val", "test"), sizes):
        rows, n_tokens, n_typos = _documents(rng, lexicon, n, typo_share)
        _write_corpus(out_dir / f"{split}.tsv", f"{prefix}{split[0]}", rows)
        props[f"{split}_docs"] = n
        tokens += n_tokens
        typos += n_typos
        all_rows += rows
    props["tokens"] = tokens
    return props, all_rows, typos


def hindi_inputs(seed: int, out_dir: Path, n_train: int, n_val: int, n_test: int,
                 n_types: int) -> dict:
    """Code-mixed Hindi corpora: half the word types are Devanagari."""
    rng = np.random.default_rng([seed, 1])
    lexicon = _lexicon(_unique_words(rng, n_types, _hindi_word))
    props, rows, _ = _splits(rng, lexicon, out_dir, "h", (n_train, n_val, n_test))
    props["devanagari_token_share"] = _token_share(rows, lambda t: "ऀ" <= t[0] <= "ॿ")
    return props


def english_inputs(seed: int, out_dir: Path, n_train: int, n_val: int, n_test: int,
                   n_types: int) -> dict:
    """English corpora with adjacent-transposition typos, an embedding
    table over ``EMBEDDING_SHARE`` of the word types, and a spell
    dictionary over ``DICTIONARY_SHARE`` of them, both chosen by rank."""
    rng = np.random.default_rng([seed, 2])
    types = _unique_words(rng, n_types, _english_word)
    lexicon = _lexicon(types)
    props, rows, typos = _splits(rng, lexicon, out_dir, "e", (n_train, n_val, n_test),
                                 TYPO_SHARE)
    props["typo_share"] = typos / props["tokens"]

    in_table = _by_rank(n_types, EMBEDDING_SHARE, GOLDEN_STEP)
    vectors = rng.normal(scale=0.5, size=(int(in_table.sum()), EMBEDDING_DIM))
    table_words = [w for w, keep in zip(types, in_table) if keep]
    lines = [f"{len(table_words)} {EMBEDDING_DIM}\n"]
    lines += [word + " " + " ".join(f"{v:.4f}" for v in row) + "\n"
              for word, row in zip(table_words, vectors)]
    (out_dir / "embeddings.vec").write_text("".join(lines), encoding="utf-8")
    table = set(table_words)
    props["embedding_coverage"] = _token_share(rows, lambda t: t in table)

    in_dict = _by_rank(n_types, DICTIONARY_SHARE, SQRT2_STEP)
    counts = np.maximum(1, np.round(lexicon.zipf * 1e6)).astype(np.int64)
    entries = sorted((w, int(c)) for w, c, keep in zip(types, counts, in_dict) if keep)
    (out_dir / "spell.tsv").write_text(
        "".join(f"{w}\t{c}\n" for w, c in entries), encoding="utf-8")
    dictionary = {w for w, _ in entries}
    props["spell_oov_share"] = _token_share(rows, lambda t: t not in dictionary)
    return props
