"""Lexical featurization: tokenization, word/char/skip n-grams, vocabulary
fitting, TF-IDF and binary weighting, and the named feature-block pipeline.

Weighting follows the usual smoothed convention: ``idf(t) = ln((1 + N) /
(1 + df(t))) + 1`` with raw term counts, and each TF-IDF block is
L2-normalized per document.  A :class:`Vocabulary` is its terms in
lexicographic order, whose positions are their indices, and one int64
array of their document frequencies, so fitting a corpus twice gives
identical pipelines.

A batch of documents becomes one CSR matrix, a :class:`SparseMatrix`
with int32 ``indptr`` and ``indices``, with no per-row objects on the
way.  Every block, lexical or dense, first gives one run per document:
the document's entries in that block as local ids and values, in
first-occurrence order of its distinct terms on a lexical block, where
the values are term counts, and in index order on a dense block, whose
runs are the nonzeros of one ``(rows, d)`` float64 array per chunk, a row
per document.  All runs sit in flat arrays with the offsets where each
run ends, ``_CHUNK_ROWS`` documents at a time, block by block within
those.  ``_to_csr`` then weights, normalizes
and sorts one chunk's runs with one set of array operations for all
blocks and writes them in place.  Whitespace-only documents are all-zero
rows.

Word and skip-gram blocks count each document's terms with a ``Counter``.
Char n-gram blocks (C3/C4/C5) count with array operations over the chunk's
code points (:class:`_CharWindows`): each window of n characters becomes
one code, and one value sort of a block's codes, each packed with its
position (:func:`_sort_with_positions`), gives every document's distinct
codes with their counts.  A code packs the window's characters, numbered
in code-point order within an alphabet, into one int64 with
``b = bit_length(alphabet size)`` bits each; where ``n * b > 63`` (over
4,095 distinct characters for C5) it is the window's UTF-32-BE bytes
instead.  Either way code order is term order.

``FeaturePipeline.fit_transform`` featurizes a training corpus with one
term extraction per document and block: each distinct term (or char code)
gets a provisional id; document frequency is one ``np.bincount`` over
those ids, and ``min_df`` pruning plus term order give the vocabulary and
one remap array from provisional ids to vocabulary indices, which turn the
counted runs into the block's runs.  A word block sorts its kept terms.
A char block keeps the codes it has seen in one sorted array beside their
ids, matching each chunk's distinct codes by array operations
(:class:`_CodeIds`), so its kept codes are already in term order.
``transform_many`` gets the runs with one term-to-index dict lookup per
term on a word or skip-gram block, or one ``searchsorted`` of a chunk's
distinct char codes in the block's vocabulary codes, and
``transform(doc)`` is ``transform_many([doc])[0]``.  So ``fit_transform(docs)``,
``fit(docs).transform_many(docs)`` and ``transform`` of each document agree
bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import math
import unicodedata
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .corpus_io import Document
from .errors import DataError, UsageError
from . import lexfeatures
from .kernels import SparseMatrix, SparseVector, check_int32


@functools.cache  # one entry per distinct character seen
def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch)[0] in ("P", "S")


def tokenize(text: str) -> list[str]:
    """Whitespace-split, then peel leading/trailing punctuation off each
    chunk.  Runs of one repeated punctuation character stay joined, and a
    chunk that is pure punctuation (an emoticon like ``:)``) is kept whole.
    """
    tokens: list[str] = []
    for chunk in text.split():
        # an alphanumeric chunk holds no P or S character: nothing to peel
        if chunk.isalnum() or all(_is_punct(ch) for ch in chunk):
            tokens.append(chunk)
            continue
        start = 0
        end = len(chunk)
        while start < end and _is_punct(chunk[start]):
            start += 1
        while end > start and _is_punct(chunk[end - 1]):
            end -= 1
        tokens.extend(_punct_runs(chunk[:start]))
        tokens.append(chunk[start:end])
        tokens.extend(_punct_runs(chunk[end:]))
    return tokens


def _punct_runs(s: str) -> list[str]:
    runs: list[str] = []
    for ch in s:
        if runs and runs[-1][0] == ch:
            runs[-1] += ch
        else:
            runs.append(ch)
    return runs


def word_ngrams(tokens: Sequence[str], n: int) -> list[str]:
    """All contiguous n-token windows, space-joined, duplicates kept."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return list(tokens)
    return [" ".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def skip_grams(tokens: Sequence[str], k: int, n: int) -> list[str]:
    """k-skip-n-grams: ordered n-token subsequences where consecutive
    chosen positions are at most k+1 apart. Contiguous n-grams included."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if n < 2:
        raise ValueError("n must be >= 2")
    out: list[str] = []
    chosen: list[int] = []

    def extend(last: int) -> None:
        if len(chosen) == n:
            out.append(" ".join(tokens[i] for i in chosen))
            return
        for nxt in range(last + 1, min(last + k + 1, len(tokens) - 1) + 1):
            chosen.append(nxt)
            extend(nxt)
            chosen.pop()

    for start in range(len(tokens)):
        chosen.append(start)
        extend(start)
        chosen.pop()
    return out


@dataclass(eq=False)
class Vocabulary:
    """Sorted terms (a term's index is its position), their document
    frequencies as one int64 array aligned with them, made from any integer
    sequence of their length, and the idf of each index, computed once
    here. Vocabularies compare by identity; compare their fields."""

    terms: list[str]
    document_frequency: np.ndarray
    n_documents: int
    idf: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.document_frequency = dfs = np.asarray(self.document_frequency, dtype=np.int64)
        if dfs.shape != (len(self.terms),):
            raise ValueError(f"{len(self.terms)} terms but document frequencies {dfs.shape}")
        # one math.log per distinct document frequency; np.log need not
        # round as math.log does
        n = self.n_documents
        distinct, inverse = np.unique(dfs, return_inverse=True)
        idf = [math.log((1 + n) / (1 + df)) + 1.0 for df in distinct.tolist()]
        self.idf = np.array(idf, dtype=np.float64)[inverse]

    def __len__(self) -> int:
        return len(self.terms)


class _TermIds(defaultdict):
    """A word or skip-gram block's provisional ids: ``ids[term]`` numbers
    each distinct term in first-seen order, looked up once per occurrence."""

    def __init__(self) -> None:
        super().__init__(itertools.count().__next__)

    def kept(self, keep: np.ndarray) -> tuple[list[int], list[str]]:
        """The ids where ``keep`` is true, in term order, and their terms;
        only those terms are sorted."""
        terms = list(self)
        kept = sorted(np.flatnonzero(keep).tolist(), key=terms.__getitem__)
        return kept, [terms[p] for p in kept]


def _fit_counts(
    ids: np.ndarray, provisional: "_TermIds | _CodeIds", n_documents: int, min_df: int,
) -> tuple[Vocabulary, np.ndarray]:
    """The vocabulary of the terms with document frequency >= min_df, given
    every document's distinct provisional ids ``ids`` and the block's
    ``provisional`` numbering, and the array that maps each provisional id
    to its vocabulary index (-1 when pruned). The numbering gives the kept
    ids in term order with their terms: sorted on a word block, and on a
    char block read off its sorted codes, with no sort and no lookup per
    code."""
    if min_df < 1:
        raise ValueError("min_df must be >= 1")
    df = np.bincount(ids, minlength=len(provisional))
    kept, terms = provisional.kept(df >= min_df)
    remap = np.full(len(provisional), -1, dtype=np.int32)
    remap[kept] = np.arange(len(kept))
    return Vocabulary(terms, df[kept], n_documents), remap


def _segment_norms(weights: np.ndarray, seg: np.ndarray, n_seg: int) -> np.ndarray:
    """The L2 norm of each of ``n_seg`` segments, where ``seg`` gives each
    entry's segment. A segment's squares are summed in array order, one
    float64 addition at a time (``np.bincount``), so the norm does not
    depend on the other segments in the arrays or on how the Python version
    sums floats."""
    return np.sqrt(np.bincount(seg, weights=weights * weights, minlength=n_seg))


def _run_layout(n: int, nb: int) -> tuple[np.ndarray, list[list[slice]]]:
    """The row of each run that ``FeaturePipeline._runs`` gives for ``n``
    documents and ``nb`` blocks, and each block's runs as one slice of run
    positions per chunk."""
    rows, chunks = [np.zeros(0, dtype=np.intp)], [[] for _ in range(nb)]
    for r0 in range(0, n, _CHUNK_ROWS):
        m = min(_CHUNK_ROWS, n - r0)
        rows.append(np.tile(np.arange(r0, r0 + m), nb))
        for k in range(nb):
            chunks[k].append(slice(r0 * nb + k * m, r0 * nb + (k + 1) * m))
    return np.concatenate(rows), chunks


def _code_points(text: str) -> np.ndarray:
    """The text's code points, one per character of the str, a lone
    surrogate included."""
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")


class _Alphabet:
    """A set of characters numbered 1, 2, ... in code-point order, and the
    codes of the windows of characters over it.

    A window of n characters, all in the alphabet, packs into one int64
    with ``bits`` bits per number, the first character highest, so code
    order is term order. Where ``n * bits > 63`` the code is the window's
    UTF-32-BE bytes as a numpy ``S{4n}`` string instead, which sorts the
    same way; its trailing zero bytes drop out of ``tolist()`` but come
    back at the fixed width, so the bytes stand for the window too."""

    def __init__(self, points: np.ndarray) -> None:
        """An alphabet of the distinct code points ``points``, increasing."""
        self.points = points.astype("<u4")
        self.bits = len(self.points).bit_length()
        # one entry past the largest character, 0, which clipped lookups of
        # larger code points land on
        size = int(self.points[-1]) + 2 if len(self.points) else 1
        self.table = np.zeros(size, dtype=np.min_scalar_type(len(self.points)))
        self.table[self.points] = np.arange(1, len(self.points) + 1)

    def ranks(self, points: np.ndarray) -> np.ndarray:
        """Each code point's number, 0 outside the alphabet."""
        return self.table.take(points, mode="clip")

    def packs(self, n: int) -> bool:
        """Whether an n-character window's code is a packed int64."""
        return n * self.bits <= 63

    def codes(self, points: np.ndarray, ranks: np.ndarray, starts: np.ndarray,
              n: int) -> np.ndarray:
        """The codes of the n-character windows of ``points`` (numbered
        ``ranks``) that begin at ``starts``."""
        if self.packs(n):
            code = ranks[starts].astype(np.int64)
            for j in range(1, n):
                code <<= self.bits
                code |= ranks[starts + j]
            return code
        return points[starts[:, None] + np.arange(n)].astype(">u4").view(f"S{4 * n}").ravel()

    def empty(self, n: int) -> np.ndarray:
        """No codes, in the dtype of n-character windows' codes."""
        return np.zeros(0, dtype=np.int64 if self.packs(n) else f"S{4 * n}")

    def terms(self, codes: np.ndarray, n: int) -> list[str]:
        """The n-character windows that the array ``codes`` stands for."""
        if self.packs(n):
            shifts = self.bits * np.arange(n - 1, -1, -1)
            ranks = codes[:, None] >> shifts & (1 << self.bits) - 1
            text = self.points[ranks - 1].tobytes().decode("utf-32-le", "surrogatepass")
        else:
            text = codes.tobytes().decode("utf-32-be", "surrogatepass")
        return [text[i : i + n] for i in range(0, len(text), n)]


# Characters whose code points _alphabet_of marks at a time.
_ALPHABET_CHARS = 1 << 16


def _alphabet_of(texts: Sequence[str]) -> _Alphabet:
    """The alphabet of the characters in ``texts``: each code point is
    marked in a presence table one entry longer than the largest seen, and
    the marked entries, in order, are the alphabet, so nothing is sorted.
    The texts are joined once, a str no larger than they are, and encoded
    and marked ``_ALPHABET_CHARS`` characters at a time, so that no array
    of code points grows with the texts."""
    joined = "".join(texts)
    seen = np.zeros(0, dtype=bool)
    for start in range(0, len(joined), _ALPHABET_CHARS):
        points = _code_points(joined[start : start + _ALPHABET_CHARS]).astype(np.intp)
        size = int(points.max()) + 1
        if size > len(seen):
            seen = np.concatenate([seen, np.zeros(size - len(seen), dtype=bool)])
        seen[points] = True  # an intp index marks about twice as fast as a uint32 one
    return _Alphabet(np.flatnonzero(seen))


def _vocabulary_codes(alphabet: _Alphabet, terms: list[str], n: int) -> np.ndarray:
    """The codes of a char block's vocabulary terms, n characters each, all
    in ``alphabet``: increasing, as the terms are."""
    if not set(map(len, terms)) <= {n}:
        raise ValueError(f"a char {n}-gram vocabulary holds a term of another length")
    points = _code_points("".join(terms))
    return alphabet.codes(points, alphabet.ranks(points), np.arange(0, len(points), n), n)


def _sort_with_positions(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``keys[order]`` and ``order``, where ``order`` is what a stable
    argsort of ``keys`` gives, from one value sort.

    Each key goes above its position in one int64, so the packed values are
    distinct and sort in (key, position) order, and ``np.sort`` orders them
    several times faster than the stable argsort (timsort on int64 keys)
    would. A key that does not fit beside the positions' bits in 63 bits,
    or is negative or not an int64 (the ``S{4n}`` byte-string codes), is
    replaced by its rank among the distinct keys (``np.unique``), which is
    below ``len(keys)`` and so always fits."""
    shift = max(len(keys) - 1, 0).bit_length()  # bits of a position
    distinct = None
    # the OR of all keys is negative if one is, and as wide as the largest
    if keys.dtype != np.int64 or not 0 <= int(np.bitwise_or.reduce(keys)) < 1 << 63 - shift:
        distinct, keys = np.unique(keys, return_inverse=True)
    packed = np.left_shift(keys, shift, dtype=np.int64)
    packed |= np.arange(len(keys))
    packed.sort()
    order = packed & (1 << shift) - 1
    packed >>= shift
    return (packed if distinct is None else distinct[packed]), order


def _search(vocabulary: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """The index of each of ``codes`` in the increasing ``vocabulary``, -1
    where it is not there."""
    if not len(vocabulary):
        return np.full(len(codes), -1)
    at = vocabulary.searchsorted(codes)
    return np.where(vocabulary.take(at, mode="clip") == codes, at, -1)


class _CodeIds:
    """A char block's provisional ids while it is fitted: each distinct
    window code gets the next id when a chunk first shows it. The codes
    seen so far stay in one sorted array, each code's id beside it, so a
    chunk's distinct codes are matched with one ``searchsorted`` and the
    new ones merged in with ``np.insert``, and the kept codes come out in
    code order, which is term order."""

    def __init__(self, alphabet: _Alphabet, n: int) -> None:
        self.alphabet, self.n = alphabet, n
        self.codes = alphabet.empty(n)
        self.ids = np.zeros(0, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.codes)

    def __call__(self, codes: np.ndarray) -> np.ndarray:
        """The ids of a chunk's distinct codes, given increasing; the new
        ones are numbered on from the codes already seen, in code order."""
        at = self.codes.searchsorted(codes)
        if len(self.codes):
            ids = self.ids.take(at, mode="clip")
            new = self.codes.take(at, mode="clip") != codes
        else:  # nothing to take from before the first window
            ids, new = np.empty(len(codes), dtype=np.int64), np.ones(len(codes), dtype=bool)
        fresh = np.arange(len(self.codes), len(self.codes) + np.count_nonzero(new))
        ids[new] = fresh
        at = at[new]
        self.codes = np.insert(self.codes, at, codes[new])
        self.ids = np.insert(self.ids, at, fresh)
        return ids

    def kept(self, keep: np.ndarray) -> tuple[np.ndarray, list[str]]:
        """The ids where ``keep`` is true, in term order, and their terms;
        only those codes are decoded."""
        in_order = keep[self.ids]
        return self.ids[in_order], self.alphabet.terms(self.codes[in_order], self.n)


class _CharWindows:
    """One chunk's texts as code points, for its char n-gram blocks.

    ``room[i]`` is how many characters run from position ``i`` to the next
    one outside the alphabet or the end of ``i``'s document, whichever
    comes first, so a window of n characters starting at ``i`` is counted
    if and only if ``room[i] >= n``."""

    def __init__(self, alphabet: _Alphabet, texts: Sequence[str]) -> None:
        self.alphabet = alphabet
        self.points = _code_points("".join(texts))
        self.ranks = alphabet.ranks(self.points)
        self.ends = np.cumsum(np.fromiter(map(len, texts), np.int64, len(texts)))
        outside = (self.ranks == 0).nonzero()[0]
        stops = np.sort(np.concatenate((outside, self.ends)))
        at = np.arange(len(self.points))
        self.room = stops[stops.searchsorted(at, side="right")] - at
        self.room[outside] = 0

    def runs(
        self, n: int, lookup: Callable[[np.ndarray], np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each document's run of n-character windows: the int32 ids of its
        distinct windows in first-occurrence order, their counts, and the
        offset where each document's run ends. ``lookup`` maps the chunk's
        distinct codes, increasing, to ids, or to -1 to drop them.

        One sort by code, stable by position, puts each document's
        occurrences of a code together, first occurrence first; the groups
        then go back to the position of that first occurrence. The sort is
        :func:`_sort_with_positions`: a value sort of each code packed with
        its position in one int64 where the code's bits plus the position's
        fit in 63, and of the code's rank among the chunk's distinct codes
        where they do not (a wide alphabet, or byte-string codes)."""
        starts = (self.room >= n).nonzero()[0]
        codes, order = _sort_with_positions(
            self.alphabet.codes(self.points, self.ranks, starts, n))
        rows = self.ends.searchsorted(starts, side="right")
        sorted_rows = rows[order]
        k = len(codes)
        # new_code[i]: sorted entry i starts a code; bounds: where a
        # document's occurrences of one code start, then k
        new_code = np.ones(k + 1, dtype=bool)
        np.not_equal(codes[1:], codes[:-1], out=new_code[1:k])
        new_group = new_code.copy()
        new_group[1:k] |= sorted_rows[1:] != sorted_rows[:-1]
        bounds = new_group.nonzero()[0]
        group = bounds[:-1]
        first = order[group]
        # ids and counts at each group's first occurrence, -1 elsewhere
        ids = np.full(k, -1, dtype=np.int32)
        ids[first] = lookup(codes[new_code[:k]])[new_code[group].cumsum() - 1]
        counts = np.empty(k)
        counts[first] = bounds[1:] - group
        kept = ids >= 0
        ends = np.bincount(rows[kept], minlength=len(self.ends)).cumsum()
        return ids[kept], counts[kept], ends


# Named feature blocks. Canonical short names match the usual ablation
# grid; the prefix is used when mapping weight indices back to readable
# feature names (e.g. "unigram_bc", "char_tri_gram_kut").
BLOCK_DEFS: dict[str, tuple[str, dict]] = {
    "U": ("word_ngram", {"n": 1}),
    "B": ("word_ngram", {"n": 2}),
    "T": ("word_ngram", {"n": 3}),
    "BU": ("binary_word_ngram", {"n": 1}),
    "C3": ("char_ngram", {"n": 3}),
    "C4": ("char_ngram", {"n": 4}),
    "C5": ("char_ngram", {"n": 5}),
    "SK2": ("skip_gram", {"k": 2, "n": 2}),
    "SK3": ("skip_gram", {"k": 2, "n": 3}),
    "W2V": ("embedding", {}),
    "S": ("sentiment", {}),
    "LIWC": ("liwc", {}),
    "GP": ("gender", {}),
}

NAME_PREFIXES = {
    "U": "unigram",
    "B": "bigram",
    "T": "trigram",
    "BU": "binary_unigram",
    "C3": "char_tri_gram",
    "C4": "char_4_gram",
    "C5": "char_5_gram",
    "SK2": "skip_2_gram",
    "SK3": "skip_3_gram",
}

LEXICAL_KINDS = ("word_ngram", "binary_word_ngram", "char_ngram", "skip_gram")
DENSE_KINDS = ("embedding", "sentiment", "liwc", "gender")
# The kinds that read a document's tokens; a sentiment provider splits and
# tokenizes the document's sentences itself.
TOKEN_KINDS = ("word_ngram", "binary_word_ngram", "skip_gram", "embedding", "liwc", "gender")

# Documents whose runs FeaturePipeline._runs gathers, and _weigh_rows
# weights and sorts, together: enough to spread the per-call cost of the
# array operations thin, few enough to keep their temporaries small. One
# transform_many of 1,000 English documents (BU+U+C4+C5+W2V) raised the
# peak RSS by 43 MB at 1,024 rows a chunk and by 17 MB at 128.
_CHUNK_ROWS = 128

SENTIMENT_FEATURE_NAMES = [
    f"sentiment_{stat}_{cls}"
    for stat in ("mean", "std")
    for cls in ("very_negative", "negative", "neutral", "positive", "very_positive")
]


@dataclass
class FeatureBlockSpec:
    """One named feature block with its kind-specific parameters."""

    name: str
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = self.params.get("n")
        if self.kind in ("word_ngram", "binary_word_ngram") and n not in (1, 2, 3):
            raise UsageError(f"block {self.name}: word n-gram n must be 1, 2 or 3")
        if self.kind == "char_ngram" and n not in (3, 4, 5):
            raise UsageError(f"block {self.name}: char n-gram n must be 3, 4 or 5")
        if self.kind == "skip_gram" and (self.params.get("k") != 2 or n not in (2, 3)):
            raise UsageError(f"block {self.name}: skip-gram requires k=2, n in {{2, 3}}")
        if self.kind not in LEXICAL_KINDS + DENSE_KINDS:
            raise UsageError(f"block {self.name}: unknown kind {self.kind!r}")
        if self.kind in LEXICAL_KINDS and self.params.get("min_df", 1) < 1:
            raise UsageError(f"block {self.name}: min_df must be >= 1")

    @staticmethod
    def from_name(name: str, min_df: int = 2) -> "FeatureBlockSpec":
        if name not in BLOCK_DEFS:
            raise UsageError(f"unknown feature block {name!r}")
        kind, params = BLOCK_DEFS[name]
        params = dict(params)
        if kind in LEXICAL_KINDS:
            params["min_df"] = min_df
        return FeatureBlockSpec(name=name, kind=kind, params=params)


def _token_lists(blocks: Sequence[FeatureBlockSpec], texts: Sequence[str]) -> list:
    """Each text's tokens where a block reads them, else None for each."""
    if any(spec.kind in TOKEN_KINDS for spec in blocks):
        return [tokenize(text) for text in texts]
    return [None] * len(texts)


def _lexical_terms(spec: FeatureBlockSpec, tokens: Sequence[str]) -> list[str]:
    """The terms of a word or skip-gram block."""
    if spec.kind == "skip_gram":
        return skip_grams(tokens, spec.params["k"], spec.params["n"])
    return word_ngrams(tokens, spec.params["n"])


class FeaturePipeline:
    """Ordered feature blocks mapped into disjoint, contiguous index ranges.

    Lexical blocks are fitted (vocabulary + document frequencies); dense
    blocks carry their resources and fixed dimensionalities. Transforms are
    pure once the pipeline is fitted.
    """

    def __init__(
        self,
        blocks: list[FeatureBlockSpec],
        resources: "lexfeatures.Resources | None" = None,
    ) -> None:
        if not blocks:
            raise UsageError("a feature pipeline needs at least one block")
        names = [b.name for b in blocks]
        if len(set(names)) != len(names):
            raise UsageError(f"duplicate block names in {names}")
        self.blocks = blocks
        self.resources = resources or lexfeatures.Resources()
        self.vocabularies: dict[str, Vocabulary] = {}
        self.offsets: dict[str, int] = {}
        self.dimensions: dict[str, int] = {}
        self.total_dimension = 0
        self.fitted = False
        for spec in blocks:
            if spec.kind in DENSE_KINDS:
                self.resources.require(spec.kind)

    def _dense_dimension(self, spec: FeatureBlockSpec) -> int:
        if spec.kind == "embedding":
            return self.resources.embeddings.dimension
        if spec.kind == "sentiment":
            return 10
        if spec.kind == "liwc":
            return len(self.resources.category_lexicon.categories)
        return 2  # gender: (probability, binary)

    def _assign_ranges(self) -> None:
        offset = 0
        for spec in self.blocks:
            if spec.kind in LEXICAL_KINDS:
                dim = len(self.vocabularies[spec.name])
            else:
                dim = self._dense_dimension(spec)
            self.offsets[spec.name] = offset
            self.dimensions[spec.name] = dim
            offset += dim
        self.total_dimension = offset
        # What _weigh_rows needs on every call: each block's offset, whether
        # its runs are L2-normalized, and the idf of every TF-IDF index, 1
        # on binary and dense indices.  The offsets are intp, so the indices
        # that _weigh_rows gathers and sorts with are too: with int32 ones
        # numpy's gather and the mixed-type sort key cost a one-document
        # chunk about 4 µs more than the cast into the int32 store does.
        self._block_offsets = np.array([self.offsets[spec.name] for spec in self.blocks],
                                       dtype=np.intp)
        normalized = [spec.kind in LEXICAL_KINDS and spec.kind != "binary_word_ngram"
                      for spec in self.blocks]
        self._unnormalized = ~np.array(normalized, dtype=bool)
        self._idf = np.ones(offset)
        for spec, tfidf in zip(self.blocks, normalized):
            if tfidf:
                start = self.offsets[spec.name]
                self._idf[start : start + self.dimensions[spec.name]] = (
                    self.vocabularies[spec.name].idf
                )
        # What transform_many looks terms up with: a dict from term to index
        # on a word or skip-gram block, and on a char block its vocabulary
        # codes over one alphabet of every char vocabulary's characters.
        chars = [spec for spec in self.blocks if spec.kind == "char_ngram"]
        self._alphabet = _alphabet_of([term for spec in chars
                                       for term in self.vocabularies[spec.name].terms])
        self._keys = {spec.name: dict(zip(self.vocabularies[spec.name].terms, itertools.count())).get
                      for spec in self.blocks if spec.kind in LEXICAL_KINDS and spec not in chars}
        for spec in chars:
            self._keys[spec.name] = functools.partial(_search, _vocabulary_codes(
                self._alphabet, self.vocabularies[spec.name].terms, spec.params["n"]))
        self.fitted = True

    def _append_runs(
        self, spec: FeatureBlockSpec, key: Callable[[str], int | None],
        token_lists: Sequence[list[str]], ids: list, values: list, ends: list,
    ) -> None:
        """Append one word or skip-gram block's run of each document to
        ``ids``, ``values`` and ``ends`` (where each run ends): the ids and
        counts of the distinct terms of the document's tokens in
        first-occurrence order, counted with a ``Counter``, where ``key``
        maps a term to its id or to None to drop it, and every count is 1 on
        a binary block. Char blocks do not come here (see
        :meth:`_CharWindows.runs`), nor do dense ones (see
        :meth:`_dense_runs`)."""
        binary = spec.kind == "binary_word_ngram"
        for tokens in token_lists:
            doc_counts = Counter(map(key, _lexical_terms(spec, tokens)))
            doc_counts.pop(None, None)
            ids += doc_counts
            values += [1] * len(doc_counts) if binary else doc_counts.values()
            ends.append(len(ids))

    def _dense_runs(
        self, spec: FeatureBlockSpec, documents: Sequence[Document],
        token_lists: Sequence[list[str] | None],
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One dense block's runs over a chunk's documents: the int32 local
        indices and the values of each document's nonzero entries, in index
        order, and the offset where each document's run ends. Each
        document's vector is written into its row of one ``(rows, d)``
        array, which one ``nonzero`` then reads; a whitespace-only
        document's row stays zero, and its function is not called."""
        vectors = np.zeros((len(documents), self._dense_dimension(spec)))
        for row, (doc, tokens) in enumerate(zip(documents, token_lists)):
            if doc.text.strip():
                vectors[row] = self._dense_vector(spec, doc, tokens)
        rows, cols = vectors.nonzero()
        ends = np.bincount(rows, minlength=len(documents)).cumsum()
        return cols.astype(np.int32), vectors[rows, cols], ends

    def _runs(
        self, plan: list, documents: Sequence[Document], texts: Sequence[str],
        token_lists: list[list[str] | None], alphabet: _Alphabet | None,
    ) -> tuple[array, array, array]:
        """The runs of every ``(spec, key)`` block of ``plan`` over the
        documents, as typed arrays of int32 ids, float64 values and the
        int64 offsets where each run ends. A char block's runs are those of
        :meth:`_CharWindows.runs` over ``texts`` and ``alphabet``, with
        ``key`` its lookup of the windows' codes: packed int64s, or
        UTF-32-BE byte strings where n times the alphabet's bits per
        character exceeds 63. A word or skip-gram block's runs are counted
        with a ``Counter`` by :meth:`_append_runs`. A dense block's runs
        are the nonzeros of one ``(rows, d)`` array per chunk, a row per
        document (:meth:`_dense_runs`). ``token_lists`` holds each
        document's tokens, or None for each where no block reads tokens
        (``TOKEN_KINDS``).

        The runs come ``_CHUNK_ROWS`` documents at a time, block by block
        within those, document by document within a block, so that
        :meth:`_to_csr` finds each chunk's runs together, term lookups stay
        in one vocabulary's table for a whole chunk (document by document,
        alternating between the blocks' tables, they ran about 1.6 times
        slower), and the chunk's char blocks share one encoding of its
        texts. Each block's runs go to growing typed arrays, a char or
        dense block's as the bytes of its arrays and a word or skip-gram
        block's from Python lists with ``fromlist`` (``extend`` took twice
        as long), and ``np.asarray`` views them without a copy: the batch
        is never held as Python objects, nor twice, as it would be if
        per-chunk numpy arrays were concatenated at the end."""
        ids, values, ends = array("i"), array("d"), array("q", [0])
        for r0 in range(0, len(documents), _CHUNK_ROWS):
            rows = slice(r0, r0 + _CHUNK_ROWS)
            windows = None
            for spec, key in plan:
                base = len(ids)
                if spec.kind == "char_ngram":
                    if windows is None:
                        windows = _CharWindows(alphabet, texts[rows])
                    block_ids, block_values, block_ends = windows.runs(spec.params["n"], key)
                elif spec.kind in DENSE_KINDS:
                    block_ids, block_values, block_ends = self._dense_runs(
                        spec, documents[rows], token_lists[rows])
                else:
                    block_ids, block_values, block_ends = [], [], []
                    self._append_runs(spec, key, token_lists[rows],
                                      block_ids, block_values, block_ends)
                    ids.fromlist(block_ids)
                    values.fromlist(block_values)
                    ends.fromlist([base + end for end in block_ends])
                    continue
                ids.frombytes(block_ids.tobytes())
                values.frombytes(block_values.tobytes())
                ends.frombytes((block_ends + base).tobytes())
        return ids, values, ends

    def _fit(
        self, documents: Sequence[Document], blocks: list[FeatureBlockSpec]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fit the vocabularies of the lexical ``blocks`` from one term
        extraction per document and block, whitespace-only documents
        included, and return the :meth:`_runs` of ``blocks`` with vocabulary
        indices, pruned terms dropped, and whitespace-only documents' runs
        empty, as their rows are.

        Each distinct term gets a provisional id; document frequency is one
        ``np.bincount`` over the block's ids, and ``min_df`` pruning plus
        term order give the vocabulary and one remap array from provisional
        ids to vocabulary indices, -1 when pruned (:func:`_fit_counts`). On
        a word block the provisional keys are the terms, looked up once per
        occurrence in a :class:`_TermIds`. On a char block they are the
        windows' codes over the alphabet of the whole corpus (packed int64s,
        or byte strings past the width rule of :class:`_Alphabet`), matched
        a chunk at a time by array operations in a :class:`_CodeIds`, and
        only the kept codes are decoded to terms. The counts and the remaps
        read each block's entries chunk by chunk, as the slices where
        :meth:`_runs` put them.

        The kept entries are then moved forward within the runs' own
        buffers, which are cut to them, so no compacted copy is ever held
        beside the full-length runs."""
        texts = [doc.text for doc in documents]
        chars = any(spec.kind == "char_ngram" for spec in blocks)
        alphabet = _alphabet_of(texts) if chars else None
        provisional = {spec.name: (_CodeIds(alphabet, spec.params["n"])
                                   if spec.kind == "char_ngram" else _TermIds())
                       for spec in blocks if spec.kind in LEXICAL_KINDS}

        def key(spec: FeatureBlockSpec):
            ids = provisional.get(spec.name)
            return ids.__getitem__ if isinstance(ids, _TermIds) else ids

        id_buffer, value_buffer, ends = self._runs(
            [(spec, key(spec)) for spec in blocks], documents, texts,
            _token_lists(blocks, texts), alphabet)
        ids, values, ends = np.asarray(id_buffer), np.asarray(value_buffer), np.asarray(ends)
        run_rows, chunks = _run_layout(len(documents), len(blocks))
        for k, spec in enumerate(blocks):
            if spec.name in provisional:
                entries = [(ends[runs.start], ends[runs.stop]) for runs in chunks[k]]
                self.vocabularies[spec.name], remap = _fit_counts(
                    np.concatenate([ids[:0], *(ids[a:b] for a, b in entries)]),
                    provisional.pop(spec.name), len(documents), spec.params.get("min_df", 1),
                )
                for a, b in entries:
                    ids[a:b] = remap[ids[a:b]]
        self._assign_ranges()
        keep = ids >= 0
        nonblank = np.array([bool(text.strip()) for text in texts], dtype=bool)
        keep &= np.repeat(nonblank[run_rows], np.diff(ends))
        # each run end moves back by the dropped entries before it
        ends = ends - np.searchsorted(np.flatnonzero(~keep), ends)
        size = 0
        step = 1 << 16  # entries compacted at a time: temporaries of 512 kB at most
        for start in range(0, len(keep), step):
            part = keep[start : start + step]
            count = np.count_nonzero(part)
            # each right-hand side is a copy, and size <= start
            ids[size : size + count] = ids[start : start + step][part]
            values[size : size + count] = values[start : start + step][part]
            size += count
        del ids, values  # a typed array shrinks only when nothing views it
        del id_buffer[size:], value_buffer[size:]
        return np.asarray(id_buffer), np.asarray(value_buffer), ends

    def fit(self, documents: Sequence[Document]) -> "FeaturePipeline":
        self._fit(documents, [spec for spec in self.blocks if spec.kind in LEXICAL_KINDS])
        return self

    def fit_transform(self, documents: Sequence[Document]) -> SparseMatrix:
        """``fit(documents)`` then ``transform_many(documents)``, bit for bit,
        with each document tokenized at most once and its terms extracted once."""
        return self._to_csr(len(documents), *self._fit(documents, self.blocks))

    def restore(self, vocabularies: dict[str, Vocabulary]) -> "FeaturePipeline":
        """Rebuild fitted state from deserialized vocabularies."""
        self.vocabularies = vocabularies
        self._assign_ranges()
        return self

    def _dense_vector(self, spec: FeatureBlockSpec, doc: Document,
                      tokens: list[str] | None) -> np.ndarray:
        res = self.resources
        if spec.kind == "embedding":
            return lexfeatures.embed_average(tokens, res.embeddings)[0]
        if spec.kind == "sentiment":
            return res.sentiment_provider.document_features(doc)
        if spec.kind == "liwc":
            return lexfeatures.liwc_features(tokens, res.category_lexicon)
        return lexfeatures.gender_features(tokens, res.gender_lexicon)

    def _to_csr(self, n: int, ids: np.ndarray, values: np.ndarray, ends: np.ndarray) -> SparseMatrix:
        """The CSR matrix of ``n`` rows from the :meth:`_runs` of every block,
        with int32 ``indptr`` and ``indices``; a dimension or a count of
        stored entries of 2**31 or more raises DataError
        (:func:`kernels.check_int32`).

        A chunk's rows hold exactly the chunk's entries, so the output
        arrays are allocated once and :meth:`_weigh_rows` fills them one
        chunk at a time, which bounds its temporaries on a large batch.
        ``data`` is ``values`` itself, overwritten chunk by chunk: each
        chunk's values are read before its data is written, so the input
        and output are never held at once. ``values`` is consumed, and
        nothing else may hold it."""
        try:
            check_int32(self.total_dimension, int(ends[-1]))
        except ValueError as exc:
            raise DataError(f"feature matrix too large: {exc}") from None
        nb = len(self.blocks)
        # summed in int64, as ends is, and cast once at the end: on a
        # one-document batch the per-chunk sums into int32 cost more
        indptr = np.zeros(n + 1, dtype=np.int64)
        indices = np.empty(ends[-1], dtype=np.int32)
        data = values
        for r0 in range(0, n, _CHUNK_ROWS):
            r1 = min(r0 + _CHUNK_ROWS, n)
            runs = ends[r0 * nb : r1 * nb + 1]
            lengths = (runs[1:] - runs[:-1]).reshape(nb, r1 - r0)
            np.add.reduce(lengths, axis=0).cumsum(out=indptr[r0 + 1 : r1 + 1])
            indptr[r0 + 1 : r1 + 1] += runs[0]
            entries = slice(runs[0], runs[-1])
            indices[entries], data[entries] = self._weigh_rows(ids[entries], values[entries],
                                                               lengths)
        return SparseMatrix._trusted(self.total_dimension, indptr.astype(np.int32), indices, data)

    def _weigh_rows(
        self, ids: np.ndarray, values: np.ndarray, lengths: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The indices and data of one chunk's rows from its runs, block by
        block, with ``lengths[k, r]`` entries in row ``r``'s run of block
        ``k``.

        Lexical counts become TF-IDF weights, ``counts * idf`` L2-normalized
        within the run, or 1 on a binary block; dense values are final. Each
        row's entries are then sorted by index."""
        nb, m = lengths.shape
        seg = np.repeat(np.arange(nb * m), lengths.ravel())  # run k * m + r
        block, key = np.divmod(seg, m)  # key: the row, then the sort key
        cols = np.add(ids, self._block_offsets[block])
        weights = values * self._idf[cols]
        norms = _segment_norms(weights, seg, nb * m)
        norms.reshape(nb, m)[self._unnormalized] = 1.0
        weights /= norms[seg]
        key *= self.total_dimension  # row first, then index
        key += cols
        order = _sort_with_positions(key)[1]
        return cols[order], weights[order]

    def transform(self, doc: Document) -> SparseVector:
        """One document's row: ``transform_many([doc])[0]``."""
        return self.transform_many([doc])[0]

    def transform_many(self, documents: Sequence[Document]) -> SparseMatrix:
        """Every document's row, as one CSR matrix."""
        if not self.fitted:
            raise DataError("feature pipeline used before fitting")
        plan = [(spec, self._keys.get(spec.name)) for spec in self.blocks]
        texts = [doc.text if doc.text.strip() else "" for doc in documents]
        token_lists = _token_lists(self.blocks, [doc.text for doc in documents])
        runs = self._runs(plan, documents, texts, token_lists, self._alphabet)
        return self._to_csr(len(documents), *map(np.asarray, runs))

    def feature_name(self, index: int) -> str:
        """Human-readable name of one feature dimension."""
        if not 0 <= index < self.total_dimension:
            raise ValueError(f"feature index {index} out of range")
        for spec in self.blocks:
            offset = self.offsets[spec.name]
            dim = self.dimensions[spec.name]
            if offset <= index < offset + dim:
                local = index - offset
                if spec.kind in LEXICAL_KINDS:
                    prefix = NAME_PREFIXES.get(spec.name, spec.name.lower())
                    return f"{prefix}_{self.vocabularies[spec.name].terms[local]}"
                if spec.kind == "embedding":
                    return f"w2v_{local}"
                if spec.kind == "sentiment":
                    return SENTIMENT_FEATURE_NAMES[local]
                if spec.kind == "liwc":
                    return f"liwc_{self.resources.category_lexicon.categories[local][0]}"
                return ("gender_probability", "gender_binary")[local]
        raise AssertionError("unreachable")
