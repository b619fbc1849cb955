"""Lexical featurization: tokenization, word/char/skip n-grams, vocabulary
fitting, TF-IDF and binary weighting, and the named feature-block pipeline.

Weighting follows the usual smoothed convention: ``idf(t) = ln((1 + N) /
(1 + df(t))) + 1`` with raw term counts, and each TF-IDF block is
L2-normalized per document.  Vocabulary indices are assigned by
lexicographic term order, so fitting the same corpus twice always yields
identical pipelines.

A batch of documents becomes one CSR matrix, a :class:`SparseMatrix`,
with no per-row objects on the way.  Every block, lexical or dense, first
gives one run per document: the document's entries in that block as local
ids and values, in first-occurrence order of its distinct terms on a
lexical block, where the values are term counts.  All runs sit in flat
arrays with the offsets where each run ends, ``_CHUNK_ROWS`` documents at
a time, block by block within those.  ``_to_csr`` then weights, normalizes
and sorts one chunk's runs with one set of array operations for all
blocks and writes them in place.  Whitespace-only documents are all-zero
rows.

``FeaturePipeline.fit_transform`` featurizes a training corpus with one
term extraction per document and block: each distinct term gets a
provisional id in first-occurrence order; document frequency is one
``np.bincount`` over those ids, and ``min_df`` pruning plus the sort give
the vocabulary and one remap array from provisional ids to vocabulary
indices, which turn the counted runs into the block's runs.
``transform_many`` gets them with one vocabulary lookup per term, and
``transform(doc)`` is ``transform_many([doc])[0]``.  So
``fit_transform(docs)``, ``fit(docs).transform_many(docs)`` and
``transform`` of each document agree bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import math
import unicodedata
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .corpus_io import Document
from .errors import DataError, UsageError
from . import lexfeatures
from .kernels import SparseMatrix, SparseVector


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
    return [" ".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def char_ngrams(text: str, n: int) -> list[str]:
    """All contiguous n-character windows over the whole text, spaces included."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return [text[i : i + n] for i in range(len(text) - n + 1)]


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


@dataclass
class Vocabulary:
    """Bijective term/index maps plus document frequencies, and the idf
    of each index, computed once here."""

    terms: list[str]  # index -> term, lexicographically sorted
    index: dict[str, int]
    document_frequency: dict[str, int]
    n_documents: int
    idf: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # one math.log per distinct document frequency; np.log need not
        # round as math.log does
        n = self.n_documents
        dfs = np.fromiter(map(self.document_frequency.__getitem__, self.terms), np.int64,
                          len(self.terms))
        distinct, inverse = np.unique(dfs, return_inverse=True)
        idf = [math.log((1 + n) / (1 + df)) + 1.0 for df in distinct.tolist()]
        self.idf = np.array(idf, dtype=np.float64)[inverse]

    def __len__(self) -> int:
        return len(self.terms)


def _fit_counts(
    terms: list[str], ids: np.ndarray, n_documents: int, min_df: int
) -> tuple[Vocabulary, np.ndarray]:
    """The vocabulary of the terms with document frequency >= min_df, given
    every document's distinct provisional ids, and the array that maps each
    provisional id to its vocabulary index (-1 when pruned)."""
    if min_df < 1:
        raise ValueError("min_df must be >= 1")
    df = np.bincount(ids, minlength=len(terms))
    kept = sorted(np.flatnonzero(df >= min_df).tolist(), key=terms.__getitem__)
    remap = np.full(len(terms), -1, dtype=np.int32)
    remap[kept] = np.arange(len(kept))
    vocab_terms = [terms[p] for p in kept]
    vocab = Vocabulary(
        terms=vocab_terms,
        index={term: i for i, term in enumerate(vocab_terms)},
        document_frequency=dict(zip(vocab_terms, df[kept].tolist())),
        n_documents=n_documents,
    )
    return vocab, remap


def fit_vocabulary(corpus_terms: Iterable[Sequence[str]], min_df: int = 1) -> Vocabulary:
    """Build a vocabulary over terms with document frequency >= min_df."""
    pid: defaultdict[str, int] = defaultdict(itertools.count().__next__)
    ids: list[int] = []
    n_documents = 0
    for terms in corpus_terms:
        ids += map(pid.__getitem__, set(terms))
        n_documents += 1
    return _fit_counts(list(pid), np.array(ids, dtype=np.intp), n_documents, min_df)[0]


def _segment_norms(weights: np.ndarray, seg: np.ndarray, n_seg: int) -> np.ndarray:
    """The L2 norm of each of ``n_seg`` segments, where ``seg`` gives each
    entry's segment. A segment's squares are summed in array order, one
    float64 addition at a time (``np.bincount``), so the norm does not
    depend on the other segments in the arrays or on how the Python version
    sums floats."""
    return np.sqrt(np.bincount(seg, weights=weights * weights, minlength=n_seg))


def _run_layout(n: int, nb: int) -> tuple[np.ndarray, np.ndarray]:
    """The row and the block of each run that ``FeaturePipeline._runs``
    gives for ``n`` documents and ``nb`` blocks."""
    rows, blocks = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    for r0 in range(0, n, _CHUNK_ROWS):
        m = min(_CHUNK_ROWS, n - r0)
        rows.append(np.tile(np.arange(r0, r0 + m), nb))
        blocks.append(np.repeat(np.arange(nb), m))
    return np.concatenate(rows), np.concatenate(blocks)


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


def _lexical_terms(spec: FeatureBlockSpec, text: str, tokens: Sequence[str]) -> list[str]:
    if spec.kind == "char_ngram":
        return char_ngrams(text, spec.params["n"])
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
        # on binary and dense indices.
        self._block_offsets = np.array([self.offsets[spec.name] for spec in self.blocks])
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
        self.fitted = True

    def _append_runs(
        self, spec: FeatureBlockSpec, key: Callable[[str], int | None] | None,
        documents: Sequence[Document], texts: Sequence[str],
        token_lists: Sequence[list[str]], ids: list, values: list, ends: list,
    ) -> None:
        """Append one block's run of each document to ``ids``, ``values`` and
        ``ends`` (where each run ends). On a lexical block, a run is the ids
        and counts of the distinct terms of the document's ``texts`` entry in
        first-occurrence order, where ``key`` maps a term to its id or to
        None to drop it, and every count is 1 on a binary block. On a dense
        block (``key`` None), it is the nonzero local indices and values,
        and empty for a whitespace-only document, whose function is not
        called."""
        if key is None:
            for doc, tokens in zip(documents, token_lists):
                if doc.text.strip():
                    nonzero, vec = self._dense_arrays(spec, doc, tokens)
                    ids += nonzero.tolist()
                    values += vec.tolist()
                ends.append(len(ids))
            return
        binary = spec.kind == "binary_word_ngram"
        for text, tokens in zip(texts, token_lists):
            doc_counts = Counter(map(key, _lexical_terms(spec, text, tokens)))
            doc_counts.pop(None, None)
            ids += doc_counts
            values += [1] * len(doc_counts) if binary else doc_counts.values()
            ends.append(len(ids))

    def _runs(
        self, plan: list, documents: Sequence[Document], texts: Sequence[str],
        token_lists: list[list[str]],
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The runs of every ``(spec, key)`` block of ``plan`` (see
        :meth:`_append_runs`) over the documents, as int32 ids, float64
        values and the int64 offsets where each run ends.

        The runs come ``_CHUNK_ROWS`` documents at a time, block by block
        within those, document by document within a block, so that
        :meth:`_to_csr` finds each chunk's runs together, and term lookups
        stay in one vocabulary's table for a whole chunk: document by
        document, alternating between the blocks' tables, they ran about
        1.6 times slower. Python lists gather one chunk's runs, since
        extending a typed array costs about 10 us a call, which a
        one-document batch would pay on every block. Each chunk then goes
        to growing typed arrays with ``fromlist`` (``extend`` took twice as
        long), which the returned arrays view without a copy: the batch is
        never held as Python objects, nor twice, as it would be if per-chunk
        numpy arrays were concatenated at the end."""
        ids, values, ends = array("i"), array("d"), array("q", [0])
        for r0 in range(0, len(documents), _CHUNK_ROWS):
            rows = slice(r0, r0 + _CHUNK_ROWS)
            chunk_ids: list[int] = []
            chunk_values: list[float] = []
            chunk_ends: list[int] = []
            for spec, key in plan:
                self._append_runs(spec, key, documents[rows], texts[rows], token_lists[rows],
                                  chunk_ids, chunk_values, chunk_ends)
            base = len(ids)
            ids.fromlist(chunk_ids)
            values.fromlist(chunk_values)
            ends.fromlist([base + end for end in chunk_ends])
        return (np.frombuffer(ids, np.int32), np.frombuffer(values, np.float64),
                np.frombuffer(ends, np.int64))

    def _fit(
        self, documents: Sequence[Document], blocks: list[FeatureBlockSpec]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fit the vocabularies of the lexical ``blocks`` from one term
        extraction per document and block, whitespace-only documents
        included, and return the :meth:`_runs` of ``blocks`` with vocabulary
        indices, pruned terms dropped, and whitespace-only documents' runs
        empty, as their rows are.

        Each distinct term gets a provisional id in first-occurrence order;
        document frequency is one ``np.bincount`` over the block's ids, and
        ``min_df`` pruning plus the sort give the vocabulary and one remap
        array from provisional ids to vocabulary indices (-1 when pruned)."""
        provisional = {spec.name: defaultdict(itertools.count().__next__)
                       for spec in blocks if spec.kind in LEXICAL_KINDS}
        plan = [(spec, provisional[spec.name].__getitem__ if spec.name in provisional else None)
                for spec in blocks]
        ids, values, ends = self._runs(plan, documents, [doc.text for doc in documents],
                                       [tokenize(doc.text) for doc in documents])
        run_rows, run_blocks = _run_layout(len(documents), len(blocks))
        lengths = np.diff(ends)
        block_of = np.repeat(run_blocks.astype(np.min_scalar_type(len(blocks))), lengths)
        for k, spec in enumerate(blocks):
            if spec.name in provisional:
                in_block = block_of == k
                pids = ids[in_block]
                self.vocabularies[spec.name], remap = _fit_counts(
                    list(provisional.pop(spec.name)), pids, len(documents),
                    spec.params.get("min_df", 1),
                )
                ids[in_block] = remap[pids]
                del in_block, pids
        del block_of
        self._assign_ranges()
        keep = ids >= 0
        nonblank = np.array([bool(doc.text.strip()) for doc in documents], dtype=bool)
        keep &= np.repeat(nonblank[run_rows], lengths)
        # each run end moves back by the dropped entries before it
        ends = ends - np.searchsorted(np.flatnonzero(~keep), ends)
        ids = ids[keep]  # the full-length arrays are released one at a time
        values = values[keep]
        return ids, values, ends

    def fit(self, documents: Sequence[Document]) -> "FeaturePipeline":
        self._fit(documents, [spec for spec in self.blocks if spec.kind in LEXICAL_KINDS])
        return self

    def fit_transform(self, documents: Sequence[Document]) -> SparseMatrix:
        """``fit(documents)`` then ``transform_many(documents)``, bit for bit,
        with each document tokenized and its terms extracted once."""
        return self._to_csr(len(documents), *self._fit(documents, self.blocks))

    def restore(self, vocabularies: dict[str, Vocabulary]) -> "FeaturePipeline":
        """Rebuild fitted state from deserialized vocabularies."""
        self.vocabularies = vocabularies
        self._assign_ranges()
        return self

    def _dense_arrays(self, spec: FeatureBlockSpec, doc: Document, tokens: list[str]):
        res = self.resources
        if spec.kind == "embedding":
            vec, _coverage = lexfeatures.embed_average(tokens, res.embeddings)
        elif spec.kind == "sentiment":
            vec = res.sentiment_provider.document_features(doc)
        elif spec.kind == "liwc":
            vec = lexfeatures.liwc_features(tokens, res.category_lexicon)
        else:
            vec = lexfeatures.gender_features(tokens, res.gender_lexicon)
        nonzero = np.flatnonzero(vec)
        return nonzero, vec[nonzero]

    def _to_csr(self, n: int, ids: np.ndarray, values: np.ndarray, ends: np.ndarray) -> SparseMatrix:
        """The CSR matrix of ``n`` rows from the :meth:`_runs` of every block.

        A chunk's rows hold exactly the chunk's entries, so the output
        arrays are allocated once and :meth:`_weigh_rows` fills them one
        chunk at a time, which bounds its temporaries on a large batch.
        ``data`` is ``values`` itself, overwritten chunk by chunk: each
        chunk's values are read before its data is written, so the input
        and output are never held at once. ``values`` is consumed, and
        nothing else may hold it."""
        nb = len(self.blocks)
        indptr = np.zeros(n + 1, dtype=np.int64)
        indices = np.empty(ends[-1], dtype=np.int64)
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
        return SparseMatrix(self.total_dimension, indptr, indices, data)

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
        order = np.argsort(key)
        return cols[order], weights[order]

    def transform(self, doc: Document) -> SparseVector:
        """One document's row: ``transform_many([doc])[0]``."""
        return self.transform_many([doc])[0]

    def transform_many(self, documents: Sequence[Document]) -> SparseMatrix:
        """Every document's row, as one CSR matrix."""
        if not self.fitted:
            raise DataError("feature pipeline used before fitting")
        plan = [(spec, self.vocabularies[spec.name].index.get if spec.kind in LEXICAL_KINDS
                 else None) for spec in self.blocks]
        texts = [doc.text if doc.text.strip() else "" for doc in documents]
        token_lists = [tokenize(doc.text) for doc in documents]
        return self._to_csr(len(documents), *self._runs(plan, documents, texts, token_lists))

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
