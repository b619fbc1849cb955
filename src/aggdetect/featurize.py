"""Lexical featurization: tokenization, word/char/skip n-grams, vocabulary
fitting, TF-IDF and binary weighting, and the named feature-block pipeline.

Weighting follows the usual smoothed convention: ``idf(t) = ln((1 + N) /
(1 + df(t))) + 1`` with raw term counts, and each TF-IDF block is
L2-normalized per document.  Vocabulary indices are assigned by
lexicographic term order, so fitting the same corpus twice always yields
identical pipelines.

A document's features are one CSR row from end to end: each block emits
``(indices, values)`` arrays, sorted by index with no zeros, and the
pipeline offsets and concatenates them into a :class:`SparseVector`,
which ``kernels.stack_csr`` stacks by concatenation.
"""

from __future__ import annotations

import math
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .corpus_io import Document
from .errors import DataError, UsageError
from . import lexfeatures


@dataclass
class SparseVector:
    """One CSR row over a fixed dimension: strictly increasing int64
    ``indices`` in ``[0, dimension)`` and float64 ``values``; zeros are
    never stored."""

    dimension: int
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.indices.ndim != 1 or self.indices.shape != self.values.shape:
            raise ValueError("indices and values must be 1-d arrays of one length")
        if not self.values.all():
            keep = self.values != 0.0
            self.indices, self.values = self.indices[keep], self.values[keep]
        if (np.diff(self.indices) <= 0).any():
            raise ValueError("indices must be strictly increasing")
        out_of_range = (self.indices < 0) | (self.indices >= self.dimension)
        if out_of_range.any():
            raise ValueError(f"index out of range: {self.indices[out_of_range][0]}")

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.indices, self.values

    def __len__(self) -> int:
        return self.indices.shape[0]


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch)[0] in ("P", "S")


def tokenize(text: str) -> list[str]:
    """Whitespace-split, then peel leading/trailing punctuation off each
    chunk.  Runs of one repeated punctuation character stay joined, and a
    chunk that is pure punctuation (an emoticon like ``:)``) is kept whole.
    """
    tokens: list[str] = []
    for chunk in text.split():
        if all(_is_punct(ch) for ch in chunk):
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
        n, df = self.n_documents, self.document_frequency
        self.idf = np.array(
            [math.log((1 + n) / (1 + df[term])) + 1.0 for term in self.terms], dtype=np.float64
        )

    def __len__(self) -> int:
        return len(self.terms)


def fit_vocabulary(corpus_terms: Iterable[Sequence[str]], min_df: int = 1) -> Vocabulary:
    """Build a vocabulary over terms with document frequency >= min_df."""
    if min_df < 1:
        raise ValueError("min_df must be >= 1")
    df: Counter[str] = Counter()
    n_documents = 0
    for terms in corpus_terms:
        n_documents += 1
        df.update(set(terms))
    kept = sorted(term for term, count in df.items() if count >= min_df)
    return Vocabulary(
        terms=kept,
        index={term: i for i, term in enumerate(kept)},
        document_frequency={term: df[term] for term in kept},
        n_documents=n_documents,
    )


def tfidf_transform(terms: Sequence[str], vocab: Vocabulary) -> tuple[np.ndarray, np.ndarray]:
    """Raw-count TF times smoothed IDF, L2-normalized unless all-zero, as
    ``(indices, values)`` sorted by index. Out-of-vocabulary terms are
    ignored. The norm is summed left to right in first-occurrence order."""
    index = vocab.index
    hits = [(index[term], count) for term, count in Counter(terms).items() if term in index]
    idx = np.array([i for i, _ in hits], dtype=np.int64)
    weights = np.array([c for _, c in hits], dtype=np.float64) * vocab.idf[idx]
    norm = math.sqrt(sum((weights * weights).tolist()))
    if norm > 0.0:
        weights /= norm
    order = np.argsort(idx)
    return idx[order], weights[order]


def binary_transform(terms: Sequence[str], vocab: Vocabulary) -> tuple[np.ndarray, np.ndarray]:
    """Presence/absence weighting, no normalization, as ``(indices, values)``."""
    index = vocab.index
    idx = np.array(sorted({index[term] for term in terms if term in index}), dtype=np.int64)
    return idx, np.ones(idx.shape[0])


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
        self.fitted = True

    def fit(self, documents: Sequence[Document]) -> "FeaturePipeline":
        token_lists = [tokenize(doc.text) for doc in documents]
        for spec in self.blocks:
            if spec.kind in LEXICAL_KINDS:
                per_doc = (
                    _lexical_terms(spec, doc.text, tokens)
                    for doc, tokens in zip(documents, token_lists)
                )
                self.vocabularies[spec.name] = fit_vocabulary(
                    per_doc, spec.params.get("min_df", 1)
                )
        self._assign_ranges()
        return self

    def restore(self, vocabularies: dict[str, Vocabulary]) -> "FeaturePipeline":
        """Rebuild fitted state from deserialized vocabularies."""
        self.vocabularies = vocabularies
        self._assign_ranges()
        return self

    def _block_arrays(self, spec: FeatureBlockSpec, doc: Document, tokens: list[str]):
        if spec.kind in LEXICAL_KINDS:
            terms = _lexical_terms(spec, doc.text, tokens)
            vocab = self.vocabularies[spec.name]
            if spec.kind == "binary_word_ngram":
                return binary_transform(terms, vocab)
            return tfidf_transform(terms, vocab)
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

    def transform(self, doc: Document) -> SparseVector:
        if not self.fitted:
            raise DataError("feature pipeline used before fitting")
        # Empty text short-circuits to the all-zero vector, bypassing the
        # degenerate defaults of dense blocks.
        if not doc.text.strip():
            return SparseVector(self.total_dimension, [], [])
        tokens = tokenize(doc.text)
        # blocks occupy increasing offset ranges, so the concatenation is sorted
        indices, values = [], []
        for spec in self.blocks:
            idx, val = self._block_arrays(spec, doc, tokens)
            indices.append(idx + self.offsets[spec.name])
            values.append(val)
        return SparseVector(self.total_dimension, np.concatenate(indices), np.concatenate(values))

    def transform_many(self, documents: Sequence[Document]) -> list[SparseVector]:
        return [self.transform(doc) for doc in documents]

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
