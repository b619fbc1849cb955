"""Dense semantic and affect features: averaged word embeddings,
sentence-sentiment statistics, category-lexicon proportions, and
gender-lexicon probability.

File formats:
  - embeddings: text vectors, header ``V d`` then ``word v1 ... vd`` lines
  - category lexicon: ``category<TAB>pattern1,pattern2,...`` per line,
    patterns are literal words or trailing-``*`` prefix wildcards
  - weighted (gender) lexicon: ``word<TAB>weight`` rows plus a special
    ``_intercept<TAB>value`` row
  - sentiment sidecar: ``doc_id<TAB>sent_index<TAB>p1 p2 p3 p4 p5``
  - sentiment word sets: one lowercase word per line, ``#`` comments
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import NoReturn, Sequence

import numpy as np

from .errors import DataError, ResourceError
from .preprocess import load_spell_dictionary

@dataclass
class EmbeddingTable:
    vectors: dict[str, np.ndarray]
    dimension: int

    def __len__(self) -> int:
        return len(self.vectors)

    def __contains__(self, word: str) -> bool:
        return word in self.vectors


# About this many characters of lines go to one np.loadtxt call, which
# holds their text and parsed fields at once. Loading a 5.5 MB, 100-d
# table raised the peak RSS by 6.5 MB with this size, 7.0 MB with 512 K and
# 8.7 MB with 1 M characters, at the same speed.
_EMBEDDING_CHUNK = 1 << 17


def _parse_vectors(rows: list[str], dim: int) -> np.ndarray:
    """The ``dim`` space-separated values after each row's word, one matrix
    row per table row. numpy rounds each value exactly as ``float()`` does;
    a row that does not give ``dim`` values raises ValueError."""
    if not rows:
        return np.empty((0, dim))
    values = [row.partition(" ")[2] for row in rows]
    # np.loadtxt would skip an empty line instead of refusing it
    if "" in values or "\n" in values:
        raise ValueError("a row without values")
    matrix = np.loadtxt(values, dtype=np.float64, delimiter=" ", comments=None, ndmin=2)
    if matrix.shape != (len(rows), dim):
        raise ValueError(f"expected {len(rows)} rows of {dim} values, got {matrix.shape}")
    return matrix


def load_embeddings(path: str | Path) -> EmbeddingTable:
    """Load a text-format embedding table (``V d`` header).

    The rows fill one ``(V, d)`` matrix, parsed a chunk of lines at a time,
    and ``vectors`` maps each word to its row."""
    path = Path(path)
    if not path.is_file():
        raise ResourceError(f"embedding file not found: {path}")
    with path.open(encoding="utf-8") as handle:
        header = handle.readline().split()
        if len(header) != 2:
            raise ResourceError(f"{path}: malformed embedding header (expected 'V d')")
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError:
            raise ResourceError(f"{path}: malformed embedding header (expected 'V d')") from None
        if count < 0 or dim < 1:
            raise ResourceError(f"{path}: bad embedding header values {count} {dim}")
        # a row takes at least 2 * dim characters, so a header that
        # overstates the count cannot make this allocation outgrow the file
        matrix = np.empty((min(count, path.stat().st_size // (2 * dim)), dim))
        vectors: dict[str, np.ndarray] = {}
        n_rows, lineno = 0, 2
        while lines := handle.readlines(_EMBEDDING_CHUNK):
            rows = [line for line in lines if not line.isspace()]
            try:
                block = _parse_vectors(rows, dim)
                ok = bool(np.isfinite(block).all())
            except ValueError:
                ok = False
            if ok:
                end = n_rows + len(rows)
                # rows past the header's count are checked but not kept in
                # the matrix; the count check after the loop refuses them
                if end <= len(matrix):
                    matrix[n_rows:end] = block
                    block = matrix[n_rows:end]
                chunk = dict(zip([row.partition(" ")[0] for row in rows], block))
                ok = len(chunk) == len(rows) and vectors.keys().isdisjoint(chunk)
            if not ok:
                _refuse_embedding_rows(lines, lineno, dim, vectors, path)
            vectors.update(chunk)
            n_rows = end
            lineno += len(lines)
    if n_rows != count:
        raise ResourceError(f"{path}: header declares {count} vectors but file has {n_rows}")
    return EmbeddingTable(vectors=vectors, dimension=dim)


def _refuse_embedding_rows(
    lines: list[str], lineno: int, dim: int, vectors: dict[str, np.ndarray], path: Path
) -> NoReturn:
    """Raise for the first of ``lines`` (the first at file line ``lineno``)
    that the bulk parse or its checks refuse; ``vectors`` holds the words
    of the lines before them."""
    seen = set()
    for lineno, line in enumerate(lines, start=lineno):
        if line.isspace():
            continue
        parts = line.rstrip("\n").split(" ")
        if len(parts) != dim + 1:
            raise ResourceError(
                f"{path}: row arity mismatch at line {lineno}: expected "
                f"{dim + 1} fields, got {len(parts)}"
            )
        word = parts[0]
        if word in vectors or word in seen:
            raise ResourceError(f"{path}: duplicate word {word!r} at line {lineno}")
        seen.add(word)
        try:
            values = _parse_vectors([line], dim)
        except ValueError:
            raise ResourceError(f"{path}: non-numeric value at line {lineno}") from None
        if not np.isfinite(values).all():
            raise ResourceError(f"{path}: non-finite value at line {lineno}")
    raise AssertionError(f"{path}: no faulty row from line {lineno}")


def embed_average(tokens: Sequence[str], table: EmbeddingTable) -> tuple[np.ndarray, float]:
    """Mean vector of in-table tokens plus coverage fraction.

    Out-of-table tokens are skipped; with no hits the vector is zero and
    coverage is the fraction of covered tokens (0 for an empty list).
    """
    hits = [table.vectors[t] for t in tokens if t in table.vectors]
    if not hits:
        return np.zeros(table.dimension), 0.0
    return np.mean(hits, axis=0), len(hits) / len(tokens)


def sentiment_features(sentences: Sequence[np.ndarray]) -> np.ndarray:
    """Componentwise mean and population std of per-sentence distributions.

    An empty input yields the uniform mean (0.2 each) with zero std.
    """
    if len(sentences) == 0:
        return np.concatenate([np.full(5, 0.2), np.zeros(5)])
    stacked = np.vstack(sentences)
    return np.concatenate([stacked.mean(axis=0), stacked.std(axis=0)])


def builtin_sentence_sentiment(
    sentence_tokens: Sequence[str],
    pos_lexicon: set[str],
    neg_lexicon: set[str],
    intensity_split: float = 0.7,
) -> np.ndarray:
    """Lexicon-hit sentiment distribution over the five classes.

    With p positive and q negative hits, neutral mass is 1/(1+p+q); each
    polar side gets its hit share, split ``intensity_split`` to the mild
    class and the rest to the extreme class. Always sums to 1.
    """
    p = sum(1 for t in sentence_tokens if t in pos_lexicon)
    q = sum(1 for t in sentence_tokens if t in neg_lexicon)
    total = 1.0 + p + q
    pos_side = p / total
    neg_side = q / total
    return np.array(
        [
            neg_side * (1.0 - intensity_split),
            neg_side * intensity_split,
            1.0 / total,
            pos_side * intensity_split,
            pos_side * (1.0 - intensity_split),
        ]
    )


_SENTENCE_SPLIT_RE = re.compile(r"[.!?\n]+")


def split_sentences(text: str) -> list[str]:
    """Split on ., !, ? and newline, dropping empty segments."""
    return [seg.strip() for seg in _SENTENCE_SPLIT_RE.split(text) if seg.strip()]


def load_word_set(path: str | Path) -> set[str]:
    path = Path(path)
    if not path.is_file():
        raise ResourceError(f"word list not found: {path}")
    words = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        word = line.strip()
        if word and not word.startswith("#"):
            words.add(word.lower())
    return words


class SentimentProvider:
    """Produces the 10-dim mean/std sentiment feature for a document."""

    kind = "none"

    def document_features(self, doc) -> np.ndarray:
        raise NotImplementedError


class BuiltinSentimentProvider(SentimentProvider):
    """Scores each sentence with the built-in lexicon scorer."""

    kind = "builtin"

    def __init__(self, pos_lexicon: set[str], neg_lexicon: set[str], intensity_split: float = 0.7):
        self.pos_lexicon = pos_lexicon
        self.neg_lexicon = neg_lexicon
        self.intensity_split = intensity_split

    def document_features(self, doc) -> np.ndarray:
        from .featurize import tokenize  # local import to avoid a cycle

        distributions = [
            builtin_sentence_sentiment(
                tokenize(sentence), self.pos_lexicon, self.neg_lexicon, self.intensity_split
            )
            for sentence in split_sentences(doc.text)
        ]
        return sentiment_features(distributions)


class SidecarSentimentProvider(SentimentProvider):
    """Reads precomputed per-sentence distributions keyed by document id
    and sentence index (e.g. produced by an external sentiment tool)."""

    kind = "sidecar"

    def __init__(self, distributions: dict[tuple[str, int], np.ndarray]):
        self.distributions = distributions

    def document_features(self, doc) -> np.ndarray:
        sentences = split_sentences(doc.text)
        rows = []
        for i in range(len(sentences)):
            dist = self.distributions.get((doc.id, i))
            if dist is None:
                raise DataError(
                    f"sentiment sidecar has no row for document {doc.id!r} sentence {i}"
                )
            rows.append(dist)
        return sentiment_features(rows)


def load_sentiment_sidecar(path: str | Path) -> dict[tuple[str, int], np.ndarray]:
    path = Path(path)
    if not path.is_file():
        raise ResourceError(f"sentiment sidecar not found: {path}")
    result: dict[tuple[str, int], np.ndarray] = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ResourceError(f"{path}: malformed sidecar row at line {lineno}")
        doc_id, index_str, dist_str = parts
        try:
            index = int(index_str)
            dist = np.array([float(v) for v in dist_str.split()], dtype=np.float64)
        except ValueError:
            raise ResourceError(f"{path}: bad values at line {lineno}") from None
        if dist.shape != (5,) or (dist < 0).any() or abs(dist.sum() - 1.0) > 1e-9:
            raise ResourceError(
                f"{path}: line {lineno} is not a 5-way distribution summing to 1"
            )
        result[(doc_id, index)] = dist
    return result


@dataclass
class CategoryLexicon:
    """Ordered word categories; patterns are literals or ``prefix*`` wildcards."""

    categories: list[tuple[str, list[str]]]

    def __post_init__(self) -> None:
        self._matchers = []
        for name, patterns in self.categories:
            literals = {p for p in patterns if not p.endswith("*")}
            prefixes = tuple(p[:-1] for p in patterns if p.endswith("*") and len(p) > 1)
            self._matchers.append((literals, prefixes))

    def matches(self, cat_index: int, token: str) -> bool:
        literals, prefixes = self._matchers[cat_index]
        return token in literals or (bool(prefixes) and token.startswith(prefixes))


def load_category_lexicon(path: str | Path) -> CategoryLexicon:
    path = Path(path)
    if not path.is_file():
        raise ResourceError(f"category lexicon not found: {path}")
    categories: list[tuple[str, list[str]]] = []
    seen = set()
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ResourceError(f"{path}: malformed category row at line {lineno}")
        name, patterns_str = parts
        if name in seen:
            raise ResourceError(f"{path}: duplicate category {name!r} at line {lineno}")
        seen.add(name)
        patterns = [p.strip().lower() for p in patterns_str.split(",") if p.strip()]
        if not patterns:
            raise ResourceError(f"{path}: category {name!r} has no patterns (line {lineno})")
        categories.append((name, patterns))
    return CategoryLexicon(categories)


def liwc_features(tokens: Sequence[str], lexicon: CategoryLexicon) -> np.ndarray:
    """Per category, the fraction of tokens matching any pattern."""
    n = len(lexicon.categories)
    if not tokens:
        return np.zeros(n)
    counts = np.zeros(n)
    for token in tokens:
        for c in range(n):
            if lexicon.matches(c, token):
                counts[c] += 1
    return counts / len(tokens)


@dataclass
class WeightedLexicon:
    weights: dict[str, float]
    intercept: float = 0.0


def load_weighted_lexicon(path: str | Path) -> WeightedLexicon:
    path = Path(path)
    if not path.is_file():
        raise ResourceError(f"weighted lexicon not found: {path}")
    weights: dict[str, float] = {}
    intercept = 0.0
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ResourceError(f"{path}: malformed lexicon row at line {lineno}")
        word, weight_str = parts
        try:
            weight = float(weight_str)
        except ValueError:
            raise ResourceError(f"{path}: bad weight at line {lineno}: {weight_str!r}") from None
        if word == "_intercept":
            intercept = weight
        elif word in weights:
            raise ResourceError(f"{path}: duplicate word {word!r} at line {lineno}")
        else:
            weights[word] = weight
    return WeightedLexicon(weights=weights, intercept=intercept)


def gender_features(tokens: Sequence[str], lexicon: WeightedLexicon) -> np.ndarray:
    """(probability, binary) from the weighted-lexicon logistic score.

    Positive cases read as female; the exact-0.5 tie resolves to 0.
    """
    score = lexicon.intercept
    for token in tokens:
        weight = lexicon.weights.get(token)
        if weight is not None:
            score += weight
    if score >= 0:
        probability = 1.0 / (1.0 + math.exp(-score))
    else:
        e = math.exp(score)
        probability = e / (1.0 + e)
    return np.array([probability, 1.0 if probability > 0.5 else 0.0])


# Every file a model can reference, by its provenance key: what the file
# is, for messages, and the name of its loader in this module. The loader
# is looked up when called, so a wrapper put on the module attribute (a
# profiler's, a test's) sees every load.
RESOURCE_FILES = {
    "embedding": ("embedding table", "load_embeddings"),
    "sentiment_pos": ("positive sentiment lexicon", "load_word_set"),
    "sentiment_neg": ("negative sentiment lexicon", "load_word_set"),
    "liwc": ("category lexicon", "load_category_lexicon"),
    "gender": ("gender lexicon", "load_weighted_lexicon"),
    "spell_dict": ("spell dictionary", "load_spell_dictionary"),
}


def file_sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass
class Resources:
    """Loaded dense-feature resources handed to a pipeline."""

    embeddings: EmbeddingTable | None = None
    sentiment_provider: SentimentProvider | None = None
    category_lexicon: CategoryLexicon | None = None
    gender_lexicon: WeightedLexicon | None = None
    # Provenance for model files: key of RESOURCE_FILES -> (path, sha256).
    provenance: dict[str, tuple[str, str]] = field(default_factory=dict)

    # The field each dense block kind reads.
    _BLOCK_FIELD = {
        "embedding": "embeddings",
        "sentiment": "sentiment_provider",
        "liwc": "category_lexicon",
        "gender": "gender_lexicon",
    }

    def require(self, kind: str) -> None:
        if getattr(self, self._BLOCK_FIELD[kind]) is None:
            raise ResourceError(f"feature block kind {kind!r} needs a loaded resource")

    def load(self, key: str, path: str, sha256: str | None = None):
        """Load the file at ``path`` as resource ``key`` of
        :data:`RESOURCE_FILES`, record its ``(path, sha256)`` in
        ``provenance`` and return it; for a dense block kind (``embedding``,
        ``liwc``, ``gender``) it also fills that block's field. A missing
        file, or a SHA-256 other than ``sha256`` when that is given, raises
        ResourceError before anything is parsed."""
        what, loader = RESOURCE_FILES[key]
        if not Path(path).is_file():
            raise ResourceError(f"{what} not found: {path}")
        actual = file_sha256(path)
        if sha256 is not None and actual != sha256:
            raise ResourceError(
                f"checksum mismatch for {what} {path}: expected {sha256}, got {actual}"
            )
        loaded = globals()[loader](path)
        self.provenance[key] = (path, actual)
        if key in self._BLOCK_FIELD:
            setattr(self, self._BLOCK_FIELD[key], loaded)
        return loaded
