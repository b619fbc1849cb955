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

import functools
import hashlib
import math
import re
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Container, Mapping, NoReturn, Sequence

import numpy as np

from .errors import DataError, ResourceError
from .preprocess import load_spell_dictionary

class EmbeddingTable:
    """Word vectors of ``dimension`` floats: each word ``w``'s vector is row
    ``index[w]`` of one read-only float64 ``matrix`` of shape
    ``(len(index), dimension)``. A loaded table may be shared by every model
    over the same file (see :meth:`Resources.load`), so neither the matrix
    nor the index may be changed.

    ``EmbeddingTable(vectors, dimension)`` copies a dict of word vectors
    into a new matrix, rows in the dict's order; :func:`load_embeddings`
    hands over the matrix it filled and its index (:meth:`of_rows`)."""

    def __init__(self, vectors: Mapping[str, Sequence[float]], dimension: int) -> None:
        matrix = np.array(list(vectors.values()), dtype=np.float64)
        self._set(dict(zip(vectors, range(len(vectors)))),
                  matrix.reshape(len(vectors), dimension))

    @classmethod
    def of_rows(cls, index: dict[str, int], matrix: np.ndarray) -> "EmbeddingTable":
        """The table whose word ``w`` has row ``index[w]`` of ``matrix``,
        which it makes read-only and keeps, without a copy."""
        table = cls.__new__(cls)
        table._set(index, matrix)
        return table

    def _set(self, index: dict[str, int], matrix: np.ndarray) -> None:
        # views taken after this inherit the flag
        matrix.flags.writeable = False
        self.index, self.matrix, self.dimension = index, matrix, matrix.shape[1]

    @functools.cached_property
    def vectors(self) -> dict[str, np.ndarray]:
        """Each word's vector, a read-only view of its row, made on first
        use; :func:`embed_average` reads ``index`` and ``matrix``."""
        return dict(zip(self.index, self.matrix))

    def __len__(self) -> int:
        return len(self.index)

    def __contains__(self, word: str) -> bool:
        return word in self.index


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
    if "" in values:
        raise ValueError("a row without values")
    matrix = np.loadtxt(values, dtype=np.float64, delimiter=" ", comments=None, ndmin=2)
    if matrix.shape != (len(rows), dim):
        raise ValueError(f"expected {len(rows)} rows of {dim} values, got {matrix.shape}")
    return matrix


def load_embeddings(text: str, path: Path) -> EmbeddingTable:
    """Parse an embedding table's text (``V d`` header, lines ending in
    ``\\n``, ``\\r\\n`` or ``\\r``); ``path`` names the file in messages.

    The rows fill one ``(V, d)`` matrix, parsed a chunk of lines at a time,
    which the table keeps, read-only because a table may be shared, with
    the index of each word's row."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    end = text.find("\n") % (len(text) + 1)  # the header line's end; -1 gives len(text)
    try:
        count, dim = map(int, text[:end].split())
    except ValueError:  # not two fields, or not two integers
        raise ResourceError(f"{path}: malformed embedding header (expected 'V d')") from None
    if count < 0 or dim < 1:
        raise ResourceError(f"{path}: bad embedding header values {count} {dim}")
    # a row takes at least 2 * dim characters, so a header that overstates
    # the count cannot make this allocation outgrow the text
    matrix = np.empty((min(count, len(text) // (2 * dim)), dim))
    words: dict[str, None] = {}  # in row order
    n_rows, lineno = 0, 2
    while (start := end + 1) < len(text):
        # the lines that hold the next _EMBEDDING_CHUNK characters
        end = text.find("\n", start + _EMBEDDING_CHUNK - 1) % (len(text) + 1)
        lines = text[start:end].split("\n")
        rows = [line for line in lines if line and not line.isspace()]
        try:
            block = _parse_vectors(rows, dim)
            ok = bool(np.isfinite(block).all())
        except ValueError:
            ok = False
        if ok:
            stop = n_rows + len(rows)
            # rows past the header's count are checked but not kept in
            # the matrix; the count check after the loop refuses them
            if stop <= len(matrix):
                matrix[n_rows:stop] = block
            chunk = dict.fromkeys(row.partition(" ")[0] for row in rows)
            ok = len(chunk) == len(rows) and words.keys().isdisjoint(chunk)
        if not ok:
            _refuse_embedding_rows(lines, lineno, dim, words, path)
        words.update(chunk)
        n_rows = stop
        lineno += len(lines)
    if n_rows != count:
        raise ResourceError(f"{path}: header declares {count} vectors but file has {n_rows}")
    return EmbeddingTable.of_rows(dict(zip(words, range(count))), matrix)


def _refuse_embedding_rows(
    lines: list[str], lineno: int, dim: int, words: Container[str], path: Path
) -> NoReturn:
    """Raise for the first of ``lines`` (the first at file line ``lineno``)
    that the bulk parse or its checks refuse; ``words`` holds the words
    of the lines before them."""
    seen = set()
    for lineno, line in enumerate(lines, start=lineno):
        if not line or line.isspace():
            continue
        parts = line.split(" ")
        if len(parts) != dim + 1:
            raise ResourceError(
                f"{path}: row arity mismatch at line {lineno}: expected "
                f"{dim + 1} fields, got {len(parts)}"
            )
        word = parts[0]
        if word in words or word in seen:
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
    The hit rows are gathered from the table's matrix by its shared index
    and summed in token order, one addition at a time
    (``np.add.reduce(axis=0)``), then divided by the hit count: the bits
    of ``np.mean(np.stack(hits), axis=0)``.
    """
    index = table.index
    rows = [index[t] for t in tokens if t in index]
    if not rows:
        return np.zeros(table.dimension), 0.0
    mean = np.add.reduce(table.matrix.take(rows, axis=0), axis=0)
    mean /= len(rows)
    return mean, len(rows) / len(tokens)


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


def load_word_set(text: str, path: Path) -> set[str]:
    """A word list's words, lowercased; blank and ``#`` lines are skipped."""
    words = set()
    for line in text.splitlines():
        word = line.strip()
        if word and not word.startswith("#"):
            words.add(word.lower())
    return words


class BuiltinSentimentProvider:
    """Scores each sentence with the built-in lexicon scorer."""

    kind = "builtin"

    def __init__(self, pos_lexicon: set[str], neg_lexicon: set[str], intensity_split: float = 0.7):
        self.pos_lexicon = pos_lexicon
        self.neg_lexicon = neg_lexicon
        self.intensity_split = intensity_split

    def document_features(self, doc) -> np.ndarray:
        """The 10-dim mean/std sentiment feature of ``doc``."""
        from .featurize import tokenize  # local import to avoid a cycle

        distributions = [
            builtin_sentence_sentiment(
                tokenize(sentence), self.pos_lexicon, self.neg_lexicon, self.intensity_split
            )
            for sentence in split_sentences(doc.text)
        ]
        return sentiment_features(distributions)


class SidecarSentimentProvider:
    """Reads precomputed per-sentence distributions keyed by document id
    and sentence index (e.g. produced by an external sentiment tool).
    ``None`` stands for the sidecar a loaded model was trained with, which
    it does not reference: prediction must supply one for its corpus."""

    kind = "sidecar"

    def __init__(self, distributions: dict[tuple[str, int], np.ndarray] | None):
        self.distributions = distributions

    def document_features(self, doc) -> np.ndarray:
        if self.distributions is None:
            raise ResourceError(
                "this model uses sidecar sentiment; supply a sidecar file for the corpus"
            )
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


def load_sentiment_sidecar(text: str, path: Path) -> SidecarSentimentProvider:
    """Parse a sentiment sidecar's text; ``path`` names the file in
    messages. The provider is returned, not its table, because a parse is
    remembered by weak reference (:meth:`Resources.load`)."""
    result: dict[tuple[str, int], np.ndarray] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
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
    return SidecarSentimentProvider(result)


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


def load_category_lexicon(text: str, path: Path) -> CategoryLexicon:
    """Parse a category lexicon's text; ``path`` names the file in messages."""
    categories: list[tuple[str, list[str]]] = []
    seen = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
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


def load_weighted_lexicon(text: str, path: Path) -> WeightedLexicon:
    """Parse a weighted lexicon's text; ``path`` names the file in messages."""
    weights: dict[str, float] = {}
    intercept = 0.0
    for lineno, line in enumerate(text.splitlines(), start=1):
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


# Every resource file, by its provenance key: what the file is, for
# messages, and the name of its loader in this module, which parses the
# file's text. A model references each but the sentiment sidecar, which
# belongs to one corpus. The loader is looked up when called, so a
# wrapper put on the module attribute (a profiler's, a test's) sees every
# parse.
RESOURCE_FILES = {
    "embedding": ("embedding table", "load_embeddings"),
    "sentiment_pos": ("positive sentiment lexicon", "load_word_set"),
    "sentiment_neg": ("negative sentiment lexicon", "load_word_set"),
    "liwc": ("category lexicon", "load_category_lexicon"),
    "gender": ("gender lexicon", "load_weighted_lexicon"),
    "spell_dict": ("spell dictionary", "load_spell_dictionary"),
    "sentiment_sidecar": ("sentiment sidecar", "load_sentiment_sidecar"),
}

# (loader name, SHA-256 of a file's bytes) -> what that loader parsed from
# those bytes, for as long as anything else holds it: no strong reference,
# no size bound. Resources.load looks here before it decodes and parses.
_PARSED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


@dataclass
class Resources:
    """Loaded dense-feature resources handed to a pipeline."""

    embeddings: EmbeddingTable | None = None
    sentiment_provider: BuiltinSentimentProvider | SidecarSentimentProvider | None = None
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
        ``liwc``, ``gender``) it also fills that block's field.

        Every load reads the file once and hashes its bytes: a missing file,
        a SHA-256 other than ``sha256`` when that is given, or bytes that are
        not UTF-8 raise ResourceError. The object returned was parsed from
        bytes with the recorded SHA-256. While a parse of the same loader
        from bytes with that hash is still alive (held by a model, a
        pipeline or a ``Resources``), the load returns that object without
        decoding or parsing again, so the object is shared and must not be
        changed. Only what a loader returned is remembered, never an
        error."""
        what, loader = RESOURCE_FILES[key]
        if not Path(path).is_file():
            raise ResourceError(f"{what} not found: {path}")
        data = Path(path).read_bytes()
        actual = hashlib.sha256(data).hexdigest()
        if sha256 is not None and actual != sha256:
            raise ResourceError(
                f"checksum mismatch for {what} {path}: expected {sha256}, got {actual}"
            )
        loaded = _PARSED.get((loader, actual))
        if loaded is None:
            try:
                text = data.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ResourceError(f"{what} {path} is not UTF-8 text ({exc.reason})") from None
            del data
            loaded = _PARSED[loader, actual] = globals()[loader](text, Path(path))
        self.provenance[key] = (path, actual)
        if key in self._BLOCK_FIELD:
            setattr(self, self._BLOCK_FIELD[key], loaded)
        return loaded
