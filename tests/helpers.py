"""Shared test utilities: tiny resource files and synthetic corpora."""

from __future__ import annotations

import base64
import json
import os
import re
import struct
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from aggdetect.corpus_io import LABELS, Corpus, Document, Label, escape_field
from aggdetect.featurize import (
    FeatureBlockSpec, FeaturePipeline, Vocabulary, _fit_counts, _TermIds,
)
from aggdetect.kernels import SparseMatrix, SparseVector
from aggdetect.model import OvRModel
from aggdetect.preprocess import CleanConfig, SpellDictionary, _stem_token
from aggdetect.translit import TABLE_VERSION

# Three disjoint signal-word families, one per class, plus shared noise.
SIGNAL_WORDS = {
    Label.NAG: [f"calm{i}" for i in range(10)],
    Label.CAG: [f"sly{i}" for i in range(10)],
    Label.OAG: [f"rage{i}" for i in range(10)],
}
NOISE_WORDS = [f"word{i}" for i in range(30)]


def synthetic_documents(
    n_per_class: int, seed: int = 7, n_signal: int = 3, n_noise: int = 5
) -> list[tuple[str, str, Label]]:
    """(id, text, label) rows where each class has exclusive signal tokens
    mixed into shared noise."""
    rng = np.random.default_rng(seed)
    rows = []
    counter = 0
    for label in (Label.NAG, Label.CAG, Label.OAG):
        for _ in range(n_per_class):
            signal = rng.choice(SIGNAL_WORDS[label], size=n_signal, replace=True)
            noise = rng.choice(NOISE_WORDS, size=n_noise, replace=True)
            tokens = list(signal) + list(noise)
            rng.shuffle(tokens)
            rows.append((f"doc{counter}", " ".join(tokens), label))
            counter += 1
    return rows


def sparse(dimension: int, weights: dict[int, float]) -> SparseVector:
    """A SparseVector from an ``{index: weight}`` map in any order; zero
    weights are dropped by the constructor."""
    indices = sorted(weights)
    return SparseVector(dimension, indices, [weights[i] for i in indices])


def stack(rows: Sequence[SparseVector]) -> SparseMatrix:
    """The rows, all of one dimension, as one SparseMatrix built through its
    checking constructor: indptr is the running sum of the row lengths, and
    indices and data are the rows concatenated in order. No rows give a
    0 x 0 matrix."""
    (dimension,) = {row.dimension for row in rows} or {0}
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=indptr[1:])
    indices = np.concatenate([row.indices for row in rows] or [np.zeros(0, dtype=np.int64)])
    data = np.concatenate([row.values for row in rows] or [np.zeros(0)])
    return SparseMatrix(dimension, indptr, indices, data)


def char_ngrams(text: str, n: int) -> list[str]:
    """All contiguous n-character windows over the whole text, spaces
    included: the reference for the char n-gram blocks."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return [text[i : i + n] for i in range(len(text) - n + 1)]


def fit_vocabulary(corpus_terms: Iterable[Sequence[str]], min_df: int = 1) -> Vocabulary:
    """The vocabulary of the terms with document frequency >= min_df, each
    document given as its list of terms."""
    pid = _TermIds()
    ids: list[int] = []
    n_documents = 0
    for terms in corpus_terms:
        ids += map(pid.__getitem__, set(terms))
        n_documents += 1
    return _fit_counts(np.array(ids, dtype=np.intp), pid, n_documents, min_df)[0]


def terms_and_dfs(vocab: Vocabulary) -> list[tuple[str, int]]:
    """Each term of ``vocab`` with its document frequency, by index; the
    frequencies are one int64 array aligned with the terms."""
    assert vocab.document_frequency.dtype == np.int64
    assert vocab.document_frequency.shape == (len(vocab.terms),)
    return list(zip(vocab.terms, vocab.document_frequency.tolist()))


def block_row(name: str, terms: list[str], vocab: Vocabulary) -> tuple[np.ndarray, np.ndarray]:
    """``(indices, values)`` of the document made of ``terms``, each one
    token, under a one-block pipeline restored with ``vocab``."""
    pipeline = FeaturePipeline([FeatureBlockSpec.from_name(name, min_df=1)])
    pipeline.restore({name: vocab})
    return pipeline.transform(Document(id="d", text=" ".join(terms))).to_arrays()


def edits1(token: str, alphabet: list[str]) -> set[str]:
    """Every string one Damerau-style edit away from ``token`` (deletes,
    adjacent transposes, replaces and inserts over ``alphabet``), built in
    full as Norvig's corrector does: the reference for spell correction."""
    splits = [(token[:i], token[i:]) for i in range(len(token) + 1)]
    edits = {left + right[1:] for left, right in splits if right}
    edits.update(
        left + right[1] + right[0] + right[2:] for left, right in splits if len(right) > 1
    )
    for left, right in splits:
        for ch in alphabet:
            edits.add(left + ch + right)
            if right:
                edits.add(left + ch + right[1:])
    edits.discard(token)
    return edits


def reference_candidates(token: str, dictionary: SpellDictionary) -> set[str]:
    """The entries among all of ``token``'s single edits."""
    return {edit for edit in edits1(token, dictionary._alphabet) if edit in dictionary.entries}


def reference_spell_correct(tokens: list[str], dictionary: SpellDictionary) -> list[str]:
    """Spell correction by generating every single edit and keeping the
    entries, with no memo: each token ranked by ``(-frequency, term)``."""
    entries = dictionary.entries
    corrected = []
    for token in tokens:
        candidates = [] if token in entries else reference_candidates(token, dictionary)
        corrected.append(min(candidates, key=lambda c: (-entries[c], c)) if candidates
                         else token)
    return corrected


# The regex definition of cleaning: five whole-text passes, kept as the
# reference for the one pass over the tokens in ``aggdetect.preprocess``.
_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_EMAIL_RE = re.compile(r"[\w.+-]+@[\w-]+\.[\w.-]+")
# Standalone digit runs only; digits embedded in alphanumeric tokens
# (slang like "b4") survive.
_NUMBER_RE = re.compile(r"(?<!\S)\d+(?!\S)")
_WS_RE = re.compile(r"\s+")
_MAX_REWRITE_DEPTH = 8


def _reference_rewrite_token(token: str, config: CleanConfig, depth: int = 0) -> list[str]:
    # Expansion, then stemming; a stem result that is itself an expansion
    # key re-enters ("u's" -> "u" -> "you"), so one pass reaches the same
    # fixed point a second pass would. The depth cap guards against
    # pathological user-defined rewrite cycles.
    if depth < _MAX_REWRITE_DEPTH:
        replacement = config.expansions.get(token)
        if replacement is not None and replacement.split() != [token]:
            parts: list[str] = []
            for part in replacement.split():
                parts.extend(_reference_rewrite_token(part, config, depth + 1))
            return parts
    if not config.minor_stemming:
        return [token]
    stemmed = _stem_token(token)
    if stemmed != token and depth < _MAX_REWRITE_DEPTH and stemmed in config.expansions:
        return _reference_rewrite_token(stemmed, config, depth + 1)
    return [stemmed]


def reference_clean_text(text: str, config: CleanConfig | None = None) -> str:
    """Normalize one comment. Total and idempotent."""
    config = config or CleanConfig()
    if config.lowercase:
        text = text.lower()
    if config.strip_urls:
        text = _URL_RE.sub(" ", text)
    if config.strip_emails:
        text = _EMAIL_RE.sub(" ", text)
    if config.strip_numbers:
        text = _NUMBER_RE.sub(" ", text)

    tokens: list[str] = []
    if config.expansions or config.minor_stemming:
        for token in text.split():
            tokens.extend(_reference_rewrite_token(token, config))
    else:
        tokens = text.split()

    return _WS_RE.sub(" ", " ".join(tokens)).strip()


def write_corpus(corpus: Corpus, path: Path) -> None:
    """Write a corpus in the canonical escaped-TSV format."""
    lines = []
    for doc in corpus.documents:
        fields = [escape_field(doc.id), escape_field(doc.text)]
        if doc.gold is not None:
            fields.append(doc.gold.name)
        lines.append("\t".join(fields))
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def write_corpus_tsv(path: Path, rows: list[tuple[str, str, Label]]) -> Path:
    lines = [f"{doc_id}\t{text}\t{label.name}\n" for doc_id, text, label in rows]
    path.write_text("".join(lines), encoding="utf-8")
    return path


def write_embeddings(path: Path, vectors: dict[str, list[float]]) -> Path:
    if not vectors:
        path.write_text("0 0\n", encoding="utf-8")
        return path
    dim = len(next(iter(vectors.values())))
    lines = [f"{len(vectors)} {dim}\n"]
    for word, values in vectors.items():
        lines.append(word + " " + " ".join(str(v) for v in values) + "\n")
    path.write_text("".join(lines), encoding="utf-8")
    return path


def write_lines(path: Path, lines: list[str]) -> Path:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


_REFERENCE_ESCAPES = {"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"}


def reference_escape_field(value: str) -> str:
    """``escape_field`` one character at a time."""
    return "".join(_REFERENCE_ESCAPES.get(ch, ch) for ch in value)


def reference_model_text_v2(model: OvRModel, directory: Path) -> str:
    """The text of a model file written in ``directory``, every line in one
    list, joined once: each resource path relative to ``directory``, each
    class's convergence keys that are not None, then its whole weight
    vector packed by ``struct`` as little-endian float64, in base64 cut
    into lines of 76 characters."""
    flag = {True: "true", False: "false"}
    pipe = model.pipeline
    prep = model.preprocess

    def provenance(key: str, prefix: str = "") -> list[str]:
        path, sha256 = pipe.resources.provenance[key]
        return [f"{prefix}path = {os.path.relpath(path, directory)}",
                f"{prefix}sha256 = {sha256}"]

    out: list[str] = ["aggdetect-model 2"]
    out.append("[meta]")
    out.append(f"language = {model.language}")
    out.append("labels = " + ",".join(label.name for label in LABELS))
    out.append(f"n_train_documents = {model.n_train_documents}")
    out.append(f"merged_validation = {flag[model.merged_validation]}")
    out.append(f"single_class_warning = {flag[model.single_class_warning]}")
    out.append(f"total_dimension = {pipe.total_dimension}")

    out.append("[preprocess]")
    clean = prep.clean
    out.append(f"lowercase = {flag[clean.lowercase]}")
    out.append(f"strip_urls = {flag[clean.strip_urls]}")
    out.append(f"strip_emails = {flag[clean.strip_emails]}")
    out.append(f"strip_numbers = {flag[clean.strip_numbers]}")
    out.append(f"minor_stemming = {flag[clean.minor_stemming]}")
    out.append("expansions = " + json.dumps(clean.expansions, sort_keys=True, ensure_ascii=False))
    out.append(f"transliterate = {flag[prep.transliterate]}")
    out.append(f"translit_table_version = {TABLE_VERSION}")
    out.append(f"spell_correct = {flag[prep.spell_dictionary is not None]}")
    if prep.spell_dictionary is not None:
        out.extend(provenance("spell_dict", "spell_dict_"))

    out.append("[pipeline]")
    out.append("blocks = " + ",".join(spec.name for spec in pipe.blocks))

    for spec in pipe.blocks:
        lexical = spec.name in pipe.vocabularies
        out.append(f"[block:{spec.name}]")
        out.append(f"kind = {spec.kind}")
        for key in ("n", "k", "min_df"):
            if key in spec.params:
                out.append(f"{key} = {spec.params[key]}")
        if lexical:
            vocab = pipe.vocabularies[spec.name]
            out.append(f"n_documents = {vocab.n_documents}")
        elif spec.kind in ("embedding", "liwc", "gender"):
            out.extend(provenance(spec.kind))
        elif spec.kind == "sentiment":
            provider = pipe.resources.sentiment_provider
            out.append(f"provider = {provider.kind}")
            if provider.kind == "builtin":
                out.append(f"intensity_split = {float(provider.intensity_split)!r}")
                for side in ("pos", "neg"):
                    out.extend(provenance(f"sentiment_{side}", f"{side}_"))
        if lexical:
            out.append(f"[vocab:{spec.name}]")
            out.extend([f"{reference_escape_field(t)}\t{df}" for t, df in terms_and_dfs(vocab)])

    for label, clf in zip(LABELS, model.classifiers):
        out.append(f"[weights:{label.name}]")
        out.append(f"bias = {float(clf.bias)!r}")
        out.append(f"reg_lambda = {float(clf.reg_lambda)!r}")
        out.append(f"iterations = {clf.iterations}")
        out.append(f"final_grad_norm = {float(clf.final_grad_norm)!r}")
        if clf.stop_reason is not None:
            out.append(f"stop_reason = {clf.stop_reason}")
        if clf.final_loss is not None:
            out.append(f"final_loss = {float(clf.final_loss)!r}")
        values = [float(v) for v in clf.weights]
        block = base64.b64encode(struct.pack(f"<{len(values)}d", *values)).decode("ascii")
        out.extend(block[i : i + 76] for i in range(0, len(block), 76))
    return "\n".join(out) + "\n"
