"""Shared test utilities: tiny resource files and synthetic corpora."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from aggdetect.corpus_io import Corpus, Document, Label, escape_field
from aggdetect.featurize import FeatureBlockSpec, FeaturePipeline, Vocabulary
from aggdetect.kernels import SparseVector

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


def block_row(name: str, terms: list[str], vocab: Vocabulary) -> tuple[np.ndarray, np.ndarray]:
    """``(indices, values)`` of the document made of ``terms``, each one
    token, under a one-block pipeline restored with ``vocab``."""
    pipeline = FeaturePipeline([FeatureBlockSpec.from_name(name, min_df=1)])
    pipeline.restore({name: vocab})
    return pipeline.transform(Document(id="d", text=" ".join(terms))).to_arrays()


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
