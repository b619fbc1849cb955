"""Acceptance suite: one test per exit criterion, each printing a
PASS line (run with ``pytest tests/test_acceptance.py -s`` to see them).

The last test reproduces the published validation scores and only runs
when AGGDETECT_TRAC_DIR points at the shared-task data (see README).
"""

import itertools
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from aggdetect.cli import main
from aggdetect.corpus_io import LABELS, Label, load_predictions
from aggdetect.evaluate import confusion, random_baseline, weighted_f1
from aggdetect.featurize import (
    FeatureBlockSpec,
    FeaturePipeline,
    skip_grams,
)
from aggdetect.model import (
    TrainConfig,
    gradient,
    load_model,
    objective,
    predict_proba,
    save_model,
    train_ovr,
)
from aggdetect.corpus_io import Document
from aggdetect.preprocess import CleanConfig, PreprocessSettings

from helpers import (
    block_row, fit_vocabulary, sparse, stack, synthetic_documents, terms_and_dfs,
    write_corpus_tsv, write_lines,
)


def report(name: str) -> None:
    print(f"\nACCEPTANCE {name}: PASS", flush=True)


def test_synthetic_end_to_end(tmp_path):
    """U+C3+C4+C5 on a 300-document synthetic corpus: weighted F1 >= 0.95
    on the 90-document held-out split, in under 30 seconds."""
    rows = synthetic_documents(n_per_class=100, seed=29)
    held_out = rows[70:100] + rows[170:200] + rows[270:300]
    train_rows = rows[0:70] + rows[100:170] + rows[200:270]
    assert len(held_out) == 90 and len(train_rows) == 210

    train_path = write_corpus_tsv(tmp_path / "train.tsv", train_rows)
    test_path = write_corpus_tsv(tmp_path / "test.tsv", held_out)
    config = write_lines(
        tmp_path / "run.cfg", ["language = english", "blocks = U+C3+C4+C5"]
    )
    model_path = tmp_path / "model.txt"
    pred_path = tmp_path / "pred.tsv"

    start = time.perf_counter()
    assert main(["--quiet", "train", str(train_path), str(model_path),
                 "--config", str(config)]) == 0
    assert main(["--quiet", "predict", str(model_path), str(test_path),
                 str(pred_path)]) == 0
    predictions = load_predictions(pred_path)
    gold = [label for _i, _t, label in held_out]
    pred = [predictions[doc_id] for doc_id, _t, _l in held_out]
    score = weighted_f1(confusion(gold, pred))
    elapsed = time.perf_counter() - start

    assert score >= 0.95, f"weighted F1 {score:.4f} below 0.95"
    assert elapsed < 30.0, f"end-to-end run took {elapsed:.1f}s"
    report(f"synthetic end-to-end (weighted F1 {score:.4f}, {elapsed:.1f}s)")


def test_gradient_matches_finite_differences():
    """Analytic gradient vs central differences (eps=1e-5), 50 random
    problems of <= 10 dims and <= 20 examples, relative error <= 1e-4."""

    def reference_loss(X_dense, y, w, b, lam):
        z = X_dense @ w + b
        sigma = 1.0 / (1.0 + np.exp(-z))
        m = len(y)
        return float(
            -(y * np.log(sigma) + (1 - y) * np.log(1 - sigma)).sum() / m
            + 0.5 * lam * (w @ w) / m
        )

    rng = np.random.default_rng(101)
    eps = 1e-5
    start = time.perf_counter()
    for _ in range(50):
        dim = int(rng.integers(1, 11))
        m = int(rng.integers(1, 21))
        X_dense = np.where(rng.random((m, dim)) < 0.4, 0.0, rng.normal(size=(m, dim)))
        y = rng.integers(0, 2, size=m).astype(float)
        X = stack([
            sparse(dim, {j: X_dense[i, j] for j in range(dim) if X_dense[i, j]})
            for i in range(m)
        ])
        w = rng.normal(size=dim) * 0.8
        b = float(rng.normal())
        lam = float(rng.choice([0.0, 1.0, 4.0]))
        _loss, z = objective(X, y, w, b, lam)
        gw, gb = gradient(X, y, w, z, lam)
        analytic = np.concatenate([gw, [gb]])
        fd = np.zeros(dim + 1)
        for j in range(dim):
            wp, wm = w.copy(), w.copy()
            wp[j] += eps
            wm[j] -= eps
            fd[j] = (reference_loss(X_dense, y, wp, b, lam)
                     - reference_loss(X_dense, y, wm, b, lam)) / (2 * eps)
        fd[dim] = (reference_loss(X_dense, y, w, b + eps, lam)
                   - reference_loss(X_dense, y, w, b - eps, lam)) / (2 * eps)
        scale = max(1e-8, float(np.abs(analytic).max()), float(np.abs(fd).max()))
        rel = float(np.abs(analytic - fd).max()) / scale
        assert rel <= 1e-4, f"gradient relative error {rel:.2e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"gradient check took {elapsed:.1f}s"
    report(f"gradient vs finite differences ({elapsed:.2f}s)")


def test_weighted_f1_matches_pairwise_reference():
    """Matrix-based weighted F1 vs a direct per-pair reference on 1000
    random gold/pred lists, |delta| <= 1e-12."""

    def pairwise(gold, pred):
        total = 0.0
        for label in LABELS:
            tp = sum(1 for g, p in zip(gold, pred) if g == label and p == label)
            pc = sum(1 for p in pred if p == label)
            gc = sum(1 for g in gold if g == label)
            precision = tp / pc if pc else 0.0
            recall = tp / gc if gc else 0.0
            f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
            total += gc * f1
        return total / len(gold)

    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 60))
        gold = [LABELS[i] for i in rng.integers(0, 3, n)]
        pred = [LABELS[i] for i in rng.integers(0, 3, n)]
        delta = abs(weighted_f1(confusion(gold, pred)) - pairwise(gold, pred))
        worst = max(worst, delta)
        assert delta <= 1e-12
    report(f"weighted F1 oracle (max delta {worst:.2e})")


def test_skip_gram_brute_force_oracle():
    """skip_grams equals brute-force subsequence enumeration for every
    token list of length <= 8 (binary alphabet) with k=2, n in {2, 3}."""

    def brute_force(tokens, k, n):
        out = []
        for positions in itertools.combinations(range(len(tokens)), n):
            if all(b - a <= k + 1 for a, b in zip(positions, positions[1:])):
                out.append(" ".join(tokens[i] for i in positions))
        return out

    checked = 0
    for length in range(9):
        for combo in itertools.product("xy", repeat=length):
            tokens = list(combo)
            for n in (2, 3):
                assert skip_grams(tokens, 2, n) == brute_force(tokens, 2, n)
                checked += 1
    report(f"skip-gram brute-force oracle ({checked} cases)")


def test_tfidf_dense_matrix_oracle():
    """A TF-IDF block's rows vs a dense-matrix implementation on 20-document
    corpora, elementwise |delta| <= 1e-9."""
    rng = np.random.default_rng(303)
    alphabet = ["a", "b", "c", "d", "e", "f", "g"]
    for _seed in range(5):
        docs = [
            [alphabet[i] for i in rng.integers(0, len(alphabet), rng.integers(0, 12))]
            for _ in range(20)
        ]
        vocab = fit_vocabulary(docs, min_df=1)
        n_docs = len(docs)
        df = dict(terms_and_dfs(vocab))
        dense_idf = np.array(
            [math.log((1 + n_docs) / (1 + df[t])) + 1.0 for t in vocab.terms]
        )
        for terms in docs:
            counts = np.array([terms.count(t) for t in vocab.terms], dtype=float)
            dense_row = counts * dense_idf
            norm = np.linalg.norm(dense_row)
            if norm > 0:
                dense_row /= norm
            indices, values = block_row("U", terms, vocab)
            sparse_row = np.zeros(len(vocab))
            sparse_row[indices] = values
            assert np.abs(sparse_row - dense_row).max(initial=0.0) <= 1e-9
    report("tf-idf dense-matrix oracle")


def test_random_baseline_on_balanced_gold():
    """Uniform predictions on balanced 3000-label gold: mean weighted F1
    over 10000 trials within 1/3 +/- 0.01."""
    gold = [Label.NAG] * 1000 + [Label.CAG] * 1000 + [Label.OAG] * 1000
    value = random_baseline(gold, seed=404, trials=10000)
    assert abs(value - 1 / 3) <= 0.01, f"baseline {value:.4f} not within 1/3 +/- 0.01"
    report(f"random baseline sanity ({value:.4f})")


def test_persistence_round_trip_exact(tmp_path):
    """Saved-then-loaded model gives exactly equal probabilities on 100
    random vectors."""
    docs = [Document(id=f"d{i}", text=text, gold=label)
            for i, (_id, text, label) in enumerate(synthetic_documents(6, seed=55))]
    pipeline = FeaturePipeline(
        [FeatureBlockSpec.from_name("U", 1), FeatureBlockSpec.from_name("C4", 1)]
    ).fit(docs)
    model = train_ovr(
        pipeline.transform_many(docs), [d.gold for d in docs], TrainConfig(max_iters=80),
        pipeline=pipeline, preprocess=PreprocessSettings(clean=CleanConfig()),
    )
    path = tmp_path / "model.txt"
    save_model(model, path)
    loaded = load_model(path)
    rng = np.random.default_rng(66)
    dim = model.dimension
    for _ in range(100):
        nnz = int(rng.integers(0, 8))
        entries = {int(i): float(rng.normal())
                   for i in rng.choice(dim, size=min(nnz, dim), replace=False)}
        x = sparse(dim, entries)
        assert predict_proba(model, x).tolist() == predict_proba(loaded, x).tolist()
    report("persistence round trip (100 vectors, exact)")


def test_training_is_byte_deterministic(tmp_path):
    """Two identical train runs produce byte-identical model files."""
    rows = synthetic_documents(10, seed=77)
    corpus = write_corpus_tsv(tmp_path / "train.tsv", rows)
    config = write_lines(
        tmp_path / "run.cfg",
        ["language = english", "blocks = U+C3", "min_df = 1", "max_iters = 120"],
    )
    m1, m2 = tmp_path / "m1.txt", tmp_path / "m2.txt"
    assert main(["--quiet", "train", str(corpus), str(m1), "--config", str(config)]) == 0
    assert main(["--quiet", "train", str(corpus), str(m2), "--config", str(config)]) == 0
    assert m1.read_bytes() == m2.read_bytes()
    report("byte-identical training determinism")


def test_readme_library_example(capsys):
    """The fenced Python block under README's "## Library use" runs as
    written and prints one label."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip() in {str(label) for label in LABELS}
    report("README library example")


TRAC_ENV = "AGGDETECT_TRAC_DIR"
EMBEDDINGS_ENV = "AGGDETECT_EMBEDDINGS"


@pytest.mark.skipif(TRAC_ENV not in os.environ, reason=f"{TRAC_ENV} not set")
def test_trac_validation_scores(tmp_path):
    """Conditional: reproduce the published validation scores on the
    user-supplied shared-task data. Hindi U+C3+C4+C5 targets 0.6267 and
    English BU+U+C4+C5+W2V targets 0.5875, both +/- 0.03; a miss is
    reported as a flag for investigation, not a hard failure."""
    trac_dir = Path(os.environ[TRAC_ENV])

    def find(stem):
        for suffix, fmt in ((".csv", "csv"), (".tsv", "tsv")):
            candidate = trac_dir / f"{stem}{suffix}"
            if candidate.is_file():
                return candidate, fmt
        pytest.skip(f"{stem}.csv/.tsv not found under {trac_dir}")

    runs = [("hindi", "agr_hi_train", "agr_hi_dev", "U+C3+C4+C5", 0.6267, [])]
    if EMBEDDINGS_ENV in os.environ:
        runs.append(
            (
                "english",
                "agr_en_train",
                "agr_en_dev",
                "BU+U+C4+C5+W2V",
                0.5875,
                [f"embeddings = {os.environ[EMBEDDINGS_ENV]}"],
            )
        )

    for language, train_stem, dev_stem, blocks, target, extra in runs:
        train_path, fmt = find(train_stem)
        dev_path, _fmt = find(dev_stem)
        config = write_lines(
            tmp_path / f"{language}.cfg",
            [f"language = {language}", f"blocks = {blocks}"] + extra,
        )
        model_path = tmp_path / f"{language}.model"
        pred_path = tmp_path / f"{language}.pred"
        assert main(["train", str(train_path), str(model_path),
                     "--config", str(config), "--format", fmt]) == 0
        assert main(["predict", str(model_path), str(dev_path), str(pred_path),
                     "--format", fmt]) == 0

        from aggdetect.corpus_io import load_corpus

        dev = load_corpus(dev_path, has_labels=True, format=fmt)
        predictions = load_predictions(pred_path)
        gold = dev.gold_labels()
        pred = [predictions[d.id] for d in dev.documents]
        score = weighted_f1(confusion(gold, pred))
        status = "PASS" if abs(score - target) <= 0.03 else "FLAG (investigate)"
        print(
            f"\nACCEPTANCE TRAC {language} validation: {status} "
            f"(got {score:.4f}, published {target:.4f}, tolerance 0.03)",
            flush=True,
        )
        assert score > 0.3, f"{language} score {score:.4f} is implausibly low"
