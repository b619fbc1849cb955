import gc
import math
import re
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from aggdetect import kernels
from aggdetect import model as model_module
from aggdetect.corpus_io import Document, Label
from aggdetect.errors import DataError, ResourceError
from aggdetect.featurize import FeatureBlockSpec, FeaturePipeline, Vocabulary
from aggdetect.lexfeatures import Resources
from aggdetect.model import (
    BinaryLogReg,
    OvRModel,
    TrainConfig,
    gradient,
    load_model,
    objective,
    predict,
    predict_many,
    predict_proba,
    save_model,
    top_features,
    train_binary,
    train_ovr,
)
from aggdetect.preprocess import CleanConfig, PreprocessSettings

from helpers import (
    reference_model_text_v2,
    sparse,
    stack,
    synthetic_documents,
    terms_and_dfs,
    write_embeddings,
    write_lines,
)


def sv(dimension, **entries):
    return sparse(dimension, {int(k[1:]): v for k, v in entries.items()})


def decision_values(clf, X):
    """w.x + b of one binary classifier for each vector, scored as a batch."""
    matrix = stack(X)
    return kernels.csr_matvec(matrix, clf.weights) + clf.bias


def gradient_at(vectors, y, w, b, lam):
    X = stack(vectors)
    _loss, z = objective(X, y, w, b, lam)
    return gradient(X, y, w, z, lam)


def dense_reference_loss(X_dense, y, w, b, lam):
    """Independent objective implementation for finite differences."""
    z = X_dense @ w + b
    sigma = 1.0 / (1.0 + np.exp(-z))
    m = len(y)
    xent = -(y * np.log(sigma) + (1 - y) * np.log(1 - sigma))
    return float(xent.sum() / m + 0.5 * lam * (w @ w) / m)


def random_problem(rng, max_dim=10, max_examples=20):
    dim = rng.integers(1, max_dim + 1)
    m = rng.integers(1, max_examples + 1)
    X_dense = np.where(rng.random((m, dim)) < 0.5, 0.0, rng.normal(size=(m, dim)))
    y = rng.integers(0, 2, size=m).astype(float)
    vectors = [
        sparse(int(dim), {j: X_dense[i, j] for j in range(dim) if X_dense[i, j] != 0.0})
        for i in range(m)
    ]
    return vectors, X_dense, y


class TestGradient:
    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(42)
        eps = 1e-5
        for _ in range(50):
            vectors, X_dense, y = random_problem(rng)
            dim = X_dense.shape[1]
            w = rng.normal(size=dim) * 0.5
            b = float(rng.normal() * 0.5)
            lam = float(rng.choice([0.0, 0.5, 1.0, 3.0]))
            gw, gb = gradient_at(vectors, y, w, b, lam)
            fd = np.zeros(dim + 1)
            for j in range(dim):
                wp, wm = w.copy(), w.copy()
                wp[j] += eps
                wm[j] -= eps
                fd[j] = (
                    dense_reference_loss(X_dense, y, wp, b, lam)
                    - dense_reference_loss(X_dense, y, wm, b, lam)
                ) / (2 * eps)
            fd[dim] = (
                dense_reference_loss(X_dense, y, w, b + eps, lam)
                - dense_reference_loss(X_dense, y, w, b - eps, lam)
            ) / (2 * eps)
            analytic = np.concatenate([gw, [gb]])
            scale = max(1e-8, float(np.abs(analytic).max()), float(np.abs(fd).max()))
            assert float(np.abs(analytic - fd).max()) / scale <= 1e-4

    def test_gradient_at_zero_is_mean_residual(self):
        # with w=0, b=0 every predicted probability is 0.5
        X = [sv(2, i0=1.0), sv(2, i1=1.0)]
        y = np.array([1.0, 0.0])
        gw, gb = gradient_at(X, y, np.zeros(2), 0.0, 0.0)
        assert gb == pytest.approx(float(np.mean(0.5 - y)))
        assert gw == pytest.approx([-0.25, 0.25])


def fit(vectors, y, config=None):
    return train_binary(stack(vectors), y, config)


def newton_reference(X_dense, y, lam):
    """Independent dense Newton solve of J; returns (w, b) and the
    smallest Hessian eigenvalue at the optimum."""
    m, dim = X_dense.shape
    A = np.hstack([X_dense, np.ones((m, 1))])
    reg = np.diag(np.r_[np.full(dim, lam / m), 0.0])
    theta = np.zeros(dim + 1)
    for _ in range(50):
        p = 1.0 / (1.0 + np.exp(-(A @ theta)))
        hessian = A.T @ (A * (p * (1 - p))[:, None]) / m + reg
        theta -= np.linalg.solve(hessian, A.T @ (p - y) / m + reg @ theta)
    p = 1.0 / (1.0 + np.exp(-(A @ theta)))
    assert np.abs(A.T @ (p - y) / m + reg @ theta).max() <= 1e-12
    hessian = A.T @ (A * (p * (1 - p))[:, None]) / m + reg
    return theta[:dim], theta[dim], float(np.linalg.eigvalsh(hessian)[0])


class TestTrainBinary:
    def test_separable_margin(self):
        # 1-D: x=+1 labeled 1, x=-1 labeled 0; lambda=0 drives the margin up
        X = [sv(1, i0=1.0), sv(1, i0=-1.0)]
        clf = fit(X, [1, 0], TrainConfig(reg_lambda=0.0, max_iters=1000))
        p = 1.0 / (1.0 + math.exp(-(clf.weights[0] + clf.bias)))
        assert p > 0.9

    def test_all_positive_targets_grow_bias(self):
        X = [sparse(2, {}) for _ in range(4)]
        clf = fit(X, [1, 1, 1, 1], TrainConfig(reg_lambda=1.0, max_iters=200))
        assert clf.bias > 0
        assert np.all(clf.weights == 0.0)  # all-zero features leave w untouched

    def test_loss_never_increases(self):
        # the trainer asserts Armijo decrease internally; verify end-to-end
        rng = np.random.default_rng(5)
        vectors, X_dense, y = random_problem(rng, max_dim=6, max_examples=15)
        config = TrainConfig(max_iters=50)
        X = stack(vectors)
        clf = train_binary(X, y, config)
        start, _z = objective(X, y, np.zeros(X_dense.shape[1]), 0.0, config.reg_lambda)
        end, _z = objective(X, y, clf.weights, clf.bias, config.reg_lambda)
        assert end <= start

    def test_separable_reaches_perfect_accuracy(self):
        # unregularized weights keep growing on separable data, so the
        # gradient never reaches tolerance; accuracy maxes out long before
        # the default iteration budget
        rng = np.random.default_rng(9)
        X, labels = [], []
        for i in range(20):
            positive = i % 2 == 0
            entries = {0: 1.0} if positive else {1: 1.0}
            entries[2] = float(rng.normal() * 0.01)
            X.append(sparse(3, entries))
            labels.append(1 if positive else 0)
        clf = fit(X, labels, TrainConfig(reg_lambda=0.0, max_iters=200))
        correct = sum(
            (z > 0) == bool(lab) for z, lab in zip(decision_values(clf, X), labels)
        )
        assert correct == len(X)

    def test_two_example_permutation_gives_identical_model(self):
        X = [sv(2, i0=1.0), sv(2, i1=0.5)]
        y = [1, 0]
        a = fit(X, y, TrainConfig(max_iters=100))
        b = fit(list(reversed(X)), list(reversed(y)), TrainConfig(max_iters=100))
        assert a.weights.tolist() == b.weights.tolist()
        assert a.bias == b.bias

    def test_permutation_invariance_up_to_float_noise(self):
        rng = np.random.default_rng(11)
        vectors, _dense, y = random_problem(rng, max_dim=8, max_examples=20)
        perm = rng.permutation(len(y))
        a = fit(vectors, y, TrainConfig(max_iters=200))
        b = fit([vectors[i] for i in perm], y[perm], TrainConfig(max_iters=200))
        assert np.allclose(a.weights, b.weights, atol=1e-8)

    def test_regularization_shrinks_weights_monotonically(self):
        rng = np.random.default_rng(13)
        vectors, _dense, y = random_problem(rng, max_dim=5, max_examples=20)
        norms = []
        for lam in (0.0, 0.1, 1.0, 10.0, 100.0):
            clf = fit(vectors, y, TrainConfig(reg_lambda=lam, max_iters=5000, grad_tol=1e-10))
            norms.append(float(np.linalg.norm(clf.weights)))
        for smaller, larger in zip(norms[1:], norms[:-1]):
            assert smaller <= larger + 1e-6

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), lam=st.floats(0.1, 10.0))
    def test_converges_to_dense_newton_solution(self, seed, lam):
        rng = np.random.default_rng(seed)
        vectors, X_dense, y = random_problem(rng)
        assume(len(y) >= 2)
        y[0], y[1] = 1.0, 0.0  # both classes, so a finite optimum exists
        w_ref, b_ref, mu = newton_reference(X_dense, y, lam)
        # J is mu-strongly convex near the optimum, so a gradient of
        # sup-norm g leaves (w, b) about g / mu from it; float64 values
        # of J stop resolving descent near g ~ 1e-8 on these problems
        config = TrainConfig(reg_lambda=lam, grad_tol=4e-7 * mu)
        X = stack(vectors)
        clf = train_binary(X, y, config)
        assert clf.stop_reason == "grad_tol"
        assert clf.iterations < config.max_iters
        _loss, z = objective(X, y, clf.weights, clf.bias, lam)
        gw, gb = gradient(X, y, clf.weights, z, lam)
        assert max(float(np.abs(gw).max()), abs(gb)) <= config.grad_tol
        assert np.abs(clf.weights - w_ref).max() <= 1e-6
        assert abs(clf.bias - b_ref) <= 1e-6

    def test_stop_reasons(self):
        X = [sv(2, i0=1.0), sv(2, i1=0.5), sv(2, i0=-1.0, i1=1.0)]
        y = [1, 0, 0]
        assert fit(X, y).stop_reason == "grad_tol"
        capped = fit(X, y, TrainConfig(max_iters=1))
        assert (capped.stop_reason, capped.iterations) == ("max_iters", 1)
        # float64 values of J stop resolving descent long before the
        # gradient reaches 1e-300
        stuck = fit(X, y, TrainConfig(grad_tol=1e-300))
        assert stuck.stop_reason == "line_search"
        assert stuck.iterations < 1000

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(DataError):
            fit([sv(1, i0=1.0)], [1, 0])

    def test_rejects_empty(self):
        with pytest.raises(DataError, match="empty"):
            fit([], [])

    def test_rejects_non_finite(self):
        with pytest.raises(DataError, match="non-finite"):
            fit([sv(1, i0=float("nan"))], [1])


class TestTrainOvr:
    def test_one_classifier_per_class(self):
        X = [sv(2, i0=1.0), sv(2, i1=1.0), sv(2, i0=1.0, i1=1.0)]
        model = train_ovr(stack(X), [Label.NAG, Label.CAG, Label.OAG], TrainConfig(max_iters=20))
        assert len(model.classifiers) == 3
        assert not model.single_class_warning

    def test_stacks_the_training_vectors_once(self, monkeypatch):
        """fit_transform's matrix reaches every solve as it is, not a copy."""
        docs = [Document(id=str(i), text=text, gold=label)
                for i, (_id, text, label) in enumerate(synthetic_documents(3))]
        matrix = FeaturePipeline([FeatureBlockSpec.from_name("U", min_df=1)]).fit_transform(docs)
        solved = []
        original_train = model_module.train_binary
        monkeypatch.setattr(model_module, "train_binary",
                            lambda X, y, config=None: solved.append(X)
                            or original_train(X, y, config))
        train_ovr(matrix, [doc.gold for doc in docs], TrainConfig(max_iters=5))
        assert len(solved) == 3 and all(X is matrix for X in solved)

    def test_absent_class_trains_all_negative(self):
        X = [sv(1, i0=1.0), sv(1, i0=0.5), sv(1, i0=-1.0)]
        model = train_ovr(stack(X), [Label.NAG, Label.NAG, Label.OAG], TrainConfig(max_iters=200))
        cag = model.classifiers[int(Label.CAG)]
        probs = 1.0 / (1.0 + np.exp(-decision_values(cag, X)))
        assert all(p < 0.5 for p in probs)

    def test_single_class_flagged(self):
        X = [sv(1, i0=1.0), sv(1, i0=2.0)]
        model = train_ovr(stack(X), [Label.NAG, Label.NAG], TrainConfig(max_iters=10))
        assert model.single_class_warning

    def test_two_class_argmax_matches_binary_threshold(self):
        rng = np.random.default_rng(21)
        X, labels, y = [], [], []
        for i in range(30):
            positive = i % 2 == 0
            base = 1.0 if positive else -1.0
            X.append(sv(2, i0=base + float(rng.normal() * 0.1), i1=float(rng.normal() * 0.1)))
            labels.append(Label.NAG if positive else Label.CAG)
            y.append(1 if positive else 0)
        config = TrainConfig(max_iters=300)
        ovr = train_ovr(stack(X), labels, config)
        binary = fit(X, y, config)
        for x, z in zip(X, decision_values(binary, X)):
            ovr_says_nag = predict(ovr, x) is Label.NAG
            binary_says_positive = z > 0
            assert ovr_says_nag == binary_says_positive


def hand_model(biases, dimension=1, weights=None):
    classifiers = []
    for i, b in enumerate(biases):
        w = np.zeros(dimension)
        if weights is not None:
            w = np.asarray(weights[i], dtype=float)
        classifiers.append(BinaryLogReg(weights=w, bias=float(b), reg_lambda=1.0))
    return OvRModel(classifiers=classifiers)


class TestPredict:
    def test_zero_model_scores_half(self):
        model = hand_model([0.0, 0.0, 0.0])
        assert predict_proba(model, sv(1, i0=3.0)).tolist() == [0.5, 0.5, 0.5]

    def test_saturated_biases(self):
        model = hand_model([-1000.0, 0.0, 1000.0])
        probs = predict_proba(model, sparse(1, {}))
        assert probs[0] == pytest.approx(0.0, abs=1e-12)
        assert probs[1] == 0.5
        assert probs[2] == pytest.approx(1.0, abs=1e-12)

    def test_sigmoid_of_two(self):
        model = hand_model([0.0], dimension=1, weights=[[1.0]])
        prob = predict_proba(OvRModel(classifiers=model.classifiers * 3), sv(1, i0=2.0))
        assert prob[0] == pytest.approx(0.8807970779778823)

    def test_argmax_and_tie_break(self):
        model = hand_model([math.log(1 / 9), math.log(9), math.log(3 / 7)])
        # probabilities (0.1, 0.9, 0.3)
        assert predict(model, sparse(1, {})) is Label.CAG
        tie = hand_model([0.0, 0.0, 0.0])
        assert predict(tie, sparse(1, {})) is Label.NAG

    def test_highest_wins_even_by_hair(self):
        model = hand_model([-1.0, -1.0, -0.99])
        assert predict(model, sparse(1, {})) is Label.OAG

    def test_argmax_invariant_under_sigmoid(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            scores = rng.normal(size=3) * 4
            raw = int(np.argmax(scores))
            squashed = int(np.argmax(1.0 / (1.0 + np.exp(-scores))))
            assert raw == squashed

    def test_dimension_mismatch(self):
        model = hand_model([0.0, 0.0, 0.0], dimension=2)
        with pytest.raises(DataError, match="dimension"):
            predict_proba(model, sv(5, i0=1.0))

    @given(st.data())
    def test_predict_many_matches_predict(self, data):
        """Each vector scores bit for bit the same alone as in its batch."""
        dim = data.draw(st.integers(1, 8))
        values = st.floats(-100.0, 100.0, allow_nan=False)
        model = hand_model(
            data.draw(st.lists(values, min_size=3, max_size=3)),
            dimension=dim,
            weights=[data.draw(st.lists(values, min_size=dim, max_size=dim)) for _ in range(3)],
        )
        rows = data.draw(st.lists(st.dictionaries(st.integers(0, dim - 1), values), max_size=12))
        X = [sparse(dim, entries) for entries in rows]
        X.insert(data.draw(st.integers(0, len(X))), sparse(dim, {}))
        batch = np.column_stack([decision_values(clf, X) for clf in model.classifiers])
        labels = predict_many(model, stack(X))
        for i, x in enumerate(X):
            assert predict_proba(model, x).tobytes() == kernels.sigmoid(batch[i]).tobytes()
            assert predict(model, x) == labels[i]


def test_featurizer_and_scoring_build_without_the_checks(monkeypatch):
    """Only the public constructors check their arrays: the featurizer's
    matrices, their rows and a row's csr() are built without, so neither a
    batch nor a stream request pays for the checks."""
    model, docs = trained_toy_model()
    matrix = model.pipeline.transform_many(docs)

    def refuse(*_args):
        raise AssertionError("checked a matrix built by the program")

    monkeypatch.setattr(kernels, "_check_csr", refuse)
    assert predict_many(model, model.pipeline.transform_many(docs)) == [
        predict(model, model.pipeline.transform(doc)) for doc in docs]
    refit = FeaturePipeline(model.pipeline.blocks).fit_transform(docs)
    assert predict_many(model, refit) == predict_many(model, matrix)
    assert predict_proba(model, matrix[0]).shape == (3,)


def fitted_toy_pipeline():
    docs = [
        Document(id="d0", text="bc dd"),
        Document(id="d1", text="bc ee"),
        Document(id="d2", text="dd ee bc"),
    ]
    pipeline = FeaturePipeline([FeatureBlockSpec.from_name("U", min_df=1)]).fit(docs)
    return pipeline, docs


class TestTopFeatures:
    def test_sorted_by_weight(self):
        pipeline, _docs = fitted_toy_pipeline()  # vocab: bc, dd, ee
        model = OvRModel(
            classifiers=[
                BinaryLogReg(weights=np.array([2.0, -1.0, 0.5]), bias=0.0, reg_lambda=1.0)
            ]
            * 3,
            pipeline=pipeline,
        )
        top = top_features(model, Label.NAG, 2)
        assert top == [("unigram_bc", 2.0), ("unigram_ee", 0.5)]

    def test_k_zero(self):
        pipeline, _docs = fitted_toy_pipeline()
        model = OvRModel(
            classifiers=[BinaryLogReg(weights=np.zeros(3), bias=0.0, reg_lambda=1.0)] * 3,
            pipeline=pipeline,
        )
        assert top_features(model, Label.NAG, 0) == []

    def test_fewer_nonzero_than_k(self):
        pipeline, _docs = fitted_toy_pipeline()
        model = OvRModel(
            classifiers=[
                BinaryLogReg(weights=np.array([0.0, 0.3, 0.0]), bias=0.0, reg_lambda=1.0)
            ]
            * 3,
            pipeline=pipeline,
        )
        assert top_features(model, Label.CAG, 5) == [("unigram_dd", 0.3)]


def trained_toy_model():
    docs = [
        Document(id="d0", text="calm soft words", gold=Label.NAG),
        Document(id="d1", text="calm gentle words", gold=Label.NAG),
        Document(id="d2", text="sly subtle words", gold=Label.CAG),
        Document(id="d3", text="sly sneaky words", gold=Label.CAG),
        Document(id="d4", text="rage angry words", gold=Label.OAG),
        Document(id="d5", text="rage furious words", gold=Label.OAG),
    ]
    pipeline = FeaturePipeline(
        [FeatureBlockSpec.from_name("U", min_df=1), FeatureBlockSpec.from_name("C3", min_df=1)]
    ).fit(docs)
    model = train_ovr(
        pipeline.transform_many(docs),
        [d.gold for d in docs],
        TrainConfig(max_iters=60),
        pipeline=pipeline,
        preprocess=PreprocessSettings(clean=CleanConfig()),
    )
    return model, docs


class TestPersistence:
    def test_round_trip_predictions_bit_identical(self, tmp_path):
        model, _docs = trained_toy_model()
        path = tmp_path / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
        rng = np.random.default_rng(77)
        dim = model.dimension
        for _ in range(100):
            nnz = int(rng.integers(0, 6))
            entries = {
                int(i): float(rng.normal())
                for i in rng.choice(dim, size=min(nnz, dim), replace=False)
            }
            x = sparse(dim, entries)
            before = predict_proba(model, x)
            after = predict_proba(loaded, x)
            assert before.tolist() == after.tolist()

    def test_document_frequencies_are_int64_arrays_after_fit_and_load(self, tmp_path):
        """Every lexical kind's vocabulary, fitted by fit_transform and
        loaded back, holds its document frequencies as one int64 array
        aligned with its terms; fit and load agree, idf bit for bit."""
        _model, docs = trained_toy_model()
        names = ("U", "BU", "C3", "SK2")
        pipeline = FeaturePipeline([FeatureBlockSpec.from_name(n, min_df=1) for n in names])
        X = pipeline.fit_transform(docs)
        model = train_ovr(X, [d.gold for d in docs], TrainConfig(max_iters=20),
                          pipeline=pipeline, preprocess=PreprocessSettings(clean=CleanConfig()))
        path = tmp_path / "model.txt"
        save_model(model, path)
        loaded = load_model(path).pipeline.vocabularies
        for name in names:
            fitted = pipeline.vocabularies[name]
            for vocab in (fitted, loaded[name]):
                assert vocab.document_frequency.dtype == np.int64
                assert vocab.document_frequency.shape == (len(vocab.terms),)
                assert not hasattr(vocab, "index")
            assert loaded[name].terms == fitted.terms
            assert np.array_equal(loaded[name].document_frequency, fitted.document_frequency)
            assert loaded[name].idf.tobytes() == fitted.idf.tobytes()

    def test_loaded_pipeline_featurizes_bit_for_bit(self, tmp_path):
        model, docs = trained_toy_model()
        path = tmp_path / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
        docs = docs + [Document(id="empty", text=""), Document(id="oov", text="zzz qqq")]
        fitted = model.pipeline.transform_many(docs)
        restored = loaded.pipeline.transform_many(docs)
        assert fitted.dimension == restored.dimension
        for name in ("indptr", "indices", "data"):
            a, b = getattr(fitted, name), getattr(restored, name)
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert fitted.indptr[-1] == fitted.indptr[-3]  # the last two rows are empty

    def test_round_trip_preserves_metadata(self, tmp_path):
        model, _docs = trained_toy_model()
        model.merged_validation = True
        path = tmp_path / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.language == model.language
        assert loaded.merged_validation is True
        assert loaded.n_train_documents == model.n_train_documents
        assert loaded.pipeline.total_dimension == model.pipeline.total_dimension
        for a, b in zip(loaded.classifiers, model.classifiers):
            assert a.iterations == b.iterations
            assert a.bias == b.bias

    def test_convergence_round_trips_and_unknown_convergence_is_left_out(self, tmp_path):
        model, _docs = trained_toy_model()
        path = tmp_path / "model.txt"
        save_model(model, path)
        for got, want in zip(load_model(path).classifiers, model.classifiers):
            assert want.stop_reason == "grad_tol"
            assert got.stop_reason == want.stop_reason
            assert bits(got.final_loss) == bits(want.final_loss)
        # hand-built classifiers record no convergence: saved without the
        # keys, they load back with None
        model.classifiers = [replace(clf, stop_reason=None, final_loss=None)
                             for clf in model.classifiers]
        save_model(model, path)
        text = path.read_text(encoding="utf-8")
        assert text.startswith("aggdetect-model 2\n")
        assert "stop_reason" not in text and "final_loss" not in text
        for got in load_model(path).classifiers:
            assert (got.stop_reason, got.final_loss) == (None, None)

    def test_file_with_block_offset_and_dimension_lines_loads_the_same(self, tmp_path):
        """Format 2 files written before the [block:*] offset and dimension
        lines were dropped still load, to the same vocabularies, weights
        and scores."""
        model, docs = trained_toy_model()
        new, old = tmp_path / "new.txt", tmp_path / "old.txt"
        save_model(model, new)
        pipe = model.pipeline

        def with_offset_and_dimension(match):
            name = match[1]
            return (f"{match[0]}offset = {pipe.offsets[name]}\n"
                    f"dimension = {pipe.dimensions[name]}\n")

        # where they stood: after the kind and parameter lines
        text, n = re.subn(r"^\[block:(.*)\]\nkind = .*\n(?:(?:n|k|min_df) = .*\n)*",
                          with_offset_and_dimension, new.read_text(encoding="utf-8"),
                          flags=re.M)
        assert n == len(pipe.blocks) == 2 and "offset = 0\n" in text
        old.write_text(text, encoding="utf-8")
        a, b = load_model(old), load_model(new)
        for name in ("U", "C3"):
            got, want = a.pipeline.vocabularies[name], b.pipeline.vocabularies[name]
            assert got.terms == want.terms
            assert terms_and_dfs(got) == terms_and_dfs(want)
            assert got.n_documents == want.n_documents
        assert (a.pipeline.offsets, a.pipeline.dimensions) == (b.pipeline.offsets,
                                                               b.pipeline.dimensions)
        for got, want in zip(a.classifiers, b.classifiers):
            assert got.weights.tobytes() == want.weights.tobytes()
            assert bits(got.bias) == bits(want.bias)
        docs = docs + [Document(id="oov", text="zzz qqq calm sly")]
        X = b.pipeline.transform_many(docs)
        assert np.array_equal(model_module._scores(a, X).view(np.int64),
                              model_module._scores(b, X).view(np.int64))

    def test_final_loss_is_the_objective_at_the_returned_weights(self):
        model, docs = trained_toy_model()
        X = model.pipeline.transform_many(docs)
        for label, clf in zip(Label, model.classifiers):
            y = np.array([float(d.gold == label) for d in docs])
            loss, _z = objective(X, y, clf.weights, clf.bias, clf.reg_lambda)
            assert bits(clf.final_loss) == bits(loss)

    @pytest.mark.parametrize("pattern, replacement", [
        (r"^stop_reason = .*$", "stop_reason = converged"),
        (r"^final_loss = .*$", "final_loss = nan"),
        (r"^final_loss = .*$", "final_loss = -0.5"),
        (r"^final_loss = .*$", "final_loss = inf"),
    ])
    def test_bad_convergence_value_names_section_and_line(self, tmp_path, pattern, replacement):
        model, _docs = trained_toy_model()
        path = tmp_path / "model.txt"
        save_model(model, path)
        text, n = re.subn(pattern, replacement, path.read_text(encoding="utf-8"),
                          count=1, flags=re.M)
        assert n == 1
        path.write_text(text, encoding="utf-8")
        message = f"bad value in [weights:NAG]: {replacement!r}"
        with pytest.raises(ResourceError, match=re.escape(message)):
            load_model(path)

    @pytest.mark.parametrize("pattern, replacement, message", [
        (r"^calm\t\d+$", "calm\tx", re.escape(r"bad value in [vocab:U]: 'calm\tx'")),
        (r"^bias = .*$", "bias = nope", re.escape("bad value in [weights:NAG]: 'bias = nope'")),
        # non-finite numbers and a negative reg_lambda
        (r"^bias = .*$", "bias = inf", re.escape("bad value in [weights:NAG]: 'bias = inf'")),
        (r"^reg_lambda = .*$", "reg_lambda = nan",
         re.escape("bad value in [weights:NAG]: 'reg_lambda = nan'")),
        (r"^reg_lambda = .*$", "reg_lambda = -1.0",
         re.escape("bad value in [weights:NAG]: 'reg_lambda = -1.0'")),
        (r"^final_grad_norm = .*$", "final_grad_norm = inf",
         re.escape("bad value in [weights:NAG]: 'final_grad_norm = inf'")),
    ])
    def test_corrupted_number_names_section_and_line(
        self, tmp_path, pattern, replacement, message
    ):
        model, _docs = trained_toy_model()
        path = tmp_path / "model.txt"
        save_model(model, path)
        text, n = re.subn(pattern, replacement, path.read_text(encoding="utf-8"),
                          count=1, flags=re.M)
        assert n == 1
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ResourceError, match=message):
            load_model(path)

    def test_repeated_term_names_section_and_line(self, tmp_path):
        """save_model writes each term once, in increasing order; a
        repeated one would leave a term unreachable, so loading refuses it."""
        model, _docs = trained_toy_model()
        path = tmp_path / "model.txt"
        save_model(model, path)
        lines = path.read_text(encoding="utf-8").split("\n")
        first = lines.index("[vocab:U]") + 1
        # the second row takes the first row's term
        term, df = lines[first].split("\t")[0], lines[first + 1].split("\t")[1]
        lines[first + 1] = f"{term}\t{df}"
        path.write_text("\n".join(lines), encoding="utf-8")
        message = f"not strictly increasing in [vocab:U]: {lines[first + 1]!r}"
        with pytest.raises(ResourceError, match=re.escape(message)):
            load_model(path)

    @pytest.mark.parametrize("df", ["-1", "-5", "0", "7", "99999", "99999999999999999999"])
    def test_document_frequency_outside_corpus_names_section_and_line(self, tmp_path, df):
        """save_model writes 1 <= df <= n_documents (6 here); anything else
        would give a division by zero, a log of a negative number or a
        negative idf."""
        model, _docs = trained_toy_model()
        path = tmp_path / "model.txt"
        save_model(model, path)
        row = f"calm\t{df}"
        text, n = re.subn(r"^calm\t\d+$", row, path.read_text(encoding="utf-8"),
                          count=1, flags=re.M)
        assert n == 1
        path.write_text(text, encoding="utf-8")
        message = f"document frequency outside 1..6 in [vocab:U]: {row!r}"
        with pytest.raises(ResourceError, match=re.escape(message)):
            load_model(path)

    def test_document_count_beyond_int64_names_section_and_line(self, tmp_path):
        """A df of 2**63 or more fits no int64 array, so a vocabulary's
        n_documents, which bounds its dfs, must be below 2**63; with both
        past it, loading raised OverflowError."""
        model, _docs = trained_toy_model()
        path = tmp_path / "model.txt"
        save_model(model, path)
        huge = "99999999999999999999"
        text, n = re.subn(r"^n_documents = \d+$", f"n_documents = {huge}",
                          path.read_text(encoding="utf-8"), count=1, flags=re.M)
        text, m = re.subn(r"^calm\t\d+$", f"calm\t{huge}", text, count=1, flags=re.M)
        assert n == m == 1
        path.write_text(text, encoding="utf-8")
        message = f"bad value in [block:U]: 'n_documents = {huge}'"
        with pytest.raises(ResourceError, match=re.escape(message)):
            load_model(path)

    @pytest.mark.parametrize("term", ["ca", "calm"])
    def test_char_term_of_wrong_length_names_section_and_line(self, tmp_path, term):
        """A [vocab:C3] term holds exactly 3 characters; one of any other
        length could never match a window, so loading refuses it."""
        model, _docs = trained_toy_model()
        path = tmp_path / "model.txt"
        save_model(model, path)
        text = path.read_text(encoding="utf-8")
        head, vocab = text.split("[vocab:C3]\n")
        vocab, n = re.subn(r"^cal\t(\d+)$", term + r"\t\1", vocab, count=1, flags=re.M)
        assert n == 1
        path.write_text(head + "[vocab:C3]\n" + vocab, encoding="utf-8")
        row = re.search(f"^{term}\t\\d+$", vocab, flags=re.M)[0]
        message = f"term of {len(term)} characters, not 3, in [vocab:C3]: {row!r}"
        with pytest.raises(ResourceError, match=re.escape(message)):
            load_model(path)

    def test_truncated_file_names_missing_section(self, tmp_path):
        model, _docs = trained_toy_model()
        path = tmp_path / "model.txt"
        save_model(model, path)
        content = path.read_text(encoding="utf-8")
        truncated = content[: content.index("[weights:OAG]")]
        path.write_text(truncated, encoding="utf-8")
        with pytest.raises(ResourceError, match=r"\[weights:OAG\]"):
            load_model(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("aggdetect-model 999\n[meta]\n", encoding="utf-8")
        with pytest.raises(ResourceError, match="header"):
            load_model(path)

    def test_checksum_mismatch_on_referenced_file(self, tmp_path):
        from aggdetect.lexfeatures import Resources

        lexicon_path = write_lines(tmp_path / "gender.tsv", ["_intercept\t0.0", "she\t1.0"])
        resources = Resources()
        resources.load("gender", str(lexicon_path))
        docs = [Document(id="a", text="she is calm", gold=Label.NAG),
                Document(id="b", text="he is angry", gold=Label.OAG)]
        pipeline = FeaturePipeline(
            [FeatureBlockSpec.from_name("U", min_df=1), FeatureBlockSpec.from_name("GP")],
            resources,
        ).fit(docs)
        model = train_ovr(
            pipeline.transform_many(docs), [d.gold for d in docs], TrainConfig(max_iters=5),
            pipeline=pipeline,
            preprocess=PreprocessSettings(clean=CleanConfig()),
        )
        path = tmp_path / "model.txt"
        save_model(model, path)
        lexicon_path.write_text("_intercept\t9.9\n", encoding="utf-8")  # tamper
        with pytest.raises(ResourceError, match="checksum mismatch"):
            load_model(path)

    def test_two_loads_of_one_english_model_share_its_resources(self, tmp_path):
        """Two live loads of a model with W2V features and spell correction
        share one embedding table and one spell dictionary, and score bit
        for bit like the model loaded alone, one document or a batch."""
        table_path = write_embeddings(tmp_path / "e.vec", {
            "calm": [1.0, 0.0], "rage": [0.0, 1.0], "sly": [0.5, 0.5], "words": [0.1, 0.2]})
        spell_path = write_lines(tmp_path / "spell.tsv",
                                 ["calm\t5", "rage\t5", "sly\t5", "words\t9", "soft\t2"])
        resources = Resources()
        resources.load("embedding", str(table_path))
        preprocess = PreprocessSettings(
            CleanConfig(), spell_dictionary=resources.load("spell_dict", str(spell_path)))
        texts = ["calm soft wrods", "clam words", "sly wrods", "sly sfot words",
                 "rage wrods", "rgae words"]
        docs = [Document(id=f"d{i}", text=preprocess.apply(text), gold=Label(i // 2))
                for i, text in enumerate(texts)]
        pipeline = FeaturePipeline(
            [FeatureBlockSpec.from_name("U", min_df=1), FeatureBlockSpec.from_name("W2V")],
            resources,
        ).fit(docs)
        model = train_ovr(pipeline.transform_many(docs), [d.gold for d in docs],
                          TrainConfig(max_iters=60), pipeline=pipeline, preprocess=preprocess)
        path = tmp_path / "model.txt"
        save_model(model, path)
        del model, pipeline, resources, preprocess
        queries = ["clam wrods", "rgae", "sly sly", "zzz", "", "calm rage sly"]

        def scored(m):
            prepped = [Document(id=str(i), text=m.preprocess.apply(text))
                       for i, text in enumerate(queries)]
            X = m.pipeline.transform_many(prepped)
            labels = predict_many(m, X)
            assert [predict(m, m.pipeline.transform(doc)) for doc in prepped] == labels
            return labels, model_module._scores(m, X).view(np.int64)

        gc.collect()
        alone = load_model(path)
        want_labels, want_bits = scored(alone)
        table = weakref.ref(alone.pipeline.resources.embeddings)
        del alone
        gc.collect()
        assert table() is None  # the two loads below parse afresh
        a, b = load_model(path), load_model(path)
        assert a.pipeline.resources.embeddings is b.pipeline.resources.embeddings
        assert a.preprocess.spell_dictionary is b.preprocess.spell_dictionary
        for m in (a, b):
            labels, bits = scored(m)
            assert labels == want_labels
            assert np.array_equal(bits, want_bits)


def test_save_model_peak_memory_stays_below_three_times_the_file_size(tmp_path):
    """save_model holds one section's lines at a time, never the whole
    file: about 1.9x its size on a model shaped like a trained one (two
    vocabularies, three classes' weights of similar size), where joining
    every line at once held 6.2x."""
    rng = np.random.default_rng(5)
    vocabularies = {}
    for name, length in (("U", 6), ("C3", 3)):
        letters = rng.integers(97, 123, size=(12_000, length)).astype(np.uint32)
        terms = sorted(set(letters.view(f"U{length}").ravel().tolist()))
        df = rng.integers(1, 800, size=len(terms)).tolist()
        vocabularies[name] = Vocabulary(terms=terms, document_frequency=df, n_documents=800)
    pipeline = FeaturePipeline([FeatureBlockSpec.from_name(n) for n in vocabularies])
    pipeline.restore(vocabularies)
    dim = pipeline.total_dimension
    model = OvRModel(
        classifiers=[BinaryLogReg(weights=rng.normal(size=dim) * (rng.random(dim) < 0.8),
                                  bias=0.5, reg_lambda=1.0) for _label in Label],
        pipeline=pipeline,
        preprocess=PreprocessSettings(clean=CleanConfig()),
    )
    path = tmp_path / "model.txt"
    save_model(model, path)  # any one-time allocations happen here
    tracemalloc.start()
    try:
        save_model(model, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * path.stat().st_size


# ----------------------------------------------------------------------
# The bulk writer and reader against the per-line reference writers
# ----------------------------------------------------------------------


# pieces of vocabulary terms: the escaped characters, text that looks like a
# header or a key = value line, Devanagari, an emoji, and any other character
_TERM_PIECES = st.one_of(
    st.sampled_from(["\t", "\n", "\r", "\\", "\\t", "[x]", "[", "]", " = ", "क", "ि",
                     "\U0001F620", "a", "b", " "]),
    st.characters(blacklist_categories=("Cs",)),
)
_TERMS = st.lists(st.lists(_TERM_PIECES, max_size=5).map("".join), unique=True, max_size=12)
# a char trigram block's terms are three characters each
_CHARS = st.one_of(
    st.sampled_from(["\t", "\n", "\r", "\\", "[", "]", "=", "क", "ि", "\U0001F620", "a", " "]),
    st.characters(blacklist_categories=("Cs",)),
)
_TRIGRAMS = st.lists(st.lists(_CHARS, min_size=3, max_size=3).map("".join), unique=True,
                     max_size=12)
_WEIGHTS = st.one_of(
    st.just(0.0),
    st.just(-0.0),
    st.sampled_from([5e-324, -2.5e-310, 2.2250738585072014e-308, 1e300, -1e300, -1.5]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def random_models(draw):
    """A model over one or two lexical blocks with arbitrary terms,
    document frequencies and weights."""
    names = draw(st.sampled_from([["U"], ["C3"], ["U", "C3"]]))
    vocabularies = {}
    for name in names:
        terms = sorted(draw(_TRIGRAMS if name == "C3" else _TERMS))
        n_documents = draw(st.integers(1, 10**6))
        df = draw(st.lists(st.integers(1, n_documents), min_size=len(terms),
                           max_size=len(terms)))
        vocabularies[name] = Vocabulary(terms=terms, document_frequency=df,
                                        n_documents=n_documents)
    pipeline = FeaturePipeline([FeatureBlockSpec.from_name(n, min_df=1) for n in names])
    pipeline.restore(vocabularies)
    dim = pipeline.total_dimension
    classifiers = [
        BinaryLogReg(
            weights=np.array(draw(st.lists(_WEIGHTS, min_size=dim, max_size=dim)),
                             dtype=np.float64),
            bias=draw(_FINITE),
            reg_lambda=draw(st.floats(min_value=0.0, allow_infinity=False)),
            iterations=draw(st.integers(0, 10**6)),
            final_grad_norm=draw(st.floats(min_value=0.0, allow_infinity=False)),
            stop_reason=draw(st.sampled_from([None, *model_module.STOP_REASONS])),
            final_loss=draw(st.none() | st.floats(min_value=0.0, allow_infinity=False)),
        )
        for _label in Label
    ]
    return OvRModel(
        classifiers=classifiers,
        pipeline=pipeline,
        preprocess=PreprocessSettings(clean=CleanConfig()),
        n_train_documents=draw(st.integers(0, 10**6)),
    )


def bits(value):
    return np.float64(value).tobytes()


@given(random_models())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_save_model_writes_the_reference_bytes_and_loads_back_bit_for_bit(tmp_path, model):
    path = tmp_path / "model.txt"
    save_model(model, path)
    assert path.read_bytes() == reference_model_text_v2(model, path.parent).encode("utf-8")

    loaded = load_model(path)
    for got, want in zip(loaded.classifiers, model.classifiers):
        # every weight is written, a zero of either sign included
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.weights.flags.writeable
        for key in ("bias", "reg_lambda", "final_grad_norm"):
            assert bits(getattr(got, key)) == bits(getattr(want, key))
        assert got.iterations == want.iterations
        assert got.stop_reason == want.stop_reason
        if want.final_loss is None:
            assert got.final_loss is None
        else:
            assert bits(got.final_loss) == bits(want.final_loss)
    for name, want in model.pipeline.vocabularies.items():
        got = loaded.pipeline.vocabularies[name]
        assert got.terms == want.terms
        assert terms_and_dfs(got) == terms_and_dfs(want)
        assert got.n_documents == want.n_documents
        assert got.idf.tobytes() == want.idf.tobytes()


@pytest.mark.parametrize("terms", [["a\\b", "plain"], ["\\", "\\t", "x\ty", "z"], ["ab", "cd"]])
def test_vocab_rows_write_the_reference_bytes_and_load_back(tmp_path, terms):
    """A term holding a backslash (alone or beside other escaped
    characters) is escaped as the per-term writer escaped it, and loads
    back as itself; terms with nothing to escape are written as they are."""
    terms = sorted(terms)
    vocab = Vocabulary(terms=terms, document_frequency=range(1, len(terms) + 1), n_documents=9)
    pipeline = FeaturePipeline([FeatureBlockSpec.from_name("U", min_df=1)]).restore({"U": vocab})
    weights = np.arange(1.0, len(terms) + 1)
    model = OvRModel(classifiers=[BinaryLogReg(weights=weights, bias=0.5, reg_lambda=1.0)] * 3,
                     pipeline=pipeline, preprocess=PreprocessSettings(clean=CleanConfig()))
    path = tmp_path / "model.txt"
    save_model(model, path)
    assert path.read_bytes() == reference_model_text_v2(model, path.parent).encode("utf-8")
    loaded = load_model(path).pipeline.vocabularies["U"]
    assert loaded.terms == terms
    assert terms_and_dfs(loaded) == terms_and_dfs(vocab)
