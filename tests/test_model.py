import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from aggdetect import kernels
from aggdetect.corpus_io import Document, Label
from aggdetect.errors import DataError, ResourceError
from aggdetect.featurize import FeatureBlockSpec, FeaturePipeline, SparseVector
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
from aggdetect.preprocess import CleanConfig, PreprocessSettings, file_sha256

from helpers import write_lines


def sv(dimension, **entries):
    return SparseVector(dimension=dimension, entries={int(k[1:]): v for k, v in entries.items()})


def decision_values(clf, X):
    """w.x + b of one binary classifier for each vector, scored as a batch."""
    indptr, indices, data, _dim = kernels.stack_csr(X)
    return kernels.csr_matvec(indptr, indices, data, clf.weights) + clf.bias


def gradient_at(vectors, y, w, b, lam):
    csr = kernels.stack_csr(vectors)
    _loss, z = objective(csr, y, w, b, lam)
    return gradient(csr, y, w, z, lam)


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
        SparseVector(dimension=int(dim), entries={j: X_dense[i, j] for j in range(dim) if X_dense[i, j] != 0.0})
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
    return train_binary(kernels.stack_csr(vectors), y, config)


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
        X = [SparseVector(dimension=2, entries={}) for _ in range(4)]
        clf = fit(X, [1, 1, 1, 1], TrainConfig(reg_lambda=1.0, max_iters=200))
        assert clf.bias > 0
        assert np.all(clf.weights == 0.0)  # all-zero features leave w untouched

    def test_loss_never_increases(self):
        # the trainer asserts Armijo decrease internally; verify end-to-end
        rng = np.random.default_rng(5)
        vectors, X_dense, y = random_problem(rng, max_dim=6, max_examples=15)
        config = TrainConfig(max_iters=50)
        csr = kernels.stack_csr(vectors)
        clf = train_binary(csr, y, config)
        start, _z = objective(csr, y, np.zeros(X_dense.shape[1]), 0.0, config.reg_lambda)
        end, _z = objective(csr, y, clf.weights, clf.bias, config.reg_lambda)
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
            X.append(SparseVector(dimension=3, entries=entries))
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
        csr = kernels.stack_csr(vectors)
        clf = train_binary(csr, y, config)
        assert clf.stop_reason == "grad_tol"
        assert clf.iterations < config.max_iters
        _loss, z = objective(csr, y, clf.weights, clf.bias, lam)
        gw, gb = gradient(csr, y, clf.weights, z, lam)
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
        model = train_ovr(X, [Label.NAG, Label.CAG, Label.OAG], TrainConfig(max_iters=20))
        assert len(model.classifiers) == 3
        assert not model.single_class_warning

    def test_stacks_the_training_vectors_once(self, monkeypatch):
        calls = []
        original = kernels.stack_csr
        monkeypatch.setattr(kernels, "stack_csr", lambda X: calls.append(len(X)) or original(X))
        X = [sv(2, i0=1.0), sv(2, i1=1.0), sv(2, i0=1.0, i1=1.0)]
        train_ovr(X, [Label.NAG, Label.CAG, Label.OAG], TrainConfig(max_iters=20))
        assert calls == [3]

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError, match="dimensions"):
            train_ovr([sv(1, i0=1.0), sv(2, i0=1.0)], [Label.NAG, Label.CAG])

    def test_absent_class_trains_all_negative(self):
        X = [sv(1, i0=1.0), sv(1, i0=0.5), sv(1, i0=-1.0)]
        model = train_ovr(X, [Label.NAG, Label.NAG, Label.OAG], TrainConfig(max_iters=200))
        cag = model.classifiers[int(Label.CAG)]
        probs = 1.0 / (1.0 + np.exp(-decision_values(cag, X)))
        assert all(p < 0.5 for p in probs)

    def test_single_class_flagged(self):
        X = [sv(1, i0=1.0), sv(1, i0=2.0)]
        model = train_ovr(X, [Label.NAG, Label.NAG], TrainConfig(max_iters=10))
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
        ovr = train_ovr(X, labels, config)
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
        probs = predict_proba(model, SparseVector(dimension=1, entries={}))
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
        assert predict(model, SparseVector(dimension=1, entries={})) is Label.CAG
        tie = hand_model([0.0, 0.0, 0.0])
        assert predict(tie, SparseVector(dimension=1, entries={})) is Label.NAG

    def test_highest_wins_even_by_hair(self):
        model = hand_model([-1.0, -1.0, -0.99])
        assert predict(model, SparseVector(dimension=1, entries={})) is Label.OAG

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
        X = [SparseVector(dimension=dim, entries=entries) for entries in rows]
        X.insert(data.draw(st.integers(0, len(X))), SparseVector(dimension=dim, entries={}))
        batch = np.column_stack([decision_values(clf, X) for clf in model.classifiers])
        labels = predict_many(model, X)
        for i, x in enumerate(X):
            assert predict_proba(model, x).tobytes() == kernels.sigmoid(batch[i]).tobytes()
            assert predict(model, x) == labels[i]


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
    X = [pipeline.transform(d) for d in docs]
    model = train_ovr(
        X,
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
            x = SparseVector(dimension=dim, entries=entries)
            before = predict_proba(model, x)
            after = predict_proba(loaded, x)
            assert before.tolist() == after.tolist()

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
        from aggdetect.lexfeatures import Resources, load_weighted_lexicon

        lexicon_path = write_lines(tmp_path / "gender.tsv", ["_intercept\t0.0", "she\t1.0"])
        resources = Resources(
            gender_lexicon=load_weighted_lexicon(lexicon_path),
            provenance={"gender": (str(lexicon_path), file_sha256(lexicon_path))},
        )
        docs = [Document(id="a", text="she is calm", gold=Label.NAG),
                Document(id="b", text="he is angry", gold=Label.OAG)]
        pipeline = FeaturePipeline(
            [FeatureBlockSpec.from_name("U", min_df=1), FeatureBlockSpec.from_name("GP")],
            resources,
        ).fit(docs)
        X = [pipeline.transform(d) for d in docs]
        model = train_ovr(
            X, [d.gold for d in docs], TrainConfig(max_iters=5),
            pipeline=pipeline,
            preprocess=PreprocessSettings(clean=CleanConfig()),
        )
        path = tmp_path / "model.txt"
        save_model(model, path)
        lexicon_path.write_text("_intercept\t9.9\n", encoding="utf-8")  # tamper
        with pytest.raises(ResourceError, match="checksum mismatch"):
            load_model(path)
