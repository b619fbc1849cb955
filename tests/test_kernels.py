from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from aggdetect import kernels
from aggdetect.model import (
    BinaryLogReg, OvRModel, TrainConfig, predict, predict_many, train_binary,
)

from helpers import sparse, stack


def reference_matvec(indptr, indices, data, w):
    """X @ w by bincount over row ids, each row summed in storage order
    from 0.0: the numpy kernel the scipy product replaced."""
    m = indptr.shape[0] - 1
    rows = np.repeat(np.arange(m), np.diff(indptr))
    return np.bincount(rows, weights=data * w[indices], minlength=m).astype(np.float64)


def reference_rmatvec(indptr, indices, data, r, n_features):
    """X^T @ r by bincount over column ids, in storage order."""
    expanded = np.repeat(r, np.diff(indptr))
    return np.bincount(indices, weights=data * expanded, minlength=n_features).astype(np.float64)


VALUES = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def csr_matrices(draw):
    """(indptr, indices, data, n) with sorted distinct column ids per row,
    empty rows anywhere (leading and trailing runs drawn explicitly), no
    rows at all, and n = 0."""
    n = draw(st.integers(0, 8))
    row = st.dictionaries(st.integers(0, n - 1), VALUES) if n else st.just({})
    lead, trail = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    rows = [{}] * lead + draw(st.lists(row, max_size=10)) + [{}] * trail
    indptr = np.zeros(len(rows) + 1, dtype=np.int32)
    np.cumsum([len(r) for r in rows], out=indptr[1:])
    indices = np.array([i for r in rows for i in sorted(r)], dtype=np.int32)
    data = np.array([r[i] for r in rows for i in sorted(r)], dtype=np.float64)
    return indptr, indices, data, n


def matrix(indptr, indices, data, n):
    """The checked SparseMatrix of CSR arrays over ``n`` columns, which
    the products take."""
    return kernels.SparseMatrix(n, indptr, indices, data)


def dense_vectors(n, k=None):
    return arrays(np.float64, (n,) if k is None else (n, k), elements=VALUES)


def random_vectors(rng, m=40, n=25, density=0.2):
    vectors = []
    for _ in range(m):
        nnz = rng.binomial(n, density)
        idx = rng.choice(n, size=nnz, replace=False)
        entries = {int(i): float(rng.normal()) for i in idx}
        vectors.append(sparse(n, entries))
    return vectors


def csr_cases(rng, n=25):
    """A random CSR matrix, the same with leading or with trailing empty
    rows, one with only empty rows, and one with no rows."""
    vectors = random_vectors(rng, n=n)
    empty = [sparse(n, {})] * 3
    cases = [kernels.stack_csr(stack(rows))
             for rows in (vectors, empty + vectors, vectors + empty, empty)]
    return cases + [(np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0), n)]


def dense_from_csr(indptr, indices, data, n):
    m = indptr.shape[0] - 1
    X = np.zeros((m, n))
    for row in range(m):
        for j in range(indptr[row], indptr[row + 1]):
            X[row, indices[j]] += data[j]
    return X


class TestNumpyKernels:
    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(0)
        for indptr, indices, data, n in csr_cases(rng):
            w = rng.normal(size=n)
            X = dense_from_csr(indptr, indices, data, n)
            out = kernels.csr_matvec(matrix(indptr, indices, data, n), w)
            assert out.dtype == np.float64 and out.shape == (X.shape[0],)
            assert np.allclose(out, X @ w)

    def test_matvec_handles_empty_rows(self):
        empty = sparse(3, {})
        full = sparse(3, {1: 2.0})
        out = kernels.csr_matvec(stack([empty, full, empty]), np.array([1.0, 3.0, 1.0]))
        assert out.tolist() == [0.0, 6.0, 0.0]

    def test_one_row_csr_is_the_stack_of_that_row(self):
        x = sparse(5, {1: 2.0, 4: -0.5})
        row = x.csr()
        stacked = stack([x])
        assert isinstance(row, kernels.SparseMatrix) and len(row) == 1
        assert row.indptr.tolist() == stacked.indptr.tolist() == [0, 2]
        assert row.indptr.dtype == np.int32 and row.dimension == stacked.dimension == 5
        assert row.indices is x.indices and row.data is x.values
        assert kernels.stack_csr(row) == (row.indptr, row.indices, row.data, 5)

    def test_rmatvec_matches_dense(self):
        rng = np.random.default_rng(1)
        for indptr, indices, data, n in csr_cases(rng):
            r = rng.normal(size=indptr.shape[0] - 1)
            X = dense_from_csr(indptr, indices, data, n)
            out = kernels.csr_rmatvec(matrix(indptr, indices, data, n), r)
            assert out.dtype == np.float64 and out.shape == (n,)
            assert np.allclose(out, X.T @ r)

    def test_products_with_no_columns(self):
        indptr = np.array([0, 0, 0], dtype=np.int64)
        indices, data = np.zeros(0, dtype=np.int64), np.zeros(0)
        X = matrix(indptr, indices, data, 0)
        assert kernels.csr_matvec(X, np.zeros(0)).tolist() == [0.0, 0.0]
        out = kernels.csr_rmatvec(X, np.ones(2))
        assert out.dtype == np.float64 and out.shape == (0,)

    def test_sigmoid_stable_at_extremes(self):
        z = np.array([-1000.0, 0.0, 1000.0])
        out = kernels.sigmoid(z)
        assert np.isfinite(out).all()
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == 0.5
        assert out[2] == pytest.approx(1.0, abs=1e-12)

    def test_logistic_loss_matches_naive(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=50) * 3
        y = rng.integers(0, 2, size=50).astype(float)
        sigma = 1.0 / (1.0 + np.exp(-z))
        naive = float(np.sum(-(y * np.log(sigma) + (1 - y) * np.log(1 - sigma))))
        assert kernels.logistic_loss_sum(z, y) == pytest.approx(naive, rel=1e-10)


class TestCsrProductsMatchReference:
    """The compiled products equal the bincount formulas bit for bit."""

    @settings(deadline=None)
    @given(st.data())
    def test_matvec(self, data):
        indptr, indices, values, n = data.draw(csr_matrices())
        w = data.draw(dense_vectors(n))
        out = kernels.csr_matvec(matrix(indptr, indices, values, n), w)
        assert out.dtype == np.float64 and out.shape == (indptr.shape[0] - 1,)
        assert np.array_equal(out, reference_matvec(indptr, indices, values, w))

    @settings(deadline=None)
    @given(st.data())
    def test_rmatvec(self, data):
        indptr, indices, values, n = data.draw(csr_matrices())
        r = data.draw(dense_vectors(indptr.shape[0] - 1))
        out = kernels.csr_rmatvec(matrix(indptr, indices, values, n), r)
        assert out.dtype == np.float64 and out.shape == (n,)
        assert np.array_equal(out, reference_rmatvec(indptr, indices, values, r, n))

    @settings(deadline=None)
    @given(st.data())
    def test_matrix_rhs_columns_equal_vector_products(self, data):
        indptr, indices, values, n = data.draw(csr_matrices())
        W = data.draw(dense_vectors(n, data.draw(st.integers(1, 4))))
        X = matrix(indptr, indices, values, n)
        out = kernels.csr_matvec(X, W)
        assert out.dtype == np.float64 and out.shape == (indptr.shape[0] - 1, W.shape[1])
        for k in range(W.shape[1]):
            column = np.ascontiguousarray(W[:, k])
            assert np.array_equal(out[:, k], kernels.csr_matvec(X, column))
            assert np.array_equal(out[:, k], reference_matvec(indptr, indices, values, column))

    @settings(deadline=None)
    @given(st.data())
    def test_row_alone_equals_row_in_batch(self, data):
        indptr, indices, values, n = data.draw(csr_matrices())
        W = data.draw(dense_vectors(n, 3))
        batch = kernels.csr_matvec(matrix(indptr, indices, values, n), W)
        for i in range(indptr.shape[0] - 1):
            lo, hi = indptr[i], indptr[i + 1]
            row = matrix(np.array([0, hi - lo], dtype=np.int64), indices[lo:hi], values[lo:hi], n)
            assert np.array_equal(kernels.csr_matvec(row, W)[0], batch[i])
            assert np.array_equal(kernels.csr_matvec(row, W[:, 0].copy())[0], batch[i, 0])


def matrix_arrays(indptr, indices, data):
    return (np.array(indptr, dtype=np.int64), np.array(indices, dtype=np.int64),
            np.array(data, dtype=np.float64))


class TestConstructorChecks:
    """The public SparseMatrix constructor refuses arrays that would make
    the products read or write out of bounds."""

    @pytest.mark.parametrize("indptr, indices, data, match", [
        ([], [], [], "indptr"),
        ([1, 1], [0], [1.0], "indptr"),
        ([0, 1], [0, 1], [1.0, 2.0], "indptr"),
        ([0, 2], [0], [1.0], "indptr"),
        ([0, 2, 1, 2], [0, 1], [1.0, 2.0], "decrease"),
        ([0, 2], [0, 1], [1.0], "one length"),
        ([0, 2], [1, 1], [1.0, 2.0], "strictly increasing"),
        ([0, 2], [2, 1], [1.0, 2.0], "strictly increasing"),
        ([0, 1], [3], [1.0], "out of range"),
        ([0, 1], [-1], [1.0], "out of range"),
        # scored unchecked, this row crashed the interpreter in the product
        ([0, 1], [10**6], [1.0], "out of range"),
    ])
    def test_matrix_faults_raise(self, indptr, indices, data, match):
        with pytest.raises(ValueError, match=match):
            kernels.SparseMatrix(3, *matrix_arrays(indptr, indices, data))

    def test_matrix_refuses_non_integer_arrays(self):
        indptr, indices, data = matrix_arrays([0, 1], [1], [1.0])
        with pytest.raises(ValueError, match="indices must be integers"):
            kernels.SparseMatrix(3, indptr, indices.astype(np.float64), data)
        with pytest.raises(ValueError, match="indptr must be integers"):
            kernels.SparseMatrix(3, indptr.astype(np.float64), indices, data)
        with pytest.raises(ValueError, match="1-d"):
            kernels.SparseMatrix(3, indptr, indices.reshape(1, 1), data)

    def test_rows_may_restart_lower_and_be_empty(self):
        matrix = kernels.SparseMatrix(3, *matrix_arrays([0, 0, 2, 2, 3, 3], [1, 2, 0], [1.0] * 3))
        assert [row.indices.tolist() for row in matrix] == [[], [1, 2], [], [0], []]

    @settings(deadline=None)
    @given(st.data())
    def test_valid_arrays_are_kept_without_a_copy(self, data):
        indptr, indices, values, n = data.draw(csr_matrices())
        matrix = kernels.SparseMatrix(n, indptr, indices, values)
        assert matrix.indptr is indptr and matrix.indices is indices and matrix.data is values
        assert matrix.dimension == n


class TestScipyViewsAreBuiltOnce:
    """A matrix wraps its arrays as a scipy ``csr_array`` on its first
    product and as that array's transpose on its first rmatvec, and keeps
    both: a solve wraps its matrix once whatever its iteration count, and
    a prediction never builds the transpose it does not use."""

    @pytest.fixture
    def wraps(self, monkeypatch):
        counts = Counter()

        class Counting(kernels.csr_array):
            def __init__(self, *args, **kwargs):
                counts["csr_array"] += 1
                super().__init__(*args, **kwargs)

            def transpose(self, *args, **kwargs):
                counts["transpose"] += 1
                return super().transpose(*args, **kwargs)

        monkeypatch.setattr(kernels, "csr_array", Counting)
        return counts

    @pytest.mark.parametrize("max_iters", [1, 4, 40])
    def test_train_binary_wraps_its_matrix_once(self, wraps, max_iters):
        rng = np.random.default_rng(3)
        X = stack(random_vectors(rng))
        y = rng.integers(0, 2, size=len(X))
        clf = train_binary(X, y, TrainConfig(max_iters=max_iters))
        assert clf.iterations == max_iters or clf.iterations > 4
        assert wraps == {"csr_array": 1, "transpose": 1}

    def test_predictions_build_no_transpose(self, wraps):
        rng = np.random.default_rng(4)
        rows = random_vectors(rng, m=5)
        model = OvRModel([BinaryLogReg(rng.normal(size=25), 0.5, 1.0) for _ in range(3)])
        predict(model, rows[0])
        assert wraps == {"csr_array": 1}
        batch = stack(rows)
        predict_many(model, batch)
        predict_many(model, batch)
        assert wraps == {"csr_array": 2}

    def test_views_share_the_arrays(self):
        X = stack(random_vectors(np.random.default_rng(5)))
        kernels.csr_rmatvec(X, np.ones(len(X)))
        for view in (X._scipy(), X._scipy_t()):
            for array in (X.indptr, X.indices, X.data):
                assert any(np.shares_memory(array, part)
                           for part in (view.indptr, view.indices, view.data))

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint16, np.uint64])
    def test_views_keep_the_int32_arrays(self, dtype):
        """Both constructors store int32 ``indptr`` and ``indices`` whatever
        integer dtype they are given, and scipy's views of the matrix and
        of its transpose are those arrays themselves, not int64 copies."""
        rows = [kernels.SparseVector(25, np.array(sorted(entries), dtype=dtype),
                                     [entries[i] for i in sorted(entries)])
                for entries in ({1: 2.0, 24: -1.0}, {}, {0: 0.5, 3: 1.5, 7: 4.0})]
        X = kernels.SparseMatrix(25, np.array([0, 2, 2, 5], dtype=dtype),
                                 np.concatenate([row.indices for row in rows]).astype(dtype),
                                 np.concatenate([row.values for row in rows]))
        for row in rows:
            assert row.indices.dtype == row.csr().indptr.dtype == np.int32
        assert X.indptr.dtype == X.indices.dtype == np.int32
        kernels.csr_rmatvec(X, np.ones(len(X)))
        for view in (X._scipy(), X._scipy_t()):
            assert view.indptr.dtype == view.indices.dtype == np.int32
            assert np.shares_memory(view.indptr, X.indptr)
            assert np.shares_memory(view.indices, X.indices)
            assert np.shares_memory(view.data, X.data)


class TestInt32Limit:
    """int32 indices hold a dimension and a count of stored entries below
    2**31, and the constructors refuse more; tested at the limit without
    allocating anything of that size."""

    def test_dimension_below_2_31_is_kept_as_int32_by_scipy(self):
        row = kernels.SparseVector(2**31 - 1, [0, 2**31 - 2], [1.0, 2.0])
        X = kernels.SparseMatrix(2**31 - 1, [0, 2], row.indices, row.values)
        for matrix in (row.csr(), X):
            view = matrix._scipy()
            assert view.shape == (1, 2**31 - 1)
            assert np.shares_memory(view.indices, matrix.indices)
            assert view.indices.dtype == np.int32

    def test_dimension_of_2_31_is_refused(self):
        with pytest.raises(ValueError, match=r"dimension 2147483648 is outside \[0, 2\*\*31\)"):
            kernels.SparseVector(2**31, [0], [1.0])
        with pytest.raises(ValueError, match=r"dimension 2147483648"):
            kernels.SparseMatrix(2**31, [0, 1], [0], [1.0])
        with pytest.raises(ValueError, match=r"dimension -1"):
            kernels.SparseVector(-1, [], [])

    def test_entry_count_guard(self):
        kernels.check_int32(2**31 - 1, 2**31 - 1)
        with pytest.raises(ValueError, match=r"2147483648 stored entries"):
            kernels.check_int32(5, 2**31)

    @pytest.mark.parametrize("indices", [
        [2**32 + 1],  # would wrap to index 1
        [-2**32 + 1],
        np.array([2**63 + 1], dtype=np.uint64),
    ])
    def test_indices_outside_int32_are_refused_not_wrapped(self, indices):
        with pytest.raises(ValueError, match="out of range"):
            kernels.SparseVector(5, indices, [1.0])
        with pytest.raises(ValueError, match="out of range"):
            kernels.SparseMatrix(5, [0, 1], indices, [1.0])

    def test_offsets_outside_int32_are_refused_not_wrapped(self):
        with pytest.raises(ValueError, match="out of range"):
            kernels.SparseMatrix(5, [0, 2**32 + 1], [1], [1.0])  # would wrap to 1 == nnz

    def test_a_decrease_that_wraps_in_int32_is_refused(self):
        """A difference of two int32 offsets can wrap; the check compares."""
        with pytest.raises(ValueError, match="indptr must not decrease"):
            kernels.SparseMatrix(5, [0, 2**31 - 1, -2**31, -1, 1], [0], [1.0])
