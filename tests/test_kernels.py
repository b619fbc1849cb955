import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from aggdetect import kernels

from helpers import sparse


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
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=indptr[1:])
    indices = np.array([i for r in rows for i in sorted(r)], dtype=np.int64)
    data = np.array([r[i] for r in rows for i in sorted(r)], dtype=np.float64)
    return indptr, indices, data, n


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
    cases = [kernels.stack_csr(rows) for rows in (vectors, empty + vectors, vectors + empty, empty)]
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
            out = kernels.csr_matvec(indptr, indices, data, w)
            assert out.dtype == np.float64 and out.shape == (X.shape[0],)
            assert np.allclose(out, X @ w)

    def test_matvec_handles_empty_rows(self):
        empty = sparse(3, {})
        full = sparse(3, {1: 2.0})
        indptr, indices, data, n = kernels.stack_csr([empty, full, empty])
        out = kernels.csr_matvec(indptr, indices, data, np.array([1.0, 3.0, 1.0]))
        assert out.tolist() == [0.0, 6.0, 0.0]

    def test_rmatvec_matches_dense(self):
        rng = np.random.default_rng(1)
        for indptr, indices, data, n in csr_cases(rng):
            r = rng.normal(size=indptr.shape[0] - 1)
            X = dense_from_csr(indptr, indices, data, n)
            out = kernels.csr_rmatvec(indptr, indices, data, r, n)
            assert out.dtype == np.float64 and out.shape == (n,)
            assert np.allclose(out, X.T @ r)

    def test_products_with_no_columns(self):
        indptr = np.array([0, 0, 0], dtype=np.int64)
        indices, data = np.zeros(0, dtype=np.int64), np.zeros(0)
        assert kernels.csr_matvec(indptr, indices, data, np.zeros(0)).tolist() == [0.0, 0.0]
        out = kernels.csr_rmatvec(indptr, indices, data, np.ones(2), 0)
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
        out = kernels.csr_matvec(indptr, indices, values, w)
        assert out.dtype == np.float64 and out.shape == (indptr.shape[0] - 1,)
        assert np.array_equal(out, reference_matvec(indptr, indices, values, w))

    @settings(deadline=None)
    @given(st.data())
    def test_rmatvec(self, data):
        indptr, indices, values, n = data.draw(csr_matrices())
        r = data.draw(dense_vectors(indptr.shape[0] - 1))
        out = kernels.csr_rmatvec(indptr, indices, values, r, n)
        assert out.dtype == np.float64 and out.shape == (n,)
        assert np.array_equal(out, reference_rmatvec(indptr, indices, values, r, n))

    @settings(deadline=None)
    @given(st.data())
    def test_matrix_rhs_columns_equal_vector_products(self, data):
        indptr, indices, values, n = data.draw(csr_matrices())
        W = data.draw(dense_vectors(n, data.draw(st.integers(1, 4))))
        out = kernels.csr_matvec(indptr, indices, values, W)
        assert out.dtype == np.float64 and out.shape == (indptr.shape[0] - 1, W.shape[1])
        for k in range(W.shape[1]):
            column = np.ascontiguousarray(W[:, k])
            assert np.array_equal(out[:, k], kernels.csr_matvec(indptr, indices, values, column))
            assert np.array_equal(out[:, k], reference_matvec(indptr, indices, values, column))

    @settings(deadline=None)
    @given(st.data())
    def test_row_alone_equals_row_in_batch(self, data):
        indptr, indices, values, n = data.draw(csr_matrices())
        W = data.draw(dense_vectors(n, 3))
        batch = kernels.csr_matvec(indptr, indices, values, W)
        for i in range(indptr.shape[0] - 1):
            lo, hi = indptr[i], indptr[i + 1]
            row = (np.array([0, hi - lo], dtype=np.int64), indices[lo:hi], values[lo:hi])
            assert np.array_equal(kernels.csr_matvec(*row, W)[0], batch[i])
            assert np.array_equal(kernels.csr_matvec(*row, W[:, 0].copy())[0], batch[i, 0])
