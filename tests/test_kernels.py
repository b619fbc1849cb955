import numpy as np
import pytest

from aggdetect import kernels
from aggdetect.featurize import SparseVector


def random_vectors(rng, m=40, n=25, density=0.2):
    vectors = []
    for _ in range(m):
        nnz = rng.binomial(n, density)
        idx = rng.choice(n, size=nnz, replace=False)
        entries = {int(i): float(rng.normal()) for i in idx}
        vectors.append(SparseVector(dimension=n, entries=entries))
    return vectors


def csr_cases(rng, n=25):
    """A random CSR matrix, the same with leading or with trailing empty
    rows, one with only empty rows, and one with no rows."""
    vectors = random_vectors(rng, n=n)
    empty = [SparseVector(dimension=n, entries={})] * 3
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
        empty = SparseVector(dimension=3, entries={})
        full = SparseVector(dimension=3, entries={1: 2.0})
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
