"""Numeric kernels shared by training and prediction: CSR matrix products,
the stable sigmoid, and the logistic-loss sum.

The two CSR products run in scipy's compiled sparse code: each call wraps
the caller's ``(indptr, indices, data)`` as a ``scipy.sparse.csr_array``
without copying them (int64 indices stay int64) and multiplies. scipy adds
each row's products in storage order from 0.0, so ``csr_matvec`` gives a
row the same result whatever rows are stacked with it: one document scores
bit for bit the same alone as inside a batch, and each column of a 2-d
product equals the 1-d product with that column.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_array


def active_backend() -> str:
    """Name of the implementation behind the CSR products."""
    return "scipy"


def _csr(indptr, indices, data, n_features) -> csr_array:
    return csr_array((data, indices, indptr), shape=(indptr.shape[0] - 1, n_features), copy=False)


def csr_matvec(indptr, indices, data, w):
    """X @ w for CSR X and ``w`` of shape (n,) or (n, k); empty rows give 0."""
    return _csr(indptr, indices, data, w.shape[0]) @ w


def csr_rmatvec(indptr, indices, data, r, n_features):
    """X^T @ r for CSR X with ``n_features`` columns."""
    return _csr(indptr, indices, data, n_features).T @ r


def sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logistic_loss_sum(z, y):
    """Sum over examples of max(z,0) - y*z + log1p(exp(-|z|))."""
    return float(np.sum(np.maximum(z, 0.0) - y * z + np.log1p(np.exp(-np.abs(z)))))


def stack_csr(vectors) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Stack SparseVectors, each already one CSR row, into CSR arrays
    (indptr, indices, data, dim): indptr is the running sum of the row
    lengths, and indices and data are the rows concatenated in order."""
    dims = {v.dimension for v in vectors}
    if len(dims) > 1:
        raise ValueError(f"inconsistent vector dimensions: {sorted(dims)}")
    dim = dims.pop() if dims else 0
    indptr = np.zeros(len(vectors) + 1, dtype=np.int64)
    np.cumsum([len(v) for v in vectors], out=indptr[1:])
    indices = np.concatenate([v.indices for v in vectors] or [np.zeros(0, dtype=np.int64)])
    data = np.concatenate([v.values for v in vectors] or [np.zeros(0)])
    return indptr, indices, data, dim
