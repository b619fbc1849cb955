"""Numeric kernels shared by training and prediction: CSR matrix-vector
products, the stable sigmoid, and the logistic-loss sum, in numpy.

``csr_matvec`` sums each row on its own, in storage order, so a row's
result does not depend on the rows stacked with it: one document scores
bit for bit the same alone as inside a batch.
"""

from __future__ import annotations

import numpy as np


def active_backend() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"


def csr_matvec(indptr, indices, data, w):
    """Row sums of X*w for CSR X; empty rows give 0.

    ``np.bincount`` adds each row's products in storage order from 0.0, so
    the sum is the same whatever rows come before it. (It returns
    integers when it gets no entries at all, hence the cast.)
    """
    m = indptr.shape[0] - 1
    rows = np.repeat(np.arange(m), np.diff(indptr))
    out = np.bincount(rows, weights=data * w[indices], minlength=m)
    return out.astype(np.float64, copy=False)


def csr_rmatvec(indptr, indices, data, r, n_features):
    """X^T * r for CSR X."""
    row_nnz = np.diff(indptr)
    expanded = np.repeat(r, row_nnz)
    out = np.bincount(indices, weights=data * expanded, minlength=n_features)
    return out.astype(np.float64, copy=False)


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
    """Stack SparseVectors into CSR arrays (indptr, indices, data, dim)."""
    dims = {v.dimension for v in vectors}
    if len(dims) > 1:
        raise ValueError(f"inconsistent vector dimensions: {sorted(dims)}")
    dim = dims.pop() if dims else 0
    indptr = np.zeros(len(vectors) + 1, dtype=np.int64)
    chunks_idx = []
    chunks_val = []
    for i, vec in enumerate(vectors):
        idx, val = vec.to_arrays()
        indptr[i + 1] = indptr[i] + idx.shape[0]
        chunks_idx.append(idx)
        chunks_val.append(val)
    indices = np.concatenate(chunks_idx) if chunks_idx else np.zeros(0, dtype=np.int64)
    data = np.concatenate(chunks_val) if chunks_val else np.zeros(0)
    return indptr, indices, data, dim
