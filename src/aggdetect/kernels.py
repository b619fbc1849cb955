"""Numeric kernels shared by training and prediction: the CSR row and
matrix types, CSR matrix products, the stable sigmoid, and the
logistic-loss sum.

A :class:`SparseVector` is one CSR row; a :class:`SparseMatrix` is a batch
of rows in one ``(indptr, indices, data)`` triple, which the featurizer
builds directly.  ``csr()`` gives either one's arrays without copying, and
:func:`stack_csr` gives them for a SparseMatrix or stacks a sequence of
SparseVectors.

The two CSR products run in scipy's compiled sparse code: each call wraps
the caller's ``(indptr, indices, data)`` as a ``scipy.sparse.csr_array``
without copying them (int64 indices stay int64) and multiplies. scipy adds
each row's products in storage order from 0.0, so ``csr_matvec`` gives a
row the same result whatever rows are stacked with it: one document scores
bit for bit the same alone as inside a batch, and each column of a 2-d
product equals the 1-d product with that column.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array

# (indptr, indices, data, dim): a batch's CSR arrays and its column count
CSR = tuple[np.ndarray, np.ndarray, np.ndarray, int]


@dataclass
class SparseVector:
    """One CSR row over a fixed dimension: strictly increasing int64
    ``indices`` in ``[0, dimension)`` and float64 ``values``; zeros are
    never stored."""

    dimension: int
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.indices.ndim != 1 or self.indices.shape != self.values.shape:
            raise ValueError("indices and values must be 1-d arrays of one length")
        if not self.values.all():
            keep = self.values != 0.0
            self.indices, self.values = self.indices[keep], self.values[keep]
        if (np.diff(self.indices) <= 0).any():
            raise ValueError("indices must be strictly increasing")
        out_of_range = (self.indices < 0) | (self.indices >= self.dimension)
        if out_of_range.any():
            raise ValueError(f"index out of range: {self.indices[out_of_range][0]}")

    @classmethod
    def _trusted(cls, dimension: int, indices: np.ndarray, values: np.ndarray) -> "SparseVector":
        """A row built already in that form: no checks, no copies."""
        row = object.__new__(cls)
        row.dimension, row.indices, row.values = dimension, indices, values
        return row

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.indices, self.values

    def csr(self) -> CSR:
        """This row as a one-row CSR matrix; the arrays are not copied."""
        return np.array([0, len(self)], dtype=np.int64), self.indices, self.values, self.dimension

    def __len__(self) -> int:
        return self.indices.shape[0]


class SparseMatrix(SequenceABC):
    """A batch of CSR rows over one dimension: int64 ``indptr`` (one entry
    more than rows), int64 ``indices`` strictly increasing within each row,
    and float64 ``data``.  It is also a sequence of :class:`SparseVector`
    rows, each a view into the arrays."""

    def __init__(self, dimension: int, indptr: np.ndarray, indices: np.ndarray,
                 data: np.ndarray) -> None:
        self.dimension = dimension
        self.indptr = indptr
        self.indices = indices
        self.data = data

    def __len__(self) -> int:
        return self.indptr.shape[0] - 1

    def __getitem__(self, i: int) -> SparseVector:
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("row index out of range")
        start, end = self.indptr[i], self.indptr[i + 1]
        return SparseVector._trusted(self.dimension, self.indices[start:end], self.data[start:end])

    def __iter__(self):
        bounds = self.indptr.tolist()
        for start, end in zip(bounds, bounds[1:]):
            yield SparseVector._trusted(self.dimension, self.indices[start:end],
                                        self.data[start:end])

    def csr(self) -> CSR:
        """The matrix's own arrays, not copies."""
        return self.indptr, self.indices, self.data, self.dimension


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


def stack_csr(vectors) -> CSR:
    """CSR arrays (indptr, indices, data, dim) of a batch. A SparseMatrix
    gives its own arrays, not copies. A sequence of SparseVectors, each
    already one CSR row, is stacked: indptr is the running sum of the row
    lengths, and indices and data are the rows concatenated in order."""
    if isinstance(vectors, SparseMatrix):
        return vectors.csr()
    dims = {v.dimension for v in vectors}
    if len(dims) > 1:
        raise ValueError(f"inconsistent vector dimensions: {sorted(dims)}")
    dim = dims.pop() if dims else 0
    indptr = np.zeros(len(vectors) + 1, dtype=np.int64)
    np.cumsum([len(v) for v in vectors], out=indptr[1:])
    indices = np.concatenate([v.indices for v in vectors] or [np.zeros(0, dtype=np.int64)])
    data = np.concatenate([v.values for v in vectors] or [np.zeros(0)])
    return indptr, indices, data, dim
