"""Numeric kernels shared by training and prediction: the CSR row and
matrix types, CSR matrix products, the stable sigmoid, and the
logistic-loss sum.

A :class:`SparseMatrix` is the one batch type from the featurizer to the
solver and the scorer: rows in one ``(indptr, indices, data)`` triple.
A :class:`SparseVector` is one row; its ``csr()`` is that row as a
one-row SparseMatrix, not copied.  The public constructors check their
arrays, since a bad index makes the products below read or write out of
bounds; the featurizer and the row views build through ``_trusted``,
which neither checks nor copies.

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


def _int64(name: str, values) -> np.ndarray:
    """``values`` as a 1-d int64 array, refusing non-integer entries; an
    empty sequence is accepted whatever its dtype."""
    array = np.asarray(values)
    if array.ndim != 1:
        raise ValueError(f"{name} must be a 1-d array")
    if array.size and array.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integers, got dtype {array.dtype}")
    return array.astype(np.int64, copy=False)


def _check_csr(dimension: int, indptr: np.ndarray, indices: np.ndarray,
               data: np.ndarray) -> None:
    """Raise ValueError unless the int64 ``indptr`` and ``indices`` and the
    1-d ``data`` are CSR rows over ``dimension`` columns: ``indptr`` starts
    at 0, does not decrease and ends at ``len(indices) == len(data)``, and
    each row's indices are strictly increasing and in ``[0, dimension)``."""
    if data.ndim != 1 or data.shape != indices.shape:
        raise ValueError("indices and data must be 1-d arrays of one length")
    nnz = indices.shape[0]
    if indptr.shape[0] == 0 or indptr[0] != 0 or indptr[-1] != nnz:
        raise ValueError(f"indptr must run from 0 to the {nnz} stored entries")
    if (np.diff(indptr) < 0).any():
        raise ValueError("indptr must not decrease")
    row_start = np.zeros(nnz, dtype=bool)
    row_start[indptr[:-1][indptr[:-1] < nnz]] = True
    if ((np.diff(indices) <= 0) & ~row_start[1:]).any():
        raise ValueError("indices must be strictly increasing within each row")
    out_of_range = (indices < 0) | (indices >= dimension)
    if out_of_range.any():
        raise ValueError(f"index out of range: {indices[out_of_range][0]}")


@dataclass
class SparseVector:
    """One CSR row over a fixed dimension: strictly increasing int64
    ``indices`` in ``[0, dimension)`` and float64 ``values``; zeros are
    never stored."""

    dimension: int
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.indices = _int64("indices", self.indices)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape == self.indices.shape and not self.values.all():
            keep = self.values != 0.0
            self.indices, self.values = self.indices[keep], self.values[keep]
        _check_csr(self.dimension, np.array([0, len(self.indices)]), self.indices, self.values)

    @classmethod
    def _trusted(cls, dimension: int, indices: np.ndarray, values: np.ndarray) -> "SparseVector":
        """A row built already in that form: no checks, no copies."""
        row = object.__new__(cls)
        row.dimension, row.indices, row.values = dimension, indices, values
        return row

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.indices, self.values

    def csr(self) -> "SparseMatrix":
        """This row as a one-row SparseMatrix; the arrays are not copied."""
        return SparseMatrix._trusted(self.dimension, np.array([0, len(self)], dtype=np.int64),
                                     self.indices, self.values)

    def __len__(self) -> int:
        return self.indices.shape[0]


class SparseMatrix(SequenceABC):
    """A batch of CSR rows over one dimension: int64 ``indptr`` (one entry
    more than rows), int64 ``indices`` strictly increasing within each row
    and in ``[0, dimension)``, and float64 ``data``.  It is also a sequence
    of :class:`SparseVector` rows, each a view into the arrays.

    The constructor checks that form and raises ValueError on a fault.
    Arrays that are already int64 and float64 are kept, not copied."""

    def __init__(self, dimension: int, indptr, indices, data) -> None:
        indptr, indices = _int64("indptr", indptr), _int64("indices", indices)
        data = np.asarray(data, dtype=np.float64)
        _check_csr(dimension, indptr, indices, data)
        self.dimension, self.indptr, self.indices, self.data = dimension, indptr, indices, data

    @classmethod
    def _trusted(cls, dimension: int, indptr: np.ndarray, indices: np.ndarray,
                 data: np.ndarray) -> "SparseMatrix":
        """A matrix built already in that form: no checks, no copies."""
        matrix = object.__new__(cls)
        matrix.dimension, matrix.indptr = dimension, indptr
        matrix.indices, matrix.data = indices, data
        return matrix

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


def stack_csr(matrix: SparseMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The matrix's own ``(indptr, indices, data, dimension)``, not copies.
    Nothing in the package calls it: the solver and the scorer read a
    SparseMatrix's arrays directly. It stays because the benchmark's
    tracer wraps it by name."""
    return matrix.indptr, matrix.indices, matrix.data, matrix.dimension
