"""Symmetric positive (semi)definite matrices and the distances between them.

The :class:`SpdMatrix` value type carries its eigendecomposition, computed
once at construction and reused by every spectral operation.  Four distances
are provided: squared Frobenius, Euclidean on half-vectorizations,
log-Euclidean, and the Procrustes size-and-shape distance on symmetric
square roots.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .exceptions import (
    DecompositionError,
    DimensionMismatchError,
    NotPositiveDefiniteError,
)

__all__ = [
    "PSD_RTOL",
    "SPD_FLOOR",
    "EigPair",
    "SpdMatrix",
    "logm",
    "expm",
    "sqrtm_psd",
    "vech",
    "dist_frobenius",
    "dist_euclidean",
    "dist_log_euclidean",
    "dist_procrustes",
    "procrustes_rotation",
    "project_to_spd",
    "ensure_pd",
]

# Round-off negatives down to -PSD_RTOL * lambda_max are accepted as PSD.  When
# lambda_max > 0 is so small that this underflows (subnormal scale), negatives
# down to minus the smallest normal double are accepted instead.
PSD_RTOL = 1e-10
_PSD_ATOL = sys.float_info.min
# Relative floor of the SPD repairs: eigenvalues below SPD_FLOOR * lambda_max
# are raised to it, but never to less than _PSD_ATOL (see ensure_pd).
SPD_FLOOR = 1e-8
# Eigenvalues at or below n * _EPS times the largest are taken as zero, as
# numpy.linalg.matrix_rank takes them.
_EPS = np.finfo(float).eps


class EigPair(NamedTuple):
    """Eigendecomposition with eigenvalues sorted in descending order."""

    values: np.ndarray
    vectors: np.ndarray


def _symmetrize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def _recompose(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Symmetrized ``U diag(values) U^T`` of a decomposition or of each in a stack."""
    return _symmetrize((vectors * values[..., None, :]) @ np.swapaxes(vectors, -1, -2))


def _eigh_desc(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric eigendecomposition of a matrix or a stack, eigenvalues descending."""
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"eigendecomposition failed: {exc}") from exc
    # Copies, not ascontiguousarray: that keeps a negative stride on axes of
    # length 1, and np.log then takes another code path for n = 1.
    return values[..., ::-1].copy(), vectors[..., ::-1].copy()


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _check_records(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[int, Exception]]:
    """A ``(B, n, n)`` stack of square matrices symmetrized, its descending
    eigenpairs, and the error of each record :class:`SpdMatrix` rejects, in order."""
    finite = np.isfinite(a).all(axis=(1, 2))
    with np.errstate(over="ignore"):
        a = _symmetrize(np.where(finite[:, None, None], a, 0.0))
    overflow = ~np.isfinite(a).all(axis=(1, 2))
    a[overflow] = 0.0  # decomposable; rejected below, as are the records that are not finite
    values, vectors = _eigh_desc(a)
    lmax = values[:, 0]
    tolerance = np.where(lmax > 0.0, np.maximum(PSD_RTOL * lmax, _PSD_ATOL), 0.0)
    rejected = {
        int(i): NotPositiveDefiniteError(
            "matrix entries must be finite" if not finite[i] else
            "matrix entries overflow when symmetrized" if overflow[i] else
            f"smallest eigenvalue {values[i, -1]:.6e} is below the PSD tolerance {-tolerance[i]:.6e}"
        )
        for i in np.flatnonzero(~finite | overflow | (values[:, -1] < -tolerance))
    }
    return _freeze(a), _freeze(values), _freeze(vectors), rejected


def validate_stack(
    data: np.ndarray, error: Callable[[int, Exception], Exception] | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``SpdMatrix(m)`` of each ``m`` in a ``(B, n, n)`` array, bit for bit, from one
    ``eigh``: the read-only symmetrized stack and its descending eigenvalue and
    eigenvector stacks.  The first record the constructor rejects raises its error,
    or, given ``error``, ``error(i, exc)`` for record i, raised from ``exc``."""
    a = np.asarray(data, dtype=float)
    if a.ndim != 3:
        raise DimensionMismatchError(f"expected a (B, n, n) stack, got shape {a.shape}")
    if a.shape[1] != a.shape[2] or a.shape[1] == 0:
        rejected = {0: DimensionMismatchError(
            f"expected a nonempty square matrix, got shape {a.shape[1:]}")}
    else:
        a, values, vectors, rejected = _check_records(a)
    if rejected:
        i, exc = next(iter(rejected.items()))
        if error is None:
            raise exc
        raise error(i, exc) from exc
    return a, values, vectors


class SpdMatrix:
    """Immutable symmetric PSD matrix with a cached eigendecomposition.

    The constructor symmetrizes its input via ``(A + A.T) / 2`` (absorbing
    round-off asymmetry from upstream arithmetic), eigendecomposes it, and
    rejects matrices whose smallest eigenvalue falls below
    ``-PSD_RTOL * lambda_max`` (or, where that underflows, below minus the
    smallest normal double).  Strict positive definiteness is *not*
    required here; operations that need it (``logm``, inversion) check for
    themselves.
    """

    __slots__ = ("_data", "_eig")

    def __init__(self, data: np.ndarray | Sequence[Sequence[float]]) -> None:
        a = np.asarray(data, dtype=float)
        if a.ndim != 2:
            raise DimensionMismatchError(f"expected a nonempty square matrix, got shape {a.shape}")
        data, values, vectors = validate_stack(a[None])
        self._data, self._eig = data[0], EigPair(values[0], vectors[0])

    @classmethod
    def _view(cls, data: np.ndarray, values: np.ndarray, vectors: np.ndarray) -> "SpdMatrix":
        obj = object.__new__(cls)  # rows of validate_stack's arrays: validated
        obj._data, obj._eig = data, EigPair(values, vectors)
        return obj

    @classmethod
    def _from_eig(cls, values: np.ndarray, vectors: np.ndarray) -> "SpdMatrix":
        # Fast path for operations that already hold a valid decomposition
        # (spectral maps, Fréchet means).  Caller guarantees orthonormal
        # vectors and PSD-admissible values, descending.
        values = np.asarray(values, dtype=float)
        vectors = np.asarray(vectors, dtype=float)
        return cls._view(*(_freeze(a) for a in (_recompose(values, vectors), values, vectors)))

    @property
    def dim(self) -> int:
        return self._data.shape[0]

    @property
    def data(self) -> np.ndarray:
        """The dense matrix (read-only view)."""
        return self._data

    def __array__(self, dtype=None) -> np.ndarray:
        return self._data if dtype is None else self._data.astype(dtype)

    @property
    def eig(self) -> EigPair:
        return self._eig

    def __repr__(self) -> str:  # pragma: no cover
        return f"SpdMatrix(dim={self.dim}, lambda_range=[{self._eig.values[-1]:.4g}, {self._eig.values[0]:.4g}])"


def _log_domain_error(smallest: float) -> NotPositiveDefiniteError:
    return NotPositiveDefiniteError(
        f"matrix logarithm requires strictly positive eigenvalues (smallest is {smallest:.6e})"
    )


def logm(a: SpdMatrix) -> np.ndarray:
    """Matrix logarithm of a strictly SPD matrix (symmetric result)."""
    values, vectors = a.eig
    if values[-1] <= 0.0:
        raise _log_domain_error(values[-1])
    return _recompose(np.log(values), vectors)


def logm_stack(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """:func:`logm` of each decomposition of a stack, bit for bit, NaN where it fails."""
    failed = values[:, -1:] <= 0.0
    return _recompose(np.log(np.where(failed, np.nan, values)), vectors)


def expm(s: np.ndarray) -> SpdMatrix:
    """Matrix exponential of a symmetric matrix; the result is strictly SPD."""
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError("matrix entries must be finite")
    values, vectors = _eigh_desc(_symmetrize(s))
    return SpdMatrix._from_eig(np.exp(values), vectors)


def _psd_roots(values: np.ndarray) -> np.ndarray:
    """Square roots of the descending eigenvalues of a matrix or a stack.  Those within eigh's
    round-off of zero, at or below ``n * eps * max(lambda_max, 0)``, are zero: their roots
    would be round-off magnified to about 1e-8 of the largest."""
    lmax = np.maximum(values[..., :1], 0.0)
    return np.sqrt(np.where(values > values.shape[-1] * _EPS * lmax, values, 0.0))


def sqrtm_psd(a: SpdMatrix) -> np.ndarray:
    """Symmetric PSD square root (eigenvalues within round-off of zero taken as zero)."""
    return _recompose(_psd_roots(a.eig.values), a.eig.vectors)


def sqrtm_stack(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """:func:`sqrtm_psd` of each decomposition of a stack, bit for bit."""
    return _recompose(_psd_roots(values), vectors)


def vech(a: SpdMatrix | np.ndarray) -> np.ndarray:
    """Half-vectorization: lower triangle including the diagonal, row-major."""
    a = np.asarray(a, dtype=float)
    rows, cols = np.tril_indices(a.shape[0])
    return a[rows, cols]


def _check_pair(a: SpdMatrix, b: SpdMatrix) -> None:
    if not isinstance(a, SpdMatrix) or not isinstance(b, SpdMatrix):
        raise TypeError("expected two SpdMatrix operands")
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimension mismatch: {a.dim} vs {b.dim}")


def _sample_stacks(sample: Sequence[SpdMatrix]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The matrix, eigenvalue and eigenvector stacks of a nonempty, dimension-uniform sample."""
    if len(sample) == 0:
        raise ValueError("empty sample")
    dim = sample[0].dim
    for s in sample:
        if s.dim != dim:
            raise DimensionMismatchError(f"sample is not dimension-uniform: {s.dim} vs {dim}")
    return tuple(np.array(a) for a in zip(*((s.data, *s.eig) for s in sample)))


def _check_stacks(a: np.ndarray, b: np.ndarray) -> None:
    if a.ndim != 3 or a.shape != b.shape or a.shape[1] != a.shape[2]:
        raise DimensionMismatchError(
            f"expected two (B, n, n) stacks of one shape, got {a.shape} and {b.shape}"
        )


def _row_norms(rows: np.ndarray) -> np.ndarray:
    # The norm of each row as np.linalg.norm takes it in the dist_* functions:
    # that is sqrt(x . x) by BLAS ddot, and a (B, 1, k) @ (B, k, 1) matmul runs
    # the same ddot per row.  A sum of squares would add in another order.
    flat = np.ascontiguousarray(rows).reshape(len(rows), 1, math.prod(rows.shape[1:]))
    return np.sqrt((flat @ flat.transpose(0, 2, 1)).reshape(len(rows)))


def dist_frobenius(a: SpdMatrix, b: SpdMatrix) -> float:
    """Squared Frobenius norm of the difference."""
    _check_pair(a, b)
    return float(np.sum((a.data - b.data) ** 2))


def frobenius_losses(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`dist_frobenius` of each pair of slices of two stacks of matrix entries, bit for bit."""
    _check_stacks(a, b)
    return ((a - b) ** 2).reshape(len(a), -1).sum(axis=1)


def dist_euclidean(a: SpdMatrix, b: SpdMatrix) -> float:
    """l2 distance between half-vectorizations (off-diagonals counted once)."""
    _check_pair(a, b)
    return float(np.linalg.norm(vech(a.data) - vech(b.data)))


def euclidean_losses(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`dist_euclidean` of each pair of slices of two stacks of matrix entries, bit for bit."""
    _check_stacks(a, b)
    rows, cols = np.tril_indices(a.shape[-1])
    return _row_norms(a[:, rows, cols] - b[:, rows, cols])


def dist_log_euclidean(a: SpdMatrix, b: SpdMatrix) -> float:
    """Frobenius distance between matrix logarithms; both operands strictly SPD."""
    _check_pair(a, b)
    return float(np.linalg.norm(logm(a) - logm(b)))


def log_euclidean_losses(log_a: np.ndarray, log_b: np.ndarray) -> np.ndarray:
    """:func:`dist_log_euclidean` of each pair of slices of two stacks of :func:`logm`, bit for bit."""
    _check_stacks(log_a, log_b)
    return _row_norms(log_a - log_b)


def procrustes_rotation(l1: np.ndarray, l2: np.ndarray) -> np.ndarray:
    """Orthogonal matrix R minimizing ``||l1 - l2 @ R||_F``.

    Computed from the SVD of ``l2.T @ l1``; may include reflections.  Two
    ``(k, n, n)`` stacks give the ``k`` rotations in one SVD call; each
    equals the rotation of its slices alone.
    """
    l1 = np.asarray(l1, dtype=float)
    l2 = np.asarray(l2, dtype=float)
    if l1.ndim not in (2, 3) or l1.shape[-1] != l1.shape[-2] or l2.shape != l1.shape:
        raise DimensionMismatchError(
            f"expected square matrices or stacks of one shape, got {l1.shape} and {l2.shape}"
        )
    try:
        u, _, vt = np.linalg.svd(np.swapaxes(l2, -1, -2) @ l1)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"SVD failed: {exc}") from exc
    return u @ vt


def dist_procrustes(a: SpdMatrix, b: SpdMatrix) -> float:
    """Size-and-shape distance: ``min_R ||L_a - L_b R||_F`` over orthogonal R."""
    _check_pair(a, b)
    la = sqrtm_psd(a)
    lb = sqrtm_psd(b)
    return float(np.linalg.norm(la - lb @ procrustes_rotation(la, lb)))


def procrustes_losses(root_a: np.ndarray, root_b: np.ndarray) -> np.ndarray:
    """:func:`dist_procrustes` of each pair of slices of two stacks of :func:`sqrtm_psd`, bit for bit.

    The rotations come from one batched SVD.
    """
    _check_stacks(root_a, root_b)
    return _row_norms(root_a - root_b @ procrustes_rotation(root_a, root_b))


def project_to_spd(a: SpdMatrix | np.ndarray, floor: float) -> SpdMatrix:
    """Nearest-SPD projection: eigenvalues clipped from below at ``floor``.

    Accepts any symmetric matrix (arrays are symmetrized first).  Idempotent
    for matrices already at or above the floor, and the cached decomposition
    of the result has ``lambda_min >= floor`` exactly.
    """
    if not (floor >= 0.0):
        raise ValueError(f"floor must be nonnegative, got {floor}")
    if isinstance(a, SpdMatrix):
        values, vectors = a.eig
    else:
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        values, vectors = _eigh_desc(_symmetrize(a))
    return SpdMatrix._from_eig(np.maximum(values, floor), vectors)


def ensure_pd(s: SpdMatrix) -> SpdMatrix:
    """``s`` itself if ``lambda_min >= SPD_FLOOR * lambda_max``, else its projection there.

    The floor is relative (``SPD_FLOOR`` alone when ``lambda_max <= 0``) but at least the
    smallest normal double, so ``logm`` of the result cannot fail.  A repair is ``result is not s``.
    """
    values = ensure_pd_values(s.eig.values[None])[0]
    if values[-1] > s.eig.values[-1]:
        return SpdMatrix._from_eig(values, s.eig.vectors)
    return s


def ensure_pd_values(values: np.ndarray) -> np.ndarray:
    """The eigenvalues of :func:`ensure_pd` of each decomposition of a stack."""
    lmax = values[:, :1]
    return np.maximum(values, np.maximum(SPD_FLOOR * np.where(lmax > 0.0, lmax, 1.0), _PSD_ATOL))


def ensure_pd_stack(data: np.ndarray, values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """:func:`ensure_pd` of each matrix of a stack, given its decomposition, bit for bit."""
    floored = ensure_pd_values(values)
    projected = np.flatnonzero(floored[:, -1] > values[:, -1])
    if len(projected):
        data = data.copy()
        data[projected] = _recompose(floored[projected], vectors[projected])
    return data
