"""Row-orthonormal (Stiefel) weight parameters, tangent projection, retraction."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DecompositionError, DimensionMismatchError

__all__ = [
    "STIEFEL_TOL",
    "StiefelParam",
    "stiefel_error",
    "random_stiefel",
    "stiefel_project",
    "stiefel_retract",
]

# Feasibility tolerance on ||W W^T - I||_F.
STIEFEL_TOL = 1e-8


def stiefel_error(w: np.ndarray) -> float:
    """Frobenius distance of ``w @ w.T`` from the identity."""
    w = np.asarray(w, dtype=float)
    return float(np.linalg.norm(w @ w.T - np.eye(w.shape[0])))


@dataclass
class StiefelParam:
    """A row-orthonormal weight with its Euclidean gradient accumulator."""

    value: np.ndarray
    grad_euclidean: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.value = np.array(self.value, dtype=float)
        if self.value.ndim != 2 or self.value.shape[0] > self.value.shape[1]:
            raise DimensionMismatchError(
                f"weight must be rows <= cols, got shape {self.value.shape}"
            )
        if stiefel_error(self.value) > STIEFEL_TOL:
            raise ValueError("weight rows are not orthonormal")
        self.grad_euclidean = np.zeros_like(self.value)

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape


def random_stiefel(shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    """Random row-orthonormal matrix: QR of a standard normal draw."""
    out_dim, in_dim = shape
    if out_dim > in_dim:
        raise DimensionMismatchError(f"need rows <= cols, got {shape}")
    gauss = rng.standard_normal((in_dim, out_dim))
    q, r = np.linalg.qr(gauss)
    signs = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    return (q * signs).T


def _like_weight(w: np.ndarray, other: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """``w`` and ``other`` as float arrays; ``other``, called ``name``, must have ``w``'s shape."""
    w, other = np.asarray(w, dtype=float), np.asarray(other, dtype=float)
    if other.shape != w.shape:
        raise DimensionMismatchError(f"{name} shape {other.shape} differs from weight shape {w.shape}")
    return w, other


def stiefel_project(w: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Project a Euclidean gradient onto the tangent space at ``w``.

    For row-orthonormal ``w`` the projection is
    ``G - sym(G @ w.T) @ w`` with ``sym(M) = (M + M.T) / 2``; the result ``V``
    satisfies ``sym(V @ w.T) = 0``.
    """
    w, grad = _like_weight(w, grad, "gradient")
    gw = grad @ w.T
    return grad - 0.5 * (gw + gw.T) @ w


def stiefel_retract(w: np.ndarray, step: np.ndarray) -> np.ndarray:
    """First-order QR retraction of ``w + step`` back onto the manifold.

    Computed from the thin QR of ``(w + step).T`` with the R-diagonal sign
    fixed positive, so a zero step returns ``w`` (up to round-off) and the
    result is deterministic.  Falls back to the SVD polar factor when the
    QR diagonal signals rank deficiency.
    """
    w, step = _like_weight(w, step, "step")
    moved = w + step
    q, r = np.linalg.qr(moved.T)
    diag = np.diag(r)
    scale = max(float(np.max(np.abs(moved))), 1.0)
    if np.any(np.abs(diag) < 1e-12 * scale):
        try:
            u, _, vt = np.linalg.svd(moved, full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise DecompositionError(f"retraction SVD failed: {exc}") from exc
        return u @ vt
    signs = np.where(diag < 0.0, -1.0, 1.0)
    return (q * signs).T
