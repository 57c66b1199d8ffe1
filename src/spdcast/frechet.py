"""Sample Fréchet means of SPD collections.

Two metrics are supported: log-Euclidean (closed form, the exponential of
the average logarithm) and Procrustes size-and-shape, the Bures-Wasserstein
barycenter found by its fixed-point iteration (Alvarez-Esteban et al. 2016).
Each metric has one batch kernel: :func:`rolling_means` runs it over every
window of a series, and the one-sample means run it on one window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import DimensionMismatchError
from .spd import (
    SpdMatrix,
    _eigh_desc,
    _psd_roots,
    _recompose,
    ensure_pd_values,
    logm_stack,
    sqrtm_stack,
)

__all__ = [
    "METRIC_LOG_EUCLIDEAN",
    "METRIC_PROCRUSTES",
    "FrechetConfig",
    "BarycenterResult",
    "frechet_mean_log_euclidean",
    "rolling_means",
    "frechet_mean_procrustes",
]

METRIC_LOG_EUCLIDEAN = "log_euclidean"
METRIC_PROCRUSTES = "procrustes"
_METRICS = (METRIC_LOG_EUCLIDEAN, METRIC_PROCRUSTES)


@dataclass(frozen=True)
class FrechetConfig:
    """Options for Fréchet means.  ``max_iters`` and ``tol`` bound the Procrustes fixed
    point; a ``tol`` below about 1e-13 stops where 1e-13 would, because its objective
    comes from eigenvalues, which resolve decreases only to about 1e-15 of it."""

    metric: str = METRIC_LOG_EUCLIDEAN
    max_iters: int = 200
    tol: float = 1e-10

    def __post_init__(self) -> None:
        if self.metric not in _METRICS:
            raise ValueError(f"unknown metric {self.metric!r}, expected one of {_METRICS}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not (self.tol > 0.0):
            raise ValueError("tol must be positive")


@dataclass
class BarycenterResult:
    """A Procrustes mean and how its fixed point ended."""

    mean: SpdMatrix
    converged: bool
    n_iters: int
    objective_trace: np.ndarray


def _eig_stacks(sample: Sequence[SpdMatrix]) -> tuple[np.ndarray, np.ndarray]:
    """The stacked eigenvalues and eigenvectors of a dimension-uniform sample."""
    if len(sample) == 0:
        raise ValueError("empty sample")
    dim = sample[0].dim
    for s in sample:
        if s.dim != dim:
            raise DimensionMismatchError(f"sample is not dimension-uniform: {s.dim} vs {dim}")
    return np.array([s.eig.values for s in sample]), np.array([s.eig.vectors for s in sample])


def _exact_mean(stack: np.ndarray) -> np.ndarray:
    # Entrywise exactly-rounded summation: the mean is bit-for-bit invariant
    # under permutations of the sample.
    count = stack.shape[0]
    sums = np.array([math.fsum(column) for column in stack.reshape(count, -1).T.tolist()])
    return (sums / count).reshape(stack.shape[1:])


def _log_euclidean_means(logs: np.ndarray, cfg: FrechetConfig | None = None) -> tuple[np.ndarray, ...]:
    """Log-Euclidean means of the windows of a ``(W, k, n, n)`` stack of logarithms: each
    window's exactly rounded average logarithm, exponentiated with one ``eigh`` of the
    batch.  The columns of :func:`_barycenters`, with 0 steps and ``converged`` True.
    Logarithms are exactly symmetric (:func:`_recompose` symmetrizes), so only the upper
    triangle is summed and mirrored."""
    rows, cols = np.triu_indices(logs.shape[-1])
    mean = np.empty((len(logs), *logs.shape[2:]))
    mean[:, rows, cols] = mean[:, cols, rows] = _exact_mean(
        np.swapaxes(logs[..., rows, cols], 0, 1))
    lam, vec = _eigh_desc(mean)
    return np.exp(lam), vec, np.zeros(len(logs), dtype=int), np.ones(len(logs), dtype=bool)


def frechet_mean_log_euclidean(sample: Sequence[SpdMatrix]) -> SpdMatrix:
    """Closed-form log-Euclidean mean: ``expm(mean(logm(S_t)))``.

    Rank-deficient elements are floor-projected as :func:`ensure_pd` does
    first; the first whose floored spectrum still holds a zero raises.
    """
    values, vectors = _eig_stacks(sample)
    logs, errors = logm_stack(ensure_pd_values(values), vectors)
    if errors:
        raise next(iter(errors.values()))
    values, vectors = _log_euclidean_means(logs[None])[:2]
    return SpdMatrix._from_eig(values[0], vectors[0])


# Windows per batch of :func:`rolling_means`: at n = 50 a batch of 22-day
# Procrustes windows raises peak memory by about 60 MB, whatever the series'
# length.
_WINDOW_CHUNK = 16


def _barycenters(roots: np.ndarray, cfg: FrechetConfig) -> tuple[np.ndarray, ...]:
    """Bures-Wasserstein barycenters of the windows of a ``(W, k, n, n)`` stack of roots.

    Every window iterates ``S <- S^-1/2 (mean_i (S^1/2 C_i S^1/2)^1/2)^2 S^-1/2``
    from ``S = (mean_i L_i)^2``, where ``C_i = L_i L_i``, in lockstep with
    the others: each round is one ``eigh`` of the active windows' S and one
    of all their ``S^1/2 C_i S^1/2``, whose eigenvalues also give the
    objective ``sum_i d_BW(C_i, S)^2``, that is
    ``sum_i tr C_i + k tr S - 2 sum_i tr (S^1/2 C_i S^1/2)^1/2``.  A step
    that does not lower it is undone.  A window leaves the batch
    there, at a relative decrease of at most ``cfg.tol``, or after
    ``cfg.max_iters`` steps.  Every operation acts on one window at a time,
    so a window's result does not depend on its batch.  Returns each mean's
    eigenvalues (floored as :func:`ensure_pd` floors them) and eigenvectors,
    its steps, whether it converged, and the ``(rounds, W)`` objectives of
    the iterates kept (NaN elsewhere).
    """
    count, k, n = roots.shape[:3]
    # Each window's roots scaled by a power of two into [0.5, 1): exact, and no
    # product below underflows or overflows, whatever the data's units.
    exponent = np.frexp(np.abs(roots).reshape(count, -1).max(axis=1))[1]
    roots = np.ldexp(roots, -exponent[:, None, None, None])
    spread = (roots * roots).reshape(count, -1).sum(axis=1)
    mean_root = roots[:, 0].copy()
    for i in range(1, k):
        mean_root += roots[:, i]
    mean_root /= k
    s = mean_root @ mean_root
    values, vectors = np.empty((count, n)), np.empty((count, n, n))
    n_iters, converged = np.zeros(count, dtype=int), np.zeros(count, dtype=bool)
    best = np.full(count, np.inf)
    history = []
    active = np.arange(count)
    for step in range(cfg.max_iters + 1):
        lam, vec = _eigh_desc(s)
        root = _psd_roots(lam)
        m = _recompose(root, vec)[:, None] @ roots
        mu, u = _eigh_desc(m @ np.swapaxes(m, -1, -2))
        root_mu = _psd_roots(mu)
        objective = (spread + k * lam.sum(axis=1)
                     - 2.0 * root_mu.reshape(len(active), -1).sum(axis=1))
        prev = best[active]
        lower = objective < prev
        done = (~lower | (prev - objective <= cfg.tol * np.abs(prev))) & (step > 0)
        kept = active[lower]
        best[kept], values[kept], vectors[kept] = objective[lower], lam[lower], vec[lower]
        history.append(np.full(count, np.nan))
        history[-1][kept] = objective[lower]
        converged[active[done]] = True
        if step == cfg.max_iters:
            done[:] = True
        n_iters[active[done]] = step
        go = ~done
        if not go.any():
            break
        active, roots, spread, root, vec = active[go], roots[go], spread[go], root[go], vec[go]
        # sum_i (S^1/2 C_i S^1/2)^1/2 as one product per window: the columns of
        # every u_i scaled by mu_i^1/4, side by side.
        w = np.swapaxes(u[go] * np.sqrt(root_mu[go])[:, :, None, :], 1, 2)
        w = w.reshape(len(active), n, k * n)
        t = (w @ np.swapaxes(w, -1, -2)) / k
        inv_root = np.divide(1.0, root, out=np.zeros_like(root), where=root > 0.0)
        b = _recompose(inv_root, vec) @ t
        s = b @ np.swapaxes(b, -1, -2)
    values = ensure_pd_values(np.ldexp(values, 2 * exponent[:, None]))
    return values, vectors, n_iters, converged, np.ldexp(np.array(history), 2 * exponent)


def rolling_means(stack: np.ndarray, k: int, cfg: FrechetConfig) -> tuple[np.ndarray, ...]:
    """Fréchet means under ``cfg`` of every ``k`` consecutive matrices of a stack of their
    logarithms (log-Euclidean) or symmetric square roots (Procrustes).

    Row s is the one-sample mean of the matrices of ``stack[s : s + k]``, bit for bit:
    its eigenvalues and eigenvectors, its fixed-point steps and whether it converged.
    The windows run in batches of ``_WINDOW_CHUNK``, which bounds the memory.
    """
    kernel = _barycenters if cfg.metric == METRIC_PROCRUSTES else _log_euclidean_means
    count = len(stack) - k + 1
    batches = [kernel(stack[np.arange(start, min(start + _WINDOW_CHUNK, count))[:, None]
                            + np.arange(k)], cfg)[:4]
               for start in range(0, count, _WINDOW_CHUNK)]
    return tuple(np.concatenate(arrays) for arrays in zip(*batches))


def frechet_mean_procrustes(
    sample: Sequence[SpdMatrix], cfg: FrechetConfig | None = None
) -> BarycenterResult:
    """Procrustes size-and-shape mean: the Bures-Wasserstein barycenter of the sample.

    The fixed point of :func:`_barycenters` on the sample's symmetric square
    roots.  Its recorded objective is non-increasing; exhausting
    ``cfg.max_iters`` is reported through the ``converged`` flag, not an
    error.  The mean is always projected at ``SPD_FLOOR * lambda_max``.
    """
    roots = sqrtm_stack(*_eig_stacks(sample))
    values, vectors, n_iters, converged, history = _barycenters(
        roots[None], cfg or FrechetConfig(metric=METRIC_PROCRUSTES))
    trace = history[:, 0]
    return BarycenterResult(SpdMatrix._from_eig(values[0], vectors[0]), bool(converged[0]),
                            int(n_iters[0]), trace[~np.isnan(trace)])
