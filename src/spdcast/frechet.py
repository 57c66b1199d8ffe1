"""Sample Fréchet means of SPD collections.

Two metrics are supported: log-Euclidean (closed form, the exponential of
the average logarithm) and Procrustes size-and-shape (iterative generalized
Procrustes alignment of symmetric square roots).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import DimensionMismatchError
from .spd import (
    SPD_FLOOR,
    SpdMatrix,
    ensure_pd_values,
    expm,
    logm_stack,
    procrustes_rotation,
    project_to_spd,
    sqrtm_stack,
)

__all__ = [
    "METRIC_LOG_EUCLIDEAN",
    "METRIC_PROCRUSTES",
    "FrechetConfig",
    "GpaResult",
    "mean_from_logs",
    "frechet_mean_log_euclidean",
    "mean_from_roots",
    "frechet_mean_procrustes",
]

METRIC_LOG_EUCLIDEAN = "log_euclidean"
METRIC_PROCRUSTES = "procrustes"
_METRICS = (METRIC_LOG_EUCLIDEAN, METRIC_PROCRUSTES)


@dataclass(frozen=True)
class FrechetConfig:
    """Options for Fréchet mean computation."""

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
class GpaResult:
    """Outcome of generalized Procrustes averaging."""

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


def mean_from_logs(logs: np.ndarray) -> SpdMatrix:
    """Log-Euclidean mean of the matrices whose logarithms ``logs`` stacks."""
    return expm(_exact_mean(logs))


def frechet_mean_log_euclidean(sample: Sequence[SpdMatrix]) -> SpdMatrix:
    """Closed-form log-Euclidean mean: ``expm(mean(logm(S_t)))``.

    Rank-deficient elements are floor-projected as :func:`ensure_pd` does
    first; the first whose floored spectrum still holds a zero raises.
    """
    values, vectors = _eig_stacks(sample)
    logs, errors = logm_stack(ensure_pd_values(values), vectors)
    if errors:
        raise next(iter(errors.values()))
    return mean_from_logs(logs)


def mean_from_roots(roots: np.ndarray, cfg: FrechetConfig | None = None) -> GpaResult:
    """Procrustes mean of the matrices whose square roots ``roots`` stacks.

    Generalized Procrustes averaging: the roots are alternately rotated onto
    the running average (one batched SVD per iteration) and re-averaged; the
    recorded objective ``sum_t ||L_t R_t - mean||_F^2`` is non-increasing
    across iterations.  Convergence is a relative objective change below
    ``cfg.tol``; exhausting ``cfg.max_iters`` is reported through the
    ``converged`` flag, not an error.  The mean is assembled as
    ``mean @ mean.T`` and always projected at ``SPD_FLOOR * lambda_max``.
    """
    if cfg is None:
        cfg = FrechetConfig(metric=METRIC_PROCRUSTES)
    center = roots[0].copy()

    trace: list[float] = []
    prev = math.inf
    converged = False
    n_iters = 0
    for n_iters in range(1, cfg.max_iters + 1):
        aligned = roots @ procrustes_rotation(center, roots)
        center = _exact_mean(aligned)
        objective = float(np.sum((aligned - center) ** 2))
        trace.append(objective)
        if math.isfinite(prev) and prev - objective <= cfg.tol * max(abs(prev), 1.0):
            converged = True
            break
        prev = objective

    gram = center @ center.T
    lmax = float(np.linalg.eigvalsh(gram)[-1])
    floor = SPD_FLOOR * (lmax if lmax > 0.0 else 1.0)
    mean = project_to_spd(gram, floor)
    return GpaResult(mean, converged, n_iters, np.asarray(trace))


def frechet_mean_procrustes(
    sample: Sequence[SpdMatrix], cfg: FrechetConfig | None = None
) -> GpaResult:
    """Procrustes sample mean: :func:`mean_from_roots` of the sample's symmetric square roots."""
    return mean_from_roots(sqrtm_stack(*_eig_stacks(sample)), cfg)

