"""Reference forecasters: random walk and a factor VAR on Cholesky vectors."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .data import CovSeries
from .exceptions import DecompositionError, DimensionMismatchError
from .spd import SpdMatrix, ensure_pd, ensure_pd_stack

__all__ = [
    "forecast_rw",
    "chol_vectorize",
    "chol_reconstruct",
    "FavarModel",
    "favar_fit",
    "favar_forecast",
    "default_factor_count",
]

log = logging.getLogger(__name__)


def forecast_rw(series: CovSeries, t: int) -> SpdMatrix:
    """Random-walk forecast for position ``t``: the matrix at ``t - 1``.

    ``t`` may equal ``len(series)`` (the first unobserved day).
    """
    if not (1 <= t <= len(series)):
        raise IndexError(f"t must be in [1, {len(series)}], got {t}")
    return series[t - 1]


def chol_vectorize(s: SpdMatrix) -> np.ndarray:
    """Row-major lower triangle of the Cholesky factor (positive diagonal).

    Inputs that are not strictly SPD are floor-projected first (:func:`ensure_pd`).
    """
    s = ensure_pd(s)
    try:
        factor = np.linalg.cholesky(s.data)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"Cholesky failed: {exc}") from exc
    return factor[np.tril_indices(s.dim)]


def _series_chols(series: CovSeries) -> np.ndarray:
    """:func:`chol_vectorize` of each matrix of a series, bit for bit, from one batched Cholesky."""
    try:
        factors = np.linalg.cholesky(ensure_pd_stack(series.data, series.values, series.vectors))
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"Cholesky failed: {exc}") from exc
    rows, cols = np.tril_indices(series.dim)
    # C order, as the per-matrix vectors stacked: favar_fit's means sum in it.
    return np.ascontiguousarray(factors[:, rows, cols])


def _tri_side(p: int) -> int:
    n = int((np.sqrt(8 * p + 1) - 1) / 2)
    if n * (n + 1) // 2 != p:
        raise DimensionMismatchError(f"{p} is not a triangular number")
    return n


def chol_reconstruct(v: np.ndarray) -> SpdMatrix:
    """Rebuild ``L L^T`` from a row-major lower-triangle vector.

    Any real vector is accepted; the result is PSD by construction.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatchError(f"expected a vector, got shape {v.shape}")
    n = _tri_side(v.shape[0])
    factor = np.zeros((n, n))
    factor[np.tril_indices(n)] = v
    return SpdMatrix(factor @ factor.T)


@dataclass
class FavarModel:
    """PCA factors of centered Cholesky vectors with a VAR(1) on the scores.

    ``mean_vector`` is the full-dimensional mean of the Cholesky vectors;
    scores are projections of centered vectors, so reconstruction is
    ``mean_vector + loadings @ score``.
    """

    n_factors: int
    loadings: np.ndarray
    mean_vector: np.ndarray
    var_coef: np.ndarray
    var_intercept: np.ndarray
    reduced_from: int | None = None  # the count asked for, if the sample's rank cut it

    def __post_init__(self) -> None:
        p, f = self.loadings.shape
        if f != self.n_factors:
            raise DimensionMismatchError("loadings width differs from n_factors")
        if self.mean_vector.shape != (p,):
            raise DimensionMismatchError("mean_vector length differs from loadings height")
        if self.var_coef.shape != (f, f) or self.var_intercept.shape != (f,):
            raise DimensionMismatchError("VAR parameter shapes do not match n_factors")


def default_factor_count(p: int, train_length: int) -> int:
    return min(50, p, train_length - 2)


def _fit_error(series: CovSeries, train: slice, exc: np.linalg.LinAlgError) -> DecompositionError:
    dates = series.dates[train]
    return DecompositionError(f"FAVAR fit on {dates[0]} to {dates[-1]}: {exc}")


def favar_fit(
    series: CovSeries,
    n_factors: int | None = None,
    train: slice | None = None,
) -> FavarModel:
    """Fit loadings by PCA of centered Cholesky vectors, then an OLS VAR(1).

    Loadings are the top right singular vectors of the centered vector
    matrix (equivalently, top eigenvectors of the sample covariance).  The
    vectors are rows of one Cholesky stack per series, so refits on
    overlapping windows vectorize each matrix once.  A sample of rank below
    ``n_factors`` fits ``max(rank, 1)``, logged at INFO: a constant one has zero
    scores, so a zero VAR, and every forecast is ``mean_vector``.  An SVD or
    least-squares solve that does not converge raises :class:`DecompositionError`
    naming the window's first and last dates.
    """
    if train is None:
        train = slice(0, len(series))
    t_train = len(range(len(series))[train])
    p = series.dim * (series.dim + 1) // 2
    if n_factors is None:
        n_factors = default_factor_count(p, t_train)
    if n_factors < 1:
        raise ValueError(f"n_factors must be positive, got {n_factors}")
    if t_train <= n_factors + 1:
        raise ValueError(
            f"training length {t_train} must exceed n_factors + 1 = {n_factors + 1}"
        )
    vectors = series.stack(_series_chols)[train]
    mean_vector = vectors.mean(axis=0)
    centered = vectors - mean_vector
    try:
        _, singular, vt = np.linalg.svd(centered, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise _fit_error(series, train, exc) from exc
    rank = int(np.sum(singular > max(singular[0], 0.0) * 1e-10)) if singular.size else 0
    reduced_from = None
    if rank < n_factors:
        log.info("sample covariance supports %d factors, reducing from %d", rank, n_factors)
        reduced_from, n_factors = n_factors, max(rank, 1)
    loadings = vt[:n_factors].T
    scores = centered @ loadings
    design = np.hstack([np.ones((t_train - 1, 1)), scores[:-1]])
    try:
        coef, *_ = np.linalg.lstsq(design, scores[1:], rcond=None)
    except np.linalg.LinAlgError as exc:
        raise _fit_error(series, train, exc) from exc
    return FavarModel(n_factors, loadings, mean_vector, coef[1:].T.copy(), coef[0].copy(),
                      reduced_from)


def favar_forecast(model: FavarModel, series: CovSeries, t: int) -> SpdMatrix:
    """Forecast for position ``t`` from the matrix at ``t - 1``.

    Project the current Cholesky vector onto the factors, advance one VAR
    step, reconstruct; the output is PSD by construction.
    """
    if not (1 <= t <= len(series)):
        raise IndexError(f"t must be in [1, {len(series)}], got {t}")
    current = series.stack(_series_chols)[t - 1]
    if current.shape != model.mean_vector.shape:
        raise DimensionMismatchError("series dimension does not match the fitted model")
    score = model.loadings.T @ (current - model.mean_vector)
    advanced = model.var_intercept + model.var_coef @ score
    return chol_reconstruct(model.mean_vector + model.loadings @ advanced)
