"""Minimum-variance portfolios from covariance forecasts, and their scoring.

Weights come from the global minimum variance problem, unconstrained
(closed form) or long-only (active-set iteration).  Performance is the
annualized standard deviation of realized portfolio returns; trading
intensity is the mean turnover with the mechanical drift of weights between
rebalances accounted for.  Transaction costs are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .data import CovSeries
from .exceptions import ConvergenceError, DimensionMismatchError
from .spd import SpdMatrix, ensure_pd, ensure_pd_stack

__all__ = [
    "WeightPath",
    "PortfolioReport",
    "gmv_weights",
    "gmv_long_only",
    "naive_weights",
    "portfolio_returns",
    "annualized_std",
    "avg_turnover",
    "evaluate_portfolio",
]

TRADING_DAYS = 252


@dataclass
class WeightPath:
    """Dated weight vectors, each summing to one."""

    dates: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        self.dates = np.asarray(self.dates, dtype="datetime64[D]")
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.ndim != 2 or self.weights.shape[0] != len(self.dates):
            raise DimensionMismatchError(
                f"weights shape {self.weights.shape} does not match "
                f"{len(self.dates)} dates"
            )
        if np.any(np.abs(self.weights.sum(axis=1) - 1.0) > 1e-10):
            raise ValueError("weight rows must sum to one")


@dataclass
class PortfolioReport:
    annualized_std: float
    avg_turnover: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.annualized_std) and np.isfinite(self.avg_turnover)):
            raise ValueError("report fields must be finite")
        if self.annualized_std < 0.0 or self.avg_turnover < 0.0:
            raise ValueError("report fields must be nonnegative")


def gmv_weights(s: SpdMatrix | CovSeries) -> np.ndarray:
    """Global minimum variance weights ``S^{-1} 1 / (1' S^{-1} 1)``.

    Matrices short of strict positive definiteness are floor-projected
    first (:func:`ensure_pd`).  The result is renormalized to sum exactly
    to one; weights may be negative.  Scale-invariant: ``gmv_weights(c S) = gmv_weights(S)``.
    A series of ``B`` matrices gives their ``(B, n)`` weights from one
    solve on its stack; each row is bit for bit the weights of its matrix.
    """
    single = isinstance(s, SpdMatrix)
    stack = ensure_pd(s).data[None] if single else ensure_pd_stack(s.data, s.values, s.vectors)
    raw = np.linalg.solve(stack, np.ones(stack.shape[:-1] + (1,)))[..., 0]
    weights = raw / raw.sum(axis=-1, keepdims=True)
    return weights[0] if single else weights


def gmv_long_only(
    s: SpdMatrix | CovSeries, tol: float = 1e-10, max_iters: int | None = None
) -> np.ndarray:
    """Long-only minimum variance weights by active-set iteration.

    Solve the unconstrained problem on the free set, clamp negative weights
    to zero, and repeat; once the free solution is nonnegative, release any
    clamped asset whose multiplier ``2 (S w)_i - 2 w' S w`` falls below
    ``-tol``.  A series of ``B`` matrices gives their ``(B, n)`` weights:
    its dates iterate in lockstep, and each step solves the dates that share
    a free set in one batched solve, so each row is bit for bit the weights
    of its matrix.  A date that exceeds the iteration budget (default
    ``10 n``) raises, naming its row.
    """
    single = isinstance(s, SpdMatrix)
    stack = ensure_pd(s).data[None] if single else ensure_pd_stack(s.data, s.values, s.vectors)
    n = stack.shape[-1]
    if max_iters is None:
        max_iters = 10 * n
    weights = np.zeros(stack.shape[:-1])
    free = np.ones(weights.shape, dtype=bool)
    todo = np.arange(len(stack))  # the rows whose active set has not settled
    for _ in range(max_iters):
        if not len(todo):
            break
        w = np.zeros((len(todo), n))
        sets, group = np.unique(free[todo], axis=0, return_inverse=True)
        for g, kept in enumerate(sets):
            rows, assets = np.flatnonzero(group.ravel() == g), np.flatnonzero(kept)
            sub = stack[np.ix_(todo[rows], assets, assets)]
            raw = np.linalg.solve(sub, np.ones((len(rows), len(assets), 1)))[..., 0]
            w[np.ix_(rows, assets)] = raw / raw.sum(axis=-1, keepdims=True)
        clamp = ((w < -tol) & free[todo]).any(axis=1)
        free[todo[clamp]] &= w[clamp] > -tol  # clamp every negative weight at once
        rows, w = todo[~clamp], np.maximum(w[~clamp], 0.0)
        w /= w.sum(axis=1, keepdims=True)
        marginal = 2.0 * (stack[rows] @ w[:, :, None])[..., 0]
        lam = (w[:, None, :] @ marginal[:, :, None])[:, 0]
        multipliers = np.where(free[rows], np.inf, marginal - lam)
        settled = multipliers.min(axis=1) >= -tol
        weights[rows[settled]] = w[settled]
        free[rows[~settled], np.argmin(multipliers[~settled], axis=1)] = True  # release one
        todo = np.sort(np.concatenate([todo[clamp], rows[~settled]]))
    if len(todo):
        row = "" if single else f" of row {todo[0]} ({s.dates[todo[0]]})"
        raise ConvergenceError(f"active set{row} did not settle within {max_iters} iterations")
    return weights[0] if single else weights


def naive_weights(n: int) -> np.ndarray:
    """Equal weights 1/n."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return np.full(n, 1.0 / n)


def _aligned(weights: WeightPath | np.ndarray, returns: np.ndarray) -> tuple[np.ndarray, ...]:
    """The ``(days, assets)`` weights and the returns, which must have their shape."""
    w = weights.weights if isinstance(weights, WeightPath) else np.asarray(weights, float)
    if w.ndim != 2:
        raise DimensionMismatchError(f"expected (days, assets) weights, got {w.shape}")
    r = np.asarray(returns, dtype=float)
    if r.shape != w.shape:
        raise DimensionMismatchError(f"returns shape {r.shape} != weights shape {w.shape}")
    return w, r


def portfolio_returns(weights: WeightPath | np.ndarray, returns: np.ndarray) -> np.ndarray:
    """Daily portfolio returns ``w_t' r_t`` for aligned weight/return rows."""
    w, r = _aligned(weights, returns)
    return np.sum(w * r, axis=1)


def annualized_std(returns: np.ndarray) -> float:
    """``sqrt(252 * mean((r - rbar)^2))`` (population variance)."""
    r = np.asarray(returns, dtype=float)
    if r.ndim != 1 or r.shape[0] < 2:
        raise ValueError(f"need at least two return observations, got shape {r.shape}")
    return float(np.sqrt(TRADING_DAYS * np.mean((r - r.mean()) ** 2)))


def avg_turnover(weights: WeightPath | np.ndarray, returns: np.ndarray) -> float:
    """Mean absolute rebalancing after accounting for weight drift.

    Between t and t+1 the held weights drift to
    ``w_t (1 + r_t) / (1 + w_t' r_t)``; the day's turnover is the l1
    distance from the drifted weights to the new target.
    """
    w, r = _aligned(weights, returns)
    if w.shape[0] < 2:
        raise ValueError("need at least two days of weights")
    growth = 1.0 + np.sum(w[:-1] * r[:-1], axis=1)
    if np.any(np.abs(growth) < 1e-12):
        raise ValueError("portfolio return of -100% makes turnover undefined")
    drifted = w[:-1] * (1.0 + r[:-1]) / growth[:, None]
    return float(np.mean(np.sum(np.abs(w[1:] - drifted), axis=1)))


def evaluate_portfolio(weights: WeightPath, returns: np.ndarray) -> PortfolioReport:
    """Annualized volatility and mean turnover for one weight path."""
    realized = portfolio_returns(weights, returns)
    return PortfolioReport(annualized_std(realized), avg_turnover(weights, returns))
