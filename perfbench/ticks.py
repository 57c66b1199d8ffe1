"""Seeded intraday tick file whose realized covariances are known exactly.

Every ticker quotes at every grid time of every day, and extra off-grid
ticks fall strictly between grid times.  Gridding with last observation
carried forward therefore recovers the on-grid quotes, so the realized
covariance and the daily return of each day follow from the generator's
own on-grid prices.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

MARKET_OPEN = 9 * 3600 + 30 * 60
FIRST_DATE = np.datetime64("2004-01-05", "D")


@dataclass(frozen=True)
class TickSpec:
    tickers: int
    days: int
    grid_seconds: int
    intervals: int  # grid returns per day
    off_grid_rate: float  # chance of one off-grid tick per ticker and interval


@dataclass
class ExpectedPanel:
    """What ingesting the tick file must produce, in sorted-ticker order."""

    tickers: list[str]
    dates: np.ndarray
    realized: np.ndarray  # (days, n, n)
    returns: np.ndarray  # (days, n)


def _clock(seconds: np.ndarray) -> list[str]:
    return [f"{s // 3600:02d}:{s // 60 % 60:02d}:{s % 60:02d}" for s in seconds.tolist()]


def write_ticks(path: Path, spec: TickSpec, seed: int) -> ExpectedPanel:
    """Write ``date,time,ticker,price`` rows and return the expected panel."""
    rng = np.random.default_rng(seed)
    n, steps = spec.tickers, spec.intervals
    tickers = [f"T{i:02d}" for i in range(n)]
    grid = MARKET_OPEN + spec.grid_seconds * np.arange(steps + 1)
    grid_clock = _clock(grid)

    # Persistent log volatilities around a one-factor correlation.
    loadings = rng.uniform(0.3, 0.8, size=n)
    corr = np.outer(loadings, loadings)
    np.fill_diagonal(corr, 1.0)
    corr_root = np.linalg.cholesky(corr)
    log_vol = np.log(0.01) + 0.3 * rng.standard_normal(n)
    log_price = np.log(rng.uniform(20.0, 200.0, size=n))

    dates = FIRST_DATE + np.arange(spec.days)
    realized = np.zeros((spec.days, n, n))
    returns = np.zeros((spec.days, n))
    with open(path, "w") as fh:
        fh.write("date,time,ticker,price\n")
        for d in range(spec.days):
            log_vol = np.log(0.01) + 0.97 * (log_vol - np.log(0.01)) + 0.08 * rng.standard_normal(n)
            scale = np.exp(log_vol) / np.sqrt(steps)
            shocks = rng.standard_normal((steps, n)) @ corr_root.T * scale
            path_logs = log_price + np.vstack([np.zeros(n), np.cumsum(shocks, axis=0)])
            prices = np.exp(path_logs)  # (steps + 1, n): the on-grid quotes
            log_price = path_logs[-1]
            lr = np.log(prices[1:] / prices[:-1])
            realized[d] = lr.T @ lr
            returns[d] = lr.sum(axis=0)

            # Off-grid ticks: one per (interval, ticker) with the given chance.
            hit = rng.random((steps, n)) < spec.off_grid_rate
            offsets = rng.integers(1, spec.grid_seconds, size=(steps, n))
            jitter = np.exp(0.001 * rng.standard_normal((steps, n)))
            day = str(dates[d])
            quotes = prices.tolist()
            off_prices = (prices[:-1] * jitter).tolist()
            lines = []
            for k in range(steps + 1):
                stamp = grid_clock[k]
                for i in range(n):
                    lines.append(f"{day},{stamp},{tickers[i]},{quotes[k][i]!r}\n")
                if k == steps:
                    break
                for i in np.flatnonzero(hit[k]).tolist():
                    stamp_off = _clock(np.array([grid[k] + offsets[k, i]]))[0]
                    lines.append(f"{day},{stamp_off},{tickers[i]},{off_prices[k][i]!r}\n")
            fh.writelines(lines)
    return ExpectedPanel(tickers, dates, realized, returns)
