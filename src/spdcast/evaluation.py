"""Forecast scoring: loss panels, the model confidence set, regime splits.

The model confidence set iteratively eliminates the worst model by the range
statistic (the largest absolute pairwise t-ratio of mean loss differences),
with the null distribution and the variance of each mean difference both
estimated from one shared circular block bootstrap.  A model eliminated at
step k carries p-value ``max(p_1..p_k)``; the final survivor carries 1.0;
the surviving set at level alpha is the p >= alpha set, which makes it
monotone in alpha by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import DimensionMismatchError
from .spd import (
    SpdMatrix,
    dist_euclidean,
    dist_frobenius,
    dist_log_euclidean,
    dist_procrustes,
)

__all__ = [
    "METRICS",
    "ForecastRun",
    "LossPanel",
    "McsResult",
    "loss_panel",
    "block_bootstrap_indices",
    "mcs",
    "regime_split",
]

_METRIC_FNS = {
    "frobenius": dist_frobenius,
    "euclidean": dist_euclidean,
    "procrustes": dist_procrustes,
    "log_euclidean": dist_log_euclidean,
}
METRICS = tuple(_METRIC_FNS)

# Below this, a bootstrap variance is treated as exactly degenerate.
_DEGENERATE_VAR = 1e-300


@dataclass
class ForecastRun:
    """One model's out-of-sample forecasts aligned with what was realized."""

    model: str
    dates: np.ndarray
    predicted: list[SpdMatrix]
    realized: list[SpdMatrix]

    def __post_init__(self) -> None:
        self.dates = np.asarray(self.dates, dtype="datetime64[D]")
        if not (len(self.dates) == len(self.predicted) == len(self.realized)):
            raise DimensionMismatchError("dates, predicted, realized must be equal length")
        if len(self.dates) == 0:
            raise ValueError(f"forecast run {self.model!r} is empty")


@dataclass
class LossPanel:
    """Per-date, per-model losses under one metric (no NaNs, nonnegative)."""

    models: list[str]
    dates: np.ndarray
    losses: np.ndarray

    def __post_init__(self) -> None:
        self.losses = np.asarray(self.losses, dtype=float)
        if self.losses.shape != (len(self.dates), len(self.models)):
            raise DimensionMismatchError(
                f"loss shape {self.losses.shape} does not match "
                f"{len(self.dates)} dates x {len(self.models)} models"
            )
        if np.any(~np.isfinite(self.losses)):
            raise ValueError("losses must be finite")
        if len(set(self.models)) != len(self.models):
            raise ValueError("duplicate model names")

    def column(self, model: str) -> np.ndarray:
        return self.losses[:, self.models.index(model)]


@dataclass
class McsResult:
    surviving: set[str]
    p_values: dict[str, float]
    alpha: float
    replicates: int
    block_len: int
    elimination_order: list[str]


def loss_panel(runs: Sequence[ForecastRun], metric: str) -> LossPanel:
    """Score every model on the shared dates; runs must be mutually aligned."""
    if metric not in _METRIC_FNS:
        raise ValueError(f"unknown metric {metric!r}, expected one of {METRICS}")
    if len(runs) == 0:
        raise ValueError("no forecast runs")
    first = runs[0]
    for run in runs[1:]:
        if not np.array_equal(run.dates, first.dates):
            raise ValueError(
                f"forecast runs are misaligned: {run.model!r} dates differ from "
                f"{first.model!r}"
            )
        for a, b in zip(run.realized, first.realized):
            if not np.allclose(a.data, b.data, rtol=0.0, atol=1e-12):
                raise ValueError(
                    f"forecast runs disagree on realized values: {run.model!r} vs "
                    f"{first.model!r}"
                )
    fn = _METRIC_FNS[metric]
    losses = np.zeros((len(first.dates), len(runs)))
    for j, run in enumerate(runs):
        for i, (pred, real) in enumerate(zip(run.predicted, run.realized)):
            losses[i, j] = fn(pred, real)
    return LossPanel([r.model for r in runs], first.dates, losses)


def block_bootstrap_indices(
    n_obs: int, replicates: int, block_len: int, seed: int | np.random.Generator
) -> np.ndarray:
    """Circular block bootstrap index matrix of shape (replicates, n_obs)."""
    if n_obs < 1 or replicates < 1:
        raise ValueError("n_obs and replicates must be positive")
    if not (1 <= block_len <= n_obs):
        raise ValueError(f"block_len must be in [1, {n_obs}], got {block_len}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    n_blocks = -(-n_obs // block_len)
    starts = rng.integers(0, n_obs, size=(replicates, n_blocks))
    offsets = np.arange(block_len)
    idx = (starts[:, :, None] + offsets[None, None, :]) % n_obs
    return idx.reshape(replicates, n_blocks * block_len)[:, :n_obs]


def default_block_len(n_obs: int) -> int:
    return int(math.ceil(n_obs ** (1.0 / 3.0)))


def mcs(
    panel: LossPanel,
    alpha: float = 0.25,
    replicates: int = 10_000,
    block_len: int | None = None,
    seed: int = 0,
) -> McsResult:
    """Model confidence set by iterated elimination under the range statistic.

    One bootstrap index matrix is drawn up front and shared by every round,
    both for the null distribution of the range statistic and for the
    variance of each pairwise mean difference.  A pair whose bootstrap
    variance is zero has t = 0 if its mean difference is zero (identical
    columns) and a signed 1e12 otherwise (constant dominance).  Ties in the
    elimination rule break lexicographically on model names.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if replicates < 100:
        raise ValueError(f"need at least 100 bootstrap replicates, got {replicates}")
    n_obs, n_models = panel.losses.shape
    if n_models < 1:
        raise ValueError("empty panel")
    if block_len is None:
        block_len = default_block_len(n_obs)
    if n_obs <= block_len:
        raise ValueError(f"panel length {n_obs} must exceed block length {block_len}")

    if n_models == 1:
        return McsResult(
            {panel.models[0]}, {panel.models[0]: 1.0}, alpha, replicates, block_len, []
        )

    indices = block_bootstrap_indices(n_obs, replicates, block_len, seed)
    boot_means = panel.losses[indices].mean(axis=1)  # (replicates, n_models)
    col_means = panel.losses.mean(axis=0)

    alive = list(range(n_models))
    p_values: dict[str, float] = {}
    elimination_order: list[str] = []
    running_max = 0.0
    while len(alive) > 1:
        range_stat = 0.0
        null_max = np.zeros(replicates)
        deficits = np.full(len(alive), -np.inf)
        for a_pos, a in enumerate(alive):
            for b_pos, b in enumerate(alive):
                if b <= a:
                    continue
                centered = (boot_means[:, a] - boot_means[:, b]) - (
                    col_means[a] - col_means[b]
                )
                var = float(np.mean(centered**2))
                mean = col_means[a] - col_means[b]
                if var < _DEGENERATE_VAR:
                    t_ab = 0.0 if mean == 0.0 else math.copysign(1e12, mean)
                else:
                    se = math.sqrt(var)
                    t_ab = mean / se
                    np.maximum(null_max, np.abs(centered) / se, out=null_max)
                range_stat = max(range_stat, abs(t_ab))
                deficits[a_pos] = max(deficits[a_pos], t_ab)
                deficits[b_pos] = max(deficits[b_pos], -t_ab)
        p_round = float(np.mean(null_max >= range_stat))
        running_max = max(running_max, p_round)
        worst = np.flatnonzero(deficits == deficits.max())
        out_pos = min(worst, key=lambda k: panel.models[alive[k]])
        out = alive.pop(out_pos)
        p_values[panel.models[out]] = running_max
        elimination_order.append(panel.models[out])
    p_values[panel.models[alive[0]]] = 1.0

    surviving = {name for name, p in p_values.items() if p >= alpha}
    return McsResult(surviving, p_values, alpha, replicates, block_len, elimination_order)


def regime_split(
    values: np.ndarray, dates: np.ndarray, threshold_quantile: float = 0.90
) -> tuple[np.ndarray, np.ndarray]:
    """Partition dates into (calm, turbulent) by strict quantile exceedance.

    Turbulent dates are those whose market-variance proxy strictly exceeds
    the empirical quantile; a constant series therefore has no turbulent
    dates.
    """
    values = np.asarray(values, dtype=float)
    dates = np.asarray(dates, dtype="datetime64[D]")
    if values.shape != dates.shape:
        raise DimensionMismatchError("values and dates must be equal length")
    if values.size == 0:
        raise ValueError("empty series")
    if not (0.0 < threshold_quantile < 1.0):
        raise ValueError(f"threshold_quantile must be in (0, 1), got {threshold_quantile}")
    if np.any(~np.isfinite(values)):
        raise ValueError("values must be finite")
    threshold = np.quantile(values, threshold_quantile)
    turbulent = values > threshold
    return dates[~turbulent], dates[turbulent]
