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

import itertools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .data import CovSeries, _series_roots
from .exceptions import DimensionMismatchError
from .spd import (
    euclidean_losses,
    frobenius_losses,
    log_euclidean_losses,
    logm_stack,
    procrustes_losses,
)

__all__ = [
    "METRICS",
    "LossPanel",
    "McsResult",
    "loss_panel",
    "block_bootstrap_indices",
    "mcs",
    "regime_split",
]


def _logs(series: CovSeries) -> tuple[np.ndarray, dict]:
    return logm_stack(series.values, series.vectors)


# Per metric: the (B, n, n) stack a series is scored on, and the spd kernel
# giving each pair of slices its spd.dist_<metric>, bit for bit.
_METRIC_KERNELS = {
    "frobenius": (lambda series: series.data, frobenius_losses),
    "euclidean": (lambda series: series.data, euclidean_losses),
    "procrustes": (lambda series: series.stack(_series_roots), procrustes_losses),
    "log_euclidean": (lambda series: series.stack(_logs), log_euclidean_losses),
}
METRICS = tuple(_METRIC_KERNELS)

# Below this, a bootstrap variance is treated as exactly degenerate.
_DEGENERATE_VAR = 1e-300


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


def loss_panel(forecasts: Mapping[str, CovSeries], realized: CovSeries, metric: str) -> LossPanel:
    """Score each model's forecast series against the realized series, on its dates.

    Works on the series' stacks: the realized stack is built once and
    shared by every model.  Each loss equals
    ``spd.dist_<metric>(forecasts[model][t], realized[t])`` bit for bit.
    """
    if metric not in _METRIC_KERNELS:
        raise ValueError(f"unknown metric {metric!r}, expected one of {METRICS}")
    for model, forecast in forecasts.items():
        if not np.array_equal(forecast.dates, realized.dates):
            raise ValueError(f"forecasts of {model!r} are misaligned with the realized dates")
    stack, losses_of = _METRIC_KERNELS[metric]
    real = stack(realized)
    losses = np.zeros((len(realized), len(forecasts)))
    for j, forecast in enumerate(forecasts.values()):
        losses[:, j] = losses_of(stack(forecast), real)
    return LossPanel(list(forecasts), realized.dates, losses)


def block_bootstrap_indices(
    n_obs: int, replicates: int, block_len: int, seed: int | np.random.Generator
) -> np.ndarray:
    """Circular block bootstrap index matrix of shape (replicates, n_obs).

    :func:`mcs` does not build it; it is the definition its bootstrap means
    are tested against.
    """
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


# Block sums gathered per chunk of replicates: at most this many elements
# per gathered array, so memory does not grow with replicates x observations.
_CHUNK_ELEMENTS = 1 << 18


def _centered_bootstrap_means(
    losses: np.ndarray, replicates: int, block_len: int, seed: int
) -> np.ndarray:
    """Column means of each circular block bootstrap replicate less the panel's, (replicates, models).

    The replicates are those of :func:`block_bootstrap_indices` (the same
    block starts, drawn from the same generator), but no index matrix is
    built: a block's sum is a difference of prefix sums over the centred
    panel stacked twice, the last block cut to the rows left.  Centring keeps
    the prefix sums near ``sqrt(T)`` standard deviations, not ``T`` means, so
    their differences lose little to cancellation.  The means agree with the
    gathered ones to round-off, not bit for bit.
    """
    n_obs, n_models = losses.shape
    rng = np.random.default_rng(seed)
    n_blocks = -(-n_obs // block_len)
    centered = losses - losses.mean(axis=0)
    prefix = np.zeros((2 * n_obs + 1, n_models))
    np.cumsum(np.concatenate([centered, centered]), axis=0, out=prefix[1:])
    lengths = np.full(n_blocks, block_len)
    lengths[-1] = n_obs - (n_blocks - 1) * block_len
    means = np.empty((replicates, n_models))
    chunk = max(1, _CHUNK_ELEMENTS // (n_blocks * n_models))
    for lo in range(0, replicates, chunk):
        # Consecutive draws from one generator: the rows one call would give.
        starts = rng.integers(0, n_obs, size=(min(chunk, replicates - lo), n_blocks))
        block_sums = prefix[starts + lengths] - prefix[starts]
        means[lo : lo + len(starts)] = block_sums.sum(axis=1) / n_obs
    return means


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

    One set of centred circular block bootstrap means
    (:func:`_centered_bootstrap_means`) is drawn up front and shared by every
    round, both for the null distribution of the range statistic and for the
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

    boot_means = _centered_bootstrap_means(panel.losses, replicates, block_len, seed)
    col_means = panel.losses.mean(axis=0)

    # Each pair's t[a, b] = -t[b, a] and scaled deviations |centered| / se once;
    # a round's null draws are the maxima over its surviving pairs.
    t = np.zeros((n_models, n_models))
    scaled: dict[tuple[int, int], np.ndarray] = {}
    for a, b in itertools.combinations(range(n_models), 2):
        centered = boot_means[:, a] - boot_means[:, b]
        var = float(np.mean(centered**2))
        mean = col_means[a] - col_means[b]
        if var < _DEGENERATE_VAR:
            t_ab = 0.0 if mean == 0.0 else math.copysign(1e12, mean)
        else:
            se = math.sqrt(var)
            t_ab = mean / se
            scaled[a, b] = np.abs(centered) / se
        t[a, b], t[b, a] = t_ab, -t_ab

    alive = list(range(n_models))
    p_values: dict[str, float] = {}
    elimination_order: list[str] = []
    running_max = 0.0
    while len(alive) > 1:
        t_alive = t[np.ix_(alive, alive)]
        range_stat = float(np.abs(t_alive).max())
        null_max = np.zeros(replicates)
        for pair in itertools.combinations(alive, 2):
            if pair in scaled:
                np.maximum(null_max, scaled[pair], out=null_max)
        np.fill_diagonal(t_alive, -np.inf)
        deficits = t_alive.max(axis=1)
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
