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
from typing import Mapping, Sequence

import numpy as np

from .config import METRICS
from .data import CovSeries, _series_roots
from .exceptions import DimensionMismatchError, NotPositiveDefiniteError
from .spd import (
    _log_domain_error,
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
    "default_block_len",
    "mcs",
    "regime_split",
]


def _logs(series: CovSeries) -> np.ndarray:
    return logm_stack(series.values, series.vectors)


# Per metric of METRICS: the series kernel of the (B, n, n) stack a series is scored on
# (None: its matrices), and the spd kernel giving each pair of slices its spd.dist_<metric>.
_METRIC_KERNELS = {
    "frobenius": (None, frobenius_losses),
    "euclidean": (None, euclidean_losses),
    "procrustes": (_series_roots, procrustes_losses),
    "log_euclidean": (_logs, log_euclidean_losses),
}

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
    ``spd.dist_<metric>(forecasts[model][t], realized[t])`` bit for bit.  The error of a
    matrix the metric cannot score names the metric, the series and the date.
    """
    if metric not in _METRIC_KERNELS:
        raise ValueError(f"unknown metric {metric!r}, expected one of {METRICS}")
    for model, forecast in forecasts.items():
        if not np.array_equal(forecast.dates, realized.dates):
            raise ValueError(f"forecasts of {model!r} are misaligned with the realized dates")
    kernel, losses_of = _METRIC_KERNELS[metric]

    def stack(name: str, series: CovSeries) -> np.ndarray:
        built = series.data if kernel is None else series.stack(kernel)
        failed = np.flatnonzero(np.isnan(built).any(axis=(1, 2)))  # logarithms of singular days
        if len(failed):
            t = failed[0]
            raise NotPositiveDefiniteError(f"{metric} loss of {name} on {series.dates[t]}: "
                                           f"{_log_domain_error(series.values[t, -1])}")
        return built
    real = stack("realized", realized)
    losses = np.zeros((len(realized), len(forecasts)))
    for j, (model, forecast) in enumerate(forecasts.items()):
        losses[:, j] = losses_of(stack(model, forecast), real)
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
    rng = np.random.default_rng(seed)
    n_blocks = -(-n_obs // block_len)
    starts = rng.integers(0, n_obs, size=(replicates, n_blocks))
    offsets = np.arange(block_len)
    idx = (starts[:, :, None] + offsets[None, None, :]) % n_obs
    return idx.reshape(replicates, n_blocks * block_len)[:, :n_obs]


# Block sums gathered per chunk of replicates: at most this many elements
# per gathered array, so memory does not grow with replicates x observations.
_CHUNK_ELEMENTS = 1 << 16


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
    panels: LossPanel | Sequence[LossPanel],
    alpha: float = 0.25,
    replicates: int = 10_000,
    block_len: int | None = None,
    seed: int = 0,
) -> McsResult | list[McsResult]:
    """Model confidence set by iterated elimination under the range statistic.

    One set of centred circular block bootstrap means
    (:func:`_centered_bootstrap_means`) is drawn up front and shared by every
    round, both for the null distribution of the range statistic and for the
    variance of each pairwise mean difference.  A pair whose bootstrap
    variance is zero has t = 0 if its mean difference is zero (identical
    columns) and a signed 1e12 otherwise (constant dominance).  Ties in the
    elimination rule break lexicographically on model names.

    Several panels on one date set (the metrics of one regime) draw the same
    block starts, so a sequence of them is drawn once over all their
    columns, and the list of their results equals that of one call each.
    Panels within one block (``len(dates) <= block_len``) draw nothing and, like
    a one-model panel, keep every model at p = 1 with no elimination order.
    """
    single = isinstance(panels, LossPanel)
    panels = [panels] if single else list(panels)
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if replicates < 100:
        raise ValueError(f"need at least 100 bootstrap replicates, got {replicates}")
    if not panels or any(not panel.models for panel in panels):
        raise ValueError("empty panel")
    dates = panels[0].dates
    if any(not np.array_equal(panel.dates, dates) for panel in panels):
        raise ValueError("the panels of one mcs call must share their dates")
    n_obs = len(dates)
    if block_len is None:
        block_len = default_block_len(n_obs)
    if block_len < 1:
        raise ValueError(f"block_len must be >= 1, got {block_len}")

    # A one-model panel, or panels within one block, take no columns: every model at p = 1.
    widths = [len(panel.models) if len(panel.models) > 1 and n_obs > block_len else 0
              for panel in panels]
    drawn = [panel.losses for panel, width in zip(panels, widths) if width]
    boot_means = (_centered_bootstrap_means(np.hstack(drawn), replicates, block_len, seed)
                  if drawn else np.empty((replicates, 0)))
    edges = np.cumsum([0, *widths])
    results = [_eliminate(panel, boot_means[:, lo:hi], alpha, replicates, block_len)
               for panel, lo, hi in zip(panels, edges, edges[1:])]
    return results[0] if single else results


def _eliminate(panel: LossPanel, boot_means: np.ndarray, alpha: float, replicates: int,
               block_len: int) -> McsResult:
    """:func:`mcs` of one panel, given its bootstrap-mean columns (none: all at p = 1)."""
    if not boot_means.shape[1]:
        return McsResult(set(panel.models), dict.fromkeys(panel.models, 1.0), alpha, replicates,
                         block_len, [])
    n_models = len(panel.models)
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
