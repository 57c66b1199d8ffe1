"""Config-driven forecasting runs: data resolution, model roster, artifacts.

Each command but ``report`` (in :mod:`spdcast.config`) takes a :class:`RunConfig`,
writes its artifacts under the run's output directory, records a manifest
(config hash, seed, timestamp), and reports which requested artifacts
failed.  Forecast files are byte-reproducible given (config, seed) on a
fixed platform: all randomness flows from the run seed through named
per-model streams.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import logging
import math
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import favar_fit, favar_forecast
from .config import (METRIC_PROCRUSTES, REGIMES, ModelSpec, RunConfig, _manifest_path, _open_text,
                     _write_csv, _write_manifest)
from .data import (FORMAT_CSVLONG, FORMAT_MATBIN, HAR_MONTH, CovSeries, _day, build_geohar_inputs,
                   build_lagged_inputs, load_intraday_csv, load_series, procrustes_mean_counts,
                   realized_series, rolling_windows, save_series, simulate_market)
from .evaluation import LossPanel, McsResult, loss_panel, mcs, regime_split
from .exceptions import (ConfigError, DataFileError, NotPositiveDefiniteError, SeriesFormatError,
                         SpdcastError)
from .frechet import FrechetConfig
from .network import Network, NetworkSpec
from .optim import TrainConfig, TrainResult, train
from .portfolio import WeightPath, evaluate_portfolio, gmv_long_only, gmv_weights, naive_weights

__all__ = ["resolve_series", "run_model"]

log = logging.getLogger(__name__)

# ---------------------------------------------------------------------------
# Data resolution


def _model_seed(run_seed: int, model_name: str, fit_index: int = 0) -> int:
    mixed = np.random.SeedSequence([run_seed, zlib.crc32(model_name.encode()), fit_index])
    return int(mixed.generate_state(1)[0])


@contextmanager
def _reading(setting: str, path: Path):
    """Report an unreadable file, named by its ``[section] key``, as a :class:`DataFileError`."""
    try:
        yield
    except OSError as exc:
        raise DataFileError(f"{setting}: cannot read {path}: {exc.strerror or exc}") from exc


def resolve_series(cfg: RunConfig) -> tuple[CovSeries, np.ndarray | None, list[str]]:
    """Load or synthesize the covariance series; returns (series, daily returns, tickers)."""
    if cfg.source == "simulate":
        series, returns = simulate_market(
            cfg.sim_n, cfg.sim_days, cfg.sim_persistence, cfg.sim_df, cfg.seed
        )
        return series, returns, [f"A{i:02d}" for i in range(cfg.sim_n)]
    if cfg.source in (FORMAT_MATBIN, FORMAT_CSVLONG):
        with _reading("[data] path", cfg.data_path):
            series = load_series(cfg.data_path, cfg.source)
        returns, tickers = None, [f"A{i:02d}" for i in range(series.dim)]
        if cfg.returns_path is not None:
            returns, tickers = _returns_on(
                cfg.returns_path, series.dates, series.dim, lambda count, first: ConfigError(
                    f"[data] returns: no return row for date {first}"))
        return series, returns, tickers
    with _reading("[data] path", cfg.data_path):
        panel = load_intraday_csv(cfg.data_path, cfg.grid_seconds)
    series = realized_series(panel)
    daily = np.stack([r.sum(axis=0) for r in panel.returns])
    return series, daily, list(panel.tickers)


# The stage that writes data/series.matbin and data/returns.csv, per source.
_DATA_STAGES = {"simulate": "simulate", "intraday": "ingest"}
_SERIES_FILE = "data/series.matbin"
_RETURNS_FILE = "data/returns.csv"


def _data_key(cfg: RunConfig) -> str:
    """Digest of every input that shapes the data stage's series and returns."""
    if cfg.source == "simulate":
        inputs = [cfg.sim_n, cfg.sim_days, cfg.sim_persistence, cfg.sim_df, cfg.seed,
                  np.__version__]
    else:
        digest = hashlib.sha256()
        with _reading("[data] path", cfg.data_path), open(cfg.data_path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
        inputs = [cfg.grid_seconds, digest.hexdigest()]
    text = json.dumps([cfg.source, __version__, *inputs])
    return hashlib.sha256(text.encode()).hexdigest()


def _recorded_key(cfg: RunConfig, command: str) -> str | None:
    """The ``data_key`` in ``command``'s manifest; None if it records none."""
    try:
        return json.loads(_manifest_path(cfg, command).read_text()).get("data_key")
    except (OSError, ValueError, AttributeError):
        return None


def _stage_series(cfg: RunConfig) -> tuple[CovSeries, str, str | None]:
    """(series, where it came from, data key): a file source's series (key None), else the
    data stage's ``data/series.matbin`` if its manifest records the key of ``cfg``, else the
    series of that stage, run now."""
    if cfg.source not in _DATA_STAGES:
        return resolve_series(cfg)[0], cfg.source, None
    key = _data_key(cfg)
    files = [cfg.out_dir / _SERIES_FILE, cfg.out_dir / _RETURNS_FILE]
    if all(f.exists() for f in files) and _recorded_key(cfg, _DATA_STAGES[cfg.source]) == key:
        return load_series(files[0], FORMAT_MATBIN), _SERIES_FILE, key
    return _run_data_stage(cfg, key), cfg.source, key


def _write_dated_csv(path: Path, columns: list[str], dates: np.ndarray, values: np.ndarray,
                     fmt: str = "%.17g") -> None:
    """A ``date,<columns>`` file, each value formatted by ``fmt`` (17 significant digits).

    The header goes through csv, which quotes a ticker holding a comma; each
    row is one ``%`` template, ended like csv's rows with ``\r\n``.
    """
    row = "%s" + f",{fmt}" * len(columns) + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["date", *columns])
        fh.writelines(row % (d, *r) for d, r in zip(dates.astype(str), values.tolist()))


def _read_dated_csv(
    path: Path, what: str, columns: list[str] | None = None
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Dates, values and column names of a ``date,<columns>`` file of ``what``.

    ``columns`` are the names the file must have; None takes any (a returns
    file's tickers).  A malformed file, one holding a date that is not exactly
    its ISO day (:func:`~spdcast.data._day`), or a non-finite value, raises
    :class:`SeriesFormatError` naming ``path:line``.
    """
    with _open_text(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "date" or len(header) < 2 or (
            columns is not None and header[1:] != columns
        ):
            expected = ",".join(columns or ["<tickers>"])
            raise SeriesFormatError(f"{what} file {path}:1: expected header date,{expected}")
        dates, rows = [], []
        for lineno, rec in enumerate(reader, start=2):
            if len(rec) != len(header):
                raise SeriesFormatError(f"{what} file {path}:{lineno}: wrong field count")
            try:
                dates.append(_day(rec[0]))
                rows.append([float(x) for x in rec[1:]])
                for text, value in zip(rec[1:], rows[-1]):
                    if not math.isfinite(value):
                        raise ValueError(f"non-finite value {text!r}")
            except ValueError as exc:
                raise SeriesFormatError(f"{what} file {path}:{lineno}: {exc}") from None
    return np.array(dates, dtype="datetime64[D]"), np.asarray(rows), header[1:]


def _returns_on(path: Path, dates: np.ndarray, dim: int, missing) -> tuple[np.ndarray, list[str]]:
    """The rows of the returns file ``path`` on ``dates`` (see :func:`_rows_of`
    for ``missing``), and its tickers; the file must hold ``dim`` assets."""
    with _reading("[data] returns", path):
        rdates, returns, tickers = _read_dated_csv(path, "returns")
    if len(tickers) != dim:
        raise ConfigError(f"[data] returns: {path} has {len(tickers)} asset columns; "
                          f"the series has {dim}")
    return returns[_rows_of(rdates, dates, missing)], tickers


def _rows_of(dates: np.ndarray, wanted: np.ndarray, missing=None) -> np.ndarray:
    """The row of each wanted date in ``dates`` (of a repeated date, the last).

    If ``dates`` lacks some, raises ``missing(count, first absent date)``;
    None when every wanted date is known to be there.
    """
    absent = wanted[~np.isin(wanted, dates)]
    if len(absent):
        raise missing(len(absent), absent[0])
    order = np.argsort(dates, kind="stable")
    return order[np.searchsorted(dates[order], wanted, side="right") - 1]


# ---------------------------------------------------------------------------
# Forecasters


class _Forecaster:
    """One model's fit/predict protocol over rolling windows.

    ``fit(series, train_slice, seed)`` fits on one window; a fit serves the
    windows up to the model's next scheduled refit, every ``refit_every``
    windows (None: the run's ``[forecast] refit_every``; 0: never).
    ``predict_many(series, start, stop)`` returns the ``(stop - start, n, n)``
    forecasts of the current fit for the positions ``[start, stop)``.  ``fits``
    holds the :class:`TrainResult` of each trained fit, in fit order, and
    ``record(series)`` is the model's manifest ``training`` record.
    """

    min_history: int
    refit_every: int | None = None

    def __init__(self, cfg: RunConfig):
        self.run_cfg = cfg
        self.fits: list[TrainResult] = []

    def fit(self, series: CovSeries, train_slice: slice, seed: int) -> None:
        pass

    def record(self, series: CovSeries) -> dict[str, int]:
        return {}


class _RwForecaster(_Forecaster):
    min_history = 1

    def predict_many(self, series: CovSeries, start: int, stop: int):
        return series.data[start - 1 : stop - 1]


class _FavarForecaster(_Forecaster):
    refit_every = 1  # so a span to predict is the one date ``start``

    def __init__(self, cfg: RunConfig, factors: int | None = None):
        super().__init__(cfg)
        self.factors = factors  # None: favar_fit's default count, at least 1
        # A fit needs more than factors + 1 training days.
        self.min_history = (factors or 1) + 1
        self.model = None
        self.reductions = 0  # fits whose sample's rank cut the factor count

    def fit(self, series: CovSeries, train_slice: slice, seed: int) -> None:
        self.model = favar_fit(series, self.factors, train_slice)
        self.reductions += self.model.reduced_from is not None

    def record(self, series: CovSeries) -> dict[str, int]:
        return {"factor_reductions": self.reductions} if self.reductions else {}

    def predict_many(self, series: CovSeries, start: int, stop: int):
        return favar_forecast(self.model, series, start).data[None]


# Test dates per stacked forward pass: bounds the trace's memory on long panels.
_PREDICT_CHUNK = 64


class _NetForecaster(_Forecaster):
    """A network on block-diagonal inputs from one public builder per kind,
    ``_build_supervised(series, span)``, whose pairs target the positions
    ``[span.start + min_history, span.stop)``: a window's training pairs, or a forecast chunk."""

    def __init__(self, cfg: RunConfig, loss: str):
        super().__init__(cfg)
        self.loss = loss

    def fit(self, series: CovSeries, train_slice: slice, seed: int) -> None:
        cfg = self.run_cfg
        n = series.dim
        supervised = self._build_supervised(series, train_slice)
        input_dim = supervised.inputs.shape[-1]
        if cfg.hidden is None:
            spec = NetworkSpec.default(input_dim, n, cfg.eps_rectify)
        else:
            spec = NetworkSpec(input_dim, (*cfg.hidden, n), cfg.eps_rectify)
        net = Network.init_random(spec, seed)
        tc = TrainConfig(
            learning_rate=cfg.learning_rate,
            epochs=cfg.epochs,
            batch_size=cfg.batch_size,
            loss=self.loss,
            seed=seed,
            eig_gap_floor=cfg.eig_gap_floor,
            lr_decay=cfg.lr_decay,
        )
        self.fits.append(train(net, supervised.inputs, supervised.targets, tc))

    def record(self, series: CovSeries) -> dict[str, int]:
        return {"fits": len(self.fits),
                "gap_clamps": sum(f.gap_clamp_count for f in self.fits),
                "floored_targets": sum(f.floored_target_count for f in self.fits)}

    def predict_many(self, series: CovSeries, start: int, stop: int):
        """Build the inputs and forward them as stacks of up to ``_PREDICT_CHUNK`` dates."""
        data = np.empty((stop - start, series.dim, series.dim))
        for lo in range(start, stop, _PREDICT_CHUNK):
            hi = min(lo + _PREDICT_CHUNK, stop)
            inputs = self._build_supervised(series, slice(lo - self.min_history, hi)).inputs
            data[lo - start : hi - start] = self.fits[-1].network.forward_trace(inputs).output
        return data


class _RespdnetForecaster(_NetForecaster):
    def __init__(self, cfg: RunConfig, lags: int, loss: str):
        super().__init__(cfg, loss)
        self.lags = self.min_history = lags

    def _build_supervised(self, series: CovSeries, span: slice):
        return build_lagged_inputs(series[span], self.lags)


class _GeoharForecaster(_NetForecaster):
    min_history = HAR_MONTH

    def __init__(self, cfg: RunConfig, metric: str, loss: str):
        super().__init__(cfg, loss)
        self.frechet_cfg = FrechetConfig(metric=metric)

    def _build_supervised(self, series: CovSeries, span: slice):
        return build_geohar_inputs(series, self.frechet_cfg, train=span)

    def record(self, series: CovSeries) -> dict[str, int]:
        record = super().record(series)
        if self.frechet_cfg.metric == METRIC_PROCRUSTES:
            record.update(procrustes_mean_counts(series, self.frechet_cfg))
        return record


# The forecaster class of each kind of config._KINDS.
_FORECASTERS = {"rw": _RwForecaster, "favar": _FavarForecaster,
                "respdnet": _RespdnetForecaster, "geohar": _GeoharForecaster}


@dataclass
class ModelRunResult:
    name: str
    predictions: CovSeries | None  # None: no date was forecast
    failures: list[tuple[str, str]]
    traces: list[TrainResult]
    training: dict[str, int]  # the manifest's training record; empty: none

    @property
    def dates(self) -> np.ndarray:
        return np.array([], "datetime64[D]") if self.predictions is None else self.predictions.dates


def run_model(spec: ModelSpec, cfg: RunConfig, series: CovSeries) -> ModelRunResult:
    """All rolling one-step forecasts for one model.

    A fit on window s serves windows s up to the model's next scheduled
    refit, ``s - s % every + every`` (every ``cfg.refit_every`` windows, 0 =
    never, unless the model sets its own ``refit_every``), and those dates
    are predicted together, so a network forwards them as stacks.  A failed
    fit fails its own window and is retried on the next.  A date whose
    forecast the one stacked check of all of them rejects is dropped;
    failures are recorded and logged in date order.
    """
    forecaster = _FORECASTERS[spec.kind](cfg, **spec.params)
    if cfg.window <= forecaster.min_history:
        raise ConfigError(
            f"[forecast] window: {cfg.window} leaves no training pairs for model "
            f"{spec.name!r} (needs more than {forecaster.min_history})"
        )
    every = cfg.refit_every if forecaster.refit_every is None else forecaster.refit_every
    windows = list(rolling_windows(series, cfg.window))
    dates = series.dates[cfg.window :]
    forecasts = np.full((len(windows), series.dim, series.dim), np.nan)
    errors: dict[int, str] = {}  # by row: why its fit failed
    s = 0
    while s < len(windows):
        train_slice, t = windows[s]
        try:
            forecaster.fit(series, train_slice,
                           _model_seed(cfg.seed, spec.name, len(forecaster.fits)))
        except SpdcastError as exc:
            errors[s] = f"fit: {exc}"
            s += 1
            continue
        stop = len(windows) if every == 0 else min(s - s % every + every, len(windows))
        forecasts[s:stop] = forecaster.predict_many(series, t, t + stop - s)
        s = stop
    # One stacked check of every row, as SpdMatrix checks one matrix: a
    # forecast that is not a finite PSD matrix fails its own date.
    predictions, rejected = CovSeries.accepted(dates, forecasts)
    failures = []
    for k, exc in rejected.items():
        failures.append((str(dates[k]), errors.get(k, str(exc))))
        log.warning("model %s failed at %s: %s", spec.name, *failures[-1])
    training = forecaster.record(series)
    if training.get("factor_reductions"):
        log.warning("model %s: the sample's rank cut the factor count of %d fits", spec.name,
                    training["factor_reductions"])
    return ModelRunResult(spec.name, predictions, failures, forecaster.fits, training)


# ---------------------------------------------------------------------------
# Commands


def _run_data_stage(cfg: RunConfig, key: str) -> CovSeries:
    """Write the series and returns, then a manifest with their inputs' ``key``.

    The only writer of ``data/series.matbin``, ``data/returns.csv`` and a
    data-stage manifest, named by ``cfg.source``.  Every data-stage manifest
    goes first, so a key vouches only for files its own stage wrote, and an
    interrupted stage never leaves a matching key beside partly written files.
    """
    for stage in _DATA_STAGES.values():
        _manifest_path(cfg, stage).unlink(missing_ok=True)
    series, returns, tickers = resolve_series(cfg)
    (cfg.out_dir / "data").mkdir(parents=True, exist_ok=True)
    save_series(series, cfg.out_dir / _SERIES_FILE, FORMAT_MATBIN)
    _write_dated_csv(cfg.out_dir / _RETURNS_FILE, tickers, series.dates, returns)
    command = _DATA_STAGES[cfg.source]
    _write_manifest(cfg, command, {"series": _SERIES_FILE, "returns": _RETURNS_FILE}, data_key=key)
    log.info("%s: %d days of %dx%d covariances over tickers %s", command, len(series),
             series.dim, series.dim, ",".join(tickers))
    return series


def cmd_simulate(cfg: RunConfig) -> int:
    """Materialize a synthetic covariance series and its daily returns."""
    if cfg.source != "simulate":
        raise ConfigError("[data] source: cmd_simulate requires source = simulate")
    _run_data_stage(cfg, _data_key(cfg))
    return 0


def cmd_ingest(cfg: RunConfig) -> int:
    """Intraday prices to realized covariances plus daily returns."""
    if cfg.source != "intraday":
        raise ConfigError("[data] source: cmd_ingest requires source = intraday")
    _run_data_stage(cfg, _data_key(cfg))
    return 0


def cmd_train_forecast(cfg: RunConfig) -> int:
    """Fit the roster and emit aligned one-step forecasts per model.

    Artifacts: ``data/realized.matbin`` (test-date truth), one
    ``forecasts/<model>.matbin`` per model, per-fit loss traces, a failure
    log, and the manifest, whose ``training`` record counts each network
    model's fits, eigenvalue-gap clamps and floor-projected targets, a
    Procrustes GeoHAR model's means, their fixed-point iterations and
    unconverged means, and a FAVAR model's fits with fewer factors than it
    asked for.  The series comes from :func:`_stage_series`, and the
    manifest's ``data_key`` is its data stage's key (None for a file
    source), which ``portfolio`` checks before reading the stage's returns.
    Returns nonzero iff a requested model produced no forecasts at all.
    """
    series, series_from, key = _stage_series(cfg)
    log.info("series of %d days from %s", len(series), series_from)
    if cfg.window >= len(series):
        raise ConfigError(
            f"[forecast] window: {cfg.window} must be below the series length "
            f"{len(series)}"
        )
    out = cfg.out_dir
    for sub in ("forecasts", "data", "train"):
        (out / sub).mkdir(parents=True, exist_ok=True)

    realized = series[cfg.window :]
    save_series(realized, out / "data" / "realized.matbin", FORMAT_MATBIN)

    if cfg.workers > 1 and len(cfg.roster) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(cfg.workers, len(cfg.roster))) as pool:
            results = list(pool.map(run_model, cfg.roster, repeat(cfg), repeat(series)))
    else:
        results = [run_model(spec, cfg, series) for spec in cfg.roster]

    artifacts: dict[str, str] = {"realized": "data/realized.matbin"}
    failure_rows: list[tuple[str, str, str]] = []
    for result in results:
        for date, reason in result.failures:
            failure_rows.append((result.name, date, reason))
        if result.predictions is None:
            log.error("model %s produced no forecasts", result.name)
            continue
        save_series(result.predictions, out / "forecasts" / f"{result.name}.matbin", FORMAT_MATBIN)
        artifacts[result.name] = f"forecasts/{result.name}.matbin"
        for fit_index, trained in enumerate(result.traces):
            epochs = np.column_stack([trained.epoch_losses, trained.grad_norms,
                                      trained.min_eig_gaps])
            _write_csv(out / "train" / f"{result.name}_fit{fit_index}.csv",
                       ["epoch", "mean_loss", "grad_norm", "min_eig_gap"],
                       ([i, *(f"{x:.17g}" for x in row)] for i, row in enumerate(epochs)))
    if failure_rows:
        _write_csv(out / "train" / "failures.csv", ["model", "date", "reason"], failure_rows)
        log.warning("%d window failures recorded", len(failure_rows))
    _write_manifest(cfg, "train-forecast", artifacts, series_from=series_from,
                    training={r.name: r.training for r in results if r.training},
                    data_key=key)
    return 1 if any(result.predictions is None for result in results) else 0


def _load_forecasts(cfg: RunConfig) -> tuple[dict[str, CovSeries], CovSeries]:
    """Each model's forecast series and the realized series, on the dates all of them hold."""
    realized_path = cfg.out_dir / "data" / "realized.matbin"
    if not realized_path.exists():
        raise ConfigError(f"no realized series at {realized_path}; run train-forecast first")
    realized = load_series(realized_path, FORMAT_MATBIN)
    forecasts: dict[str, CovSeries] = {}
    for spec in cfg.roster:
        path = cfg.out_dir / "forecasts" / f"{spec.name}.matbin"
        if not path.exists():
            log.warning("no forecasts for model %s at %s; dropping it", spec.name, path)
            continue
        forecasts[spec.name] = load_series(path, FORMAT_MATBIN)
    if not forecasts:
        raise ConfigError("no forecast files found; run train-forecast first")
    common_dates = functools.reduce(np.intersect1d, (f.dates for f in forecasts.values()),
                                    realized.dates)
    if not len(common_dates):
        raise ConfigError("forecast files share no common dates")
    for name, forecast in forecasts.items():
        dropped = len(forecast) - len(common_dates)
        if dropped:
            log.info("model %s: %d dates outside the common panel", name, dropped)
        forecasts[name] = forecast[_rows_of(forecast.dates, common_dates)]
    return forecasts, realized[_rows_of(realized.dates, common_dates)]


def _write_loss_table(path: Path, panel: LossPanel, result: McsResult) -> None:
    """Average losses and the MCS."""
    order = {name: i for i, name in enumerate(result.elimination_order)}
    means = panel.losses.mean(axis=0)
    _write_csv(
        path,
        ["model", "avg_loss", "mcs_pvalue", "in_ssm", "eliminated_rank"],
        ([name, f"{means[i]:.17g}", f"{result.p_values[name]:.6g}",
          int(name in result.surviving), order.get(name, "")]
         for i, name in enumerate(panel.models)),
    )


def cmd_evaluate(cfg: RunConfig) -> int:
    """Score forecasts per metric, run the confidence set, split by regime."""
    forecasts, realized = _load_forecasts(cfg)
    eval_dir = cfg.out_dir / "eval"
    eval_dir.mkdir(parents=True, exist_ok=True)

    if cfg.market_variance == "trace":
        proxy = np.trace(realized.data, axis1=1, axis2=2)
    else:
        proxy_path = Path(cfg.market_variance)
        if not proxy_path.exists():
            raise ConfigError(
                f"[evaluate] market_variance: expected 'trace' or a CSV path, "
                f"got {cfg.market_variance!r}"
            )
        with _reading("[evaluate] market_variance", proxy_path):
            dates, values, _ = _read_dated_csv(proxy_path, "market_variance", ["value"])
        proxy = values[_rows_of(dates, realized.dates, lambda count, first: ConfigError(
            f"[evaluate] market_variance: {count} evaluation dates missing "
            f"from {proxy_path} (first: {first})")), 0]

    _, turbulent = regime_split(proxy, realized.dates, cfg.regime_quantile)
    turbulent_days = np.isin(realized.dates, turbulent)
    _write_dated_csv(eval_dir / "regime_labels.csv", ["label"], realized.dates,
                     np.where(turbulent_days, "turbulent", "calm")[:, None], "%s")

    # A metric with a day it cannot score (no logarithm) fails once the others are written.
    panels, unscored = {}, []
    for metric in cfg.metrics:
        try:
            panels[metric] = loss_panel(forecasts, realized, metric)
        except NotPositiveDefiniteError as exc:
            unscored.append(exc)
    # All days, then each regime: one mcs call ranks every metric on its dates.
    regimes = {}
    for (suffix, _), days in zip(REGIMES, (np.ones_like(turbulent_days), ~turbulent_days,
                                           turbulent_days)):
        if not days.any():
            log.info("regime %s is empty", suffix[1:])
        elif panels:
            subs = [LossPanel(list(p.models), p.dates[days], p.losses[days])
                    for p in panels.values()]
            regimes[suffix] = list(zip(subs, mcs(subs, cfg.alpha, cfg.replicates, cfg.block_len,
                                                 cfg.seed)))
    artifacts = {"regime_labels": "eval/regime_labels.csv"}
    for i, metric in enumerate(panels):
        for suffix, scored in regimes.items():
            name = f"losses_{metric}{suffix}"
            _write_loss_table(eval_dir / f"{name}.csv", *scored[i])
            artifacts[name] = f"eval/{name}.csv"
    _write_manifest(cfg, "evaluate", artifacts)
    if unscored:
        raise unscored[0]
    return 0


def _portfolio_returns_matrix(cfg: RunConfig, dates: np.ndarray, dim: int) -> np.ndarray:
    """Daily returns of ``dim`` assets on ``dates``: the ``[data] returns`` file
    if set, else the data stage's ``data/returns.csv`` (sources ``simulate`` and
    ``intraday``), if that stage's ``data_key`` is the one the forecasts
    were made from."""
    path = cfg.returns_path
    if path is None and cfg.source in _DATA_STAGES and (cfg.out_dir / _RETURNS_FILE).exists():
        path = cfg.out_dir / _RETURNS_FILE
        key = _recorded_key(cfg, _DATA_STAGES[cfg.source])
        if key is None or key != _recorded_key(cfg, "train-forecast"):
            raise ConfigError(f"{path} is not from the data stage the forecasts were made "
                              "from; rerun train-forecast")
    if path is None:
        raise ConfigError(
            "no daily returns available: set [data] returns or run a source that "
            "produces data/returns.csv"
        )
    return _returns_on(path, dates, dim, lambda count, first: ConfigError(
        f"returns file {path} is missing {count} forecast dates (first: {first})"))[0]


def cmd_portfolio(cfg: RunConfig) -> int:
    """Weight paths and the volatility/turnover report per model."""
    if not cfg.portfolio_enabled:
        log.info("portfolio disabled in config; nothing to do")
        return 0
    forecasts, realized = _load_forecasts(cfg)
    if len(realized) < 2:
        raise ConfigError(f"[forecast] window: the forecast files share {len(realized)} date; "
                          "a portfolio needs at least two")
    returns = _portfolio_returns_matrix(cfg, realized.dates, realized.dim)
    port_dir = cfg.out_dir / "portfolio"
    port_dir.mkdir(parents=True, exist_ok=True)

    # Per variant, the (dates, assets) weights of a forecast series.
    variants = [("gmv", gmv_weights)]
    if cfg.portfolio_long_only:
        variants.append(("gmv_long", gmv_long_only))

    rows = []
    artifacts = {}
    for model, forecast in forecasts.items():
        for variant, builder in variants:
            weights = builder(forecast)
            path = WeightPath(realized.dates, weights)
            report = evaluate_portfolio(path, returns)
            rows.append((model, variant, report.annualized_std, report.avg_turnover))
            name = f"weights_{model}_{variant}"
            _write_dated_csv(port_dir / f"{name}.csv", [f"w_{i}" for i in range(weights.shape[1])],
                             realized.dates, weights)
            artifacts[name] = f"portfolio/{name}.csv"
    naive = np.tile(naive_weights(realized.dim), (len(realized.dates), 1))
    naive_report = evaluate_portfolio(WeightPath(realized.dates, naive), returns)
    rows.append(("naive", "static", naive_report.annualized_std, naive_report.avg_turnover))

    _write_csv(
        port_dir / "report.csv",
        ["model", "portfolio_type", "sigma_p", "tau_p"],
        ([model, variant, f"{sigma:.17g}", f"{tau:.17g}"] for model, variant, sigma, tau in rows),
    )
    artifacts["report"] = "portfolio/report.csv"
    _write_manifest(cfg, "portfolio", artifacts)
    return 0
