"""Config-driven forecasting runs: data resolution, model roster, artifacts.

Every command takes a :class:`RunConfig` parsed from an INI-style file,
writes its artifacts under the run's output directory, records a manifest
(config hash, seed, timestamp), and reports which requested artifacts
failed.  Forecast files are byte-reproducible given (config, seed) on a
fixed platform: all randomness flows from the run seed through named
per-model streams.
"""

from __future__ import annotations

import configparser
import csv
import functools
import hashlib
import json
import logging
import time
import zlib
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .baselines import favar_fit, favar_forecast
from .data import (
    FORMAT_CSVLONG,
    FORMAT_MATBIN,
    CovSeries,
    _open_text,
    blockdiag_spd,
    build_geohar_inputs,
    build_lagged_inputs,
    har_input,
    load_intraday_csv,
    load_series,
    realized_series,
    rolling_windows,
    save_series,
    simulate_market,
)
from .evaluation import (
    METRICS,
    LossPanel,
    McsResult,
    default_block_len,
    loss_panel,
    mcs,
    regime_split,
)
from .exceptions import ConfigError, DataFileError, SeriesFormatError, SpdcastError
from .frechet import METRIC_LOG_EUCLIDEAN, METRIC_PROCRUSTES, FrechetConfig
from .network import Network, NetworkSpec
from .optim import LOSS_LOG_EUCLIDEAN, LOSS_MSE, TrainConfig, TrainResult, train
from .portfolio import (
    WeightPath,
    evaluate_portfolio,
    gmv_long_only,
    gmv_weights,
    naive_weights,
)
from .spd import SpdMatrix

log = logging.getLogger(__name__)

_SHORT = {"log_euclidean": "le", "mse": "mse", "procrustes": "pro"}


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    name: str
    params: dict


@dataclass
class RunConfig:
    seed: int
    out_dir: Path
    workers: int
    source: str
    data_path: Path | None
    sim_n: int
    sim_days: int
    sim_persistence: float
    sim_df: int
    returns_path: Path | None
    grid_seconds: int
    roster: list[ModelSpec]
    window: int
    refit_every: int
    epochs: int
    batch_size: int
    learning_rate: float
    lr_decay: float
    eps_rectify: float
    eig_gap_floor: float
    hidden: tuple[int, ...] | None
    metrics: list[str]
    alpha: float
    replicates: int
    block_len: int | None
    regime_quantile: float
    market_variance: str
    portfolio_enabled: bool
    portfolio_long_only: bool
    raw_text: str = field(repr=False, default="")

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.raw_text.encode()).hexdigest()


class _Invalid(ValueError):
    """A bad config value; :func:`load_config` reports it as ``[section] key: <message>``."""


def _parser(convert, problem: str):
    """Parse with ``convert``; a value it rejects is ``problem``, formatted with the value."""

    def parse(raw: str):
        try:
            return convert(raw)
        except (KeyError, ValueError):
            raise _Invalid(problem.format(raw)) from None

    return parse


_FLAGS = {"true": True, "yes": True, "1": True, "on": True,
          "false": False, "no": False, "0": False, "off": False}
_INT = _parser(int, "expected an integer, got {!r}")
_REAL = _parser(float, "expected a number, got {!r}")
_FLAG = _parser(lambda raw: _FLAGS[raw.strip().lower()], "expected a boolean, got {!r}")


def _auto_or_int(raw: str) -> int | None:
    return None if raw == "auto" else int(raw)


_AUTO_OR_INT = _parser(_auto_or_int, "expected 'auto' or an integer, got {!r}")


def _hidden(raw: str) -> tuple[int, ...] | None:
    if raw == "auto":
        return None
    try:
        dims = tuple(int(x) for x in raw.split(",") if x.strip())
    except ValueError:
        raise _Invalid(f"expected 'auto' or comma-separated integers, got {raw!r}") from None
    if not dims or any(h < 1 for h in dims):
        raise _Invalid(f"dims must be positive, got {raw!r}")
    return dims


def _metric_list(raw: str) -> list[str]:
    names = [m.strip() for m in raw.split(",") if m.strip()]
    for m in names:
        if m not in METRICS:
            raise _Invalid(f"unknown metric {m!r} (known: {METRICS})")
    return names


def _at_least(low):
    return lambda v: None if v is None or v >= low else f"must be >= {low}, got {v}"


def _positive(v: float) -> str | None:
    return None if v > 0.0 else f"must be > 0, got {v}"


def _in_open_unit(v: float) -> str | None:
    return None if 0.0 < v < 1.0 else f"must be in (0, 1), got {v}"


def _value(raw: str | None, parse, check):
    """``raw`` parsed (None stays None) and checked; a problem raises :class:`_Invalid`."""
    value = None if raw is None else parse(raw)
    problem = check(value) if check else None
    if problem:
        raise _Invalid(problem)
    return value


def _source(v: str) -> str | None:
    if v in ("simulate", "matbin", "csvlong", "intraday"):
        return None
    return f"expected simulate, matbin, csvlong, or intraday, got {v!r}"


def _one_of(what: str, *options: str):
    return _parser(lambda raw: options[options.index(raw)],
                   f"unknown {what} {{!r}} ({', '.join(options)})")


_LOSS = _one_of("loss", LOSS_MSE, LOSS_LOG_EUCLIDEAN)
_METRIC = _one_of("metric", METRIC_LOG_EUCLIDEAN, METRIC_PROCRUSTES)
_FACTORS = _parser(_auto_or_int, "favar factors must be an integer or 'auto', got {!r}")
_LAGS = _parser(int, "respdnet lags must be an integer")


def _parse_roster(raw: str) -> list[ModelSpec]:
    """``kind[:key=value]...`` entries, comma-separated; each kind's keys are in :data:`_KINDS`."""
    specs: list[ModelSpec] = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        kind, *parts = chunk.split(":")
        kind = kind.strip().lower()
        given: dict[str, str] = {}
        for part in parts:
            if "=" not in part:
                raise ConfigError(
                    f"[models] roster: expected key=value in {chunk!r}, got {part!r}"
                )
            key, value = part.split("=", 1)
            given[key.strip()] = value.strip()
        if kind not in _KINDS:
            raise ConfigError(
                f"[models] roster: unknown model kind {kind!r} ({', '.join(_KINDS)})"
            )
        keys, pattern, _ = _KINDS[kind]
        name = given.pop("name", None)
        unknown = [key for key in given if key not in keys]
        if unknown:
            raise ConfigError(
                f"[models] roster: unknown {kind} parameter {unknown[0]!r} "
                f"(known: {', '.join([*keys, 'name'])})"
            )
        try:
            params = {key: _value(given.get(key, default), parse, check)
                      for key, (parse, default, check) in keys.items()}
        except _Invalid as exc:
            raise ConfigError(f"[models] roster: {exc}") from None
        if name is None:
            name = pattern.format(**{key: _SHORT.get(v, v) for key, v in params.items()})
        specs.append(ModelSpec(kind, name, params))
    if not specs:
        raise ConfigError("[models] roster: no models specified")
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ConfigError(f"[models] roster: duplicate model names {names}")
    return specs


# (section, key, RunConfig field, parse, default, check).  An absent or empty
# key takes the default, a raw string parsed like a given value (None: no
# value).  ``check`` returns what is wrong with the parsed value, or None.
_KEYS = (
    ("run", "seed", "seed", _INT, "0", None),
    ("run", "out", "out_dir", Path, "runs/out", None),
    ("run", "workers", "workers", _INT, "1", _at_least(1)),
    ("data", "source", "source", str.lower, "simulate", _source),
    ("data", "path", "data_path", Path, None, None),
    ("data", "n", "sim_n", _INT, "5", None),
    ("data", "days", "sim_days", _INT, "800", None),
    ("data", "persistence", "sim_persistence", _REAL, "0.95", None),
    ("data", "df", "sim_df", _INT, "12", None),
    ("data", "returns", "returns_path", Path, None, None),
    ("data", "grid_seconds", "grid_seconds", _INT, "300", _at_least(1)),
    ("models", "roster", "roster", _parse_roster, "rw", None),
    ("forecast", "window", "window", _INT, "500", _at_least(2)),
    ("forecast", "refit_every", "refit_every", _INT, "0", _at_least(0)),
    ("train", "epochs", "epochs", _INT, "30", _at_least(1)),
    ("train", "batch_size", "batch_size", _INT, "32", _at_least(1)),
    ("train", "learning_rate", "learning_rate", _REAL, "1e-2", _at_least(0)),
    ("train", "lr_decay", "lr_decay", _REAL, "0.95",
     lambda v: None if 0.0 < v <= 1.0 else f"must be in (0, 1], got {v}"),
    ("train", "eps_rectify", "eps_rectify", _REAL, "1e-4", _positive),
    ("train", "eig_gap_floor", "eig_gap_floor", _REAL, "1e-6", _positive),
    ("train", "hidden", "hidden", _hidden, "auto", None),
    ("evaluate", "metrics", "metrics", _metric_list, ", ".join(METRICS), None),
    ("evaluate", "alpha", "alpha", _REAL, "0.25", _in_open_unit),
    ("evaluate", "replicates", "replicates", _INT, "10000", _at_least(100)),
    ("evaluate", "block_len", "block_len", _AUTO_OR_INT, "auto", _at_least(1)),
    ("evaluate", "regime_quantile", "regime_quantile", _REAL, "0.90", _in_open_unit),
    ("evaluate", "market_variance", "market_variance", str, "trace", None),
    ("portfolio", "enabled", "portfolio_enabled", _FLAG, "true", None),
    ("portfolio", "long_only", "portfolio_long_only", _FLAG, "true", None),
)


def load_config(
    path: str | Path,
    seed_override: int | None = None,
    out_override: str | None = None,
    workers_override: int | None = None,
) -> RunConfig:
    """Parse and validate a run configuration file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    with _open_text(path, None, ConfigError) as fh:
        raw_text = fh.read()
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(raw_text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{exc}") from exc

    if parser.defaults():
        # configparser would copy these into every section read below.
        raise ConfigError(
            f"[DEFAULT] is not supported; move its keys into their sections: "
            f"{sorted(parser.defaults())}"
        )
    known = {}
    for section, key, *_ in _KEYS:
        known.setdefault(section, set()).add(key)
    extra = set(parser.sections()) - set(known)
    if extra:
        raise ConfigError(f"unknown config sections: {sorted(extra)}")
    given = {s: dict(parser[s]) if parser.has_section(s) else {} for s in known}

    if workers_override is not None and workers_override < 1:
        raise ConfigError(f"--workers: must be >= 1, got {workers_override}")
    values = {}
    for section, key, name, parse, default, check in _KEYS:
        try:
            values[name] = _value(given[section].get(key) or default, parse, check)
        except _Invalid as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from None

    # Rules that tie several keys together.
    source, n, df = values["source"], values["sim_n"], values["sim_df"]
    if source != "simulate" and values["data_path"] is None:
        raise ConfigError(f"[data] path: required for source={source}")
    if source == "simulate":
        if n < 1:
            raise ConfigError(f"[data] n: must be >= 1, got {n}")
        if values["sim_days"] < 2:
            raise ConfigError(f"[data] days: must be >= 2, got {values['sim_days']}")
        if not (0.0 <= values["sim_persistence"] < 1.0):
            raise ConfigError(
                f"[data] persistence: must be in [0, 1), got {values['sim_persistence']}"
            )
        if df < n:
            raise ConfigError(f"[data] df: must be >= n = {n}, got {df}")
    for section, keys in known.items():
        bad = sorted(set(given[section]) - keys)
        if bad:
            raise ConfigError(f"[{section}] unknown keys: {bad}")

    if seed_override is not None:
        values["seed"] = seed_override
    if out_override is not None:
        values["out_dir"] = Path(out_override)
    if workers_override is not None:
        values["workers"] = workers_override
    return RunConfig(**values, raw_text=raw_text)


# ---------------------------------------------------------------------------
# Data resolution


def _model_seed(run_seed: int, model_name: str, fit_index: int = 0) -> int:
    mixed = np.random.SeedSequence(
        [run_seed & 0x7FFFFFFF, zlib.crc32(model_name.encode()), fit_index]
    )
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
            with _reading("[data] returns", cfg.returns_path):
                dates, returns, tickers = _read_dated_csv(cfg.returns_path, "returns")
            returns = returns[_rows_of(dates, series.dates, lambda count, first: ConfigError(
                f"[data] returns: no return row for date {first}"))]
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


def _stage_series(cfg: RunConfig) -> CovSeries | None:
    """The data stage's series if its manifest's key matches ``cfg``, else None."""
    stage = _DATA_STAGES.get(cfg.source)
    if stage is None:
        return None
    try:
        recorded = json.loads(_manifest_path(cfg, stage).read_text()).get("data_key")
    except (OSError, ValueError, AttributeError):
        return None
    files = [cfg.out_dir / _SERIES_FILE, cfg.out_dir / _RETURNS_FILE]
    if not all(f.exists() for f in files) or recorded != _data_key(cfg):
        return None
    return load_series(files[0], FORMAT_MATBIN)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_dated_csv(path: Path, columns: list[str], dates: np.ndarray, values: np.ndarray) -> None:
    """A ``date,<columns>`` file, the values to 17 significant digits."""
    _write_csv(path, ["date", *columns],
               ([str(d)] + [f"{x:.17g}" for x in row] for d, row in zip(dates, values)))


def _read_dated_csv(
    path: Path, what: str, columns: list[str] | None = None
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Dates, values and column names of a ``date,<columns>`` file of ``what``.

    ``columns`` are the names the file must have; None takes any (a returns
    file's tickers).  A malformed file raises :class:`SeriesFormatError`
    naming ``path:line``.
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
                dates.append(np.datetime64(rec[0], "D"))
                if np.isnat(dates[-1]):
                    raise ValueError(f"bad date {rec[0]!r}")
                rows.append([float(x) for x in rec[1:]])
            except ValueError as exc:
                raise SeriesFormatError(f"{what} file {path}:{lineno}: {exc}") from None
    return np.array(dates, dtype="datetime64[D]"), np.asarray(rows), header[1:]


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

    ``predict_many(series, positions)`` returns the ``(len(positions), n, n)``
    forecasts of the current fit, and the error of each that failed (its row
    is NaN), keyed by index.  ``trainable`` forecasters are fitted before
    they predict; ``refit_every_window`` ones are fitted again on every
    window, whatever the run's ``refit_every``.  ``fit_count`` numbers a
    fit's seed stream, and ``fits`` holds the ``(fit_index, TrainResult)``
    of each trained fit.
    """

    min_history: int
    trainable = True
    refit_every_window = False
    fit_count = 0
    fits: Sequence[tuple[int, TrainResult]] = ()

    def __init__(self, name: str, cfg: RunConfig):
        self.name = name
        self.run_cfg = cfg

    def fit(self, series: CovSeries, train_slice: slice, seed: int) -> None:
        pass


class _RwForecaster(_Forecaster):
    min_history = 1
    trainable = False

    def predict_many(self, series: CovSeries, positions: Sequence[int]):
        return series.data[np.asarray(positions) - 1], {}


class _FavarForecaster(_Forecaster):
    refit_every_window = True

    def __init__(self, name: str, cfg: RunConfig, factors: int | None = None):
        super().__init__(name, cfg)
        self.factors = factors  # None: favar_fit's default count, at least 1
        # A fit needs more than factors + 1 training days.
        self.min_history = (factors or 1) + 1
        self.model = None

    def fit(self, series: CovSeries, train_slice: slice, seed: int) -> None:
        self.model = favar_fit(series, self.factors, train_slice)

    def predict_many(self, series: CovSeries, positions: Sequence[int]):
        (t,) = positions  # FAVAR refits on every window
        try:
            return favar_forecast(self.model, series, t).data[None], {}
        except SpdcastError as exc:
            return np.full((1, series.dim, series.dim), np.nan), {0: exc}


# Test dates per stacked forward pass: bounds the trace's memory on long panels.
_PREDICT_CHUNK = 256


class _NetForecaster(_Forecaster):
    """A network on block diagonals of ``input_blocks`` n x n matrices: those of a
    window's training pairs from ``_build_supervised``, of a date from ``_build_input``."""

    input_blocks: int

    def __init__(self, name: str, cfg: RunConfig, loss: str):
        super().__init__(name, cfg)
        self.loss = loss
        self.net: Network | None = None
        self.fits: list[tuple[int, TrainResult]] = []

    def fit(self, series: CovSeries, train_slice: slice, seed: int) -> None:
        cfg = self.run_cfg
        n = series.dim
        input_dim = self.input_blocks * n
        if cfg.hidden is None:
            spec = NetworkSpec.default(input_dim, n, cfg.eps_rectify)
        else:
            spec = NetworkSpec(input_dim, (*cfg.hidden, n), cfg.eps_rectify)
        supervised = self._build_supervised(series, train_slice)
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
        self.fits.append((self.fit_count, train(net, supervised.inputs, supervised.targets, tc)))
        self.net = net
        self.fit_count += 1

    def predict_many(self, series: CovSeries, positions: Sequence[int]):
        """Build each input alone, then forward the built ones as stacks of
        up to ``_PREDICT_CHUNK`` samples."""
        data = np.full((len(positions), series.dim, series.dim), np.nan)
        errors = {}
        for start in range(0, len(positions), _PREDICT_CHUNK):
            built = {}
            for k in range(start, min(start + _PREDICT_CHUNK, len(positions))):
                try:
                    built[k] = self._build_input(series, positions[k]).data
                except SpdcastError as exc:
                    errors[k] = exc
            if built:
                data[list(built)] = self.net.forward_trace(np.stack(list(built.values()))).output
        return data, errors


class _RespdnetForecaster(_NetForecaster):
    def __init__(self, name: str, cfg: RunConfig, lags: int, loss: str):
        super().__init__(name, cfg, loss)
        self.lags = lags
        self.input_blocks = lags
        self.min_history = lags

    def _build_supervised(self, series: CovSeries, train_slice: slice):
        return build_lagged_inputs(series[train_slice], self.lags)

    def _build_input(self, series: CovSeries, t: int) -> SpdMatrix:
        return blockdiag_spd([series[t - j] for j in range(1, self.lags + 1)])


class _GeoharForecaster(_NetForecaster):
    input_blocks = 3  # the daily, weekly and monthly means
    min_history = 22

    def __init__(self, name: str, cfg: RunConfig, metric: str, loss: str):
        super().__init__(name, cfg, loss)
        self.metric = metric
        self.frechet_cfg = FrechetConfig(metric=metric)

    def _build_supervised(self, series: CovSeries, train_slice: slice):
        return build_geohar_inputs(series, self.metric, self.frechet_cfg, train=train_slice)

    def _build_input(self, series: CovSeries, t: int) -> SpdMatrix:
        return har_input(series, t, self.frechet_cfg)


# kind: ({key: (parse, default, check)}, default name, forecaster class).
# Parameters are parsed and checked like _KEYS values, an absent key taking the
# default; a problem's message follows "[models] roster: ".  The default name
# formats the parsed values, shortened by _SHORT.  Every kind also takes name.
_KINDS = {
    "rw": ({}, "rw", _RwForecaster),
    "favar": ({"factors": (_FACTORS, "auto", lambda v: None if v is None or v >= 1
                           else f"favar factors must be >= 1, got {v}")},
              "favar", _FavarForecaster),
    "respdnet": ({"lags": (_LAGS, "3", lambda v: None if v >= 1 else "respdnet lags must be >= 1"),
                  "loss": (_LOSS, LOSS_LOG_EUCLIDEAN, None)},
                 "respdnet{lags}_{loss}", _RespdnetForecaster),
    "geohar": ({"metric": (_METRIC, METRIC_LOG_EUCLIDEAN, None),
                "loss": (_LOSS, LOSS_LOG_EUCLIDEAN, None)},
               "geohar_{metric}_{loss}", _GeoharForecaster),
}


def _make_forecaster(spec: ModelSpec, cfg: RunConfig) -> _Forecaster:
    return _KINDS[spec.kind][2](spec.name, cfg, **spec.params)


@dataclass
class ModelRunResult:
    name: str
    predictions: CovSeries | None  # None: no date was forecast
    failures: list[tuple[str, str]]
    traces: list[tuple[int, TrainResult]]

    @property
    def dates(self) -> np.ndarray:
        return np.array([], "datetime64[D]") if self.predictions is None else self.predictions.dates


def run_model(spec: ModelSpec, cfg: RunConfig, series: CovSeries) -> ModelRunResult:
    """All rolling one-step forecasts for one model.

    Trainable models fit on the first window and re-fit every
    ``cfg.refit_every`` windows (0 = never re-fit).  The dates one fit
    serves are predicted together, just before the next fit or at the end,
    so a network forwards them as stacks.  A model's forecasts are checked
    as one stack.  A window where prediction
    fails is dropped and recorded.  A failed fit is recorded and fails its
    window, and the fit is retried on every later window until one
    succeeds; the refit schedule then resumes.
    """
    forecaster = _make_forecaster(spec, cfg)
    if cfg.window <= forecaster.min_history:
        raise ConfigError(
            f"[forecast] window: {cfg.window} leaves no training pairs for model "
            f"{spec.name!r} (needs more than {forecaster.min_history})"
        )
    predicted: list[int] = []  # the positions forecast, and their forecasts by batch
    batches = [np.zeros((0, series.dim, series.dim))]
    failures: list[tuple[str, str]] = []
    pending: list[int] = []

    def fail(t: int, exc: SpdcastError) -> None:
        log.warning("model %s failed at %s: %s", spec.name, series.dates[t], exc)
        failures.append((str(series.dates[t]), str(exc)))

    def predict_pending() -> None:
        if not pending:
            return
        data, errors = forecaster.predict_many(series, pending)
        for k, t in enumerate(pending):
            if k in errors:
                fail(t, errors[k])
            else:
                predicted.append(t)
        batches.append(np.delete(data, list(errors), axis=0))
        pending.clear()

    fitted = False
    for window_index, (train_slice, t) in enumerate(rolling_windows(series, cfg.window)):
        refit_due = (
            not fitted
            or forecaster.refit_every_window
            or (cfg.refit_every > 0 and window_index % cfg.refit_every == 0)
        )
        if forecaster.trainable and refit_due:
            predict_pending()
            try:
                forecaster.fit(
                    series, train_slice, _model_seed(cfg.seed, spec.name, forecaster.fit_count)
                )
                fitted = True
            except SpdcastError as exc:
                log.warning("model %s fit failed at window %d: %s", spec.name, window_index, exc)
                failures.append((str(series.dates[t]), f"fit: {exc}"))
                fitted = False
                continue
        pending.append(t)
    predict_pending()
    # One stacked check of every forecast, as SpdMatrix checks one matrix: a
    # forecast that is not a finite PSD matrix fails its own date.
    predictions, rejected = CovSeries.accepted(series.dates[predicted], np.concatenate(batches))
    for k, exc in rejected.items():
        fail(predicted[k], exc)
    failures.sort(key=lambda failure: failure[0])  # in date order, as they happened
    return ModelRunResult(spec.name, predictions, failures, list(forecaster.fits))


# ---------------------------------------------------------------------------
# Commands


def _manifest_path(cfg: RunConfig, command: str) -> Path:
    return cfg.out_dir / f"manifest_{command.replace('-', '_')}.json"


def _write_manifest(cfg: RunConfig, command: str, artifacts: dict[str, str], **extra) -> None:
    manifest = {
        "command": command,
        "config_sha256": cfg.config_hash,
        "seed": cfg.seed,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "numpy_version": np.__version__,
        "spdcast_version": __version__,
        "source": cfg.source,
        "persistence": cfg.sim_persistence if cfg.source == "simulate" else None,
        "artifacts": artifacts,
        **extra,
    }
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    _manifest_path(cfg, command).write_text(json.dumps(manifest, indent=2) + "\n")


def _forget_data_stages(cfg: RunConfig) -> None:
    """Drop every data-stage manifest before a file in ``data/`` is replaced.

    A manifest's key then vouches only for files its own stage wrote, and a
    later train-forecast cannot reuse files another run overwrote.
    """
    for stage in _DATA_STAGES.values():
        _manifest_path(cfg, stage).unlink(missing_ok=True)


def _run_data_stage(cfg: RunConfig, command: str) -> tuple[CovSeries, list[str]]:
    """Write the series and returns, then a manifest keyed to their inputs.

    The old manifests go first, so an interrupted stage never leaves a
    matching key beside partly written files.
    """
    _forget_data_stages(cfg)
    key = _data_key(cfg)
    series, returns, tickers = resolve_series(cfg)
    (cfg.out_dir / "data").mkdir(parents=True, exist_ok=True)
    save_series(series, cfg.out_dir / _SERIES_FILE, FORMAT_MATBIN)
    _write_dated_csv(cfg.out_dir / _RETURNS_FILE, tickers, series.dates, returns)
    _write_manifest(cfg, command, {"series": _SERIES_FILE, "returns": _RETURNS_FILE},
                    data_key=key)
    return series, tickers


def cmd_simulate(cfg: RunConfig) -> int:
    """Materialize a synthetic covariance series and its daily returns."""
    if cfg.source != "simulate":
        raise ConfigError("[data] source: cmd_simulate requires source = simulate")
    series, _ = _run_data_stage(cfg, "simulate")
    log.info("simulated %d days of %dx%d covariances", len(series), series.dim, series.dim)
    return 0


def cmd_ingest(cfg: RunConfig) -> int:
    """Intraday prices to realized covariances plus daily returns."""
    if cfg.source != "intraday":
        raise ConfigError("[data] source: cmd_ingest requires source = intraday")
    series, tickers = _run_data_stage(cfg, "ingest")
    log.info("ingested %d days over tickers %s", len(series), ",".join(tickers))
    return 0


def cmd_train_forecast(cfg: RunConfig) -> int:
    """Fit the roster and emit aligned one-step forecasts per model.

    Artifacts: ``data/realized.matbin`` (test-date truth), one
    ``forecasts/<model>.matbin`` per model, per-fit loss traces, a failure
    log, and the manifest, whose ``training`` record counts each network
    model's fits, eigenvalue-gap clamps and floor-projected targets.  The
    series is the data stage's ``data/series.matbin`` when that stage's
    manifest key matches ``cfg``, and is rebuilt from the source otherwise.  Returns nonzero iff a
    requested model produced no forecasts at all.
    """
    series = _stage_series(cfg)
    if series is not None:
        series_from, returns = _SERIES_FILE, None
    else:
        series, returns, tickers = resolve_series(cfg)
        series_from = cfg.source
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
    if returns is not None:
        _forget_data_stages(cfg)
        _write_dated_csv(out / _RETURNS_FILE, tickers, series.dates, returns)

    if cfg.workers > 1 and len(cfg.roster) > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(run_model, cfg.roster, repeat(cfg), repeat(series)))
    else:
        results = [run_model(spec, cfg, series) for spec in cfg.roster]

    artifacts: dict[str, str] = {"realized": "data/realized.matbin"}
    failure_rows: list[tuple[str, str, str]] = []
    training: dict[str, dict[str, int]] = {}
    for result in results:
        for date, reason in result.failures:
            failure_rows.append((result.name, date, reason))
        if result.traces:
            fits = [trained for _, trained in result.traces]
            training[result.name] = {
                "fits": len(fits),
                "gap_clamps": sum(f.gap_clamp_count for f in fits),
                "floored_targets": sum(f.floored_target_count for f in fits),
            }
        if result.predictions is None:
            log.error("model %s produced no forecasts", result.name)
            continue
        save_series(result.predictions, out / "forecasts" / f"{result.name}.matbin", FORMAT_MATBIN)
        artifacts[result.name] = f"forecasts/{result.name}.matbin"
        for fit_index, trained in result.traces:
            trained.write_trace(out / "train" / f"{result.name}_fit{fit_index}.csv")
    if failure_rows:
        _write_csv(out / "train" / "failures.csv", ["model", "date", "reason"], failure_rows)
        log.warning("%d window failures recorded", len(failure_rows))
    _write_manifest(cfg, "train-forecast", artifacts, series_from=series_from,
                    training=training)
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


def _write_loss_table(path: Path, panel: LossPanel, cfg: RunConfig) -> None:
    """Average losses and the MCS; a panel within one bootstrap block keeps all, at p = 1."""
    n_obs = len(panel.dates)
    block = cfg.block_len if cfg.block_len is not None else default_block_len(n_obs)
    if n_obs <= block:
        result = McsResult(set(panel.models), {m: 1.0 for m in panel.models}, cfg.alpha,
                           cfg.replicates, block, [])
    else:
        result = mcs(panel, cfg.alpha, cfg.replicates, cfg.block_len, cfg.seed)
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
    _write_csv(
        eval_dir / "regime_labels.csv",
        ["date", "label"],
        ([str(d), "turbulent" if t else "calm"] for d, t in zip(realized.dates, turbulent_days)),
    )

    artifacts = {"regime_labels": "eval/regime_labels.csv"}
    # The panel's dates are the realized ones: all days, then each regime.
    subsets = (("", np.ones_like(turbulent_days)), ("_calm", ~turbulent_days),
               ("_turbulent", turbulent_days))
    for metric in cfg.metrics:
        panel = loss_panel(forecasts, realized, metric)
        for suffix, days in subsets:
            if not days.any():
                log.info("regime %s is empty under metric %s", suffix[1:], metric)
                continue
            sub = LossPanel(list(panel.models), panel.dates[days], panel.losses[days])
            name = f"losses_{metric}{suffix}"
            _write_loss_table(eval_dir / f"{name}.csv", sub, cfg)
            artifacts[name] = f"eval/{name}.csv"
    _write_manifest(cfg, "evaluate", artifacts)
    return 0


def _portfolio_returns_matrix(cfg: RunConfig, dates: np.ndarray) -> np.ndarray:
    """Daily returns on ``dates``: the ``[data] returns`` file if set, else ``data/returns.csv``."""
    path = cfg.returns_path or cfg.out_dir / _RETURNS_FILE
    if cfg.returns_path is None and not path.exists():
        raise ConfigError(
            "no daily returns available: set [data] returns or run a source that "
            "produces data/returns.csv"
        )
    with _reading("[data] returns", path):
        rdates, returns, _ = _read_dated_csv(path, "returns")
    return returns[_rows_of(rdates, dates, lambda count, first: ConfigError(
        f"returns file {path} is missing {count} forecast dates (first: {first})"))]


def _long_only_weights(forecast: CovSeries) -> np.ndarray:
    weights = np.empty((len(forecast), forecast.dim))
    for t, s in enumerate(forecast):  # the active-set search runs one matrix at a time
        weights[t] = gmv_long_only(s)
    return weights


def cmd_portfolio(cfg: RunConfig) -> int:
    """Weight paths and the volatility/turnover report per model."""
    if not cfg.portfolio_enabled:
        log.info("portfolio disabled in config; nothing to do")
        return 0
    forecasts, realized = _load_forecasts(cfg)
    returns = _portfolio_returns_matrix(cfg, realized.dates)
    port_dir = cfg.out_dir / "portfolio"
    port_dir.mkdir(parents=True, exist_ok=True)

    # Per variant, the (dates, assets) weights of a forecast series.
    variants = [("gmv", gmv_weights)]
    if cfg.portfolio_long_only:
        variants.append(("gmv_long", _long_only_weights))

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


def _markdown_table(path: Path) -> str:
    """The CSV file at ``path`` as a markdown table."""
    with _open_text(path) as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return "(empty)\n"
    lines = ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join([lines[0], "|" + "---|" * len(rows[0]), *lines[1:]]) + "\n"


def cmd_report(cfg: RunConfig) -> int:
    """Assemble eval and portfolio artifacts into one markdown summary."""
    lines = [
        "# Forecast evaluation report",
        "",
        f"- config: `{cfg.config_hash[:16]}`",
        f"- seed: {cfg.seed}",
        f"- models: {', '.join(s.name for s in cfg.roster)}",
        "",
    ]
    tables = [(f"{metric} ({title})", cfg.out_dir / "eval" / f"losses_{metric}{suffix}.csv")
              for metric in cfg.metrics
              for suffix, title in (("", "all days"), ("_calm", "calm days"),
                                    ("_turbulent", "turbulent days"))]
    tables.append(("Portfolios", cfg.out_dir / "portfolio" / "report.csv"))
    tables = [(title, path) for title, path in tables if path.exists()]
    if not tables:
        raise ConfigError(
            f"nothing to report under {cfg.out_dir}; run evaluate or portfolio first"
        )
    for title, path in tables:
        lines += [f"## {title}", "", _markdown_table(path)]
    report_path = cfg.out_dir / "report.md"
    report_path.write_text("\n".join(lines))
    _write_manifest(cfg, "report", {"report": "report.md"})
    print(report_path)
    return 0
