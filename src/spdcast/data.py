"""Realized-covariance series: construction, supervised assembly, synthesis, I/O.

File formats
------------
Binary container (``.matbin``): magic ``SPDS``, version u32, side length u32,
record count u64, then per record a little-endian i64 key (days since the
Unix epoch) and the row-major float64 matrix.  Lossless round trip.

Long CSV (``.csv``): columns ``date,row,col,value`` with ``row <= col``
(upper symmetric half), values written with 17 significant digits.

Intraday CSV: columns ``date,time,ticker,price``; the loader resamples each
day on a fixed-spacing grid (last observation carried forward) before
differencing log prices.
"""

from __future__ import annotations

import csv
import io
import itertools
import logging
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Hashable, Iterator, Sequence

import numpy as np

from .exceptions import DecompositionError, DimensionMismatchError, SeriesFormatError, SpdcastError
from .frechet import (
    METRIC_LOG_EUCLIDEAN,
    METRIC_PROCRUSTES,
    FrechetConfig,
    log_stack,
    mean_from_logs,
    mean_from_roots,
    root_stack,
)
from .spd import SpdMatrix, _symmetrize, expm

__all__ = [
    "FORMAT_MATBIN",
    "FORMAT_CSVLONG",
    "CovSeries",
    "ReturnPanel",
    "SupervisedSet",
    "realized_cov",
    "log_returns",
    "blockdiag_spd",
    "build_lagged_inputs",
    "build_geohar_inputs",
    "har_input",
    "rolling_windows",
    "simulate_market",
    "save_series",
    "load_series",
    "load_intraday_csv",
    "realized_series",
]

FORMAT_MATBIN = "matbin"
FORMAT_CSVLONG = "csvlong"

_EPOCH = np.datetime64("1970-01-01", "D")

log = logging.getLogger(__name__)


def _as_dates(dates: Sequence) -> np.ndarray:
    arr = np.asarray(dates, dtype="datetime64[D]")
    if arr.ndim != 1:
        raise SeriesFormatError(f"dates must be one-dimensional, got shape {arr.shape}")
    return arr


def _build_stack(
    build: Callable[[SpdMatrix], np.ndarray], matrices: list[SpdMatrix]
) -> tuple[np.ndarray, dict[int, SpdcastError]]:
    # One row per matrix.  A failed row is NaN, and its error is kept, by
    # position in ascending order, for the windows that include its matrix.
    rows: list[np.ndarray | None] = []
    errors: dict[int, SpdcastError] = {}
    for i, m in enumerate(matrices):
        try:
            rows.append(build(m))
        except SpdcastError as exc:
            rows.append(None)
            errors[i] = exc
    like = next((r for r in rows if r is not None), np.zeros(0))
    return np.stack([np.full_like(like, np.nan) if r is None else r for r in rows]), errors


@dataclass
class CovSeries:
    """Dated sequence of same-dimension SPD matrices, strictly increasing dates.

    Per-matrix stacks (logarithms, square roots, Cholesky vectors) are built
    once per series on first use and kept; see :meth:`stack`.
    """

    dates: np.ndarray
    matrices: list[SpdMatrix]
    # (series whose stacks this one reads, offset into it): contiguous
    # subseries share their parent's stacks instead of building their own.
    _origin: tuple["CovSeries", int] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _stacks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.dates = _as_dates(self.dates)
        self.matrices = list(self.matrices)
        if len(self.dates) != len(self.matrices):
            raise SeriesFormatError(
                f"{len(self.dates)} dates but {len(self.matrices)} matrices"
            )
        if len(self.matrices) == 0:
            raise SeriesFormatError("empty series")
        if len(self.dates) > 1 and not np.all(self.dates[1:] > self.dates[:-1]):
            raise SeriesFormatError("dates must be strictly increasing")
        dim = self.matrices[0].dim
        for m in self.matrices:
            if m.dim != dim:
                raise DimensionMismatchError(
                    f"series is not dimension-uniform: {m.dim} vs {dim}"
                )

    def __len__(self) -> int:
        return len(self.matrices)

    @property
    def dim(self) -> int:
        return self.matrices[0].dim

    def subseries(self, sl: slice) -> "CovSeries":
        sub = CovSeries(self.dates[sl], self.matrices[sl])
        positions = range(len(self))[sl]
        if positions.step == 1:
            root, offset = self._origin or (self, 0)
            sub._origin = (root, offset + positions.start)
        return sub

    def stack(
        self,
        key: Hashable,
        build: Callable[[SpdMatrix], np.ndarray],
        rows: slice = slice(None),
    ) -> np.ndarray:
        """Rows ``rows`` of the stack of ``build(m)`` over the matrices, built once under ``key``.

        A subseries reads its rows of its parent's stack.  If ``build`` raises
        an :class:`SpdcastError` on some matrix, the call raises that error
        whenever ``rows`` includes the matrix: a failure is attributed only
        to the windows that contain it.
        """
        root, offset = self._origin or (self, 0)
        if key not in root._stacks:
            root._stacks[key] = _build_stack(build, root.matrices)
        values, errors = root._stacks[key]
        wanted = range(offset, offset + len(self))[rows]
        for position, exc in errors.items():
            if position in wanted:
                # Without the traceback of its last raise, which each raise
                # would otherwise extend.
                raise exc.with_traceback(None)
        return values[offset : offset + len(self)][rows]


@dataclass
class ReturnPanel:
    """Per-day intraday return matrices over a fixed, alphabetical ticker set."""

    dates: np.ndarray
    returns: list[np.ndarray]
    tickers: list[str]

    def __post_init__(self) -> None:
        self.dates = _as_dates(self.dates)
        if len(self.dates) != len(self.returns):
            raise SeriesFormatError("dates and returns length mismatch")
        n = len(self.tickers)
        for r in self.returns:
            if r.ndim != 2 or r.shape[1] != n:
                raise DimensionMismatchError(
                    f"return block of shape {r.shape} does not match {n} tickers"
                )


@dataclass
class SupervisedSet:
    """One-step supervised pairs: block-assembled input, next-day target."""

    inputs: list[SpdMatrix]
    targets: list[SpdMatrix]
    dates: np.ndarray

    def __post_init__(self) -> None:
        self.dates = _as_dates(self.dates)
        if not (len(self.inputs) == len(self.targets) == len(self.dates)):
            raise SeriesFormatError("inputs, targets, and dates must be equal length")

    def __len__(self) -> int:
        return len(self.inputs)


def _cross_product(day_returns: np.ndarray) -> np.ndarray:
    r = np.asarray(day_returns, dtype=float)
    if r.ndim != 2 or r.shape[0] < 1:
        raise DimensionMismatchError(
            f"expected an (observations, assets) block, got shape {r.shape}"
        )
    if not np.all(np.isfinite(r)):
        raise ValueError("returns must be finite")
    return r.T @ r


def realized_cov(day_returns: np.ndarray) -> SpdMatrix:
    """Sum of return cross products over one day's observations."""
    return SpdMatrix(_cross_product(day_returns))


def log_returns(prices: np.ndarray) -> np.ndarray:
    """Log price differences along axis 0; prices must be strictly positive."""
    p = np.asarray(prices, dtype=float)
    if p.ndim != 2 or p.shape[0] < 2:
        raise DimensionMismatchError(
            f"expected at least two rows of prices, got shape {p.shape}"
        )
    if not np.all(p > 0.0):
        raise ValueError("prices must be strictly positive")
    return np.log(p[1:] / p[:-1])


def blockdiag_spd(blocks: Sequence[SpdMatrix]) -> SpdMatrix:
    """Block-diagonal composition; the spectrum is the union of block spectra."""
    if len(blocks) == 0:
        raise ValueError("need at least one block")
    dims = [b.dim for b in blocks]
    total = sum(dims)
    values = np.concatenate([b.eig.values for b in blocks])
    vectors = np.zeros((total, total))
    offset = 0
    for b, d in zip(blocks, dims):
        vectors[offset : offset + d, offset : offset + d] = b.eig.vectors
        offset += d
    return SpdMatrix._from_eig(values, vectors)


def build_lagged_inputs(series: CovSeries, lags: int) -> SupervisedSet:
    """Inputs stack the ``lags`` most recent matrices block-diagonally.

    The target at position t is the matrix at t; the input stacks positions
    t-1 (top-left) through t-lags.  Yields ``len(series) - lags`` pairs.
    """
    if lags < 1:
        raise ValueError(f"lags must be at least 1, got {lags}")
    if len(series) <= lags:
        raise ValueError(f"series of length {len(series)} too short for {lags} lags")
    inputs, targets = [], []
    for t in range(lags, len(series)):
        inputs.append(blockdiag_spd([series.matrices[t - j] for j in range(1, lags + 1)]))
        targets.append(series.matrices[t])
    return SupervisedSet(inputs, targets, series.dates[lags:])


def har_input(
    series: CovSeries,
    t: int,
    cfg: FrechetConfig,
    weekly_window: int = 5,
    monthly_window: int = 22,
) -> SpdMatrix:
    """Heterogeneous input at position t: yesterday, weekly mean, monthly mean.

    Block-stacks ``series.matrices[t - 1]`` with the Fréchet means of the
    ``weekly_window`` and ``monthly_window`` matrices before t.  The means
    read the last rows of the series' :func:`log_stack` (log-Euclidean) or
    :func:`root_stack` (Procrustes), built once per series, so a matrix
    whose decomposition failed raises here only if it is one of the
    ``monthly_window`` before t.  A Procrustes mean that exhausts
    ``cfg.max_iters`` is used, and logged as a warning.
    """
    if not (1 <= weekly_window <= monthly_window):
        raise ValueError("windows must satisfy 1 <= weekly <= monthly")
    if not (monthly_window <= t <= len(series)):
        raise IndexError(f"t must be in [{monthly_window}, {len(series)}], got {t}")
    rows = slice(t - monthly_window, t)
    if cfg.metric == METRIC_LOG_EUCLIDEAN:
        stack = series.stack("log", lambda m: log_stack([m])[0], rows)
    else:
        stack = series.stack("root", lambda m: root_stack([m])[0], rows)

    def mean(k: int) -> SpdMatrix:
        if cfg.metric == METRIC_LOG_EUCLIDEAN:
            return mean_from_logs(stack[-k:])
        result = mean_from_roots(stack[-k:], cfg)
        if not result.converged:
            log.warning(
                "Procrustes mean of the %d matrices before position %d did not "
                "converge in %d iterations", k, t, result.n_iters,
            )
        return result.mean

    return blockdiag_spd([series.matrices[t - 1], mean(weekly_window), mean(monthly_window)])


def build_geohar_inputs(
    series: CovSeries,
    metric: str = METRIC_LOG_EUCLIDEAN,
    cfg: FrechetConfig | None = None,
    weekly_window: int = 5,
    monthly_window: int = 22,
) -> SupervisedSet:
    """Supervised pairs of :func:`har_input` and the next matrix.

    The input at position t block-stacks the matrix at t-1, the Fréchet
    mean of the ``weekly_window`` most recent matrices, and the mean of the
    ``monthly_window`` most recent, under the chosen metric.  The means
    read slices of one stack per series (see :func:`har_input`).
    """
    if metric not in (METRIC_LOG_EUCLIDEAN, METRIC_PROCRUSTES):
        raise ValueError(f"unknown metric {metric!r}")
    if not (1 <= weekly_window <= monthly_window):
        raise ValueError("windows must satisfy 1 <= weekly <= monthly")
    if len(series) <= monthly_window:
        raise ValueError(
            f"series of length {len(series)} too short for a {monthly_window}-day window"
        )
    if cfg is None:
        cfg = FrechetConfig(metric=metric)
    elif cfg.metric != metric:
        raise ValueError("cfg.metric disagrees with the metric argument")
    positions = range(monthly_window, len(series))
    inputs = [har_input(series, t, cfg, weekly_window, monthly_window) for t in positions]
    targets = [series.matrices[t] for t in positions]
    return SupervisedSet(inputs, targets, series.dates[monthly_window:])


def rolling_windows(series: CovSeries, window: int) -> Iterator[tuple[slice, int]]:
    """One-step-ahead evaluation tasks: (training slice, test position).

    Yields ``len(series) - window`` tasks; task j trains on positions
    ``[j - window, j)`` and is scored against position j.  The training
    slice never touches the test position or anything after it.
    """
    if window < 1:
        raise ValueError(f"window must be positive, got {window}")
    if window >= len(series):
        raise ValueError(
            f"window {window} leaves no test observations in a series of "
            f"length {len(series)}"
        )
    for t in range(window, len(series)):
        yield slice(t - window, t), t


def _symmetric_noise(rng: np.random.Generator, n: int, scale: float) -> np.ndarray:
    upper = np.zeros((n, n))
    idx = np.triu_indices(n)
    upper[idx] = rng.standard_normal(len(idx[0]))
    return scale * _symmetrize(upper + np.triu(upper, 1).T)


def simulate_market(
    n: int,
    n_days: int,
    persistence: float,
    df: int,
    seed: int,
    base: SpdMatrix | None = None,
    vol: float = 0.5,
) -> tuple[CovSeries, np.ndarray]:
    """Synthetic realized covariances plus consistent daily returns.

    The latent log-covariance follows a stationary matrix AR(1) with the
    given persistence around ``logm(base)`` (base defaults to the identity);
    each day ``df`` intraday return vectors are drawn with covariance
    ``Sigma_t / df``, so the realized covariance is Wishart with ``df``
    degrees of freedom and mean ``Sigma_t``, and the day's return is their
    sum, distributed N(0, Sigma_t).
    """
    if n < 1 or n_days < 1:
        raise ValueError("n and n_days must be positive")
    if not (0.0 <= persistence < 1.0):
        raise ValueError(f"persistence must be in [0, 1), got {persistence}")
    if int(df) != df or df < n:
        raise ValueError(f"df must be an integer >= n (got df={df}, n={n})")
    df = int(df)
    if not (vol > 0.0):
        raise ValueError("vol must be positive")
    rng = np.random.default_rng(seed)
    if base is None:
        center = np.zeros((n, n))
    else:
        if base.dim != n:
            raise DimensionMismatchError(f"base dim {base.dim} != n {n}")
        from .spd import logm as _logm

        center = _logm(base)

    innovation = vol * np.sqrt(1.0 - persistence**2)
    state = center + _symmetric_noise(rng, n, vol)
    dates = np.datetime64("2000-01-03", "D") + np.arange(n_days)
    realized = np.zeros((n_days, n, n))
    daily_returns = np.zeros((n_days, n))
    for t in range(n_days):
        if t > 0:
            state = center + persistence * (state - center) + _symmetric_noise(
                rng, n, innovation
            )
        with np.errstate(over="ignore"):
            sigma = expm(state)
        try:
            if not np.isfinite(sigma.eig.values[0]):
                raise np.linalg.LinAlgError("its largest eigenvalue overflows")
            root = np.linalg.cholesky(sigma.data / df)
        except np.linalg.LinAlgError as exc:
            raise DecompositionError(
                f"simulated day {t}: the latent covariance is not numerically positive "
                f"definite (vol={vol} spreads its spectrum too far): {exc}"
            ) from exc
        intraday = rng.standard_normal((df, n)) @ root.T
        realized[t] = intraday.T @ intraday
        daily_returns[t] = intraday.sum(axis=0)
    return CovSeries(dates, SpdMatrix.stack(realized)), daily_returns


# ---------------------------------------------------------------------------
# Binary container

_MAGIC = b"SPDS"
_VERSION = 1
_HEADER = struct.Struct("<4sIIQ")


def _record_dtype(side: int) -> np.dtype:
    """One record: the i64 day key, then the row-major f64 matrix, both little-endian."""
    return np.dtype([("key", "<i8"), ("m", "<f8", (side, side))])


def _write_matrix_records(path: str | Path, keys: np.ndarray, records: np.ndarray) -> None:
    records = np.asarray(records)
    count, side, side2 = records.shape
    if side != side2 or len(keys) != count:
        raise DimensionMismatchError("records must be (count, side, side) with matching keys")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, side, count))
        fh.write(np.rec.fromarrays([keys, records], dtype=_record_dtype(side)).tobytes())


def _read_matrix_records(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise SeriesFormatError(f"{path}: truncated header")
    magic, version, side, count = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise SeriesFormatError(f"{path}: bad magic {magic!r}")
    if version != _VERSION:
        raise SeriesFormatError(f"{path}: unsupported version {version}")
    dtype = _record_dtype(side)
    expected = _HEADER.size + count * dtype.itemsize
    if len(raw) != expected:
        raise SeriesFormatError(
            f"{path}: expected {expected} bytes for {count} records, found {len(raw)}"
        )
    table = np.frombuffer(raw, dtype, count=count, offset=_HEADER.size)
    return table["key"].astype(np.int64), table["m"].astype(float)


def save_series(series: CovSeries, path: str | Path, fmt: str = FORMAT_MATBIN) -> None:
    """Write a series; ``matbin`` round-trips bitwise, ``csvlong`` to 17 digits."""
    if fmt == FORMAT_MATBIN:
        keys = (series.dates - _EPOCH).astype(np.int64)
        _write_matrix_records(path, keys, np.stack([m.data for m in series.matrices]))
    elif fmt == FORMAT_CSVLONG:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["date", "row", "col", "value"])
            n = series.dim
            for date, mat in zip(series.dates, series.matrices):
                for i in range(n):
                    for j in range(i, n):
                        writer.writerow([str(date), i, j, f"{mat.data[i, j]:.17g}"])
    else:
        raise ValueError(f"unknown format {fmt!r}")


@contextmanager
def _open_text(path: str | Path, newline: str | None = "", error=SeriesFormatError):
    """``path`` opened as UTF-8 text; bytes that are not UTF-8 raise ``error`` naming it."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 text ({exc.reason})") from None


def _records(path: str | Path, dates: Sequence, values: np.ndarray) -> list[SpdMatrix]:
    """The matrix of each record; the first bad one is named by file and date."""
    return SpdMatrix.stack(
        values, lambda i, exc: SeriesFormatError(f"{path}: date {dates[i]}: {exc}")
    )


def load_series(path: str | Path, fmt: str = FORMAT_MATBIN) -> CovSeries:
    """Read a series written by :func:`save_series`; validates as it builds.

    A record that is not a finite PSD matrix raises :class:`SeriesFormatError`
    naming the file and the record's date.
    """
    if fmt == FORMAT_MATBIN:
        keys, records = _read_matrix_records(path)
        dates = _EPOCH + keys
        return CovSeries(dates, _records(path, dates, records))
    if fmt == FORMAT_CSVLONG:
        per_date: dict[str, dict[tuple[int, int], float]] = {}  # in file order
        with _open_text(path) as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["date", "row", "col", "value"]:
                raise SeriesFormatError(f"{path}: bad header {header}")
            for lineno, rec in enumerate(reader, start=2):
                if len(rec) != 4:
                    raise SeriesFormatError(f"{path}:{lineno}: expected 4 fields")
                date, row, col, value = rec
                try:
                    i, j, v = int(row), int(col), float(value)
                except ValueError as exc:
                    raise SeriesFormatError(f"{path}:{lineno}: {exc}") from None
                if i > j or i < 0:
                    raise SeriesFormatError(
                        f"{path}:{lineno}: need 0 <= row <= col, got ({i}, {j})"
                    )
                entries = per_date.setdefault(date, {})
                if (i, j) in entries:
                    raise SeriesFormatError(f"{path}:{lineno}: duplicate entry ({i}, {j})")
                entries[(i, j)] = v
        if not per_date:
            raise SeriesFormatError(f"{path}: no records")
        n = 1 + max(j for (_, j) in next(iter(per_date.values())))
        matrices = []
        for date, entries in per_date.items():
            if len(entries) != n * (n + 1) // 2:
                raise SeriesFormatError(
                    f"{path}: date {date} has {len(entries)} entries, "
                    f"expected {n * (n + 1) // 2}"
                )
            mat = np.zeros((n, n))
            for (i, j), v in entries.items():
                if j >= n:
                    raise SeriesFormatError(f"{path}: date {date} exceeds dimension {n}")
                mat[i, j] = v
                mat[j, i] = v
            matrices.extend(_records(path, [date], mat[None]))
        return CovSeries(np.array(list(per_date), dtype="datetime64[D]"), matrices)
    raise ValueError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# Intraday ingestion


_TICK_HEADER = ["date", "time", "ticker", "price"]
_SEPARATORS = np.frombuffer(b",,,\n", np.uint8)  # those of one row of 4 fields
# Rows are split a block at a time because the tokens of a whole file take
# several times its size in string objects.
_BLOCK_CHARS = 1 << 17


def _seconds(time_s: str) -> int:
    parts = time_s.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(f"bad time {time_s!r}")
    return int(parts[0]) * 3600 + int(parts[1]) * 60 + (int(parts[2]) if len(parts) == 3 else 0)


def _day(date: str) -> np.datetime64:
    try:
        day = np.datetime64(date, "D")
    except ValueError:
        day = np.datetime64("NaT")
    if np.isnat(day):
        raise ValueError(f"bad date {date!r}")
    return day


def _or_none(parse: Callable[[str], object], text: str):
    try:
        return parse(text)
    except ValueError:
        return None


def _check_tick(path: str | Path, row: int) -> None:
    """Raise the error of the row-th tick row, read as :mod:`csv` reads it, field by field."""
    with _open_text(path) as fh:
        rec = next(itertools.islice(csv.reader(fh), row + 1, None))
    try:
        if len(rec) != 4:
            raise ValueError("expected 4 fields")
        date, time_s, _, price_s = rec
        _seconds(time_s)
        price = float(price_s)
        if price <= 0.0:
            raise ValueError("nonpositive price")
        if not np.isfinite(price):
            raise ValueError(f"non-finite price {price_s!r}")
        _day(date)
    except ValueError as exc:
        raise SeriesFormatError(f"{path}:{row + 2}: {exc}") from None


def _tick_blocks(path: str | Path) -> Iterator[tuple[list[list[str]], int | None]]:
    """The four columns of each block of rows, and the first row without 4 fields.

    A block ends before that row (None while there is none).  Fields are
    counted with byte masks and a block is split in one pass, except that
    from the first block with a ``"`` on, :mod:`csv` reads the rest of the
    file, so quoted fields parse.
    """
    with _open_text(path, None) as fh:
        first = fh.readline()
        header = next(csv.reader([first])) if first else None
        if header != _TICK_HEADER:
            raise SeriesFormatError(f"{path}: bad header {header}")
        rows = 0
        while text := fh.read(_BLOCK_CHARS) + fh.readline():
            if '"' in text:
                records = list(csv.reader(io.StringIO(text + fh.read())))
                short = next((i for i, rec in enumerate(records) if len(rec) != 4), None)
                tokens = [field for rec in records[:short] for field in rec]
            else:
                text += "" if text.endswith("\n") else "\n"
                codes = np.frombuffer(text.encode(), np.uint8)
                seps = codes[(codes == ord(",")) | (codes == ord("\n"))]
                wrong = np.flatnonzero(seps != np.resize(_SEPARATORS, len(seps)))
                short = int(wrong[0]) // 4 if len(wrong) else None
                tokens = text.replace("\n", ",").split(",")[: -1 if short is None else 4 * short]
            yield [tokens[k::4] for k in range(4)], None if short is None else rows + short
            rows += len(tokens) // 4


def _codes(levels: dict[str, int], column: list[str]) -> np.ndarray:
    """Each value's number in ``levels``, where new values are numbered as first seen."""
    for value in set(column).difference(levels):
        levels[value] = len(levels)
    return np.fromiter(map(levels.__getitem__, column), np.intp, len(column))


def _in_order(levels: dict[str, int], codes: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The sorted values, and ``codes`` renumbered to match."""
    values = sorted(levels)
    rank = np.empty(len(values), dtype=np.intp)
    rank[[levels[v] for v in values]] = np.arange(len(values))
    return values, rank[codes]


def load_intraday_csv(path: str | Path, grid_seconds: int = 300) -> ReturnPanel:
    """Load ``date,time,ticker,price`` rows into a gridded return panel.

    Tickers are ordered alphabetically.  Each day is resampled on a
    ``grid_seconds``-spaced grid spanning the interval where every ticker has
    traded, carrying the last observation forward; of several ticks of one
    ticker in the same second the highest price counts.  Log returns are
    taken between consecutive grid points.  The first malformed row raises
    :class:`SeriesFormatError` naming its line.
    """
    if grid_seconds < 1:
        raise ValueError("grid_seconds must be positive")
    dates, times, names = {}, {}, {}  # each value's number, as first seen
    parts: list[tuple[np.ndarray, ...]] = [(np.zeros(0, np.intp),) * 3 + (np.zeros(0),)]
    short = None
    for (date_col, time_col, name_col, price_col), short in _tick_blocks(path):
        try:
            prices = np.array(price_col, dtype=float)
        except ValueError:  # unparseable prices become NaN, which the row check names
            prices = np.array([_or_none(float, v) for v in price_col], dtype=float)
        codes = (_codes(dates, date_col), _codes(times, time_col), _codes(names, name_col))
        parts.append((*codes, prices))
        if short is not None:
            break
    day_code, time_code, ticker_code, prices = (np.concatenate(c) for c in zip(*parts))
    del parts
    days = [_or_none(_day, d) for d in dates]
    seconds = [_or_none(_seconds, t) for t in times]
    bad = ~((prices > 0.0) & (prices < np.inf))
    bad |= np.array([d is None for d in days], dtype=bool)[day_code]
    bad |= np.array([s is None for s in seconds], dtype=bool)[time_code]
    if bad.any() or short is not None:
        _check_tick(path, int(np.argmax(bad)) if bad.any() else short)
    if len(prices) == 0:
        raise SeriesFormatError(f"{path}: no records")
    date_levels, day_code = _in_order(dates, day_code)
    tickers, ticker_code = _in_order(names, ticker_code)
    n = len(tickers)

    # One key per (day, ticker, rank of seconds): rows sorted with one
    # argsort, and the ticks of one key collapsed to the highest price.
    ranks = np.array(sorted(set(seconds)), dtype=np.int64)

    def key(group: np.ndarray, secs: np.ndarray) -> np.ndarray:
        return group * (len(ranks) + 1) + np.searchsorted(ranks, secs, side="right")

    keys = key(day_code * n + ticker_code, np.array(seconds, dtype=np.int64)[time_code])
    del day_code, time_code, ticker_code  # row arrays go as soon as they are used: peak RSS
    order = np.argsort(keys)
    keys, prices = keys[order], prices[order]
    del order
    firsts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    keys, prices = keys[firsts], np.maximum.reduceat(prices, firsts)
    group, rank = np.divmod(keys, len(ranks) + 1)
    secs = ranks[rank - 1]
    bounds = np.searchsorted(group, np.arange(len(dates) * n + 1))  # of each (day, ticker)
    present = (bounds[1:] > bounds[:-1]).reshape(-1, n)
    start = secs[np.minimum(bounds[:-1], len(secs) - 1)].reshape(-1, n).max(axis=1)
    stop = secs[bounds[1:] - 1].reshape(-1, n).min(axis=1)
    points = np.where(stop >= start, (stop - start) // grid_seconds + 1, 0)
    failed = ~present.all(axis=1) | (points < 2)
    if failed.any():
        d = int(np.argmax(failed))
        missing = [t for t, here in zip(tickers, present[d]) if not here]
        if missing:
            raise SeriesFormatError(f"{path}: date {date_levels[d]} missing tickers {missing}")
        raise SeriesFormatError(
            f"{path}: date {date_levels[d]} has fewer than two grid points at "
            f"{grid_seconds}s spacing"
        )

    # Every day's grid in one array; the quote carried to a grid time is the
    # last key of its (day, ticker) at or before it, found by one searchsorted.
    point_day = np.repeat(np.arange(len(dates)), points)
    grid = start[point_day] + grid_seconds * (
        np.arange(len(point_day)) - np.repeat(np.cumsum(points) - points, points)
    )
    point_groups = point_day[:, None] * n + np.arange(n)
    carried = np.searchsorted(keys, key(point_groups, grid[:, None]), side="right")
    returns = log_returns(prices[carried - 1])[point_day[1:] == point_day[:-1]]
    return ReturnPanel(
        np.array([days[dates[d]] for d in date_levels], dtype="datetime64[D]"),
        np.split(returns, np.cumsum(points - 1)[:-1]),
        tickers,
    )


def realized_series(panel: ReturnPanel) -> CovSeries:
    """Daily realized covariances from a gridded return panel, from one stacked ``eigh``."""
    return CovSeries(panel.dates, SpdMatrix.stack([_cross_product(r) for r in panel.returns]))
