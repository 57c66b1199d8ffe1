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
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .config import _open_text
from .exceptions import DecompositionError, DimensionMismatchError, SeriesFormatError
from .frechet import METRIC_PROCRUSTES, FrechetConfig, rolling_means
from .spd import (
    SpdMatrix,
    _check_records,
    _freeze,
    _recompose,
    _symmetrize,
    ensure_pd_values,
    expm,
    logm_stack,
    sqrtm_stack,
    validate_stack,
)

__all__ = [
    "FORMAT_MATBIN",
    "FORMAT_CSVLONG",
    "CovSeries",
    "ReturnPanel",
    "SupervisedSet",
    "log_returns",
    "blockdiag_spd",
    "build_lagged_inputs",
    "build_geohar_inputs",
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

# The HAR horizons: a GeoHAR input holds the means of the last week and month.
HAR_WEEK = 5
HAR_MONTH = 22

log = logging.getLogger(__name__)


def _as_dates(dates: Sequence) -> np.ndarray:
    arr = np.asarray(dates, dtype="datetime64[D]")
    if arr.ndim != 1:
        raise SeriesFormatError(f"dates must be one-dimensional, got shape {arr.shape}")
    return arr


class CovSeries:
    """Dated sequence of same-dimension PSD matrices, strictly increasing dates.

    ``CovSeries(dates, data)`` validates a ``(T, n, n)`` array as
    :class:`SpdMatrix` does, with one stacked ``eigh`` (given ``error``, a
    rejected matrix t raises ``error(t, exc)``), and keeps the read-only
    symmetrized ``data`` and its descending eigenvalue and eigenvector
    stacks ``values`` and ``vectors``.  ``series[t]`` is a read-only
    :class:`SpdMatrix` view of row t and ``series[rows]`` (a slice or an
    index array) the series of those rows; neither decomposes anything
    again.  Derived stacks are built once per series; see :meth:`stack`.
    """

    def __init__(self, dates: Sequence, data: np.ndarray,
                 error: Callable[[int, Exception], Exception] | None = None) -> None:
        try:
            data = np.asarray(data, dtype=float)
        except ValueError as exc:
            raise DimensionMismatchError(f"series is not dimension-uniform: {exc}") from None
        dates = _as_dates(dates)
        if len(dates) != len(data):
            raise SeriesFormatError(f"{len(dates)} dates but {len(data)} matrices")
        self._set(dates, *validate_stack(data, error))

    def _set(self, dates: np.ndarray, *arrays: np.ndarray) -> "CovSeries":
        if len(dates) == 0:
            raise SeriesFormatError("empty series")
        if not np.all(dates[1:] > dates[:-1]):
            raise SeriesFormatError("dates must be strictly increasing")
        self.dates = dates
        self.data, self.values, self.vectors = (_freeze(a) for a in arrays)
        self._stacks: dict = {}
        return self

    @classmethod
    def accepted(cls, dates: np.ndarray, data: np.ndarray) -> tuple["CovSeries | None", dict]:
        """The series of the matrices in ``data`` that :class:`SpdMatrix` accepts, from one
        stacked check, and the error of each it rejects, keyed by row in ascending order."""
        *arrays, rejected = _check_records(np.asarray(data, dtype=float))
        kept = np.delete(np.arange(len(data)), list(rejected))
        if not len(kept):
            return None, rejected
        return object.__new__(cls)._set(dates[kept], *(a[kept] for a in arrays)), rejected

    def __len__(self) -> int:
        return len(self.data)

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def __getitem__(self, key):
        arrays = (self.data[key], self.values[key], self.vectors[key])
        if isinstance(key, (int, np.integer)):
            return SpdMatrix._view(*arrays)
        return object.__new__(CovSeries)._set(self.dates[key], *arrays)

    def stack(self, kernel: Callable[["CovSeries"], tuple], rows=slice(None),
              failed: dict | None = None) -> np.ndarray:
        """Rows ``rows`` (a slice or an index array) of ``kernel(self)``'s stack,
        built once per series and kept.

        ``kernel`` returns the stack and, keyed by row in ascending order,
        the :class:`SpdcastError` of each row it could not build.  The call
        raises the first of those errors that ``rows`` holds: a failure is
        attributed only to the windows that contain its matrix.  Given a
        dict ``failed``, it records them there instead, keyed by index in ``rows``.
        """
        if kernel not in self._stacks:
            self._stacks[kernel] = kernel(self)
        built, errors = self._stacks[kernel]
        wanted = np.arange(len(built))[rows]
        for k in np.flatnonzero(np.isin(wanted, list(errors))):
            if failed is None:
                # Without the traceback of its last raise, which each raise
                # would otherwise extend.
                raise errors[wanted[k]].with_traceback(None)
            failed[int(k)] = errors[wanted[k]]
        return built[rows]


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
    """One-step supervised pairs as two series dated by their targets: the
    block-diagonal inputs and the matrices they forecast."""

    inputs: CovSeries
    targets: CovSeries


def _cross_product(day_returns: np.ndarray) -> np.ndarray:
    r = np.asarray(day_returns, dtype=float)
    if r.ndim != 2 or r.shape[0] < 1:
        raise DimensionMismatchError(
            f"expected an (observations, assets) block, got shape {r.shape}"
        )
    if not np.all(np.isfinite(r)):
        raise ValueError("returns must be finite")
    return r.T @ r


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


def _blockdiag_stack(blocks: Sequence[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, ...]:
    """Block diagonals from each block's ``(values, vectors)`` stacks, as matrix, eigenvalue
    and eigenvector stacks: row b is ``SpdMatrix._from_eig`` of the blocks' rows b, bit for bit."""
    values = np.concatenate([block_values for block_values, _ in blocks], axis=-1)
    vectors = np.zeros(values.shape + values.shape[-1:])
    ends = np.cumsum([block.shape[-1] for _, block in blocks])
    for (_, block), start, end in zip(blocks, np.r_[0, ends[:-1]], ends):
        vectors[:, start:end, start:end] = block
    order = np.argsort(-values, axis=-1, kind="stable")
    values = np.take_along_axis(values, order, axis=-1)
    vectors = np.take_along_axis(vectors, order[:, None, :], axis=-1)
    return _recompose(values, vectors), values, vectors


def blockdiag_spd(blocks: Sequence[SpdMatrix]) -> SpdMatrix:
    """Block-diagonal composition; the spectrum is the union of block spectra."""
    arrays = _blockdiag_stack([(b.eig.values[None], b.eig.vectors[None]) for b in blocks])
    return SpdMatrix._view(*(_freeze(a[0]) for a in arrays))


def _supervised(series: CovSeries, rows: slice, inputs: tuple[np.ndarray, ...]) -> SupervisedSet:
    return SupervisedSet(object.__new__(CovSeries)._set(series.dates[rows], *inputs), series[rows])


def _lagged_stack(series: CovSeries, positions: np.ndarray, lags: int) -> tuple[np.ndarray, ...]:
    """The lagged inputs at ``positions``: block diagonals of the ``lags`` matrices
    before each position, the latest top-left."""
    return _blockdiag_stack([(series.values[positions - j], series.vectors[positions - j])
                             for j in range(1, lags + 1)])


def build_lagged_inputs(series: CovSeries, lags: int) -> SupervisedSet:
    """Inputs stack the ``lags`` most recent matrices block-diagonally.

    The target at position t is the matrix at t; the input stacks positions
    t-1 (top-left) through t-lags.  Yields ``len(series) - lags`` pairs.
    """
    if lags < 1:
        raise ValueError(f"lags must be at least 1, got {lags}")
    if len(series) <= lags:
        raise ValueError(f"series of length {len(series)} too short for {lags} lags")
    positions = np.arange(lags, len(series))
    return _supervised(series, slice(lags, None), _lagged_stack(series, positions, lags))


def _series_logs(series: CovSeries) -> tuple[np.ndarray, dict]:
    """``logm(ensure_pd(m))`` of each matrix, the inputs of log-Euclidean means."""
    return logm_stack(ensure_pd_values(series.values), series.vectors)


def _series_roots(series: CovSeries) -> tuple[np.ndarray, dict]:
    """``sqrtm_psd(m)`` of each matrix, the inputs of Procrustes means; none fails."""
    return sqrtm_stack(series.values, series.vectors), {}


@dataclass(frozen=True)
class _HarMeans:
    """The series kernel of the HAR means under ``cfg``; equal configurations share a stack.

    Row ``t - HAR_MONTH`` of its stack, for each position t from HAR_MONTH to
    ``len(series)``, holds the eigenvalues ``(2, n)`` and eigenvectors
    ``(2, n, n)`` of the means of the HAR_WEEK and of the HAR_MONTH matrices
    before t, and each mean's fixed-point ``iters`` and whether it
    ``converged`` (0 and True for the closed-form log-Euclidean mean).  The
    means of each window length come from one :func:`rolling_means` call on
    the series' logarithms or roots; a Procrustes mean that exhausts
    ``cfg.max_iters`` is used, and logged.  A position fails with the first
    failed logarithm of its month.
    """

    cfg: FrechetConfig

    def __call__(self, series: CovSeries) -> tuple[np.ndarray, dict]:
        count, n = max(len(series) - HAR_MONTH + 1, 0), series.dim
        means = np.zeros(count, [("values", float, (2, n)), ("vectors", float, (2, n, n)),
                                 ("iters", int, 2), ("converged", bool, 2)])
        failed = {}
        stack = series.stack(_series_roots if self.cfg.metric == METRIC_PROCRUSTES
                             else _series_logs, failed=failed)
        bad = np.array(list(failed), dtype=int)
        if failed:  # finite stand-ins: every mean that reads a failed row fails below
            stack = np.where(np.isin(np.arange(len(stack)), bad)[:, None, None], 0.0, stack)
        for j, k in enumerate((HAR_WEEK, HAR_MONTH)):
            columns = rolling_means(stack[HAR_MONTH - k :], k, self.cfg)
            for name, column in zip(means.dtype.names, columns):
                means[name][:, j] = column
        for i, j in zip(*np.nonzero(~means["converged"])):
            log.warning("Procrustes mean of the %d matrices before position %d did not "
                        "converge in %d iterations", (HAR_WEEK, HAR_MONTH)[j], HAR_MONTH + i,
                        means["iters"][i, j])
        # The first failed row at or after each position's first month row i.
        first = np.append(bad, len(series))[np.searchsorted(bad, np.arange(count))]
        return means, {int(i): failed[int(first[i])]
                       for i in np.flatnonzero(first < np.arange(count) + HAR_MONTH)}


def procrustes_mean_counts(series: CovSeries, cfg: FrechetConfig) -> dict[str, int]:
    """The Procrustes means of the series' HAR stack under ``cfg``, their fixed-point
    iterations, and how many exhausted ``cfg.max_iters``."""
    means = series.stack(_HarMeans(cfg))
    return {"procrustes_means": int(means["iters"].size),
            "procrustes_iterations": int(means["iters"].sum()),
            "procrustes_unconverged": int((~means["converged"]).sum())}


def _geohar_stack(series: CovSeries, positions: np.ndarray, cfg: FrechetConfig,
                  failed: dict | None = None) -> tuple[np.ndarray, ...]:
    """The HAR inputs at ``positions``: block diagonals of the matrix before each
    and of its row of :class:`_HarMeans`.  A position that failed there raises,
    or, given a dict ``failed``, is recorded in it (see :meth:`CovSeries.stack`)."""
    if len(positions) and positions.min() < HAR_MONTH:
        raise IndexError(f"positions must be at least {HAR_MONTH}, got {positions.min()}")
    means = series.stack(_HarMeans(cfg), positions - HAR_MONTH, failed)
    return _blockdiag_stack([(series.values[positions - 1], series.vectors[positions - 1])]
                            + [(means["values"][:, j], means["vectors"][:, j]) for j in (0, 1)])


def build_geohar_inputs(
    series: CovSeries, cfg: FrechetConfig | None = None, train: slice | None = None
) -> SupervisedSet:
    """Supervised pairs of HAR inputs and the next matrix, within ``train``.

    The input at position t block-stacks the matrix at t-1 and the Fréchet
    means, under ``cfg``'s metric (default log-Euclidean), of the HAR_WEEK and
    of the HAR_MONTH matrices before t.  Only matrices in ``train`` (default:
    the whole series) enter, so the first target is HAR_MONTH positions into
    it.  The means are rows of one stack per series and configuration, so
    fits on overlapping windows and the forecasts after them share them.
    """
    window = range(len(series))[train or slice(None)]
    if window.step != 1 or len(window) <= HAR_MONTH:
        raise ValueError(f"training window of length {len(window)} too short for a "
                         f"{HAR_MONTH}-day window")
    positions = np.arange(window.start + HAR_MONTH, window.stop)
    inputs = _geohar_stack(series, positions, cfg or FrechetConfig())
    return _supervised(series, slice(positions[0], window.stop), inputs)


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
    vol: float = 0.5,
) -> tuple[CovSeries, np.ndarray]:
    """Synthetic realized covariances plus consistent daily returns.

    The latent log-covariance follows a stationary matrix AR(1) with the
    given persistence around zero (the identity covariance); each day ``df``
    intraday return vectors are drawn with covariance ``Sigma_t / df``, so
    the realized covariance is Wishart with ``df`` degrees of freedom and
    mean ``Sigma_t``, and the day's return is their sum, distributed
    N(0, Sigma_t).
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
    innovation = vol * np.sqrt(1.0 - persistence**2)
    state = _symmetric_noise(rng, n, vol)
    dates = np.datetime64("2000-01-03", "D") + np.arange(n_days)
    realized = np.zeros((n_days, n, n))
    daily_returns = np.zeros((n_days, n))
    for t in range(n_days):
        if t > 0:
            state = persistence * state + _symmetric_noise(rng, n, innovation)
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
    return CovSeries(dates, realized), daily_returns


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
        _write_matrix_records(path, keys, series.data)
    elif fmt == FORMAT_CSVLONG:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["date", "row", "col", "value"])
            n = series.dim
            for date, mat in zip(series.dates, series.data):
                for i in range(n):
                    for j in range(i, n):
                        writer.writerow([str(date), i, j, f"{mat[i, j]:.17g}"])
    else:
        raise ValueError(f"unknown format {fmt!r}")


def load_series(path: str | Path, fmt: str = FORMAT_MATBIN) -> CovSeries:
    """Read a series written by :func:`save_series`; validates as it builds.

    A record that is not a finite PSD matrix raises :class:`SeriesFormatError`
    naming the file and the record's date.
    """
    if fmt == FORMAT_MATBIN:
        keys, records = _read_matrix_records(path)
        dates = _EPOCH + keys
    elif fmt == FORMAT_CSVLONG:
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
        records = np.zeros((len(per_date), n, n))
        for mat, (date, entries) in zip(records, per_date.items()):
            if len(entries) != n * (n + 1) // 2:
                raise SeriesFormatError(
                    f"{path}: date {date} has {len(entries)} entries, "
                    f"expected {n * (n + 1) // 2}"
                )
            for (i, j), v in entries.items():
                if j >= n:
                    raise SeriesFormatError(f"{path}: date {date} exceeds dimension {n}")
                mat[i, j] = v
                mat[j, i] = v
        dates = np.array(list(per_date), dtype="datetime64[D]")
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return CovSeries(dates, records,
                     lambda i, exc: SeriesFormatError(f"{path}: date {dates[i]}: {exc}"))


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
    return CovSeries(panel.dates, [_cross_product(r) for r in panel.returns])
