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


def _day(date: str) -> np.datetime64:
    """The day whose ISO text ``date`` is, the date rule of every file reader: a
    text NumPy also reads another way (`` 2001-01-02``, ``2001-01``, ``20010103``,
    ``2001-01-02T10``) is not a day, so the tick reader may group days by text."""
    try:  # only digits and "-" reach NumPy, which warns on a time zone
        day = np.datetime64("NaT" if date.strip("0123456789-") else date, "D")
    except ValueError:
        day = np.datetime64("NaT")
    if np.isnat(day) or str(day) != date:
        raise ValueError(f"bad date {date!r}")
    return day


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

    def stack(self, kernel: Callable[["CovSeries"], np.ndarray]) -> np.ndarray:
        """``kernel(self)``, built once per series and kept."""
        if kernel not in self._stacks:
            self._stacks[kernel] = kernel(self)
        return self._stacks[kernel]


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
        self.returns = [np.asarray(r, dtype=float) for r in self.returns]
        for r in self.returns:
            if r.ndim != 2 or r.shape[1] != n:
                raise DimensionMismatchError(
                    f"return block of shape {r.shape} does not match {n} tickers"
                )
            if r.shape[0] < 1:
                raise DimensionMismatchError(
                    f"expected an (observations, assets) block, got shape {r.shape}"
                )
            if not np.all(np.isfinite(r)):
                raise ValueError("returns must be finite")


@dataclass
class SupervisedSet:
    """One-step supervised pairs: the ``(B, d, d)`` stack of block-diagonal
    inputs and the series of the matrices they forecast, which dates both."""

    inputs: np.ndarray
    targets: CovSeries


def log_returns(prices: np.ndarray) -> np.ndarray:
    """Log price differences along axis 0; prices must be strictly positive."""
    p = np.asarray(prices, dtype=float)
    if p.ndim != 2 or p.shape[0] < 2:
        raise DimensionMismatchError(
            f"expected at least two rows of prices, got shape {p.shape}"
        )
    if not np.all(p > 0.0):
        raise ValueError("prices must be strictly positive")
    ratios = p[1:] / p[:-1]
    return np.log(ratios, out=ratios)


def _blockdiag_stack(blocks: Sequence[np.ndarray], rows=slice(None)) -> np.ndarray:
    """Row b: the b-th of rows ``rows`` (a slice or an index array) of each ``(T, n_k, n_k)`` stack,
    gathered as it is placed, in order down the diagonal, and zeros elsewhere."""
    ends = np.cumsum([block.shape[-1] for block in blocks])
    out = np.zeros((len(np.arange(len(blocks[0]))[rows]), ends[-1], ends[-1]))
    for block, start, end in zip(blocks, np.r_[0, ends[:-1]], ends):
        out[:, start:end, start:end] = block[rows]
    return out


def blockdiag_spd(blocks: Sequence[SpdMatrix]) -> SpdMatrix:
    """Block-diagonal composition; the spectrum is the union of block spectra."""
    return SpdMatrix(_blockdiag_stack([b.data[None] for b in blocks])[0])


def build_lagged_inputs(series: CovSeries, lags: int) -> SupervisedSet:
    """Inputs stack the ``lags`` most recent matrices block-diagonally.

    The target at position t is the matrix at t; the input stacks positions
    t-1 (top-left) through t-lags.  Yields ``len(series) - lags`` pairs.
    """
    if lags < 1:
        raise ValueError(f"lags must be at least 1, got {lags}")
    if len(series) <= lags:
        raise ValueError(f"series of length {len(series)} too short for {lags} lags")
    blocks = [series.data[lags - j : len(series) - j] for j in range(1, lags + 1)]
    return SupervisedSet(_blockdiag_stack(blocks), series[lags:])


def _series_logs(series: CovSeries) -> np.ndarray:
    """``logm(ensure_pd(m))`` of each matrix, the inputs of log-Euclidean means."""
    return logm_stack(ensure_pd_values(series.values), series.vectors)


def _series_roots(series: CovSeries) -> np.ndarray:
    """``sqrtm_psd(m)`` of each matrix, the inputs of Procrustes means."""
    return sqrtm_stack(series.values, series.vectors)


@dataclass(frozen=True)
class _HarMeans:
    """The series kernel of the HAR means under ``cfg``; equal configurations share a stack.

    Row ``t - HAR_MONTH`` of its stack, for each position t from HAR_MONTH to
    ``len(series)``, holds the ``(2, n, n)`` means of the HAR_WEEK and of the
    HAR_MONTH matrices before t, each recomposed once from its eigenpairs,
    and each mean's fixed-point ``iters`` and whether it ``converged`` (0 and
    True for the closed-form log-Euclidean mean).  The means of each window
    length come from one :func:`rolling_means` call on the series'
    logarithms or roots; a Procrustes mean that exhausts ``cfg.max_iters``
    is used, and logged.  No position fails.
    """

    cfg: FrechetConfig

    def __call__(self, series: CovSeries) -> np.ndarray:
        count, n = max(len(series) - HAR_MONTH + 1, 0), series.dim
        means = np.zeros(count, [("mean", float, (2, n, n)), ("iters", int, 2),
                                 ("converged", bool, 2)])
        stack = series.stack(_series_roots if self.cfg.metric == METRIC_PROCRUSTES
                             else _series_logs)
        for j, k in enumerate((HAR_WEEK, HAR_MONTH)):
            values, vectors, iters, converged = rolling_means(stack[HAR_MONTH - k :], k, self.cfg)
            means["mean"][:, j] = _recompose(values, vectors)
            means["iters"][:, j], means["converged"][:, j] = iters, converged
        for i, j in zip(*np.nonzero(~means["converged"])):
            log.warning("Procrustes mean of the %d matrices before position %d did not "
                        "converge in %d iterations", (HAR_WEEK, HAR_MONTH)[j], HAR_MONTH + i,
                        means["iters"][i, j])
        return means


def procrustes_mean_counts(series: CovSeries, cfg: FrechetConfig) -> dict[str, int]:
    """The Procrustes means of the series' HAR stack under ``cfg``, their fixed-point
    iterations, and how many exhausted ``cfg.max_iters``."""
    means = series.stack(_HarMeans(cfg))
    return {"procrustes_means": int(means["iters"].size),
            "procrustes_iterations": int(means["iters"].sum()),
            "procrustes_unconverged": int((~means["converged"]).sum())}


def _geohar_stack(series: CovSeries, positions: np.ndarray, cfg: FrechetConfig) -> np.ndarray:
    """The HAR inputs at ``positions``: block diagonals of the matrix before each
    and of its means in :class:`_HarMeans`."""
    if len(positions) and positions.min() < HAR_MONTH:
        raise IndexError(f"positions must be at least {HAR_MONTH}, got {positions.min()}")
    means = series.stack(_HarMeans(cfg))["mean"].swapaxes(0, 1)
    return _blockdiag_stack([series.data[HAR_MONTH - 1 :], *means], positions - HAR_MONTH)


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
    return SupervisedSet(_geohar_stack(series, positions, cfg or FrechetConfig()),
                         series[positions[0] : window.stop])


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

    A ``csvlong`` date that is not exactly its ISO day raises
    :class:`SeriesFormatError` naming ``path:line``; a date that is not after
    the one before it, or a record that is not a finite PSD matrix, one
    naming the file and the date.
    """
    if fmt == FORMAT_MATBIN:
        keys, records = _read_matrix_records(path)
        if not len(keys):
            raise SeriesFormatError(f"{path}: no records")
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
                    if date not in per_date:
                        _day(date)
                    i, j, v = int(row), int(col), float(value)
                except ValueError as exc:
                    raise SeriesFormatError(f"{path}:{lineno}: {exc}") from None
                last = next(reversed(per_date), date)
                if date != last and date in per_date:  # its rows resume after another date's
                    raise SeriesFormatError(f"{path}: date {date} is not after {last}")
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
    later = dates[1:] > dates[:-1]
    if not later.all():
        k = int(np.argmin(later)) + 1
        raise SeriesFormatError(f"{path}: date {dates[k]} is not after {dates[k - 1]}")
    return CovSeries(dates, records,
                     lambda i, exc: SeriesFormatError(f"{path}: date {dates[i]}: {exc}"))


# ---------------------------------------------------------------------------
# Intraday ingestion


_TICK_HEADER = ["date", "time", "ticker", "price"]
_SEPARATORS = np.frombuffer(b",,,\n", np.uint8)  # those of one row of 4 fields
# Rows are read a block at a time, so that a block that falls back to csv
# holds its fields as strings only while it is parsed.
_BLOCK_CHARS = 1 << 17
_NO_TICKS = (np.zeros(0, "S1"),) * 3 + (np.zeros(0),)  # the columns of no rows


def _seconds(time_s: str) -> int:
    parts = time_s.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(f"bad time {time_s!r}")
    seconds = int(parts[0]) * 3600 + int(parts[1]) * 60 + (int(parts[2]) if len(parts) == 3 else 0)
    if not -(2**63) <= seconds < 2**63:  # seconds are held as int64
        raise ValueError(f"bad time {time_s!r}")
    return seconds


def _or_none(parse: Callable[[str], object], text: str):
    try:
        return parse(text)
    except ValueError:
        return None


def _check_tick(path: str | Path, row: int) -> None:
    """Raise the error of the row-th tick row, read as :mod:`csv` reads it, field by field."""
    with _open_text(path) as fh:
        try:
            rec = next(itertools.islice(csv.reader(fh), row + 1, None))
        except csv.Error as exc:  # a field longer than csv reads
            raise SeriesFormatError(f"{path}:{row + 2}: {exc}") from None
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


def _escaped(values: Sequence[str]) -> np.ndarray:
    """``values`` as a bytes column: UTF-8, with \\0 and \\1 written \\1\\1 and \\1\\2, so no
    value ends in the NUL that NumPy's bytes type drops and byte order is code-point order."""
    return np.array([v.encode().replace(b"\1", b"\1\2").replace(b"\0", b"\1\1")
                     for v in values], "S")


def _text(value: bytes) -> str:
    """The string that :func:`_escaped` wrote as ``value``."""
    return value.replace(b"\1\1", b"\0").replace(b"\1\2", b"\1").decode()


def _c_block(text: str) -> tuple[tuple[np.ndarray, ...], int | None] | None:
    """The columns of a block of rows from NumPy's C reader, and its first row without
    4 fields; None if the block holds a non-ASCII character, a ``"``, a control
    character other than the line break, a field longer than :mod:`csv` reads, or a
    price the reader rejects.  No field becomes a Python string."""
    if not text.isascii() or '"' in text:
        return None
    text += "" if text.endswith("\n") else "\n"
    codes = np.frombuffer(text.encode(), np.uint8)
    ends = np.flatnonzero((codes == ord(",")) | (codes == ord("\n")))
    seps = codes[ends]
    if np.count_nonzero(codes < ord(" ")) != np.count_nonzero(seps == ord("\n")):
        return None
    rows = len(seps) // 4
    wrong = (seps[: 4 * rows].reshape(rows, 4) != _SEPARATORS).any(axis=1)
    short = int(np.argmax(wrong)) if wrong.any() else rows if len(seps) % 4 else None
    good = rows if short is None else short
    if good == 0:
        return _NO_TICKS, short
    # Each column as wide as its widest field, so nothing is cut.
    widths = (np.diff(ends[: 4 * good], prepend=-1) - 1).reshape(good, 4).max(axis=0)
    if widths.max() > csv.field_size_limit():  # a row error on both paths
        return None
    fields = [(name, f"S{max(w, 1)}") for name, w in zip(_TICK_HEADER[:3], widths.tolist())]
    try:
        table = np.loadtxt(io.StringIO(text[: ends[4 * good - 1] + 1]),
                           dtype=fields + [("price", float)], delimiter=",", comments=None,
                           quotechar=None, ndmin=1)
    except ValueError:
        return None
    return tuple(table[name] for name in _TICK_HEADER), short


def _csv_block(text: str, fh) -> tuple[tuple[np.ndarray, ...], int | None]:
    """The columns of a block read by :mod:`csv`, field by field, and its first row
    without 4 fields, or that csv cannot read (a field over its size limit).  A
    quoted field may run past the block: csv reads on from ``fh`` to the end of
    its row.  A price that ``float`` rejects is NaN."""
    lines = text.count("\n") + (not text.endswith("\n"))
    reader = csv.reader(itertools.chain(io.StringIO(text), fh))
    records = []
    try:
        for rec in reader:
            records.append(rec)
            if reader.line_num >= lines:
                break
    except csv.Error:
        records.append([])  # :func:`_check_tick` raises its error
    short = next((i for i, rec in enumerate(records) if len(rec) != 4), None)
    kept = records[:short]
    dates, times, names, prices = zip(*kept) if kept else ((),) * 4
    return (_escaped(dates), _escaped(times), _escaped(names),
            np.array([_or_none(float, v) for v in prices], dtype=float)), short


def _tick_blocks(path: str | Path) -> Iterator[tuple[tuple[np.ndarray, ...], int | None]]:
    """The date, time and ticker columns (bytes, as :func:`_escaped` writes them) and
    the prices of each block of rows, and the first row without 4 fields.

    A block ends before that row (None while there is none).  Fields are
    counted with byte masks.  A block of ASCII text without a ``"`` goes
    through NumPy's C reader (:func:`_c_block`); any other block, and one
    that reader rejects, through :mod:`csv` (:func:`_csv_block`), so quoted
    fields parse and a price reads as ``float`` reads it.
    """
    with _open_text(path, None) as fh:
        first = fh.readline()
        try:
            header = next(csv.reader([first])) if first else None
        except csv.Error as exc:
            raise SeriesFormatError(f"{path}:1: {exc}") from None
        if header != _TICK_HEADER:
            raise SeriesFormatError(f"{path}: bad header {header}")
        rows = 0
        while text := fh.read(_BLOCK_CHARS) + fh.readline():
            columns, short = _c_block(text) or _csv_block(text, fh)
            yield columns, None if short is None else rows + short
            rows += len(columns[3])


def _distinct(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of a bytes column in byte order, and each row's index among
    them (int32).

    One ``np.unique`` runs over the first row of each run of equal rows, as
    big-endian integers where a value fits in 8 bytes.
    """
    keys = column.astype("S8").view(">u8") if column.itemsize <= 8 else column
    heads = np.flatnonzero(np.r_[len(keys) > 0, keys[1:] != keys[:-1]])
    values, inverse = np.unique(keys[heads], return_inverse=True)
    return (values.view(f"S{keys.itemsize}"),
            np.repeat(inverse.astype(np.int32), np.diff(np.r_[heads, len(keys)])))


def _numbering(parts: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """The distinct values of a column, given those of each of its blocks, and each
    block's values' indices among them."""
    wide = max(part.itemsize for part in parts) > 8
    keys = parts if wide else [part.astype("S8").view(">u8") for part in parts]  # as in _distinct
    values = np.unique(np.concatenate(keys, dtype=None if wide else ">u8"))
    return values.view(f"S{values.itemsize}"), [np.searchsorted(values, k) for k in keys]


def _clock_seconds(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Seconds after midnight of each distinct time, and which are malformed: one
    vectorized pass reads ``HH:MM:SS``, and :func:`_seconds` any other form."""
    chars = values.view(np.uint8).reshape(len(values), values.itemsize)
    digits = chars[:, [0, 1, 3, 4, 6, 7]] - np.uint8(ord("0"))  # a byte below "0" wraps past 9
    clock = ((digits <= 9).all(axis=1)
             & (chars[:, [2, 5]] == ord(":")).all(axis=1) & (chars[:, 8:] == 0).all(axis=1))
    seconds = digits @ np.array([36000, 3600, 600, 60, 10, 1])
    others = np.flatnonzero(~clock)
    parsed = [_or_none(_seconds, _text(v)) for v in values[others]]
    seconds[others] = [0 if s is None else s for s in parsed]
    bad = np.zeros(len(values), dtype=bool)
    bad[others] = [s is None for s in parsed]
    return seconds, bad


def load_intraday_csv(path: str | Path, grid_seconds: int = 300) -> ReturnPanel:
    """Load ``date,time,ticker,price`` rows into a gridded return panel.

    Tickers are ordered alphabetically, and days by the text of their dates.
    Each day is resampled on a ``grid_seconds``-spaced grid spanning the
    interval where every ticker has traded, carrying the last observation
    forward; of several ticks of one ticker in the same second the highest
    price counts.  Log returns are taken between consecutive grid points.
    The first malformed row raises :class:`SeriesFormatError` naming its
    line.  Blocks of rows are parsed by :func:`_tick_blocks`, and each
    block keeps only its prices and, per column, its distinct values and
    each row's index among them; only the distinct values of the whole file
    are decoded and parsed.  Row arrays are dropped as soon as they are
    used, which bounds peak memory at a few machine words per row.
    """
    if grid_seconds < 1:
        raise ValueError("grid_seconds must be positive")
    # Each block's rows go into arrays grown in place (realloc), with each text
    # column's index among that block's distinct values, which go in ``values``.
    codes, prices, offsets, values = np.zeros((0, 3), np.int32), np.zeros(0), [0], []
    short = None
    for (*texts, block_prices), short in _tick_blocks(path):
        lo, hi = offsets[-1], offsets[-1] + len(block_prices)
        if hi > len(prices):  # resize zero-fills, so what is reserved is resident
            prices.resize(hi + hi // 4, refcheck=False)
            codes.resize((hi + hi // 4, 3), refcheck=False)
        prices[lo:hi] = block_prices
        numbered = [_distinct(c) for c in texts]
        codes[lo:hi] = np.column_stack([c for _, c in numbered])
        values.append([v for v, _ in numbered])
        offsets.append(hi)
        if short is not None:
            break
    if not values:
        raise SeriesFormatError(f"{path}: no records")
    (date_values, date_at), (time_values, time_at), (name_values, name_at) = (
        _numbering([v[k] for v in values]) for k in range(3))
    dates = [_text(d) for d in date_values]
    days = [_or_none(_day, d) for d in dates]
    bad_day = np.array([d is None for d in days], dtype=bool)
    seconds, bad_time = _clock_seconds(time_values)
    tickers = [_text(t) for t in name_values]
    n = len(tickers)

    # One key per (day, ticker, rank of seconds), formed block by block: rows
    # sorted with one argsort, and the ticks of one key collapsed to the
    # highest price.
    ranks = np.unique(seconds)
    span = len(ranks) + 1  # keys per (day, ticker)
    rank_at = np.searchsorted(ranks, seconds, "right")
    keys = np.empty(offsets[-1], np.int64)
    for i, (lo, hi) in enumerate(zip(offsets, offsets[1:])):
        day, time, name = (at[i][codes[lo:hi, k]]
                           for k, at in enumerate((date_at, time_at, name_at)))
        bad = ~((prices[lo:hi] > 0.0) & (prices[lo:hi] < np.inf)) | bad_day[day] | bad_time[time]
        if bad.any():
            _check_tick(path, lo + int(np.argmax(bad)))
        keys[lo:hi] = (day * n + name) * span + rank_at[time]
    if short is not None:
        _check_tick(path, short)
    del codes, values, date_at, time_at, name_at
    prices.resize(len(keys), refcheck=False)
    order = np.argsort(keys)
    keys = keys[order]
    prices = prices[order]
    del order
    firsts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    prices = np.maximum.reduceat(prices, firsts)
    keys = keys[firsts]
    del firsts
    bounds = np.searchsorted(keys, np.arange(len(dates) * n + 1) * span)  # of each (day, ticker)
    present = (bounds[1:] > bounds[:-1]).reshape(-1, n)
    first, last = np.minimum(bounds[:-1], len(keys) - 1), bounds[1:] - 1
    start = ranks[keys[first] % span - 1].reshape(-1, n).max(axis=1)
    stop = ranks[keys[last] % span - 1].reshape(-1, n).min(axis=1)
    points = np.where(stop >= start, (stop - start) // grid_seconds + 1, 0)
    failed = ~present.all(axis=1) | (points < 2)
    if failed.any():
        d = int(np.argmax(failed))
        missing = [t for t, here in zip(tickers, present[d]) if not here]
        if missing:
            raise SeriesFormatError(f"{path}: date {dates[d]} missing tickers {missing}")
        raise SeriesFormatError(
            f"{path}: date {dates[d]} has fewer than two grid points at "
            f"{grid_seconds}s spacing"
        )

    # Every day's grid in one array; the quote carried to a grid time is the
    # last key of its (day, ticker) at or before it, found by one searchsorted.
    point_day = np.repeat(np.arange(len(dates)), points)
    grid = start[point_day] + grid_seconds * (
        np.arange(len(point_day)) - np.repeat(np.cumsum(points) - points, points)
    )
    grid_keys = ((point_day[:, None] * n + np.arange(n)) * span
                 + np.searchsorted(ranks, grid, "right")[:, None])
    carried = np.searchsorted(keys, grid_keys, side="right") - 1
    del keys, grid_keys
    quotes = prices[carried]
    del prices, carried
    returns = log_returns(quotes)
    ends = np.cumsum(points)  # each day's returns end before the one into the next day
    return ReturnPanel(
        np.array(days, dtype="datetime64[D]"),
        [returns[end - count : end - 1] for end, count in zip(ends.tolist(), points.tolist())],
        tickers,
    )


def realized_series(panel: ReturnPanel) -> CovSeries:
    """Daily realized covariances from a gridded return panel, from one stacked ``eigh``."""
    return CovSeries(panel.dates, [r.T @ r for r in panel.returns])
