"""Correctness checks on a finished workflow, computed apart from spdcast.

Every check reads the files the CLI wrote and recomputes what it can with
NumPy alone, or tests a property the method must have.  Each returns a list
of problems; an empty list means the check passed.  Nothing here imports
``spdcast``: the MatBin reader is written from the documented layout.
"""

from __future__ import annotations

import csv
import hashlib
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# MatBin: header magic, version, side, count (``<4sIIQ``); then per record
# an int64 day count since 1970-01-01 and the row-major float64 matrix.
MATBIN_HEADER = struct.Struct("<4sIIQ")
MATBIN_MAGIC = b"SPDS"
MATBIN_VERSION = 1
TRADING_DAYS = 252


class MatBinError(ValueError):
    pass


@dataclass
class MatSeries:
    dates: np.ndarray  # datetime64[D]
    mats: np.ndarray  # (count, side, side)

    def position(self) -> dict[np.datetime64, int]:
        return {d: i for i, d in enumerate(self.dates.tolist())}


def read_matbin(path: Path) -> MatSeries:
    raw = Path(path).read_bytes()
    if len(raw) < MATBIN_HEADER.size:
        raise MatBinError(f"{path}: truncated header")
    magic, version, side, count = MATBIN_HEADER.unpack_from(raw)
    if magic != MATBIN_MAGIC or version != MATBIN_VERSION:
        raise MatBinError(f"{path}: bad magic {magic!r} or version {version}")
    record = np.dtype([("day", "<i8"), ("mat", "<f8", (side, side))])
    if len(raw) != MATBIN_HEADER.size + count * record.itemsize:
        raise MatBinError(f"{path}: {len(raw)} bytes do not hold {count} records of side {side}")
    recs = np.frombuffer(raw, dtype=record, count=count, offset=MATBIN_HEADER.size)
    dates = np.datetime64("1970-01-01", "D") + recs["day"].astype("timedelta64[D]")
    return MatSeries(dates, recs["mat"].astype(float))


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_table(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_dated_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """A ``date,<column>,...`` file (returns, weight paths) as (dates, values)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    dates = np.array([r[0] for r in rows[1:]], dtype="datetime64[D]")
    return dates, np.array([[float(x) for x in r[1:]] for r in rows[1:]])


def _logm(mats: np.ndarray) -> np.ndarray:
    values, vectors = np.linalg.eigh(mats)
    return (vectors * np.log(values)[..., None, :]) @ np.swapaxes(vectors, -1, -2)


def le_distances(pred: np.ndarray, real: np.ndarray) -> np.ndarray:
    """Log-Euclidean distance per date, ``||logm(P) - logm(R)||_F``; NaN where not SPD."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.linalg.norm(_logm(pred) - _logm(real), axis=(1, 2))


def frobenius_losses(pred: np.ndarray, real: np.ndarray) -> np.ndarray:
    return np.sum((pred - real) ** 2, axis=(1, 2))


# ---------------------------------------------------------------------------
# Forecast checks


def check_rw(series: MatSeries, rw: MatSeries) -> list[str]:
    """The random walk's forecast for date t is the realized matrix at t-1, bit for bit."""
    pos = series.position()
    problems = []
    for d, m in zip(rw.dates.tolist(), rw.mats):
        i = pos.get(d)
        if i is None or i == 0:
            problems.append(f"rw: forecast date {d} has no previous realized matrix")
        elif not np.array_equal(m, series.mats[i - 1]):
            problems.append(f"rw: forecast for {d} differs from the realized matrix of the day before")
    return problems


def check_spd(model: str, fc: MatSeries) -> list[str]:
    """Every forecast is symmetric with strictly positive eigenvalues."""
    problems = []
    scale = np.abs(fc.mats).max(axis=(1, 2))
    asym = np.abs(fc.mats - np.swapaxes(fc.mats, 1, 2)).max(axis=(1, 2))
    for k in np.flatnonzero(~(asym <= 1e-13 * scale)):
        problems.append(f"{model}: forecast for {fc.dates[k]} is not symmetric")
    sym = 0.5 * (fc.mats + np.swapaxes(fc.mats, 1, 2))
    lowest = np.linalg.eigvalsh(sym)[:, 0]
    for k in np.flatnonzero(~(lowest > 0.0)):
        problems.append(f"{model}: forecast for {fc.dates[k]} has eigenvalue {lowest[k]:.3e}")
    return problems


def check_hashes(first: dict[str, str], current: dict[str, str], what: str) -> list[str]:
    """Forecast files of one seed have the same SHA-256 every time they are written."""
    differ = sorted(m for m in first.keys() | current.keys() if first.get(m) != current.get(m))
    return [f"{what}: forecast files of {differ} differ"] if differ else []


def check_dates(model: str, fc: MatSeries, expected: np.ndarray) -> tuple[int, list[str]]:
    """Number of expected test dates missing from a forecast file."""
    have = set(fc.dates.tolist())
    missing = [d for d in expected.tolist() if d not in have]
    problems = [f"{model}: {len(missing)} test dates missing (first {missing[0]})"] if missing else []
    return len(missing), problems


# ---------------------------------------------------------------------------
# Evaluation checks


def check_avg_loss(
    table: list[dict[str, str]], metric: str, forecasts: dict[str, MatSeries], realized: MatSeries
) -> list[str]:
    """Frobenius and log-Euclidean avg_loss columns against a NumPy recomputation."""
    fn = {"frobenius": frobenius_losses, "log_euclidean": le_distances}[metric]
    problems = []
    for row in table:
        fc = forecasts[row["model"]]
        if not np.array_equal(fc.dates, realized.dates):
            problems.append(f"{metric}: {row['model']} dates differ from the realized span")
            continue
        want = float(np.mean(fn(fc.mats, realized.mats)))
        got = float(row["avg_loss"])
        if not abs(got - want) <= 1e-9 * abs(want):
            problems.append(f"{metric}: {row['model']} avg_loss {got!r} != recomputed {want!r}")
    return problems


def check_mcs(table: list[dict[str, str]], alpha: float, label: str) -> list[str]:
    """Confidence-set properties: p in [0, 1], a survivor at p = 1,
    membership exactly p >= alpha, p non-decreasing along the elimination order."""
    problems = []
    p = {r["model"]: float(r["mcs_pvalue"]) for r in table}
    for r in table:
        if not 0.0 <= p[r["model"]] <= 1.0:
            problems.append(f"{label}: {r['model']} p-value {p[r['model']]} outside [0, 1]")
        if (r["in_ssm"] == "1") != (p[r["model"]] >= alpha):
            problems.append(f"{label}: {r['model']} in_ssm={r['in_ssm']} with p={p[r['model']]}")
    survivors = [r["model"] for r in table if r["eliminated_rank"] == ""]
    ranked = sorted((int(r["eliminated_rank"]), p[r["model"]]) for r in table if r["eliminated_rank"] != "")
    # Without an elimination round (too few observations) every model survives at p = 1.
    if not survivors or any(p[s] != 1.0 for s in survivors) or (ranked and len(survivors) != 1):
        problems.append(f"{label}: expected one survivor with p = 1, got {survivors}")
    if [k for k, _ in ranked] != list(range(len(ranked))):
        problems.append(f"{label}: elimination ranks are not 0..{len(ranked) - 1}")
    path = [q for _, q in ranked] + [p[s] for s in survivors]
    if any(b < a for a, b in zip(path, path[1:])):
        problems.append(f"{label}: p-values decrease along the elimination order {path}")
    return problems


# ---------------------------------------------------------------------------
# Portfolio checks


def check_gmv(model: str, weights: np.ndarray, fc: MatSeries) -> list[str]:
    """Unconstrained GMV weights equal ``S^-1 1 / 1'S^-1 1`` on each forecast."""
    raw = np.linalg.solve(fc.mats, np.ones(fc.mats.shape[:2])[..., None])[..., 0]
    want = raw / raw.sum(axis=1, keepdims=True)
    err = np.abs(weights - want).max(axis=1) / np.abs(want).max(axis=1)
    return [f"{model}: GMV weights on {fc.dates[k]} differ from the solve by {err[k]:.2e}"
            for k in np.flatnonzero(~(err <= 1e-8))]


def check_long_only(model: str, weights: np.ndarray) -> list[str]:
    problems = []
    if not np.all(weights >= 0.0):
        problems.append(f"{model}: long-only weights go negative ({weights.min():.3e})")
    if not np.all(np.abs(weights.sum(axis=1) - 1.0) <= 1e-12):
        problems.append(f"{model}: long-only weights do not sum to 1")
    return problems


def sigma_p(weights: np.ndarray, returns: np.ndarray) -> float:
    r = np.sum(weights * returns, axis=1)
    return float(np.sqrt(TRADING_DAYS * np.mean((r - r.mean()) ** 2)))


def check_sigma(report: list[dict[str, str]], weights: dict[tuple[str, str], np.ndarray],
                returns: np.ndarray) -> list[str]:
    """Each sigma_p in the report against a recomputation from weights and returns."""
    problems = []
    for row in report:
        key = (row["model"], row["portfolio_type"])
        if key == ("naive", "static"):
            w = np.full(returns.shape, 1.0 / returns.shape[1])
        elif key in weights:
            w = weights[key]
        else:
            problems.append(f"portfolio: no weights for {key}")
            continue
        want, got = sigma_p(w, returns), float(row["sigma_p"])
        if not abs(got - want) <= 1e-9 * want:
            problems.append(f"portfolio: {key} sigma_p {got!r} != recomputed {want!r}")
    return problems


# ---------------------------------------------------------------------------
# Ingestion check


def check_ingest(series: MatSeries, returns_dates: np.ndarray, returns: np.ndarray,
                 expected) -> list[str]:
    """Ingested covariances and daily returns against the tick generator's own."""
    problems = []
    if not (np.array_equal(series.dates, expected.dates)
            and np.array_equal(returns_dates, expected.dates)):
        return ["ingest: dates differ from the generated tick file"]
    scale = np.abs(expected.realized).max(axis=(1, 2))
    err = np.abs(series.mats - expected.realized).max(axis=(1, 2)) / scale
    for k in np.flatnonzero(~(err <= 1e-12)):
        problems.append(f"ingest: realized covariance on {expected.dates[k]} off by {err[k]:.2e}")
    if returns.shape != expected.returns.shape:
        return problems + ["ingest: returns have the wrong shape"]
    r_scale = np.sqrt(np.einsum("kii->k", expected.realized))
    r_err = np.abs(returns - expected.returns).max(axis=1) / r_scale
    for k in np.flatnonzero(~(r_err <= 1e-12)):
        problems.append(f"ingest: daily return on {expected.dates[k]} off by {r_err[k]:.2e}")
    return problems
