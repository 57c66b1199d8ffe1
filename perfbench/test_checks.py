"""Each correctness check passes on a real workflow and rejects a corrupted one.

    python3 -m pytest perfbench/test_checks.py -q

The fixtures run the CLI once on a tiny simulated config and once on a tiny
generated tick file; every test then corrupts a copy of those outputs.
"""

from __future__ import annotations

import shutil
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
from ticks import TickSpec  # noqa: E402
from workloads import Workload, _common, _with_data, prepare  # noqa: E402


def _tiny(name: str, roster: str, models: tuple, data: dict, ticks=None) -> Workload:
    sections = _with_data(_common(roster, window=40, refit_every=0, epochs=1), data)
    sections["evaluate"]["replicates"] = 200
    return Workload(name, "ingest" if ticks else "simulate", models, sections, ticks)


SIM = _tiny("tiny_sim", "rw, favar, respdnet:lags=1, geohar:metric=procrustes",
            ("rw", "favar", "respdnet1_le", "geohar_pro_le"),
            {"source": "simulate", "n": 3, "days": 80, "persistence": 0.9, "df": 8})
TICKS = _tiny("tiny_ticks", "rw, respdnet:lags=1", ("rw", "respdnet1_le"),
              {"source": "intraday", "grid_seconds": 600},
              TickSpec(tickers=3, days=70, grid_seconds=600, intervals=12, off_grid_rate=0.5))


def _workflow(wl: Workload, base: Path):
    config, expected = prepare(wl, base, seed=7)
    rnd = run.process_round(wl, config, base / "out", 7, base / "stages.log")
    return config, expected, rnd


@pytest.fixture(scope="module")
def sim_run(tmp_path_factory):
    return _workflow(SIM, tmp_path_factory.mktemp("sim"))


@pytest.fixture(scope="module")
def tick_run(tmp_path_factory):
    return _workflow(TICKS, tmp_path_factory.mktemp("ticks"))


@pytest.fixture
def sim_copy(sim_run, tmp_path):
    _, _, rnd = sim_run
    out = tmp_path / "out"
    shutil.copytree(rnd.out, out)
    return run.Round(out, exit_codes=dict(rnd.exit_codes))


def _rejected(wl: Workload, rnd: run.Round, expected=None, phrase: str = "") -> list[str]:
    verdict = run.check_round(wl, rnd, expected)
    assert verdict.problems, "the corruption went unnoticed"
    assert verdict.failed == verdict.attempted
    if phrase:
        assert any(phrase in p for p in verdict.problems), verdict.problems
    return verdict.problems


def _patch_record(path: Path, index: int, fn) -> None:
    series = checks.read_matbin(path)
    mats = series.mats.copy()
    mats[index] = fn(mats[index])
    _write_matbin(path, series.dates, mats)


def _write_matbin(path: Path, dates: np.ndarray, mats: np.ndarray) -> None:
    days = (dates - np.datetime64("1970-01-01", "D")).astype(np.int64)
    with open(path, "wb") as fh:
        fh.write(checks.MATBIN_HEADER.pack(b"SPDS", 1, mats.shape[1], len(mats)))
        for day, mat in zip(days, mats):
            fh.write(struct.pack("<q", int(day)) + np.ascontiguousarray(mat, "<f8").tobytes())


def _edit_table(path: Path, row: int, column: str, value: str) -> None:
    rows = checks.read_table(path)
    rows[row][column] = value
    header = list(rows[0])
    path.write_text("\n".join([",".join(header)] + [",".join(r[c] for c in header) for r in rows]) + "\n")


def _edit_csv_cell(path: Path, row: int, col: int, fn) -> None:
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(fn(float(cells[col])))
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------


def test_clean_workflows_pass(sim_run, tick_run):
    for wl, (_, expected, rnd) in ((SIM, sim_run), (TICKS, tick_run)):
        verdict = run.check_round(wl, rnd, expected)
        assert verdict.problems == []
        assert verdict.failed == 0
        assert verdict.attempted == len(wl.models) * run.n_test_dates(wl)
        assert np.isfinite(verdict.le_loss) and verdict.le_loss > 0


def test_matbin_reader_matches_layout(sim_copy):
    path = sim_copy.out / "forecasts" / "rw.matbin"
    raw = path.read_bytes()
    magic, version, side, count = struct.unpack_from("<4sIIQ", raw)
    series = checks.read_matbin(path)
    assert (magic, version, side) == (b"SPDS", 1, 3) and series.mats.shape == (count, 3, 3)
    path.write_bytes(raw[:-8])
    with pytest.raises(checks.MatBinError):
        checks.read_matbin(path)
    _rejected(SIM, sim_copy, phrase="unreadable")


def test_rw_perturbed_by_one_ulp(sim_copy):
    _patch_record(sim_copy.out / "forecasts" / "rw.matbin", 5,
                  lambda m: m + np.diag(np.spacing(np.diag(m))))
    _rejected(SIM, sim_copy, phrase="rw: forecast")


def test_asymmetric_forecast(sim_copy):
    def skew(m):
        m = m.copy()
        m[0, 1] *= 1.001
        return m

    _patch_record(sim_copy.out / "forecasts" / "respdnet1_le.matbin", 3, skew)
    _rejected(SIM, sim_copy, phrase="not symmetric")


def test_indefinite_forecast(sim_copy):
    _patch_record(sim_copy.out / "forecasts" / "geohar_pro_le.matbin", 0, lambda m: -m)
    _rejected(SIM, sim_copy, phrase="eigenvalue")


def test_missing_forecast_dates_count_as_failed(sim_copy):
    path = sim_copy.out / "forecasts" / "favar.matbin"
    series = checks.read_matbin(path)
    _write_matbin(path, series.dates[:-4], series.mats[:-4])
    verdict = run.check_round(SIM, sim_copy, None)
    assert verdict.failed >= 4


def test_wrong_avg_loss(sim_copy):
    for metric in ("frobenius", "log_euclidean"):
        path = sim_copy.out / "eval" / f"losses_{metric}.csv"
        saved = path.read_text()
        value = float(checks.read_table(path)[1]["avg_loss"])
        _edit_table(path, 1, "avg_loss", repr(value * (1 + 1e-6)))
        _rejected(SIM, sim_copy, phrase=f"{metric}: ")
        path.write_text(saved)


@pytest.mark.parametrize("column,value,phrase", [
    ("mcs_pvalue", "1.5", "outside"),
    ("in_ssm", "flip", "in_ssm"),
    ("eliminated_rank", "", "one survivor"),
])
def test_mcs_properties(sim_copy, column, value, phrase):
    path = sim_copy.out / "eval" / "losses_procrustes.csv"
    rows = checks.read_table(path)
    k = next(i for i, r in enumerate(rows) if r["eliminated_rank"] != "")
    if value == "flip":
        value = "0" if rows[k]["in_ssm"] == "1" else "1"
    _edit_table(path, k, column, value)
    _rejected(SIM, sim_copy, phrase=phrase)


def test_mcs_pvalues_must_not_decrease():
    table = [
        {"model": "a", "mcs_pvalue": "0.3", "in_ssm": "1", "eliminated_rank": "0"},
        {"model": "b", "mcs_pvalue": "0.2", "in_ssm": "0", "eliminated_rank": "1"},
        {"model": "c", "mcs_pvalue": "1", "in_ssm": "1", "eliminated_rank": ""},
    ]
    assert any("decrease" in p for p in checks.check_mcs(table, 0.25, "t"))
    table[1]["mcs_pvalue"], table[1]["in_ssm"] = "0.3", "1"
    assert checks.check_mcs(table, 0.25, "t") == []


def test_gmv_weights(sim_copy):
    _edit_csv_cell(sim_copy.out / "portfolio" / "weights_favar_gmv.csv", 9, 1, lambda w: w + 1e-6)
    _rejected(SIM, sim_copy, phrase="GMV weights")


def test_long_only_weights(sim_copy):
    path = sim_copy.out / "portfolio" / "weights_rw_gmv_long.csv"
    _edit_csv_cell(path, 2, 1, lambda w: -1e-9)
    _rejected(SIM, sim_copy, phrase="long-only")


def test_sigma_p(sim_copy):
    path = sim_copy.out / "portfolio" / "report.csv"
    _edit_table(path, 0, "sigma_p", repr(float(checks.read_table(path)[0]["sigma_p"]) * 1.001))
    _rejected(SIM, sim_copy, phrase="sigma_p")


def test_failed_stage_fails_every_forecast(sim_copy):
    sim_copy.exit_codes["portfolio"] = 1
    _rejected(SIM, sim_copy, phrase="exited")


def test_changed_forecast_bytes_break_reproducibility(sim_copy):
    first = run.check_round(SIM, sim_copy, None).hashes
    _patch_record(sim_copy.out / "forecasts" / "respdnet1_le.matbin", 1, lambda m: m * (1 + 1e-15))
    again = run.check_round(SIM, sim_copy, None).hashes
    assert checks.check_hashes(first, first, "x") == []
    assert checks.check_hashes(first, again, "x") == ["x: forecast files of ['respdnet1_le'] differ"]


def test_tick_file_with_an_off_price_is_caught(tick_run, tmp_path):
    config, expected, rnd = tick_run
    ticks = config.parent / "ticks.csv"
    lines = ticks.read_text().splitlines()
    # Grid times are whole ten-minute marks; rows 1..3 are the day's open.
    on_grid = next(i for i in range(4, 40) if lines[i].split(",")[1].endswith("0:00"))
    bad = tmp_path / "ticks.csv"
    cells = lines[on_grid].split(",")
    cells[3] = repr(float(cells[3]) * 1.0001)
    lines[on_grid] = ",".join(cells)
    bad.write_text("\n".join(lines) + "\n")
    cfg = tmp_path / "run.ini"
    cfg.write_text(config.read_text().replace(str(ticks), str(bad)))
    out = tmp_path / "out"
    shutil.copytree(rnd.out, out)
    code = run.run_process("ingest", cfg, out, 7, tmp_path / "log")[2]
    assert code == 0
    _rejected(TICKS, run.Round(out), expected, phrase="ingest: realized covariance")
