#!/usr/bin/env python3
"""Backtest benchmark for spdcast: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload paper_default --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``, nothing is installed.  With ``--trace 0`` each round drives the
CLI the way a user does, one process per stage with ``--workers 1``, and
rounds repeat until ``--seconds`` is used up (at least two, so that
forecast files can be compared across rounds).  With ``--trace 1`` each
round runs the same stages in this process, once plain and once with the
layer wrappers of ``tracing.py`` installed.  Every round's outputs are
checked by ``checks.py``.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  Run outputs and spans
go under ``.perfbench_runs/`` in the checkout.
"""

from __future__ import annotations

import os

# One BLAS thread: the program's matrices are small, and a 2-core box
# running the benchmark gains only noise from thread spinning.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
MIN_ROUNDS = 2
STAGE_TIMEOUT_S = 40  # a stage takes seconds; a hung one must not outlast the run
SCORE_STAGES = ("evaluate", "portfolio", "report")

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from workloads import ALL_MODELS, WORKLOADS, Workload, prepare  # noqa: E402


def stage_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["SPDCAST_LOG"] = "WARNING"
    return env


@dataclass
class Round:
    out: Path
    seconds: dict[str, float] = field(default_factory=dict)  # stage -> wall seconds
    rss_mb: float = 0.0
    exit_codes: dict[str, int] = field(default_factory=dict)

    @property
    def score(self) -> float:
        return sum(self.seconds[s] for s in SCORE_STAGES)


def run_process(stage: str, config: Path, out: Path, seed: int, log: Path) -> tuple[float, float, int]:
    """One CLI stage as a child process: (wall seconds, max RSS in MB, exit code)."""
    cmd = [sys.executable, "-m", "spdcast.cli", stage, "--config", str(config),
           "--seed", str(seed), "--out", str(out), "--workers", "1"]
    with open(log, "ab") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fh, stderr=fh, env=stage_env(), cwd=ROOT)
        timer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, usage.ru_maxrss / 1024.0, proc.returncode


def process_round(wl: Workload, config: Path, out: Path, seed: int, log: Path) -> Round:
    """One whole workflow, every stage its own process."""
    rnd = Round(out)
    for stage in [wl.data_stage, "train-forecast", *SCORE_STAGES]:
        seconds, rss, code = run_process(stage, config, out, seed, log)
        rnd.seconds[stage] = seconds
        rnd.rss_mb = max(rnd.rss_mb, rss)
        rnd.exit_codes[stage] = code
    return rnd


def in_process_round(wl: Workload, config: Path, out: Path, seed: int, log: Path, tracer=None) -> Round:
    """The same stages through ``spdcast.cli.main`` in this process."""
    import spdcast.cli

    rnd = Round(out)
    with open(log, "a") as fh, contextlib.redirect_stdout(fh):
        for stage in [wl.data_stage, "train-forecast", *SCORE_STAGES]:
            argv = [stage, "--config", str(config), "--seed", str(seed), "--out", str(out), "--workers", "1"]
            index = tracer.open(f"stage.{stage}") if tracer else None
            start = time.perf_counter()
            try:
                code = spdcast.cli.main(argv)
            except Exception:  # a raw escape is a failed stage, recorded in the log
                traceback.print_exc(file=fh)
                code = 1
            finally:
                rnd.seconds[stage] = time.perf_counter() - start
                if tracer:
                    tracer.close(index)
            rnd.exit_codes[stage] = code
    return rnd


# ---------------------------------------------------------------------------
# Checks


@dataclass
class Verdict:
    attempted: int
    failed: int
    problems: list[str]
    hashes: dict[str, str]
    le_loss: float


def n_test_dates(wl: Workload) -> int:
    days = wl.ticks.days if wl.ticks else wl.sections["data"]["days"]
    return days - int(wl.sections["forecast"]["window"])


def check_round(wl: Workload, rnd: Round, expected) -> Verdict:
    attempted = len(wl.models) * n_test_dates(wl)
    problems = [f"stage {s} exited with {c}" for s, c in rnd.exit_codes.items() if c != 0]
    missing, hashes, le = 0, {}, float("nan")
    try:
        missing, hashes, le = _check_outputs(wl, rnd.out, expected, problems)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"outputs unreadable: {exc!r}")
    other = [p for p in problems if "test dates missing" not in p]
    failed = attempted if other else missing
    return Verdict(attempted, failed, problems, hashes, le)


def _check_outputs(wl: Workload, out: Path, expected, problems: list[str]):
    series = checks.read_matbin(out / "data" / "series.matbin")
    window = int(wl.sections["forecast"]["window"])
    dates = series.dates[window:]
    realized = checks.read_matbin(out / "data" / "realized.matbin")
    if not (len(dates) == n_test_dates(wl) and np.array_equal(realized.dates, dates)
            and np.array_equal(realized.mats, series.mats[window:])):
        problems.append("realized.matbin is not the test span of series.matbin")
    r_dates, returns = checks.read_dated_csv(out / "data" / "returns.csv")
    if expected is not None:
        problems += checks.check_ingest(series, r_dates, returns, expected)

    forecasts, hashes, missing = {}, {}, 0
    for model in wl.models:
        path = out / "forecasts" / f"{model}.matbin"
        if not path.exists():
            missing += len(dates)
            problems.append(f"{model}: {len(dates)} test dates missing (no forecast file)")
            continue
        fc = checks.read_matbin(path)
        hashes[model] = checks.sha256(path)
        lost, found = checks.check_dates(model, fc, dates)
        missing += lost
        problems += found + checks.check_spd(model, fc)
        forecasts[model] = fc
    if "rw" in forecasts:
        problems += checks.check_rw(series, forecasts["rw"])

    alpha = float(wl.sections["evaluate"]["alpha"])
    for metric in ("frobenius", "euclidean", "procrustes", "log_euclidean"):
        for suffix in ("", "_calm", "_turbulent"):
            table = checks.read_table(out / "eval" / f"losses_{metric}{suffix}.csv")
            problems += checks.check_mcs(table, alpha, f"losses_{metric}{suffix}")
            if suffix == "" and metric in ("frobenius", "log_euclidean"):
                problems += checks.check_avg_loss(table, metric, forecasts, realized)

    pos = {d: i for i, d in enumerate(r_dates.tolist())}
    weights = {}
    for model, fc in forecasts.items():
        for variant in ("gmv", "gmv_long"):
            w_dates, w = checks.read_dated_csv(out / "portfolio" / f"weights_{model}_{variant}.csv")
            if not np.array_equal(w_dates, fc.dates):
                problems.append(f"{model}: {variant} weight dates differ from the forecast dates")
                continue
            weights[(model, variant)] = w
            problems += (checks.check_gmv(model, w, fc) if variant == "gmv"
                         else checks.check_long_only(model, w))
    aligned = returns[[pos[d] for d in dates.tolist()]]
    problems += checks.check_sigma(checks.read_table(out / "portfolio" / "report.csv"), weights, aligned)
    if not (out / "report.md").is_file():
        problems.append("report.md is missing")

    nets = [m for m in wl.net_models() if m in forecasts]
    le = float(np.mean([np.mean(checks.le_distances(forecasts[m].mats, realized.mats)) for m in nets]))
    return missing, hashes, le


# ---------------------------------------------------------------------------
# Runs


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def timed_run(wl: Workload, config: Path, run_dir: Path, seed: int, seconds: int, expected) -> dict:
    log = run_dir / "stages.log"
    out = run_dir / "out"
    rounds, verdicts = [], []
    start = time.perf_counter()
    longest = 0.0
    while True:
        began = time.perf_counter()
        shutil.rmtree(out, ignore_errors=True)
        rnd = process_round(wl, config, out, seed, log)
        verdict = check_round(wl, rnd, expected)
        if verdicts:
            found = checks.check_hashes(verdicts[0].hashes, verdict.hashes, "round vs first round")
            if found:
                verdict.problems += found
                verdict.failed = verdict.attempted
        rounds.append(rnd)
        verdicts.append(verdict)
        longest = max(longest, time.perf_counter() - began)
        if len(rounds) >= MIN_ROUNDS and time.perf_counter() - start + longest > seconds:
            break
    setup = median([r.seconds[wl.data_stage] for r in rounds])
    train = median([r.seconds["train-forecast"] for r in rounds])
    score = median([r.score for r in rounds])
    metrics = {
        "setup_s": (setup, "s"),
        "train_forecast_s": (train, "s"),
        "score_s": (score, "s"),
        "total_s": (setup + train + score, "s"),
        "peak_rss_mb": (max(r.rss_mb for r in rounds), "MB"),
        "forecast_le_loss": (verdicts[-1].le_loss, "1"),
    }
    return summarize(verdicts, metrics, {"rounds": [r.seconds for r in rounds]})


def startup_seconds(reps: int = 3) -> float:
    """Interpreter start plus ``import spdcast.cli``, as a stage process pays it."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import spdcast.cli"], env=stage_env(), cwd=ROOT,
                       check=True, timeout=STAGE_TIMEOUT_S)
        times.append(time.perf_counter() - start)
    return median(times)


def traced_run(wl: Workload, config: Path, run_dir: Path, seed: int, seconds: int, expected) -> dict:
    from tracing import Tracer, check_nesting, layer_metrics

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    log = run_dir / "stages.log"
    startup = startup_seconds()
    samples: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    verdicts = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        began = time.perf_counter()
        k = len(verdicts)
        plain = in_process_round(wl, config, run_dir / f"plain{k}", seed, log)
        tracer = Tracer()
        tracer.install()
        try:
            traced = in_process_round(wl, config, run_dir / f"traced{k}", seed, log, tracer)
        finally:
            tracer.uninstall()
        tracer.write(run_dir / f"spans{k}.json")
        verdict = check_round(wl, traced, expected)
        verdict.problems += checks.check_hashes(
            check_round(wl, plain, expected).hashes, verdict.hashes, "traced vs untraced")
        verdict.problems += check_nesting(tracer.spans)
        layers = layer_metrics(tracer, ALL_MODELS, sum(plain.seconds.values()))
        if any(value < 0 for name, (value, _) in layers.items()
               if name.endswith(".self_s")):
            verdict.problems.append("a stage self time is negative")
        if verdict.problems:
            verdict.failed = verdict.attempted
        layers["cli.startup_s"] = (startup, "s")
        for name, (value, unit) in layers.items():
            samples.setdefault(name, []).append(value)
            units[name] = unit
        shutil.rmtree(plain.out, ignore_errors=True)
        if k:
            shutil.rmtree(run_dir / f"traced{k - 1}", ignore_errors=True)
        verdicts.append(verdict)
        longest = max(longest, time.perf_counter() - began)
        if time.perf_counter() - start + longest > seconds:
            break
    metrics = {name: (median(vals), units[name]) for name, vals in sorted(samples.items())}
    return summarize(verdicts, metrics, {})


def summarize(verdicts: list[Verdict], metrics: dict, extra: dict) -> dict:
    problems = [p for v in verdicts for p in v.problems]
    return {
        "correct": not problems,
        "attempted": sum(v.attempted for v in verdicts),
        "failed": sum(v.failed for v in verdicts),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "problems": problems[:20],
        **extra,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spdcast" / "cli.py").is_file():
        print(f"perfbench: no spdcast sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    run_dir = RUNS / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    config, expected = prepare(wl, run_dir, args.seed)
    run = traced_run if args.trace else timed_run
    try:
        result = run(wl, config, run_dir, args.seed, args.seconds, expected)
    finally:
        if wl.ticks is not None:
            (run_dir / "ticks.csv").unlink(missing_ok=True)
    (run_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    for problem in result["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
