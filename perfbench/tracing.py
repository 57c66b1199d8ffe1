"""Spans around spdcast's layers, installed from outside the package.

Each wrapper replaces a public function under the name its caller looks up
at call time (``spdcast.pipeline.train``, ``Network.forward_trace``,
``numpy.linalg.eigh``, ...), so the program runs unmodified.  Spans are
kept in memory as (name, start, end, parent) and written out by
``Tracer.write`` once the traced round is over.
Leaf calls that run tens of thousands of times (``numpy.linalg``,
``chol_vectorize``) are counted with their summed time at the same
boundary instead of being kept one span each.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np

LINALG = ("eigh", "svd", "cholesky")
METRICS4 = ("frobenius", "euclidean", "procrustes", "log_euclidean")
STAGES = ("simulate", "ingest", "train-forecast", "evaluate", "portfolio", "report")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.leaf_ns: dict[str, int] = defaultdict(int)
        self.values: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self.stack.pop()

    def span(self, name, fn, after=None):
        """Wrap ``fn`` in a span.

        ``name`` is a string, or a function of the call's bound arguments;
        ``after(result, arguments)`` may record counts from the result.
        """
        signature = inspect.signature(fn) if after or not isinstance(name, str) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            arguments = signature.bind(*args, **kwargs).arguments if signature else None
            index = self.open(name if isinstance(name, str) else name(arguments))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(result, arguments)
            return result

        return wrapper

    def leaf(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self.leaf_ns[name] += time.perf_counter_ns() - t0
                self.counts[name] += 1

        return wrapper

    # -- installation ----------------------------------------------------------

    def patch(self, owner, attr: str, wrapper_of) -> None:
        original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        wrapped = wrapper_of(original)
        if isinstance(owner, dict):
            owner[attr] = wrapped
        else:
            setattr(owner, attr, wrapped)

    def install(self) -> None:
        import spdcast.baselines as baselines
        import spdcast.cli as cli
        import spdcast.frechet as frechet
        import spdcast.optim as optim
        import spdcast.pipeline as pipeline
        from spdcast.network import Network

        p = self.patch
        for name in list(cli._COMMANDS):
            p(cli._COMMANDS, name, lambda f, n=name: self.span(f"pipeline.{n}", f))
        p(cli, "load_config", lambda f: self.span("cli.load_config", f))
        p(pipeline, "resolve_series", lambda f: self.span("pipeline.resolve_series", f))
        p(pipeline, "run_model", lambda f: self.span(
            lambda a: f"pipeline.run_model.{a['spec'].name}", f))
        for attr in ("simulate_market", "load_intraday_csv", "realized_series", "save_series",
                     "load_series", "build_lagged_inputs", "build_geohar_inputs"):
            p(pipeline, attr, lambda f, a=attr: self.span(f"data.{a}", f))
        p(pipeline, "train", lambda f: self.span("optim.train", f, after=self._after_train))
        p(optim, "backward", lambda f: self.span("optim.backward", f))
        p(Network, "forward_trace", lambda f: self.span("network.forward_trace", f))
        p(Network, "forward", lambda f: self.span("network.forward", f))
        p(frechet, "frechet_mean_procrustes",
          lambda f: self.span("frechet.procrustes", f, after=self._after_gpa))
        p(frechet, "frechet_mean_log_euclidean", lambda f: self.span("frechet.log_euclidean", f))
        p(pipeline, "favar_fit", lambda f: self.span("baselines.favar_fit", f))
        p(pipeline, "favar_forecast", lambda f: self.span("baselines.favar_forecast", f))
        p(baselines, "chol_vectorize", lambda f: self.leaf("baselines.chol_vectorize", f))
        p(pipeline, "loss_panel", lambda f: self.span(
            lambda a: f"evaluation.loss_panel.{a['metric']}", f))
        p(pipeline, "mcs", self._mcs)
        p(pipeline, "gmv_weights", lambda f: self.span("portfolio.gmv_weights", f))
        p(pipeline, "gmv_long_only", lambda f: self.span("portfolio.gmv_long_only", f))
        p(pipeline, "evaluate_portfolio", lambda f: self.span("portfolio.evaluate_portfolio", f))
        for name in LINALG:
            p(np.linalg, name, lambda f, n=name: self.leaf(f"linalg.{n}", f))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- counts taken from results -------------------------------------------

    def _after_train(self, result, arguments) -> None:
        self.values["optim.sample_epochs"] += len(arguments["inputs"]) * arguments["cfg"].epochs
        self.values["optim.gap_clamps"] += result.gap_clamp_count
        self.values["optim.floored_targets"] += result.floored_target_count

    def _after_gpa(self, result, arguments) -> None:
        self.values["frechet.gpa_iters"] += result.n_iters
        self.values["frechet.gpa_unconverged"] += 0 if result.converged else 1

    def _mcs(self, fn):
        inner = self.span("evaluation.mcs", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return inner(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                self.values["evaluation.mcs_peak_mb"] = max(self.values["evaluation.mcs_peak_mb"], peak)

        return wrapper

    # -- output ----------------------------------------------------------------

    def write(self, path: Path) -> None:
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        doc = {
            "names": names,
            "spans": [[ids[n], s, e, parent] for n, s, e, parent in self.spans],
            "leaf_calls": dict(self.counts),
            "leaf_ns": dict(self.leaf_ns),
            "values": dict(self.values),
        }
        Path(path).write_text(json.dumps(doc, separators=(",", ":")))


def check_nesting(spans: list[list]) -> list[str]:
    """Every span lies inside its parent, and every span descends from a stage."""
    problems = []
    for name, start, end, parent in spans:
        if end < start:
            problems.append(f"span {name} ends before it starts")
        if parent < 0:
            if not name.startswith("stage."):
                problems.append(f"span {name} has no enclosing stage span")
            continue
        _, p_start, p_end, _ = spans[parent]
        if start < p_start or end > p_end:
            problems.append(f"span {name} leaks out of its parent {spans[parent][0]}")
    return problems


def self_times(spans: list[list]) -> dict[str, float]:
    """Summed self time per span name, in seconds: duration minus child spans."""
    child_ns = defaultdict(int)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        out[name] += (end - start - child_ns[i]) / 1e9
    return out


def layer_metrics(tracer: Tracer, models: list[str], untraced_stage_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced workflow, derived from its spans and counts."""
    spans = tracer.spans
    total = defaultdict(float)
    calls = defaultdict(int)
    for name, start, end, _ in spans:
        total[name] += (end - start) / 1e9
        calls[name] += 1
    own = self_times(spans)
    stage_s = sum(total[f"stage.{s}"] for s in STAGES)
    leaf_s = {k: v / 1e9 for k, v in tracer.leaf_ns.items()}
    v = tracer.values

    m: dict[str, tuple[float, str]] = {}
    for model in models:
        m[f"pipeline.run_model_s.{model}"] = (total[f"pipeline.run_model.{model}"], "s")
    for stage in ("train-forecast", "evaluate", "portfolio"):
        m[f"pipeline.{stage.replace('-', '_')}.self_s"] = (own[f"pipeline.{stage}"], "s")
    for name in ("simulate_market", "load_intraday_csv", "realized_series", "save_series",
                 "load_series", "build_lagged_inputs", "build_geohar_inputs"):
        m[f"data.{name}_s"] = (total[f"data.{name}"], "s")
    m["data.load_intraday_csv_calls"] = (calls["data.load_intraday_csv"], "count")
    m["data.load_series_calls"] = (calls["data.load_series"], "count")
    for metric in ("procrustes", "log_euclidean"):
        m[f"frechet.{metric}_s"] = (total[f"frechet.{metric}"], "s")
        m[f"frechet.{metric}_calls"] = (calls[f"frechet.{metric}"], "count")
    m["frechet.gpa_iters"] = (v["frechet.gpa_iters"], "count")
    m["frechet.gpa_unconverged"] = (v["frechet.gpa_unconverged"], "count")
    m["optim.train_s"] = (total["optim.train"], "s")
    m["optim.train_calls"] = (calls["optim.train"], "count")
    m["optim.sample_epochs"] = (v["optim.sample_epochs"], "count")
    per = total["optim.train"] / v["optim.sample_epochs"] * 1e6 if v["optim.sample_epochs"] else 0.0
    m["optim.us_per_sample_epoch"] = (per, "us")
    m["optim.backward_s"] = (total["optim.backward"], "s")
    m["optim.gap_clamps"] = (v["optim.gap_clamps"], "count")
    m["optim.floored_targets"] = (v["optim.floored_targets"], "count")
    m["network.forward_trace_s"] = (total["network.forward_trace"], "s")
    m["network.forward_trace_calls"] = (calls["network.forward_trace"], "count")
    m["network.forward_s"] = (total["network.forward"], "s")
    m["network.forward_calls"] = (calls["network.forward"], "count")
    m["baselines.favar_fit_s"] = (total["baselines.favar_fit"], "s")
    m["baselines.favar_fit_calls"] = (calls["baselines.favar_fit"], "count")
    m["baselines.chol_vectorize_calls"] = (tracer.counts["baselines.chol_vectorize"], "count")
    m["baselines.favar_forecast_s"] = (total["baselines.favar_forecast"], "s")
    for name in LINALG:
        m[f"linalg.{name}_calls"] = (tracer.counts[f"linalg.{name}"], "count")
        m[f"linalg.{name}_s"] = (leaf_s.get(f"linalg.{name}", 0.0), "s")
    for metric in METRICS4:
        m[f"evaluation.loss_panel_s.{metric}"] = (total[f"evaluation.loss_panel.{metric}"], "s")
    m["evaluation.mcs_s"] = (total["evaluation.mcs"], "s")
    m["evaluation.mcs_calls"] = (calls["evaluation.mcs"], "count")
    m["evaluation.mcs_peak_mb"] = (v["evaluation.mcs_peak_mb"], "MB")
    m["portfolio.gmv_weights_s"] = (total["portfolio.gmv_weights"], "s")
    m["portfolio.gmv_long_only_s"] = (total["portfolio.gmv_long_only"], "s")
    m["portfolio.gmv_calls"] = (calls["portfolio.gmv_weights"] + calls["portfolio.gmv_long_only"], "count")
    m["portfolio.evaluate_portfolio_s"] = (total["portfolio.evaluate_portfolio"], "s")
    m["trace.overhead_s"] = (stage_s - untraced_stage_s, "s")
    return m
