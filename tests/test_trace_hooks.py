"""The traced benchmark's hooks still find what they wrap.

``perfbench/tracing.py`` patches library functions by name and reads some
of their arguments by parameter name.  Installing its tracer fails on a
missing name; the parameter names are checked here, so a rename or a
deletion that would break the traced benchmark fails the test suite.
"""

import inspect
from pathlib import Path

import numpy as np

from spdcast import METRIC_PROCRUSTES, FrechetConfig, SpdMatrix, cli, frechet, pipeline
from spdcast.network import Network

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_reads_its_parameters(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    originals = (pipeline.run_model, pipeline.train, Network.forward, np.linalg.eigh,
                 dict(cli._COMMANDS))
    tracer = Tracer()
    try:
        tracer.install()
        for fn, names in ((pipeline.train, {"inputs", "cfg"}),
                          (pipeline.run_model, {"spec"}),
                          (pipeline.loss_panel, {"metric"})):
            assert names <= set(inspect.signature(fn).parameters), fn.__name__
    finally:
        tracer.uninstall()
    assert (pipeline.run_model, pipeline.train, Network.forward, np.linalg.eigh,
            dict(cli._COMMANDS)) == originals


def test_traced_procrustes_means_count_their_iterations(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    rng = np.random.default_rng(7)
    sample = [SpdMatrix(a @ a.T + np.eye(4)) for a in rng.standard_normal((6, 4, 4))]
    tracer = Tracer()
    try:
        tracer.install()
        results = []
        for cfg in (FrechetConfig(metric=METRIC_PROCRUSTES),
                    FrechetConfig(metric=METRIC_PROCRUSTES, max_iters=1)):
            results.append(frechet.frechet_mean_procrustes(sample, cfg))
            assert tracer.values["frechet.gpa_iters"] == sum(r.n_iters for r in results)
            assert tracer.values["frechet.gpa_unconverged"] == sum(not r.converged for r in results)
    finally:
        tracer.uninstall()
    assert [(r.converged, r.n_iters > 0) for r in results] == [(True, True), (False, True)]
