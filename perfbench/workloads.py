"""The benchmark workloads: their config, inputs and expected outputs.

Each workload is a fixed run config plus, for ``ticks_long_panel``, a tick
file generated from the benchmark seed before anything is timed.  The
seed reaches the program only as ``[run] seed`` (simulator and training
streams) and through the generated tick file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ticks import TickSpec, write_ticks

ALPHA = 0.25
NET_KINDS = ("respdnet", "geohar")


@dataclass(frozen=True)
class Workload:
    name: str
    data_stage: str  # "simulate" or "ingest"
    models: tuple[str, ...]  # model names the roster produces, in roster order
    sections: dict = field(default_factory=dict)
    ticks: TickSpec | None = None

    def config_text(self, data_path: str | None) -> str:
        sections = {k: dict(v) for k, v in self.sections.items()}
        if data_path is not None:
            sections["data"]["path"] = data_path
        lines = []
        for section, keys in sections.items():
            lines.append(f"[{section}]")
            lines += [f"{k} = {v}" for k, v in keys.items()]
            lines.append("")
        return "\n".join(lines)

    def net_models(self) -> list[str]:
        return [m for m in self.models if m.startswith(NET_KINDS)]


def _common(roster: str, window: int, refit_every: int, epochs: int,
            learning_rate: float = 0.01, replicates: int = 10000) -> dict:
    return {
        "run": {"seed": 0, "out": "out", "workers": 1},
        "models": {"roster": roster},
        "forecast": {"window": window, "refit_every": refit_every},
        "train": {"epochs": epochs, "learning_rate": learning_rate},
        "evaluate": {
            "metrics": "frobenius, euclidean, procrustes, log_euclidean",
            "alpha": ALPHA,
            "replicates": replicates,
        },
        "portfolio": {"enabled": "true", "long_only": "true"},
    }


def _with_data(sections: dict, data: dict) -> dict:
    return {"run": sections["run"], "data": data, **{k: v for k, v in sections.items() if k != "run"}}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper_default",
            data_stage="simulate",
            models=("rw", "favar", "respdnet3_le", "geohar_le_le", "geohar_pro_le"),
            sections=_with_data(
                _common("rw, favar, respdnet:lags=3, geohar:metric=log_euclidean, "
                        "geohar:metric=procrustes", window=200, refit_every=0, epochs=5,
                        learning_rate=0.03),
                {"source": "simulate", "n": 5, "days": 260, "persistence": 0.95, "df": 12},
            ),
        ),
        Workload(
            name="ticks_long_panel",
            data_stage="ingest",
            models=("rw", "respdnet1_le", "geohar_le_le"),
            sections=_with_data(
                _common("rw, respdnet:lags=1, geohar:metric=log_euclidean",
                        window=120, refit_every=0, epochs=6, replicates=2000),
                {"source": "intraday", "grid_seconds": 900},
            ),
            ticks=TickSpec(tickers=8, days=1150, grid_seconds=900, intervals=26,
                           off_grid_rate=0.25),
        ),
    )
}

ALL_MODELS = sorted({m for w in WORKLOADS.values() for m in w.models})


def prepare(workload: Workload, run_dir: Path, seed: int):
    """Write the run config (and tick file); returns (config path, expected panel or None)."""
    run_dir.mkdir(parents=True, exist_ok=True)
    expected = None
    data_path = None
    if workload.ticks is not None:
        data_path = run_dir / "ticks.csv"
        expected = write_ticks(data_path, workload.ticks, seed)
    config = run_dir / "run.ini"
    config.write_text(workload.config_text(str(data_path) if data_path else None))
    return config, expected
