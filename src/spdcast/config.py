"""Run configs, and the stage pieces that need no NumPy: the INI parser
(:func:`load_config`), the CSV and manifest writers every command shares,
and the ``report`` command.  :mod:`spdcast.pipeline` imports them back and
holds the commands that compute, so ``spdcast report`` starts without NumPy.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import json
import re
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import __version__
from .exceptions import ConfigError, SeriesFormatError

__all__ = ["ModelSpec", "RunConfig", "load_config"]

# The names config values are checked against: loss panels' metrics (for
# evaluation), training losses (optim) and Fréchet-mean metrics (frechet).
METRICS = ("frobenius", "euclidean", "procrustes", "log_euclidean")
LOSS_MSE, LOSS_LOG_EUCLIDEAN = LOSSES = ("mse", "log_euclidean")
METRIC_LOG_EUCLIDEAN, METRIC_PROCRUSTES = FRECHET_METRICS = ("log_euclidean", "procrustes")
# The regimes evaluate scores: each loss table's file suffix and report title.
REGIMES = (("", "all days"), ("_calm", "calm days"), ("_turbulent", "turbulent days"))

_SHORT = {"log_euclidean": "le", "mse": "mse", "procrustes": "pro"}


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    name: str
    params: dict


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
    return None if raw.lower() == "auto" else int(raw)


_AUTO_OR_INT = _parser(_auto_or_int, "expected 'auto' or an integer, got {!r}")


def _hidden(raw: str) -> tuple[int, ...] | None:
    if raw.lower() == "auto":
        return None
    try:
        dims = tuple(int(x) for x in raw.split(",") if x.strip())
    except ValueError:
        raise _Invalid(f"expected 'auto' or comma-separated integers, got {raw!r}") from None
    if not dims or any(h < 1 for h in dims):
        raise _Invalid(f"dims must be positive, got {raw!r}")
    return dims


def _metric_list(raw: str) -> list[str]:
    given = [m.strip() for m in raw.split(",") if m.strip()]
    if not given:
        raise _Invalid("no metrics specified")
    names = [m.lower() for m in given]
    for i, m in enumerate(names):
        if m not in METRICS:
            raise _Invalid(f"unknown metric {given[i]!r} (known: {METRICS})")
        if m in names[:i]:
            raise _Invalid(f"duplicate metric {given[i]!r}")
    return names


def _at_least(low):
    return lambda v: None if v is None or v >= low else f"must be >= {low}, got {v}"


def _positive(v: float) -> str | None:
    return None if v > 0.0 else f"must be > 0, got {v}"


def _in_open_unit(v: float) -> str | None:
    return None if 0.0 < v < 1.0 else f"must be in (0, 1), got {v}"


def _in_left_open_unit(v: float) -> str | None:
    return None if 0.0 < v <= 1.0 else f"must be in (0, 1], got {v}"


def _in_right_open_unit(v: float) -> str | None:
    return None if 0.0 <= v < 1.0 else f"must be in [0, 1), got {v}"


def _value(raw: str | None, parse, check):
    """``raw`` parsed (None stays None) and checked; a problem raises :class:`_Invalid`."""
    value = None if raw is None else parse(raw)
    problem = check(value) if check else None
    if problem:
        raise _Invalid(problem)
    return value


def _one_of(what: str, *options: str):
    """Parse one of ``options``, matched case-insensitively; a problem quotes the value as written."""
    return _parser(lambda raw: options[options.index(raw.lower())],
                   f"unknown {what} {{!r}} ({', '.join(options)})")


_LOSS = _one_of("loss", *LOSSES)
_METRIC = _one_of("metric", *FRECHET_METRICS)
_FACTORS = _parser(_auto_or_int, "favar factors must be an integer or 'auto', got {!r}")
_LAGS = _parser(int, "respdnet lags must be an integer")

# kind: ({key: (parse, default, check)}, default name); pipeline._FORECASTERS
# holds its class.  Parameters parse and check like RunConfig's keys, an absent key
# taking the default, a problem following "[models] roster: ".  The default name
# formats the parsed values, shortened by _SHORT; every kind also takes name.
_KINDS = {
    "rw": ({}, "rw"),
    "favar": ({"factors": (_FACTORS, "auto", lambda v: None if v is None or v >= 1
                           else f"favar factors must be >= 1, got {v}")},
              "favar"),
    "respdnet": ({"lags": (_LAGS, "3", lambda v: None if v >= 1 else "respdnet lags must be >= 1"),
                  "loss": (_LOSS, LOSS_LOG_EUCLIDEAN, None)},
                 "respdnet{lags}_{loss}"),
    "geohar": ({"metric": (_METRIC, METRIC_LOG_EUCLIDEAN, None),
                "loss": (_LOSS, LOSS_LOG_EUCLIDEAN, None)},
               "geohar_{metric}_{loss}"),
}


def _parse_roster(raw: str) -> list[ModelSpec]:
    """``kind[:key=value]...`` entries, comma-separated; each kind's keys are in :data:`_KINDS`."""
    specs: list[ModelSpec] = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        kind, *parts = chunk.split(":")
        given: dict[str, str] = {}
        for part in parts:
            if "=" not in part:
                raise ConfigError(
                    f"[models] roster: expected key=value in {chunk!r}, got {part!r}"
                )
            key, value = part.split("=", 1)
            key = key.strip().lower()
            if key in given:
                raise ConfigError(f"[models] roster: repeated parameter {key!r} in {chunk!r}")
            given[key] = value.strip()
        name = given.pop("name", None)
        try:
            kind = _one_of("model kind", *_KINDS)(kind.strip())
            keys, pattern = _KINDS[kind]
            unknown = [key for key in given if key not in keys]
            if unknown:
                raise _Invalid(f"unknown {kind} parameter {unknown[0]!r} "
                               f"(known: {', '.join([*keys, 'name'])})")
            params = {key: _value(given.get(key, default), parse, check)
                      for key, (parse, default, check) in keys.items()}
        except _Invalid as exc:
            raise ConfigError(f"[models] roster: {exc}") from None
        if name is None:
            name = pattern.format(**{key: _SHORT.get(v, v) for key, v in params.items()})
        if not re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]*", name):
            raise ConfigError(f"[models] roster: model name {name!r} is not a file stem "
                              "(a letter or digit, then letters, digits, '_', '.' or '-')")
        specs.append(ModelSpec(kind, name, params))
    if not specs:
        raise ConfigError("[models] roster: no models specified")
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ConfigError(f"[models] roster: duplicate model names {names}")
    return specs


def _key(section: str, key: str, parse, default: str | None, check=None):
    """A :class:`RunConfig` field read from ``[section] key``.  An absent or empty
    key takes ``default``, a raw string parsed like a given value (None: no
    value).  ``check`` returns what is wrong with the parsed value, or None."""
    return field(metadata={"ini": (section, key, parse, default, check)})


@dataclass
class RunConfig:
    """A run's settings, one field per config key, in file order."""

    seed: int = _key("run", "seed", _INT, "0", _at_least(0))
    out_dir: Path = _key("run", "out", Path, "runs/out")
    workers: int = _key("run", "workers", _INT, "1", _at_least(1))
    source: str = _key("data", "source", _one_of("source", "simulate", "matbin", "csvlong",
                                                  "intraday"), "simulate")
    data_path: Path | None = _key("data", "path", Path, None)
    sim_n: int = _key("data", "n", _INT, "5", _at_least(1))
    sim_days: int = _key("data", "days", _INT, "800", _at_least(2))
    sim_persistence: float = _key("data", "persistence", _REAL, "0.95", _in_right_open_unit)
    sim_df: int = _key("data", "df", _INT, "12")
    returns_path: Path | None = _key("data", "returns", Path, None)
    grid_seconds: int = _key("data", "grid_seconds", _INT, "300", _at_least(1))
    roster: list[ModelSpec] = _key("models", "roster", _parse_roster, "rw")
    window: int = _key("forecast", "window", _INT, "500", _at_least(2))
    refit_every: int = _key("forecast", "refit_every", _INT, "0", _at_least(0))
    epochs: int = _key("train", "epochs", _INT, "30", _at_least(1))
    batch_size: int = _key("train", "batch_size", _INT, "32", _at_least(1))
    learning_rate: float = _key("train", "learning_rate", _REAL, "1e-2", _at_least(0))
    lr_decay: float = _key("train", "lr_decay", _REAL, "0.95", _in_left_open_unit)
    eps_rectify: float = _key("train", "eps_rectify", _REAL, "1e-4", _positive)
    eig_gap_floor: float = _key("train", "eig_gap_floor", _REAL, "1e-6", _positive)
    hidden: tuple[int, ...] | None = _key("train", "hidden", _hidden, "auto")
    metrics: list[str] = _key("evaluate", "metrics", _metric_list, ", ".join(METRICS))
    alpha: float = _key("evaluate", "alpha", _REAL, "0.25", _in_open_unit)
    replicates: int = _key("evaluate", "replicates", _INT, "10000", _at_least(100))
    block_len: int | None = _key("evaluate", "block_len", _AUTO_OR_INT, "auto", _at_least(1))
    regime_quantile: float = _key("evaluate", "regime_quantile", _REAL, "0.90", _in_open_unit)
    market_variance: str = _key("evaluate", "market_variance",
                                lambda raw: "trace" if raw.lower() == "trace" else raw, "trace")
    portfolio_enabled: bool = _key("portfolio", "enabled", _FLAG, "true")
    portfolio_long_only: bool = _key("portfolio", "long_only", _FLAG, "true")
    raw_text: str = field(repr=False, default="")

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.raw_text.encode()).hexdigest()


# (section, key, parse, default, check, RunConfig field) of every key, in file order.
_KEYS = tuple((*f.metadata["ini"], f.name) for f in fields(RunConfig) if f.metadata)


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

    if seed_override is not None and seed_override < 0:
        raise ConfigError(f"--seed: must be >= 0, got {seed_override}")
    if workers_override is not None and workers_override < 1:
        raise ConfigError(f"--workers: must be >= 1, got {workers_override}")
    values = {}
    for section, key, parse, default, check, name in _KEYS:
        try:
            values[name] = _value(given[section].get(key) or default, parse, check)
        except _Invalid as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from None

    # Rules that tie several keys together.
    source, n, df = values["source"], values["sim_n"], values["sim_df"]
    if source != "simulate" and values["data_path"] is None:
        raise ConfigError(f"[data] path: required for source={source}")
    if source == "simulate" and df < n:
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
# Artifacts


@contextmanager
def _open_text(path: str | Path, newline: str | None = "", error=SeriesFormatError):
    """``path`` opened as UTF-8 text; bytes that are not UTF-8 raise ``error`` naming it."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 text ({exc.reason})") from None


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _manifest_path(cfg: RunConfig, command: str) -> Path:
    return cfg.out_dir / f"manifest_{command.replace('-', '_')}.json"


def _numpy_version() -> str:
    """The version of the NumPy a computing stage has loaded; ``report``, which loads
    none, reads the installed one's metadata."""
    if "numpy" in sys.modules:
        return sys.modules["numpy"].__version__
    from importlib.metadata import version

    return version("numpy")


def _write_manifest(cfg: RunConfig, command: str, artifacts: dict[str, str], **extra) -> None:
    manifest = {
        "command": command,
        "config_sha256": cfg.config_hash,
        "seed": cfg.seed,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "numpy_version": _numpy_version(),
        "spdcast_version": __version__,
        "source": cfg.source,
        "persistence": cfg.sim_persistence if cfg.source == "simulate" else None,
        "artifacts": artifacts,
        **extra,
    }
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    _manifest_path(cfg, command).write_text(json.dumps(manifest, indent=2) + "\n")


# ---------------------------------------------------------------------------
# The report command


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
              for metric in cfg.metrics for suffix, title in REGIMES]
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
