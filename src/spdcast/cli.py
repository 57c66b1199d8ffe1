"""Command line front end: simulate | ingest | train-forecast | evaluate | portfolio | report.

Every subcommand reads the same INI config (see the README for the section
reference) and writes artifacts under the configured output directory.
``--seed``, ``--out``, and ``--workers`` override the corresponding config
keys.  The ``SPDCAST_LOG`` environment variable sets the logging level.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .exceptions import ConfigError, SpdcastError
from .pipeline import (
    cmd_evaluate,
    cmd_ingest,
    cmd_portfolio,
    cmd_report,
    cmd_simulate,
    cmd_train_forecast,
    load_config,
)

_COMMANDS = {
    "simulate": cmd_simulate,
    "ingest": cmd_ingest,
    "train-forecast": cmd_train_forecast,
    "evaluate": cmd_evaluate,
    "portfolio": cmd_portfolio,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spdcast",
        description="Forecast series of covariance matrices and evaluate the forecasts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "simulate": "write a synthetic covariance series and daily returns",
        "ingest": "build realized covariances from an intraday price CSV",
        "train-forecast": "fit the model roster and write rolling one-step forecasts",
        "evaluate": "loss tables, model confidence sets, and regime splits",
        "portfolio": "minimum-variance weight paths and the volatility report",
        "report": "assemble evaluation and portfolio tables into report.md",
    }
    for name in _COMMANDS:
        p = sub.add_parser(name, help=helps[name])
        p.add_argument("--config", required=True, help="path to the run config file")
        p.add_argument("--seed", type=int, default=None, help="override [run] seed")
        p.add_argument("--out", default=None, help="override [run] out directory")
        p.add_argument("--workers", type=int, default=None, help="override [run] workers")
    return parser


def main(argv: list[str] | None = None) -> int:
    level_name = os.environ.get("SPDCAST_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        print(f"spdcast: ignoring unknown SPDCAST_LOG level {level_name!r}", file=sys.stderr)
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")

    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.seed, args.out, args.workers)
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"spdcast: config error: {exc}", file=sys.stderr)
        return 2
    except SpdcastError as exc:
        print(f"spdcast: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # an output file that cannot be written
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"spdcast: {where}{exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
