"""Command-line driver.

    fourthorder <experiment> --config PATH [--out DIR] [--threads N]

The subcommand must match the config's experiment.name.  Thread count
defaults to the FOURTHORDER_THREADS environment variable (then 1); the
flag wins.  Exit status: 0 when every in-config assertion passes, 1
when one fails, 2 on config or numerical errors, which are reported as
a one-line JSON diagnostic on stderr.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import (
    BracketError,
    ConfigError,
    ConvergenceError,
    ExpansionMismatchError,
    IndeterminateClassification,
    SingularFactorError,
    TruncationError,
)
from .harness import EXPERIMENTS, parse_config, run

THREADS_ENV = "FOURTHORDER_THREADS"

_FAILURES = (
    BracketError,
    ConfigError,
    ConvergenceError,
    ExpansionMismatchError,
    IndeterminateClassification,
    SingularFactorError,
    TruncationError,
    ValueError,
    OSError,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fourthorder",
        description="Run one spectral-toolkit experiment from a config file.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True, metavar="EXPERIMENT")
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run a {name} config")
        p.add_argument("--config", required=True, help="path to the dotted-key config file")
        p.add_argument("--out", default=".", help="directory for report files (default: .)")
        p.add_argument(
            "--threads",
            type=int,
            default=None,
            help=f"worker threads (default: ${THREADS_ENV} or 1)",
        )
    return parser


def _diagnostic(exc: Exception) -> str:
    body = {"type": type(exc).__name__, "message": str(exc)}
    for attr in ("factor", "cond", "achieved_error"):
        if hasattr(exc, attr):
            value = getattr(exc, attr)
            if isinstance(value, (int, float, str)):
                body[attr] = value
    return json.dumps({"error": body}, sort_keys=True)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        threads = args.threads
        if threads is None:
            raw = os.environ.get(THREADS_ENV, "1")
            try:
                threads = int(raw)
            except ValueError:
                raise ConfigError(f"{THREADS_ENV} must be an integer, got {raw!r}") from None
        config = parse_config(Path(args.config).read_text())
        if config.experiment != args.experiment:
            raise ConfigError(
                f"subcommand {args.experiment!r} does not match "
                f"experiment.name = {config.experiment!r}"
            )
        report = run(config, args.out, threads=threads)
    except _FAILURES as exc:
        print(_diagnostic(exc), file=sys.stderr)
        return 2

    if report.verdict is not None:
        print(f"verdict: {report.verdict}")
    for fit in report.fits:
        print(
            f"fit[{fit['label']}]: exponent {fit['exponent']:.4f} "
            f"residual {fit['residual']:.4f} over [{fit['window'][0]:g}, {fit['window'][1]:g}]"
        )
    for a in report.assertions:
        print(f"[{'PASS' if a['pass'] else 'FAIL'}] {a['name']}: {a['detail']}")
    print(f"report: {report.paths['json']}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
