"""Command-line interface: validate configs, run sweeps, emit reports, verify acceptance.

Exit codes: 0 success, 1 validation failure, 2 post-run assertion failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ConfigError, PeerSpotError
from .harness import (
    REPORTS,
    HarnessAssertionError,
    ResultRow,
    check_grid,
    emit_csv,
    emit_json,
    emit_plotdata,
    emit_report,
    example_config_path,
    load_config,
    run_experiment,
)


def _add_config_arg(parser: argparse.ArgumentParser) -> None:
    about = "experiment config JSON (defaults to the bundled reference config)"
    parser.add_argument("--config", default=str(example_config_path()), help=about)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peerspot",
        description="Audit-rate thresholds and equilibrium analysis for peer evaluation games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="validate a config file")
    _add_config_arg(p_validate)

    p_run = sub.add_parser("run", help="run the threshold sweep and write reports")
    _add_config_arg(p_run)
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--grid", type=float, default=None, help="override the threshold grid")
    p_run.add_argument("--out", default=None, help="override the output directory")

    p_report = sub.add_parser("report", help="re-emit reports from a JSON row dump")
    p_report.add_argument("--rows", required=True, help="results.json produced by run")
    p_report.add_argument("--format", choices=tuple(REPORTS), default="csv")
    p_report.add_argument("--out", default="results")

    sub.add_parser("verify", help="run the acceptance suite")
    return parser


def _cmd_validate(args) -> int:
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 1
    print(
        f"ok: {len(config.environments)} environment(s), {len(config.mechanisms)} mechanism(s), "
        f"{len(config.effort_costs)} effort cost(s)"
    )
    return 0


def _cmd_run(args) -> int:
    try:
        config = load_config(args.config)
        if args.grid is not None:
            config.grid = check_grid(args.grid)
        if args.out is not None:
            config.output_dir = args.out
        out = Path(config.output_dir)
        out.mkdir(parents=True, exist_ok=True)  # before the run, so an unwritable one costs nothing
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # the output directory is a file, or under one, or not ours to write
        print(f"invalid config: output_dir: {exc}", file=sys.stderr)
        return 1
    if args.seed is not None:
        config.seed = args.seed
    try:
        rows = run_experiment(config)
    except HarnessAssertionError as exc:
        print(f"post-run assertion failed:\n{exc}", file=sys.stderr)
        return 2
    # Every format, each written by this module's own name for its emitter (``emit_csv`` and
    # the others), which ``benchmarks/tracer.py`` wraps to time the writes.
    paths = [globals()[emit.__name__](rows, out / name) for name, emit in REPORTS.values()]
    errors = sum(1 for r in rows if r.error)
    print(f"wrote {', '.join(map(str, paths))} ({len(rows)} rows, {errors} with errors)")
    return 0


def _cmd_report(args) -> int:
    path = Path(args.rows)
    if not path.exists():
        print(f"rows file not found: {path}", file=sys.stderr)
        return 1
    try:
        rows = [ResultRow.from_json_dict(doc) for doc in json.loads(path.read_text())]
    except (OSError, ValueError, TypeError) as exc:  # unreadable, not JSON, or not a list of full rows
        print(f"invalid rows file {path}: {exc}", file=sys.stderr)
        return 1
    try:
        out = emit_report(rows, args.format, args.out)
    except (PeerSpotError, OSError) as exc:  # no rows, or an output directory that cannot be made
        print(str(exc), file=sys.stderr)
        return 1
    print(f"wrote {out}")
    return 0


def _cmd_verify(args) -> int:
    from .acceptance import run_all

    results = run_all()
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} acceptance criteria passed")
    return 0 if not failed else 1


def main(argv: list | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = {"validate": _cmd_validate, "run": _cmd_run, "report": _cmd_report, "verify": _cmd_verify}
    return command[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
