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
    HarnessAssertionError,
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
    parser.add_argument(
        "--config",
        default=str(example_config_path()),
        help="experiment config JSON (defaults to the bundled reference config)",
    )


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
    p_report.add_argument("--format", choices=("csv", "json", "plotdata"), default="csv")
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
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 1
    if args.seed is not None:
        config.seed = args.seed
    if args.out is not None:
        config.output_dir = args.out
    try:
        rows = run_experiment(config)
    except HarnessAssertionError as exc:
        print(f"post-run assertion failed:\n{exc}", file=sys.stderr)
        return 2
    out = Path(config.output_dir)
    csv_path = emit_csv(rows, out / "results.csv")
    json_path = emit_json(rows, out / "results.json")
    plot_path = emit_plotdata(rows, out / "plotdata.json")
    errors = sum(1 for r in rows if r.error)
    print(f"wrote {csv_path}, {json_path}, {plot_path} ({len(rows)} rows, {errors} with errors)")
    return 0


def _cmd_report(args) -> int:
    from .harness import ResultRow

    path = Path(args.rows)
    if not path.exists():
        print(f"rows file not found: {path}", file=sys.stderr)
        return 1
    try:
        rows = [ResultRow.from_json_dict(doc) for doc in json.loads(path.read_text())]
    except (ValueError, TypeError) as exc:  # not JSON, or not a list of rows with every required field
        print(f"invalid rows file {path}: {exc}", file=sys.stderr)
        return 1
    try:
        out = emit_report(rows, args.format, args.out)
    except PeerSpotError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(f"wrote {out}")
    return 0


def _cmd_verify() -> int:
    from .acceptance import run_all

    results = run_all(verbose=True)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} acceptance criteria passed")
    return 0 if not failed else 1


def main(argv: list | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "report":
        return _cmd_report(args)
    return _cmd_verify()


if __name__ == "__main__":
    sys.exit(main())
