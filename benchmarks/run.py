"""peerspot benchmark: measure one workload, or every workload with ``--all``.

    python3 benchmarks/run.py --workload sweep-k3 --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --all --seed 1 --seconds 20 --out bench.json

Run it from the repository root.  Each workload runs in child processes, one
at a time, with OMP_NUM_THREADS=1 and OPENBLAS_NUM_THREADS=1 set in the
children only.  Three children only set up (import, config load,
environment generation) before the measuring child and three after it, so
``setup_s`` is a median of seven; the measuring child sets up, measures
whole passes for ``--seconds`` and checks every output.  With
``--trace 1`` the child also records spans at the layer boundaries.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the machine facts, the failures and the per-layer readings.  A fuller
record goes to ``.bench_run/``.  Workloads, metrics and known defects are
described in ``benchmarks/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import calibration_s, speed_factor

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_DIR = ROOT / ".bench_run"
WORKLOADS = ("bundled", "sweep-k3", "sweep-k4", "mc-crosscheck")
SETUP_ONLY_CHILDREN = 3  # before and again after the measuring child, so samples span the run
DEADLINE_S = 175.0
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}


class BenchmarkError(Exception):
    """The benchmark could not produce a result; nothing is printed as one."""


def check_checkout() -> dict:
    """BENCHMARK.json of this checkout; fails unless the program's sources are here."""
    if not (ROOT / "src" / "peerspot" / "__init__.py").is_file():
        raise BenchmarkError(f"no peerspot sources under {ROOT / 'src'}; run from a full checkout")
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _command_output(argv: list) -> str:
    try:
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return done.stdout if done.returncode == 0 else ""


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_facts(seed: int) -> dict:
    cpu = {}
    for line in _command_output(["lscpu"]).splitlines():
        name, _, value = line.partition(":")
        cpu[name.strip()] = value.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu.get("Model name"),
        "l3_cache": cpu.get("L3 cache"),
        "python": platform.python_version(),
        "git_commit": _command_output(["git", "rev-parse", "HEAD"]).strip() if (ROOT / ".git").exists() else None,
        "src_sha256": source_digest(),
        "seed": seed,
        "child_env": CHILD_ENV,
    }


def run_child(argv: list, deadline: float) -> tuple:
    """Run one child to completion; returns (spawn time, its JSON document)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("out of time before starting a child")
    env = dict(os.environ, **CHILD_ENV)
    spawned = time.monotonic()
    try:
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "workload.py")] + argv,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"child {argv} did not finish in {remaining:.0f} s") from None
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchmarkError(f"child {argv} exited with {done.returncode}:\n{done.stderr[-2000:]}")
    return spawned, json.loads(done.stdout.strip().splitlines()[-1])


def measure_workload(workload: str, seed: int, seconds: float, trace: int, size: str, deadline: float) -> dict:
    base = ["--workload", workload, "--seed", str(seed), "--size", size]

    def setup_samples() -> list:
        """(raw set-up time, speed factor around it) for each set-up-only child."""
        samples = []
        for _ in range(SETUP_ONLY_CHILDREN):
            cal_before = calibration_s()
            spawned, doc = run_child(base + ["--setup-only"], deadline)
            samples.append((doc["ready"] - spawned, speed_factor(cal_before, calibration_s())))
        return samples

    calibration_s()  # the first run in a process is slow; leave it out
    before = setup_samples()
    _, child = run_child(base + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    child["setup_samples"] = before + setup_samples()
    return child


def end_to_end(child: dict) -> dict:
    """Medians at reference machine speed (see calibrate.py), and peak RSS."""
    rates = [child["ops_per_pass"] / t * f for t, f in zip(child["pass_times"], child["speed_factors"])]
    return {
        "rows_per_s": statistics.median(rates),
        "setup_s": statistics.median(t / f for t, f in child["setup_samples"]),
        "peak_rss_mb": child["peak_rss_mb"],
    }


EXTRA_UNITS = {
    "failed_frac": "frac",
    "mc_samples_per_s": "1/s",
    "raw_rows_per_s": "1/s",
    "raw_setup_s": "s",
    "speed_factor": "x",
}


def extra_readings(child: dict) -> dict:
    """Readings outside `metrics`: the failed fraction, Monte-Carlo samples per
    second at reference speed, and the medians as measured, unscaled."""
    view = {
        "failed_frac": child["failed"] / child["attempted"],
        "raw_rows_per_s": statistics.median(child["ops_per_pass"] / t for t in child["pass_times"]),
        "raw_setup_s": statistics.median(t for t, _ in child["setup_samples"]),
        "speed_factor": statistics.median(child["speed_factors"]),
    }
    if child.get("mc_trials"):
        samples = child["ops_per_pass"] * child["mc_trials"]
        view["mc_samples_per_s"] = statistics.median(
            samples / t * f for t, f in zip(child["pass_times"], child["speed_factors"])
        )
    return view


def select_metrics(spec: dict, section: str, values: dict) -> dict:
    out = {}
    for metric in spec[section]:
        value = values.get(metric["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise BenchmarkError(f"metric {metric['name']} has no finite value: {value!r}")
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return out


def report_lines(workload: str, seed: int, trace: int, child: dict, metrics: dict) -> list:
    lines = [
        f"{workload} seed={seed} trace={trace}: {len(child['pass_times'])} timed passes of "
        f"{child['ops_per_pass']} operations, {child['failed']}/{child['attempted']} failed"
    ]
    readings = {name: (m["value"], m["unit"]) for name, m in metrics.items()}
    if not trace:
        readings.update((name, (value, EXTRA_UNITS[name])) for name, value in extra_readings(child).items())
    for name, (value, unit) in readings.items():
        if trace and value == 0:
            continue
        lines.append(f"  {name:64s} {value:.6g} {unit}")
    for error, count in sorted(child["errors"].items(), key=lambda item: -item[1])[:8]:
        lines.append(f"  failed x{count}: {error[:160]}")
    for problem in child["problems"]:
        lines.append(f"  INCORRECT: {problem[:200]}")
    return lines


def run_one(spec: dict, workload: str, seed: int, seconds: float, trace: int, size: str, deadline: float) -> dict:
    child = measure_workload(workload, seed, seconds, trace, size, deadline)
    if trace:
        metrics = select_metrics(spec, "per_layer", child["layers"])
    else:
        metrics = select_metrics(spec, "end_to_end", end_to_end(child))
    result = {
        "correct": not child["problems"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }
    return {"workload": workload, "trace": trace, "child": child, "result": result}


def write_record(name: str, doc: dict) -> Path:
    RUN_DIR.mkdir(exist_ok=True)
    path = RUN_DIR / name
    path.write_text(json.dumps(doc, indent=1, sort_keys=True))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="every workload, untraced then traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="defaults to BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for smoke.py")
    parser.add_argument("--out", help="with --all, where to write the combined record")
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        spec = check_checkout()
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        facts = machine_facts(args.seed)
        if args.all:
            runs = []
            for workload in WORKLOADS:
                for trace in (0, 1):
                    deadline = time.monotonic() + DEADLINE_S
                    run = run_one(spec, workload, args.seed, seconds, trace, args.size, deadline)
                    runs.append(run)
                    facts["numpy"] = run["child"]["numpy"]
                    print("\n".join(report_lines(workload, args.seed, trace, run["child"], run["result"]["metrics"])))
            print("facts " + json.dumps(facts, sort_keys=True))
            summary = {
                "facts": facts,
                "seconds": seconds,
                "workloads": {
                    r["workload"] + ("+trace" if r["trace"] else ""): dict(
                        r["result"], **({} if r["trace"] else extra_readings(r["child"]))
                    )
                    for r in runs
                },
                "runs": runs,
            }
            path = Path(args.out) if args.out else RUN_DIR / f"BENCH-seed{args.seed}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(summary, indent=1, sort_keys=True))
            print(f"wrote {path}")
            return 0
        run = run_one(spec, args.workload, args.seed, seconds, args.trace, args.size, time.monotonic() + DEADLINE_S)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    facts["numpy"] = run["child"]["numpy"]
    print("facts " + json.dumps(facts, sort_keys=True))
    print("\n".join(report_lines(args.workload, args.seed, args.trace, run["child"], run["result"]["metrics"])))
    write_record(f"{args.workload}-seed{args.seed}-trace{args.trace}.json", dict(run, facts=facts))
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
