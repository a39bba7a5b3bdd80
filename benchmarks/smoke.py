"""Smoke run of the benchmark itself, at tiny sizes; not part of the test suite.

    python3 benchmarks/smoke.py

It checks that every workload runs untraced and traced and prints exactly
the metrics BENCHMARK.json lists, that the k=4 sweep's MemoryError under the
1 GiB cap becomes failed rows instead of a crash, that the row check catches
an injected wrong threshold and flag, and that the benchmark refuses to run
without the program's sources.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import workload as wl  # noqa: E402
from catalogue import END_TO_END, per_layer  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_benchmark(args: list, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py"] + args, cwd=cwd, capture_output=True, text=True, timeout=170
    )


def check_workloads(spec: dict, failures: list) -> None:
    sections = {0: "end_to_end", 1: "per_layer"}
    for entry in spec["workloads"]:
        name = entry["name"]
        for trace, section in sections.items():
            done = run_benchmark(["--workload", name, "--seed", "1", "--seconds", "1", "--size", "tiny",
                                  "--trace", str(trace)])
            label = f"{name} trace={trace}"
            if done.returncode != 0:
                failures.append(f"{label}: exit {done.returncode}: {done.stderr[-500:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != RESULT_KEYS:
                failures.append(f"{label}: result keys {sorted(result)}")
            if list(result["metrics"]) != [m["name"] for m in spec[section]]:
                failures.append(f"{label}: metric names differ from BENCHMARK.json {section}")
            if not result["correct"] or result["attempted"] < 1:
                failures.append(f"{label}: correct={result['correct']} attempted={result['attempted']}")
            print(f"ok {label}: attempted={result['attempted']} failed={result['failed']}")


def check_memory_cap(failures: list) -> None:
    record = json.loads((wl.RUN_DIR / "sweep-k4-seed1-trace0.json").read_text())
    child = record["child"]
    if child["memory_cap_bytes"] != wl.MEMORY_CAP_BYTES:
        failures.append("sweep-k4 ran without the 1 GiB cap")
    if child["failed"] != child["attempted"] or not any("MemoryError" in e for e in child["errors"]):
        failures.append(f"sweep-k4: expected every row to fail with MemoryError, got {child['errors']}")
    print("ok sweep-k4: MemoryError under the cap became failed rows")


def check_injected_faults(failures: list) -> None:
    peerspot = wl.import_program()
    work = wl.Bundled(peerspot, seed=1, size="tiny")
    work.run_pass()
    outputs = [work.collect()]
    reference = wl.load_reference("bundled.json")
    clean = wl.check_row_passes(outputs, work.ops_per_pass, reference)
    if clean["problems"] or clean["failed"]:
        failures.append(f"untouched reference reports problems: {clean['problems'][:3]}")
    key = next(iter(reference))
    row = reference[key]
    wrong_values = {
        "p_pareto": repr(float(row["p_pareto"]) + 2 * float(row["grid"])),
        "pareto_bound_condition": "false" if row["pareto_bound_condition"] == "true" else "true",
    }
    for column, wrong in wrong_values.items():
        tampered = copy.deepcopy(reference)
        tampered[key][column] = wrong
        verdict = wl.check_row_passes(outputs, work.ops_per_pass, tampered)
        if verdict["failed"] != 1 or not verdict["problems"]:
            failures.append(f"a wrong {column} was not caught: {verdict}")
        else:
            print(f"ok injected wrong {column}: {verdict['problems'][0][:100]}")
    doubled = outputs + [dict(outputs[0], csv=outputs[0]["csv"] + b"\n")]
    if not wl.check_row_passes(doubled, work.ops_per_pass, reference)["problems"]:
        failures.append("CSV bytes that differ between passes were not caught")


def check_bare_directory(failures: list) -> None:
    bare = wl.RUN_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = run_benchmark(["--workload", "bundled", "--seed", "1", "--seconds", "1"], cwd=bare)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        failures.append("the benchmark produced a result without the program's sources")
    else:
        print(f"ok bare directory: exit {done.returncode}")
    shutil.rmtree(bare)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    if [m["name"] for m in spec["end_to_end"]] != list(END_TO_END):
        failures.append("BENCHMARK.json end_to_end differs from catalogue.END_TO_END")
    if [m["name"] for m in spec["per_layer"]] != list(per_layer()):
        failures.append("BENCHMARK.json per_layer differs from catalogue.per_layer()")
    check_workloads(spec, failures)
    check_memory_cap(failures)
    check_injected_faults(failures)
    check_bare_directory(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("smoke run " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
