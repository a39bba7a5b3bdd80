"""One benchmark workload in its own process: set up, measure, check.

``run.py`` starts this file once for each set-up sample (``--setup-only``)
and once to measure.  It prints one JSON document as the last line of its
standard output.  Run it through ``run.py``, which sets the thread-count
variables and collects the set-up samples.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_DIR = ROOT / ".bench_run"
REFERENCE_DIR = BENCH_DIR / "references"

sys.path.insert(0, str(BENCH_DIR))
from calibrate import SpeedSampler  # noqa: E402
from catalogue import ALL_KINDS, BINARY_ONLY_KINDS, mc_keys  # noqa: E402
from tracer import NULL_TRACER, Tracer, layer_metrics  # noqa: E402

MEMORY_CAP_BYTES = 1 << 30  # the ROADMAP's "under 1 GB" target for k=4 sweeps
K3_REFERENCE_POOL = 32  # sweep-k3 draws its environment family from seed % pool
K3_ENVIRONMENTS = 1
MC_TRIALS = 10_000
MC_SIGMA = 4.0
MC_Z_EXACT_MISMATCH = 1e9  # |z| reported when a zero-variance estimate misses
TOL = 1e-9  # slack on threshold bounds and on the p=0 utilities
ALLOC_SLOWDOWN = 5.0  # tracemalloc slows the pure-Python table path about 4x
CHILD_BUDGET_S = 150.0

THRESHOLDS = ("p_ds", "p_el", "p_ex", "p_pareto")
FLAGS = ("pareto_bound_condition", "worthwhile_effort")
UTILITIES = ("utility_truthful_p0", "utility_gl_p0")
REFERENCE_COLUMNS = ("env_id", "mechanism", "effort_cost", "grid") + THRESHOLDS + FLAGS + UTILITIES
STATUSES = ("not_achievable", "not_found", "not_applicable")


def import_program():
    """Import ``peerspot`` from this checkout's ``src``, never from elsewhere."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import peerspot

    if not Path(peerspot.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"peerspot was imported from {peerspot.__file__}, not from {src}")
    return peerspot


# ---------------------------------------------------------------------------
# Row checks shared by the sweep workloads
# ---------------------------------------------------------------------------


def row_key(record: dict) -> tuple:
    return record["env_id"], record["mechanism"], record["effort_cost"]


def _as_float(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _tally(counter: dict, label: str, n: int = 1) -> None:
    counter[label] = counter.get(label, 0) + n


def row_problem(record: dict, reference: dict | None) -> str:
    """Why a row is wrong ('' when it is right).

    Thresholds must lie in [0, 1] or carry a status.  Against a reference,
    each threshold may move by at most the row's grid, so exact and
    grid-snapped solvers both pass; flags and statuses must match exactly.
    """
    for name in THRESHOLDS:
        value = _as_float(record[name])
        if value is None and record[name] not in STATUSES:
            return f"{name}={record[name]!r} is neither a probability nor a status"
        if value is not None and not -TOL <= value <= 1.0 + TOL:
            return f"{name}={value!r} outside [0, 1]"
    if reference is None:
        return ""
    grid = float(reference["grid"])
    for name in THRESHOLDS:
        new, old = _as_float(record[name]), _as_float(reference[name])
        if new is None or old is None:
            if record[name] != reference[name]:
                return f"{name}={record[name]!r}, reference {reference[name]!r}"
        elif abs(new - old) > grid:
            return f"{name}={new!r}, reference {old!r}, grid {grid!r}"
    for name in FLAGS + ("grid",):
        if record[name] != reference[name]:
            return f"{name}={record[name]!r}, reference {reference[name]!r}"
    for name in UTILITIES:
        if abs(float(record[name]) - float(reference[name])) > TOL:
            return f"{name}={record[name]!r}, reference {reference[name]!r}"
    return ""


def check_row_passes(outputs: list, rows_per_pass: int, reference: dict | None) -> dict:
    """Count failed rows over every pass and list what makes the outputs incorrect.

    A row fails when it carries an error, is missing, or disagrees with the
    reference.  The outputs are incorrect (``problems``) when a row disagrees
    with the reference or its sanity bounds, or when two passes differ.
    Without a reference, rows that carry an error only count as failed.
    """
    failed, problems, errors = 0, [], {}
    first = None
    for out in outputs:
        if out["error"]:
            failed += rows_per_pass
            _tally(errors, out["error"], rows_per_pass)
            if reference is not None:
                problems.append(f"pass failed: {out['error']}")
            continue
        if first is None:
            first = out
        elif (out["records"], out.get("csv")) != (first["records"], first.get("csv")):
            problems.append("outputs differ between passes of one run")
        records = out["records"]
        if len(records) != rows_per_pass:
            failed += max(0, rows_per_pass - len(records))
            problems.append(f"{len(records)} rows, expected {rows_per_pass}")
        for record in records:
            if record["error"]:
                failed += 1
                _tally(errors, record["error"])
                if reference is not None:
                    problems.append(f"{row_key(record)}: {record['error']}")
                continue
            expected = None
            if reference is not None:
                expected = reference.get(row_key(record))
                if expected is None:
                    failed += 1
                    problems.append(f"{row_key(record)}: not in the reference")
                    continue
            problem = row_problem(record, expected)
            if problem:
                failed += 1
                problems.append(f"{row_key(record)}: {problem}")
    return {"failed": failed, "problems": sorted(set(problems)), "errors": errors}


def load_reference(name: str, family: str | None = None) -> dict:
    """Reference rows keyed like ``row_key``, recorded from the seed commit."""
    doc = json.loads((REFERENCE_DIR / name).read_text())
    rows = doc["rows"] if family is None else doc["families"][family]
    records = [dict(zip(doc["columns"], row)) for row in rows]
    return {row_key(r): r for r in records}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class SweepWorkload:
    """``run_experiment`` over a generated config; one operation is one result row."""

    memory_cap = False
    traces_allocations = True

    def __init__(self, peerspot, seed: int, size: str):
        from peerspot import harness

        self.harness = harness
        self.seed = seed
        self.size = size
        self.tracer = NULL_TRACER
        start = time.perf_counter()
        self.config = harness.parse_config(self.config_doc())
        self.config_times = [time.perf_counter() - start]
        config = self.config
        self.ops_per_pass = len(config.environments) * len(config.mechanisms) * len(config.effort_costs)
        self._rows = None
        self._error = ""

    def run_pass(self) -> None:
        self._rows, self._error = None, ""
        try:
            with self.tracer.span("harness.run_experiment", rows=self.ops_per_pass):
                self._rows = self.harness.run_experiment(self.config)
        except Exception as exc:  # a failure escaping the sweep is a measured outcome
            self._error = f"{type(exc).__name__}: {exc}"

    def collect(self) -> dict:
        if self._error:
            return {"error": self._error, "records": []}
        return {"error": "", "records": [row.csv_record() for row in self._rows]}

    def reference(self):
        return None

    def check(self, outputs: list) -> dict:
        return check_row_passes(outputs, self.ops_per_pass, self.reference())


class SweepK3(SweepWorkload):
    name = "sweep-k3"

    def family(self) -> int:
        return self.seed % K3_REFERENCE_POOL

    def config_doc(self) -> dict:
        kinds = [k for k in ALL_KINDS if k not in BINARY_ONLY_KINDS]
        count = K3_ENVIRONMENTS
        if self.size == "tiny":
            kinds, count = ["output_agreement", "peer_insensitive"], 1
        generator = {"labels": 3, "count": count, "seed": self.family(), "prefix": "bench"}
        return {
            "environments": [{"generator": generator}],
            "mechanisms": [{"kind": k} for k in kinds],
            "seed": self.seed,
        }

    def reference(self):
        return load_reference("sweep-k3.json", str(self.family()))


class SweepK4(SweepWorkload):
    name = "sweep-k4"
    memory_cap = True

    def config_doc(self) -> dict:
        kinds = ["peer_insensitive"] if self.size == "tiny" else ["output_agreement", "peer_insensitive"]
        return {
            "environments": [{"generator": {"labels": 4, "count": 1, "seed": self.seed, "prefix": "bench"}}],
            "mechanisms": [{"kind": k} for k in kinds],
            "seed": self.seed,
        }


class Bundled:
    """``peerspot run`` on the bundled config through ``cli.main``; one operation is one row."""

    name = "bundled"
    memory_cap = False
    traces_allocations = True

    def __init__(self, peerspot, seed: int, size: str):
        from peerspot import cli, harness

        self.cli = cli
        self.tracer = NULL_TRACER
        doc = json.loads(harness.example_config_path().read_text())
        doc["seed"] = seed
        self.out_dir = RUN_DIR / "bundled"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.config_path = self.out_dir / "config.json"
        self.config_path.write_text(json.dumps(doc, indent=2))
        start = time.perf_counter()
        config = harness.load_config(self.config_path)
        self.config_times = [time.perf_counter() - start]
        self.ops_per_pass = len(config.environments) * len(config.mechanisms) * len(config.effort_costs)
        self._code = 0
        self._stderr = ""

    def run_pass(self) -> None:
        argv = ["run", "--config", str(self.config_path), "--out", str(self.out_dir / "results")]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            try:
                self._code = self.cli.main(argv)
            except Exception as exc:  # the command crashing is a measured outcome
                self._code = -1
                print(f"{type(exc).__name__}: {exc}", file=stderr)
        self._stderr = stderr.getvalue().strip()

    def collect(self) -> dict:
        if self._code != 0:
            return {"error": f"exit code {self._code}: {self._stderr[:300]}", "records": []}
        data = (self.out_dir / "results" / "results.csv").read_bytes()
        return {"error": "", "records": list(csv.DictReader(io.StringIO(data.decode()))), "csv": data}

    def check(self, outputs: list) -> dict:
        return check_row_passes(outputs, self.ops_per_pass, load_reference("bundled.json"))


class MonteCarlo:
    """``simulate_utilities`` for every kind and rule at k=2 and k=3; one operation is one estimate.

    The k=2 environment is the acceptance gate's C7 environment (the bundled
    e1 with 10 agents and 100 objects); the k=3 one is generated from the
    seed with the same sizes.  Each kind runs under a truthful profile and
    with one low-effort identity deviant.
    """

    name = "mc-crosscheck"
    memory_cap = False
    traces_allocations = False

    def __init__(self, peerspot, seed: int, size: str):
        from peerspot import harness
        from peerspot.strategies import StrategyProfile, low_identity_strategy, truthful_strategy

        self.peerspot = peerspot
        self.tracer = NULL_TRACER
        self.trials = 500 if size == "tiny" else MC_TRIALS
        e1 = json.loads(harness.example_config_path().read_text())["environments"][0]
        e1.update(n_agents=10, n_objects=100, env_id="e1-n10-m100")
        generator = {"labels": 3, "count": 1, "seed": seed, "n_agents": 10, "n_objects": 100, "prefix": "mc"}
        kinds_and_rules = [(kind, rule) for kind, rule, _ in mc_keys(2)]
        start = time.perf_counter()
        config = harness.parse_config(
            {
                "environments": [e1, {"generator": generator}],
                "mechanisms": [{"kind": kind, "rule": rule or "quadratic"} for kind, rule in kinds_and_rules],
            }
        )
        self.config_times = [time.perf_counter() - start]
        spec_of = dict(zip(kinds_and_rules, config.mechanisms))
        self.cases = []  # (metric key, spec, env, profile, deviant, sampler seed)
        for env in config.environments:
            truthful = truthful_strategy(env.q_space)
            deviants = (truthful, low_identity_strategy(env.q_space))
            for kind, rule, key in mc_keys(len(env.q_space)):
                for deviant in deviants:
                    if deviant == truthful:
                        profile = StrategyProfile.symmetric(truthful)
                    else:
                        profile = StrategyProfile.with_deviant(truthful, deviant)
                    case_seed = seed * 1000 + len(self.cases)
                    self.cases.append((key, spec_of[kind, rule], env, profile, deviant, case_seed))
        self.ops_per_pass = len(self.cases)
        self._estimates = []

    def run_pass(self) -> None:
        simulate = self.peerspot.simulate_utilities
        self._estimates = []
        for key, spec, env, profile, _, case_seed in self.cases:
            try:
                with self.tracer.span("mechanisms.mc", key=key, samples=self.trials):
                    est = simulate(spec, env, profile, trials=self.trials, seed=case_seed)
                self._estimates.append((est.value, est.stderr))
            except Exception as exc:  # a failing estimate is a measured outcome
                self._estimates.append(f"{type(exc).__name__}: {exc}")

    def collect(self) -> dict:
        return {"estimates": self._estimates}

    def check(self, outputs: list) -> dict:
        """Each estimate must lie within 4 sigma of the exact per-cell value.

        An estimate outside counts as failed; estimates that differ between
        passes (same sampler seeds) make the outputs incorrect.
        """
        analytic = self.peerspot.analytic_unchecked_value
        exact = [analytic(spec, env, profile.base, deviant) for _, spec, env, profile, deviant, _ in self.cases]
        failed, problems, errors, z_by_key = 0, [], {}, {}
        for out in outputs:
            if out["estimates"] != outputs[0]["estimates"]:
                problems.append("estimates differ between passes with the same sampler seeds")
            for case, truth, est in zip(self.cases, exact, out["estimates"]):
                key = case[0]
                if isinstance(est, str):
                    failed += 1
                    _tally(errors, est)
                    continue
                value, stderr = est
                if stderr > 0:
                    z = abs(value - truth) / stderr
                else:
                    z = 0.0 if value == truth else MC_Z_EXACT_MISMATCH
                z_by_key[key] = max(z_by_key.get(key, 0.0), z)
                if z > MC_SIGMA:
                    failed += 1
                    _tally(errors, f"{key} outside {MC_SIGMA:g} sigma")
        return {"failed": failed, "problems": sorted(set(problems)), "errors": errors, "z": z_by_key}


WORKLOADS = {w.name: w for w in (Bundled, SweepK3, SweepK4, MonteCarlo)}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def measure(work, seconds: float) -> tuple:
    """Run whole passes until ``seconds`` have passed; outputs are collected untimed."""
    times, outputs = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        work.run_pass()
        times.append(time.perf_counter() - t0)
        outputs.append(work.collect())
        if time.perf_counter() - start >= seconds:
            return times, outputs


def measure_scaled(work, seconds: float) -> tuple:
    """``measure`` with the calibration kernel sampled throughout.

    Each pass gets the speed factor of the samples around it; the kernel's
    own time is taken off the pass times.
    """
    times, outputs = [], []
    with SpeedSampler() as sampler:
        start = time.perf_counter()
        while True:
            spent, t0 = sampler.spent, time.perf_counter()
            work.run_pass()
            t1 = time.perf_counter()
            times.append((t0, t1, t1 - t0 - (sampler.spent - spent)))
            outputs.append(work.collect())
            if time.perf_counter() - start >= seconds:
                break
    factors = [sampler.factor(t0, t1) for t0, t1, _ in times]
    return [t for _, _, t in times], factors, outputs


def measure_traced(work, seconds: float, started: float) -> dict:
    """Untraced passes, then span-traced passes, then one tracemalloc pass.

    The tracemalloc pass is skipped when it would not fit the child's time
    budget; its peaks then read 0.
    """
    times, outputs = measure(work, seconds / 2)
    tracer = Tracer()
    with tracer.installed(work):
        traced_times, traced_outputs = measure(work, seconds / 2)
    alloc = None
    predicted = ALLOC_SLOWDOWN * statistics.median(traced_times)
    if work.traces_allocations and time.monotonic() - started + predicted < CHILD_BUDGET_S:
        alloc = Tracer(track_alloc=True)
        tracemalloc.start()
        try:
            with alloc.installed(work):
                work.run_pass()
        finally:
            tracemalloc.stop()
        outputs.append(work.collect())
    return {
        "times": times,
        "factors": [],
        "outputs": outputs + traced_outputs,
        "traced_times": traced_times,
        "tracer": tracer,
        "alloc": alloc,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    started = time.monotonic()
    workload = WORKLOADS[args.workload]
    if workload.memory_cap:
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, hard))

    peerspot = import_program()
    work = workload(peerspot, args.seed, args.size)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    if args.trace:
        run = measure_traced(work, args.seconds, started)
    else:
        times, factors, outputs = measure_scaled(work, args.seconds)
        run = {"times": times, "factors": factors, "outputs": outputs, "tracer": None}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    verdict = work.check(run["outputs"])
    result = {
        "ready": ready,
        "ops_per_pass": work.ops_per_pass,
        "pass_times": run["times"],
        "speed_factors": run["factors"],
        "attempted": work.ops_per_pass * len(run["outputs"]),
        "failed": verdict["failed"],
        "problems": verdict["problems"][:20],
        "errors": verdict["errors"],
        "mc_z": verdict.get("z", {}),
        "peak_rss_mb": peak_rss_mb,
        "memory_cap_bytes": MEMORY_CAP_BYTES if workload.memory_cap else None,
        "mc_trials": getattr(work, "trials", None),
        "numpy": sys.modules["numpy"].__version__,
    }
    if run["tracer"] is not None:
        result["traced_pass_times"] = run["traced_times"]
        result["layers"], result["layer_notes"] = layer_metrics(work, run, verdict)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
