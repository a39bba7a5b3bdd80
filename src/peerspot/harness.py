"""Experiment orchestration: config ingestion, threshold sweeps, and report emission.

A run crosses every environment with every mechanism and every effort-cost
value, computes the four audit-probability thresholds plus the
sufficient-condition flag per triple, and writes flat CSV / JSON / plot-data
files.  Identical config and seed reproduce identical CSV bytes; errors in
one triple are recorded in its row and never abort the sweep.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .equilibrium import PayoffTable, compute_payoff_table, compute_thresholds
from .errors import ConfigError, PeerSpotError
from .mechanisms import MechanismSpec
from .signals import Channel, Distribution, Environment, LabelSpace
from .spotcheck import check_worthwhile_effort

DEFAULT_EFFORT_COSTS = (0.0, 0.05, 0.1, 0.2)

CSV_COLUMNS = (
    "env_id",
    "mechanism",
    "effort_cost",
    "p_ds",
    "p_el",
    "p_ex",
    "p_pareto",
    "grid",
    "pareto_bound_condition",
    "utility_truthful_p0",
    "utility_gl_p0",
    "worthwhile_effort",
    "seed",
    "error",
)


class HarnessAssertionError(PeerSpotError):
    """A post-run consistency assertion failed; the message carries the dump."""


@dataclass
class ExperimentConfig:
    environments: list
    mechanisms: list
    effort_costs: tuple = DEFAULT_EFFORT_COSTS
    p_values: tuple = ()
    seed: int = 0
    grid: float = 1e-3
    output_dir: str = "results"


@dataclass
class ResultRow:
    env_id: str
    mechanism: str
    effort_cost: float
    thresholds: dict
    pareto_bound_condition: bool
    utility_truthful_p0: float | None
    utility_gl_p0: float | None
    worthwhile_effort: bool | None
    seed: int
    timestamp: float
    utilities_at_p: dict = field(default_factory=dict)
    error: str = ""

    def csv_record(self) -> dict:
        def cell(x):
            if x is None:
                return ""
            if isinstance(x, bool):
                return str(x).lower()
            if isinstance(x, float):
                return repr(x)
            return str(x)

        out = {
            "env_id": self.env_id,
            "mechanism": self.mechanism,
            "effort_cost": cell(self.effort_cost),
            "grid": cell(self.thresholds.get("grid_resolution")),
            "pareto_bound_condition": cell(self.pareto_bound_condition),
            "utility_truthful_p0": cell(self.utility_truthful_p0),
            "utility_gl_p0": cell(self.utility_gl_p0),
            "worthwhile_effort": cell(self.worthwhile_effort),
            "seed": cell(self.seed),
            "error": self.error,
        }
        for key in ("p_ds", "p_el", "p_ex", "p_pareto"):
            out[key] = cell(self.thresholds.get(key))
        return out

    def to_json_dict(self) -> dict:
        return {
            "env_id": self.env_id,
            "mechanism": self.mechanism,
            "effort_cost": self.effort_cost,
            "p_ds": self.thresholds.get("p_ds"),
            "p_el": self.thresholds.get("p_el"),
            "p_ex": self.thresholds.get("p_ex"),
            "p_pareto": self.thresholds.get("p_pareto"),
            "grid": self.thresholds.get("grid_resolution"),
            "pareto_bound_condition": self.pareto_bound_condition,
            "utility_truthful_p0": self.utility_truthful_p0,
            "utility_gl_p0": self.utility_gl_p0,
            "worthwhile_effort": self.worthwhile_effort,
            "seed": self.seed,
            "timestamp": self.timestamp,
            "utilities_at_p": self.utilities_at_p,
            "error": self.error,
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "ResultRow":
        thresholds = {k: doc.get(k) for k in ("p_ds", "p_el", "p_ex", "p_pareto")}
        thresholds["grid_resolution"] = doc.get("grid")
        return ResultRow(
            env_id=doc["env_id"],
            mechanism=doc["mechanism"],
            effort_cost=float(doc["effort_cost"]),
            thresholds=thresholds,
            pareto_bound_condition=bool(doc.get("pareto_bound_condition", False)),
            utility_truthful_p0=doc.get("utility_truthful_p0"),
            utility_gl_p0=doc.get("utility_gl_p0"),
            worthwhile_effort=doc.get("worthwhile_effort"),
            seed=int(doc.get("seed", 0)),
            timestamp=float(doc.get("timestamp", 0.0)),
            utilities_at_p=doc.get("utilities_at_p", {}),
            error=doc.get("error", ""),
        )


def generate_environments(
    labels: int,
    count: int,
    seed: int,
    accuracy: tuple = (0.6, 0.95),
    n_agents: int = 3,
    n_objects: int = 2,
    effort_cost: float = 0.1,
    prefix: str = "gen",
) -> list:
    """Seeded family of environments with noisy aligned high/trusted channels.

    Channel rows come from the symmetric-noise family with per-row accuracy
    drawn uniformly from ``accuracy``; the shared low draw stays uniform and
    quality-independent.
    """
    rng = np.random.default_rng(seed)
    space = LabelSpace.of(tuple(range(labels)))
    lo, hi = accuracy
    envs = []
    for i in range(count):
        def noisy_channel():
            rows = []
            for _ in range(labels):
                acc = rng.uniform(lo, hi)
                row = np.full(labels, (1.0 - acc) / (labels - 1))
                row[len(rows)] = acc
                rows.append(row)
            return Channel.from_matrix(space, space, np.array(rows))

        env = Environment(
            q_space=space,
            prior=Distribution.uniform(space),
            high_channel=noisy_channel(),
            trusted_channel=noisy_channel(),
            low_channel=Channel.uniform(space),
            effort_cost=effort_cost,
            n_agents=n_agents,
            n_objects=n_objects,
            env_id=f"{prefix}-q{labels}-s{seed}-{i}",
        )
        env.validate()
        envs.append(env)
    return envs


def _expand_environment_entry(entry: dict, position: int) -> list:
    if "generator" in entry:
        gen = entry["generator"]
        try:
            return generate_environments(
                labels=int(gen.get("labels", 2)),
                count=int(gen.get("count", 1)),
                seed=int(gen.get("seed", 0)),
                accuracy=tuple(gen.get("accuracy", (0.6, 0.95))),
                n_agents=int(gen.get("n_agents", 3)),
                n_objects=int(gen.get("n_objects", 2)),
                effort_cost=float(gen.get("effort_cost", 0.1)),
                prefix=str(gen.get("prefix", "gen")),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"environments[{position}].generator: {exc}") from None
    try:
        return [Environment.from_json_dict(entry)]
    except KeyError as exc:
        raise ConfigError(f"environments[{position}] missing field {exc}") from None
    except PeerSpotError as exc:
        raise ConfigError(f"environments[{position}]: {exc}") from None


def parse_config(doc: dict) -> ExperimentConfig:
    if "environments" not in doc or not doc["environments"]:
        raise ConfigError("environments: at least one entry required")
    if "mechanisms" not in doc or not doc["mechanisms"]:
        raise ConfigError("mechanisms: at least one entry required")
    environments = []
    for i, entry in enumerate(doc["environments"]):
        environments.extend(_expand_environment_entry(entry, i))
    mechanisms = []
    for i, entry in enumerate(doc["mechanisms"]):
        try:
            mechanisms.append(MechanismSpec.from_json_dict(entry))
        except (KeyError, ValueError, PeerSpotError) as exc:
            raise ConfigError(f"mechanisms[{i}]: {exc}") from None
    sweeps = doc.get("sweeps", {})
    costs = tuple(
        _number("sweeps.effort_cost", c, lambda x: 0.0 <= x < math.inf, "finite and nonnegative")
        for c in sweeps.get("effort_cost", DEFAULT_EFFORT_COSTS)
    )
    p_values = tuple(_number("sweeps.p", p, lambda x: 0.0 <= x <= 1.0, "in [0, 1]") for p in sweeps.get("p", ()))
    return ExperimentConfig(
        environments=environments,
        mechanisms=mechanisms,
        effort_costs=costs,
        p_values=p_values,
        seed=int(doc.get("seed", 0)),
        grid=check_grid(doc.get("grid", 1e-3)),
        output_dir=str(doc.get("output_dir", "results")),
    )


def _number(name: str, value, valid, requirement: str) -> float:
    """``value`` as a float, or a ConfigError naming the field; NaN fails every ``valid``."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not valid(number):
        raise ConfigError(f"{name}: must be {requirement}, got {value!r}")
    return number


def check_grid(grid) -> float:
    """The threshold grid resolution as a float in (0, 1], or a ConfigError."""
    return _number("grid", grid, lambda x: 0.0 < x <= 1.0, "in (0, 1]")


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text(), parse_constant=_finite_number, parse_float=_finite_number)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config did not parse as JSON: {exc}") from None
    return parse_config(doc)


def _finite_number(token: str) -> float:
    """JSON number hook: NaN, Infinity and overflowing literals are config errors."""
    value = float(token)
    if not np.isfinite(value):
        raise ConfigError(f"config holds a non-finite number: {token}")
    return value


def example_config_path() -> Path:
    """The bundled reference config (binary 0.9-channel environment, all mechanisms)."""
    return Path(__file__).parent / "configs" / "e1.json"


def _empty_row(env: Environment, mechanism: MechanismSpec, cost: float, config, exc=None) -> ResultRow:
    """A row without results; a failed triple's row names the exception that ended it."""
    return ResultRow(
        env_id=env.env_id,
        mechanism=mechanism.describe(),
        effort_cost=cost,
        thresholds={},
        pareto_bound_condition=False,
        utility_truthful_p0=None,
        utility_gl_p0=None,
        worthwhile_effort=None,
        seed=config.seed,
        timestamp=time.time(),
        error="" if exc is None else f"{type(exc).__name__}: {exc}",
    )


def _row_for_triple(
    env: Environment,
    mechanism: MechanismSpec,
    cost: float,
    config: ExperimentConfig,
    table: PayoffTable,
) -> ResultRow:
    row = _empty_row(env, mechanism, cost, config)
    try:
        checked_cost = env.with_effort_cost(cost).effort_cost  # rejects negative and non-finite costs
        report = compute_thresholds(table, checked_cost, grid=config.grid)
        row.thresholds = report.to_json_dict()
        row.pareto_bound_condition = report.pareto_bound_condition
        t, g = table.truthful, table.best_no_effort
        row.utility_truthful_p0 = float(table.unchecked[t, t] - cost)
        row.utility_gl_p0 = float(table.unchecked[g, g])
        row.worthwhile_effort = check_worthwhile_effort(table, checked_cost)
        for p in config.p_values:
            utilities = table.utilities(p, cost)
            row.utilities_at_p[repr(float(p))] = {
                "truthful": float(utilities[t]),
                "best_no_effort": float(utilities[g]),
            }
    except Exception as exc:
        return _empty_row(env, mechanism, cost, config, exc)
    return row


def run_experiment(config: ExperimentConfig) -> list:
    """All (environment, mechanism, effort cost) rows, deterministically ordered.

    The payoff table for each (environment, mechanism) pair is cost-independent
    and shared across the cost sweep.  Any exception in a table build or a
    triple is recorded in the affected rows and leaves every other row intact.
    """
    rows = []
    costs = config.effort_costs or DEFAULT_EFFORT_COSTS
    for env in config.environments:
        for mechanism in config.mechanisms:
            try:
                table = compute_payoff_table(mechanism, env)
            except Exception as exc:
                rows.extend(_empty_row(env, mechanism, cost, config, exc) for cost in costs)
                continue
            for cost in costs:
                rows.append(_row_for_triple(env, mechanism, cost, config, table))
    assert_threshold_consistency(rows)
    return rows


def assert_threshold_consistency(rows: list) -> None:
    """Post-run check: whenever the sufficient condition holds, the Pareto
    threshold must not undercut the dominant-strategy threshold by more than
    the grid resolution.  Violations abort with a diagnostic dump."""
    violations = []
    for row in rows:
        if row.error or not row.pareto_bound_condition:
            continue
        p_ds = row.thresholds.get("p_ds")
        p_pareto = row.thresholds.get("p_pareto")
        grid = float(row.thresholds.get("grid_resolution", 1e-3))
        as_float = lambda x: float(x) if isinstance(x, (int, float)) else float("inf")
        if as_float(p_pareto) < as_float(p_ds) - grid:
            violations.append(row)
    if violations:
        dump = "\n".join(json.dumps(v.to_json_dict(), sort_keys=True) for v in violations)
        raise HarnessAssertionError(
            f"{len(violations)} row(s) violate p_pareto >= p_ds - grid:\n{dump}"
        )


def emit_csv(rows: list, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row.csv_record())
    return path


def emit_json(rows: list, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps([r.to_json_dict() for r in rows], indent=2, sort_keys=True))
    return path


def emit_plotdata(rows: list, path: str | Path) -> Path:
    """Per-mechanism series of (effort cost, p_ds, p_pareto) for external plotting."""
    series: dict = {}
    for row in rows:
        if row.error:
            continue
        key = f"{row.env_id}:{row.mechanism}"
        entry = series.setdefault(key, {"env_id": row.env_id, "mechanism": row.mechanism, "points": []})
        entry["points"].append(
            {
                "effort_cost": row.effort_cost,
                "p_ds": row.thresholds.get("p_ds"),
                "p_pareto": row.thresholds.get("p_pareto"),
            }
        )
    for entry in series.values():
        entry["points"].sort(key=lambda pt: pt["effort_cost"])
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(sorted(series.values(), key=lambda e: (e["env_id"], e["mechanism"])), indent=2))
    return path


def emit_report(rows: list, fmt: str, out_dir: str | Path) -> Path:
    if not rows:
        raise ConfigError("rows: nothing to report")
    out_dir = Path(out_dir)
    if fmt == "csv":
        return emit_csv(rows, out_dir / "results.csv")
    if fmt == "json":
        return emit_json(rows, out_dir / "results.json")
    if fmt == "plotdata":
        return emit_plotdata(rows, out_dir / "plotdata.json")
    raise ConfigError(f"format: unknown report format {fmt!r}")
