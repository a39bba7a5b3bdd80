"""Experiment orchestration: config ingestion, threshold sweeps, and report emission.

A run crosses every environment with every mechanism and every effort-cost
value of the sweep (an environment holds no cost; ``compute_thresholds``
checks each one), computes the four audit-probability thresholds plus the
sufficient-condition flag per triple, and writes flat CSV / JSON / plot-data
files.  ``ResultRow`` defines a row once: its fields are the CSV columns in
order, and JSON is the same fields plus a timestamp and the utilities at the
swept audit probabilities.  ``REPORTS`` lists each report format once with its
file and emitter.  A config's ``grid`` is read by ``equilibrium.GRID``, the rule
the threshold solvers check.  Identical config and seed reproduce identical CSV
bytes; errors in one triple are recorded in its row and never abort the sweep.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from pathlib import Path

import numpy as np

from .equilibrium import DEFAULT_GRID, GRID, PayoffTable, check_worthwhile_effort, compute_payoff_table, compute_thresholds
from .equilibrium import threshold_float
from .errors import ConfigError, PeerSpotError
from .mechanisms import MechanismSpec
from .signals import COST, Channel, Distribution, Environment, LabelSpace, is_json_number
from .signals import json_fields, json_integer, json_list, json_number, json_string
from .strategies import MAX_LABELS

DEFAULT_EFFORT_COSTS = (0.0, 0.05, 0.1, 0.2)


class HarnessAssertionError(PeerSpotError):
    """A post-run consistency assertion failed; the message carries the dump."""


@dataclass
class ExperimentConfig:
    environments: list
    mechanisms: list
    effort_costs: tuple = DEFAULT_EFFORT_COSTS
    p_values: tuple = ()
    seed: int = 0
    grid: float = DEFAULT_GRID
    output_dir: str = "results"


@dataclass
class ResultRow:
    """One (environment, mechanism, effort cost) result.  A threshold is a probability or a
    ``NotAttained`` status string; a failed triple keeps the defaults."""

    env_id: str
    mechanism: str
    effort_cost: float
    p_ds: float | str | None = None
    p_el: float | str | None = None
    p_ex: float | str | None = None
    p_pareto: float | str | None = None
    grid: float | None = None
    pareto_bound_condition: bool = False
    utility_truthful_p0: float | None = None
    utility_gl_p0: float | None = None
    worthwhile_effort: bool | None = None
    seed: int = 0
    error: str = ""
    timestamp: float = 0.0
    utilities_at_p: dict = field(default_factory=dict)

    def csv_record(self) -> dict:
        return {name: _cell(getattr(self, name)) for name in CSV_COLUMNS}

    def to_json_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json_dict(doc: dict) -> "ResultRow":
        return ResultRow(**{name: doc[name] for name in _ROW_FIELDS if name in doc})


_ROW_FIELDS = tuple(f.name for f in fields(ResultRow))
CSV_COLUMNS = _ROW_FIELDS[: _ROW_FIELDS.index("timestamp")]


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        return repr(x)
    return str(x)


def generate_environments(
    labels: int = 2,
    count: int = 1,
    seed: int = 0,
    accuracy: tuple = (0.6, 0.95),
    n_agents: int = 3,
    n_objects: int = 2,
    prefix: str = "gen",
) -> list:
    """Seeded family of environments with noisy aligned high/trusted channels.

    Channel rows come from the symmetric-noise family with per-row accuracy
    drawn uniformly from ``accuracy``; the shared low draw stays uniform and
    quality-independent.
    """
    rng = np.random.default_rng(seed)
    space = LabelSpace.of(tuple(range(labels)))
    return [
        Environment(
            q_space=space,
            prior=Distribution.uniform(space),
            high_channel=Channel.symmetric_noise(space, rng.uniform(*accuracy, size=labels)),
            trusted_channel=Channel.symmetric_noise(space, rng.uniform(*accuracy, size=labels)),
            low_channel=Channel.uniform(space),
            n_agents=n_agents,
            n_objects=n_objects,
            env_id=f"{prefix}-q{labels}-s{seed}-{i}",
        )
        for i in range(count)
    ]


# Most environments one generator may build: the config reader builds each while it validates,
# and 1,000 parse in 0.18 s at k=2 and 0.35 s at k=5 (2-core host).
MAX_GENERATED = 10_000


def _positive_at_most(limit: int, value) -> int:
    if json_integer(value, 1) > limit:
        raise ValueError(f"must be at most {limit}, got {value!r}")
    return int(value)


def _accuracy_range(value) -> tuple:
    """A generator's accuracy range as two floats with 0 <= lo <= hi <= 1 (NaN and inf fail)."""
    pair = isinstance(value, (list, tuple)) and len(value) == 2
    if not pair or not all(is_json_number(x) for x in value):
        raise ValueError(f"must be two numbers [lo, hi], got {value!r}")
    if not 0.0 <= value[0] <= value[1] <= 1.0:
        raise ValueError(f"must satisfy 0 <= lo <= hi <= 1, got {list(value)!r}")
    return float(value[0]), float(value[1])


# The reader of each key of a generator; an absent key takes its generate_environments default.
_GENERATOR = {
    "labels": partial(_positive_at_most, MAX_LABELS),
    "count": partial(_positive_at_most, MAX_GENERATED),
    "seed": partial(json_integer, minimum=0),
    "accuracy": _accuracy_range,
    "n_agents": partial(json_integer, minimum=1),
    "n_objects": partial(json_integer, minimum=1),
    "prefix": json_string,
}


def _expand_environment_entry(entry, position: int) -> list:
    where = f"environments[{position}]"
    try:
        if isinstance(entry, dict) and "generator" in entry:
            gen = json_fields(entry, {"generator": lambda gen: gen})["generator"]
            where += ".generator"
            return generate_environments(**json_fields(gen, _GENERATOR))
        env = Environment.from_json_dict(entry)
    except PeerSpotError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    if len(env.q_space) > MAX_LABELS:
        raise ConfigError(f"{where}: labels must hold at most {MAX_LABELS} labels, got {len(env.q_space)}")
    return [env]


def _environments(entries) -> list:
    environments, env_at = [], {}
    for i, entry in enumerate(json_list(entries)):
        for env in _expand_environment_entry(entry, i):
            _unique("environments", "env_id", env.env_id, i, env_at)
            environments.append(env)
    return environments


def _mechanisms(entries) -> list:
    mechanisms, spec_at = [], {}
    for i, entry in enumerate(json_list(entries)):
        try:
            spec = MechanismSpec.from_json_dict(entry)
        except PeerSpotError as exc:
            raise ConfigError(f"mechanisms[{i}]: {exc}") from None
        _unique("mechanisms", "mechanism", spec.describe(), i, spec_at)
        mechanisms.append(spec)
    return mechanisms


def _unique(section: str, name: str, key, position: int, seen: dict) -> None:
    """Record that entry ``position`` of ``section`` gives rows the ``name`` ``key``, or raise
    a ConfigError naming both entries when an earlier one already does: rows and plot
    series are keyed by (env_id, mechanism, effort_cost), and utilities by p."""
    if key in seen:
        raise ConfigError(f"{section}[{position}]: {name} {key!r} repeats {section}[{seen[key]}]")
    seen[key] = position


def _sweep(key: str, rule, required: bool, values) -> tuple:
    """The values of ``sweeps.<key>``: distinct numbers that pass ``rule``."""
    seen = {}
    for i, value in enumerate(json_list(values)):
        _unique(f"sweeps.{key}", "value", json_number(value, rule), i, seen)
    if required and not seen:
        raise ValueError("at least one value required")
    return tuple(seen)


def _sweeps(value) -> dict:
    """The ExperimentConfig fields that a ``sweeps`` object sets."""
    sweeps = json_fields(value, _SWEEPS, ConfigError, "sweeps: ", "sweeps.")
    return {{"effort_cost": "effort_costs", "p": "p_values"}[key]: values for key, values in sweeps.items()}


def check_grid(grid) -> float:
    """The threshold grid as a float that passes ``equilibrium.GRID``, or a ConfigError."""
    try:
        return json_number(grid, GRID)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from None


_SWEEPS = {
    "effort_cost": partial(_sweep, "effort_cost", COST, True),
    "p": partial(_sweep, "p", (lambda x: 0.0 <= x <= 1.0, "a number in [0, 1]"), False),
}
# The reader of each top-level key; an absent key takes its ExperimentConfig default.
_CONFIG = {
    "environments": _environments,
    "mechanisms": _mechanisms,
    "sweeps": _sweeps,
    "seed": json_integer,
    "grid": check_grid,
    "output_dir": json_string,
}


def parse_config(doc) -> ExperimentConfig:
    """The experiment a config document describes, or a ConfigError that names the field."""
    config = json_fields(doc, _CONFIG, ConfigError, "config: ")
    for key in ("environments", "mechanisms"):
        if not config.get(key):
            raise ConfigError(f"{key}: at least one entry required")
    return ExperimentConfig(**config.pop("sweeps", {}), **config)


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text(), parse_constant=_finite_number, parse_float=_finite_number)
    except OSError as exc:  # a directory, or a file this process may not read
        raise ConfigError(f"config file could not be read: {exc}") from None
    except ValueError as exc:  # malformed, not UTF-8, or an int literal past Python's digit limit
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
        report = compute_thresholds(table, cost, grid=config.grid)  # rejects negative and non-finite costs
        for name, value in report.to_json_dict().items():
            setattr(row, name, value)
        t, g = table.truthful, table.best_no_effort
        row.utility_truthful_p0, row.utility_gl_p0 = map(float, table.utilities(0.0, cost, [t, g]))
        row.worthwhile_effort = check_worthwhile_effort(table, cost)
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
    for env in config.environments:
        for mechanism in config.mechanisms:
            try:
                table = compute_payoff_table(mechanism, env)
            except Exception as exc:
                rows.extend(_empty_row(env, mechanism, cost, config, exc) for cost in config.effort_costs)
                continue
            for cost in config.effort_costs:
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
        if threshold_float(row.p_pareto) < threshold_float(row.p_ds) - row.grid:
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
        entry["points"].append({"effort_cost": row.effort_cost, "p_ds": row.p_ds, "p_pareto": row.p_pareto})
    for entry in series.values():
        entry["points"].sort(key=lambda pt: pt["effort_cost"])
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(sorted(series.values(), key=lambda e: (e["env_id"], e["mechanism"])), indent=2))
    return path


# Each report format: the file it is written to in an output directory, and its emitter.
REPORTS = {
    "csv": ("results.csv", emit_csv),
    "json": ("results.json", emit_json),
    "plotdata": ("plotdata.json", emit_plotdata),
}


def emit_report(rows: list, fmt: str, out_dir: str | Path) -> Path:
    if not rows:
        raise ConfigError("rows: nothing to report")
    if fmt not in REPORTS:
        raise ConfigError(f"format: unknown report format {fmt!r}")
    name, emit = REPORTS[fmt]
    return emit(rows, Path(out_dir) / name)
