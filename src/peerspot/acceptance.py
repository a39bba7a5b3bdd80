"""Acceptance gate: nine checks covering thresholds, utility tables, dominance
conditions, audit-reward optimality, Monte-Carlo agreement, scoring propriety,
and harness determinism.

Every check returns a (passed, detail) pair; ``run_all`` prints one line per
check.  The same registry backs the ``peerspot verify`` CLI subcommand and the
pytest acceptance module.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import tempfile
from pathlib import Path

import numpy as np

from .equilibrium import (
    DEFAULT_GRID,
    NotAttained,
    check_pareto_bound_condition,
    compute_payoff_table,
    construct_dominated_environment,
    enumerate_symmetric_pure_equilibria,
    solve_p_ds,
    solve_p_ds_bisection,
    solve_p_pareto,
    threshold_float,
)
from ._sampling import simulate_utilities
from .errors import NonBinaryLabelSpace
from ._expectations import audit_rewards, strategy_rewards
from .harness import DEFAULT_EFFORT_COSTS, emit_csv, example_config_path, generate_environments, load_config, run_experiment
from .mechanisms import MechanismKind, MechanismSpec
from .scoring import LOGARITHMIC, QUADRATIC, check_symmetry
from .signals import Channel, Distribution, Environment, LabelSpace, reference_environment
from .strategies import TRUTHFUL, StrategyProfile, low_identity_index, pure_strategy_arrays, truthful_strategy

ANALYTIC_TOL = 1e-9
E1_COST = 0.1  # e1's effort cost in criteria C1 and C6


@dataclasses.dataclass
class CriterionResult:
    cid: str
    description: str
    passed: bool
    detail: str


def _random_acceptance_environments() -> list:
    """The 20 seeded noisy environments used by the dominance criteria."""
    binary = generate_environments(labels=2, count=10, seed=101, prefix="acc")
    ternary = generate_environments(labels=3, count=10, seed=202, prefix="acc")
    return binary + ternary


@functools.cache
def _table(mech: MechanismSpec, env: Environment):
    """The payoff table of ``mech`` on ``env``, built once per (spec, environment) pair."""
    return compute_payoff_table(mech, env)


def _gate_tables():
    """(mechanism, environment, table) for every kind on e1 and the 20 seeded environments,
    skipping each pair whose label space the kind refuses (``check_label_space``)."""
    for env in [reference_environment()] + _random_acceptance_environments():
        for kind in MechanismKind:
            mech = MechanismSpec(kind)
            try:
                table = _table(mech, env)
            except NonBinaryLabelSpace:
                continue
            yield mech, env, table


# ---------------------------------------------------------------------------
# Criterion 1: dominant-strategy threshold closed form and bisection agreement
# ---------------------------------------------------------------------------


def check_dominant_strategy_threshold() -> tuple:
    env = reference_environment()
    closed = solve_p_ds(_table(MechanismSpec(MechanismKind.PEER_INSENSITIVE), env), E1_COST)
    bisected = solve_p_ds_bisection(env, E1_COST)
    expected = 0.3125  # cost 0.1 over audit-value gap 0.32
    ok = (
        not isinstance(closed, NotAttained)
        and abs(closed - expected) <= ANALYTIC_TOL
        and not isinstance(bisected, NotAttained)
        and abs(bisected - closed) <= 1e-8
    )
    return ok, f"closed={closed!r} bisection={bisected!r} expected={expected}"


# ---------------------------------------------------------------------------
# Criterion 2: equilibrium utility table at zero cost and zero audit probability
# ---------------------------------------------------------------------------


def check_equilibrium_utility_table() -> tuple:
    e1 = reference_environment()
    t, g = TRUTHFUL, low_identity_index(len(e1.q_space))
    agree_truth = 0.82  # two independent 0.9 channels agree
    pair_mass = 0.41  # both agents see the same label
    expectations = {
        MechanismKind.OUTPUT_AGREEMENT: (1.0, agree_truth),
        MechanismKind.PEER_TRUTH_SERUM: (2.0, 2.0),  # alpha + beta with defaults 1, 1
        MechanismKind.CORRELATED_AGREEMENT: (0.5, agree_truth - 0.5),
        MechanismKind.SQRT_SCALED_AGREEMENT: (math.sqrt(2.0), 2.0 * math.sqrt(pair_mass)),
        MechanismKind.MULTI_VALUED_ROBUST_BTS: (2.0, None),
        MechanismKind.ROBUST_BTS: (2.0, None),
        MechanismKind.MINIMUM_TRUTH_SERUM: (1.0, None),
        MechanismKind.DOUBLE_MIXED_AGREEMENT: (1.0, None),
    }
    failures = []
    for kind, (lazy_value, truth_value) in expectations.items():
        table = _table(MechanismSpec(kind), e1)
        got_lazy = table.own[g]
        if abs(got_lazy - lazy_value) > ANALYTIC_TOL:
            failures.append(f"{kind.value}: coordination utility {got_lazy!r} != {lazy_value!r}")
        got_truth = table.own[t]
        if truth_value is not None and abs(got_truth - truth_value) > ANALYTIC_TOL:
            failures.append(f"{kind.value}: truthful utility {got_truth!r} != {truth_value!r}")
        if got_truth > got_lazy + ANALYTIC_TOL:
            failures.append(f"{kind.value}: truthful utility {got_truth!r} exceeds coordination")
    # Rounded values reported alongside the analysis.
    sqrt_table = _table(MechanismSpec(MechanismKind.SQRT_SCALED_AGREEMENT), e1)
    if abs(sqrt_table.own[g] - 1.41421) > 5e-6:
        failures.append("sqrt-scaled coordination utility rounds away from 1.41421")
    if abs(sqrt_table.own[t] - 1.28062) > 5e-6:
        failures.append("sqrt-scaled truthful utility rounds away from 1.28062")
    return (not failures), "; ".join(failures) or "all tabulated equilibrium utilities match"


# ---------------------------------------------------------------------------
# Criterion 3: sufficient condition holds for every mechanism on every environment
# ---------------------------------------------------------------------------


def check_sufficient_condition_everywhere() -> tuple:
    failures = []
    checked = 0
    for mech, env, table in _gate_tables():
        if not check_pareto_bound_condition(table):
            failures.append(f"{mech.kind.value} on {env.env_id}")
        checked += 1
    detail = f"{checked} mechanism-environment pairs"
    return (not failures), "; ".join(failures) or detail


# ---------------------------------------------------------------------------
# Criterion 4: Pareto threshold never undercuts the dominant-strategy threshold
# ---------------------------------------------------------------------------


def check_pareto_threshold_bound() -> tuple:
    failures = []
    checked = 0
    for mech, env, table in _gate_tables():
        for cost in DEFAULT_EFFORT_COSTS:
            p_ds = threshold_float(solve_p_ds(table, cost))
            p_pareto = solve_p_pareto(table, cost, grid=DEFAULT_GRID)
            checked += 1
            if threshold_float(p_pareto) < p_ds - DEFAULT_GRID:
                failures.append(
                    f"{mech.kind.value} on {env.env_id} at cost {cost}: "
                    f"p_pareto={p_pareto!r} < p_ds={p_ds!r} - grid"
                )
    detail = f"{checked} (mechanism, environment, cost) triples"
    return (not failures), "; ".join(failures[:5]) or detail


# ---------------------------------------------------------------------------
# Criterion 5: identity is the best no-effort report map; constants earn zero
# ---------------------------------------------------------------------------


def _aligned_random_environment(rng: np.random.Generator, labels: int, index: int) -> Environment:
    """Random prior and aligned noisy channels, including a quality-correlated low channel."""
    space = LabelSpace.of(tuple(range(labels)))
    weights = rng.uniform(0.5, 1.5, size=labels)
    prior = Distribution.from_array(space, weights / weights.sum())

    def aligned(low_floor: float) -> Channel:
        return Channel.symmetric_noise(space, rng.uniform(max(low_floor, 1.05 / labels), 0.95, size=labels))

    return Environment(
        q_space=space,
        prior=prior,
        high_channel=aligned(0.55),
        trusted_channel=aligned(0.55),
        low_channel=aligned(0.3),
        n_agents=3,
        n_objects=2,
        env_id=f"aligned-q{labels}-{index}",
    )


def check_best_no_effort_map() -> tuple:
    rng = np.random.default_rng(404)
    failures = []
    count = 0
    for labels, n_envs in ((2, 9), (3, 8), (4, 8)):
        efforts, maps = pure_strategy_arrays(labels)
        no_effort = slice(low_identity_index(labels), None)  # every no-effort map, the identity first
        for i in range(n_envs):
            env = _aligned_random_environment(rng, labels, i)
            values = strategy_rewards(audit_rewards(env), efforts[no_effort], maps[no_effort]).tolist()
            identity_value = values[0]
            for report_map, value in zip(map(tuple, maps[no_effort].tolist()), values):
                if value > identity_value + ANALYTIC_TOL:
                    failures.append(f"{env.env_id}: map {report_map} beats identity")
                if len(set(report_map)) == 1 and abs(value) > 1e-12:
                    failures.append(f"{env.env_id}: constant map {report_map} scores {value!r}")
            count += 1
    detail = f"{count} environments, all no-effort maps enumerated"
    return (not failures), "; ".join(failures[:5]) or detail


# ---------------------------------------------------------------------------
# Criterion 6: a composed environment strictly demotes the truthful profile
# ---------------------------------------------------------------------------


def check_dominated_environment_construction() -> tuple:
    mech = MechanismSpec(MechanismKind.OUTPUT_AGREEMENT)
    composed = construct_dominated_environment(mech, [reference_environment()], E1_COST)
    if isinstance(composed, NotAttained):
        return False, "construction returned not_found"
    table = compute_payoff_table(mech, composed)
    truthful_utility = float(table.utilities(0.0, E1_COST, TRUTHFUL))
    equilibria = enumerate_symmetric_pure_equilibria(table, 0.0, E1_COST)
    if not equilibria:
        return False, "composed environment has no certified equilibria"
    best = equilibria[0]
    ok = not best.strategy.is_full_effort and best.utility > truthful_utility + ANALYTIC_TOL
    return ok, (
        f"coordination utility {best.utility!r} vs truthful profile {truthful_utility!r} "
        f"on {composed.env_id}"
    )


# ---------------------------------------------------------------------------
# Criterion 7: Monte Carlo agrees with the analytic oracle and is reproducible
# ---------------------------------------------------------------------------


def check_monte_carlo_agreement() -> tuple:
    env = reference_environment()
    big = dataclasses.replace(env, n_agents=10, n_objects=100, env_id="e1-n10-m100")
    truthful = StrategyProfile.symmetric(truthful_strategy(env.q_space))
    failures = []
    targets = {
        MechanismKind.OUTPUT_AGREEMENT: 0.82,
        MechanismKind.CORRELATED_AGREEMENT: 0.32,
    }
    for kind, target in targets.items():
        spec = MechanismSpec(kind)
        est = simulate_utilities(spec, big, truthful, trials=100_000, seed=1234)
        again = simulate_utilities(spec, big, truthful, trials=100_000, seed=1234)
        if est.value != again.value or est.stderr != again.stderr:
            failures.append(f"{kind.value}: estimate not bit-reproducible")
        if abs(est.value - target) > 3.0 * est.stderr:
            failures.append(
                f"{kind.value}: estimate {est.value:.5f} +- {est.stderr:.5f} vs target {target}"
            )
    return (not failures), "; ".join(failures) or "estimates within 3 stderr, bit-reproducible"


# ---------------------------------------------------------------------------
# Criterion 8: propriety and symmetry of both scoring rules
# ---------------------------------------------------------------------------


def _belief_grid(labels: int, step: float) -> np.ndarray:
    ticks = int(round(1.0 / step))
    points = []
    for combo in itertools.combinations_with_replacement(range(labels), ticks):
        counts = np.bincount(combo, minlength=labels)
        points.append(counts / ticks)
    return np.array(points)


def check_scoring_rules() -> tuple:
    failures = []
    for rule in (QUADRATIC, LOGARITHMIC):
        for labels in (2, 3, 4):
            if not check_symmetry(rule, labels):
                failures.append(f"{rule.name}: symmetry fails at {labels} labels")
            grid = _belief_grid(labels, 0.05)
            if rule is LOGARITHMIC:
                grid = grid[np.all(grid > 0, axis=1)]
            tables = rule.score_table(grid)  # (B, labels)
            matrix = grid @ tables.T  # [truth, belief] expected scores
            diag = np.diag(matrix)
            slack = diag[:, None] - matrix
            if slack.min() < -ANALYTIC_TOL:
                failures.append(f"{rule.name}: propriety fails at {labels} labels")
            distinct = ~np.isclose(grid[:, None, :], grid[None, :, :], atol=1e-12).all(axis=2)
            if np.any(distinct & (slack <= ANALYTIC_TOL)):
                failures.append(f"{rule.name}: strictness fails at {labels} labels")
    return (not failures), "; ".join(failures) or "both rules strictly proper and symmetric"


# ---------------------------------------------------------------------------
# Criterion 9: the bundled experiment is deterministic and assertion-clean
# ---------------------------------------------------------------------------


def check_harness_determinism() -> tuple:
    config = load_config(example_config_path())
    with tempfile.TemporaryDirectory() as tmp:
        first = emit_csv(run_experiment(config), Path(tmp) / "run1.csv").read_bytes()
        second = emit_csv(run_experiment(config), Path(tmp) / "run2.csv").read_bytes()
    if first != second:
        return False, "CSV outputs differ between identical runs"
    return True, f"identical CSV bytes across runs ({len(first)} bytes), no assertion violations"


CRITERIA = (
    ("C1", "dominant-strategy threshold closed form matches bisection", check_dominant_strategy_threshold),
    ("C2", "equilibrium utility table at zero cost and zero audit rate", check_equilibrium_utility_table),
    ("C3", "sufficient dominance condition holds for every mechanism", check_sufficient_condition_everywhere),
    ("C4", "Pareto threshold never undercuts the dominant-strategy threshold", check_pareto_threshold_bound),
    ("C5", "identity is the weakly best no-effort map; constants earn zero", check_best_no_effort_map),
    ("C6", "composed environment strictly demotes the truthful profile", check_dominated_environment_construction),
    ("C7", "Monte Carlo matches analytic oracles and reproduces bitwise", check_monte_carlo_agreement),
    ("C8", "scoring rules are strictly proper and symmetric on belief grids", check_scoring_rules),
    ("C9", "bundled experiment is bit-deterministic and assertion-clean", check_harness_determinism),
)


def run_all() -> list:
    results = []
    for cid, description, fn in CRITERIA:
        passed, detail = fn()
        results.append(CriterionResult(cid, description, passed, detail))
        print(f"{'PASS' if passed else 'FAIL'} [{cid}] {description}: {detail}")
    return results
