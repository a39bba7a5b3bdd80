"""Symmetric pure-equilibrium search and minimum spot-check probability solvers.

All solvers ride on one payoff table per (mechanism, environment): the
expected audit reward per strategy and the expected unchecked reward of every
deviant strategy against every symmetric base.  Every entry is an exact
expectation, so an equilibrium is certified when no deviation gains more than
an absolute tolerance.  Combined utilities are affine in the spot-check
probability, so equilibrium regions and dominance thresholds reduce to exact
affine arithmetic plus grid scans at the reporting resolution.

Thresholds solved here:

* ``p_ds``   -- dominant-strategy truthfulness under the peer-insensitive game,
* ``p_el``   -- elimination of the report-the-shared-draw equilibrium,
* ``p_ex``   -- truthful utility overtaking that equilibrium while it exists,
* ``p_pareto`` -- truthful equilibrium weakly best among all certified
  symmetric pure equilibria (a lower bound for the unrestricted notion, which
  also quantifies over asymmetric and mixed profiles).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import EnumerationBudgetExceeded
from .mechanisms import MechanismSpec, unchecked_block
from .signals import Environment
from .spotcheck import SpotGame, expected_spot_reward, expected_spot_rewards
from .strategies import Strategy, enumerate_pure_strategies, low_identity_strategy, truthful_strategy

DEFAULT_TOL = 1e-9
DEFAULT_GRID = 1e-3
DEFAULT_REFINE = 1e-6
MAX_EQUILIBRIUM_LABELS = 4


@dataclass(frozen=True)
class NotAttained:
    """Sentinel for thresholds without a value in [0, 1]."""

    status: str

    def __repr__(self):
        return self.status


NOT_ACHIEVABLE = NotAttained("not_achievable")
NOT_FOUND = NotAttained("not_found")
NOT_APPLICABLE = NotAttained("not_applicable")


def threshold_float(x) -> float:
    """Numeric view of a threshold; unattained values compare as +inf."""
    return float(x) if not isinstance(x, NotAttained) else math.inf


@dataclass(frozen=True)
class EquilibriumRecord:
    strategy: Strategy
    utility: float
    max_deviation_gain: float
    certified: bool


@dataclass
class ThresholdReport:
    p_ds: object
    p_el: object
    p_ex: object
    p_pareto: object
    grid_resolution: float
    pareto_bound_condition: bool
    certificates: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        def enc(x):
            return x.status if isinstance(x, NotAttained) else x

        return {
            "p_ds": enc(self.p_ds),
            "p_el": enc(self.p_el),
            "p_ex": enc(self.p_ex),
            "p_pareto": enc(self.p_pareto),
            "grid_resolution": self.grid_resolution,
            "pareto_bound_condition": self.pareto_bound_condition,
        }


@dataclass
class PayoffTable:
    """Audit rewards and the unchecked deviant-vs-base reward matrix for all pure strategies,
    with the indices of the truthful and the best no-effort strategy (neither depends on cost)."""

    strategies: list
    spot: np.ndarray  # (S,) expected audit reward per strategy
    unchecked: np.ndarray  # (S, S): [deviant, base]
    full_effort: np.ndarray  # (S,) 1.0 where the strategy invests effort
    truthful: int = field(init=False)
    best_no_effort: int = field(init=False)

    def __post_init__(self):
        k = len(self.strategies[0].report_map)
        self.truthful = self.index_of(truthful_strategy(k))
        self.best_no_effort = _best_no_effort_index(self.strategies, self.spot)

    def index_of(self, strategy: Strategy) -> int:
        return self.strategies.index(strategy)

    def utilities(self, p: float, cost: float) -> np.ndarray:
        return (
            p * self.spot
            + (1.0 - p) * np.diag(self.unchecked)
            - cost * self.full_effort
        )

    def gains(self, base_index: int, p: float, cost: float) -> np.ndarray:
        """Deviation gains against the symmetric base, one entry per deviant strategy."""
        z_col = self.unchecked[:, base_index]
        conform = (
            p * self.spot[base_index]
            + (1.0 - p) * self.unchecked[base_index, base_index]
            - cost * self.full_effort[base_index]
        )
        return p * self.spot + (1.0 - p) * z_col - cost * self.full_effort - conform


def compute_payoff_table(mechanism: MechanismSpec, env: Environment) -> PayoffTable:
    """Exact payoff table over the full pure-strategy space (costs applied by the solvers)."""
    strategies = enumerate_pure_strategies(env.q_space)
    spot = expected_spot_rewards(env, strategies)
    unchecked = unchecked_block(mechanism, env, strategies, strategies)
    full = np.array([1.0 if s.is_full_effort else 0.0 for s in strategies])
    return PayoffTable(strategies, spot, unchecked, full)


def _table_for(game: SpotGame, env: Environment, table: PayoffTable | None) -> PayoffTable:
    return table if table is not None else compute_payoff_table(game.mechanism, env)


def _best_no_effort_index(strategies: list, spot) -> int:
    """Best no-effort strategy by audit reward ``spot``: scanning in canonical order from the
    identity map, a strategy replaces the best only when it beats it by more than DEFAULT_TOL."""
    best = strategies.index(low_identity_strategy(len(strategies[0].report_map)))
    for i in np.flatnonzero(np.asarray(spot) > spot[best] + DEFAULT_TOL):
        if not strategies[i].is_full_effort and spot[i] > spot[best] + DEFAULT_TOL:
            best = int(i)
    return best


def best_no_effort_strategy(env: Environment) -> Strategy:
    """No-effort strategy maximizing the expected audit reward; ties keep the identity map."""
    strategies = enumerate_pure_strategies(env.q_space)
    return strategies[_best_no_effort_index(strategies, expected_spot_rewards(env, strategies))]


def audit_values(env: Environment, table: PayoffTable | None = None) -> tuple:
    """Audit rewards of the truthful and the best no-effort strategy, read from
    ``table`` (built for this environment at any cost) when one is given."""
    if table is not None:
        return float(table.spot[table.truthful]), float(table.spot[table.best_no_effort])
    truthful = expected_spot_reward(env, truthful_strategy(env.q_space))
    return truthful, expected_spot_reward(env, best_no_effort_strategy(env))


def is_symmetric_equilibrium(
    game: SpotGame,
    env: Environment,
    strategy: Strategy,
    p: float | None = None,
    tol: float = DEFAULT_TOL,
    table: PayoffTable | None = None,
) -> EquilibriumRecord:
    """Certify a symmetric profile: no pure deviation improves by more than ``tol``."""
    p = game.p if p is None else p
    table = _table_for(game, env, table)
    base_index = table.index_of(strategy)
    gains = table.gains(base_index, p, env.effort_cost)
    utility = float(table.utilities(p, env.effort_cost)[base_index])
    max_gain = float(gains.max())
    return EquilibriumRecord(strategy, utility, max_gain, certified=max_gain <= tol)


def enumerate_symmetric_pure_equilibria(
    game: SpotGame,
    env: Environment,
    p: float | None = None,
    tol: float = DEFAULT_TOL,
    table: PayoffTable | None = None,
) -> list:
    """All certified symmetric pure equilibria, sorted by utility descending."""
    if len(env.q_space) > MAX_EQUILIBRIUM_LABELS:
        raise EnumerationBudgetExceeded(
            f"equilibrium enumeration supports at most {MAX_EQUILIBRIUM_LABELS} labels"
        )
    p = game.p if p is None else p
    table = _table_for(game, env, table)
    records = []
    for idx, strategy in enumerate(table.strategies):
        gains = table.gains(idx, p, env.effort_cost)
        max_gain = float(gains.max())
        if max_gain <= tol:
            utility = float(table.utilities(p, env.effort_cost)[idx])
            records.append(EquilibriumRecord(strategy, utility, max_gain, certified=True))
    records.sort(key=lambda r: -r.utility)
    return records


# ---------------------------------------------------------------------------
# Threshold solvers
# ---------------------------------------------------------------------------


def solve_p_ds(env: Environment, tol: float = DEFAULT_TOL, table: PayoffTable | None = None):
    """Closed-form minimum audit probability making truthful effort dominant
    under a constant unchecked reward: cost / (audit value of truth - audit
    value of the best no-effort strategy)."""
    truthful, lazy = audit_values(env, table)
    gap = truthful - lazy
    if gap <= tol:
        return NOT_ACHIEVABLE
    p = env.effort_cost / gap
    if p > 1.0 + tol:
        return NOT_ACHIEVABLE
    return min(p, 1.0)


def solve_p_ds_bisection(env: Environment, tol: float = DEFAULT_TOL):
    """Independent route to p_ds: bisect the truthful-vs-best-other dominance gap.

    The unchecked reward is constant, so the gap at probability p is
    p * spot(truth) - cost minus the best competing p * spot(s) - cost(s).
    """
    strategies = enumerate_pure_strategies(env.q_space)
    spots = expected_spot_rewards(env, strategies)
    costs = np.array([env.effort_cost if s.is_full_effort else 0.0 for s in strategies])
    t = strategies.index(truthful_strategy(env.q_space))

    def gap(p: float) -> float:
        utilities = p * spots - costs
        truthful = utilities[t]
        utilities[t] = -np.inf
        return truthful - utilities.max()

    if gap(1.0) < 0.0:
        return NOT_ACHIEVABLE
    lo, hi = 0.0, 1.0
    if gap(lo) >= 0.0:
        return 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if gap(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def solve_p_el(
    game: SpotGame,
    env: Environment,
    grid: float = DEFAULT_GRID,
    tol: float = DEFAULT_TOL,
    refine: float = DEFAULT_REFINE,
    table: PayoffTable | None = None,
):
    """Smallest audit probability eliminating the report-the-shared-draw equilibrium.

    The best response is recomputed at every probed probability; the
    deviation-gain envelope is a maximum of affine functions of p, hence
    convex, so the first sign change found on the grid brackets the unique
    boundary and bisection refines it.
    """
    table = _table_for(game, env, table)
    base_index = table.best_no_effort

    def max_gain(p: float) -> float:
        return float(table.gains(base_index, p, env.effort_cost).max())

    if max_gain(0.0) > tol:
        return NOT_APPLICABLE
    if max_gain(1.0) <= tol:
        return NOT_FOUND
    points = np.linspace(0.0, 1.0, int(round(1.0 / grid)) + 1)
    lo = 0.0
    hi = 1.0
    for p in points:
        if max_gain(float(p)) > tol:
            hi = float(p)
            break
        lo = float(p)
    while hi - lo > refine:
        mid = 0.5 * (lo + hi)
        if max_gain(mid) > tol:
            hi = mid
        else:
            lo = mid
    return hi


def solve_p_ex(
    game: SpotGame,
    env: Environment,
    tol: float = DEFAULT_TOL,
    table: PayoffTable | None = None,
):
    """Audit probability at which the truthful profile's utility overtakes the
    report-the-shared-draw profile's, solved from the affine indifference."""
    table = _table_for(game, env, table)
    t, g = table.truthful, table.best_no_effort
    cost = env.effort_cost
    z_tt = table.unchecked[t, t]
    z_gg = table.unchecked[g, g]
    gap0 = (z_tt - cost) - z_gg
    slope = (table.spot[t] - table.spot[g]) - (z_tt - z_gg)
    if gap0 >= -tol:
        return 0.0
    if slope <= tol:
        return NOT_APPLICABLE
    p = float(-gap0 / slope)
    if p > 1.0 + tol:
        return NOT_APPLICABLE
    return min(p, 1.0)


def solve_p_pareto(
    game: SpotGame,
    env: Environment,
    grid: float = DEFAULT_GRID,
    tol: float = DEFAULT_TOL,
    table: PayoffTable | None = None,
) -> tuple:
    """Smallest grid probability at which the truthful profile is a certified
    equilibrium and weakly best among all certified symmetric pure equilibria.

    Returns ``(p or NOT_FOUND, certified equilibria at that p)``.
    """
    if len(env.q_space) > MAX_EQUILIBRIUM_LABELS:
        raise EnumerationBudgetExceeded(
            f"Pareto threshold search supports at most {MAX_EQUILIBRIUM_LABELS} labels"
        )
    table = _table_for(game, env, table)
    cost = env.effort_cost
    spot, z, full = table.spot, table.unchecked, table.full_effort
    diag = np.diag(z)
    t = table.truthful

    gains0 = (z - diag[None, :]) - cost * (full[:, None] - full[None, :])
    gains1 = (spot[:, None] - spot[None, :]) - cost * (full[:, None] - full[None, :])
    points = np.linspace(0.0, 1.0, int(round(1.0 / grid)) + 1)
    gains = (1.0 - points)[:, None, None] * gains0[None] + points[:, None, None] * gains1[None]
    is_eq = gains.max(axis=1) <= tol  # (P, S)
    utilities = (
        points[:, None] * spot[None, :]
        + (1.0 - points)[:, None] * diag[None, :]
        - cost * full[None, :]
    )
    dominated = utilities[:, t : t + 1] + tol >= utilities
    feasible = is_eq[:, t] & np.all(~is_eq | dominated, axis=1)
    if not feasible.any():
        return NOT_FOUND, []
    at = int(np.argmax(feasible))
    p_star = float(points[at])
    certificates = enumerate_symmetric_pure_equilibria(game, env, p=p_star, tol=tol, table=table)
    return p_star, certificates


def check_pareto_bound_condition(
    mechanism: MechanismSpec,
    env: Environment,
    tol: float = DEFAULT_TOL,
    table: PayoffTable | None = None,
) -> bool:
    """Sufficient condition for the dominance comparison: at zero cost and zero
    audit probability, the report-the-shared-draw profile is an equilibrium and
    weakly Pareto dominates the truthful profile."""
    free = env.with_effort_cost(0.0)
    game = SpotGame(0.0, mechanism)
    table = _table_for(game, free, table)
    t, g = table.truthful, table.best_no_effort
    record = is_symmetric_equilibrium(game, free, table.strategies[g], p=0.0, tol=tol, table=table)
    if not record.certified:
        return False
    return bool(table.unchecked[g, g] + tol >= table.unchecked[t, t])


def compute_thresholds(
    game: SpotGame,
    env: Environment,
    grid: float = DEFAULT_GRID,
    tol: float = DEFAULT_TOL,
    table: PayoffTable | None = None,
) -> ThresholdReport:
    """All four thresholds plus the sufficient-condition flag for one game."""
    table = _table_for(game, env, table)
    p_ds = solve_p_ds(env, tol=tol, table=table)
    p_el = solve_p_el(game, env, grid=grid, tol=tol, table=table)
    p_ex = solve_p_ex(game, env, tol=tol, table=table)
    p_pareto, certificates = solve_p_pareto(game, env, grid=grid, tol=tol, table=table)
    condition = check_pareto_bound_condition(game.mechanism, env, tol=tol, table=table)
    return ThresholdReport(
        p_ds=p_ds,
        p_el=p_el,
        p_ex=p_ex,
        p_pareto=p_pareto,
        grid_resolution=grid,
        pareto_bound_condition=condition,
        certificates={"pareto_equilibria": certificates},
    )


def construct_dominated_environment(
    mechanism: MechanismSpec,
    candidates: list,
    tol: float = DEFAULT_TOL,
):
    """Compose an environment whose no-effort coordination equilibrium strictly
    beats the truthful profile.

    Candidates must elicit truth at zero cost and zero audit probability.  The
    composed environment reuses one candidate's high channel as the shared
    low channel of another whose truthful payoff is no larger, so gathering
    the costly signal buys nothing the shared draw does not already provide.
    Returns NOT_FOUND when no elicitable ordered pair qualifies.
    """
    game = SpotGame(0.0, mechanism)
    elicitable = []
    for env in candidates:
        free = env.with_effort_cost(0.0)
        table = compute_payoff_table(mechanism, free)
        truthful = truthful_strategy(env.q_space)
        record = is_symmetric_equilibrium(game, free, truthful, p=0.0, tol=tol, table=table)
        if record.certified:
            elicitable.append((env, record.utility))
    for donor, donor_payoff in elicitable:
        for host, host_payoff in elicitable:
            if donor_payoff < host_payoff - tol:
                continue
            if len(donor.q_space) != len(host.q_space):
                continue
            composed = replace(
                host,
                low_channel=donor.high_channel,
                env_id=f"{host.env_id}-low-from-{donor.env_id}",
            )
            table = compute_payoff_table(mechanism, composed)
            gl = table.strategies[table.best_no_effort]
            record = is_symmetric_equilibrium(
                game, composed, gl, p=0.0, tol=tol, table=table
            )
            if not record.certified:
                continue
            t = table.truthful
            truthful_utility = table.unchecked[t, t] - composed.effort_cost
            if record.utility > truthful_utility + tol:
                return composed
    return NOT_FOUND
