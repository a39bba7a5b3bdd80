"""Relations between thresholds across environments, offsets and costs.

Over seeded environments at k = 2-5 and every spec whose label rule admits them:

(a) renaming the labels leaves every threshold's status unchanged, and every value within
    rounding;
(b) peer truth serum's ``alpha`` and the peer-insensitive ``W``, rewards paid whatever is
    reported, leave every threshold's status unchanged, and every value within rounding;
(c) ``p_ds`` is linear in the effort cost, and ``p_el`` and ``p_ex`` never decrease as it
    grows;
(d) where ``p_pareto``, ``p_el`` and ``p_ex`` are all attained,
    ``p_pareto >= min(p_el, p_ex) - grid``;
(e) the best no-effort base is certified at p = 0 at every cost, so ``p_el`` is never
    ``not_applicable``: the coordination equilibrium cannot be avoided without audits.

The bounds of (a) and (b) are rounding, not slack.  Neither change moves a deviation gain,
a utility difference or an audit gap by more than a few units of rounding, so the closed
forms ``p_ds`` and ``p_ex``, quotients of such differences, move by rounding only
(``CLOSED_FORM``).  ``p_el`` is a bisection to
``REFINE``: a probe decided the other way by a rounding-level change of the gain moves the
bracket, but both results stay in the same ``REFINE``-wide bracket above the crossing.
``p_pareto`` is a grid point, so the same rounding can move it to a neighbouring point,
one grid step away.
"""

from functools import lru_cache

import numpy as np
import pytest

from peerspot import MechanismKind, MechanismSpec, compute_payoff_table, compute_thresholds
from peerspot.equilibrium import DEFAULT_GRID, NOT_APPLICABLE, NOT_FOUND, REFINE, NotAttained

from conftest import random_environment, spec_id, specs_for
from test_exact_engine import relabel_environment

COSTS = (0.0, 0.01, 0.05, 0.1, 0.2, 0.4)
CLOSED_FORM = 1e-12  # absolute; every threshold lies in [0, 1]
BOUNDS = {"p_ds": CLOSED_FORM, "p_el": REFINE, "p_ex": CLOSED_FORM, "p_pareto": DEFAULT_GRID}
THRESHOLDS = tuple(BOUNDS)
# (labels, seed): three environments per label count up to 4, the odd seed's with an
# informative shared draw, and one at k=5.
CASES = [(labels, seed) for labels in (2, 3, 4) for seed in (0, 1, 2)] + [(5, 0)]


def environment(labels: int, seed: int):
    return random_environment(np.random.default_rng(1000 * labels + seed), labels, correlated_low=seed % 2 == 1)


@lru_cache(maxsize=None)
def reports(spec: MechanismSpec, env) -> tuple:
    """The threshold report at every cost of ``COSTS``."""
    table = compute_payoff_table(spec, env)
    return tuple(compute_thresholds(table, cost) for cost in COSTS)


def assert_within_rounding(got, want, where: str) -> None:
    for name in THRESHOLDS:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(a, NotAttained) or isinstance(b, NotAttained):
            assert a == b, f"{where} {name}: {a!r} vs {b!r}"
        else:
            assert abs(a - b) <= BOUNDS[name], f"{where} {name}: {a!r} vs {b!r}"


@pytest.mark.parametrize("labels, seed", CASES)
def test_relabelling_keeps_every_threshold(labels, seed):
    env = environment(labels, seed)
    perm = tuple(np.roll(np.arange(labels), 1))  # no label keeps its name
    relabelled = relabel_environment(env, perm)
    for spec in specs_for(env):
        for cost, got, want in zip(COSTS, reports(spec, relabelled), reports(spec, env)):
            assert_within_rounding(got, want, f"{spec_id(spec)} at cost {cost}")


@pytest.mark.parametrize("labels, seed", CASES)
@pytest.mark.parametrize("kind, parameter", [
    (MechanismKind.PEER_TRUTH_SERUM, "alpha"),
    (MechanismKind.PEER_INSENSITIVE, "constant_reward"),
])
def test_offsets_keep_every_threshold(kind, parameter, labels, seed):
    env = environment(labels, seed)
    want = reports(MechanismSpec(kind), env)
    for offset in (0.25, 4.0):
        for cost, got, expected in zip(COSTS, reports(MechanismSpec(kind, **{parameter: offset}), env), want):
            assert_within_rounding(got, expected, f"{kind.value} {parameter}={offset} at cost {cost}")


def ranked(value, below=(), above=()) -> float:
    """A threshold as a number to order across costs: a status in ``below`` sits under
    every value and one in ``above`` over every value."""
    if value in below:
        return -np.inf
    if value in above:
        return np.inf
    return value


@pytest.mark.parametrize("labels, seed", CASES)
def test_thresholds_move_with_the_cost(labels, seed):
    """``p_ds`` is cost over the audit gap until it passes 1; ``p_el`` (unapplicable when the
    coordination profile is no equilibrium even unaudited, never found when no audit rate
    ends it) and ``p_ex`` (unapplicable when truthful utility never overtakes) only grow.
    Each is computed by correctly rounded operations that are monotone in the cost, so the
    order holds exactly."""
    env = environment(labels, seed)
    for spec in specs_for(env):
        rows = reports(spec, env)
        p_ds = [row.p_ds for row in rows]
        attained = [not isinstance(p, NotAttained) for p in p_ds]
        assert attained == sorted(attained, reverse=True), spec_id(spec)  # attained up to some cost
        assert not attained[0] or p_ds[0] == 0.0
        slopes = [p / cost for cost, p, ok in zip(COSTS, p_ds, attained) if ok and cost > 0]
        if slopes:
            assert max(slopes) - min(slopes) <= CLOSED_FORM * max(slopes), f"{spec_id(spec)} p_ds {p_ds}"
        p_el = [ranked(row.p_el, below=(NOT_APPLICABLE,), above=(NOT_FOUND,)) for row in rows]
        p_ex = [ranked(row.p_ex, above=(NOT_APPLICABLE,)) for row in rows]
        assert p_el == sorted(p_el), f"{spec_id(spec)} p_el {p_el}"
        assert p_ex == sorted(p_ex), f"{spec_id(spec)} p_ex {p_ex}"


@pytest.mark.parametrize("labels, seed", CASES)
def test_pareto_threshold_is_not_below_elimination_or_overtaking(labels, seed):
    """Below ``p_el`` the coordination profile is a certified equilibrium at every grid point,
    and below ``p_ex`` its utility exceeds the truthful one, so no grid point below both
    makes truthful weakly best; ``p_pareto`` is a grid point, ``p_el`` and ``p_ex`` are not."""
    env = environment(labels, seed)
    for spec in specs_for(env):
        for cost, row in zip(COSTS, reports(spec, env)):
            values = (row.p_pareto, row.p_el, row.p_ex)
            if any(isinstance(x, NotAttained) for x in values):
                continue
            assert row.p_pareto >= min(row.p_el, row.p_ex) - row.grid, f"{spec_id(spec)} at cost {cost}: {row}"


@pytest.mark.parametrize("labels, seed", CASES)
def test_coordination_base_is_certified_unaudited(labels, seed):
    """Unaudited, the best no-effort base is an equilibrium at every cost (a higher cost only
    makes a full-effort deviation worse), so ``p_el`` always has a coordination equilibrium
    to eliminate."""
    env = environment(labels, seed)
    for spec in specs_for(env):
        table = compute_payoff_table(spec, env)
        for cost, row in zip(COSTS, reports(spec, env)):
            (_,), (certified,) = table.certify(0.0, cost, [table.best_no_effort])
            assert certified and row.p_el is not NOT_APPLICABLE, f"{spec_id(spec)} at cost {cost}: {row}"
