"""Deviation gains, equilibrium enumeration, and the four threshold solvers.

``solve_p_pareto`` is compared here with the dense grid solver in
``grid_solvers``, and ``solve_p_el`` with the former solver's scan there, on
e1 and the 20 acceptance environments; ``solve_p_pareto`` also on synthetic
tables.  The oracles read the dense (deviant, base) matrix gathered from the
table's per-observation terms.  ``python tests/test_equilibrium.py`` runs the
full comparison: the 32 sweep-k3 families, the bundled config, the acceptance
environments, and four k=4 environments (``p_pareto`` against the
point-by-point scan).  It prints the number of rows compared and of
mismatches for each threshold, after the measured layers at each k from 2 to
5: each kind's payoff-table build in ms with its tracemalloc peak, the ms per
row of ``solve_p_el`` and ``solve_p_pareto``, and the dense ``gain_lines``
rows a row's thresholds build outside ``solve_p_el``.
"""

import dataclasses
import functools
import itertools
import math
import re
import sys
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from peerspot import (
    Channel,
    Distribution,
    Effort,
    EnumerationBudgetExceeded,
    InvalidDistribution,
    LOGARITHMIC,
    MechanismKind,
    MechanismSpec,
    NOT_ACHIEVABLE,
    NotAttained,
    PayoffTable,
    PeerSpotError,
    ShapeMismatch,
    Strategy,
    check_pareto_bound_condition,
    compute_payoff_table,
    compute_thresholds,
    construct_dominated_environment,
    enumerate_pure_strategies,
    enumerate_symmetric_pure_equilibria,
    example_config_path,
    expected_spot_reward,
    is_symmetric_equilibrium,
    load_config,
    low_identity_strategy,
    reference_environment,
    solve_p_ds,
    solve_p_ds_bisection,
    solve_p_el,
    solve_p_ex,
    solve_p_pareto,
    threshold_float,
    truthful_strategy,
)
from peerspot import equilibrium, strategies
from peerspot.acceptance import _random_acceptance_environments
from peerspot.equilibrium import DEFAULT_TOL, NOT_APPLICABLE, NOT_FOUND, _certified_intervals, _gain_at
from peerspot.harness import DEFAULT_EFFORT_COSTS, generate_environments, parse_config, run_experiment
from peerspot.mechanisms import KINDS

from conftest import E1_COST, TERNARY_COST, random_costed_environment, random_environment, spec_id, specs_for
from grid_solvers import best_effort_values, dense_gains, scan_p_el, scan_p_pareto, unchecked
from grid_solvers import solve_p_pareto as grid_p_pareto

OA = MechanismSpec(MechanismKind.OUTPUT_AGREEMENT)
PI = MechanismSpec(MechanismKind.PEER_INSENSITIVE, constant_reward=1.0)


# The benchmark's sweep-k4 shape: one seeded k=4 environment, two kinds, default costs and grid.
K4_SWEEP = {
    "environments": [{"generator": {"labels": 4, "count": 1, "seed": 3, "prefix": "bench"}}],
    "mechanisms": [{"kind": "output_agreement"}, {"kind": "peer_insensitive"}],
}


@st.composite
def eighths_tables(draw):
    """A payoff table over every pure strategy at k=2 or k=3, every per-observation
    unchecked and audit term a multiple of 1/8."""
    k = draw(st.sampled_from([2, 3]))
    unchecked_terms = draw(arrays(np.int8, (2 * k**k, 2, k, k), elements=st.integers(-4, 4)))
    audit_terms = draw(arrays(np.int8, (2, k, k), elements=st.integers(-4, 4)))
    return PayoffTable(unchecked_terms / 8, audit_terms / 8)


def _tie_at_three_tenths() -> PayoffTable:
    """Binary terms under which truthful effort gains exactly 0 against the coordination
    base (no-effort identity, index 4) at p = 0.3 and cost 1/8: its gain lines are
    -3/8 at p = 0 and 7/8 at p = 1, and every other deviant gains less."""
    audit = np.array([[[0.25, -0.25], [-0.25, 0.25]], np.full((2, 2), -0.25)])
    terms = np.zeros((8, 2, 2, 2))
    terms[4] = [[[0.0, -0.5], [-0.5, 0.0]], [[0.125, -0.5], [-0.5, 0.125]]]
    terms[0] = [[[0.125, -0.5], [-0.5, 0.0]], [[0.375, -0.5], [-0.5, 0.0]]]
    return PayoffTable(terms, audit)


TIE_AT_THREE_TENTHS = _tie_at_three_tenths()


def _zero_plateau() -> PayoffTable:
    """Binary terms under which the no-effort map (1, 0) (index 6) is certified at cost 0
    and tol 0 exactly on p in [3/8, 5/7]: there its best no-effort deviant is itself, an
    exactly zero gain that the kinked gain reads as about +1e-16 at both kinks, and full
    effort gains -p / 10 everywhere."""
    terms = np.zeros((8, 2, 2, 2))
    terms[6, 1] = [[-0.5, 0.0], [0.0, 0.6]]
    audit = np.zeros((2, 2, 2))
    audit[1] = [[-0.1, -0.3], [0.4, -0.6]]
    return PayoffTable(terms, audit)


ZERO_PLATEAU = _zero_plateau()


def _against_coordination(unchecked: list, audit: list) -> PayoffTable:
    """Binary terms that are zero except the full-effort deviant's against the coordination
    base (no-effort identity, index 4): ``unchecked[o][r]`` and ``audit[o][r]``.  That base
    earns 0, and so does every no-effort deviant against it."""
    terms = np.zeros((8, 2, 2, 2))
    terms[4, 0] = unchecked
    audit_terms = np.zeros((2, 2, 2))
    audit_terms[0] = audit
    return PayoffTable(terms, audit_terms)


# Against the coordination base, the best full-effort deviant earns 2 max(p - 1/2, -1/4):
# both observations bend at the grid point 1/4, and at cost 0 the gain ties tol = 0
# exactly at the grid point 1/2, the end of the base's interval.
COINCIDENT_KINKS = _against_coordination([[-0.5, -0.25], [-0.5, -0.25]], [[0.5, -0.25], [0.5, -0.25]])
# There it earns max(p / 4, -p / 4) + max(0, (p - 1) / 4) = p / 4: the first observation's
# lines cross at p = 0 and the second's at p = 1.
ENDPOINT_KINKS = _against_coordination([[0.0, 0.0], [0.0, -0.25]], [[0.25, -0.25], [0.0, 0.0]])
# The rounding bound that the comment at ``VERIFY_SLACK`` states for the kinked gain against
# the dense row, relative to ``PayoffTable.magnitude``: the slope-summed kink values round at
# most 6K + 3k + 13 times more than the separable oracle, which is within 3e-15 of that row.
SLOPE_SUM_BOUND = 6e-14


def assert_slope_sums_are_best_responses(table: PayoffTable, bases) -> None:
    """``kinked_gains`` against ``bases``: sorted kinks from 0 to 1, each kink's gain equal to
    the separable oracle's there within SLOPE_SUM_BOUND, and each piece reaching the next
    kink's gain on its slope."""
    kinks, gains, slopes = table.kinked_gains(bases)
    assert np.all(kinks[:, 0] == 0.0) and np.all(kinks[:, -1] == 1.0) and np.all(np.diff(kinks, axis=1) >= 0.0)
    rows = np.tile(bases, kinks.shape[1])
    for e in range(2):
        at = kinks[e].ravel()
        exact = best_effort_values(table, at, rows)[e] - table.utilities(at, 0.0, rows)
        assert np.all(np.abs(gains[e].ravel() - exact) <= SLOPE_SUM_BOUND * table.magnitude[rows])
    reached = gains[:, :-1] + slopes[:, :-1] * np.diff(kinks, axis=1)
    assert np.all(np.abs(reached - gains[:, 1:]) <= SLOPE_SUM_BOUND * table.magnitude[bases])


def correlated_low_env(env, accuracy=0.8):
    return replace(env, low_channel=Channel.symmetric_noise(env.q_space, accuracy))


def best_no_effort(env):
    table = compute_payoff_table(PI, env)
    return table.strategies[table.best_no_effort]


class TestBestNoEffort:
    def test_uniform_low_ties_resolve_to_identity(self, env, ternary_env):
        assert best_no_effort(env) == low_identity_strategy(2)
        assert best_no_effort(ternary_env) == low_identity_strategy(3)

    def test_correlated_low_prefers_identity_with_positive_value(self, env):
        e = correlated_low_env(env)
        best = best_no_effort(e)
        assert best == low_identity_strategy(2)
        value = expected_spot_reward(e, best)
        assert value > 0
        # Oracle: identity beats the other three binary maps outright.
        for report_map in itertools.product(range(2), repeat=2):
            assert expected_spot_reward(e, Strategy(Effort.NONE, report_map)) <= value + 1e-12


class TestPayoffTableIndices:
    @pytest.mark.parametrize("labels", [2, 3])
    def test_indices_match_the_strategies(self, labels):
        rng = np.random.default_rng(labels)
        for _ in range(4):
            e = random_environment(rng, labels, correlated_low=True)
            table = compute_payoff_table(PI, e)
            assert table.strategies[table.truthful] == truthful_strategy(labels)
            # Oracle: no no-effort strategy's single-strategy audit reward beats the chosen one.
            best = table.strategies[table.best_no_effort]
            assert not best.is_full_effort
            value = expected_spot_reward(e, best)
            for s in table.strategies:
                if not s.is_full_effort:
                    assert expected_spot_reward(e, s) <= value + 1e-9

    def test_a_better_no_effort_map_replaces_the_identity(self, env):
        # A low channel that reports the opposite label makes the swap map best.
        swapped = Channel.from_matrix(env.q_space, env.q_space, [[0.2, 0.8], [0.8, 0.2]])
        flipped = replace(env, low_channel=swapped)
        table = compute_payoff_table(PI, flipped)
        assert table.strategies[table.best_no_effort] == Strategy(Effort.NONE, (1, 0))


class TestDeviationGains:
    def test_full_audit_forces_truth(self, env):
        table = compute_payoff_table(PI, env)
        lazy = table.index_of(low_identity_strategy(2))
        gains = dense_gains(table, lazy, 1.0, E1_COST)
        best = int(np.argmax(gains))
        assert table.strategies[best] == truthful_strategy(2)
        utility = table.utilities(1.0, E1_COST)[lazy] + gains[best]
        assert utility == pytest.approx(0.32 - 0.1, abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_lines_are_utility_differences(self, ternary_env, p):
        # Oracle: a deviant's gain is its combined utility minus the conforming one.
        table = compute_payoff_table(OA, ternary_env)
        cost = TERNARY_COST
        size = len(table.strategies)
        g0, g1 = table.gain_lines(cost, np.arange(size))
        assert g0.shape == g1.shape == (size, size)
        utilities = table.utilities(p, cost)
        z = unchecked(table)
        for b in range(size):
            deviant = p * table.spot + (1.0 - p) * z[:, b] - cost * table.full_effort
            expected = deviant - utilities[b]
            assert (1.0 - p) * g0[b] + p * g1[b] == pytest.approx(expected, abs=1e-12)
            assert dense_gains(table, b, p, cost) == pytest.approx(expected, abs=1e-12)


class TestEquilibriumCertification:
    def test_coordination_equilibrium(self, env):
        table = compute_payoff_table(OA, env)
        record = is_symmetric_equilibrium(table, low_identity_strategy(2), 0.0, 0.0)
        assert record.certified and record.utility == pytest.approx(1.0)

    def test_wasted_effort_breaks_truthful_profile(self, env):
        table = compute_payoff_table(PI, env)
        record = is_symmetric_equilibrium(table, truthful_strategy(2), 0.0, E1_COST)
        assert not record.certified
        assert record.max_deviation_gain == pytest.approx(0.1, abs=1e-12)

    def test_fixed_point_has_zero_gain(self, env):
        table = compute_payoff_table(OA, env)
        for strategy in table.strategies:
            rec = is_symmetric_equilibrium(table, strategy, 0.3, E1_COST)
            if rec.certified:
                assert rec.max_deviation_gain <= 1e-9


class TestSeparableCertification:
    """Certification reads each effort's kinked gain, the best response per observation
    over p, and falls back to the dense row near tol, so every decision is the dense row's."""

    @settings(max_examples=150)
    @given(
        table=eighths_tables(),
        cost=st.sampled_from([0.0, 0.125, 0.25]),
        tol=st.sampled_from([0.0, 1e-9]),
        grid=st.sampled_from([1e-3, 0.1, 0.125]),
    )
    @example(table=TIE_AT_THREE_TENTHS, cost=0.125, tol=0.0, grid=1e-3)
    @example(table=ZERO_PLATEAU, cost=0.0, tol=0.0, grid=1e-3)
    @example(table=COINCIDENT_KINKS, cost=0.0, tol=0.0, grid=1e-3)
    @example(table=COINCIDENT_KINKS, cost=0.0, tol=0.0, grid=0.125)
    @example(table=ENDPOINT_KINKS, cost=0.0, tol=0.0, grid=1e-3)
    @example(table=ENDPOINT_KINKS, cost=0.125, tol=1e-9, grid=0.1)
    def test_decisions_and_intervals_are_the_dense_rows(self, table, cost, tol, grid):
        points = np.linspace(0.0, 1.0, int(round(1.0 / grid)) + 1)
        bases = np.arange(len(table.strategies))
        dense = _gain_at(points[:, None, None], *table.gain_lines(cost, bases)).max(axis=2) <= tol
        _, certified = table.certify(np.repeat(points, len(bases)), cost, tol, np.tile(bases, len(points)))
        assert np.array_equal(certified.reshape(dense.shape), dense)
        lo, hi = _certified_intervals(table, cost, points, tol, bases)
        index = np.arange(len(points))[:, None]
        assert np.array_equal((index >= lo) & (index <= hi), dense)

    def test_tables_cover_every_strategy(self):
        terms = np.zeros((8, 2, 2, 2))
        PayoffTable(terms, np.zeros((2, 2, 2)))
        for unchecked_terms, audit_terms in (
            (terms[:-1], np.zeros((2, 2, 2))),  # a strategy short
            (terms[..., :1], np.zeros((2, 2, 2))),  # a report short
            (terms, np.zeros((2, 2, 3))),
            (terms, np.zeros((2, 2))),
        ):
            with pytest.raises(ShapeMismatch):
                PayoffTable(unchecked_terms, audit_terms)

    def test_tables_hold_the_terms_once(self, ternary_env):
        # V is stored once, as given; the strategies are a view built when first read.
        table = compute_payoff_table(OA, ternary_env)
        assert [f.name for f in dataclasses.fields(PayoffTable) if f.init] == ["unchecked_terms", "audit_terms"]
        assert [name for name, x in vars(table).items() if np.size(x) >= table.unchecked_terms.size] == [
            "unchecked_terms"
        ]
        assert "strategies" not in vars(table)
        assert table.strategies == enumerate_pure_strategies(3)

    def test_best_response_is_the_largest_dense_gain(self, ternary_env):
        table = compute_payoff_table(OA, ternary_env)
        bases = np.arange(len(table.strategies))
        for p in (0.0, 0.37, 1.0):
            gain, _ = table.certify(p, 0.05, DEFAULT_TOL, bases)
            dense = _gain_at(p, *table.gain_lines(0.05, bases)).max(axis=1)
            np.testing.assert_allclose(gain, dense, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("p", [-0.1, 1.0 + 1e-9, math.inf, math.nan])
    def test_probability_outside_the_unit_interval_is_refused(self, env, p):
        # The kinked gain is recorded on [0, 1] only; past 1 it would miss kinks.
        table = compute_payoff_table(OA, env)
        with pytest.raises(PeerSpotError, match=r"p must lie in \[0, 1\]"):
            is_symmetric_equilibrium(table, truthful_strategy(2), p, 0.0)


class TestKinkedGains:
    """Each effort's best gain is read from its kinks merged over observations and a running
    sum of slope times step, and interval probes read that piecewise-linear gain."""

    @settings(max_examples=100)
    @given(table=eighths_tables())
    @example(table=COINCIDENT_KINKS)
    @example(table=ENDPOINT_KINKS)
    @example(table=ZERO_PLATEAU)
    def test_slope_sums_are_best_responses(self, table):
        assert_slope_sums_are_best_responses(table, np.arange(len(table.strategies)))

    @pytest.mark.parametrize("labels", [2, 3, 4, 5])
    def test_slope_sums_on_the_sweep_environment(self, labels):
        env = generate_environments(labels, 1, seed=3, prefix="bench")[0]
        for spec in (OA, MechanismSpec(MechanismKind.CORRELATED_AGREEMENT), PI):
            table = compute_payoff_table(spec, env)
            size = len(table.strategies)
            bases = np.random.default_rng(labels).choice(size, min(size, 600), replace=False)
            assert_slope_sums_are_best_responses(table, bases)

    def test_coincident_kinks_on_a_grid_point(self):
        kinks, gains, slopes = COINCIDENT_KINKS.kinked_gains([4])
        assert kinks[0, :4, 0].tolist() == [0.0, 0.25, 0.25, 1.0]
        assert gains[0, :4, 0].tolist() == [-0.5, -0.5, -0.5, 1.0]
        assert slopes[0, :3, 0].tolist() == [0.0, 1.0, 2.0]

    def test_kinks_at_zero_and_one(self):
        kinks, gains, slopes = ENDPOINT_KINKS.kinked_gains([4])
        assert kinks[0, :2, 0].tolist() == [0.0, 1.0] and set(kinks[0, 2:, 0]) <= {1.0}
        assert gains[0, :2, 0].tolist() == [0.0, 0.25] and set(gains[0, 2:, 0]) <= {0.25}
        assert slopes[0, 0, 0] == 0.25

    @pytest.mark.parametrize(
        "table, cost, tol, interval",
        [
            (COINCIDENT_KINKS, 0.0, 0.0, (0, 500)),  # the end is an exact tie at a grid point
            (COINCIDENT_KINKS, 0.0, 1e-9, (0, 500)),
            (ENDPOINT_KINKS, 0.0, 0.0, (0, 0)),  # a tie at the kink at p = 0
            (ENDPOINT_KINKS, 0.125, 0.0, (0, 500)),
        ],
    )
    def test_interval_of_the_coordination_base(self, table, cost, tol, interval):
        points = np.linspace(0.0, 1.0, 1001)
        (lo,), (hi,) = _certified_intervals(table, cost, points, tol, np.array([4]))
        assert (lo, hi) == interval

    def test_probes_fall_back_to_the_dense_row_only_near_tol(self, monkeypatch):
        points = np.linspace(0.0, 1.0, 1001)
        env = generate_environments(4, 1, seed=3, prefix="bench")[0]
        for table, tol, near in ((compute_payoff_table(OA, env), DEFAULT_TOL, False), (COINCIDENT_KINKS, 0.0, True)):
            calls = []
            gain_lines = table.gain_lines
            monkeypatch.setattr(table, "gain_lines", lambda cost, bases: calls.append(bases) or gain_lines(cost, bases))
            _certified_intervals(table, 0.1, points, tol, np.arange(len(table.strategies)))
            assert (len(calls) > 0) is near

    def test_five_label_intervals_are_the_dense_rows_at_every_grid_point(self):
        # The S x S oracle would take about 1 GB at k=5 and certify decides as the intervals
        # do, so each sampled base's dense row (1001 x 6,250 gains, 50 MB) is the reference.
        env = generate_environments(5, 1, seed=3, prefix="bench")[0]
        table = compute_payoff_table(OA, env)
        points = np.linspace(0.0, 1.0, 1001)
        lo, hi = _certified_intervals(table, 0.1, points, DEFAULT_TOL, np.arange(len(table.strategies)))
        rng = np.random.default_rng(5)
        somewhere = np.flatnonzero(lo <= hi)
        assert somewhere.size
        bases = np.concatenate([rng.choice(somewhere, 16, replace=False), rng.choice(np.flatnonzero(lo > hi), 16)])
        index = np.arange(points.size)
        for b in bases:
            dense = _gain_at(points[:, None], *table.gain_lines(0.1, [b])).max(axis=1) <= DEFAULT_TOL
            assert np.array_equal(dense, (index >= lo[b]) & (index <= hi[b]))


class TestEnumeration:
    def test_zero_cost_reference_equilibria(self, env):
        records = enumerate_symmetric_pure_equilibria(compute_payoff_table(OA, env), 0.0, 0.0)
        by_strategy = {r.strategy: r for r in records}
        assert by_strategy[truthful_strategy(2)].utility == pytest.approx(0.82)
        assert by_strategy[low_identity_strategy(2)].utility == pytest.approx(1.0)
        constants = [
            r for s, r in by_strategy.items() if len(set(s.report_map)) == 1 and not s.is_full_effort
        ]
        assert constants and all(r.utility == pytest.approx(1.0) for r in constants)
        assert records == sorted(records, key=lambda r: -r.utility)

    def test_positive_cost_drops_full_effort_constants(self, env):
        records = enumerate_symmetric_pure_equilibria(compute_payoff_table(PI, env), 0.0, E1_COST)
        assert all(not r.strategy.is_full_effort for r in records)
        assert all(r.utility == pytest.approx(1.0) for r in records)

    def test_records_agree_with_single_checks(self, env):
        table = compute_payoff_table(OA, env)
        records = enumerate_symmetric_pure_equilibria(table, 0.2, E1_COST)
        for rec in records:
            single = is_symmetric_equilibrium(table, rec.strategy, 0.2, E1_COST)
            assert single.certified
            assert single.utility == pytest.approx(rec.utility, abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 0.2, 1.0])
    def test_matches_per_strategy_certification_on_k3(self, ternary_env, p):
        table = compute_payoff_table(OA, ternary_env)
        cost = TERNARY_COST
        singles = [is_symmetric_equilibrium(table, s, p, cost) for s in table.strategies]
        expected = sorted((r for r in singles if r.certified), key=lambda r: -r.utility)
        assert expected
        assert enumerate_symmetric_pure_equilibria(table, p, cost) == expected

    def test_label_budget(self):
        # Two strategies' terms over six labels: the budget reads the labels ahead of the
        # shape, so no table exists to search.
        with pytest.raises(EnumerationBudgetExceeded):
            PayoffTable(np.zeros((2, 2, 6, 6)), np.zeros((2, 6, 6)))


class TestDominantStrategyThreshold:
    def test_reference_value(self, env):
        got = solve_p_ds(compute_payoff_table(PI, env), E1_COST)
        assert got == pytest.approx(0.3125, abs=1e-9)
        assert type(got) is float  # written to the CSV with repr

    def test_zero_cost(self, env):
        assert solve_p_ds(compute_payoff_table(PI, env), 0.0) == 0.0

    def test_unachievable(self, env):
        assert solve_p_ds(compute_payoff_table(PI, env), 0.5) is NOT_ACHIEVABLE

    def test_any_mechanism_table_gives_the_same_value(self, env):
        values = {solve_p_ds(compute_payoff_table(MechanismSpec(kind), env), 0.1) for kind in MechanismKind}
        assert len(values) == 1

    def test_bisection_agrees_everywhere(self):
        rng = np.random.default_rng(13)
        for labels in (2, 3):
            for _ in range(5):
                e, cost = random_costed_environment(rng, labels)
                closed = solve_p_ds(compute_payoff_table(PI, e), cost)
                bisected = solve_p_ds_bisection(e, cost)
                if isinstance(closed, NotAttained):
                    assert isinstance(bisected, NotAttained)
                else:
                    assert bisected == pytest.approx(closed, abs=1e-8)


class TestEliminationThreshold:
    def test_constant_reward_matches_dominant_threshold(self, env):
        got = solve_p_el(compute_payoff_table(PI, env), E1_COST)
        assert got == pytest.approx(0.3125, abs=1e-5)

    def test_output_agreement_indifference(self, env):
        # Against the coordination profile, the best full-effort reply earns
        # audit value 0.32 and unchecked agreement 0.5 while conformity earns
        # audit value 0 and unchecked 1:  p*0.32 + (1-p)*0.5 - 0.1 = (1-p)*1.
        expected = 0.6 / 0.82
        got = solve_p_el(compute_payoff_table(OA, env), E1_COST)
        assert got == pytest.approx(expected, abs=2e-6)

    def test_zero_cost_constant_reward(self, env):
        got = solve_p_el(compute_payoff_table(PI, env), 0.0)
        assert got == pytest.approx(0.0, abs=2e-6)

    def test_not_found_when_coordination_survives_full_auditing(self, env):
        # Audit gap 0.32 < cost: no probability persuades full effort.
        got = solve_p_el(compute_payoff_table(OA, env), 0.45)
        assert isinstance(got, NotAttained)

    @settings(max_examples=300)
    @given(
        table=eighths_tables(),
        cost=st.sampled_from([0.0, 0.125, 0.25]),
        tol=st.sampled_from([0.0, 1e-9]),
        grid=st.sampled_from([1e-3, 0.1, 0.125]),
    )
    # Truthful effort gains exactly 0 against coordination at p = 0.3.  At the grid
    # point 0.3 a difference of utilities rounded that gain to 0, its line to above 0.
    @example(table=TIE_AT_THREE_TENTHS, cost=0.125, tol=0.0, grid=1e-3)
    def test_bracket_is_the_certified_interval(self, table, cost, tol, grid):
        # The coordination base's certified interval, as p_pareto sees it, brackets p_el.
        points = np.linspace(0.0, 1.0, int(round(1.0 / grid)) + 1)
        n = len(points) - 1
        (lo,), (hi,) = _certified_intervals(table, cost, points, tol, np.array([table.best_no_effort]))
        p_el = solve_p_el(table, cost, grid, tol)
        if p_el is NOT_APPLICABLE:
            assert not lo <= 0 <= hi
            return
        assert lo == 0
        assert (p_el is NOT_FOUND) == (hi == n)
        if p_el is not NOT_FOUND:
            assert points[hi] <= p_el <= points[hi + 1]


class TestOvertakeThreshold:
    def test_output_agreement_reference(self, env):
        got = solve_p_ex(compute_payoff_table(OA, env), E1_COST)
        assert got == pytest.approx(0.56, abs=1e-9)

    def test_constant_reward_collapses_to_dominant_threshold(self, env):
        got = solve_p_ex(compute_payoff_table(PI, env), E1_COST)
        assert got == pytest.approx(0.3125, abs=1e-9)

    def test_equal_profiles_at_zero_cost(self, env):
        assert solve_p_ex(compute_payoff_table(PI, env), 0.0) == 0.0


class TestParetoThreshold:
    def test_constant_reward_reference(self, env):
        table = compute_payoff_table(PI, env)
        p = solve_p_pareto(table, E1_COST, grid=1e-3)
        assert p == pytest.approx(0.313, abs=1e-12)
        assert is_symmetric_equilibrium(table, truthful_strategy(2), p, E1_COST).certified

    def test_output_agreement_meets_lower_bound(self, env):
        p = solve_p_pareto(compute_payoff_table(OA, env), E1_COST, grid=1e-3)
        assert p >= 0.3125 - 1e-3
        assert p == pytest.approx(0.56, abs=1e-3 + 1e-12)

    def test_trivial_at_zero_cost_with_perfect_channels(self):
        from peerspot import Distribution, Environment, LabelSpace

        space = LabelSpace.of((0, 1))
        perfect = Channel.symmetric_noise(space, 1.0)
        e = Environment(
            q_space=space,
            prior=Distribution.uniform(space),
            high_channel=perfect,
            trusted_channel=perfect,
            low_channel=perfect,
            n_agents=3,
            n_objects=2,
        )
        assert solve_p_pareto(compute_payoff_table(OA, e), 0.0, grid=1e-3) == 0.0


ORACLE_ENVS = {env.env_id: env for env in [reference_environment()] + _random_acceptance_environments()}


@functools.lru_cache(maxsize=None)
def oracle_tables(env_id: str) -> list:
    """(spec id, payoff table) for every spec valid in the environment, built once per test run."""
    env = ORACLE_ENVS[env_id]
    return [(spec_id(spec), compute_payoff_table(spec, env)) for spec in specs_for(env)]


def solver_mismatches(label: str, table, costs, solver, oracle) -> list:
    """Rows where a solver and its grid oracle disagree, statuses included."""
    found = []
    for cost in costs:
        new, old = solver(table, cost), oracle(table, cost)
        if repr(new) != repr(old):
            found.append(f"{label} cost={cost!r}: {solver.__name__} {new!r}, {oracle.__name__} {old!r}")
    return found


class TestParetoAgainstGridSolver:
    @pytest.mark.parametrize("env_id", sorted(ORACLE_ENVS))
    def test_acceptance_environment(self, env_id):
        mismatches = []
        for label, table in oracle_tables(env_id):
            mismatches += solver_mismatches(label, table, DEFAULT_EFFORT_COSTS, solve_p_pareto, grid_p_pareto)
        assert not mismatches

    @settings(max_examples=300)
    @given(
        table=eighths_tables(),
        cost=st.sampled_from([0.0, 0.125, 0.25]),
        tol=st.sampled_from([0.0, 1e-9]),
        grid=st.sampled_from([1e-3, 0.125, 0.1]),
    )
    def test_synthetic_tables(self, table, cost, tol, grid):
        # Entries in eighths put gain crossings on grid points and make ties,
        # zero gains and flat deviants common.
        assert repr(solve_p_pareto(table, cost, grid, tol)) == repr(grid_p_pareto(table, cost, grid, tol))

    def test_scan_oracle_matches_the_dense_one(self, ternary_env):
        table = compute_payoff_table(OA, ternary_env)
        for cost in DEFAULT_EFFORT_COSTS:
            assert repr(scan_p_pareto(table, cost)) == repr(grid_p_pareto(table, cost))


class TestEliminationAgainstScan:
    """``solve_p_el`` reads the gain lines, ``scan_p_el`` writes the utility difference:
    at the default tol they give the same value on every acceptance row."""

    @pytest.mark.parametrize("env_id", sorted(ORACLE_ENVS))
    def test_acceptance_environment(self, env_id):
        mismatches = []
        for label, table in oracle_tables(env_id):
            mismatches += solver_mismatches(label, table, DEFAULT_EFFORT_COSTS, solve_p_el, scan_p_el)
        assert not mismatches


class TestFourLabels:
    """k=4 (S=512): the dense grid solver's (1001, S, S) arrays would take 2 GiB each."""

    def test_sweep_rows_complete(self):
        config = parse_config(K4_SWEEP)
        rows = run_experiment(config)
        assert len(rows) == 8
        assert [row.error for row in rows if row.error] == []
        assert all(isinstance(row.p_pareto, float) for row in rows)

    def test_rows_build_no_strategy_list(self, monkeypatch):
        # Tables and solvers read the strategy arrays; ``Strategy`` objects are for the public API.
        def refuse(labels):
            raise AssertionError("a Strategy list was built on the row path")

        monkeypatch.setattr(strategies, "enumerate_pure_strategies", refuse)
        monkeypatch.setattr(equilibrium, "enumerate_pure_strategies", refuse)
        rows = run_experiment(parse_config(K4_SWEEP))
        assert len(rows) == 8
        assert [row.error for row in rows if row.error] == []

    def test_pareto_working_set(self):
        env = generate_environments(4, 1, seed=3, prefix="bench")[0]
        table = compute_payoff_table(OA, env)
        size = len(table.strategies)
        tracemalloc.start()
        try:
            solve_p_pareto(table, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * size * size * 8


class TestFiveLabels:
    """k=5 (S=6,250) tables hold 2.5 MB of per-observation terms; k=6 is over the label
    budget, which is checked before any strategy list."""

    @pytest.mark.parametrize("kind", ["output_agreement", "peer_insensitive"])
    def test_rows_complete(self, kind):
        config = parse_config(
            {**K4_SWEEP, "environments": [{"generator": {"labels": 5, "seed": 3}}], "mechanisms": [{"kind": kind}]}
        )
        rows = run_experiment(config)
        assert len(rows) == 4
        assert [row.error for row in rows if row.error] == []
        assert all(isinstance(row.p_pareto, float) for row in rows)

    def test_six_label_rows_fail_before_any_table_is_built(self):
        # ``parse_config`` refuses six labels, so the config is assembled past it.
        config = replace(parse_config(K4_SWEEP), environments=generate_environments(6, 1, seed=3))
        tracemalloc.start()
        try:
            rows = run_experiment(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == 8
        assert all(row.error.startswith("EnumerationBudgetExceeded: ") for row in rows)
        assert peak < 4 * 2**20


class TestThresholdOrdering:
    """Elimination and overtake thresholds never undercut the dominant-strategy one."""

    @pytest.mark.parametrize("kind", [k for k in MechanismKind])
    def test_on_reference_environment(self, env, kind):
        mech = MechanismSpec(kind)
        table = compute_payoff_table(mech, env)
        grid = 1e-3
        for cost in (0.0, 0.05, 0.1, 0.2):
            p_ds = threshold_float(solve_p_ds(table, cost))
            p_el = threshold_float(solve_p_el(table, cost))
            p_ex = threshold_float(solve_p_ex(table, cost))
            p_par = threshold_float(solve_p_pareto(table, cost))
            assert p_el >= p_ds - grid
            assert p_ex >= p_ds - 1e-9
            assert p_par >= p_ds - grid
            assert p_par >= min(p_el, p_ex) - grid

    def test_on_generated_environments(self):
        grid = 1e-3
        for e in generate_environments(2, 3, seed=55):
            for kind in (MechanismKind.OUTPUT_AGREEMENT, MechanismKind.CORRELATED_AGREEMENT):
                table = compute_payoff_table(MechanismSpec(kind), e)
                assert check_pareto_bound_condition(table)
                p_ds = threshold_float(solve_p_ds(table, 0.1))
                p_par = threshold_float(solve_p_pareto(table, 0.1))
                assert p_par >= p_ds - grid


class TestParetoBoundCondition:
    @settings(max_examples=150)
    @given(table=eighths_tables(), tol=st.sampled_from([0.0, 1e-9]))
    @example(table=ZERO_PLATEAU, tol=0.0)
    @example(table=COINCIDENT_KINKS, tol=0.0)
    def test_flag_is_the_dense_rows(self, table, tol):
        # The coordination base's equilibrium is decided by ``certify``, as the dense row decides it.
        t, g = table.truthful, table.best_no_effort
        dense = dense_gains(table, g, 0.0, 0.0).max() <= tol and table.own[g] + tol >= table.own[t]
        assert check_pareto_bound_condition(table, tol) == dense

    def test_reference_examples(self, env):
        for kind in (MechanismKind.OUTPUT_AGREEMENT, MechanismKind.CORRELATED_AGREEMENT, MechanismKind.PEER_TRUTH_SERUM):
            assert check_pareto_bound_condition(compute_payoff_table(MechanismSpec(kind), env))

    def test_equality_case_for_frequency_scaled_agreement(self, env):
        # Both profiles earn alpha + beta, so dominance holds with equality.
        mech = MechanismSpec(MechanismKind.PEER_TRUTH_SERUM, alpha=0.3, beta=0.7)
        table = compute_payoff_table(mech, env)
        t = table.index_of(truthful_strategy(2))
        g = table.index_of(low_identity_strategy(2))
        assert table.own[t] == pytest.approx(table.own[g], abs=1e-12)
        assert check_pareto_bound_condition(table)


class TestDominatedEnvironment:
    def test_self_pair_composition(self, env):
        composed = construct_dominated_environment(OA, [env], E1_COST)
        assert not isinstance(composed, NotAttained)
        table = compute_payoff_table(OA, composed)
        t = table.index_of(truthful_strategy(2))
        records = enumerate_symmetric_pure_equilibria(table, 0.0, E1_COST)
        best = records[0]
        assert not best.strategy.is_full_effort
        assert best.utility > table.own[t] - E1_COST + 1e-9

    def test_zero_cost_composition_still_strict_for_agreement(self, env):
        # With free effort the shared-draw coordination still strictly beats
        # truth under plain agreement because the noisy channel disagrees with
        # itself while the shared draw never does.
        composed = construct_dominated_environment(OA, [env], 0.0)
        assert not isinstance(composed, NotAttained)
        table = compute_payoff_table(OA, composed)
        t = table.index_of(truthful_strategy(2))
        records = enumerate_symmetric_pure_equilibria(table, 0.0, 0.0)
        assert records[0].utility > table.own[t] + 1e-9

    def test_equality_only_mechanism_has_no_strict_witness_at_zero_cost(self, env):
        # Frequency-scaled agreement pays alpha + beta at both profiles, so no
        # composition strictly demotes truth when effort is free.
        pts = MechanismSpec(MechanismKind.PEER_TRUTH_SERUM, alpha=0.5, beta=0.5)
        got = construct_dominated_environment(pts, [env], 0.0)
        assert isinstance(got, NotAttained)

    def test_positive_cost_restores_the_witness(self, env):
        pts = MechanismSpec(MechanismKind.PEER_TRUTH_SERUM, alpha=0.5, beta=0.5)
        composed = construct_dominated_environment(pts, [env], E1_COST)
        assert not isinstance(composed, NotAttained)

    def test_empty_candidates(self):
        assert construct_dominated_environment(OA, [], E1_COST) is not None
        assert isinstance(construct_dominated_environment(OA, [], E1_COST), NotAttained)

    @pytest.mark.parametrize(
        "names, found",
        [
            (("skewed", "sharp", "ternary", "e1"), ("e1", "sharp")),
            (("sharp", "skewed", "e1"), ("e1", "sharp")),
            (("skewed", "ternary", "sharp", "e1"), ("ternary", "ternary")),
            (("skewed", "sharp"), None),
        ],
        ids=["skip-labels", "skip-unelicitable", "ternary-self", "none"],
    )
    def test_mixed_candidates(self, env, names, found):
        # At zero cost: "sharp" observes quality exactly, so its self pair ties truth and it only
        # donates; "skewed" (prior 0.9, accuracy 0.6) does not elicit truth; "ternary" has
        # three labels, so it never pairs with a binary candidate.
        exact = Channel.symmetric_noise(env.q_space, 1.0)
        candidates = {
            "e1": env,
            "sharp": replace(env, high_channel=exact, trusted_channel=exact, env_id="sharp"),
            "skewed": replace(
                env,
                prior=Distribution.from_array(env.q_space, [0.9, 0.1]),
                high_channel=Channel.symmetric_noise(env.q_space, 0.6),
                env_id="skewed",
            ),
            "ternary": replace(generate_environments(labels=3, count=1, seed=5)[0], env_id="ternary"),
        }
        elicits = {
            name: is_symmetric_equilibrium(
                compute_payoff_table(OA, c), truthful_strategy(len(c.q_space)), 0.0, 0.0
            ).certified
            for name, c in candidates.items()
        }
        assert elicits == {"e1": True, "sharp": True, "skewed": False, "ternary": True}
        composed = construct_dominated_environment(OA, [candidates[name] for name in names], 0.0)
        if found is None:
            assert composed is NOT_FOUND
            return
        host, donor = candidates[found[0]], candidates[found[1]]
        assert composed.env_id == f"{host.env_id}-low-from-{donor.env_id}"
        assert composed.low_channel == donor.high_channel
        assert replace(composed, low_channel=host.low_channel) == host
        table = compute_payoff_table(OA, composed)
        g = table.best_no_effort
        record = is_symmetric_equilibrium(table, table.strategies[g], 0.0, 0.0)
        assert record.certified and not record.strategy.is_full_effort
        assert record.utility > table.utilities(0.0, 0.0)[strategies.TRUTHFUL] + DEFAULT_TOL


class TestMonotonicity:
    def test_constant_reward_gap_slope(self, env):
        # Truthful-versus-coordination utility gap grows linearly at the audit
        # value difference 0.32.
        table = compute_payoff_table(PI, env)
        t = table.index_of(truthful_strategy(2))
        g = table.index_of(low_identity_strategy(2))
        gaps = []
        for p in (0.2, 0.5, 0.9):
            u = table.utilities(p, E1_COST)
            gaps.append(u[t] - u[g])
        slope = (gaps[2] - gaps[0]) / 0.7
        assert slope == pytest.approx(0.32, abs=1e-12)
        assert gaps == sorted(gaps)


class TestCostBoundary:
    """Each threshold computation that takes an effort cost refuses a negative or non-finite
    one, with the message a failed row carries; an int too large for a float is not finite."""

    CALLS = {
        "compute_thresholds": lambda env, cost: compute_thresholds(compute_payoff_table(PI, env), cost),
        "solve_p_ds_bisection": solve_p_ds_bisection,
        "construct_dominated_environment": lambda env, cost: construct_dominated_environment(OA, [env], cost),
    }

    @pytest.mark.parametrize("call", CALLS)
    @pytest.mark.parametrize(
        "cost", [float("nan"), float("inf"), -float("inf"), -0.1, -1, 10**400], ids=["nan", "inf", "-inf", "-0.1", "-1", "huge-int"]
    )
    def test_negative_and_non_finite_costs_are_refused(self, env, call, cost):
        with pytest.raises(InvalidDistribution, match=f"^effort_cost must be finite and nonnegative, got {re.escape(str(cost))}$"):
            self.CALLS[call](env, cost)

    @pytest.mark.parametrize("cost", [0, 0.0, 0.2])
    def test_zero_and_positive_costs_are_taken(self, env, cost):
        assert compute_thresholds(compute_payoff_table(PI, env), cost).p_ds == pytest.approx(cost / 0.32, abs=1e-12)
        assert solve_p_ds_bisection(env, cost) == pytest.approx(cost / 0.32, abs=1e-8)


class TestReportAssembly:
    def test_compute_thresholds_bundle(self, env):
        report = compute_thresholds(compute_payoff_table(PI, env), E1_COST)
        assert report.p_ds == pytest.approx(0.3125, abs=1e-9)
        assert report.pareto_bound_condition
        doc = report.to_json_dict()
        assert doc["p_pareto"] == pytest.approx(0.313)


def dense_rows_outside_p_el(tables: list, costs) -> int:
    """``gain_lines`` calls made by every threshold of each (table, cost) row but ``p_el``,
    whose scan reads one dense row by design; the others read the kinked gain."""
    calls, gain_lines = [], PayoffTable.gain_lines
    PayoffTable.gain_lines = lambda table, *args: calls.append(args) or gain_lines(table, *args)
    try:
        for table in tables:
            for cost in costs:
                solve_p_ds(table, cost), solve_p_ex(table, cost), solve_p_pareto(table, cost)
                check_pareto_bound_condition(table)
    finally:
        PayoffTable.gain_lines = gain_lines
    return len(calls)


def layer_timings(labels=(2, 3, 4, 5), repeats: int = 3) -> None:
    """Print, per k, each kind's payoff-table build in ms (best of ``repeats``) with the
    tracemalloc peak of one build, then ms per row of ``solve_p_el`` and ``solve_p_pareto``
    (best of ``repeats``), over every kind but the logarithmic rules at the default costs,
    on the seed-3 environment the benchmark's sweeps generate, and the dense rows per row
    outside ``p_el``.  Each repeat solves fresh tables, so ``p_pareto`` pays for each
    table's kink pieces once, as a sweep does."""
    for k in labels:
        env = generate_environments(k, 1, seed=3, prefix="bench")[0]
        specs = [spec for spec in specs_for(env) if spec.rule is not LOGARITHMIC]
        rows = len(specs) * len(DEFAULT_EFFORT_COSTS)
        builds = [math.inf] * len(specs)
        best = {solve_p_el: math.inf, solve_p_pareto: math.inf}
        for _ in range(repeats):
            tables = []
            for i, spec in enumerate(specs):
                start = time.perf_counter()
                tables.append(compute_payoff_table(spec, env))
                builds[i] = min(builds[i], time.perf_counter() - start)
            for solver in best:
                start = time.perf_counter()
                for table in tables:
                    for cost in DEFAULT_EFFORT_COSTS:
                        solver(table, cost)
                best[solver] = min(best[solver], time.perf_counter() - start)
        for spec, seconds in zip(specs, builds):
            tracemalloc.start()
            try:
                compute_payoff_table(spec, env)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            print(f"table k={k} {spec_id(spec)}: {seconds * 1e3:.1f} ms, tracemalloc peak {peak / 2**20:.2f} MB")
        times = ", ".join(f"{solver.__name__} {seconds / rows * 1e3:.2f} ms/row" for solver, seconds in best.items())
        print(f"solvers k={k} ({rows} rows): {times}")
        dense = dense_rows_outside_p_el(tables, DEFAULT_EFFORT_COSTS)
        print(f"gain_lines k={k}: {dense / rows:.2f} calls per row outside solve_p_el")


def full_gate() -> int:
    """The solvers against their grid oracles on every gate row; prints the counts per threshold."""
    cases = []  # (label, spec, environment, costs, p_pareto oracle)
    for seed in range(32):  # the benchmark's sweep-k3 families
        env = generate_environments(3, 1, seed=seed, prefix="bench")[0]
        specs = [MechanismSpec(kind) for kind, entry in KINDS.items() if not entry.binary_only]
        cases += [(spec_id(spec), spec, env, DEFAULT_EFFORT_COSTS, grid_p_pareto) for spec in specs]
    bundled = load_config(example_config_path())
    for env in bundled.environments:
        for spec in bundled.mechanisms:
            cases.append(("bundled " + spec.describe(), spec, env, bundled.effort_costs, grid_p_pareto))
    for env in ORACLE_ENVS.values():
        cases += [(spec_id(spec), spec, env, DEFAULT_EFFORT_COSTS, grid_p_pareto) for spec in specs_for(env)]
    for seed in range(4):  # the benchmark's sweep-k4 environment is seed 3
        k4 = generate_environments(4, 1, seed=seed, prefix="bench")[0]
        for spec in (OA, MechanismSpec(MechanismKind.CORRELATED_AGREEMENT), PI):
            cases.append((spec_id(spec), spec, k4, DEFAULT_EFFORT_COSTS, scan_p_pareto))
    rows, found = 0, {"p_pareto": [], "p_el": []}
    for label, spec, env, costs, pareto_oracle in cases:
        rows += len(costs)
        table = compute_payoff_table(spec, env)
        label = f"{env.env_id} {label}"
        found["p_pareto"] += solver_mismatches(label, table, costs, solve_p_pareto, pareto_oracle)
        found["p_el"] += solver_mismatches(label, table, costs, solve_p_el, scan_p_el)
    for name, lines in found.items():
        for line in lines:
            print("MISMATCH " + line)
        print(f"{name}: {rows} rows compared, {len(lines)} mismatches")
    return 1 if any(found.values()) else 0


if __name__ == "__main__":
    layer_timings()
    sys.exit(full_gate())
