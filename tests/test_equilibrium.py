"""Deviation gains, equilibrium enumeration, and the four threshold solvers.

``solve_p_pareto`` is compared here with the dense grid solver in
``grid_solvers``, and ``solve_p_el`` with the former solver's scan there, on
e1 and the 20 acceptance environments; ``solve_p_pareto`` also on synthetic
tables.  The oracles read the dense (deviant, base) matrix gathered from the
table's per-observation terms.  ``python tests/test_equilibrium.py`` runs the
full comparison: the 32 sweep-k3 families, the bundled config, the acceptance
environments, and four k=4 environments (``p_pareto`` against the
point-by-point scan), and on every such table one ``compute_threshold_sweep``
against each cost solved alone, field by field.  It prints the number of rows
compared and of mismatches for each threshold and for the sweep, after the
measured layers at each k from 2 to 5: each kind's payoff-table build in ms
with its tracemalloc peak, the ms per row of ``solve_p_el``, ``solve_p_pareto``
and ``solve_p_pareto_sweep``, the dense ``gain_lines`` rows a sweep's
thresholds build outside ``solve_p_el``, the ``_report_kinks`` calls per table,
and the ``_certified_intervals`` calls and its full-grid interval reads per row.
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
from unittest import mock

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
    Environment,
    InvalidDistribution,
    LabelSpace,
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
    check_worthwhile_effort,
    compute_payoff_table,
    compute_threshold_sweep,
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
    solve_p_pareto_sweep,
    threshold_float,
    truthful_strategy,
)
from peerspot import equilibrium, strategies
from peerspot.acceptance import _random_acceptance_environments
from peerspot.equilibrium import MIN_GRID, NOT_APPLICABLE, NOT_FOUND, _certified_intervals, _gain_at
from peerspot.harness import DEFAULT_EFFORT_COSTS, ExperimentConfig, generate_environments, parse_config, run_experiment
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
    and TOL = 0 exactly on p in [3/8, 5/7]: there its best no-effort deviant is itself, an
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
# both observations bend at the grid point 1/4, and at cost 0 the gain ties TOL = 0
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
        swapped = Channel.from_matrix(env.q_space, [[0.2, 0.8], [0.8, 0.2]])
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
    over p, and falls back to the dense row near TOL, so every decision is the dense row's."""

    @settings(max_examples=150)
    @given(
        table=eighths_tables(),
        cost=st.sampled_from([0.0, 0.125, 0.25]),
        tolerance=st.sampled_from([0.0, 1e-9]),
        grid=st.sampled_from([1e-3, 0.1, 0.125]),
    )
    @example(table=TIE_AT_THREE_TENTHS, cost=0.125, tolerance=0.0, grid=1e-3)
    @example(table=ZERO_PLATEAU, cost=0.0, tolerance=0.0, grid=1e-3)
    @example(table=COINCIDENT_KINKS, cost=0.0, tolerance=0.0, grid=1e-3)
    @example(table=COINCIDENT_KINKS, cost=0.0, tolerance=0.0, grid=0.125)
    @example(table=ENDPOINT_KINKS, cost=0.0, tolerance=0.0, grid=1e-3)
    @example(table=ENDPOINT_KINKS, cost=0.125, tolerance=1e-9, grid=0.1)
    def test_decisions_and_intervals_are_the_dense_rows(self, table, cost, tolerance, grid):
        points = np.linspace(0.0, 1.0, int(round(1.0 / grid)) + 1)
        bases = np.arange(len(table.strategies))
        dense = _gain_at(points[:, None, None], *table.gain_lines(cost, bases)).max(axis=2) <= tolerance
        with mock.patch.object(equilibrium, "TOL", tolerance):
            _, certified = table.certify(points[:, None], cost, bases)  # one probe axis before the bases'
            lo, hi = _certified_intervals(table, cost, points, bases)
        assert np.array_equal(certified, dense)
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
            gain, _ = table.certify(p, 0.05, bases)
            dense = _gain_at(p, *table.gain_lines(0.05, bases)).max(axis=1)
            np.testing.assert_allclose(gain, dense, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("p", [-0.1, 1.0 + 1e-9, math.inf, math.nan])
    def test_probability_outside_the_unit_interval_is_refused(self, env, p):
        # The kinked gain is recorded on [0, 1] only; past 1 it would miss kinks.
        table = compute_payoff_table(OA, env)
        with pytest.raises(PeerSpotError, match=r"p must lie in \[0, 1\]"):
            is_symmetric_equilibrium(table, truthful_strategy(2), p, 0.0)

    @pytest.mark.parametrize("p, cost", [(-0.1, 0.0), (0.5, -0.1), (math.nan, math.nan)])
    def test_certify_refuses_p_and_cost_before_reading_a_gain(self, env, monkeypatch, p, cost):
        table = compute_payoff_table(OA, env)
        monkeypatch.setattr(PayoffTable, "kinked_gains", lambda *args: pytest.fail("a gain was read"))
        with pytest.raises(PeerSpotError, match=r"p must lie in \[0, 1\]|effort_cost must be"):
            table.certify(p, cost, [strategies.TRUTHFUL])

    @pytest.mark.parametrize("p, cost", [(2.0, -1.0), (-0.1, 0.0), (math.nan, 0.0), (0.5, -1.0), (0.5, math.inf)])
    def test_utilities_refuse_what_certify_refuses(self, env, p, cost):
        table = compute_payoff_table(OA, env)
        with pytest.raises(PeerSpotError) as refused:
            table.certify(p, cost, [strategies.TRUTHFUL])
        with pytest.raises(type(refused.value), match=f"^{re.escape(str(refused.value))}$"):
            table.utilities(p, cost)

    @pytest.mark.parametrize("cost", [math.nan, -1.0, math.inf])
    def test_gain_lines_refuse_the_cost_certify_refuses(self, env, cost):
        table = compute_payoff_table(OA, env)
        with pytest.raises(PeerSpotError) as refused:
            table.certify(0.5, cost, [strategies.TRUTHFUL])
        with pytest.raises(type(refused.value), match=f"^{re.escape(str(refused.value))}$"):
            table.gain_lines(cost, [0])

    BASE_CALLS = {
        "utilities": lambda table, bases: table.utilities(0.2, 0.1, bases),
        "gain_lines": lambda table, bases: table.gain_lines(0.1, bases),
        "kinked_gains": lambda table, bases: table.kinked_gains(bases),
        "certify": lambda table, bases: table.certify(0.2, 0.1, bases),
        "certify at probes": lambda table, bases: table.certify(np.full((4, len(bases)), 0.2), 0.1, bases),
    }

    @pytest.mark.parametrize("call", BASE_CALLS)
    @pytest.mark.parametrize("bases", [[-1], [8], [0, 8], [1.0], [True], "0"], ids=repr)
    def test_bases_that_are_not_strategy_indices_are_refused(self, env, call, bases):
        # A negative index would answer for base S - 1, and the others ended in numpy's IndexError.
        table = compute_payoff_table(OA, env)
        with pytest.raises(ShapeMismatch, match=r"^bases must be strategy indices from 0 to 7, got "):
            self.BASE_CALLS[call](table, bases)

    EMPTY_CALLS = {
        **BASE_CALLS,
        "_certified_intervals": lambda table, bases: _certified_intervals(
            table, 0.1, np.linspace(0.0, 1.0, 1001), np.asarray(bases, dtype=int)
        ),
    }

    @pytest.mark.parametrize("call", EMPTY_CALLS)
    def test_no_bases_give_empty_results(self, env, call):
        result = self.EMPTY_CALLS[call](compute_payoff_table(OA, env), [])
        assert all(np.size(x) == 0 for x in (result if isinstance(result, tuple) else (result,)))

    @pytest.mark.parametrize("call", BASE_CALLS)
    def test_indices_of_any_integer_type_are_taken(self, env, call):
        table = compute_payoff_table(OA, env)
        expected = self.BASE_CALLS[call](table, [0, 7])
        for bases in (np.array([0, 7], dtype=np.uint8), (np.int32(0), 7)):
            result = self.BASE_CALLS[call](table, bases)
            assert all(np.array_equal(x, y) for x, y in zip(result, expected))


# Every unchecked term is zero but the full-effort deviant's against the coordination base on
# observation 0, so that base's largest deviation gain at p = 0 and cost 0 is 2**-32: certified
# at TOL = 1e-9 and not at TOL = 0.  Every other base gains 0 at p = 0, the two profiles earn 0,
# and the audit pays a truthful report 1/2 on each observation and any other report 0, so it
# favours truth by 1/2 over the next full-effort map, and the flag turns on the base alone.
SMALL_GAIN = _against_coordination([[2.0**-32, 0.0], [0.0, 0.0]], 0.5 * np.eye(2))


class TestOneTolerance:
    """Every certifying entry point reads ``equilibrium.TOL`` when called, so patching it
    moves each decision; one that froze the value would keep its decision."""

    DECISIONS = {
        "PayoffTable.certify": lambda table: bool(table.certify(0.0, 0.0, [4])[1][0]),
        "is_symmetric_equilibrium": lambda table: is_symmetric_equilibrium(table, table.strategies[4], 0.0, 0.0).certified,
        "enumerate_symmetric_pure_equilibria": lambda table: table.strategies[4]
        in [r.strategy for r in enumerate_symmetric_pure_equilibria(table, 0.0, 0.0)],
        "check_pareto_bound_condition": check_pareto_bound_condition,
        "solve_p_el": lambda table: solve_p_el(table, 0.0) is not NOT_APPLICABLE,
    }

    @pytest.mark.parametrize("decision", DECISIONS)
    def test_decision_flips_with_the_patched_constant(self, decision):
        assert SMALL_GAIN.best_no_effort == 4
        for tolerance, certified in ((0.0, False), (1e-9, True), (0.0, False)):
            with mock.patch.object(equilibrium, "TOL", tolerance):
                assert self.DECISIONS[decision](SMALL_GAIN) is certified


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

    def test_pieces_once_per_table_and_two_interval_passes_at_most_per_row(self, monkeypatch):
        # Every base's pieces come from one _report_kinks call, whichever base is read first,
        # and solve_p_pareto makes one _certified_intervals call for truthful and one for the
        # bases whose utility could beat it.
        table = compute_payoff_table(OA, generate_environments(3, 1, seed=3, prefix="bench")[0])
        calls = dict.fromkeys(("_report_kinks", "_certified_intervals"), 0)
        for name in calls:
            monkeypatch.setattr(equilibrium, name, counting(calls, name, getattr(equilibrium, name)))
        check_pareto_bound_condition(table)
        for cost in DEFAULT_EFFORT_COSTS:
            before = calls["_certified_intervals"]
            compute_thresholds(table, cost)
            assert calls["_report_kinks"] == 1 and 1 <= calls["_certified_intervals"] - before <= 2

    def test_no_base_gets_a_second_interval_search_on_the_peer_insensitive_sweep_table(self, monkeypatch):
        # Every base's lead over truthful misses by more than its slack at both ends of
        # truthful's span, so only truthful's interval is searched, and the answer is the scan's:
        # the span's first point.
        table = compute_payoff_table(PI, generate_environments(4, 1, seed=3, prefix="bench")[0])
        searched, intervals = [], equilibrium._certified_intervals
        monkeypatch.setattr(
            equilibrium, "_certified_intervals", lambda *args: searched.append(args[3].tolist()) or intervals(*args)
        )
        for cost in DEFAULT_EFFORT_COSTS:
            searched.clear()
            assert repr(solve_p_pareto(table, cost)) == repr(scan_p_pareto(table, cost))
            assert searched == [[table.truthful]]

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
        "table, cost, tolerance, interval",
        [
            (COINCIDENT_KINKS, 0.0, 0.0, (0, 500)),  # the end is an exact tie at a grid point
            (COINCIDENT_KINKS, 0.0, 1e-9, (0, 500)),
            (ENDPOINT_KINKS, 0.0, 0.0, (0, 0)),  # a tie at the kink at p = 0
            (ENDPOINT_KINKS, 0.125, 0.0, (0, 500)),
        ],
    )
    def test_interval_of_the_coordination_base(self, table, cost, tolerance, interval):
        points = np.linspace(0.0, 1.0, 1001)
        with mock.patch.object(equilibrium, "TOL", tolerance):
            (lo,), (hi,) = _certified_intervals(table, cost, points, np.array([4]))
        assert (lo, hi) == interval

    def test_probes_fall_back_to_the_dense_row_only_near_tol(self, monkeypatch):
        points = np.linspace(0.0, 1.0, 1001)
        env = generate_environments(4, 1, seed=3, prefix="bench")[0]
        for table, tolerance, near in ((compute_payoff_table(OA, env), 1e-9, False), (COINCIDENT_KINKS, 0.0, True)):
            calls = []
            gain_lines = table._gain_lines
            monkeypatch.setattr(table, "_gain_lines", lambda cost, bases: calls.append(bases) or gain_lines(cost, bases))
            with mock.patch.object(equilibrium, "TOL", tolerance):
                _certified_intervals(table, 0.1, points, np.arange(len(table.strategies)))
            assert (len(calls) > 0) is near

    def test_a_misplaced_end_is_read_from_every_grid_point_once(self, monkeypatch):
        # Robust BTS under the log rule carries the scoring rule's sentinel into V, so
        # truthful's magnitude (1.7e8) gives a rounding slack of about 2e-4, and its gain at
        # p = 1 (1.44e-4) lies inside it: the dense row leaves p = 1 uncertified, so the
        # guessed interval [0, 1000] is misplaced and is read at every grid point instead.
        spec = MechanismSpec(MechanismKind.ROBUST_BTS, rule=LOGARITHMIC)
        table = compute_payoff_table(spec, ORACLE_ENVS["acc-q2-s101-8"])
        t, points = table.truthful, np.linspace(0.0, 1.0, 1001)
        dense = np.flatnonzero(_gain_at(points[:, None], *table.gain_lines(0.2, [t])).max(axis=1) <= equilibrium.TOL)
        calls = {"full-grid reads": 0}
        monkeypatch.setattr(PayoffTable, "_certify", counting_full_grid_reads(calls, points.size))
        (lo,), (hi,) = _certified_intervals(table, 0.2, points, np.array([t]))
        assert (lo, hi) == (dense[0], dense[-1]) == (0, 999) and dense.size == 1000
        assert calls["full-grid reads"] == 1

    def test_five_label_intervals_are_the_dense_rows_at_every_grid_point(self):
        # The S x S oracle would take about 1 GB at k=5 and certify decides as the intervals
        # do, so each sampled base's dense row (1001 x 6,250 gains, 50 MB) is the reference.
        env = generate_environments(5, 1, seed=3, prefix="bench")[0]
        table = compute_payoff_table(OA, env)
        points = np.linspace(0.0, 1.0, 1001)
        lo, hi = _certified_intervals(table, 0.1, points, np.arange(len(table.strategies)))
        rng = np.random.default_rng(5)
        somewhere = np.flatnonzero(lo <= hi)
        assert somewhere.size
        bases = np.concatenate([rng.choice(somewhere, 16, replace=False), rng.choice(np.flatnonzero(lo > hi), 16)])
        index = np.arange(points.size)
        for b in bases:
            dense = _gain_at(points[:, None], *table.gain_lines(0.1, [b])).max(axis=1) <= equilibrium.TOL
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

    @pytest.mark.parametrize("labels", [2, 3, 4])
    def test_bisection_agrees_when_the_trusted_channel_is_not_aligned(self, labels):
        # Such a channel can pay a full-effort map more at audit than truthful, and then no p
        # makes truthful effort dominant; the closed form once answered from the no-effort gap.
        rng = np.random.default_rng(7)
        beaten = 0
        for _ in range(40):
            env = unaligned_environment(rng, labels)
            table = compute_payoff_table(PI, env)
            full = table.efforts == strategies.FULL_EFFORT
            beaten += table.spot[full].max() > table.spot[table.truthful] + equilibrium.TOL
            for cost in (0.0, 0.05, 0.1):
                closed, bisected = solve_p_ds(table, cost), solve_p_ds_bisection(env, cost)
                if isinstance(bisected, NotAttained):
                    assert closed is bisected
                else:
                    assert closed == pytest.approx(bisected, abs=1e-8)
        assert beaten or labels == 2  # the seeds reach the case at k = 3 and 4

    @pytest.mark.parametrize("labels", [2, 3, 4])
    def test_experiment_completes_when_the_trusted_channel_is_not_aligned(self, labels):
        # The bound p_pareto >= p_ds - grid assumes an audit that favours truth.  Where it does not,
        # p_ds is not_achievable while truthful can still be a Pareto-best equilibrium, so the flag
        # is off and run_experiment's bound check passes the row over instead of aborting the run.
        rng = np.random.default_rng(7)
        environments = [unaligned_environment(rng, labels) for _ in range(40)]
        rows = run_experiment(ExperimentConfig(environments=environments, mechanisms=[OA, PI]))
        assert not any(row.error for row in rows)
        below = [row for row in rows if threshold_float(row.p_pareto) < threshold_float(row.p_ds) - row.grid]
        assert below and not any(row.pareto_bound_condition for row in below)


def unaligned_environment(rng: np.random.Generator, labels: int) -> Environment:
    """A random environment whose channel rows are Dirichlet draws plus s times the identity,
    renormalised: s = 2 for the high channel, s from U(0.3, 2) for the trusted channel and
    s = 0 for the low one, so the trusted channel's likeliest label need not be the quality."""
    space = LabelSpace.of(tuple(range(labels)))

    def channel(s: float) -> Channel:
        rows = rng.dirichlet(np.ones(labels), size=labels) + s * np.eye(labels)
        return Channel.from_matrix(space, rows / rows.sum(axis=1, keepdims=True))

    return Environment(
        q_space=space,
        prior=Distribution.from_array(space, rng.dirichlet(np.ones(labels))),
        high_channel=channel(2.0),
        trusted_channel=channel(rng.uniform(0.3, 2.0)),
        low_channel=channel(0.0),
        n_agents=3,
        n_objects=2,
        env_id=f"unaligned-q{labels}",
    )


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
        tolerance=st.sampled_from([0.0, 1e-9]),
        grid=st.sampled_from([1e-3, 0.1, 0.125]),
    )
    # Truthful effort gains exactly 0 against coordination at p = 0.3.  At the grid
    # point 0.3 a difference of utilities rounded that gain to 0, its line to above 0.
    @example(table=TIE_AT_THREE_TENTHS, cost=0.125, tolerance=0.0, grid=1e-3)
    def test_bracket_is_the_certified_interval(self, table, cost, tolerance, grid):
        # The coordination base's certified interval, as p_pareto sees it, brackets p_el.
        points = np.linspace(0.0, 1.0, int(round(1.0 / grid)) + 1)
        n = len(points) - 1
        with mock.patch.object(equilibrium, "TOL", tolerance):
            (lo,), (hi,) = _certified_intervals(table, cost, points, np.array([table.best_no_effort]))
            p_el = solve_p_el(table, cost, grid)
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
        tolerance=st.sampled_from([0.0, 1e-9]),
        grid=st.sampled_from([1e-3, 0.125, 0.1]),
    )
    def test_synthetic_tables(self, table, cost, tolerance, grid):
        # Entries in eighths put gain crossings on grid points and make ties,
        # zero gains and flat deviants common.
        with mock.patch.object(equilibrium, "TOL", tolerance):
            p_pareto = solve_p_pareto(table, cost, grid)
        assert repr(p_pareto) == repr(grid_p_pareto(table, cost, grid, tolerance))

    def test_scan_oracle_matches_the_dense_one(self, ternary_env):
        table = compute_payoff_table(OA, ternary_env)
        for cost in DEFAULT_EFFORT_COSTS:
            assert repr(scan_p_pareto(table, cost)) == repr(grid_p_pareto(table, cost))


class TestEliminationAgainstScan:
    """``solve_p_el`` reads the gain lines, ``scan_p_el`` writes the utility difference:
    at ``TOL`` they give the same value on every acceptance row."""

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
    @given(table=eighths_tables(), tolerance=st.sampled_from([0.0, 1e-9]))
    @example(table=ZERO_PLATEAU, tolerance=0.0)
    @example(table=COINCIDENT_KINKS, tolerance=0.0)
    def test_flag_is_the_dense_rows(self, table, tolerance):
        # The coordination base's equilibrium is decided by ``certify``, as the dense row decides it,
        # and the flag also asks that truth beat the no-effort audit value and no full-effort map beat truth's.
        t, g = table.truthful, table.best_no_effort
        dense = dense_gains(table, g, 0.0, 0.0).max() <= tolerance and table.own[g] + tolerance >= table.own[t]
        full = table.spot[table.efforts == strategies.FULL_EFFORT]
        dense = dense and table.spot[t] - table.spot[g] > tolerance and bool((full <= table.spot[t] + tolerance).all())
        with mock.patch.object(equilibrium, "TOL", tolerance):
            assert check_pareto_bound_condition(table) == dense

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
        assert record.utility > table.utilities(0.0, 0.0)[strategies.TRUTHFUL] + equilibrium.TOL


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
        "enumerate_symmetric_pure_equilibria": lambda env, cost: enumerate_symmetric_pure_equilibria(
            compute_payoff_table(OA, env), 0.0, cost
        ),
        "is_symmetric_equilibrium": lambda env, cost: is_symmetric_equilibrium(
            compute_payoff_table(OA, env), truthful_strategy(2), 0.0, cost
        ),
        "PayoffTable.certify": lambda env, cost: compute_payoff_table(OA, env).certify(0.0, cost, [strategies.TRUTHFUL]),
        "solve_p_ds": lambda env, cost: solve_p_ds(compute_payoff_table(OA, env), cost),
        "solve_p_el": lambda env, cost: solve_p_el(compute_payoff_table(OA, env), cost),
        "solve_p_ex": lambda env, cost: solve_p_ex(compute_payoff_table(OA, env), cost),
        "solve_p_pareto": lambda env, cost: solve_p_pareto(compute_payoff_table(OA, env), cost),
        "check_worthwhile_effort": lambda env, cost: check_worthwhile_effort(compute_payoff_table(OA, env), cost),
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


class TestGridBoundary:
    """Each threshold computation that takes a grid refuses one that is not 1/n for an
    integer n from 1 to 1 / MIN_GRID before it builds a single grid point; a grid that
    rounding keeps from being exactly 1/n (1 / 1e-5 is 99999.99999999999) is taken."""

    CALLS = {
        "compute_thresholds": lambda table, grid: compute_thresholds(table, E1_COST, grid),
        "solve_p_el": lambda table, grid: solve_p_el(table, E1_COST, grid),
        "solve_p_pareto": lambda table, grid: solve_p_pareto(table, E1_COST, grid),
    }

    @pytest.mark.parametrize("call", CALLS)
    @pytest.mark.parametrize("grid", [0.0, -0.1, float("nan"), float("inf"), 2.0, 0.4, 0.3, MIN_GRID / 10])
    def test_grids_outside_the_rule_are_refused(self, env, monkeypatch, call, grid):
        table = compute_payoff_table(OA, env)
        built = []
        monkeypatch.setattr(np, "linspace", lambda *args, **kwargs: built.append(args))
        message = f"^grid must be 1/n for an integer n from 1 to 100000, got {re.escape(str(grid))}$"
        with pytest.raises(InvalidDistribution, match=message):
            self.CALLS[call](table, grid)
        assert built == []

    @pytest.mark.parametrize("call", CALLS)
    @pytest.mark.parametrize("grid", [1.0, 0.5, 0.125, 0.1, 1e-3, MIN_GRID])
    def test_grids_of_the_rule_are_taken(self, env, call, grid):
        result = self.CALLS[call](compute_payoff_table(OA, env), grid)
        if call == "solve_p_el":  # bisected past the grid's bracket
            assert result == pytest.approx(0.7317076, abs=1e-6)
        else:  # the first grid point at or past the 0.56 found on the default grid
            p_pareto = result.p_pareto if call == "compute_thresholds" else result
            n = round(1 / grid)
            assert p_pareto == pytest.approx(math.ceil(0.56 * n - 1e-9) / n, abs=1e-12)


def report_fields(report) -> tuple:
    """Every field of a ``ThresholdReport`` by ``repr``, so a status, a float's bits and a flag all count."""
    return tuple(repr(getattr(report, f.name)) for f in dataclasses.fields(report))


def sweep_mismatches(label: str, table, costs) -> list:
    """Costs at which one ``compute_threshold_sweep`` over ``costs`` and ``compute_thresholds``
    at that cost alone give reports that differ in any field."""
    swept = compute_threshold_sweep(table, costs)
    return [
        f"{label} cost={cost!r}: sweep {report!r}, alone {alone!r}"
        for cost, report in zip(costs, swept)
        if report_fields(report) != report_fields(alone := compute_thresholds(table, cost))
    ]


class TestCostSweep:
    """``compute_threshold_sweep`` solves a table's whole cost sweep in one pass, and each of its
    reports is, field by field, the one ``compute_thresholds`` gives at that cost alone."""

    @settings(max_examples=100)
    @given(
        table=eighths_tables(),
        costs=st.lists(st.sampled_from([0.0, 0.1, 0.125, 0.25, 0.5]), min_size=1, max_size=6),
        tolerance=st.sampled_from([0.0, 1e-9]),
        grid=st.sampled_from([1e-3, 0.1, 0.125]),
    )
    @example(table=TIE_AT_THREE_TENTHS, costs=[0.25, 0.125, 0.0, 0.125], tolerance=0.0, grid=1e-3)
    @example(table=ZERO_PLATEAU, costs=[0.0], tolerance=0.0, grid=1e-3)
    @example(table=COINCIDENT_KINKS, costs=[0.125, 0.0, 0.0], tolerance=0.0, grid=0.125)
    def test_sweep_is_each_cost_alone(self, table, costs, tolerance, grid):
        with mock.patch.object(equilibrium, "TOL", tolerance):
            swept = compute_threshold_sweep(table, costs, grid)
            alone = [compute_thresholds(table, cost, grid) for cost in costs]
        assert [report_fields(r) for r in swept] == [report_fields(r) for r in alone]

    @pytest.mark.parametrize("labels", [3, 4])
    def test_blocks_of_any_size_give_the_same_answers(self, monkeypatch, labels):
        # One cost per block, as on some k=5 tables, and every cost in one block, as at k <= 4.
        table = compute_payoff_table(OA, generate_environments(labels, 1, seed=3, prefix="bench")[0])
        costs = [0.2, 0.0, 0.05, 0.1, 0.05]
        answers = {}
        for block in (1, 2**30):
            monkeypatch.setattr(equilibrium, "SWEEP_BLOCK", block)
            answers[block] = [repr(p) for p in solve_p_pareto_sweep(table, costs)]
        assert answers[1] == answers[2**30]
        if labels == 3:  # the scan takes seconds at k=4
            assert answers[1] == [repr(scan_p_pareto(table, cost)) for cost in costs]

    @pytest.mark.parametrize("labels", [2, 3, 4])
    def test_one_flag_and_two_interval_searches_per_sweep(self, monkeypatch, labels):
        # The flag reads no cost, and each interval search takes every cost at once.
        env = generate_environments(labels, 1, seed=3, prefix="bench")[0]
        for spec in (OA, MechanismSpec(MechanismKind.CORRELATED_AGREEMENT), PI):
            table = compute_payoff_table(spec, env)
            calls = dict.fromkeys(("check_pareto_bound_condition", "certify", "_certified_intervals", "_grid_points"), 0)
            for name in ("check_pareto_bound_condition", "_certified_intervals", "_grid_points"):
                monkeypatch.setattr(equilibrium, name, counting(calls, name, getattr(equilibrium, name)))
            monkeypatch.setattr(PayoffTable, "certify", counting(calls, "certify", PayoffTable.certify))
            compute_threshold_sweep(table, DEFAULT_EFFORT_COSTS)
            monkeypatch.undo()
            assert calls["check_pareto_bound_condition"] == calls["certify"] == 1  # the flag's one read
            assert 1 <= calls["_certified_intervals"] <= 2
            assert calls["_grid_points"] == 1 + len(DEFAULT_EFFORT_COSTS)  # the sweep's, and each p_el walk's

    def test_costs_are_checked_before_the_grid(self, env, monkeypatch):
        built = []
        monkeypatch.setattr(np, "linspace", lambda *args, **kwargs: built.append(args))
        with pytest.raises(InvalidDistribution, match="^effort_cost must be finite and nonnegative, got -0.1$"):
            compute_threshold_sweep(compute_payoff_table(OA, env), [0.1, -0.1], grid=0.3)
        assert built == []

    def test_no_costs_give_no_reports_and_build_no_pieces(self, env):
        table = compute_payoff_table(OA, env)
        assert compute_threshold_sweep(table, []) == [] and solve_p_pareto_sweep(table, ()) == []
        assert "_pieces" not in vars(table)


class TestReportAssembly:
    def test_compute_thresholds_bundle(self, env):
        report = compute_thresholds(compute_payoff_table(PI, env), E1_COST)
        assert report.p_ds == pytest.approx(0.3125, abs=1e-9)
        assert report.pareto_bound_condition
        doc = report.to_json_dict()
        assert doc["p_pareto"] == pytest.approx(0.313)


def counting(calls: dict, name: str, function):
    """``function``, adding one to ``calls[name]`` at each call."""

    def counted(*args, **kwargs):
        calls[name] += 1
        return function(*args, **kwargs)

    return counted


def counting_full_grid_reads(calls: dict, size: int):
    """``PayoffTable._certify``, the unchecked ``certify`` that the solvers call, adding one to
    ``calls["full-grid reads"]`` at each call that reads one base at every one of ``size`` grid
    points, as ``_certified_intervals`` does for a base whose probes disagree with its guessed
    interval."""
    certify = PayoffTable._certify

    def counted(self, p, cost, bases):
        calls["full-grid reads"] += np.shape(p) == (size, 1)
        return certify(self, p, cost, bases)

    return counted


def calls_outside_p_el(tables: list, costs) -> dict:
    """Calls made by every threshold of each table's cost sweep but ``p_el``, whose scan reads
    one dense row by design: ``gain_lines`` (the others read the kinked gain), ``_report_kinks``,
    ``_certified_intervals`` and its full-grid ``certify`` reads on the default grid.  Fresh
    tables count each table's one kink build."""
    calls = dict.fromkeys(("gain_lines", "_report_kinks", "_certified_intervals", "full-grid reads"), 0)
    grid_size = equilibrium._grid_points(equilibrium.DEFAULT_GRID).size
    with (
        mock.patch.object(PayoffTable, "_certify", counting_full_grid_reads(calls, grid_size)),
        mock.patch.object(PayoffTable, "_gain_lines", counting(calls, "gain_lines", PayoffTable._gain_lines)),
        mock.patch.object(equilibrium, "_report_kinks", counting(calls, "_report_kinks", equilibrium._report_kinks)),
        mock.patch.object(
            equilibrium, "_certified_intervals", counting(calls, "_certified_intervals", equilibrium._certified_intervals)
        ),
    ):
        for table in tables:
            for cost in costs:
                solve_p_ds(table, cost), solve_p_ex(table, cost)
            solve_p_pareto_sweep(table, costs)
            check_pareto_bound_condition(table)
    return calls


def layer_timings(labels=(2, 3, 4, 5), repeats: int = 3) -> None:
    """Print, per k, each kind's payoff-table build in ms (best of ``repeats``) with the
    tracemalloc peak of one build, then ms per row of ``solve_p_el``, ``solve_p_pareto`` one
    cost at a time and ``solve_p_pareto_sweep`` over each table's costs (best of ``repeats``),
    over every kind but the logarithmic rules at the default costs, on the seed-3
    environment the benchmark's sweeps generate, then, on fresh tables, the dense rows per
    row outside ``p_el``, the ``_report_kinks`` calls per table, and the
    ``_certified_intervals`` calls and its full-grid interval reads per row.  Each solver
    solves fresh tables in each repeat, so both ``p_pareto`` routes pay for each table's
    kink pieces once, as a sweep does."""
    for k in labels:
        env = generate_environments(k, 1, seed=3, prefix="bench")[0]
        specs = [spec for spec in specs_for(env) if spec.rule is not LOGARITHMIC]
        rows = len(specs) * len(DEFAULT_EFFORT_COSTS)
        builds = [math.inf] * len(specs)
        best = {solve_p_el: math.inf, solve_p_pareto: math.inf, solve_p_pareto_sweep: math.inf}
        for _ in range(repeats):
            for i, spec in enumerate(specs):
                start = time.perf_counter()
                compute_payoff_table(spec, env)
                builds[i] = min(builds[i], time.perf_counter() - start)
            for solver in best:
                tables = [compute_payoff_table(spec, env) for spec in specs]
                start = time.perf_counter()
                for table in tables:
                    if solver is solve_p_pareto_sweep:
                        solver(table, DEFAULT_EFFORT_COSTS)
                    else:
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
        calls = calls_outside_p_el([compute_payoff_table(spec, env) for spec in specs], DEFAULT_EFFORT_COSTS)
        print(
            f"gain_lines k={k}: {calls['gain_lines'] / rows:.2f} calls per row outside solve_p_el; "
            f"_report_kinks {calls['_report_kinks'] / len(specs):.2f} calls per table; "
            f"_certified_intervals {calls['_certified_intervals'] / rows:.2f} calls per row, "
            f"{calls['full-grid reads'] / rows:.2f} full-grid interval reads per row"
        )


def full_gate() -> int:
    """The solvers against their grid oracles on every gate row, and each table's one cost sweep
    against its costs solved alone; prints the counts per threshold and for the sweep."""
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
    rows, found = 0, {"p_pareto": [], "p_el": [], "sweep": []}
    for label, spec, env, costs, pareto_oracle in cases:
        rows += len(costs)
        table = compute_payoff_table(spec, env)
        label = f"{env.env_id} {label}"
        found["p_pareto"] += solver_mismatches(label, table, costs, solve_p_pareto, pareto_oracle)
        found["p_el"] += solver_mismatches(label, table, costs, solve_p_el, scan_p_el)
        found["sweep"] += sweep_mismatches(label, table, list(costs))
    for name, lines in found.items():
        for line in lines:
            print("MISMATCH " + line)
        print(f"{name}: {rows} rows compared, {len(lines)} mismatches")
    return 1 if any(found.values()) else 0


if __name__ == "__main__":
    layer_timings()
    sys.exit(full_gate())
