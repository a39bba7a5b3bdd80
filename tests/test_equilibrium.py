"""Deviation gains, equilibrium enumeration, and the four threshold solvers."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from peerspot import (
    Channel,
    Effort,
    EnumerationBudgetExceeded,
    MechanismKind,
    MechanismSpec,
    NOT_ACHIEVABLE,
    NotAttained,
    PayoffTable,
    Strategy,
    check_pareto_bound_condition,
    compute_payoff_table,
    compute_thresholds,
    construct_dominated_environment,
    enumerate_symmetric_pure_equilibria,
    expected_spot_reward,
    is_symmetric_equilibrium,
    low_identity_strategy,
    solve_p_ds,
    solve_p_ds_bisection,
    solve_p_el,
    solve_p_ex,
    solve_p_pareto,
    threshold_float,
    truthful_strategy,
)
from peerspot.harness import generate_environments

from conftest import random_environment

OA = MechanismSpec(MechanismKind.OUTPUT_AGREEMENT)
PI = MechanismSpec(MechanismKind.PEER_INSENSITIVE, constant_reward=1.0)


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
        gains = table.gains(lazy, 1.0, env.effort_cost)
        best = int(np.argmax(gains))
        assert table.strategies[best] == truthful_strategy(2)
        utility = table.utilities(1.0, env.effort_cost)[lazy] + gains[best]
        assert utility == pytest.approx(0.32 - 0.1, abs=1e-12)


class TestEquilibriumCertification:
    def test_coordination_equilibrium(self, env):
        table = compute_payoff_table(OA, env)
        record = is_symmetric_equilibrium(table, low_identity_strategy(2), 0.0, 0.0)
        assert record.certified and record.utility == pytest.approx(1.0)

    def test_wasted_effort_breaks_truthful_profile(self, env):
        table = compute_payoff_table(PI, env)
        record = is_symmetric_equilibrium(table, truthful_strategy(2), 0.0, env.effort_cost)
        assert not record.certified
        assert record.max_deviation_gain == pytest.approx(0.1, abs=1e-12)

    def test_fixed_point_has_zero_gain(self, env):
        table = compute_payoff_table(OA, env)
        for strategy in table.strategies:
            rec = is_symmetric_equilibrium(table, strategy, 0.3, env.effort_cost)
            if rec.certified:
                assert rec.max_deviation_gain <= 1e-9


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
        records = enumerate_symmetric_pure_equilibria(compute_payoff_table(PI, env), 0.0, env.effort_cost)
        assert all(not r.strategy.is_full_effort for r in records)
        assert all(r.utility == pytest.approx(1.0) for r in records)

    def test_records_agree_with_single_checks(self, env):
        table = compute_payoff_table(OA, env)
        records = enumerate_symmetric_pure_equilibria(table, 0.2, env.effort_cost)
        for rec in records:
            single = is_symmetric_equilibrium(table, rec.strategy, 0.2, env.effort_cost)
            assert single.certified
            assert single.utility == pytest.approx(rec.utility, abs=1e-12)

    def test_label_budget(self):
        # A two-strategy stand-in table over five labels: the budget reads the labels, not S.
        strategies = [truthful_strategy(5), low_identity_strategy(5)]
        table = PayoffTable(strategies, np.zeros(2), np.zeros((2, 2)), np.array([1.0, 0.0]))
        with pytest.raises(EnumerationBudgetExceeded):
            enumerate_symmetric_pure_equilibria(table, 0.0, 0.0)
        with pytest.raises(EnumerationBudgetExceeded):
            solve_p_pareto(table, 0.0)


class TestDominantStrategyThreshold:
    def test_reference_value(self, env):
        got = solve_p_ds(compute_payoff_table(PI, env), env.effort_cost)
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
                e = random_environment(rng, labels)
                closed = solve_p_ds(compute_payoff_table(PI, e), e.effort_cost)
                bisected = solve_p_ds_bisection(e)
                if isinstance(closed, NotAttained):
                    assert isinstance(bisected, NotAttained)
                else:
                    assert bisected == pytest.approx(closed, abs=1e-8)


class TestEliminationThreshold:
    def test_constant_reward_matches_dominant_threshold(self, env):
        got = solve_p_el(compute_payoff_table(PI, env), env.effort_cost)
        assert got == pytest.approx(0.3125, abs=1e-5)

    def test_output_agreement_indifference(self, env):
        # Against the coordination profile, the best full-effort reply earns
        # audit value 0.32 and unchecked agreement 0.5 while conformity earns
        # audit value 0 and unchecked 1:  p*0.32 + (1-p)*0.5 - 0.1 = (1-p)*1.
        expected = 0.6 / 0.82
        got = solve_p_el(compute_payoff_table(OA, env), env.effort_cost)
        assert got == pytest.approx(expected, abs=2e-6)

    def test_zero_cost_constant_reward(self, env):
        got = solve_p_el(compute_payoff_table(PI, env), 0.0)
        assert got == pytest.approx(0.0, abs=2e-6)

    def test_not_found_when_coordination_survives_full_auditing(self, env):
        # Audit gap 0.32 < cost: no probability persuades full effort.
        got = solve_p_el(compute_payoff_table(OA, env), 0.45)
        assert isinstance(got, NotAttained)


class TestOvertakeThreshold:
    def test_output_agreement_reference(self, env):
        got = solve_p_ex(compute_payoff_table(OA, env), env.effort_cost)
        assert got == pytest.approx(0.56, abs=1e-9)

    def test_constant_reward_collapses_to_dominant_threshold(self, env):
        got = solve_p_ex(compute_payoff_table(PI, env), env.effort_cost)
        assert got == pytest.approx(0.3125, abs=1e-9)

    def test_equal_profiles_at_zero_cost(self, env):
        assert solve_p_ex(compute_payoff_table(PI, env), 0.0) == 0.0


class TestParetoThreshold:
    def test_constant_reward_reference(self, env):
        table = compute_payoff_table(PI, env)
        p = solve_p_pareto(table, env.effort_cost, grid=1e-3)
        assert p == pytest.approx(0.313, abs=1e-12)
        assert is_symmetric_equilibrium(table, truthful_strategy(2), p, env.effort_cost).certified

    def test_output_agreement_meets_lower_bound(self, env):
        p = solve_p_pareto(compute_payoff_table(OA, env), env.effort_cost, grid=1e-3)
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
            effort_cost=0.0,
            n_agents=3,
            n_objects=2,
        )
        assert solve_p_pareto(compute_payoff_table(OA, e), 0.0, grid=1e-3) == 0.0


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
                p_ds = threshold_float(solve_p_ds(table, e.effort_cost))
                p_par = threshold_float(solve_p_pareto(table, e.effort_cost))
                assert p_par >= p_ds - grid


class TestParetoBoundCondition:
    def test_reference_examples(self, env):
        for kind in (MechanismKind.OUTPUT_AGREEMENT, MechanismKind.CORRELATED_AGREEMENT, MechanismKind.PEER_TRUTH_SERUM):
            assert check_pareto_bound_condition(compute_payoff_table(MechanismSpec(kind), env))

    def test_equality_case_for_frequency_scaled_agreement(self, env):
        # Both profiles earn alpha + beta, so dominance holds with equality.
        mech = MechanismSpec(MechanismKind.PEER_TRUTH_SERUM, alpha=0.3, beta=0.7)
        table = compute_payoff_table(mech, env)
        t = table.index_of(truthful_strategy(2))
        g = table.index_of(low_identity_strategy(2))
        assert table.unchecked[t, t] == pytest.approx(table.unchecked[g, g], abs=1e-12)
        assert check_pareto_bound_condition(table)


class TestDominatedEnvironment:
    def test_self_pair_composition(self, env):
        composed = construct_dominated_environment(OA, [env])
        assert not isinstance(composed, NotAttained)
        table = compute_payoff_table(OA, composed)
        t = table.index_of(truthful_strategy(2))
        records = enumerate_symmetric_pure_equilibria(table, 0.0, composed.effort_cost)
        best = records[0]
        assert not best.strategy.is_full_effort
        assert best.utility > table.unchecked[t, t] - composed.effort_cost + 1e-9

    def test_zero_cost_composition_still_strict_for_agreement(self, env):
        # With free effort the shared-draw coordination still strictly beats
        # truth under plain agreement because the noisy channel disagrees with
        # itself while the shared draw never does.
        composed = construct_dominated_environment(OA, [env.with_effort_cost(0.0)])
        assert not isinstance(composed, NotAttained)
        table = compute_payoff_table(OA, composed)
        t = table.index_of(truthful_strategy(2))
        records = enumerate_symmetric_pure_equilibria(table, 0.0, composed.effort_cost)
        assert records[0].utility > table.unchecked[t, t] + 1e-9

    def test_equality_only_mechanism_has_no_strict_witness_at_zero_cost(self, env):
        # Frequency-scaled agreement pays alpha + beta at both profiles, so no
        # composition strictly demotes truth when effort is free.
        pts = MechanismSpec(MechanismKind.PEER_TRUTH_SERUM, alpha=0.5, beta=0.5)
        got = construct_dominated_environment(pts, [env.with_effort_cost(0.0)])
        assert isinstance(got, NotAttained)

    def test_positive_cost_restores_the_witness(self, env):
        pts = MechanismSpec(MechanismKind.PEER_TRUTH_SERUM, alpha=0.5, beta=0.5)
        composed = construct_dominated_environment(pts, [env])
        assert not isinstance(composed, NotAttained)

    def test_empty_candidates(self):
        assert construct_dominated_environment(OA, []) is not None
        assert isinstance(construct_dominated_environment(OA, []), NotAttained)


class TestMonotonicity:
    def test_constant_reward_gap_slope(self, env):
        # Truthful-versus-coordination utility gap grows linearly at the audit
        # value difference 0.32.
        table = compute_payoff_table(PI, env)
        t = table.index_of(truthful_strategy(2))
        g = table.index_of(low_identity_strategy(2))
        gaps = []
        for p in (0.2, 0.5, 0.9):
            u = table.utilities(p, env.effort_cost)
            gaps.append(u[t] - u[g])
        slope = (gaps[2] - gaps[0]) / 0.7
        assert slope == pytest.approx(0.32, abs=1e-12)
        assert gaps == sorted(gaps)


class TestReportAssembly:
    def test_compute_thresholds_bundle(self, env):
        report = compute_thresholds(compute_payoff_table(PI, env), env.effort_cost)
        assert report.p_ds == pytest.approx(0.3125, abs=1e-9)
        assert report.pareto_bound_condition
        doc = report.to_json_dict()
        assert doc["p_pareto"] == pytest.approx(0.313)
