"""Strategy enumeration, report realization, and induced belief reports."""

import itertools
import re
from dataclasses import dataclass

import numpy as np
import pytest

from peerspot import (
    Distribution,
    Effort,
    EnumerationBudgetExceeded,
    MechanismKind,
    MechanismSpec,
    ShapeMismatch,
    Strategy,
    StrategyProfile,
    analytic_unchecked_value,
    enumerate_pure_strategies,
    expected_spot_reward,
    low_identity_strategy,
    simulate_utilities,
    truthful_strategy,
)
from peerspot.strategies import peer_report_posteriors, pure_strategy_arrays, strategy_arrays

from conftest import random_environment
from per_cell_oracle import peer_report_posterior


@dataclass(frozen=True)
class Report:
    """A realized signal report plus the accompanying belief report."""

    signal_report: object
    belief_report: Distribution


def realize_report(strategy: Strategy, env, realized_signals: tuple, profile: StrategyProfile) -> Report:
    """Deterministic report for realized (high, low) signals under the given profile."""
    s_high, s_low = realized_signals
    labels = env.q_space
    observed = labels.index(s_high if strategy.is_full_effort else s_low)
    bases = strategy_arrays([profile.base], len(labels))
    beliefs = peer_report_posteriors(env, bases)[0 if strategy.is_full_effort else 1, 0]
    belief = Distribution.from_array(labels, beliefs[observed])
    return Report(labels.labels[strategy.report_map[observed]], belief)


def brute_belief(env, observer: Strategy, base: Strategy):
    """Oracle: peer-report law per own observation, by enumerating (q, s_low, s_high pair)."""
    k = len(env.q_space)
    prior = env.prior.as_array()
    high = env.high_channel.matrix()
    low = env.low_channel.matrix()
    table = np.zeros((k, k))
    weight = np.zeros(k)
    for q in range(k):
        for sl in range(k):
            for sh_own in range(k):
                for sh_peer in range(k):
                    p = prior[q] * low[q, sl] * high[q, sh_own] * high[q, sh_peer]
                    own_obs = sh_own if observer.is_full_effort else sl
                    peer_obs = sh_peer if base.is_full_effort else sl
                    table[own_obs, base.report_map[peer_obs]] += p
                    weight[own_obs] += p
    return table / weight[:, None]


class TestEnumeration:
    def test_counts(self):
        assert len(enumerate_pure_strategies(2)) == 8
        assert len(enumerate_pure_strategies(3)) == 54

    def test_contains_reference_strategies(self):
        strategies = enumerate_pure_strategies(3)
        assert truthful_strategy(3) in strategies
        assert low_identity_strategy(3) in strategies

    def test_canonical_order_starts_with_truthful(self):
        strategies = enumerate_pure_strategies(2)
        assert strategies[0] == truthful_strategy(2)
        # Full-effort block first, then the no-effort block headed by identity.
        assert strategies[4] == low_identity_strategy(2)

    def test_deterministic_and_distinct(self):
        a = enumerate_pure_strategies(3)
        b = enumerate_pure_strategies(3)
        assert a == b
        assert len(set(a)) == len(a)

    def test_budget(self):
        with pytest.raises(EnumerationBudgetExceeded):
            enumerate_pure_strategies(7)


class TestReportMapsMatchTheLabels:
    """A report map takes one label index per label, each below the label count; every
    entry point that reads a ``Strategy`` refuses any other map with ``ShapeMismatch``."""

    OA = MechanismSpec(MechanismKind.OUTPUT_AGREEMENT)
    # On a binary environment: a map over three labels, and one that reports a third label.
    BAD_MAPS = [(0, 1, 0), (0, 2)]

    def test_negative_indices_are_rejected(self):
        with pytest.raises(ShapeMismatch):
            Strategy(Effort.FULL, (-1, 0))

    @pytest.mark.parametrize("report_map", [(True, False), (0.0, 1), ("0", 1)], ids=["bool", "float", "string"])
    def test_entries_follow_the_integer_rule(self, report_map):
        with pytest.raises(ShapeMismatch, match="^report_map entry must be an integer of at least 0, got "):
            Strategy(Effort.FULL, report_map)

    def test_numpy_integer_entries_are_label_indices(self, env):
        strategy = Strategy(Effort.FULL, tuple(np.arange(2)))
        assert strategy == truthful_strategy(2) and strategy.describe() == "full:[0,1]"
        assert expected_spot_reward(env, strategy) == pytest.approx(0.32, abs=1e-12)

    @pytest.mark.parametrize(
        "report_map", [tuple(np.arange(2)), [0, 1], np.arange(2)], ids=["numpy-ints", "list", "array"]
    )
    def test_maps_are_kept_as_tuples_of_ints(self, report_map):
        # Equal maps give equal, hashable strategies, whatever sequence they came as.
        strategy = Strategy(Effort.FULL, report_map)
        assert strategy == truthful_strategy(2) and hash(strategy) == hash(truthful_strategy(2))
        assert type(strategy.report_map) is tuple and all(type(i) is int for i in strategy.report_map)

    @pytest.mark.parametrize("effort", ["full", "none", 0, None])
    def test_effort_must_be_an_effort(self, effort):
        with pytest.raises(ShapeMismatch, match=f"^effort must be an Effort, got {re.escape(repr(effort))}$"):
            Strategy(effort, (0, 1))

    @pytest.mark.parametrize("report_map", BAD_MAPS)
    def test_analytic_unchecked_value(self, env, report_map):
        bad = Strategy(Effort.FULL, report_map)
        with pytest.raises(ShapeMismatch):
            analytic_unchecked_value(self.OA, env, truthful_strategy(2), bad)
        with pytest.raises(ShapeMismatch):
            analytic_unchecked_value(self.OA, env, bad, truthful_strategy(2))

    @pytest.mark.parametrize("report_map", BAD_MAPS)
    def test_expected_spot_reward(self, env, report_map):
        with pytest.raises(ShapeMismatch):
            expected_spot_reward(env, Strategy(Effort.NONE, report_map))

    @pytest.mark.parametrize("report_map", BAD_MAPS)
    def test_simulate_utilities(self, env, report_map):
        bad = Strategy(Effort.FULL, report_map)
        for profile in (StrategyProfile.with_deviant(truthful_strategy(2), bad), StrategyProfile.symmetric(bad)):
            with pytest.raises(ShapeMismatch):
                simulate_utilities(self.OA, env, profile, trials=100, seed=1)


class TestRealizeReport:
    def test_truthful_reference_report(self, env):
        profile = StrategyProfile.symmetric(truthful_strategy(env.q_space))
        report = realize_report(truthful_strategy(env.q_space), env, (1, 0), profile)
        assert report.signal_report == 1
        assert report.belief_report.probs == pytest.approx((0.18, 0.82), abs=1e-12)

    def test_shared_draw_gives_point_mass_belief(self, env):
        lazy = low_identity_strategy(env.q_space)
        profile = StrategyProfile.symmetric(lazy)
        report = realize_report(lazy, env, (1, 0), profile)
        assert report.signal_report == 0
        assert report.belief_report.probs == pytest.approx((1.0, 0.0), abs=1e-12)

    def test_constant_map_ignores_signal(self, env):
        const = Strategy(Effort.FULL, (1, 1))
        profile = StrategyProfile.symmetric(truthful_strategy(env.q_space))
        for sh in (0, 1):
            assert realize_report(const, env, (sh, 0), profile).signal_report == 1

    def test_swap_reports_posterior_of_its_observation(self, env):
        # Relabelling the signal report leaves the belief report alone: it is
        # still the posterior of the peer's report given what was observed.
        swap = Strategy(Effort.FULL, (1, 0))
        truthful = truthful_strategy(env.q_space)
        profile = StrategyProfile.symmetric(truthful)
        report = realize_report(swap, env, (0, 1), profile)
        assert report.signal_report == 1
        assert report.belief_report.probs == pytest.approx(tuple(brute_belief(env, swap, truthful)[0]), abs=1e-12)
        assert report.belief_report.probs == realize_report(truthful, env, (0, 1), profile).belief_report.probs

    def test_extensional_equality(self, env):
        a = Strategy(Effort.FULL, (1, 0))
        b = Strategy(Effort.FULL, (1, 0))
        profile = StrategyProfile.symmetric(truthful_strategy(env.q_space))
        for signals in itertools.product((0, 1), repeat=2):
            ra = realize_report(a, env, signals, profile)
            rb = realize_report(b, env, signals, profile)
            assert ra.signal_report == rb.signal_report
            assert ra.belief_report.probs == rb.belief_report.probs


class TestInducedBeliefs:
    @pytest.mark.parametrize("labels", [2, 3])
    def test_matches_brute_force(self, labels):
        rng = np.random.default_rng(71)
        env = random_environment(rng, labels, correlated_low=True)
        strategies = enumerate_pure_strategies(labels)
        tables = peer_report_posteriors(env, pure_strategy_arrays(labels))
        assert tables.shape == (2, len(strategies), labels, labels)
        for e, effort in enumerate(Effort):
            observer = Strategy(effort, tuple(range(labels)))
            for g, base in enumerate(strategies):
                assert np.allclose(tables[e, g], brute_belief(env, observer, base), atol=1e-12)

    def test_matches_per_base_oracle_at_four_labels(self):
        env = random_environment(np.random.default_rng(72), 4, correlated_low=True)
        strategies = enumerate_pure_strategies(4)
        tables = peer_report_posteriors(env, pure_strategy_arrays(4))
        for e, effort in enumerate(Effort):
            oracle = np.stack([peer_report_posterior(env, effort, base) for base in strategies])
            np.testing.assert_allclose(tables[e], oracle, rtol=0.0, atol=1e-12)

    def test_rows_are_distributions(self, ternary_env):
        bases = [truthful_strategy(3), low_identity_strategy(3)]
        tables = peer_report_posteriors(ternary_env, strategy_arrays(bases, 3))
        assert np.allclose(tables.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(tables >= 0)
