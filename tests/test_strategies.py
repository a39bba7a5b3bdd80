"""Strategy enumeration, report realization, and induced belief reports."""

import itertools
from dataclasses import dataclass

import numpy as np
import pytest

from peerspot import (
    BeliefMode,
    Distribution,
    Effort,
    EnumerationBudgetExceeded,
    LabelSpace,
    Strategy,
    StrategyProfile,
    enumerate_pure_strategies,
    low_identity_strategy,
    truthful_strategy,
)
from peerspot.strategies import belief_table

from conftest import random_environment


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
    beliefs = belief_table(env, strategy, profile.base)
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

    def test_point_mass_mode(self, env):
        swap = Strategy(Effort.FULL, (1, 0), BeliefMode.POINT_MASS)
        profile = StrategyProfile.symmetric(truthful_strategy(env.q_space))
        report = realize_report(swap, env, (0, 1), profile)
        assert report.signal_report == 1
        assert report.belief_report.probs == pytest.approx((0.0, 1.0))

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
        picks = [strategies[i] for i in (0, 1, len(strategies) // 2, -1)]
        for base in picks:
            for observer in picks:
                got = belief_table(env, observer, base)
                oracle = brute_belief(env, observer, base)
                assert np.allclose(got, oracle, atol=1e-12)

    def test_rows_are_distributions(self, ternary_env):
        for base in (truthful_strategy(3), low_identity_strategy(3)):
            for observer in (truthful_strategy(3), low_identity_strategy(3)):
                table = belief_table(ternary_env, observer, base)
                assert np.allclose(table.sum(axis=1), 1.0, atol=1e-12)
                assert np.all(table >= 0)


class TestSerialization:
    def test_round_trip(self):
        space = LabelSpace.of(("low", "mid", "high"))
        s = Strategy(Effort.NONE, (2, 0, 1), BeliefMode.POINT_MASS)
        doc = s.to_json_dict(space)
        assert doc == {"effort": "none", "map": ["high", "low", "mid"], "belief": "pointmass"}
        assert Strategy.from_json_dict(doc, space) == s
