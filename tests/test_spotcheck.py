"""Audit rewards, worthwhile-effort checks, and combined utilities from the payoff table."""

import numpy as np
import pytest

from peerspot import (
    Channel,
    Distribution,
    Effort,
    Environment,
    LabelSpace,
    MechanismKind,
    MechanismSpec,
    Strategy,
    check_worthwhile_effort,
    compute_payoff_table,
    expected_spot_reward,
    low_identity_strategy,
    truthful_strategy,
)

from conftest import random_environment


def brute_spot_reward(env, strategy):
    """Oracle: enumerate (quality, low, observation, trusted) for the same-object
    term and two independent objects for the cross term."""
    k = len(env.q_space)
    prior = env.prior.as_array()
    high = env.high_channel.matrix()
    low = env.low_channel.matrix()
    trusted = env.trusted_channel.matrix()
    joint = np.zeros((k, k))  # (report, trusted draw) on one object
    for q in range(k):
        for sl in range(k):
            for obs in range(k):
                p_obs = high[q, obs] if strategy.is_full_effort else float(obs == sl)
                for st in range(k):
                    joint[strategy.report_map[obs], st] += prior[q] * low[q, sl] * p_obs * trusted[q, st]
    same = np.trace(joint)
    cross = joint.sum(axis=1) @ joint.sum(axis=0)
    return same - cross


class TestExpectedSpotReward:
    def test_truthful_reference_value(self, env):
        got = expected_spot_reward(env, truthful_strategy(2))
        assert got == pytest.approx(0.32, abs=1e-12)
        assert got == pytest.approx(brute_spot_reward(env, truthful_strategy(2)), abs=1e-12)

    def test_uniform_low_signal_earns_zero(self, env):
        assert expected_spot_reward(env, low_identity_strategy(2)) == pytest.approx(0.0, abs=1e-12)

    def test_constant_reports_earn_exactly_zero(self):
        rng = np.random.default_rng(17)
        for labels in (2, 3):
            e = random_environment(rng, labels, correlated_low=True)
            for effort in (Effort.FULL, Effort.NONE):
                for c in range(labels):
                    const = Strategy(effort, tuple([c] * labels))
                    assert expected_spot_reward(e, const) == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(29)
        for labels in (2, 3):
            e = random_environment(rng, labels, correlated_low=True)
            from peerspot import enumerate_pure_strategies

            for s in enumerate_pure_strategies(labels)[::5]:
                assert expected_spot_reward(e, s) == pytest.approx(brute_spot_reward(e, s), abs=1e-12)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            e = random_environment(rng, 3, correlated_low=True)
            from peerspot import enumerate_pure_strategies

            for s in enumerate_pure_strategies(3):
                assert -1.0 - 1e-12 <= expected_spot_reward(e, s) <= 1.0 + 1e-12


PI = MechanismSpec(MechanismKind.PEER_INSENSITIVE)


class TestWorthwhileEffort:
    def test_reference_environment(self, env):
        assert check_worthwhile_effort(compute_payoff_table(PI, env), env.effort_cost)  # 0.32 - 0.1 > 0

    def test_high_cost_kills_it(self, env):
        assert not check_worthwhile_effort(compute_payoff_table(PI, env), 0.4)

    def test_perfect_low_signal_defeats_auditing(self):
        # The shared draw reveals quality exactly and the trusted draw equals it:
        # no audit rate makes costly effort pay.
        space = LabelSpace.of((0, 1))
        noiseless = Channel.symmetric_noise(space, 1.0)
        e = Environment(
            q_space=space,
            prior=Distribution.uniform(space),
            high_channel=Channel.symmetric_noise(space, 0.9),
            trusted_channel=noiseless,
            low_channel=noiseless,
            effort_cost=0.01,
            n_agents=3,
            n_objects=2,
        )
        assert not check_worthwhile_effort(compute_payoff_table(PI, e), e.effort_cost)


class TestCombinedUtility:
    """PayoffTable.utilities: p * E[y] + (1 - p) * E[z] - effort cost for each symmetric profile."""

    @staticmethod
    def utility(spec, env, strategy, p):
        table = compute_payoff_table(spec, env)
        return table.utilities(p, env.effort_cost)[table.index_of(strategy)]

    def test_peer_insensitive_truthful(self, env):
        spec = MechanismSpec(MechanismKind.PEER_INSENSITIVE, constant_reward=1.0)
        got = self.utility(spec, env, truthful_strategy(2), 0.5)
        assert got == pytest.approx(0.5 * 0.32 + 0.5 * 1.0 - 0.1, abs=1e-12)

    def test_peer_insensitive_lazy(self, env):
        spec = MechanismSpec(MechanismKind.PEER_INSENSITIVE, constant_reward=1.0)
        assert self.utility(spec, env, low_identity_strategy(2), 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_p_zero_reduces_to_unchecked_minus_cost(self, env):
        spec = MechanismSpec(MechanismKind.OUTPUT_AGREEMENT)
        assert self.utility(spec, env, truthful_strategy(2), 0.0) == pytest.approx(0.82 - 0.1, abs=1e-12)

    def test_affine_in_p(self, env):
        spec = MechanismSpec(MechanismKind.OUTPUT_AGREEMENT)
        values = {p: self.utility(spec, env, truthful_strategy(2), p) for p in (0.0, 0.5, 1.0)}
        assert values[0.5] == pytest.approx(0.5 * (values[0.0] + values[1.0]), abs=1e-12)

