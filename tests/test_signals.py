"""Environment validation, joint signal laws, and posterior computations."""

import itertools

import numpy as np
import pytest

from peerspot import (
    Channel,
    Distribution,
    Environment,
    EnumerationBudgetExceeded,
    InvalidDistribution,
    LabelSpace,
    ShapeMismatch,
    TooFewAgents,
    ZeroProbabilityConditioning,
    joint_signal_distribution,
    posterior_peer_belief,
    signal_marginal,
    validate_environment,
)

from conftest import random_environment


def brute_joint(env, k):
    """Independent oracle: nested-loop product of the factorized per-object law."""
    kq = len(env.q_space)
    prior = env.prior.as_array()
    high = env.high_channel.matrix()
    low = env.low_channel.matrix()
    trusted = env.trusted_channel.matrix()
    table = {}
    for q in range(kq):
        for highs in itertools.product(range(kq), repeat=k):
            for sl in range(kq):
                for st in range(kq):
                    p = prior[q] * low[q, sl] * trusted[q, st]
                    for s in highs:
                        p *= high[q, s]
                    table[(q, *highs, sl, st)] = table.get((q, *highs, sl, st), 0.0) + p
    return table


class TestValidation:
    def test_reference_environment_is_valid(self, env):
        validate_environment(env)

    def test_bad_probability_row_rejected(self):
        space = LabelSpace.of((0, 1))
        with pytest.raises(InvalidDistribution):
            Distribution.from_array(space, [0.6, 0.5])

    def test_too_few_agents(self, env):
        from dataclasses import replace

        with pytest.raises(TooFewAgents):
            validate_environment(replace(env, n_agents=2))

    def test_channel_shape_mismatch(self):
        space = LabelSpace.of((0, 1))
        other = LabelSpace.of(("a", "b", "c"))
        with pytest.raises(ShapeMismatch):
            Channel(space, space, (Distribution.uniform(other), Distribution.uniform(other)))

    def test_labels_must_be_distinct(self):
        with pytest.raises(ShapeMismatch):
            LabelSpace.of((0, 0))

    @pytest.mark.parametrize("weights", [(float("nan"), float("nan")), (float("inf"), 0.0)])
    def test_non_finite_weights_rejected(self, weights):
        with pytest.raises(InvalidDistribution):
            Distribution(LabelSpace.of((0, 1)), weights)

    @pytest.mark.parametrize("cost", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_effort_cost_fails_validation(self, env, cost):
        from dataclasses import replace

        with pytest.raises(InvalidDistribution):
            validate_environment(replace(env, effort_cost=cost))

    @pytest.mark.parametrize("cost", [float("nan"), float("inf"), -0.1])
    def test_with_effort_cost_rejects_non_finite_and_negative(self, env, cost):
        with pytest.raises(InvalidDistribution):
            env.with_effort_cost(cost)
        assert env.with_effort_cost(0.2).effort_cost == 0.2


class TestJointDistribution:
    def test_single_agent_point_probability(self, env):
        table = joint_signal_distribution(env, k=1)
        # prior * high * low * trusted = 0.5 * 0.9 * 0.5 * 0.9
        assert table.prob((1, 1, 0, 1)) == pytest.approx(0.2025, abs=1e-15)

    def test_total_mass_is_one(self, env, ternary_env):
        for e in (env, ternary_env):
            for k in (1, 2):
                assert joint_signal_distribution(e, k).total() == pytest.approx(1.0, abs=1e-12)

    def test_high_trusted_agreement_marginal(self, env):
        # Oracle: sum the brute-force joint over outcomes with s_high == s_trusted.
        oracle = sum(p for key, p in brute_joint(env, 1).items() if key[1] == key[3])
        table = joint_signal_distribution(env, k=1)
        got = sum(p for key, p in table.items() if key[1] == key[3])
        assert oracle == pytest.approx(0.82, abs=1e-12)
        assert got == pytest.approx(oracle, abs=1e-12)

    def test_matches_brute_force_everywhere(self, ternary_env):
        table = joint_signal_distribution(ternary_env, k=2)
        oracle = brute_joint(ternary_env, 2)
        labels = ternary_env.q_space.labels
        for key, p in oracle.items():
            outcome = tuple(labels[i] for i in key)
            assert table.prob(outcome) == pytest.approx(p, abs=1e-12)

    def test_marginalizing_agents_recovers_latent_law(self, env):
        table = joint_signal_distribution(env, k=2)
        got = table.marginal([0, 3, 4])  # (q, s_low, s_trusted)
        prior = env.prior.as_array()
        low = env.low_channel.matrix()
        trusted = env.trusted_channel.matrix()
        for (q, sl, st), p in got.items():
            qi, sli, sti = env.q_space.index(q), env.q_space.index(sl), env.q_space.index(st)
            assert p == pytest.approx(prior[qi] * low[qi, sli] * trusted[qi, sti], abs=1e-12)

    def test_conditional_independence_of_high_signals(self):
        rng = np.random.default_rng(11)
        for labels in (2, 3):
            e = random_environment(rng, labels)
            table = joint_signal_distribution(e, k=2)
            pair = table.marginal([0, 1, 2])
            high = e.high_channel.matrix()
            prior = e.prior.as_array()
            for (q, s1, s2), p in pair.items():
                qi = e.q_space.index(q)
                expected = prior[qi] * high[qi, e.q_space.index(s1)] * high[qi, e.q_space.index(s2)]
                assert p == pytest.approx(expected, abs=1e-12)

    def test_budget_guard(self, env):
        with pytest.raises(EnumerationBudgetExceeded):
            joint_signal_distribution(env, k=3, budget=10)

    def test_k_out_of_range(self, env):
        with pytest.raises(ShapeMismatch):
            joint_signal_distribution(env, k=0)


class TestPosterior:
    def test_reference_posterior(self, env):
        post = posterior_peer_belief(env, 1)
        assert post.probs == pytest.approx((0.18, 0.82), abs=1e-12)

    def test_noiseless_channel_gives_point_mass(self):
        space = LabelSpace.of((0, 1))
        e = Environment(
            q_space=space,
            prior=Distribution.uniform(space),
            high_channel=Channel.symmetric_noise(space, 1.0),
            trusted_channel=Channel.symmetric_noise(space, 0.9),
            low_channel=Channel.uniform(space),
            effort_cost=0.1,
            n_agents=3,
            n_objects=2,
        )
        assert posterior_peer_belief(e, 0).probs == pytest.approx((1.0, 0.0), abs=1e-12)

    def test_matches_bayes_on_enumerated_table(self):
        rng = np.random.default_rng(23)
        for labels in (2, 3, 4):
            e = random_environment(rng, labels)
            table = joint_signal_distribution(e, k=2)
            pair = table.marginal([1, 2])
            for observed in e.q_space:
                post = posterior_peer_belief(e, observed)
                assert sum(post.probs) == pytest.approx(1.0, abs=1e-12)
                mass = sum(p for (s1, _), p in pair.items() if s1 == observed)
                for peer in e.q_space:
                    joint = sum(
                        p for (s1, s2), p in pair.items() if s1 == observed and s2 == peer
                    )
                    assert post.prob(peer) == pytest.approx(joint / mass, abs=1e-12)

    def test_zero_mass_conditioning(self):
        space = LabelSpace.of((0, 1))
        e = Environment(
            q_space=space,
            prior=Distribution.from_array(space, [1.0, 0.0]),
            high_channel=Channel.from_matrix(space, space, [[1.0, 0.0], [0.0, 1.0]]),
            trusted_channel=Channel.uniform(space),
            low_channel=Channel.uniform(space),
            effort_cost=0.0,
            n_agents=3,
            n_objects=2,
        )
        with pytest.raises(ZeroProbabilityConditioning):
            posterior_peer_belief(e, 1)


class TestMarginals:
    def test_reference_marginals(self, env):
        assert signal_marginal(env, "high").probs == pytest.approx((0.5, 0.5), abs=1e-12)
        assert signal_marginal(env, "low").probs == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_point_mass_prior_noiseless_channel(self):
        space = LabelSpace.of((0, 1))
        e = Environment(
            q_space=space,
            prior=Distribution.from_array(space, [0.0, 1.0]),
            high_channel=Channel.symmetric_noise(space, 1.0),
            trusted_channel=Channel.symmetric_noise(space, 1.0),
            low_channel=Channel.uniform(space),
            effort_cost=0.0,
            n_agents=3,
            n_objects=2,
        )
        assert signal_marginal(e, "high").probs == pytest.approx((0.0, 1.0), abs=1e-12)

    def test_unknown_signal_name(self, env):
        with pytest.raises(ShapeMismatch):
            signal_marginal(env, "medium")


class TestSerialization:
    def test_round_trip(self, ternary_env):
        doc = ternary_env.to_json_dict()
        back = Environment.from_json_dict(doc)
        assert back.prior.probs == ternary_env.prior.probs
        assert np.allclose(back.high_channel.matrix(), ternary_env.high_channel.matrix())
        assert back.n_agents == ternary_env.n_agents

    def test_defaults_for_missing_channels(self):
        doc = {
            "labels": [0, 1],
            "prior": [0.5, 0.5],
            "high": [[0.9, 0.1], [0.1, 0.9]],
            "effort_cost": 0.1,
            "n_agents": 3,
            "n_objects": 2,
        }
        e = Environment.from_json_dict(doc)
        assert np.allclose(e.trusted_channel.matrix(), e.high_channel.matrix())
        assert np.allclose(e.low_channel.matrix(), 0.5)
