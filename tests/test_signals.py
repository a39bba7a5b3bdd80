"""Environment validation, and peer-report posteriors against an enumerated joint law."""

import itertools

import numpy as np
import pytest

from peerspot import (
    Channel,
    Distribution,
    Environment,
    InvalidDistribution,
    LabelSpace,
    ShapeMismatch,
    TooFewAgents,
    truthful_strategy,
    validate_environment,
)
from peerspot.strategies import peer_report_posteriors, strategy_arrays

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


def truthful_posterior(env):
    """Row v: law of a truthful full-effort peer's report given one's own high signal v."""
    k = len(env.q_space)
    return peer_report_posteriors(env, strategy_arrays([truthful_strategy(k)], k))[0, 0]


class TestPosterior:
    def test_reference_posterior(self, env):
        assert truthful_posterior(env)[1] == pytest.approx((0.18, 0.82), abs=1e-12)

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
        assert truthful_posterior(e)[0] == pytest.approx((1.0, 0.0), abs=1e-12)

    def test_matches_bayes_on_enumerated_table(self):
        rng = np.random.default_rng(23)
        for labels in (2, 3, 4):
            e = random_environment(rng, labels)
            pair = {}  # (own high signal, peer high signal) -> mass
            for (_, s1, s2, _, _), p in brute_joint(e, 2).items():
                pair[(s1, s2)] = pair.get((s1, s2), 0.0) + p
            post = truthful_posterior(e)
            for observed in range(labels):
                assert post[observed].sum() == pytest.approx(1.0, abs=1e-12)
                mass = sum(p for (s1, _), p in pair.items() if s1 == observed)
                for peer in range(labels):
                    joint = sum(
                        p for (s1, s2), p in pair.items() if s1 == observed and s2 == peer
                    )
                    assert post[observed, peer] == pytest.approx(joint / mass, abs=1e-12)

    def test_zero_mass_observation_gets_a_uniform_row(self):
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
        post = truthful_posterior(e)
        assert post[0] == pytest.approx((1.0, 0.0), abs=1e-12)
        assert post[1] == pytest.approx((0.5, 0.5), abs=1e-12)  # never observed; carries no weight


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
