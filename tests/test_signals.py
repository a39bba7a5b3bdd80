"""Environment validation, and peer-report posteriors against an enumerated joint law."""

import dataclasses
import itertools
import re

import numpy as np
import pytest

from peerspot import (
    Channel,
    Distribution,
    Environment,
    InvalidDistribution,
    LabelSpace,
    ShapeMismatch,
    generate_environments,
    truthful_strategy,
)
from peerspot import acceptance
from peerspot.strategies import peer_report_posteriors, strategy_arrays

import noise_rows
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


def fields_of(env) -> dict:
    return {f.name: getattr(env, f.name) for f in dataclasses.fields(env)}


ABC = LabelSpace.of(("a", "b", "c"))
# Field changes that make an environment invalid, with the error and message each raises.
INVALID = [
    ({"n_agents": 2}, ShapeMismatch, "n_agents must be an integer of at least 3, got 2"),
    ({"n_objects": 0}, ShapeMismatch, "n_objects must be an integer of at least 1, got 0"),
    ({"n_agents": 3.5}, ShapeMismatch, "n_agents must be an integer of at least 3, got 3.5"),
    ({"n_objects": 1.5}, ShapeMismatch, "n_objects must be an integer of at least 1, got 1.5"),
    ({"n_agents": "5"}, ShapeMismatch, "n_agents must be an integer of at least 3, got '5'"),
    ({"n_objects": True}, ShapeMismatch, "n_objects must be an integer of at least 1, got True"),
    ({"prior": Distribution.uniform(ABC)}, ShapeMismatch, "prior is not over the quality space"),
    ({"high_channel": Channel.uniform(ABC)}, ShapeMismatch, "high_channel must map the quality space to the label space"),
    ({"low_channel": Channel.uniform(ABC)}, ShapeMismatch, "low_channel must map the quality space to the label space"),
]


class TestValidation:
    def test_reference_environment_is_valid(self, env):
        assert Environment(**fields_of(env)) == env

    def test_bad_probability_row_rejected(self):
        space = LabelSpace.of((0, 1))
        with pytest.raises(InvalidDistribution):
            Distribution.from_array(space, [0.6, 0.5])

    @pytest.mark.parametrize("build", ["constructor", "replace"])
    @pytest.mark.parametrize(
        "change, error, message",
        INVALID,
        ids=[
            "two-agents", "no-objects", "fractional-agents", "fractional-objects", "string-agents", "bool-objects",
            "prior-space", "high-space", "low-space",
        ],
    )
    def test_invalid_environment_cannot_be_built(self, env, build, change, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            if build == "constructor":
                Environment(**(fields_of(env) | change))
            else:
                dataclasses.replace(env, **change)

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
            "n_agents": 3,
            "n_objects": 2,
        }
        e = Environment.from_json_dict(doc)
        assert np.allclose(e.trusted_channel.matrix(), e.high_channel.matrix())
        assert np.allclose(e.low_channel.matrix(), 0.5)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"n_agents": "4"}, "n_agents: must be a positive integer, got '4'"),
            ({"n_agents": True}, "n_agents: must be a positive integer, got True"),
            ({"n_agents": 3.9}, "n_agents: must be a positive integer, got 3.9"),
            ({"n_objects": True}, "n_objects: must be a positive integer, got True"),
            ({"n_objects": 0}, "n_objects: must be a positive integer, got 0"),
            ({"n_agent": 10}, "unknown key 'n_agent'"),
        ],
        ids=["string-agents", "bool-agents", "fractional-agents", "bool-objects", "no-objects", "unknown-key"],
    )
    def test_fields_are_read_by_their_json_rule(self, env, change, message):
        with pytest.raises(ShapeMismatch, match=f"^{re.escape(message)}$"):
            Environment.from_json_dict(env.to_json_dict() | change)


class TestSymmetricNoise:
    """``Channel.symmetric_noise`` against the former row-by-row channels in ``noise_rows``."""

    @pytest.mark.parametrize("labels", [2, 3, 4, 5])
    def test_one_accuracy_gives_the_former_matrix(self, labels):
        space = LabelSpace.of(tuple(range(labels)))
        for accuracy in (0.0, 0.3, 0.55, 0.8, 0.9, 0.95, 1.0):
            got = Channel.symmetric_noise(space, accuracy).matrix()
            assert got.tobytes() == noise_rows.scalar_noise(labels, accuracy).tobytes()

    @pytest.mark.parametrize("labels", [2, 3, 4, 5])
    def test_per_row_accuracies_give_the_former_rows(self, labels):
        space = LabelSpace.of(tuple(range(labels)))
        for seed in range(5):
            accuracies = np.random.default_rng(seed).uniform(0.6, 0.95, size=labels)
            expected = noise_rows.noisy_rows(np.random.default_rng(seed), labels, 0.6, 0.95)
            assert Channel.symmetric_noise(space, accuracies).matrix().tobytes() == expected.tobytes()

    @pytest.mark.parametrize("labels", [2, 3, 4, 5])
    def test_generated_environments_are_the_former_ones(self, labels):
        for seed, accuracy in ((0, (0.6, 0.95)), (3, (0.6, 0.95)), (101, (0.6, 0.95)), (202, (0.3, 0.99))):
            got = generate_environments(labels=labels, count=4, seed=seed, accuracy=accuracy)
            expected = noise_rows.generate_environments(labels, 4, seed, accuracy)
            assert [e.to_json_dict() for e in got] == [e.to_json_dict() for e in expected]

    def test_gate_environments_are_the_former_ones(self):
        got = [env.to_json_dict() for env in acceptance._random_acceptance_environments()]
        binary = noise_rows.generate_environments(2, 10, 101, prefix="acc")
        assert got == [env.to_json_dict() for env in binary + noise_rows.generate_environments(3, 10, 202, prefix="acc")]
        # The aligned environments of gate C5, drawn in the gate's order from its seed.
        rng, former = np.random.default_rng(404), np.random.default_rng(404)
        for labels, count in ((2, 9), (3, 8), (4, 8)):
            for i in range(count):
                env = acceptance._aligned_random_environment(rng, labels, i)
                assert env.to_json_dict() == noise_rows.aligned_random_environment(former, labels, i).to_json_dict()
