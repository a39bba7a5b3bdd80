"""The Monte-Carlo sampler against a per-object reference, realized rewards and the exact engine.

* The package draws cross-object statistics of correlated, sqrt-scaled and
  double-mixed agreement from their exact finite-sample laws; the reference
  in ``per_object_sampler`` simulates every object.  Both must give the same
  mean and the same spread.
* For the one-object kinds, averaging the per-realization reward of
  ``realized_rewards`` over drawn instances must give the sampler's mean.
* Off-diagonal (deviant != base) cells must agree with the exact engine
  within 4 sigma: at k=2 every deviant against the truthful and the
  low-identity base, at k=3 four cells; every kind and rule.
"""

from dataclasses import replace

import numpy as np
import pytest

from peerspot import (
    LOGARITHMIC,
    QUADRATIC,
    LabelSpace,
    MechanismKind,
    MechanismSpec,
    StrategyProfile,
    analytic_unchecked_value,
    enumerate_pure_strategies,
    low_identity_strategy,
    reference_environment,
    simulate_utilities,
    truthful_strategy,
)
from peerspot.mechanisms import KINDS

from conftest import random_environment
from per_cell_oracle import peer_report_posterior
from per_object_sampler import simulate_per_object
from realized_rewards import RealizedInstance, realized_reward

# A zero-variance estimate may still differ from the exact value by rounding.
ROUNDING = 1e-9

ENVS = {
    2: replace(reference_environment(), n_agents=10, n_objects=30),
    3: replace(random_environment(np.random.default_rng(11), 3, correlated_low=True), n_agents=10, n_objects=30),
}


def profiles(k: int) -> dict:
    truthful, low = truthful_strategy(k), low_identity_strategy(k)
    return {
        "truthful": StrategyProfile.symmetric(truthful),
        "low-identity": StrategyProfile.symmetric(low),
        "truthful-vs-low": StrategyProfile.with_deviant(low, truthful),
    }


MULTI_OBJECT_KINDS = (
    MechanismKind.CORRELATED_AGREEMENT,
    MechanismKind.SQRT_SCALED_AGREEMENT,
    MechanismKind.DOUBLE_MIXED_AGREEMENT,
)
REFERENCE_CASES = [(k, kind, name) for k in ENVS for kind in MULTI_OBJECT_KINDS for name in profiles(k)]


@pytest.mark.parametrize(
    "k,kind,name", REFERENCE_CASES, ids=[f"k{k}-{kind.value}-{name}" for k, kind, name in REFERENCE_CASES]
)
def test_exact_count_sampler_matches_per_object_reference(k, kind, name):
    spec, env, profile = MechanismSpec(kind), ENVS[k], profiles(k)[name]
    est = simulate_utilities(spec, env, profile, trials=10_000, seed=21)
    ref_mean, ref_stderr = simulate_per_object(spec, env, profile, trials=10_000, seed=22)
    combined = np.hypot(est.stderr, ref_stderr)
    assert abs(est.value - ref_mean) <= 4.0 * combined + ROUNDING, (est, ref_mean, ref_stderr)
    assert est.stderr == pytest.approx(ref_stderr, rel=0.1, abs=ROUNDING)


REALIZED_ENVS = {k: replace(env, n_agents=4, n_objects=1) for k, env in ENVS.items()}
ONE_OBJECT_KINDS = tuple(kind for kind in KINDS if kind not in MULTI_OBJECT_KINDS)
# The quadratic rule only: realized log scores raise LogOfZero where the sampler pays a sentinel.
REALIZED_CASES = [
    (k, kind, name)
    for k in REALIZED_ENVS
    for kind in ONE_OBJECT_KINDS
    if k == 2 or not KINDS[kind].binary_only
    for name in profiles(k)
]


def _categorical(rng: np.random.Generator, probs: np.ndarray) -> np.ndarray:
    """One draw per row of ``probs`` (last axis is the law)."""
    u = rng.random(probs.shape[:-1])[..., None]
    return np.minimum((u > np.cumsum(probs, axis=-1)).sum(axis=-1), probs.shape[-1] - 1)


def realized_mean(spec, env, profile, draws, seed):
    """Mean and stderr of agent 0's realized reward over drawn one-object instances
    (agent 0 plays the focal strategy, every other agent the base)."""
    rng = np.random.default_rng(seed)
    n, k = env.n_agents, len(env.q_space)
    q = _categorical(rng, np.broadcast_to(env.prior.as_array(), (draws, k)))
    s_low = _categorical(rng, env.low_channel.matrix()[q])
    high = _categorical(rng, np.broadcast_to(env.high_channel.matrix()[q][:, None, :], (draws, n, k)))
    strategies = [profile.focal_strategy()] + [profile.base] * (n - 1)
    obs = np.stack([high[:, a] if s.is_full_effort else s_low for a, s in enumerate(strategies)], axis=1)
    reports = np.stack([s.map_array()[obs[:, a]] for a, s in enumerate(strategies)], axis=1)
    beliefs = np.stack(
        [peer_report_posterior(env, s.effort, profile.base)[obs[:, a]] for a, s in enumerate(strategies)],
        axis=1,
    )
    labels = LabelSpace.of(range(k))
    rewards = [
        realized_reward(spec, RealizedInstance.full(labels, reports[t, :, None], beliefs[t, :, None]), 0, 0, rng)
        for t in range(draws)
    ]
    return float(np.mean(rewards)), float(np.std(rewards, ddof=1) / np.sqrt(draws))


@pytest.mark.parametrize(
    "k,kind,name", REALIZED_CASES, ids=[f"k{k}-{kind.value}-{name}" for k, kind, name in REALIZED_CASES]
)
def test_sampler_matches_realized_reward_average(k, kind, name):
    spec, env, profile = MechanismSpec(kind), REALIZED_ENVS[k], profiles(k)[name]
    est = simulate_utilities(spec, env, profile, trials=20_000, seed=31)
    ref_mean, ref_stderr = realized_mean(spec, env, profile, draws=2_000, seed=32)
    combined = np.hypot(est.stderr, ref_stderr)
    assert abs(est.value - ref_mean) <= 4.0 * combined + ROUNDING, (est, ref_mean, ref_stderr)


SPECS = [
    MechanismSpec(kind, rule=rule)
    for kind, entry in KINDS.items()
    for rule in ((QUADRATIC, LOGARITHMIC) if entry.scored else (QUADRATIC,))
]
CELL_CASES = [(k, spec) for k in (2, 3) for spec in SPECS if k == 2 or not KINDS[spec.kind].binary_only]
# (base, deviant) indices into the k=3 strategy enumeration: 0 is truthful,
# 7 full effort with labels 1 and 2 swapped, 27 low identity, 40 always 1 without effort.
K3_OFF_DIAGONAL = ((0, 7), (27, 0), (7, 40), (40, 27))


def off_diagonal_cells(k: int) -> list:
    """(base, deviant) pairs: at k=2 the truthful and low-identity columns, at k=3 four cells."""
    strategies = enumerate_pure_strategies(k)
    if k == 3:
        return [(strategies[g], strategies[d]) for g, d in K3_OFF_DIAGONAL]
    bases = (truthful_strategy(k), low_identity_strategy(k))
    return [(base, deviant) for base in bases for deviant in strategies if deviant != base]


def spec_id(k: int, spec) -> str:
    name = f"{spec.kind.value}.{spec.rule.name}" if KINDS[spec.kind].scored else spec.kind.value
    return name if k == 3 else f"k{k}-{name}"


@pytest.mark.parametrize("k,spec", CELL_CASES, ids=[spec_id(k, spec) for k, spec in CELL_CASES])
def test_off_diagonal_cells_match_exact_engine(k, spec):
    env = replace(random_environment(np.random.default_rng(3), k, correlated_low=True), n_agents=10, n_objects=1000)
    if spec.kind is MechanismKind.PEER_TRUTH_SERUM:
        env = replace(env, n_agents=400)  # its exact value is the many-agent limit
    for seed, (base, deviant) in enumerate(off_diagonal_cells(k)):
        exact = analytic_unchecked_value(spec, env, base, deviant)
        est = simulate_utilities(spec, env, StrategyProfile.with_deviant(base, deviant), trials=10_000, seed=seed)
        assert abs(est.value - exact) <= 4.0 * est.stderr + ROUNDING, (base.describe(), deviant.describe(), est, exact)
