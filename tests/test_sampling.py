"""The Monte-Carlo sampler against a per-object reference and the exact engine.

* The package draws cross-object statistics of correlated, sqrt-scaled and
  double-mixed agreement from their exact finite-sample laws; the reference
  in ``per_object_sampler`` simulates every object.  Both must give the same
  mean and the same spread.
* Off-diagonal (deviant != base) cells of every k=3 kind must agree with the
  exact engine within 4 sigma.
"""

from dataclasses import replace

import numpy as np
import pytest

from peerspot import (
    LOGARITHMIC,
    QUADRATIC,
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
from peerspot.mechanisms import BELIEF_BASED_KINDS

from conftest import random_environment
from per_object_sampler import simulate_per_object

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


REFERENCE_CASES = [
    (k, kind, name)
    for k in ENVS
    for kind in (
        MechanismKind.CORRELATED_AGREEMENT,
        MechanismKind.SQRT_SCALED_AGREEMENT,
        MechanismKind.DOUBLE_MIXED_AGREEMENT,
    )
    for name in profiles(k)
]


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


K3_SPECS = [
    MechanismSpec(kind, rule=rule)
    for kind in MechanismKind
    if kind is not MechanismKind.ROBUST_BTS
    for rule in ((QUADRATIC, LOGARITHMIC) if kind in BELIEF_BASED_KINDS else (QUADRATIC,))
]
# (base, deviant) indices into the k=3 strategy enumeration: 0 is truthful,
# 7 full effort with labels 1 and 2 swapped, 27 low identity, 40 always 1 without effort.
OFF_DIAGONAL = ((0, 7), (27, 0), (7, 40), (40, 27))


@pytest.mark.parametrize(
    "spec",
    K3_SPECS,
    ids=[f"{s.kind.value}.{s.rule.name}" if s.kind in BELIEF_BASED_KINDS else s.kind.value for s in K3_SPECS],
)
def test_off_diagonal_cells_match_exact_engine(spec):
    env = replace(random_environment(np.random.default_rng(3), 3, correlated_low=True), n_agents=10, n_objects=1000)
    if spec.kind is MechanismKind.PEER_TRUTH_SERUM:
        env = replace(env, n_agents=400)  # its exact value is the many-agent limit
    strategies = enumerate_pure_strategies(3)
    for seed, (g, d) in enumerate(OFF_DIAGONAL):
        base, deviant = strategies[g], strategies[d]
        exact = analytic_unchecked_value(spec, env, base, deviant)
        est = simulate_utilities(spec, env, StrategyProfile.with_deviant(base, deviant), trials=10_000, seed=seed)
        assert abs(est.value - exact) <= 4.0 * est.stderr + ROUNDING, (base.describe(), deviant.describe(), est, exact)
