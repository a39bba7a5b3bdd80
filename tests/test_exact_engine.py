"""The batched exact engine against independent oracles.

* The per-cell evaluators in ``per_cell_oracle`` rebuild every table cell
  with loops over observations; the batched tables must equal them to 1e-12.
* Relabelling an environment's labels must permute every table to match.

The oracle comparison runs here on the reference environment and two k=3
acceptance environments.  ``python tests/test_exact_engine.py`` runs it on
all 21 acceptance environments.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peerspot import (
    LOGARITHMIC,
    QUADRATIC,
    Channel,
    Distribution,
    Environment,
    MechanismKind,
    MechanismSpec,
    PeerSpotError,
    Strategy,
    analytic_unchecked_value,
    enumerate_pure_strategies,
    reference_environment,
)
from peerspot.acceptance import _random_acceptance_environments
from peerspot.mechanisms import BELIEF_BASED_KINDS, unchecked_block

from conftest import random_environment
from per_cell_oracle import oracle_table, oracle_value

TOL = 1e-12
SPECS = [
    MechanismSpec(kind, rule=rule)
    for kind in MechanismKind
    for rule in ((QUADRATIC, LOGARITHMIC) if kind in BELIEF_BASED_KINDS else (QUADRATIC,))
]
K3_SPECS = [spec for spec in SPECS if spec.kind is not MechanismKind.ROBUST_BTS]


def spec_id(spec: MechanismSpec) -> str:
    return f"{spec.kind.value}.{spec.rule.name}" if spec.kind in BELIEF_BASED_KINDS else spec.kind.value


def table_or_error(build):
    """The table, or the name of the package error raised while building it."""
    try:
        return build()
    except PeerSpotError as exc:
        return type(exc).__name__


def compare_with_oracle(spec: MechanismSpec, env: Environment) -> None:
    strategies = enumerate_pure_strategies(env.q_space)
    batched = table_or_error(lambda: unchecked_block(spec, env, strategies, strategies))
    oracle = table_or_error(lambda: oracle_table(spec, env, strategies))
    if isinstance(oracle, str) or isinstance(batched, str):
        assert batched == oracle
        return
    np.testing.assert_allclose(batched, oracle, rtol=0.0, atol=TOL)


ORACLE_ENVS = {"e1": reference_environment()}
ORACLE_ENVS.update({env.env_id: env for env in _random_acceptance_environments()[10:12]})
ORACLE_CASES = [
    (env_id, spec)
    for env_id, env in ORACLE_ENVS.items()
    for spec in (SPECS if len(env.q_space) == 2 else K3_SPECS)
]


@pytest.mark.parametrize(
    "env_id,spec", ORACLE_CASES, ids=[f"{env_id}-{spec_id(spec)}" for env_id, spec in ORACLE_CASES]
)
def test_batched_table_matches_per_cell_oracle(env_id, spec):
    compare_with_oracle(spec, ORACLE_ENVS[env_id])


@pytest.mark.parametrize("spec", K3_SPECS, ids=[spec_id(s) for s in K3_SPECS])
def test_single_cell_is_a_block_entry(spec):
    env = ORACLE_ENVS["acc-q3-s202-0"]
    strategies = enumerate_pure_strategies(env.q_space)
    picks = [0, 7, 26, 27, 40, 53]
    block = table_or_error(lambda: unchecked_block(spec, env, strategies, strategies))
    for d in picks:
        for g in picks:
            base, deviant = strategies[g], strategies[d]
            cell = table_or_error(lambda: analytic_unchecked_value(spec, env, base, deviant))
            if isinstance(block, str):  # some pair raised; this one may not, as in the oracle
                expected = table_or_error(lambda: oracle_value(spec, env, base, deviant))
            else:
                expected = block[d, g]
            if isinstance(expected, str):
                assert cell == expected
            else:
                assert cell == pytest.approx(expected, rel=TOL, abs=TOL)


def relabel_environment(env: Environment, perm: tuple) -> Environment:
    """The same environment with label v renamed perm[v] in every law."""
    inv = np.argsort(perm)

    def moved(channel: Channel) -> Channel:
        return Channel.from_matrix(env.q_space, env.q_space, channel.matrix()[inv][:, inv])

    return Environment(
        q_space=env.q_space,
        prior=Distribution.from_array(env.q_space, env.prior.as_array()[inv]),
        high_channel=moved(env.high_channel),
        trusted_channel=moved(env.trusted_channel),
        low_channel=moved(env.low_channel),
        effort_cost=env.effort_cost,
        n_agents=env.n_agents,
        n_objects=env.n_objects,
        env_id=f"{env.env_id}-relabelled",
    )


def relabel_strategy(strategy: Strategy, perm: tuple) -> Strategy:
    """Observe perm[v] where the strategy observed v, and report perm[r] for r."""
    inv = np.argsort(perm)
    return Strategy(strategy.effort, tuple(int(perm[strategy.report_map[inv[v]]]) for v in range(len(perm))))


@settings(max_examples=15)
@given(seed=st.integers(0, 2**32 - 1), perm=st.permutations(range(3)))
def test_tables_permute_with_the_labels(seed, perm):
    env = random_environment(np.random.default_rng(seed), 3, correlated_low=True)
    relabelled = relabel_environment(env, tuple(perm))
    strategies = enumerate_pure_strategies(3)
    image = [strategies.index(relabel_strategy(s, perm)) for s in strategies]
    for spec in K3_SPECS:
        table = table_or_error(lambda: unchecked_block(spec, env, strategies, strategies))
        moved = table_or_error(lambda: unchecked_block(spec, relabelled, strategies, strategies))
        if isinstance(table, str) or isinstance(moved, str):
            assert moved == table, spec_id(spec)
            continue
        # Log-score sentinels (-1e9) make some cells large; compare them relatively.
        np.testing.assert_allclose(
            moved[np.ix_(image, image)], table, rtol=TOL, atol=TOL, err_msg=spec_id(spec)
        )


def full_gate() -> int:
    """The oracle comparison on every acceptance environment, every kind and rule."""
    envs = [reference_environment()] + _random_acceptance_environments()
    failures = 0
    for env in envs:
        for spec in SPECS if len(env.q_space) == 2 else K3_SPECS:
            try:
                compare_with_oracle(spec, env)
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {env.env_id} {spec_id(spec)}: {exc}")
    print(f"{len(envs)} environments, {failures} failing tables")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(full_gate())
