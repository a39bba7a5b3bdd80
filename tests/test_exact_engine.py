"""The batched exact engine against independent oracles.

* The per-cell evaluators in ``per_cell_oracle`` rebuild every table cell
  with loops over observations; the batched tables must equal them to 1e-12.
* Relabelling an environment's labels must permute every table to match.

The oracle comparison runs here on the reference environment and two k=3
acceptance environments, on the (deviant, base) matrix gathered from the
per-observation rewards.  ``python tests/test_exact_engine.py`` runs it on
all 21 acceptance environments, and also compares the batched belief tables
with the per-base ``peer_report_posterior`` there.  It first prints the
payoff-table build time and tracemalloc peak for each (k, kind), k = 2..5,
on the seeded environment of the benchmark's sweeps.
"""

import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peerspot import (
    LOGARITHMIC,
    Channel,
    Distribution,
    Effort,
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
from peerspot.equilibrium import compute_payoff_table
from peerspot.harness import generate_environments
from peerspot.mechanisms import unchecked_rewards
from peerspot.strategies import effort_indices, peer_report_posteriors

from conftest import K3_SPECS, random_environment, spec_id, specs_for
from grid_solvers import gather_unchecked
from per_cell_oracle import oracle_table, oracle_value, peer_report_posterior

TOL = 1e-12
# Log-score sentinels (-1e9) make some cells about -1e8, where float spacing is 1.5e-8;
# only those cells are compared relatively, to a few units of rounding.
SENTINEL_SCALE = 1e6
SENTINEL_RTOL = 1e-15


def unchecked_block(spec: MechanismSpec, env: Environment, strategies: list) -> np.ndarray:
    """The (deviant, base) matrix over ``strategies``, gathered from the per-observation rewards."""
    maps = np.array([s.report_map for s in strategies], dtype=int)
    return gather_unchecked(unchecked_rewards(spec, env, strategies), effort_indices(strategies), maps)


def table_or_error(build):
    """The table, or the name of the package error raised while building it."""
    try:
        return build()
    except PeerSpotError as exc:
        return type(exc).__name__


def compare_with_oracle(spec: MechanismSpec, env: Environment) -> None:
    strategies = enumerate_pure_strategies(env.q_space)
    batched = table_or_error(lambda: unchecked_block(spec, env, strategies))
    oracle = table_or_error(lambda: oracle_table(spec, env, strategies))
    if isinstance(oracle, str) or isinstance(batched, str):
        assert batched == oracle
        return
    assert_matches_oracle(batched, oracle)


def assert_matches_oracle(batched: np.ndarray, oracle: np.ndarray) -> None:
    """Every cell within TOL of the oracle's, but sentinel-scale cells within SENTINEL_RTOL."""
    sentinel = np.abs(oracle) >= SENTINEL_SCALE
    np.testing.assert_allclose(batched[~sentinel], oracle[~sentinel], rtol=0.0, atol=TOL)
    np.testing.assert_allclose(batched[sentinel], oracle[sentinel], rtol=SENTINEL_RTOL, atol=0.0)


ORACLE_ENVS = {"e1": reference_environment()}
ORACLE_ENVS.update({env.env_id: env for env in _random_acceptance_environments()[10:12]})
ORACLE_CASES = [(env_id, spec) for env_id, env in ORACLE_ENVS.items() for spec in specs_for(env)]


@pytest.mark.parametrize(
    "env_id,spec", ORACLE_CASES, ids=[f"{env_id}-{spec_id(spec)}" for env_id, spec in ORACLE_CASES]
)
def test_batched_table_matches_per_cell_oracle(env_id, spec):
    compare_with_oracle(spec, ORACLE_ENVS[env_id])


def test_log_divergence_bts_table_builds():
    """An unbounded log divergence exceeds theta instead of failing the table."""
    spec = MechanismSpec(MechanismKind.DIVERGENCE_BTS, rule=LOGARITHMIC)
    env = ORACLE_ENVS["e1"]
    strategies = enumerate_pure_strategies(env.q_space)
    batched = unchecked_block(spec, env, strategies)
    assert_matches_oracle(batched, oracle_table(spec, env, strategies))


@pytest.mark.parametrize("spec", K3_SPECS, ids=[spec_id(s) for s in K3_SPECS])
def test_single_cell_is_a_block_entry(spec):
    env = ORACLE_ENVS["acc-q3-s202-0"]
    strategies = enumerate_pure_strategies(env.q_space)
    picks = [0, 7, 26, 27, 40, 53]
    block = table_or_error(lambda: unchecked_block(spec, env, strategies))
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
        table = table_or_error(lambda: unchecked_block(spec, env, strategies))
        moved = table_or_error(lambda: unchecked_block(spec, relabelled, strategies))
        if isinstance(table, str) or isinstance(moved, str):
            assert moved == table, spec_id(spec)
            continue
        # Log-score sentinels (-1e9) make some cells large; compare them relatively.
        np.testing.assert_allclose(
            moved[np.ix_(image, image)], table, rtol=TOL, atol=TOL, err_msg=spec_id(spec)
        )


def posterior_gap(env: Environment) -> float:
    """Largest difference between the batched belief tables and the per-base oracle."""
    strategies = enumerate_pure_strategies(env.q_space)
    batched = peer_report_posteriors(env, strategies)
    oracle = np.stack([[peer_report_posterior(env, e, base) for base in strategies] for e in Effort])
    return float(np.abs(batched - oracle).max())


def table_build_layer(labels=(2, 3, 4, 5), repeats: int = 3) -> None:
    """Print the payoff-table build time (best of ``repeats``) and its tracemalloc peak
    per (k, kind), on the seed-3 environment the benchmark's sweeps generate."""
    for k in labels:
        env = generate_environments(k, 1, seed=3, prefix="bench")[0]
        for spec in specs_for(env):
            if spec.rule is LOGARITHMIC:
                continue
            try:
                seconds = min(_timed(lambda: compute_payoff_table(spec, env)) for _ in range(repeats))
            except PeerSpotError as exc:
                print(f"table k={k} {spec_id(spec)}: {type(exc).__name__}")
                continue
            tracemalloc.start()
            try:
                compute_payoff_table(spec, env)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            print(f"table k={k} {spec_id(spec)}: {seconds * 1e3:.1f} ms, tracemalloc peak {peak / 2**20:.2f} MB")


def _timed(build) -> float:
    start = time.perf_counter()
    build()
    return time.perf_counter() - start


def full_gate() -> int:
    """The oracle comparison on every acceptance environment, every kind and rule."""
    envs = [reference_environment()] + _random_acceptance_environments()
    failures = 0
    gaps = {env.env_id: posterior_gap(env) for env in envs}
    for env_id, gap in gaps.items():
        if gap > TOL:
            failures += 1
            print(f"FAIL {env_id} belief tables: largest difference {gap:.3g}")
    print(f"belief tables: largest difference from the per-base oracle {max(gaps.values()):.3g}")
    for env in envs:
        for spec in specs_for(env):
            try:
                compare_with_oracle(spec, env)
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {env.env_id} {spec_id(spec)}: {exc}")
    print(f"{len(envs)} environments, {failures} failing tables")
    return 1 if failures else 0


if __name__ == "__main__":
    table_build_layer()
    sys.exit(full_gate())
