"""The batched exact engine against independent oracles.

* The per-cell evaluators in ``per_cell_oracle`` rebuild every table cell
  with loops over observations; the batched tables must equal them to 1e-12.
* At k=4 and k=5 a seeded sample of (deviant, base) cells of every kind and rule
  must equal the per-cell evaluators to the same tolerances.
* Relabelling an environment's labels must permute every table to match: the
  gathered (deviant, base) matrix at k=3, and the per-observation terms V and
  A at k=4 and k=5.

The oracle comparison runs here on the reference environment and two k=3
acceptance environments, on the (deviant, base) matrix gathered from the
per-observation rewards.  ``python tests/test_exact_engine.py`` runs it on
all 21 acceptance environments, and also compares the batched belief tables
with the per-base ``peer_report_posterior`` there.

The table bytes of every kind on the seeded environment of the benchmark's
sweeps are pinned at k = 2..5, so a change to how tables are built must keep
every entry.
"""

import hashlib
import sys

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
from peerspot._expectations import audit_rewards, strategy_rewards
from peerspot.acceptance import _random_acceptance_environments
from peerspot.equilibrium import compute_payoff_table
from peerspot.harness import generate_environments
from peerspot.mechanisms import unchecked_rewards
from peerspot.strategies import peer_report_posteriors, pure_strategy_arrays, strategy_arrays

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
    arrays = strategy_arrays(strategies, len(env.q_space))
    return gather_unchecked(unchecked_rewards(spec, env, arrays), *arrays)


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


# SHA-256 (first 16 hex digits) of each table's ``unchecked_terms``, ``audit_terms``, ``own``
# and ``spot`` bytes, or the package error its build raises, on the seed-3 environment of
# the benchmark's sweeps at each k, for every kind and rule that applies there.
TABLE_DIGESTS = {
    2: {
        "output_agreement": "4e024ee682d8c60a",
        "peer_truth_serum": "3754a276324527d8",
        "correlated_agreement": "aee6b43abb84faf0",
        "sqrt_scaled_agreement": "ebdda1ead99e06f3",
        "double_mixed_agreement": "c4a20aceb94f3143",
        "robust_bts.quadratic": "5a6217cdbc277a05",
        "robust_bts.log": "604d9c0ab428e0c2",
        "multi_valued_robust_bts.quadratic": "856b809590d2576e",
        "multi_valued_robust_bts.log": "08387e5c41ff490d",
        "divergence_bts.quadratic": "853a97bd38fc1fb1",
        "divergence_bts.log": "c74bd4916f9445dc",
        "minimum_truth_serum.quadratic": "ab7d30e41ec302a7",
        "minimum_truth_serum.log": "fa41b832a289708f",
        "peer_insensitive": "e77e6912b9a1685e",
    },
    3: {
        "output_agreement": "5dd802a65209dbd6",
        "peer_truth_serum": "369143fce450fcce",
        "correlated_agreement": "913fad17e807f813",
        "sqrt_scaled_agreement": "63eee3ed0135bf87",
        "double_mixed_agreement": "50d20365b7eb97d2",
        "multi_valued_robust_bts.quadratic": "6e5afe300ac4063f",
        "multi_valued_robust_bts.log": "cd836a2da30093b8",
        "divergence_bts.quadratic": "0e1b294b39364821",
        "divergence_bts.log": "5391df5b558fe7d0",
        "minimum_truth_serum.quadratic": "07a687a8f297d7ec",
        "minimum_truth_serum.log": "c01b8b998117c8d8",
        "peer_insensitive": "54362e7f33a50732",
    },
    4: {
        "output_agreement": "856ae9b6a0ffde6c",
        "peer_truth_serum": "7f2e0930c3c782fb",
        "correlated_agreement": "37019450f5da899e",
        "sqrt_scaled_agreement": "745009fae20bf207",
        "double_mixed_agreement": "32a1a2c84a6e0c67",
        "multi_valued_robust_bts.quadratic": "17b8513051d7e77e",
        "multi_valued_robust_bts.log": "c67fa213cef217ca",
        "divergence_bts.quadratic": "e0a5c003d4d11a89",
        "divergence_bts.log": "f70ec311b59504cf",
        "minimum_truth_serum.quadratic": "5530e6358590aaf5",
        "minimum_truth_serum.log": "ffcc62861b650ab1",
        "peer_insensitive": "87624074fa7f2fe7",
    },
    5: {
        "output_agreement": "7ed032bb1a9a19ee",
        "peer_truth_serum": "fff06daeb4f9ddc0",
        "correlated_agreement": "09ef48331da83d19",
        "sqrt_scaled_agreement": "3a4096a556f1da8f",
        "double_mixed_agreement": "fb07d061bba1b870",
        "multi_valued_robust_bts.quadratic": "6d775430cc00dc4d",
        "multi_valued_robust_bts.log": "56120caea1a2d269",
        "divergence_bts.quadratic": "13ddf5206ef05d68",
        "divergence_bts.log": "fbcfbc3b1a078918",
        "minimum_truth_serum.quadratic": "5708708b52b17522",
        "minimum_truth_serum.log": "132826bf0e51db6a",
        "peer_insensitive": "39c6c212fdd99bc6",
    },
}


def table_digest(spec: MechanismSpec, env: Environment) -> str:
    try:
        table = compute_payoff_table(spec, env)
    except PeerSpotError as exc:
        return type(exc).__name__
    digest = hashlib.sha256()
    for array in (table.unchecked_terms, table.audit_terms, table.own, table.spot):
        digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("labels", sorted(TABLE_DIGESTS))
def test_table_bytes_are_pinned(labels):
    env = generate_environments(labels, 1, seed=3, prefix="bench")[0]
    assert {spec_id(spec): table_digest(spec, env) for spec in specs_for(env)} == TABLE_DIGESTS[labels]


SAMPLED_CELLS = 32  # (deviant, base) cells per kind, rule and label count


@pytest.mark.parametrize("spec", K3_SPECS, ids=spec_id)
@pytest.mark.parametrize("labels", [4, 5])
def test_sampled_cells_match_per_cell_oracle(labels, spec):
    """A seeded sample of cells on the seed-3 environment of the benchmark's sweeps: the
    batched engine, run on the sampled bases only, against the per-cell evaluators.  The
    cost grows with the sample, not with S^2."""
    env = generate_environments(labels, 1, seed=3, prefix="bench")[0]
    efforts, maps = pure_strategy_arrays(labels)
    rng = np.random.default_rng((labels, K3_SPECS.index(spec)))
    deviants, bases = rng.integers(len(efforts), size=(2, SAMPLED_CELLS))
    terms = unchecked_rewards(spec, env, (efforts[bases], maps[bases]))
    batched = strategy_rewards(terms, efforts[deviants], maps[deviants], np.arange(SAMPLED_CELLS))
    strategy = lambda s: Strategy(list(Effort)[efforts[s]], maps[s])
    oracle = np.array([oracle_value(spec, env, strategy(g), strategy(d)) for d, g in zip(deviants, bases)])
    assert_matches_oracle(batched, oracle)


def relabel_environment(env: Environment, perm: tuple) -> Environment:
    """The same environment with label v renamed perm[v] in every law."""
    inv = np.argsort(perm)

    def moved(channel: Channel) -> Channel:
        return Channel.from_matrix(env.q_space, channel.matrix()[inv][:, inv])

    return Environment(
        q_space=env.q_space,
        prior=Distribution.from_array(env.q_space, env.prior.as_array()[inv]),
        high_channel=moved(env.high_channel),
        trusted_channel=moved(env.trusted_channel),
        low_channel=moved(env.low_channel),
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


def relabelled_indices(k: int, perm: np.ndarray) -> np.ndarray:
    """Canonical index of ``relabel_strategy``'s image of every pure strategy over k labels,
    computed on the (efforts, maps) arrays: strategy g maps to image[g]."""
    efforts, maps = pure_strategy_arrays(k)
    per_effort = k**k
    place = k ** np.arange(k - 1, -1, -1)  # a map's rank in lexicographic order is maps @ place
    position_of_rank = np.empty(per_effort, dtype=int)
    position_of_rank[maps[:per_effort] @ place] = np.arange(per_effort)
    moved = perm[maps[:, np.argsort(perm)]]  # observe perm[v] where the strategy observed v
    return efforts * per_effort + position_of_rank[moved @ place]


def centred(terms: np.ndarray) -> tuple:
    """Per-observation terms split into their part that depends on the report, centred over
    the reports, and each (base, effort)'s sum over observations of the rest.  A reward paid
    whatever the deviant reports sits at observation 0 by convention (peer truth serum's
    alpha, double-mixed agreement's 1/2, the peer-insensitive payment), which no relabelling
    moves; this split leaves it out of the terms and keeps every strategy's reward."""
    level = terms.mean(axis=-1, keepdims=True)
    return terms - level, level.sum(axis=(-2, -1))


@settings(max_examples=3)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
@pytest.mark.parametrize("labels", [4, 5])
def test_terms_permute_with_the_labels(labels, seed, data):
    """Relabelling the environment by pi moves V[g, e, o, r] to V[pi.g, e, pi(o), pi(r)] (terms
    centred as in ``centred``; the per-(g, e) totals to [pi.g, e]) and A[e, o, r] to
    A[e, pi(o), pi(r)]: O(S k^2) per kind, with no S x S gather."""
    perm = np.array(data.draw(st.permutations(range(labels))))
    env = random_environment(np.random.default_rng(seed), labels, correlated_low=True)
    relabelled = relabel_environment(env, tuple(perm))
    image = relabelled_indices(labels, perm)
    strategies = enumerate_pure_strategies(labels)
    for g in np.random.default_rng(seed).choice(len(strategies), size=20, replace=False):
        assert strategies[image[g]] == relabel_strategy(strategies[g], tuple(perm))
    moved_audit = audit_rewards(relabelled)[:, perm][:, :, perm]
    np.testing.assert_allclose(moved_audit, audit_rewards(env), rtol=TOL, atol=TOL)
    bases = pure_strategy_arrays(labels)
    for spec in K3_SPECS:
        terms = table_or_error(lambda: centred(unchecked_rewards(spec, env, bases)))
        moved = table_or_error(lambda: centred(unchecked_rewards(spec, relabelled, bases)))
        if isinstance(terms, str) or isinstance(moved, str):
            assert moved == terms, spec_id(spec)
            continue
        (moved_terms, moved_totals), (terms, totals) = moved, terms
        # Log-score sentinels (-1e9) make some cells large; compare them relatively.
        np.testing.assert_allclose(
            moved_terms[image][:, :, perm][:, :, :, perm], terms, rtol=TOL, atol=TOL, err_msg=spec_id(spec)
        )
        np.testing.assert_allclose(moved_totals[image], totals, rtol=TOL, atol=TOL, err_msg=spec_id(spec))


def posterior_gap(env: Environment) -> float:
    """Largest difference between the batched belief tables and the per-base oracle."""
    strategies = enumerate_pure_strategies(env.q_space)
    batched = peer_report_posteriors(env, strategy_arrays(strategies, len(env.q_space)))
    oracle = np.stack([[peer_report_posterior(env, e, base) for base in strategies] for e in Effort])
    return float(np.abs(batched - oracle).max())


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
    sys.exit(full_gate())
