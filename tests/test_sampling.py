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
* Estimates are pinned: ``pinned_estimates.json`` holds ``float.hex`` of the
  value and stderr of every kind and rule at k=2, 3 and 4, and a change that
  only makes the sampler faster must reproduce them exactly.

``python tests/test_sampling.py`` prints samples per second per kind at k=2,
3 and 4, the number of pinned estimates that differ, and per kind the largest
|z| of four seeded off-diagonal k=4 cells against the exact engine; it exits
1 unless no estimate differs and every kind but the limit-model ones (peer
truth serum, sqrt-scaled and double-mixed agreement) is within 4 sigma.
"""

import json
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from peerspot import (
    Effort,
    LabelSpace,
    MechanismKind,
    MechanismSpec,
    StrategyProfile,
    analytic_unchecked_value,
    enumerate_pure_strategies,
    generate_environments,
    low_identity_strategy,
    NonBinaryLabelSpace,
    ShapeMismatch,
    Strategy,
    reference_environment,
    simulate_utilities,
    truthful_strategy,
)
from peerspot import _sampling
from peerspot._sampling import CHUNK, _draw_prior, _draw_rows, _Laws
from peerspot.harness import example_config_path, load_config
from peerspot.mechanisms import KINDS
from peerspot.strategies import MAX_LABELS

import block_draws
from conftest import K3_SPECS, SPECS, random_environment, spec_id, specs_for
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
    reports = np.stack([np.array(s.report_map)[obs[:, a]] for a, s in enumerate(strategies)], axis=1)
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


CELL_CASES = [(k, spec) for k in (2, 3) for spec in SPECS if k == 2 or not KINDS[spec.kind].binary_only]
# (base, deviant) indices into the k=3 strategy enumeration: 0 is truthful,
# 7 full effort with labels 1 and 2 swapped, 27 low identity, 40 always 1 without effort.
K3_OFF_DIAGONAL = ((0, 7), (27, 0), (7, 40), (40, 27))
# Kinds whose exact value is a many-agent or many-object limit, while the sampler
# draws the environment's own n and m: at k=4 their |z| is printed, not gated, since
# a miss there measures the limit gap rather than the sampler.
LIMIT_MODEL_KINDS = (
    MechanismKind.PEER_TRUTH_SERUM,
    MechanismKind.SQRT_SCALED_AGREEMENT,
    MechanismKind.DOUBLE_MIXED_AGREEMENT,
)


def off_diagonal_cells(k: int) -> list:
    """(base, deviant) pairs: at k=2 the truthful and low-identity columns, at k=3 four
    cells, at k=4 four seeded cells whose bases report every label (so that minimum
    truth serum's proxy and the double-mixed holdout are exercised), two with effort
    and two without, against seeded deviants."""
    strategies = enumerate_pure_strategies(k)
    if k == 3:
        return [(strategies[g], strategies[d]) for g, d in K3_OFF_DIAGONAL]
    if k == 4:
        rng = np.random.default_rng(4)
        efforts = (Effort.FULL, Effort.FULL, Effort.NONE, Effort.NONE)
        bases = [Strategy(effort, tuple(rng.permutation(k).tolist())) for effort in efforts]
        return [(base, strategies[d]) for base, d in zip(bases, rng.choice(len(strategies), size=4, replace=False))]
    bases = (truthful_strategy(k), low_identity_strategy(k))
    return [(base, deviant) for base in bases for deviant in strategies if deviant != base]


def cell_estimates(k: int, spec) -> list:
    """(base, deviant, estimate, exact value) of each off-diagonal cell at k, on 1000
    objects and 10 agents (400 for peer truth serum, whose exact value is the many-agent
    limit)."""
    env = replace(random_environment(np.random.default_rng(3), k, correlated_low=True), n_agents=10, n_objects=1000)
    if spec.kind is MechanismKind.PEER_TRUTH_SERUM:
        env = replace(env, n_agents=400)
    cells = []
    for seed, (base, deviant) in enumerate(off_diagonal_cells(k)):
        exact = analytic_unchecked_value(spec, env, base, deviant)
        est = simulate_utilities(spec, env, StrategyProfile.with_deviant(base, deviant), trials=10_000, seed=seed)
        cells.append((base, deviant, est, exact))
    return cells


def cell_id(k: int, spec) -> str:
    return spec_id(spec) if k == 3 else f"k{k}-{spec_id(spec)}"


@pytest.mark.parametrize("k,spec", CELL_CASES, ids=[cell_id(k, spec) for k, spec in CELL_CASES])
def test_off_diagonal_cells_match_exact_engine(k, spec):
    for base, deviant, est, exact in cell_estimates(k, spec):
        assert abs(est.value - exact) <= 4.0 * est.stderr + ROUNDING, (base.describe(), deviant.describe(), est, exact)


def largest_z(k: int, spec) -> float:
    """Largest |estimate - exact| / stderr over the off-diagonal cells at k; a zero-variance
    estimate counts as 0 within ROUNDING of the exact value and as infinite beyond it."""
    largest = 0.0
    for _, _, est, exact in cell_estimates(k, spec):
        gap = abs(est.value - exact)
        if est.stderr > 0:
            largest = max(largest, gap / est.stderr)
        elif gap > ROUNDING:
            largest = np.inf
    return largest


@st.composite
def law_matrices(draw) -> np.ndarray:
    """k x k matrices, k = 2..4, whose rows are each row-stochastic, short of one
    by 1e-12, all zero (a double-mixed row without mass) or carry a weight of -1e-10."""
    k = draw(st.integers(2, 4))
    rows = []
    for _ in range(k):
        shape = draw(st.sampled_from(("stochastic", "short", "zero", "negative")))
        weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k))) + 1e-3
        row = weights / weights.sum()
        if shape == "short":
            row = row * (1.0 - 1e-12)
        elif shape == "zero":
            row = np.zeros(k)
        elif shape == "negative":
            negative = draw(st.integers(0, k - 1))
            row = row * (1.0 + 1e-10) / (1.0 - row[negative])
            row[negative] = -1e-10
        rows.append(row)
    return np.array(rows)


@given(law_matrices(), st.data())
def test_column_draw_matches_block_draw(matrix, data):
    k = len(matrix)
    rows = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=300)))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _draw_rows(rng, np.cumsum(matrix, axis=1), rows)
    want = block_draws.draw_rows(reference_rng, matrix, rows)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert rng.bit_generator.state == reference_rng.bit_generator.state


@given(law_matrices(), st.data())
def test_column_count_matches_block_count_at_cdf_edges(matrix, data):
    """Uniform draws on and next to each CDF entry, where a non-monotone CDF
    (a negative weight) or a row short of one changes the count."""
    k = len(matrix)
    cdf = np.cumsum(matrix, axis=1)
    row = data.draw(st.integers(0, k - 1))
    edges = np.concatenate([cdf[row], np.nextafter(cdf[row], 0.0), np.nextafter(cdf[row], 2.0), [0.0]])
    u = np.clip(edges, 0.0, np.nextafter(1.0, 0.0))
    rows = np.full(len(u), row)
    got = _sampling._categorical(u, (column[rows] for column in cdf.T), k)
    want = np.minimum((u[:, None] > cdf[rows]).sum(axis=1), k - 1)
    assert np.array_equal(got, want)


@given(st.integers(2, 4), st.integers(0, 2**32 - 1), st.integers(1, 300))
def test_column_prior_draw_matches_block_draw(k, seed, size):
    env = random_environment(np.random.default_rng(seed), k, correlated_low=True)
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _draw_prior(rng, _Laws.of(env), size)
    want = block_draws.draw_prior(reference_rng, env.prior.as_array(), size)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("rule", ["quadratic", "log"])
@pytest.mark.parametrize("name", ["truthful", "truthful-vs-low"])
def test_minimum_truth_serum_grouped_rows_score_as_each_sample(monkeypatch, rule, name):
    """Scoring each distinct (observation, peer counts) row once gives the bits of scoring
    every sample, so which of the two the row count selects does not show in an estimate."""
    spec = next(s for s in K3_SPECS if s.kind == MechanismKind.MINIMUM_TRUTH_SERUM and s.rule.name == rule)
    estimates = []
    for rows in (0, CHUNK + 1):  # group every chunk; score every sample
        monkeypatch.setattr(_sampling._Sampler, "_mts_rows", rows)
        estimates.append(simulate_utilities(spec, ENVS[3], profiles(3)[name], trials=CHUNK + 1_000, seed=5))
    assert estimates[0] == estimates[1]


# The most agents at which minimum truth serum groups a full chunk's rows under effort,
# k * C(n + k - 2, k - 1) < CHUNK, for every k up to MAX_LABELS.
LARGEST_GROUPED_AGENTS = {2: 9_999, 3: 114, 4: 30, 5: 16}


def test_largest_grouped_agents_follow_the_row_count_selection():
    assert sorted(LARGEST_GROUPED_AGENTS) == list(range(2, MAX_LABELS + 1))
    spec = MechanismSpec(MechanismKind.MINIMUM_TRUTH_SERUM)
    for k, largest in LARGEST_GROUPED_AGENTS.items():
        env = random_environment(np.random.default_rng(k), k)
        profile = StrategyProfile.symmetric(truthful_strategy(k))
        rows = [_sampling._Sampler(spec, replace(env, n_agents=n), profile)._mts_rows for n in (largest, largest + 1)]
        assert rows[0] < CHUNK <= rows[1], (k, rows)


@given(
    st.sampled_from(sorted(LARGEST_GROUPED_AGENTS)),
    st.booleans(),
    st.booleans(),
    st.integers(0, 2**32 - 1),
    st.integers(1, 300),
)
@example(k=2, full_effort=True, at_largest=True, seed=0, size=300)
@example(k=3, full_effort=True, at_largest=True, seed=0, size=300)
@example(k=4, full_effort=True, at_largest=True, seed=0, size=300)
@example(k=5, full_effort=True, at_largest=True, seed=0, size=300)
@example(k=5, full_effort=False, at_largest=True, seed=0, size=300)
def test_peer_row_grouping_matches_numpy_unique(k, full_effort, at_largest, seed, size):
    """(observation, peer counts) rows from a small pool, so rows repeat: under effort
    compositions of n - 1 for n up to the most agents the selection groups at k, corners
    included; without effort n - 1 on the shared draw, for n up to a billion."""
    rng = np.random.default_rng(seed)
    largest = LARGEST_GROUPED_AGENTS[k] if full_effort else 10**9
    n = largest if at_largest else int(rng.integers(3, largest + 1))
    pool = int(rng.integers(1, 13))
    corners = (n - 1) * np.eye(k, dtype=int)
    if full_effort:
        compositions = rng.multinomial(n - 1, rng.dirichlet(np.full(k, 0.5)), size=pool)
        counts = np.concatenate([compositions, corners])
    else:
        counts = corners
    obs = rng.integers(0, k, len(counts))
    pick = rng.integers(0, len(counts), size)
    obs, counts = obs[pick], counts[pick]
    rows, position = _sampling._group_peer_rows(obs, counts, n, full_effort)
    want, inverse = np.unique(np.column_stack([obs, counts]), axis=0, return_inverse=True)
    assert np.array_equal(np.column_stack([obs[rows], counts[rows]]), want)
    assert np.array_equal(position, inverse.reshape(-1))


def setup_cases() -> list:
    """(spec, env, profile, seed) over two k=3 environments, the truthful and the
    low-identity base and both profiles, interleaved so that consecutive cases change the
    environment or the base; between them the kinds read every table of a set-up."""
    specs = [
        next(s for s in K3_SPECS if s.kind == kind and s.rule.name == rule)
        for kind, rule in (
            (MechanismKind.DIVERGENCE_BTS, "log"),
            (MechanismKind.MINIMUM_TRUTH_SERUM, "quadratic"),
            (MechanismKind.CORRELATED_AGREEMENT, "quadratic"),
            (MechanismKind.DOUBLE_MIXED_AGREEMENT, "quadratic"),
            (MechanismKind.SQRT_SCALED_AGREEMENT, "quadratic"),
            (MechanismKind.PEER_TRUTH_SERUM, "quadratic"),
        )
    ]
    other = random_environment(np.random.default_rng(12), 3, correlated_low=True)
    envs = (ENVS[3], replace(other, n_agents=10, n_objects=30))
    truthful, low = truthful_strategy(3), low_identity_strategy(3)
    named = (
        StrategyProfile.symmetric(truthful),
        StrategyProfile.symmetric(low),
        StrategyProfile.with_deviant(truthful, low),
        StrategyProfile.with_deviant(low, truthful),
    )
    pairs = [(env, profile) for profile in named for env in envs]
    cases = [(spec, env, profile) for spec in specs for env, profile in pairs]
    return [case + (seed,) for seed, case in enumerate(cases)]


def estimates(cases, cold: bool = False) -> dict:
    """Estimate of each case by its seed, each from an empty set-up cache if ``cold``."""
    out = {}
    for spec, env, profile, seed in cases:
        if cold:
            _sampling._setup.cache_clear()
        out[seed] = simulate_utilities(spec, env, profile, trials=2_000, seed=seed)
    return out


def test_cached_setup_gives_the_estimates_of_a_cold_one():
    cases = setup_cases()
    cold = estimates(cases, cold=True)
    _sampling._setup.cache_clear()
    assert estimates(cases) == cold  # each (environment, base) first cold, then warm
    assert estimates(cases) == cold  # all warm
    assert estimates(cases[::-1]) == cold  # interleaved the other way round
    _sampling._setup.cache_clear()
    assert estimates(cases[::-1]) == cold


def test_evicted_setup_is_rebuilt_to_the_same_estimates():
    cases = setup_cases()[:8]  # every (environment, profile) pair once
    _sampling._setup.cache_clear()
    first = estimates(cases)
    spec, env, profile, _ = cases[0]
    for objects in range(31, 32 + _sampling.SETUP_CACHE_SIZE):  # distinct environments
        simulate_utilities(spec, replace(env, n_objects=objects), profile, trials=1, seed=0)
    assert _sampling._setup.cache_info().currsize == _sampling.SETUP_CACHE_SIZE
    misses = _sampling._setup.cache_info().misses
    assert estimates(cases) == first
    assert _sampling._setup.cache_info().misses > misses


def test_cached_arrays_are_read_only():
    cases = setup_cases()
    _sampling._setup.cache_clear()
    estimates(cases)
    setups = {(env, profile.base) for _, env, profile, _ in cases}
    built = set()
    for env, base in setups:
        setup = _sampling._setup(env, base)
        tables = {name: value for name, value in vars(setup).items() if isinstance(value, np.ndarray)}
        tables.update(setup.laws._asdict())
        tables.update({f"scores{key}": value for key, value in setup._scores.items()})
        tables.update({f"divergences{key}": value for key, value in setup._divergences.items()})
        built |= {name.split("(")[0] for name in tables}
        for name, table in tables.items():
            assert not table.flags.writeable, name
            with pytest.raises(ValueError):
                table.flat[0] = 0
    assert {"map", "beliefs", "scores", "divergences", "object_mass", "report_law", "marginal", "pair"} <= built
    assert {"second_given_first_cdf", "onehot", "prior_cdf", "high", "high_cdf", "low_cdf"} <= built


def test_sampler_names_every_kind_once():
    """One entry per kind of ``mechanisms.KINDS``, naming methods of the sampler; a kind read
    from a per-outcome table indexes it by two or three observations, at most k^3 outcomes."""
    assert list(_sampling.SAMPLER_KINDS) == list(KINDS)
    for entry in _sampling.SAMPLER_KINDS.values():
        assert callable(getattr(_sampling._Sampler, entry.chunk))
        if entry.reward is None:
            assert entry.coordinates == 0
        else:
            assert callable(getattr(_sampling._Sampler, entry.reward)) and 2 <= entry.coordinates <= 3


@pytest.mark.parametrize("trials", [True, 2.5, float("nan"), 0, -3, "10"])
def test_trials_must_be_a_positive_integer(monkeypatch, trials):
    monkeypatch.setattr(_sampling, "_Sampler", None)  # any draw would fail with a TypeError
    spec, profile = MechanismSpec(MechanismKind.OUTPUT_AGREEMENT), profiles(2)["truthful"]
    with pytest.raises(ShapeMismatch, match=r"^trials must be an integer of at least 1, got "):
        simulate_utilities(spec, ENVS[2], profile, trials=trials, seed=0)


@pytest.mark.parametrize("seed", [-1, 1.5, float("nan"), None, True, "3"])
def test_seed_must_be_a_nonnegative_integer(monkeypatch, seed):
    monkeypatch.setattr(_sampling, "_Sampler", None)
    spec, profile = MechanismSpec(MechanismKind.OUTPUT_AGREEMENT), profiles(2)["truthful"]
    with pytest.raises(ShapeMismatch, match=r"^seed must be an integer of at least 0, got "):
        simulate_utilities(spec, ENVS[2], profile, trials=10, seed=seed)


def test_binary_only_kind_is_refused_before_any_draw(monkeypatch):
    monkeypatch.setattr(_sampling, "_Sampler", None)
    spec, profile = MechanismSpec(MechanismKind.ROBUST_BTS), profiles(3)["truthful"]
    with pytest.raises(NonBinaryLabelSpace, match=r"^robust_bts is defined for binary label spaces only$"):
        simulate_utilities(spec, ENVS[3], profile, trials=10, seed=0)


def test_numpy_integer_trials_and_seed_accepted():
    spec, profile = MechanismSpec(MechanismKind.OUTPUT_AGREEMENT), profiles(2)["truthful"]
    est = simulate_utilities(spec, ENVS[2], profile, trials=np.int64(50), seed=np.uint32(7))
    assert est == simulate_utilities(spec, ENVS[2], profile, trials=50, seed=7)


@pytest.mark.parametrize("spec", SPECS, ids=spec_id)
def test_agents_and_objects_cost_nothing_per_agent_or_object(monkeypatch, spec):
    """A billion agents and objects: every count over them is drawn from its law, and no
    table or array grows with them.  Outcome grids beyond k^3 entries fail before they
    are allocated."""
    outcomes = _sampling._outcomes

    def small_outcomes(*sizes):
        assert np.prod(sizes) <= 2**3, sizes
        return outcomes(*sizes)

    monkeypatch.setattr(_sampling, "_outcomes", small_outcomes)
    env = replace(ENVS[2], n_agents=10**9, n_objects=10**9)
    tracemalloc.start()
    try:
        est = simulate_utilities(spec, env, profiles(2)["truthful"], trials=CHUNK + 1_000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(est.value) and np.isfinite(est.stderr)
    assert peak < 16 * 2**20, f"{peak / 2**20:.1f} MiB"


PINNED = Path(__file__).with_name("pinned_estimates.json")
PINNED_TRIALS = CHUNK + 1_000  # two chunks, so the chunk boundary is pinned too


def pinned_cases() -> list:
    """(id, spec, env, profile, seed) for every kind and rule at k=2, 3 and 4, under the
    truthful profile and with one low-identity deviant among truthful peers."""
    e1 = replace(load_config(example_config_path()).environments[0], n_agents=10, n_objects=100)
    k3 = generate_environments(labels=3, count=1, seed=1, n_agents=10, n_objects=100)[0]
    k4 = replace(random_environment(np.random.default_rng(4), 4, correlated_low=True), n_agents=10, n_objects=100)
    cases = []
    for env in (e1, k3, k4):
        k = len(env.q_space)
        truthful = truthful_strategy(k)
        named = {
            "truthful": StrategyProfile.symmetric(truthful),
            "low-identity-deviant": StrategyProfile.with_deviant(truthful, low_identity_strategy(k)),
        }
        for spec in specs_for(env):
            for name, profile in named.items():
                cases.append((f"k{k}-{spec_id(spec)}-{name}", spec, env, profile, len(cases)))
    return cases


def check_pinned() -> tuple:
    """Ids of the pinned estimates the sampler no longer reproduces bit for bit, and
    the seconds spent per (k, spec id) over both profiles."""
    doc = json.loads(PINNED.read_text())
    pinned, cases = doc["estimates"], pinned_cases()
    assert doc["trials"] == PINNED_TRIALS and sorted(pinned) == sorted(case[0] for case in cases)
    differences, seconds = [], {}
    for case_id, spec, env, profile, seed in cases:
        start = time.perf_counter()
        est = simulate_utilities(spec, env, profile, trials=PINNED_TRIALS, seed=seed)
        key = (len(env.q_space), spec_id(spec))
        seconds[key] = seconds.get(key, 0.0) + time.perf_counter() - start
        if [est.value.hex(), est.stderr.hex()] != pinned[case_id]:
            differences.append(case_id)
    return differences, seconds


def test_estimates_are_bit_identical():
    differences, _ = check_pinned()
    assert differences == []


def gate() -> int:
    """Print samples per second per kind, the pinned estimates that differ and each k=4
    kind's largest |z| over its off-diagonal cells; 1 unless no pin differs and every
    kind outside LIMIT_MODEL_KINDS stays within 4 sigma."""
    differences, seconds = check_pinned()
    for (k, name), spent in seconds.items():
        print(f"k{k} {name}: {2 * PINNED_TRIALS / spent:,.0f} samples/s")
    for case_id in differences:
        print("DIFFERS " + case_id)
    print(f"{len(differences)} of {len(pinned_cases())} pinned estimates differ")
    misses = 0
    for spec in K3_SPECS:
        z = largest_z(4, spec)
        excepted = spec.kind in LIMIT_MODEL_KINDS
        missed = z > 4.0 and not excepted
        misses += missed
        note = " (limit model, not gated)" if excepted else (" MISS" if missed else "")
        print(f"k4 {spec_id(spec)}: largest |z| {z:.2f} over {len(off_diagonal_cells(4))} cells{note}")
    gated = sum(spec.kind not in LIMIT_MODEL_KINDS for spec in K3_SPECS)
    print(f"{misses} of {gated} gated k=4 kinds outside 4 sigma")
    return 1 if differences or misses else 0


if __name__ == "__main__":
    sys.exit(gate())
