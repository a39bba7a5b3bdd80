"""Vectorized Monte-Carlo samplers for per-object mechanism rewards.

Each sample simulates the scored object as it happens: its quality, the
shared low draw and the observations of the agents whose reports the reward
reads.  Correlated, sqrt-scaled and double-mixed agreement draw what the
other objects contribute from its exact finite-sample law instead of
simulating them one by one: objects are i.i.d., so label counts over a set of
objects are multinomial, pair hits are binomial, and a report on an object
whose first report is known follows the pair law conditioned on it.  Peer
truth serum and minimum truth serum read the remaining peers on the scored
object only through how many of them observe each label, which is
multinomial given the quality under effort and a point mass at the shared
draw without.  Those laws are built here from the prior, the channels and
each strategy's report map, independently of the exact engine in
``_expectations``, so the samplers stay its oracle.  The numbers of objects,
agents and holdout samples enter exactly; nothing is a many-object limit.

Most kinds' rewards depend on a sample's draws only through a few discrete
observations, so those rewards are not computed per sample.  The chunk
evaluator draws, reduces every sample to the index of its outcome, and reads
the reward from a table that holds each outcome's reward once, computed by the
elementwise expressions a sample would run, so the estimates keep their bits.
The table is built on first use over (focal observation, peer observation)
for output agreement, the agreement term of correlated agreement and the
multi-valued and divergence BTS kinds, and over (focal, peer, third
observation) for robust BTS: at most k^3 entries, whatever the numbers of
agents and objects.  Minimum truth serum reads the full peer-count vector, so
each chunk groups its distinct (focal observation, peer counts) rows by one
packed integer key (``_group_peer_rows``) and scores each row once; it never
scores more rows than it draws.  Peer truth serum and sqrt-scaled agreement
read a count that ranges over the agents or the objects, and double-mixed
agreement and correlated agreement's cross term are dominated by their
multinomial draws, so these score each sample with the same reward methods
and no table.

Draws stream from a single seeded generator in fixed-size chunks, so an
estimate is reproducible per seed: the same seed and trial count give the
same bits.  A sampler is built once per (spec, environment, profile), the
estimate's own inputs, and kept in one cache of ``SAMPLER_CACHE_SIZE``
entries (``_sampler``); equal environments share an entry whatever their
``env_id``.  One table, ``SAMPLER_KINDS``, holds per kind its chunk
evaluator, its outcome table's reward and coordinates, and its size rule.
Building a sampler reads the environment's laws and both strategies' effort
positions and report maps and checks the kind's size rule, so a triple with
too few agents or objects raises before any draw and is never cached.
Everything else it reads is a read-only table built on first use, so a kind
pays only for the tables it reads: the belief, score and divergence tables,
the report laws, marginals and pair law on the objects around the scored
one, and the kind's outcome table.  Changes made for speed keep every
estimate bit-identical; ``tests/test_sampling.py`` pins a set of them by
``float.hex``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb
from typing import NamedTuple

import numpy as np

from .errors import NotEnoughObjects, TooFewAgents
from .mechanisms import MechanismKind, MechanismSpec, check_label_space
from .scoring import NEGATIVE_SENTINEL, divergence
from .signals import Environment, check_integer
from .strategies import FULL_EFFORT, StrategyProfile, peer_report_posteriors, strategy_arrays

CHUNK = 20_000

# Every chunk's rewards are kept and then concatenated, and the standard error takes one
# more array of deviations: 24 bytes per trial under tracemalloc (24.0 MB at 10^6
# trials), so the bound costs about 240 MB.
MAX_TRIALS = 10_000_000

# Cross-object holdout size per label for the double-mixed sampler; large
# enough that an all-labels-positive sample fails to be double mixed with
# negligible probability.
DOUBLE_MIXED_SAMPLES_PER_LABEL = 24

# Samplers kept at once: about 3 KB each at k=3 (tracemalloc), so under 1 MB in all.
# Room for the 52 estimates of a crosscheck pass over every kind and rule at k=2 and
# k=3, or for every focal strategy at k=3 (54) under four specs against one base.
SAMPLER_CACHE_SIZE = 256


@dataclass(frozen=True)
class UtilityEstimate:
    """Sample mean and its standard error of a per-object reward."""

    value: float
    stderr: float
    samples: int


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class _Laws(NamedTuple):
    """An environment's prior and channels as read-only arrays, read once per sampler."""

    prior_cdf: np.ndarray
    high: np.ndarray  # (quality, high signal)
    high_cdf: np.ndarray
    low_cdf: np.ndarray

    @classmethod
    def of(cls, env: Environment) -> "_Laws":
        high = env.high_channel.matrix()
        return cls(
            prior_cdf=_read_only(np.cumsum(env.prior.as_array())),
            high=_read_only(high),
            high_cdf=_read_only(np.cumsum(high, axis=1)),
            low_cdf=_read_only(np.cumsum(env.low_channel.matrix(), axis=1)),
        )


def _categorical(u: np.ndarray, columns, k: int) -> np.ndarray:
    """How many of the k CDF ``columns`` each ``u`` exceeds, capped at the last label.

    Counting one column at a time gives exactly what ``(u[:, None] > cdf).sum(axis=1)``
    gives, without the (samples, k) blocks, and needs no monotone CDF: weights
    may be as low as -PROB_ATOL.  The count is kept in int8, which holds any
    k <= MAX_LABELS, and each comparison is added as its int8 view, so no pass
    casts it.
    """
    out = np.zeros(u.shape, dtype=np.int8)
    for column in columns:
        out += (u > column).view(np.int8)
    return np.minimum(out, k - 1, out=out).astype(int)


def _draw_rows(rng: np.random.Generator, cdf: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """One categorical draw per entry of ``rows`` from the matching row of the row-wise CDF ``cdf``."""
    u = rng.random(rows.shape[0])
    return _categorical(u, (column[rows] for column in cdf.T), cdf.shape[1])


def _draw_prior(rng: np.random.Generator, laws: _Laws, size: int) -> np.ndarray:
    return _categorical(rng.random(size), laws.prior_cdf, len(laws.prior_cdf))


def _observe(rng: np.random.Generator, laws: _Laws, effort: int, q: np.ndarray, s_low: np.ndarray) -> np.ndarray:
    """Observations of an agent with effort position ``effort``: a fresh high draw under
    full effort, the shared low draw without."""
    if effort == FULL_EFFORT:
        return _draw_rows(rng, laws.high_cdf, q)
    return s_low.copy()


def _latents(rng: np.random.Generator, laws: _Laws, size: int):
    q = _draw_prior(rng, laws, size)
    s_low = _draw_rows(rng, laws.low_cdf, q)
    return q, s_low


def _outcomes(*sizes: int) -> tuple:
    """Every combination of the outcomes ``0 .. size - 1`` per coordinate, one flat array per
    coordinate in row-major order: with two coordinates, ``(a, b)`` sits at ``a * sizes[1] + b``."""
    return tuple(np.indices(sizes).reshape(len(sizes), -1))


def _group_peer_rows(obs: np.ndarray, counts: np.ndarray, n_agents: int, full_effort: bool) -> tuple:
    """One sample per distinct (observation, peer counts) row, in the order
    ``np.unique(rows, axis=0)`` sorts the rows, and each sample's position among them.

    Every row's counts sum to n - 1, so the last one is left out and the others are the
    digits of one integer key after the observation.  Under effort a count is below
    n_agents, the radix.  Without effort every peer observes the shared draw, so a count
    is 0 or n - 1 and one bit holds it.  Minimum truth serum groups only when
    k * C(n + k - 2, k - 1) < CHUNK, that is n <= 9,999, 114, 30 and 16 at k = 2-5, so the
    key stays below k * n^(k - 1) <= 3.3e5.  A dense rank over that bound costs two passes
    over the keys and one over the bound, several times less than sorting a chunk's keys.
    """
    k = counts.shape[1]
    radix = n_agents if full_effort else 2
    key = obs
    for column in counts[:, :-1].T:
        key = key * radix + (column if full_effort else column > 0)
    bound = k * radix ** (k - 1)
    seen = np.zeros(bound, dtype=bool)
    seen[key] = True
    distinct = np.flatnonzero(seen)
    rank = np.empty(bound, dtype=np.intp)
    rank[distinct] = np.arange(len(distinct))
    position = rank[key]
    representative = np.empty(len(distinct), dtype=np.intp)
    representative[position] = np.arange(len(key))
    return representative, position


def _report_law(laws: _Laws, effort: int, report_map: np.ndarray) -> np.ndarray:
    """P(report | quality, low draw) of one agent with effort position ``effort`` and map
    ``report_map``, shape (k, k, k)."""
    k = len(laws.high)
    onehot = np.eye(k)[report_map]  # (observation, report)
    if effort == FULL_EFFORT:
        return np.broadcast_to((laws.high @ onehot)[:, None, :], (k, k, k))
    return np.broadcast_to(onehot[None, :, :], (k, k, k))


class _KindEntry(NamedTuple):
    """How the sampler evaluates one kind: the name of its chunk evaluator and, for a kind
    whose chunk reads a per-outcome table, the name of the reward that fills it and the
    number of observation coordinates it is indexed by.  Names resolve on the sampler, so
    a subclass's overrides run.  A kind that draws from a least number of agents or
    objects has a size rule, checked when a sampler is built: the ``Environment`` field,
    its least value, and the error that refuses fewer, with its message."""

    chunk: str
    reward: str | None = None
    coordinates: int = 0
    size_rule: tuple | None = None


SAMPLER_KINDS = {
    MechanismKind.OUTPUT_AGREEMENT: _KindEntry("_chunk_tabulated", "_output_agreement", 2),
    MechanismKind.PEER_TRUTH_SERUM: _KindEntry("_chunk_peer_truth_serum"),
    # The table holds correlated agreement's agreement term.
    MechanismKind.CORRELATED_AGREEMENT: _KindEntry(
        "_chunk_correlated_agreement", "_output_agreement", 2,
        size_rule=(
            "n_objects", 3, NotEnoughObjects,
            "correlated-agreement sampling needs at least three objects for disjoint task sets",
        ),
    ),
    MechanismKind.SQRT_SCALED_AGREEMENT: _KindEntry(
        "_chunk_sqrt_scaled",
        size_rule=("n_agents", 4, TooFewAgents, "sqrt-scaled agreement sampling needs at least four agents"),
    ),
    MechanismKind.DOUBLE_MIXED_AGREEMENT: _KindEntry(
        "_chunk_double_mixed",
        size_rule=("n_objects", 3, NotEnoughObjects, "double-mixed agreement needs at least three objects"),
    ),
    MechanismKind.ROBUST_BTS: _KindEntry("_chunk_tabulated", "_robust_bts", 3),
    MechanismKind.MULTI_VALUED_ROBUST_BTS: _KindEntry("_chunk_tabulated", "_mv_robust_bts", 2),
    MechanismKind.DIVERGENCE_BTS: _KindEntry("_chunk_tabulated", "_divergence_bts", 2),
    MechanismKind.MINIMUM_TRUTH_SERUM: _KindEntry("_chunk_minimum_truth_serum"),
    MechanismKind.PEER_INSENSITIVE: _KindEntry("_chunk_peer_insensitive"),
}


class _Sampler:
    """Chunked reward sampler for one (mechanism, environment, profile) triple.

    Built once per triple by ``_sampler``.  The environment's laws and both strategies'
    effort positions and report maps are read when it is built, and the kind's size rule
    is checked there, before any draw.  Every table is built on first use, so a kind
    pays only for the ones it reads, and every table is read-only.
    """

    def __init__(self, spec: MechanismSpec, env: Environment, profile: StrategyProfile):
        self.spec = spec
        self.env = env
        self.k = len(env.q_space)
        self.laws = _Laws.of(env)
        efforts, maps = strategy_arrays([profile.base, profile.focal_strategy()], self.k)
        self.base_effort, self.focal_effort = int(efforts[0]), int(efforts[1])
        self.base_map, self.focal_map = _read_only(maps[0]), _read_only(maps[1])
        size_rule = SAMPLER_KINDS[spec.kind].size_rule
        if size_rule is not None:
            size, least, error, message = size_rule
            if getattr(env, size) < least:
                raise error(message)

    # -- tables read by the rewards ----------------------------------------

    @cached_property
    def beliefs(self) -> np.ndarray:
        """Belief table per holder effort position, shape (2, k, k): row v of table e is the
        law of a base peer's report given observation v under effort e."""
        return _read_only(peer_report_posteriors(self.env, (np.array([self.base_effort]), self.base_map[None]))[:, 0])

    @cached_property
    def beliefs_base(self) -> np.ndarray:
        return self.beliefs[self.base_effort]

    @cached_property
    def score_focal(self) -> np.ndarray:
        """The rule's score of each outcome after each focal observation, shape (observation, outcome)."""
        return _read_only(self.spec.rule.score_table(self.beliefs[self.focal_effort]))

    @cached_property
    def divergences(self) -> np.ndarray:
        """D(focal belief after observation a, base belief after observation b), shape (k, k)."""
        focal = self.beliefs[self.focal_effort]
        return _read_only(divergence(self.spec.rule, focal[:, None, :], self.beliefs_base[None, :, :]))

    # Report laws on an object other than the scored one.  Rounding can lift a
    # certain report's mass just above one, which numpy's samplers reject.

    @cached_property
    def object_mass(self) -> np.ndarray:
        return _read_only(self.env.prior.as_array()[:, None] * self.env.low_channel.matrix())  # (quality, low draw)

    @cached_property
    def report_law(self) -> np.ndarray:
        return _report_law(self.laws, self.base_effort, self.base_map)

    @cached_property
    def marginal(self) -> np.ndarray:
        return _read_only(np.minimum(np.einsum("ql,qlr->r", self.object_mass, self.report_law), 1.0))

    @cached_property
    def marginal_focal(self) -> np.ndarray:
        law = _report_law(self.laws, self.focal_effort, self.focal_map)
        return _read_only(np.minimum(np.einsum("ql,qlr->r", self.object_mass, law), 1.0))

    @cached_property
    def pair(self) -> np.ndarray:
        """pair[v, x]: two base agents on one object report v and x."""
        law = self.report_law
        return _read_only(np.minimum(np.einsum("ql,qlv,qlx->vx", self.object_mass, law, law), 1.0))

    @cached_property
    def second_given_first_cdf(self) -> np.ndarray:
        """Row-wise CDF of P(second base report | first = v) on one object; rows of
        labels without mass are never drawn from in a double-mixed sample."""
        mass = np.where(self.marginal > 0.0, self.marginal, 1.0)
        return _read_only(np.cumsum(self.pair / mass[:, None], axis=1))

    @cached_property
    def onehot(self) -> np.ndarray:
        return _read_only(np.eye(self.k, dtype=int)[self.base_map])  # (observation, base report)

    # -- helpers ----------------------------------------------------------

    def _pair_reports(self, rng, size):
        """The scored object's latents, then the focal agent's and one base peer's observations."""
        q, s_low = _latents(rng, self.laws, size)
        obs_i = _observe(rng, self.laws, self.focal_effort, q, s_low)
        obs_p = _observe(rng, self.laws, self.base_effort, q, s_low)
        return q, s_low, obs_i, obs_p

    def _peer_observation_counts(self, rng, q, s_low, peers: int) -> np.ndarray:
        """How many of ``peers`` base-strategy agents observe each label, shape (samples, k):
        multinomial given the quality under effort, all on the shared draw without."""
        if self.base_effort == FULL_EFFORT:
            return rng.multinomial(peers, self.laws.high[q])
        return peers * np.eye(self.k, dtype=int)[s_low]

    # -- outcome tables ---------------------------------------------------

    @cached_property
    def _table(self) -> np.ndarray:
        """The reward of every outcome of a kind whose outcomes form a fixed set, flat in the
        row-major order of the coordinates its chunk evaluator indexes by."""
        entry = SAMPLER_KINDS[self.spec.kind]
        return _read_only(getattr(self, entry.reward)(*_outcomes(*(self.k,) * entry.coordinates)))

    # -- per-kind rewards, one entry per outcome or per sample ---------------

    def _output_agreement(self, obs_i, obs_p):
        return (self.focal_map[obs_i] == self.base_map[obs_p]).astype(float)

    def _peer_truth_serum(self, match, same):
        """``match``: the focal report equals the chosen peer's; ``same``: how many of the
        other n - 2 agents report it too."""
        spec = self.spec
        freq = (1 + same + match) / self.env.n_agents
        return spec.alpha + spec.beta * match / freq

    def _sqrt_scaled(self, match, hit_counts):
        """``hit_counts``: objects, the scored one included, on which two base reports both
        equal the chosen peer's."""
        f_hat = np.sqrt(hit_counts / self.env.n_objects)
        live = (f_hat > 0.0) & (f_hat < 1.0)
        rewards = np.zeros(len(match))
        rewards[live] = match[live] * self.spec.scale / f_hat[live]
        return rewards

    def _robust_bts(self, obs_i, obs_j, obs_k):
        r_i = self.focal_map[obs_i]
        r_k = self.base_map[obs_k]
        p_one = self.beliefs_base[obs_j, 1]
        delta = np.minimum(p_one, 1.0 - p_one)
        shadow_one = np.where(r_i == 1, p_one + delta, p_one - delta)
        shadow = np.stack([1.0 - shadow_one, shadow_one], axis=1)
        shadow_scores = self.spec.rule.score_table(shadow)
        own = self.score_focal[obs_i, r_k]
        return shadow_scores[np.arange(len(obs_i)), r_k] + own

    def _mv_robust_bts(self, obs_i, obs_j):
        r_i = self.focal_map[obs_i]
        r_j = self.base_map[obs_j]
        b_j = self.beliefs_base[obs_j, r_i]
        match = np.zeros(len(obs_i))
        hit = r_i == r_j
        match[hit & (b_j > 0.0)] = 1.0 / b_j[hit & (b_j > 0.0)]
        match[hit & (b_j <= 0.0)] = NEGATIVE_SENTINEL
        return match + self.score_focal[obs_i, r_j]

    def _divergence_bts(self, obs_i, obs_j):
        r_i = self.focal_map[obs_i]
        r_j = self.base_map[obs_j]
        penalty = (r_i == r_j) & (self.divergences[obs_i, obs_j] > self.spec.theta)
        return self.score_focal[obs_i, r_j] - penalty.astype(float)

    def _minimum_truth_serum(self, obs_i, obs_counts):
        n_peers = self.env.n_agents - 1
        r_i = self.focal_map[obs_i]
        freq = obs_counts @ np.eye(self.k)[self.base_map] / n_peers  # peer report frequencies
        mean_own = (freq * self.score_focal[obs_i]).sum(axis=1)
        delta = freq[:, 0] > 0  # every label reported at least once
        for label in range(1, self.k):
            delta &= freq[:, label] > 0
        # Peers whose report equals r_i, counted per observation; their beliefs average to the proxy.
        same = obs_counts * (self.base_map[None, :] == r_i[:, None])
        same_total = same[:, 0].copy()
        for observation in range(1, self.k):
            same_total += same[:, observation]
        proxy = same @ self.beliefs_base / np.maximum(same_total, 1)[:, None]
        proxy_scores = self.spec.rule.score_table(proxy)
        mean_proxy = (freq * proxy_scores).sum(axis=1)
        rewards = np.where(delta, np.minimum(mean_own, mean_proxy), mean_own)
        if self.spec.mts_aggregation == "sum":
            rewards = rewards * n_peers
        return rewards

    # -- per-kind chunk evaluators: draws, then the outcome index ------------

    def chunk(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return getattr(self, SAMPLER_KINDS[self.spec.kind].chunk)(rng, size)

    def _chunk_peer_insensitive(self, rng, size):
        return np.full(size, self.spec.constant_reward)

    def _chunk_tabulated(self, rng, size):
        """Kinds whose reward reads only the focal agent's observation and those of one or
        two base peers on the scored object, the coordinates of the kind's table."""
        q, s_low, obs_i, obs_j = self._pair_reports(rng, size)
        index = obs_i * self.k + obs_j
        for _ in range(SAMPLER_KINDS[self.spec.kind].coordinates - 2):
            index = index * self.k + _observe(rng, self.laws, self.base_effort, q, s_low)
        return self._table[index]

    def _chunk_peer_truth_serum(self, rng, size):
        n = self.env.n_agents
        q, s_low, obs_i, obs_p = self._pair_reports(rng, size)
        r_peer = self.base_map[obs_p]  # the uniformly chosen peer
        # Reports of the other n - 2 agents on the object, as label counts.
        rest = self._peer_observation_counts(rng, q, s_low, n - 2) @ self.onehot
        return self._peer_truth_serum(self.focal_map[obs_i] == r_peer, rest[np.arange(size), r_peer])

    def _chunk_correlated_agreement(self, rng, size):
        m = self.env.n_objects
        half = (m - 1) // 2
        other = m - 1 - half
        _, _, obs_i, obs_p = self._pair_reports(rng, size)
        agree = self._table[obs_i * self.k + obs_p]
        # The focal agent's reports on ``half`` objects and a peer's on the other ones.
        own_counts = rng.multinomial(half, self.marginal_focal, size=size)
        peer_counts = rng.multinomial(other, self.marginal, size=size)
        matches = own_counts[:, 0] * peer_counts[:, 0]
        for label in range(1, self.k):
            matches += own_counts[:, label] * peer_counts[:, label]
        cross = matches / (half * other)
        return agree - cross

    def _chunk_sqrt_scaled(self, rng, size):
        m = self.env.n_objects
        q0, s0, obs_i, obs_p = self._pair_reports(rng, size)
        r_i = self.focal_map[obs_i]
        r_peer = self.base_map[obs_p]
        # Scored object contributes to the scorers' frequency statistic too.
        rk1 = self.base_map[_observe(rng, self.laws, self.base_effort, q0, s0)]
        rk2 = self.base_map[_observe(rng, self.laws, self.base_effort, q0, s0)]
        # Each other object is a hit when two base reports on it both equal r_peer.
        pair_hit = np.diag(self.pair)[r_peer]
        hit_counts = ((rk1 == r_peer) & (rk2 == r_peer)) + rng.binomial(m - 1, pair_hit)
        return self._sqrt_scaled(r_i == r_peer, hit_counts)

    def _chunk_double_mixed(self, rng, size):
        env = self.env
        sample_size = max(
            DOUBLE_MIXED_SAMPLES_PER_LABEL * self.k,
            -(-env.n_objects // env.n_agents),  # ceil division
        )
        _, _, obs_i, obs_p = self._pair_reports(rng, size)
        r_i = self.focal_map[obs_i]
        r_peer = self.base_map[obs_p]
        # Holdout objects: one sampled base report each.
        counts = rng.multinomial(sample_size, self.marginal, size=size)
        double_mixed = counts[:, 0] >= 2
        for label in range(1, self.k):
            double_mixed &= counts[:, label] >= 2
        # A reference is a second base report on a holdout object whose sampled
        # report equals r_i.  The two references sit on distinct objects, so
        # given r_i they are independent draws from P(second | first = r_i);
        # rows of labels without mass are never double mixed and pay nothing.
        ref_1 = _draw_rows(rng, self.second_given_first_cdf, r_i)
        ref_2 = _draw_rows(rng, self.second_given_first_cdf, r_i)
        rewards = 0.5 + (ref_1 == r_peer) - 0.5 * (ref_1 == ref_2)
        rewards[~double_mixed] = 0.0
        return rewards

    def _chunk_minimum_truth_serum(self, rng, size):
        q, s_low = _latents(rng, self.laws, size)
        obs_i = _observe(rng, self.laws, self.focal_effort, q, s_low)
        counts = self._peer_observation_counts(rng, q, s_low, self.env.n_agents - 1)
        if self._mts_rows >= size:  # the rows are mostly distinct: grouping would cost more than it saves
            return self._minimum_truth_serum(obs_i, counts)
        # Score each distinct (focal observation, peer counts) row once.
        rows, position = _group_peer_rows(obs_i, counts, self.env.n_agents, self.base_effort == FULL_EFFORT)
        return self._minimum_truth_serum(obs_i[rows], counts[rows])[position]

    @cached_property
    def _mts_rows(self) -> int:
        """How many distinct (focal observation, peer counts) rows minimum truth serum can draw:
        the peer counts are a composition of n - 1 into k parts under effort, and all on the
        shared draw without."""
        k = self.k
        return k * (comb(self.env.n_agents + k - 2, k - 1) if self.base_effort == FULL_EFFORT else k)


@lru_cache(maxsize=SAMPLER_CACHE_SIZE)
def _sampler(spec: MechanismSpec, env: Environment, profile: StrategyProfile) -> _Sampler:
    """The sampler of (spec, env, profile); equal environments share one, whatever their
    ``env_id``.  A triple that fails its kind's size rule raises and is not cached."""
    return _Sampler(spec, env, profile)


def simulate_utilities(
    spec: MechanismSpec,
    env: Environment,
    profile: StrategyProfile,
    trials: int,
    seed: int,
) -> UtilityEstimate:
    """Sample mean and stderr of the focal agent's per-object reward; deterministic per seed."""
    check_integer("trials", trials, 1, MAX_TRIALS)
    check_integer("seed", seed, 0)
    check_label_space(spec, env)
    sampler = _sampler(spec, env, profile)
    rng = np.random.default_rng(seed)
    rewards = np.concatenate([sampler.chunk(rng, min(CHUNK, trials - start)) for start in range(0, trials, CHUNK)])
    mean = float(rewards.mean())
    stderr = float(rewards.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return UtilityEstimate(value=mean, stderr=stderr, samples=trials)
