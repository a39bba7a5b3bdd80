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
``_expectations``, so the samplers stay its oracle.  The numbers of objects, agents and holdout samples enter
exactly; nothing is a many-object limit.

Draws stream from a single seeded generator in fixed-size chunks, which makes
estimates bit-reproducible for a given seed regardless of trial count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonBinaryLabelSpace, NotEnoughObjects, ShapeMismatch, TooFewAgents
from .mechanisms import MechanismKind, MechanismSpec
from .scoring import NEGATIVE_SENTINEL, divergence
from .signals import Environment
from .strategies import Effort, Strategy, StrategyProfile, peer_report_posteriors

CHUNK = 20_000

# Cross-object holdout size per label for the double-mixed sampler; large
# enough that an all-labels-positive sample fails to be double mixed with
# negligible probability.
DOUBLE_MIXED_SAMPLES_PER_LABEL = 24


@dataclass(frozen=True)
class UtilityEstimate:
    """Sample mean and its standard error of a per-object reward."""

    value: float
    stderr: float
    samples: int


def _draw_rows(rng: np.random.Generator, matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """One categorical draw per entry of ``rows`` from the matching matrix row."""
    cdf = np.cumsum(matrix, axis=1)
    u = rng.random(rows.shape[0])
    out = (u[:, None] > cdf[rows]).sum(axis=1)
    return np.minimum(out, matrix.shape[1] - 1)


def _draw_prior(rng: np.random.Generator, env: Environment, size: int) -> np.ndarray:
    cdf = np.cumsum(env.prior.as_array())
    u = rng.random(size)
    return np.minimum((u[:, None] > cdf[None, :]).sum(axis=1), len(cdf) - 1)


def _observe(
    rng: np.random.Generator,
    env: Environment,
    strategy: Strategy,
    q: np.ndarray,
    s_low: np.ndarray,
) -> np.ndarray:
    if strategy.is_full_effort:
        return _draw_rows(rng, env.high_channel.matrix(), q)
    return s_low.copy()


def _latents(rng, env, size):
    q = _draw_prior(rng, env, size)
    s_low = _draw_rows(rng, env.low_channel.matrix(), q)
    return q, s_low


def _report_law(env: Environment, strategy: Strategy) -> np.ndarray:
    """P(report | quality, low draw) of one agent playing ``strategy``, shape (k, k, k)."""
    k = len(env.q_space)
    onehot = np.eye(k)[strategy.map_array()]  # (observation, report)
    if strategy.is_full_effort:
        return np.broadcast_to((env.high_channel.matrix() @ onehot)[:, None, :], (k, k, k))
    return np.broadcast_to(onehot[None, :, :], (k, k, k))


class _Sampler:
    """Chunked reward sampler for one (mechanism, environment, profile) triple."""

    def __init__(self, spec: MechanismSpec, env: Environment, profile: StrategyProfile):
        self.spec = spec
        self.env = env
        self.base = profile.base
        self.focal = profile.focal_strategy()
        self.k = len(env.q_space)
        self.base_map = self.base.map_array()
        self.focal_map = self.focal.map_array()
        beliefs = dict(zip(Effort, peer_report_posteriors(env, [self.base])[:, 0]))
        self.beliefs_base = beliefs[self.base.effort]
        self.beliefs_focal = beliefs[self.focal.effort]
        self.score_focal = spec.rule.score_table(self.beliefs_focal)  # (obs, outcome)
        # Report laws on an object other than the scored one.
        w = env.prior.as_array()[:, None] * env.low_channel.matrix()  # mass of (quality, low draw)
        law_focal, law_base = _report_law(env, self.focal), _report_law(env, self.base)
        # Rounding can lift a certain report's mass just above one, which numpy's samplers reject.
        self.marginal_focal = np.minimum(np.einsum("ql,qlr->r", w, law_focal), 1.0)
        self.marginal_base = np.minimum(np.einsum("ql,qlr->r", w, law_base), 1.0)
        # pair_base[v, x]: two base agents on one object report v and x
        self.pair_base = np.minimum(np.einsum("ql,qlv,qlx->vx", w, law_base, law_base), 1.0)

    # -- helpers ----------------------------------------------------------

    def _pair_reports(self, rng, size):
        q, s_low = _latents(rng, self.env, size)
        obs_i = _observe(rng, self.env, self.focal, q, s_low)
        obs_p = _observe(rng, self.env, self.base, q, s_low)
        return q, s_low, obs_i, obs_p

    def _peer_observation_counts(self, rng, q, s_low, peers: int) -> np.ndarray:
        """How many of ``peers`` base-strategy agents observe each label, shape (samples, k):
        multinomial given the quality under effort, all on the shared draw without."""
        if self.base.is_full_effort:
            return rng.multinomial(peers, self.env.high_channel.matrix()[q])
        return peers * np.eye(self.k, dtype=int)[s_low]

    # -- per-kind chunk evaluators ----------------------------------------

    def chunk(self, rng: np.random.Generator, size: int) -> np.ndarray:
        kind = self.spec.kind
        fn = {
            MechanismKind.OUTPUT_AGREEMENT: self._chunk_output_agreement,
            MechanismKind.PEER_TRUTH_SERUM: self._chunk_peer_truth_serum,
            MechanismKind.CORRELATED_AGREEMENT: self._chunk_correlated_agreement,
            MechanismKind.SQRT_SCALED_AGREEMENT: self._chunk_sqrt_scaled,
            MechanismKind.DOUBLE_MIXED_AGREEMENT: self._chunk_double_mixed,
            MechanismKind.ROBUST_BTS: self._chunk_robust_bts,
            MechanismKind.MULTI_VALUED_ROBUST_BTS: self._chunk_mv_robust_bts,
            MechanismKind.DIVERGENCE_BTS: self._chunk_divergence_bts,
            MechanismKind.MINIMUM_TRUTH_SERUM: self._chunk_minimum_truth_serum,
            MechanismKind.PEER_INSENSITIVE: self._chunk_peer_insensitive,
        }[kind]
        return fn(rng, size)

    def _chunk_peer_insensitive(self, rng, size):
        return np.full(size, self.spec.constant_reward)

    def _chunk_output_agreement(self, rng, size):
        _, _, obs_i, obs_p = self._pair_reports(rng, size)
        return (self.focal_map[obs_i] == self.base_map[obs_p]).astype(float)

    def _chunk_peer_truth_serum(self, rng, size):
        env, spec = self.env, self.spec
        n = env.n_agents
        q, s_low, obs_i, obs_p = self._pair_reports(rng, size)
        r_i = self.focal_map[obs_i]
        r_peer = self.base_map[obs_p]  # the uniformly chosen peer
        # Reports of the other n - 2 agents on the object, as label counts.
        to_report = np.eye(self.k, dtype=int)[self.base_map]  # (observation, report)
        rest = self._peer_observation_counts(rng, q, s_low, n - 2) @ to_report
        freq = (1 + rest[np.arange(size), r_peer] + (r_i == r_peer)) / n
        return spec.alpha + spec.beta * (r_i == r_peer) / freq

    def _chunk_correlated_agreement(self, rng, size):
        env = self.env
        m = env.n_objects
        if m < 3:
            raise NotEnoughObjects(
                "correlated-agreement sampling needs at least three objects for disjoint task sets"
            )
        half = (m - 1) // 2
        other = m - 1 - half
        q0, s0 = _latents(rng, env, size)
        agree = (
            self.focal_map[_observe(rng, env, self.focal, q0, s0)]
            == self.base_map[_observe(rng, env, self.base, q0, s0)]
        ).astype(float)
        # The focal agent's reports on ``half`` objects and a peer's on the other ones.
        own_counts = rng.multinomial(half, self.marginal_focal, size=size)
        peer_counts = rng.multinomial(other, self.marginal_base, size=size)
        cross = (own_counts * peer_counts).sum(axis=1) / (half * other)
        return agree - cross

    def _chunk_sqrt_scaled(self, rng, size):
        env = self.env
        if env.n_agents < 4:
            raise TooFewAgents("sqrt-scaled agreement sampling needs at least four agents")
        m = env.n_objects
        q0, s0 = _latents(rng, env, size)
        r_i = self.focal_map[_observe(rng, env, self.focal, q0, s0)]
        r_peer = self.base_map[_observe(rng, env, self.base, q0, s0)]
        # Scored object contributes to the scorers' frequency statistic too.
        rk1 = self.base_map[_observe(rng, env, self.base, q0, s0)]
        rk2 = self.base_map[_observe(rng, env, self.base, q0, s0)]
        # Each other object is a hit when two base reports on it both equal r_peer.
        pair_hit = np.diag(self.pair_base)[r_peer]
        hit_counts = ((rk1 == r_peer) & (rk2 == r_peer)) + rng.binomial(m - 1, pair_hit)
        f_hat = np.sqrt(hit_counts / m)
        live = (f_hat > 0.0) & (f_hat < 1.0)
        rewards = np.zeros(size)
        rewards[live] = (r_i[live] == r_peer[live]) * self.spec.scale / f_hat[live]
        return rewards

    def _chunk_double_mixed(self, rng, size):
        env = self.env
        if env.n_objects < 3:
            raise NotEnoughObjects("double-mixed agreement needs at least three objects")
        sample_size = max(
            DOUBLE_MIXED_SAMPLES_PER_LABEL * self.k,
            -(-env.n_objects // env.n_agents),  # ceil division
        )
        q0, s0 = _latents(rng, env, size)
        r_i = self.focal_map[_observe(rng, env, self.focal, q0, s0)]
        r_peer = self.base_map[_observe(rng, env, self.base, q0, s0)]
        # Holdout objects: one sampled base report each.
        counts = rng.multinomial(sample_size, self.marginal_base, size=size)
        double_mixed = counts.min(axis=1) >= 2
        # A reference is a second base report on a holdout object whose sampled
        # report equals r_i.  The two references sit on distinct objects, so
        # given r_i they are independent draws from P(second | first = r_i);
        # rows of labels without mass are never double mixed and pay nothing.
        mass = np.where(self.marginal_base > 0.0, self.marginal_base, 1.0)
        second_given_first = self.pair_base / mass[:, None]
        ref_1 = _draw_rows(rng, second_given_first, r_i)
        ref_2 = _draw_rows(rng, second_given_first, r_i)
        rewards = 0.5 + (ref_1 == r_peer) - 0.5 * (ref_1 == ref_2)
        rewards[~double_mixed] = 0.0
        return rewards

    def _chunk_robust_bts(self, rng, size):
        if self.k != 2:
            raise NonBinaryLabelSpace("robust BTS is defined for binary label spaces only")
        env = self.env
        q, s_low = _latents(rng, env, size)
        obs_i = _observe(rng, env, self.focal, q, s_low)
        obs_j = _observe(rng, env, self.base, q, s_low)
        obs_k = _observe(rng, env, self.base, q, s_low)
        r_i = self.focal_map[obs_i]
        r_k = self.base_map[obs_k]
        p_one = self.beliefs_base[obs_j, 1]
        delta = np.minimum(p_one, 1.0 - p_one)
        shadow_one = np.where(r_i == 1, p_one + delta, p_one - delta)
        shadow = np.stack([1.0 - shadow_one, shadow_one], axis=1)
        shadow_scores = self.spec.rule.score_table(shadow)
        own = self.score_focal[obs_i, r_k]
        return shadow_scores[np.arange(size), r_k] + own

    def _chunk_mv_robust_bts(self, rng, size):
        _, _, obs_i, obs_j = self._pair_reports(rng, size)
        r_i = self.focal_map[obs_i]
        r_j = self.base_map[obs_j]
        b_j = self.beliefs_base[obs_j, r_i]
        match = np.zeros(size)
        hit = r_i == r_j
        match[hit & (b_j > 0.0)] = 1.0 / b_j[hit & (b_j > 0.0)]
        match[hit & (b_j <= 0.0)] = NEGATIVE_SENTINEL
        return match + self.score_focal[obs_i, r_j]

    def _chunk_divergence_bts(self, rng, size):
        _, _, obs_i, obs_j = self._pair_reports(rng, size)
        r_i = self.focal_map[obs_i]
        r_j = self.base_map[obs_j]
        div = np.array(
            [
                [divergence(self.spec.rule, self.beliefs_focal[a], self.beliefs_base[b]) for b in range(self.k)]
                for a in range(self.k)
            ]
        )
        penalty = (r_i == r_j) & (div[obs_i, obs_j] > self.spec.theta)
        return self.score_focal[obs_i, r_j] - penalty.astype(float)

    def _chunk_minimum_truth_serum(self, rng, size):
        env = self.env
        n_peers = env.n_agents - 1
        q, s_low = _latents(rng, env, size)
        obs_i = _observe(rng, env, self.focal, q, s_low)
        r_i = self.focal_map[obs_i]
        obs_counts = self._peer_observation_counts(rng, q, s_low, n_peers)  # (size, observation)
        freq = obs_counts @ np.eye(self.k)[self.base_map] / n_peers  # peer report frequencies
        mean_own = (freq * self.score_focal[obs_i]).sum(axis=1)
        delta = (freq > 0).sum(axis=1) == self.k  # every label reported at least once
        # Peers whose report equals r_i, counted per observation; their beliefs average to the proxy.
        same = obs_counts * (self.base_map[None, :] == r_i[:, None])
        proxy = same @ self.beliefs_base / np.maximum(same.sum(axis=1), 1)[:, None]
        proxy_scores = self.spec.rule.score_table(proxy)
        mean_proxy = (freq * proxy_scores).sum(axis=1)
        rewards = np.where(delta, np.minimum(mean_own, mean_proxy), mean_own)
        if self.spec.mts_aggregation == "sum":
            rewards = rewards * n_peers
        return rewards


def simulate_utilities(
    spec: MechanismSpec,
    env: Environment,
    profile: StrategyProfile,
    trials: int,
    seed: int,
) -> UtilityEstimate:
    """Sample mean and stderr of the focal agent's per-object reward; deterministic per seed."""
    if trials < 1:
        raise ShapeMismatch(f"trials must be at least 1, got {trials}")
    sampler = _Sampler(spec, env, profile)
    rng = np.random.default_rng(seed)
    chunks = []
    remaining = trials
    while remaining > 0:
        take = min(CHUNK, remaining)
        chunks.append(sampler.chunk(rng, take))
        remaining -= take
    rewards = np.concatenate(chunks)
    mean = float(rewards.mean())
    stderr = float(rewards.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return UtilityEstimate(value=mean, stderr=stderr, samples=trials)
