"""Reference Monte-Carlo sampler that simulates every object one by one.

``PerObjectSampler`` is the package sampler with the correlated-agreement,
sqrt-scaled and double-mixed chunks replaced by per-object loops: each
object of a chunk gets its own quality, low draw and reports.  The package
draws the same cross-object statistics from their exact finite-sample laws,
so the two samplers agree in distribution, not draw for draw.
"""

import numpy as np

from peerspot._sampling import (
    CHUNK,
    DOUBLE_MIXED_SAMPLES_PER_LABEL,
    _draw_prior,
    _draw_rows,
    _latents,
    _observe,
    _Sampler,
)
from peerspot.errors import NotEnoughObjects, TooFewAgents
from peerspot.strategies import FULL_EFFORT


class PerObjectSampler(_Sampler):
    def _chunk_correlated_agreement(self, rng, size):
        env = self.env
        m = env.n_objects
        if m < 3:
            raise NotEnoughObjects(
                "correlated-agreement sampling needs at least three objects for disjoint task sets"
            )
        half = (m - 1) // 2
        other = m - 1 - half
        q0, s0 = _latents(rng, self.laws, size)
        agree = (
            self.focal_map[_observe(rng, self.laws, self.focal_effort, q0, s0)]
            == self.base_map[_observe(rng, self.laws, self.base_effort, q0, s0)]
        ).astype(float)
        own_counts = np.zeros((size, self.k))
        peer_counts = np.zeros((size, self.k))
        for _ in range(half):
            q, s_low = _latents(rng, self.laws, size)
            r = self.focal_map[_observe(rng, self.laws, self.focal_effort, q, s_low)]
            np.add.at(own_counts, (np.arange(size), r), 1.0)
        for _ in range(other):
            q, s_low = _latents(rng, self.laws, size)
            r = self.base_map[_observe(rng, self.laws, self.base_effort, q, s_low)]
            np.add.at(peer_counts, (np.arange(size), r), 1.0)
        cross = (own_counts / half * peer_counts / other).sum(axis=1)
        return agree - cross

    def _chunk_sqrt_scaled(self, rng, size):
        env = self.env
        if env.n_agents < 4:
            raise TooFewAgents("sqrt-scaled agreement sampling needs at least four agents")
        m = env.n_objects
        q0, s0 = _latents(rng, self.laws, size)
        r_i = self.focal_map[_observe(rng, self.laws, self.focal_effort, q0, s0)]
        r_peer = self.base_map[_observe(rng, self.laws, self.base_effort, q0, s0)]
        hit_counts = np.zeros(size)
        rk1 = self.base_map[_observe(rng, self.laws, self.base_effort, q0, s0)]
        rk2 = self.base_map[_observe(rng, self.laws, self.base_effort, q0, s0)]
        hit_counts += (rk1 == r_peer) & (rk2 == r_peer)
        for _ in range(m - 1):
            q, s_low = _latents(rng, self.laws, size)
            a = self.base_map[_observe(rng, self.laws, self.base_effort, q, s_low)]
            b = self.base_map[_observe(rng, self.laws, self.base_effort, q, s_low)]
            hit_counts += (a == r_peer) & (b == r_peer)
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
            -(-env.n_objects // env.n_agents),
        )
        q0, s0 = _latents(rng, self.laws, size)
        r_i = self.focal_map[_observe(rng, self.laws, self.focal_effort, q0, s0)]
        r_peer = self.base_map[_observe(rng, self.laws, self.base_effort, q0, s0)]
        qs = _draw_prior(rng, self.laws, size * sample_size).reshape(size, sample_size)
        sls = _draw_rows(rng, self.laws.low_cdf, qs.ravel()).reshape(size, sample_size)
        if self.base_effort == FULL_EFFORT:
            obs = _draw_rows(rng, self.laws.high_cdf, qs.ravel()).reshape(size, sample_size)
        else:
            obs = sls
        sample_reports = self.base_map[obs]
        counts = np.zeros((size, self.k), dtype=int)
        for lab in range(self.k):
            counts[:, lab] = (sample_reports == lab).sum(axis=1)
        double_mixed = counts.min(axis=1) >= 2
        # The first two matching positions; i.i.d. objects make this a uniform choice.
        match = sample_reports == r_i[:, None]
        first = match.argmax(axis=1)
        match_wo_first = match.copy()
        match_wo_first[np.arange(size), first] = False
        second = match_wo_first.argmax(axis=1)
        refs = []
        for pos in (first, second):
            qsel = qs[np.arange(size), pos]
            slsel = sls[np.arange(size), pos]
            refs.append(self.base_map[_observe(rng, self.laws, self.base_effort, qsel, slsel)])
        rewards = 0.5 + (refs[0] == r_peer) - 0.5 * (refs[0] == refs[1])
        rewards[~double_mixed] = 0.0
        return rewards


def simulate_per_object(spec, env, profile, trials: int, seed: int) -> tuple:
    """(mean, stderr) of the focal agent's per-object reward under the reference sampler."""
    sampler = PerObjectSampler(spec, env, profile)
    rng = np.random.default_rng(seed)
    rewards = np.concatenate(
        [sampler.chunk(rng, min(CHUNK, trials - start)) for start in range(0, trials, CHUNK)]
    )
    return float(rewards.mean()), float(rewards.std(ddof=1) / np.sqrt(trials))
