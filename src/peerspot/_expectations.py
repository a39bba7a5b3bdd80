"""Exact per-object expected rewards of deviant strategies against symmetric base profiles.

Everything here integrates over the per-object joint law: quality ~ prior,
one shared low draw, independent high draws per agent given quality.  Reports
are deterministic functions of each agent's observed signal, so conditioning
on (quality, low draw) makes all agents' reports independent, and every
mechanism reduces to small tensor contractions over label indices.

Each evaluator returns the whole (deviants x bases) block of a list of
deviants against a list of bases; what loops remain run over label indices.

Multi-object mechanisms are evaluated in their many-object limit, where
empirical report frequencies concentrate on population values: the
correlated-agreement cross term becomes a product of marginals, the
sqrt-scaled agreement denominator becomes the square root of the pairwise
agreement mass, and the double-mixed sample is mixed with probability one
iff every label has positive base-report mass.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement

import numpy as np

from .errors import EnumerationBudgetExceeded, LogOfZero, NonBinaryLabelSpace
from .scoring import NEGATIVE_SENTINEL
from .signals import DEFAULT_ENUMERATION_BUDGET, Environment
from .strategies import BeliefMode, Effort, Strategy, belief_table, peer_report_posterior

SUPPORT_ATOL = 1e-12


def outer_weights(env: Environment) -> np.ndarray:
    """Joint mass of (quality, low draw), shape (k, k)."""
    return env.prior.as_array()[:, None] * env.low_channel.matrix()


def observation_law(env: Environment, effort: Effort) -> np.ndarray:
    """P(observed value | quality, low draw), shape (k, k, k)."""
    k = len(env.q_space)
    if effort is Effort.FULL:
        return np.broadcast_to(env.high_channel.matrix()[:, None, :], (k, k, k)).copy()
    law = np.zeros((k, k, k))
    law[:, np.arange(k), np.arange(k)] = 1.0
    return law


def _efforts(strategies: list) -> np.ndarray:
    """Position of each strategy's effort in ``Effort`` order (full effort is 0)."""
    return np.array([0 if s.is_full_effort else 1 for s in strategies])


def _maps(strategies: list) -> np.ndarray:
    return np.array([s.report_map for s in strategies], dtype=int)


def report_laws(env: Environment, strategies: list) -> np.ndarray:
    """P(report | quality, low draw) per strategy, stacked: shape (len(strategies), k, k, k)."""
    observed = np.stack([observation_law(env, effort) for effort in Effort])[_efforts(strategies)]
    maps, rows = _maps(strategies), np.arange(len(strategies))
    laws = np.zeros_like(observed)
    for o in range(maps.shape[1]):
        laws[rows, :, :, maps[:, o]] += observed[:, :, :, o]
    return laws


def pair_obs_law(env: Environment, effort_a: Effort, effort_b: Effort) -> np.ndarray:
    """Joint law of two distinct agents' observations, shape (k_a, k_b).

    Conditional on (quality, low draw) the observations are independent;
    no-effort observations are the shared low draw itself.
    """
    w = outer_weights(env)
    oa = observation_law(env, effort_a)
    ob = observation_law(env, effort_b)
    return np.einsum("ql,qla,qlb->ab", w, oa, ob)


def triple_obs_law(env: Environment, effort_a: Effort, effort_b: Effort, effort_c: Effort) -> np.ndarray:
    w = outer_weights(env)
    oa = observation_law(env, effort_a)
    ob = observation_law(env, effort_b)
    oc = observation_law(env, effort_c)
    return np.einsum("ql,qla,qlb,qlc->abc", w, oa, ob, oc)


def _agreement(w: np.ndarray, rd: np.ndarray, rg: np.ndarray) -> np.ndarray:
    """Probability that deviant and base report the same label, shape (D, G)."""
    return np.einsum("ql,dqlr,gqlr->dg", w, rd, rg)


def _beliefs(env: Environment, rule, bases: list, deviants: list) -> tuple:
    """Stacked belief tables (one row per observed value) and their scores at each outcome.

    Posterior beliefs depend only on the holder's effort and the base, so 2 * len(bases)
    tables serve all posterior-mode deviants.  Base g holds ``beliefs[base_rows[g]]`` and
    deviant d holds ``beliefs[dev_rows[d, g]]`` against it.
    """
    n_bases = len(bases)
    tables = [peer_report_posterior(env, effort, base) for effort in Effort for base in bases]

    def rows(strategy: Strategy) -> np.ndarray:
        if strategy.belief_mode is BeliefMode.POSTERIOR:
            return (0 if strategy.is_full_effort else n_bases) + np.arange(n_bases)
        tables.append(belief_table(env, strategy, strategy))
        return np.full(n_bases, len(tables) - 1)

    dev_rows = np.array([rows(d) for d in deviants])
    base_rows = np.array([rows(b)[g] for g, b in enumerate(bases)])
    beliefs = np.stack(tables)
    scores = rule.score_table(beliefs.reshape(-1, beliefs.shape[-1])).reshape(beliefs.shape)
    return beliefs, scores, base_rows, dev_rows


# ---------------------------------------------------------------------------
# Batched evaluators.  Each returns E[z(deviant, base)] per object, shape
# (len(deviants), len(bases)).
# ---------------------------------------------------------------------------


def output_agreement(spec, env: Environment, bases: list, deviants: list) -> np.ndarray:
    return _agreement(outer_weights(env), report_laws(env, deviants), report_laws(env, bases))


def peer_truth_serum(spec, env: Environment, bases: list, deviants: list) -> np.ndarray:
    """Per-object frequency limit: agreement on label r pays beta / freq(r), and the
    realized frequency concentrates on the base profile's conditional report mass,
    so each supported label contributes exactly the deviant's mass on it."""
    support = (report_laws(env, bases) > SUPPORT_ATOL).astype(float)
    hit = _agreement(outer_weights(env), report_laws(env, deviants), support)
    return spec.alpha + spec.beta * hit


def correlated_agreement(spec, env: Environment, bases: list, deviants: list) -> np.ndarray:
    w = outer_weights(env)
    rd, rg = report_laws(env, deviants), report_laws(env, bases)
    cross = np.einsum("ql,dqlr->dr", w, rd) @ np.einsum("ql,gqlr->gr", w, rg).T
    return _agreement(w, rd, rg) - cross


def sqrt_scaled_agreement(spec, env: Environment, bases: list, deviants: list) -> np.ndarray:
    """Many-object limit: the frequency statistic for label s converges to
    sqrt(pairwise base agreement mass on s); degenerate labels (mass 0 or 1) pay zero."""
    w = outer_weights(env)
    rd, rg = report_laws(env, deviants), report_laws(env, bases)
    pair_mass = np.einsum("ql,gqls,gqls->gs", w, rg, rg)
    agree_mass = np.einsum("ql,dqls,gqls->dgs", w, rd, rg)
    live = (pair_mass > SUPPORT_ATOL) & (pair_mass < 1.0 - SUPPORT_ATOL)
    ratio = agree_mass / np.sqrt(np.where(live, pair_mass, 1.0))
    return spec.scale * np.where(live, ratio, 0.0).sum(axis=2)


def double_mixed_agreement(spec, env: Environment, bases: list, deviants: list) -> np.ndarray:
    """Many-object limit of the double-mixed sampling mechanism.

    The cross-object sample is double mixed with limiting probability one iff
    every label carries positive base-report mass; otherwise the reward is
    identically zero.  Conditional on the sample, the two reference reports are
    independent draws on objects whose sampled report equals the focal agent's
    report, i.e. draws from the base pair-conditional law.
    """
    w = outer_weights(env)
    rd, rg = report_laws(env, deviants), report_laws(env, bases)
    marg_g = np.einsum("ql,gqlr->gr", w, rg)
    mixed = marg_g.min(axis=1) > SUPPORT_ATOL
    pair_g = np.einsum("ql,gqlv,gqlx->gvx", w, rg, rg)
    # cond[g, v, x] = P(second base report = x | first = v)
    cond = pair_g / np.where(mixed[:, None], marg_g, 1.0)[:, :, None]
    joint = np.einsum("ql,dqlv,gqly->dgvy", w, rd, rg)  # deviant report v, same-object peer y
    match_peer = np.einsum("dgvy,gvy->dg", joint, cond)
    match_refs = np.einsum("dgv,gv->dg", joint.sum(axis=3), np.einsum("gvx,gvx->gv", cond, cond))
    return np.where(mixed[None, :], 0.5 + match_peer - 0.5 * match_refs, 0.0)


def robust_bts(spec, env: Environment, bases: list, deviants: list) -> np.ndarray:
    k = len(env.q_space)
    if k != 2:
        raise NonBinaryLabelSpace("robust BTS is defined for binary label spaces only")
    beliefs, scores, base_rows, dev_rows = _beliefs(env, spec.rule, bases, deviants)
    triple = np.array([[triple_obs_law(env, a, b, b) for b in Effort] for a in Effort])
    ed, eg = _efforts(deviants)[:, None], _efforts(bases)[None, :]
    dmap, gmap = _maps(deviants), _maps(bases)
    # The shadow belief moves base g's belief after observation oj towards the
    # focal report ri: shadow_scores[g, oj, ri, outcome].
    p_one = beliefs[base_rows, :, 1]
    delta = np.minimum(p_one, 1.0 - p_one)
    shadow_one = np.stack([p_one - delta, p_one + delta], axis=-1)
    shadow = np.stack([1.0 - shadow_one, shadow_one], axis=-1)
    shadow_scores = spec.rule.score_table(shadow.reshape(-1, k)).reshape(shadow.shape)
    g = np.arange(len(bases))
    total = np.zeros((len(deviants), len(bases)))
    for oi in range(k):
        ri = dmap[:, oi, None]
        for oj in range(k):
            for ok in range(k):
                rk = gmap[None, :, ok]
                both = shadow_scores[g, oj, ri, rk] + scores[dev_rows, oi, rk]
                total = total + triple[ed, eg, oi, oj, ok] * both
    return total


def multi_valued_robust_bts(spec, env: Environment, bases: list, deviants: list) -> np.ndarray:
    k = len(env.q_space)
    beliefs, scores, base_rows, dev_rows = _beliefs(env, spec.rule, bases, deviants)
    pair = np.array([[pair_obs_law(env, a, b) for b in Effort] for a in Effort])
    ed, eg = _efforts(deviants)[:, None], _efforts(bases)[None, :]
    dmap, gmap = _maps(deviants), _maps(bases)
    total = np.zeros((len(deviants), len(bases)))
    for oi in range(k):
        ri = dmap[:, oi, None]
        for oj in range(k):
            rj = gmap[None, :, oj]
            bj = beliefs[base_rows, oj, ri]
            with np.errstate(divide="ignore"):
                match = np.where(bj > 0.0, 1.0 / bj, NEGATIVE_SENTINEL)
            match = np.where(ri == rj, match, 0.0)
            total = total + pair[ed, eg, oi, oj] * (match + scores[dev_rows, oi, rj])
    return total


def divergence_bts(spec, env: Environment, bases: list, deviants: list) -> np.ndarray:
    k = len(env.q_space)
    beliefs, scores, base_rows, dev_rows = _beliefs(env, spec.rule, bases, deviants)
    pair = np.array([[pair_obs_law(env, a, b) for b in Effort] for a in Effort])
    ed, eg = _efforts(deviants)[:, None], _efforts(bases)[None, :]
    dmap, gmap = _maps(deviants), _maps(bases)
    total = np.zeros((len(deviants), len(bases)))
    for oi in range(k):
        ri = dmap[:, oi, None]
        held, support = beliefs[dev_rows, oi], beliefs[dev_rows, oi] > 0.0
        for oj in range(k):
            rj = gmap[None, :, oj]
            # divergence D(held || peer) = E_{s~held}[score(held, s) - score(peer, s)]
            peer_scores = scores[base_rows, oj][None]
            if np.any((ri == rj)[..., None] & support & (peer_scores == NEGATIVE_SENTINEL)):
                raise LogOfZero("log score undefined: divergence from a belief with zero predicted mass")
            gap = np.where(support, held * (scores[dev_rows, oi] - peer_scores), 0.0).sum(axis=2)
            penalty = ((ri == rj) & (gap > spec.theta)).astype(float)
            total = total + pair[ed, eg, oi, oj] * (scores[dev_rows, oi, rj] - penalty)
    return total


def _peer_multisets(env: Environment, base_effort: Effort, n_peers: int, budget: int) -> tuple:
    """Peer observation multisets under a base effort, with their joint weights.

    Returns (counts, weights): counts[m, v] is the number of peers observing
    value v in multiset m, and weights[m, e, o] the probability of multiset m
    jointly with the holder observing o under effort e (``Effort`` order).
    """
    k = len(env.q_space)
    w = outer_weights(env)
    laws = [observation_law(env, effort) for effort in Effort]
    counts, weights = [], []
    if base_effort is Effort.FULL:
        n_multisets = math.comb(n_peers + k - 1, k - 1)
        if n_multisets * (k**3) > budget:
            raise EnumerationBudgetExceeded(
                f"minimum-truth-serum enumeration needs {n_multisets} peer multisets"
            )
        high = env.high_channel.matrix()
        log_fact = [math.lgamma(i + 1) for i in range(n_peers + 1)]
        for combo in combinations_with_replacement(range(k), n_peers):
            c = np.bincount(combo, minlength=k)
            coef = math.exp(log_fact[n_peers] - sum(log_fact[n] for n in c))
            prob_q = coef * np.prod(high**c, axis=1)  # (k_q,)
            counts.append(c)
            weights.append(
                [[float((prob_q[:, None] * w * law[:, :, o]).sum()) for o in range(k)] for law in laws]
            )
    else:
        # All peers observe the shared low draw; the multiset is determined by it.
        for low_value in range(k):
            c = np.zeros(k, dtype=int)
            c[low_value] = n_peers
            counts.append(c)
            weights.append(
                [[float(w[:, low_value] @ law[:, low_value, o]) for o in range(k)] for law in laws]
            )
    return np.array(counts), np.array(weights)


def minimum_truth_serum(
    spec, env: Environment, bases: list, deviants: list, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> np.ndarray:
    """Belief scores against all peers, capped by the same-report proxy belief score.

    Peer reports enter only through their observation multiset, so full-effort
    base profiles are enumerated over multisets with multinomial weights.
    """
    k = len(env.q_space)
    n_peers = env.n_agents - 1
    scale = 1.0 if spec.mts_aggregation == "mean" else float(n_peers)
    beliefs, scores, base_rows, dev_rows = _beliefs(env, spec.rule, bases, deviants)
    ed, dmap, gmap = _efforts(deviants), _maps(deviants), _maps(bases)
    total = np.zeros((len(deviants), len(bases)))
    for effort in Effort:
        cols = np.array([g for g, b in enumerate(bases) if b.effort is effort], dtype=int)
        if cols.size == 0:
            continue
        counts, weights = _peer_multisets(env, effort, n_peers, budget)
        maps = gmap[cols]
        base_beliefs = beliefs[base_rows[cols]]
        own_scores = [scores[dev_rows[:, cols], oi] for oi in range(k)]
        # reports[g, r, o]: base g reports r after observing o
        reports = maps[:, None, :] == np.arange(k)[None, :, None]
        block = np.zeros((len(deviants), cols.size))
        for c, weight in zip(counts, weights):
            same = reports * c  # same[g, r, o]: peers that observe o and report r
            report_counts = same.sum(axis=2)
            peer_freq = report_counts / n_peers
            every_label = report_counts.min(axis=1) >= 1
            # Proxy belief for own report r: mean belief of the peers reporting r.
            with np.errstate(invalid="ignore", divide="ignore"):
                proxy = (same @ base_beliefs) / report_counts[:, :, None]
                proxy_scores = spec.rule.score_table(proxy.reshape(-1, k)).reshape(proxy.shape)
            mean_proxy = np.einsum("gx,grx->gr", peer_freq, proxy_scores)
            for oi in range(k):
                mean_own = np.einsum("gx,dgx->dg", peer_freq, own_scores[oi])
                capped = mean_proxy[:, dmap[:, oi]].T
                reward = np.where(every_label & (capped < mean_own), capped, mean_own)
                block = block + weight[ed, oi][:, None] * reward * scale
        total[:, cols] = block
    return total


def peer_insensitive(spec, env: Environment, bases: list, deviants: list) -> np.ndarray:
    return np.full((len(deviants), len(bases)), float(spec.constant_reward))
