"""Per-cell exact evaluators: one (deviant, base) pair per call, loops over observations.

This is the engine the package used before the batched evaluators in
``peerspot._expectations``.  It is kept here, written out cell by cell, as
an independent oracle for the batched tables: it builds its own observation
laws from the channels, and ``peer_report_posterior`` builds one belief table
per call, as an oracle for the batched ``peerspot.strategies.peer_report_posteriors``.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement

import numpy as np

from peerspot import EnumerationBudgetExceeded, MechanismKind, NonBinaryLabelSpace
from peerspot._expectations import DEFAULT_ENUMERATION_BUDGET, SUPPORT_ATOL
from peerspot.scoring import NEGATIVE_SENTINEL, divergence
from peerspot.strategies import Effort


def outer_weights(env):
    """Joint mass of (quality, low draw), shape (k, k)."""
    k = len(env.q_space)
    prior, low = env.prior.as_array(), env.low_channel.matrix()
    return np.array([[prior[q] * low[q, draw] for draw in range(k)] for q in range(k)])


def observation_law(env, effort):
    """P(observed value | quality, low draw), shape (k, k, k): under full effort the agent's
    own high draw given the quality, without effort the shared low draw itself."""
    k = len(env.q_space)
    high = env.high_channel.matrix()
    law = np.zeros((k, k, k))
    for q in range(k):
        for low in range(k):
            if effort is Effort.FULL:
                law[q, low] = high[q]
            else:
                law[q, low, low] = 1.0
    return law


def pair_obs_law(env, effort_a, effort_b):
    """Joint law of two distinct agents' observations, shape (k, k): independent given
    (quality, low draw)."""
    w = outer_weights(env)
    return np.einsum("ql,qla,qlb->ab", w, observation_law(env, effort_a), observation_law(env, effort_b))


def triple_obs_law(env, effort_a, effort_b, effort_c):
    """Joint law of three distinct agents' observations, shape (k, k, k)."""
    laws = [observation_law(env, effort) for effort in (effort_a, effort_b, effort_c)]
    return np.einsum("ql,qla,qlb,qlc->abc", outer_weights(env), *laws)


def peer_report_posterior(env, observer_effort, base):
    """Belief table: row v = law of a random base-strategy peer's report given own observation v.

    A full-effort observer conditions on its high signal; a no-effort observer
    conditions on the shared low draw (and therefore knows a no-effort peer's
    report exactly).  Rows for zero-probability observations are uniform.
    """
    k = len(env.q_space)
    prior = env.prior.as_array()
    high = env.high_channel.matrix()
    low = env.low_channel.matrix()
    onehot = np.zeros((k, k))
    onehot[np.arange(k), np.array(base.report_map)] = 1.0
    peer_given_q = (high if base.is_full_effort else low) @ onehot  # (q, report)

    table = np.empty((k, k))
    for v in range(k):
        if observer_effort is Effort.NONE and not base.is_full_effort:
            # Shared low draw: the peer's report is a known function of v.
            table[v] = onehot[v]
            continue
        w = prior * (high if observer_effort is Effort.FULL else low)[:, v]
        table[v] = w @ peer_given_q / w.sum() if w.sum() > 0.0 else 1.0 / k
    return table


def report_law(env, strategy):
    """P(report | quality, low draw), shape (k, k, k)."""
    k = len(env.q_space)
    onehot = np.zeros((k, k))
    onehot[np.arange(k), np.array(strategy.report_map)] = 1.0
    return np.einsum("qlo,or->qlr", observation_law(env, strategy.effort), onehot)


def report_marginal(env, strategy):
    return np.einsum("ql,qlr->r", outer_weights(env), report_law(env, strategy))


def value_output_agreement(env, base, deviant):
    w = outer_weights(env)
    return float(np.einsum("ql,qlr,qlr->", w, report_law(env, deviant), report_law(env, base)))


def value_peer_truth_serum(env, base, deviant, alpha, beta):
    w = outer_weights(env)
    support = (report_law(env, base) > SUPPORT_ATOL).astype(float)
    hit = float(np.einsum("ql,qlr,qlr->", w, report_law(env, deviant), support))
    return alpha + beta * hit


def value_correlated_agreement(env, base, deviant):
    agree = value_output_agreement(env, base, deviant)
    cross = float(report_marginal(env, deviant) @ report_marginal(env, base))
    return agree - cross


def value_sqrt_scaled_agreement(env, base, deviant, scale):
    w = outer_weights(env)
    rg = report_law(env, base)
    rd = report_law(env, deviant)
    pair_mass = np.einsum("ql,qls,qls->s", w, rg, rg)
    agree_mass = np.einsum("ql,qls,qls->s", w, rd, rg)
    live = (pair_mass > SUPPORT_ATOL) & (pair_mass < 1.0 - SUPPORT_ATOL)
    if not live.any():
        return 0.0
    return float(scale * np.sum(agree_mass[live] / np.sqrt(pair_mass[live])))


def value_double_mixed_agreement(env, base, deviant):
    w = outer_weights(env)
    rg = report_law(env, base)
    rd = report_law(env, deviant)
    marg_g = np.einsum("ql,qlr->r", w, rg)
    if np.min(marg_g) <= SUPPORT_ATOL:
        return 0.0
    pair_g = np.einsum("ql,qlv,qlx->vx", w, rg, rg)
    cond = pair_g / marg_g[:, None]
    joint_dg = np.einsum("ql,qlv,qly->vy", w, rd, rg)
    marg_d = joint_dg.sum(axis=1)
    match_peer = float(np.einsum("vy,vy->", joint_dg, cond))
    match_refs = float(marg_d @ np.einsum("vx,vx->v", cond, cond))
    return 0.5 + match_peer - 0.5 * match_refs


def value_robust_bts(env, base, deviant, rule):
    k = len(env.q_space)
    if k != 2:
        raise NonBinaryLabelSpace("robust BTS is defined for binary label spaces only")
    obs3 = triple_obs_law(env, deviant.effort, base.effort, base.effort)
    beliefs_base = peer_report_posterior(env, base.effort, base)
    score_dev = rule.score_table(peer_report_posterior(env, deviant.effort, base))
    base_map = np.array(base.report_map)
    dev_map = np.array(deviant.report_map)
    total = 0.0
    for oi in range(k):
        ri = dev_map[oi]
        for oj in range(k):
            p_one = beliefs_base[oj][1]
            delta = min(p_one, 1.0 - p_one)
            shadow_one = p_one + delta if ri == 1 else p_one - delta
            shadow = np.array([1.0 - shadow_one, shadow_one])
            shadow_scores = rule.score_table(shadow[None, :])[0]
            for ok in range(k):
                rk = base_map[ok]
                total += obs3[oi, oj, ok] * (shadow_scores[rk] + score_dev[oi, rk])
    return float(total)


def value_multi_valued_robust_bts(env, base, deviant, rule):
    k = len(env.q_space)
    pair = pair_obs_law(env, deviant.effort, base.effort)
    beliefs_base = peer_report_posterior(env, base.effort, base)
    score_dev = rule.score_table(peer_report_posterior(env, deviant.effort, base))
    base_map = np.array(base.report_map)
    dev_map = np.array(deviant.report_map)
    total = 0.0
    for oi in range(k):
        ri = dev_map[oi]
        for oj in range(k):
            rj = base_map[oj]
            if ri == rj:
                bj = beliefs_base[oj][ri]
                match = 1.0 / bj if bj > 0.0 else NEGATIVE_SENTINEL
            else:
                match = 0.0
            total += pair[oi, oj] * (match + score_dev[oi, rj])
    return float(total)


def value_divergence_bts(env, base, deviant, rule, theta):
    k = len(env.q_space)
    pair = pair_obs_law(env, deviant.effort, base.effort)
    beliefs_base = peer_report_posterior(env, base.effort, base)
    beliefs_dev = peer_report_posterior(env, deviant.effort, base)
    score_dev = rule.score_table(beliefs_dev)
    base_map = np.array(base.report_map)
    dev_map = np.array(deviant.report_map)
    total = 0.0
    for oi in range(k):
        ri = dev_map[oi]
        for oj in range(k):
            rj = base_map[oj]
            penalty = 0.0
            if ri == rj and divergence(rule, beliefs_dev[oi], beliefs_base[oj]) > theta:
                penalty = 1.0
            total += pair[oi, oj] * (score_dev[oi, rj] - penalty)
    return float(total)


def _peer_multisets(env, base, n_peers, budget):
    """Yield (counts per observed value, probability per quality) over peer observation multisets."""
    k = len(env.q_space)
    if base.is_full_effort:
        n_multisets = math.comb(n_peers + k - 1, k - 1)
        if n_multisets * (k**3) > budget:
            raise EnumerationBudgetExceeded(
                f"minimum-truth-serum enumeration needs {n_multisets} peer multisets"
            )
        high = env.high_channel.matrix()
        log_fact = [math.lgamma(i + 1) for i in range(n_peers + 1)]
        for combo in combinations_with_replacement(range(k), n_peers):
            counts = np.bincount(combo, minlength=k)
            coef = math.exp(log_fact[n_peers] - sum(log_fact[c] for c in counts))
            prob_q = coef * np.prod(high**counts, axis=1)
            yield counts, prob_q
    else:
        for low_value in range(k):
            counts = np.zeros(k, dtype=int)
            counts[low_value] = n_peers
            yield counts, ("low", low_value)


def value_minimum_truth_serum(
    env, base, deviant, rule, aggregation="mean", budget=DEFAULT_ENUMERATION_BUDGET
):
    k = len(env.q_space)
    n_peers = env.n_agents - 1
    w = outer_weights(env)
    obs_dev = observation_law(env, deviant.effort)
    beliefs_base = peer_report_posterior(env, base.effort, base)
    score_dev = rule.score_table(peer_report_posterior(env, deviant.effort, base))
    base_map = np.array(base.report_map)
    dev_map = np.array(deviant.report_map)
    scale = 1.0 if aggregation == "mean" else float(n_peers)
    total = 0.0
    for counts, prob_q in _peer_multisets(env, base, n_peers, budget):
        report_counts = np.zeros(k)
        np.add.at(report_counts, base_map, counts)
        peer_freq = report_counts / n_peers
        delta = report_counts.min()
        for oi in range(k):
            ri = dev_map[oi]
            mean_own = float(peer_freq @ score_dev[oi])
            if delta < 1:
                reward = mean_own
            else:
                same = counts * (base_map == ri)
                proxy = (same @ beliefs_base) / same.sum()
                mean_proxy = float(peer_freq @ rule.score_table(proxy[None, :])[0])
                reward = min(mean_own, mean_proxy)
            if isinstance(prob_q, tuple):
                low_value = prob_q[1]
                weight = float(w[:, low_value] @ obs_dev[:, low_value, oi])
            else:
                weight = float((prob_q[:, None] * w * obs_dev[:, :, oi]).sum())
            total += weight * reward * scale
    return float(total)


def oracle_value(spec, env, base, deviant) -> float:
    """Exact E[z(deviant, base)] for one cell."""
    kind = spec.kind
    if kind is MechanismKind.OUTPUT_AGREEMENT:
        return value_output_agreement(env, base, deviant)
    if kind is MechanismKind.PEER_TRUTH_SERUM:
        return value_peer_truth_serum(env, base, deviant, spec.alpha, spec.beta)
    if kind is MechanismKind.CORRELATED_AGREEMENT:
        return value_correlated_agreement(env, base, deviant)
    if kind is MechanismKind.SQRT_SCALED_AGREEMENT:
        return value_sqrt_scaled_agreement(env, base, deviant, spec.scale)
    if kind is MechanismKind.DOUBLE_MIXED_AGREEMENT:
        return value_double_mixed_agreement(env, base, deviant)
    if kind is MechanismKind.ROBUST_BTS:
        return value_robust_bts(env, base, deviant, spec.rule)
    if kind is MechanismKind.MULTI_VALUED_ROBUST_BTS:
        return value_multi_valued_robust_bts(env, base, deviant, spec.rule)
    if kind is MechanismKind.DIVERGENCE_BTS:
        return value_divergence_bts(env, base, deviant, spec.rule, spec.theta)
    if kind is MechanismKind.MINIMUM_TRUTH_SERUM:
        return value_minimum_truth_serum(env, base, deviant, spec.rule, spec.mts_aggregation)
    return spec.constant_reward


def oracle_table(spec, env, strategies) -> np.ndarray:
    """Unchecked rewards cell by cell, shape (deviants, bases) = (S, S)."""
    return np.array([[oracle_value(spec, env, base, dev) for base in strategies] for dev in strategies])
