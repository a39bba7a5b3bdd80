"""Exact per-observation expected rewards of deviant strategies: unchecked against symmetric
base profiles, and audited against the trusted evaluator.

Everything here integrates over the per-object joint law: quality ~ prior,
one shared low draw, independent high draws per agent given quality.  Reports
are deterministic functions of each agent's observed signal, so conditioning
on (quality, low draw) makes all agents' reports independent, and every
mechanism reduces to small tensor contractions over label indices.

A deviant is an effort plus one report per observed value, and under every
kind its expected reward against a symmetric base is a sum of one term per
observed value.  Each evaluator returns those terms against G bases, given as
(efforts, maps) arrays (``strategies.pure_strategy_arrays`` or ``strategy_arrays``):
``V[g, e, o, r]`` is the expected unchecked reward that a deviant with effort
``e`` (``Effort`` order) earns on the event that it observes ``o``, if it
reports ``r`` there, against base ``g``.  The deviant with effort ``e`` and
report map ``m`` earns ``sum_o V[g, e, o, m(o)]`` (``strategy_rewards``).  A
reward paid whatever the deviant reports (a constant, an offset) is put at
``o = 0``.  The audit reward of the spot-checked game M = (p, y, z) has the same
shape without a base: ``audit_rewards`` gives ``A[e, o, r]``, and it alone reads
the trusted channel.

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

from .errors import EnumerationBudgetExceeded
from .scoring import NEGATIVE_SENTINEL
from .signals import Environment
from .strategies import FULL_EFFORT, NO_EFFORT, Strategy, peer_report_posteriors, strategy_arrays

SUPPORT_ATOL = 1e-12
ENUMERATION_BUDGET = 10_000_000


def outer_weights(env: Environment) -> np.ndarray:
    """Joint mass of (quality, low draw), shape (k, k)."""
    return env.prior.as_array()[:, None] * env.low_channel.matrix()


def observation_laws(env: Environment) -> np.ndarray:
    """P(observed value | quality, low draw) per effort in ``Effort`` order, shape (2, k, k, k):
    a fresh high draw under full effort, the shared low draw itself without."""
    k = len(env.q_space)
    laws = np.zeros((2, k, k, k))
    laws[FULL_EFFORT] = env.high_channel.matrix()[:, None, :]
    laws[NO_EFFORT, :, np.arange(k), np.arange(k)] = 1.0
    return laws


def strategy_rewards(values: np.ndarray, efforts: np.ndarray, maps: np.ndarray, rows=Ellipsis) -> np.ndarray:
    """Per-observation terms summed for each strategy: ``sum_o values[..., e, o, m(o)]`` for
    the strategies with efforts ``efforts`` (``Effort`` positions) and report maps ``maps``
    (one row each).  ``values`` is (..., 2, k, k); the result is (..., len(maps)).  Given
    ``rows``, an index into the leading axis of ``values`` that broadcasts against the
    strategies, strategy s reads ``values[rows[s]]`` instead.  The sum runs in observation
    order, so one strategy's reward has one rounding everywhere."""
    total = values[rows, efforts, 0, maps[:, 0]]
    for o in range(1, maps.shape[1]):
        total = total + values[rows, efforts, o, maps[:, o]]
    return total


def base_report_laws(env: Environment, bases: tuple) -> np.ndarray:
    """P(report | quality, low draw) per base, shape (G, k, k, k)."""
    efforts, maps = bases
    return observation_laws(env)[efforts] @ np.eye(len(env.q_space))[maps][:, None]


def _per_observation(env: Environment, x: np.ndarray) -> np.ndarray:
    """``sum_{q,l} w[q, l] P(o | q, l, e) x[g, q, l, r]`` for a per-base quantity ``x`` of
    shape (G, k, k, k): the deviant-observation terms, shape (G, 2, k, k)."""
    k = len(env.q_space)
    weighted = outer_weights(env)[None, :, :, None] * observation_laws(env)
    by_observation = np.swapaxes(weighted.reshape(2, k * k, k), 1, 2)  # [e, o, (q, l)]
    return by_observation[None] @ x.reshape(len(x), 1, k * k, k)


def _observation_marginals(env: Environment) -> np.ndarray:
    """P(observe o) per effort, shape (2, k)."""
    return np.einsum("ql,eqlo->eo", outer_weights(env), observation_laws(env))


def _with_constant(values: np.ndarray, constant: float) -> np.ndarray:
    """``values`` plus a reward paid whatever the deviant reports, put at observation 0."""
    values[:, :, 0, :] += constant
    return values


def _beliefs(env: Environment, rule, bases: tuple) -> tuple:
    """Belief tables and their scores at each outcome.

    Beliefs depend only on the holder's effort and the base: ``beliefs[e, g]``
    (one row per observed value) is held by a deviant with effort e against
    base g, and base g itself holds ``beliefs[efforts[g], g]``.
    """
    k = len(env.q_space)
    beliefs = peer_report_posteriors(env, bases)
    return beliefs, rule.score_table(beliefs.reshape(-1, k)).reshape(beliefs.shape)


def _scores_at_base_reports(scores: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """``out[g, e, o, j] = scores[e, g, o, maps[g, j]]``: a deviant's belief score, after it
    observes o, at the report base g makes after observing j."""
    return np.take_along_axis(np.moveaxis(scores, 0, 1), maps[:, None, None, :], axis=3)


def _joint_observations(env: Environment, efforts: np.ndarray, peers: int) -> np.ndarray:
    """Joint law of a deviant's observation and those of ``peers`` (1 or 2) distinct agents
    of each base's effort (positions ``efforts``), shape (G, 2) + (k,) * (peers + 1):
    ``[g, e, o, o_1, ...]``.  Given (quality, low draw) the observations are independent."""
    w, laws = outer_weights(env), observation_laws(env)
    subscripts = {1: "ql,qla,qlb->ab", 2: "ql,qla,qlb,qlc->abc"}[peers]
    joint = np.array([[np.einsum(subscripts, w, own, *[peer] * peers) for peer in laws] for own in laws])
    return np.moveaxis(joint[:, efforts], 1, 0)


def audit_rewards(env: Environment) -> np.ndarray:
    """Exact E[y] per observation, shape (2, k, k): ``A[e, o, r]`` is what an agent with
    effort e earns on the event that it observes o, if it reports r there, so a strategy
    earns ``sum_o A[e, o, m(o)]``.  With probability p a report is audited: it earns its
    match with the trusted draw on the same object minus its match with an independent
    object's trusted draw (the joint report/trusted law minus the product of marginals),
    which zeroes out constant-report strategies."""
    weighted = outer_weights(env)[None, :, :, None] * observation_laws(env)
    joint = np.einsum("eqlo,qt->eot", weighted, env.trusted_channel.matrix())  # [e, observed, trusted]
    return joint - joint.sum(axis=2)[:, :, None] * joint.sum(axis=1)[:, None, :]


def expected_spot_reward(env: Environment, strategy: Strategy) -> float:
    """Exact E[y] for one agent."""
    return float(strategy_rewards(audit_rewards(env), *strategy_arrays([strategy], len(env.q_space)))[0])


# ---------------------------------------------------------------------------
# Evaluators.  Each returns the per-observation rewards V of every deviant
# against each of the G bases in ``bases`` = (efforts, maps), shape (G, 2, k, k).
# ---------------------------------------------------------------------------


def output_agreement(spec, env: Environment, bases: tuple) -> np.ndarray:
    return _per_observation(env, base_report_laws(env, bases))


def peer_truth_serum(spec, env: Environment, bases: tuple) -> np.ndarray:
    """Per-object frequency limit: agreement on label r pays beta / freq(r), and the
    realized frequency concentrates on the base profile's conditional report mass,
    so each supported label contributes exactly the deviant's mass on it."""
    support = (base_report_laws(env, bases) > SUPPORT_ATOL).astype(float)
    return _with_constant(spec.beta * _per_observation(env, support), spec.alpha)


def correlated_agreement(spec, env: Environment, bases: tuple) -> np.ndarray:
    rg = base_report_laws(env, bases)
    marg_g = np.einsum("ql,gqlr->gr", outer_weights(env), rg)
    cross = _observation_marginals(env)[None, :, :, None] * marg_g[:, None, None, :]
    return _per_observation(env, rg) - cross


def sqrt_scaled_agreement(spec, env: Environment, bases: tuple) -> np.ndarray:
    """Many-object limit: the frequency statistic for label s converges to
    sqrt(pairwise base agreement mass on s); degenerate labels (mass 0 or 1) pay zero."""
    rg = base_report_laws(env, bases)
    pair_mass = np.einsum("ql,gqls,gqls->gs", outer_weights(env), rg, rg)
    live = ((pair_mass > SUPPORT_ATOL) & (pair_mass < 1.0 - SUPPORT_ATOL))[:, None, None, :]
    ratio = _per_observation(env, rg) / np.sqrt(np.where(live, pair_mass[:, None, None, :], 1.0))
    return spec.scale * np.where(live, ratio, 0.0)


def double_mixed_agreement(spec, env: Environment, bases: tuple) -> np.ndarray:
    """Many-object limit of the double-mixed sampling mechanism.

    The cross-object sample is double mixed with limiting probability one iff
    every label carries positive base-report mass; otherwise the reward is
    identically zero.  Conditional on the sample, the two reference reports are
    independent draws on objects whose sampled report equals the focal agent's
    report, i.e. draws from the base pair-conditional law.
    """
    w = outer_weights(env)
    rg = base_report_laws(env, bases)
    marg_g = np.einsum("ql,gqlr->gr", w, rg)
    mixed = marg_g.min(axis=1) > SUPPORT_ATOL
    pair_g = np.einsum("ql,gqlv,gqlx->gvx", w, rg, rg)
    # cond[g, v, x] = P(second base report = x | first = v)
    cond = pair_g / np.where(mixed[:, None], marg_g, 1.0)[:, :, None]
    joint = _per_observation(env, rg)  # [g, e, o, y]: the deviant observes o, its same-object peer reports y
    match_peer = joint @ np.swapaxes(cond, 1, 2)[:, None]
    match_refs = joint.sum(axis=3)[..., None] * np.einsum("gvx,gvx->gv", cond, cond)[:, None, None, :]
    values = _with_constant(match_peer - 0.5 * match_refs, 0.5)
    return np.where(mixed[:, None, None, None], values, 0.0)


def robust_bts(spec, env: Environment, bases: tuple) -> np.ndarray:
    k = len(env.q_space)
    beliefs, scores = _beliefs(env, spec.rule, bases)
    efforts, maps = bases
    triple = _joint_observations(env, efforts, 2)  # [g, e, oi, oj, ok]
    # The shadow belief moves base g's belief after observation oj towards the
    # focal report r: shadow[g, oj, r, outcome].
    p_one = beliefs[efforts, np.arange(len(maps)), :, 1]
    delta = np.minimum(p_one, 1.0 - p_one)
    shadow_one = np.stack([p_one - delta, p_one + delta], axis=-1)
    shadow = np.stack([1.0 - shadow_one, shadow_one], axis=-1)
    shadow_scores = spec.rule.score_table(shadow.reshape(-1, k)).reshape(shadow.shape)
    at_peer = np.take_along_axis(shadow_scores, maps[:, None, None, :], axis=3)  # [g, oj, r, ok]
    shadow_part = np.einsum("geijk,gjrk->geir", triple, at_peer)
    own_part = np.einsum("geijk,geik->gei", triple, _scores_at_base_reports(scores, maps))
    return shadow_part + own_part[..., None]


def multi_valued_robust_bts(spec, env: Environment, bases: tuple) -> np.ndarray:
    k = len(env.q_space)
    beliefs, scores = _beliefs(env, spec.rule, bases)
    efforts, maps = bases
    pair = _joint_observations(env, efforts, 1)  # [g, e, oi, oj]
    held = beliefs[efforts, np.arange(len(maps))]  # [g, oj, r]
    with np.errstate(divide="ignore"):
        match = np.where(held > 0.0, 1.0 / held, NEGATIVE_SENTINEL)
    match = np.where(np.eye(k, dtype=bool)[maps], match, 0.0)  # pays only where r is base g's report
    own = (pair * _scores_at_base_reports(scores, maps)).sum(axis=3)
    return pair @ match[:, None] + own[..., None]


def divergence_bts(spec, env: Environment, bases: tuple) -> np.ndarray:
    k = len(env.q_space)
    beliefs, scores = _beliefs(env, spec.rule, bases)
    efforts, maps = bases
    pair = _joint_observations(env, efforts, 1)  # [g, e, oi, oj]
    # divergence D(held || peer) = E_{s~held}[score(held, s) - score(peer, s)],
    # unbounded where the log rule meets zero peer mass on the held support
    held, support = beliefs[:, :, :, None, :], beliefs[:, :, :, None, :] > 0.0  # [e, g, oi, -, s]
    peer_scores = scores[efforts, np.arange(len(maps))][None, :, None]  # [-, g, -, oj, s]
    gap = np.where(support, held * (scores[:, :, :, None, :] - peer_scores), 0.0).sum(axis=4)
    gap[np.any(support & (peer_scores == NEGATIVE_SENTINEL), axis=4)] = np.inf
    penalty = pair * np.moveaxis(gap > spec.theta, 0, 1)
    own = (pair * _scores_at_base_reports(scores, maps)).sum(axis=3)
    return own[..., None] - penalty @ np.eye(k)[maps][:, None]


def _peer_multisets(env: Environment, base_effort: int, n_peers: int) -> tuple:
    """Peer observation multisets under the base effort at position ``base_effort``, with
    their joint weights.

    Returns (counts, weights): counts[m, v] is the number of peers observing
    value v in multiset m, and weights[m, e, o] the probability of multiset m
    jointly with the holder observing o under effort e (``Effort`` order).
    """
    k = len(env.q_space)
    w = outer_weights(env)
    laws = observation_laws(env)
    counts, weights = [], []
    if base_effort == FULL_EFFORT:
        n_multisets = math.comb(n_peers + k - 1, k - 1)
        if n_multisets * (k**3) > ENUMERATION_BUDGET:
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


def minimum_truth_serum(spec, env: Environment, bases: tuple) -> np.ndarray:
    """Belief scores against all peers, capped by the same-report proxy belief score.

    Peer reports enter only through their observation multiset, so full-effort
    base profiles are enumerated over multisets with multinomial weights.
    """
    k = len(env.q_space)
    n_peers = env.n_agents - 1
    scale = 1.0 if spec.mts_aggregation == "mean" else float(n_peers)
    beliefs, scores = _beliefs(env, spec.rule, bases)
    efforts, maps = bases
    values = np.zeros((len(efforts), 2, k, k))
    for position in range(2):
        cols = np.flatnonzero(efforts == position)
        if cols.size == 0:
            continue
        counts, weights = _peer_multisets(env, position, n_peers)
        base_beliefs = beliefs[position, cols]
        own_scores = scores[:, cols]  # [e, g, o, x]
        # reports[g, r, o]: base g reports r after observing o
        reports = maps[cols, None, :] == np.arange(k)[None, :, None]
        block = np.zeros((cols.size, 2, k, k))
        for c, weight in zip(counts, weights):
            same = reports * c  # same[g, r, o]: peers that observe o and report r
            report_counts = same.sum(axis=2)
            peer_freq = report_counts / n_peers
            every_label = report_counts.min(axis=1) >= 1
            # Proxy belief for own report r: mean belief of the peers reporting r.
            with np.errstate(invalid="ignore", divide="ignore"):
                proxy = (same @ base_beliefs) / report_counts[:, :, None]
                proxy_scores = spec.rule.score_table(proxy.reshape(-1, k)).reshape(proxy.shape)
            capped = np.einsum("gx,grx->gr", peer_freq, proxy_scores)[:, None, None, :]
            mean_own = np.einsum("gx,egox->geo", peer_freq, own_scores)[..., None]
            reward = np.where(every_label[:, None, None, None] & (capped < mean_own), capped, mean_own)
            block = block + weight[None, :, :, None] * reward * scale
        values[cols] = block
    return values


def peer_insensitive(spec, env: Environment, bases: tuple) -> np.ndarray:
    k = len(env.q_space)
    return _with_constant(np.zeros((len(bases[0]), 2, k, k)), float(spec.constant_reward))
