"""Per-realization rewards of every unchecked mechanism on a concrete instance.

A reference for the package's samplers and exact engine, not part of the
package: each ``reward_*`` pays one agent for one object given every agent's
reported label and belief on a ``RealizedInstance``, exactly as the
mechanism's definition reads, with peers, scoring agents and holdout samples
picked by a seeded generator.  The hand-computed reward tests pin these
definitions, and averaging ``realized_reward`` over drawn one-object
instances must reproduce ``simulate_utilities``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from peerspot import (
    LabelSpace,
    MechanismKind,
    MechanismSpec,
    NonBinaryLabelSpace,
    NotEnoughObjects,
    PeerSpotError,
    ScoringRule,
    TooFewAgents,
)
from peerspot.scoring import NEGATIVE_SENTINEL, divergence, score


class NoPeer(PeerSpotError):
    """No distinct reference agent evaluated the object."""


class NoDisjointTaskSets(PeerSpotError):
    """The object assignment admits no disjoint task sets for the agent pair."""


@dataclass
class RealizedInstance:
    """Concrete reports for a batch of agents and objects.

    ``signal[a, j]`` is the reported label index (-1 where agent a did not
    evaluate object j); ``beliefs[a, j]`` the belief vector.
    """

    labels: LabelSpace
    signal: np.ndarray
    beliefs: np.ndarray
    evaluated: np.ndarray

    @property
    def n_agents(self) -> int:
        return self.signal.shape[0]

    @property
    def n_objects(self) -> int:
        return self.signal.shape[1]

    def evaluators_of(self, obj: int) -> np.ndarray:
        return np.flatnonzero(self.evaluated[:, obj])

    @staticmethod
    def full(labels: LabelSpace, signal, beliefs=None) -> "RealizedInstance":
        """All agents evaluate all objects; beliefs default to point masses on the reports."""
        signal = np.asarray(signal, dtype=int)
        n, m = signal.shape
        k = len(labels)
        if beliefs is None:
            beliefs = np.zeros((n, m, k))
            rows, cols = np.indices((n, m))
            beliefs[rows, cols, signal] = 1.0
        else:
            beliefs = np.asarray(beliefs, dtype=float)
        return RealizedInstance(
            labels=labels,
            signal=signal,
            beliefs=beliefs,
            evaluated=np.ones((n, m), dtype=bool),
        )


def _pick_peer(inst: RealizedInstance, agent: int, obj: int, rng: np.random.Generator) -> int:
    peers = [a for a in inst.evaluators_of(obj) if a != agent]
    if not peers:
        raise NoPeer(f"object {obj} has no evaluator besides agent {agent}")
    return int(peers[rng.integers(len(peers))])


def reward_output_agreement(
    inst: RealizedInstance, agent: int, obj: int, rng: np.random.Generator
) -> float:
    peer = _pick_peer(inst, agent, obj, rng)
    return float(inst.signal[agent, obj] == inst.signal[peer, obj])


def reward_peer_truth_serum(
    inst: RealizedInstance,
    agent: int,
    obj: int,
    alpha: float,
    beta: float,
    rng: np.random.Generator,
) -> float:
    peer = _pick_peer(inst, agent, obj, rng)
    peer_report = inst.signal[peer, obj]
    pool = inst.signal[inst.evaluated[:, obj], obj]  # every report on the object
    freq = float(np.mean(pool == peer_report))
    return alpha + beta * float(inst.signal[agent, obj] == peer_report) / freq


def reward_correlated_agreement(
    inst: RealizedInstance, agent: int, obj: int, rng: np.random.Generator
) -> float:
    peer = _pick_peer(inst, agent, obj, rng)
    mine = inst.evaluated[agent] & ~inst.evaluated[peer]
    theirs = inst.evaluated[peer] & ~inst.evaluated[agent]
    mine[obj] = theirs[obj] = False
    if not mine.any() or not theirs.any():
        raise NoDisjointTaskSets(f"agents {agent} and {peer} share every evaluated object")
    k = len(inst.labels)
    f_own = np.bincount(inst.signal[agent, mine], minlength=k) / mine.sum()
    f_peer = np.bincount(inst.signal[peer, theirs], minlength=k) / theirs.sum()
    agree = float(inst.signal[agent, obj] == inst.signal[peer, obj])
    return agree - float(f_own @ f_peer)


def reward_sqrt_scaled_agreement(
    inst: RealizedInstance, agent: int, obj: int, scale: float, rng: np.random.Generator
) -> float:
    peer = _pick_peer(inst, agent, obj, rng)
    others = [a for a in range(inst.n_agents) if a not in (agent, peer)]
    if len(others) < 2:
        raise TooFewAgents("sqrt-scaled agreement needs two scoring agents besides the pair")
    k1, k2 = rng.choice(others, size=2, replace=False)
    both = inst.evaluated[k1] & inst.evaluated[k2]
    target = inst.signal[peer, obj]
    hits = (inst.signal[k1, both] == target) & (inst.signal[k2, both] == target)
    f_hat = float(np.sqrt(np.mean(hits)))
    if f_hat in (0.0, 1.0):
        return 0.0
    return float(inst.signal[agent, obj] == target) * scale / f_hat


def reward_double_mixed_agreement(
    inst: RealizedInstance, agent: int, obj: int, rng: np.random.Generator
) -> float:
    if inst.n_objects < 3:
        raise NotEnoughObjects("double-mixed agreement needs at least three objects")
    peer = _pick_peer(inst, agent, obj, rng)
    outside = np.flatnonzero(~inst.evaluated[agent])
    sample_objs, sample_reports = [], []
    for o in outside:
        reporters = inst.evaluators_of(o)
        if len(reporters) == 0:
            continue
        reporter = int(reporters[rng.integers(len(reporters))])
        sample_objs.append((o, reporter))
        sample_reports.append(int(inst.signal[reporter, o]))
    counts = np.bincount(sample_reports, minlength=len(inst.labels)) if sample_reports else np.zeros(1)
    if len(sample_reports) == 0 or counts.min() < 2:
        return 0.0  # sample not double mixed
    own = int(inst.signal[agent, obj])
    matching = [i for i, r in enumerate(sample_reports) if r == own]
    if len(matching) < 2:
        raise NotEnoughObjects("double-mixed sample lacks two entries matching the report")
    pick = rng.choice(len(matching), size=2, replace=False)
    refs = []
    for idx in (matching[pick[0]], matching[pick[1]]):
        o, sampler = sample_objs[idx]
        candidates = [a for a in inst.evaluators_of(o) if a != sampler]
        chosen = int(candidates[rng.integers(len(candidates))]) if candidates else sampler
        refs.append(int(inst.signal[chosen, o]))
    peer_report = int(inst.signal[peer, obj])
    return 0.5 + float(refs[0] == peer_report) - 0.5 * float(refs[0] == refs[1])


def _distinct_peers(inst, agent, obj, rng, count):
    peers = [a for a in inst.evaluators_of(obj) if a != agent]
    if len(peers) < count:
        raise NoPeer(f"object {obj} needs {count} peers for agent {agent}")
    picked = rng.choice(peers, size=count, replace=False)
    return [int(a) for a in picked]


def reward_robust_bts(
    inst: RealizedInstance, agent: int, obj: int, rule: ScoringRule, rng: np.random.Generator
) -> float:
    if len(inst.labels) != 2:
        raise NonBinaryLabelSpace("robust BTS is defined for binary label spaces only")
    j, k_agent = _distinct_peers(inst, agent, obj, rng, 2)
    p_one = float(inst.beliefs[j, obj][1])
    delta = min(p_one, 1.0 - p_one)
    shadow_one = p_one + delta if inst.signal[agent, obj] == 1 else p_one - delta
    shadow = np.array([1.0 - shadow_one, shadow_one])
    outcome = int(inst.signal[k_agent, obj])
    return score(rule, shadow, outcome) + score(rule, inst.beliefs[agent, obj], outcome)


def reward_multi_valued_robust_bts(
    inst: RealizedInstance, agent: int, obj: int, rule: ScoringRule, rng: np.random.Generator
) -> float:
    peer = _pick_peer(inst, agent, obj, rng)
    ri, rj = int(inst.signal[agent, obj]), int(inst.signal[peer, obj])
    match = 0.0
    if ri == rj:
        bj = float(inst.beliefs[peer, obj][ri])
        match = 1.0 / bj if bj > 0.0 else NEGATIVE_SENTINEL
    return match + score(rule, inst.beliefs[agent, obj], rj)


def reward_divergence_bts(
    inst: RealizedInstance,
    agent: int,
    obj: int,
    rule: ScoringRule,
    theta: float,
    rng: np.random.Generator,
) -> float:
    peer = _pick_peer(inst, agent, obj, rng)
    ri, rj = int(inst.signal[agent, obj]), int(inst.signal[peer, obj])
    penalty = 0.0
    if ri == rj and divergence(rule, inst.beliefs[agent, obj], inst.beliefs[peer, obj]) > theta:
        penalty = 1.0
    return score(rule, inst.beliefs[agent, obj], rj) - penalty


def reward_minimum_truth_serum(
    inst: RealizedInstance,
    agent: int,
    obj: int,
    rule: ScoringRule,
    aggregation: str = "mean",
) -> float:
    peers = [a for a in inst.evaluators_of(obj) if a != agent]
    if len(peers) < 2:
        raise NoPeer("minimum truth serum needs at least two peers on the object")
    k = len(inst.labels)
    peer_reports = inst.signal[peers, obj]
    counts = np.bincount(peer_reports, minlength=k)
    own_belief = inst.beliefs[agent, obj]
    own_scores = [score(rule, own_belief, r) for r in peer_reports]
    mean_own = float(np.mean(own_scores))
    if counts.min() < 1:
        reward = mean_own
    else:
        ri = int(inst.signal[agent, obj])
        same = [a for a in peers if inst.signal[a, obj] == ri]
        proxy = np.mean([inst.beliefs[a, obj] for a in same], axis=0)
        mean_proxy = float(np.mean([score(rule, proxy, r) for r in peer_reports]))
        reward = min(mean_own, mean_proxy)
    return reward * (1.0 if aggregation == "mean" else len(peers))


def reward_peer_insensitive(spec: MechanismSpec) -> float:
    return spec.constant_reward


def realized_reward(
    spec: MechanismSpec,
    inst: RealizedInstance,
    agent: int,
    obj: int,
    rng: np.random.Generator,
) -> float:
    """Dispatch a single (agent, object) reward under the unchecked mechanism."""
    kind = spec.kind
    if kind is MechanismKind.OUTPUT_AGREEMENT:
        return reward_output_agreement(inst, agent, obj, rng)
    if kind is MechanismKind.PEER_TRUTH_SERUM:
        return reward_peer_truth_serum(inst, agent, obj, spec.alpha, spec.beta, rng)
    if kind is MechanismKind.CORRELATED_AGREEMENT:
        return reward_correlated_agreement(inst, agent, obj, rng)
    if kind is MechanismKind.SQRT_SCALED_AGREEMENT:
        return reward_sqrt_scaled_agreement(inst, agent, obj, spec.scale, rng)
    if kind is MechanismKind.DOUBLE_MIXED_AGREEMENT:
        return reward_double_mixed_agreement(inst, agent, obj, rng)
    if kind is MechanismKind.ROBUST_BTS:
        return reward_robust_bts(inst, agent, obj, spec.rule, rng)
    if kind is MechanismKind.MULTI_VALUED_ROBUST_BTS:
        return reward_multi_valued_robust_bts(inst, agent, obj, spec.rule, rng)
    if kind is MechanismKind.DIVERGENCE_BTS:
        return reward_divergence_bts(inst, agent, obj, spec.rule, spec.theta, rng)
    if kind is MechanismKind.MINIMUM_TRUTH_SERUM:
        return reward_minimum_truth_serum(inst, agent, obj, spec.rule, spec.mts_aggregation)
    return reward_peer_insensitive(spec)
