"""The universal peer-mechanism zoo: per-realization rewards and expected utilities.

Ten unchecked mechanisms are supported.  Signal-only kinds compare reports;
belief-based kinds additionally score belief reports with a proper scoring
rule; the peer-insensitive kind pays a constant.  Every kind exposes a
per-realization reward on a concrete instance and an expected per-object
utility for symmetric-with-one-deviant profiles, computed exactly where an
analytic form exists and by seeded Monte Carlo otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _expectations as _exact
from .errors import (
    EnumerationBudgetExceeded,
    NoDisjointTaskSets,
    NonBinaryLabelSpace,
    NoPeer,
    NotEnoughObjects,
    ShapeMismatch,
    TooFewAgents,
)
from .scoring import NEGATIVE_SENTINEL, QUADRATIC, ScoringRule, divergence, rule_from_name
from .signals import Environment, LabelSpace
from .strategies import Strategy, StrategyProfile


class MechanismKind(str, Enum):
    OUTPUT_AGREEMENT = "output_agreement"
    PEER_TRUTH_SERUM = "peer_truth_serum"
    CORRELATED_AGREEMENT = "correlated_agreement"
    SQRT_SCALED_AGREEMENT = "sqrt_scaled_agreement"
    DOUBLE_MIXED_AGREEMENT = "double_mixed_agreement"
    ROBUST_BTS = "robust_bts"
    MULTI_VALUED_ROBUST_BTS = "multi_valued_robust_bts"
    DIVERGENCE_BTS = "divergence_bts"
    MINIMUM_TRUTH_SERUM = "minimum_truth_serum"
    PEER_INSENSITIVE = "peer_insensitive"


BELIEF_BASED_KINDS = frozenset(
    {
        MechanismKind.ROBUST_BTS,
        MechanismKind.MULTI_VALUED_ROBUST_BTS,
        MechanismKind.DIVERGENCE_BTS,
        MechanismKind.MINIMUM_TRUTH_SERUM,
    }
)


@dataclass(frozen=True)
class MechanismSpec:
    """Tagged choice of an unchecked mechanism with its parameters."""

    kind: MechanismKind
    alpha: float = 1.0  # peer truth serum offset
    beta: float = 1.0  # peer truth serum agreement weight
    scale: float = 1.0  # sqrt-scaled agreement constant (JSON key "K")
    theta: float = 0.05  # divergence threshold
    constant_reward: float = 1.0  # peer-insensitive payment (JSON key "W")
    rule: ScoringRule = QUADRATIC
    pts_frequency: str = "object"  # "object" or "batch" empirical frequency
    mts_aggregation: str = "mean"  # "mean" or "sum" over peer scores

    def __post_init__(self):
        positive = {
            MechanismKind.PEER_TRUTH_SERUM: [("alpha", self.alpha), ("beta", self.beta)],
            MechanismKind.SQRT_SCALED_AGREEMENT: [("K", self.scale)],
            MechanismKind.DIVERGENCE_BTS: [("theta", self.theta)],
            MechanismKind.PEER_INSENSITIVE: [("W", self.constant_reward)],
        }.get(self.kind, [])
        for name, value in positive:
            if not value > 0:
                raise ShapeMismatch(f"{self.kind.value} requires {name} > 0, got {value}")
        if self.pts_frequency not in ("object", "batch"):
            raise ShapeMismatch(f"pts_frequency must be 'object' or 'batch', got {self.pts_frequency!r}")
        if self.mts_aggregation not in ("mean", "sum"):
            raise ShapeMismatch(f"mts_aggregation must be 'mean' or 'sum', got {self.mts_aggregation!r}")

    def describe(self) -> str:
        return self.kind.value

    def to_json_dict(self) -> dict:
        doc: dict = {"kind": self.kind.value}
        if self.kind is MechanismKind.PEER_TRUTH_SERUM:
            doc.update(alpha=self.alpha, beta=self.beta, pts_frequency=self.pts_frequency)
        if self.kind is MechanismKind.SQRT_SCALED_AGREEMENT:
            doc["K"] = self.scale
        if self.kind is MechanismKind.DIVERGENCE_BTS:
            doc["theta"] = self.theta
        if self.kind is MechanismKind.PEER_INSENSITIVE:
            doc["W"] = self.constant_reward
        if self.kind is MechanismKind.MINIMUM_TRUTH_SERUM:
            doc["mts_aggregation"] = self.mts_aggregation
        if self.kind in BELIEF_BASED_KINDS:
            doc["rule"] = self.rule.name
        return doc

    @staticmethod
    def from_json_dict(doc: dict) -> "MechanismSpec":
        kind = MechanismKind(doc["kind"])
        return MechanismSpec(
            kind,
            alpha=float(doc.get("alpha", 1.0)),
            beta=float(doc.get("beta", 1.0)),
            scale=float(doc.get("K", 1.0)),
            theta=float(doc.get("theta", 0.05)),
            constant_reward=float(doc.get("W", 1.0)),
            rule=rule_from_name(doc.get("rule", "quadratic")),
            pts_frequency=doc.get("pts_frequency", "object"),
            mts_aggregation=doc.get("mts_aggregation", "mean"),
        )


def all_mechanisms(rule: ScoringRule = QUADRATIC) -> list:
    """One spec per kind with default parameters."""
    return [MechanismSpec(kind, rule=rule) for kind in MechanismKind]


@dataclass(frozen=True)
class UtilityEstimate:
    """Expected per-object reward, exact or sampled."""

    value: float
    stderr: float = 0.0
    method: str = "analytic"  # "analytic" or "monte_carlo"
    samples: int = 0

    def __post_init__(self):
        if self.method == "analytic" and self.stderr != 0.0:
            raise ShapeMismatch("analytic estimates carry zero stderr")


@dataclass
class RealizedInstance:
    """Concrete reports for a batch of agents and objects.

    ``signal[a, j]`` is the reported label index (-1 where agent a did not
    evaluate object j); ``beliefs[a, j]`` the belief vector; ``trusted[j]``
    the trusted label index (-1 where absent).
    """

    labels: LabelSpace
    signal: np.ndarray
    beliefs: np.ndarray
    trusted: np.ndarray
    evaluated: np.ndarray

    @property
    def n_agents(self) -> int:
        return self.signal.shape[0]

    @property
    def n_objects(self) -> int:
        return self.signal.shape[1]

    def evaluators_of(self, obj: int) -> np.ndarray:
        return np.flatnonzero(self.evaluated[:, obj])

    def objects_of(self, agent: int) -> np.ndarray:
        return np.flatnonzero(self.evaluated[agent])

    @staticmethod
    def full(labels: LabelSpace, signal, beliefs=None, trusted=None) -> "RealizedInstance":
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
        if trusted is None:
            trusted = np.full(m, -1, dtype=int)
        return RealizedInstance(
            labels=labels,
            signal=signal,
            beliefs=beliefs,
            trusted=np.asarray(trusted, dtype=int),
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
    frequency: str = "object",
) -> float:
    peer = _pick_peer(inst, agent, obj, rng)
    peer_report = inst.signal[peer, obj]
    if frequency == "object":
        pool = inst.signal[inst.evaluated[:, obj], obj]
    else:
        pool = inst.signal[inst.evaluated]
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
    return rule.score_array(shadow, outcome) + rule.score_array(inst.beliefs[agent, obj], outcome)


def reward_multi_valued_robust_bts(
    inst: RealizedInstance, agent: int, obj: int, rule: ScoringRule, rng: np.random.Generator
) -> float:
    peer = _pick_peer(inst, agent, obj, rng)
    ri, rj = int(inst.signal[agent, obj]), int(inst.signal[peer, obj])
    match = 0.0
    if ri == rj:
        bj = float(inst.beliefs[peer, obj][ri])
        match = 1.0 / bj if bj > 0.0 else NEGATIVE_SENTINEL
    return match + rule.score_array(inst.beliefs[agent, obj], rj)


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
    return rule.score_array(inst.beliefs[agent, obj], rj) - penalty


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
    own_scores = [rule.score_array(own_belief, int(r)) for r in peer_reports]
    mean_own = float(np.mean(own_scores))
    if counts.min() < 1:
        reward = mean_own
    else:
        ri = int(inst.signal[agent, obj])
        same = [a for a in peers if inst.signal[a, obj] == ri]
        proxy = np.mean([inst.beliefs[a, obj] for a in same], axis=0)
        mean_proxy = float(np.mean([rule.score_array(proxy, int(r)) for r in peer_reports]))
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
        return reward_peer_truth_serum(
            inst, agent, obj, spec.alpha, spec.beta, rng, spec.pts_frequency
        )
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


def expected_unchecked_utility(
    spec: MechanismSpec,
    env: Environment,
    profile: StrategyProfile,
    for_agent: int | None = None,
    method: str = "auto",
    trials: int = 20_000,
    seed: int = 0,
) -> UtilityEstimate:
    """Expected per-object unchecked reward of the focal agent against the base profile.

    ``method='analytic'`` uses the exact evaluators (many-object limits for
    the multi-object kinds); the double-mixed kind reports its many-object
    limit.  ``method='monte_carlo'`` defers to :func:`simulate_utilities`.
    ``'auto'`` prefers the analytic path and falls back to Monte Carlo when
    enumeration budgets are exceeded.
    """
    from . import _sampling

    if method not in ("auto", "analytic", "monte_carlo"):
        raise ShapeMismatch(f"unknown method {method!r}")
    if for_agent is not None and profile.deviant is not None and for_agent != profile.deviant[0]:
        # A non-deviant focal agent faces the same symmetric base field.
        profile = StrategyProfile.symmetric(profile.base)
    if method == "monte_carlo":
        return _sampling.simulate_utilities(spec, env, profile, trials=trials, seed=seed)
    try:
        value = analytic_unchecked_value(spec, env, profile.base, profile.focal_strategy())
        return UtilityEstimate(value=value, method="analytic")
    except EnumerationBudgetExceeded:
        if method == "analytic":
            raise
        return _sampling.simulate_utilities(spec, env, profile, trials=trials, seed=seed)


_EXACT = {
    MechanismKind.OUTPUT_AGREEMENT: _exact.output_agreement,
    MechanismKind.PEER_TRUTH_SERUM: _exact.peer_truth_serum,
    MechanismKind.CORRELATED_AGREEMENT: _exact.correlated_agreement,
    MechanismKind.SQRT_SCALED_AGREEMENT: _exact.sqrt_scaled_agreement,
    MechanismKind.DOUBLE_MIXED_AGREEMENT: _exact.double_mixed_agreement,
    MechanismKind.ROBUST_BTS: _exact.robust_bts,
    MechanismKind.MULTI_VALUED_ROBUST_BTS: _exact.multi_valued_robust_bts,
    MechanismKind.DIVERGENCE_BTS: _exact.divergence_bts,
    MechanismKind.MINIMUM_TRUTH_SERUM: _exact.minimum_truth_serum,
    MechanismKind.PEER_INSENSITIVE: _exact.peer_insensitive,
}


def unchecked_block(spec: MechanismSpec, env: Environment, bases: list, deviants: list) -> np.ndarray:
    """Exact per-object E[z(deviant, base)], shape (len(deviants), len(bases)); limits for
    multi-object kinds."""
    return _EXACT[spec.kind](spec, env, bases, deviants)


def analytic_unchecked_value(
    spec: MechanismSpec, env: Environment, base: Strategy, deviant: Strategy
) -> float:
    """Exact per-object expectation E[z(deviant, base)]: a one-cell :func:`unchecked_block`."""
    return float(unchecked_block(spec, env, [base], [deviant])[0, 0])


def simulate_utilities(
    spec: MechanismSpec,
    env: Environment,
    profile: StrategyProfile,
    trials: int,
    seed: int,
    include_effort_cost: bool = False,
) -> UtilityEstimate:
    """Seeded Monte-Carlo estimate of the focal agent's per-object unchecked reward.

    Estimates the raw mechanism reward by default; set ``include_effort_cost``
    to subtract the effort cost of the focal strategy from every sample.
    """
    from . import _sampling

    return _sampling.simulate_utilities(
        spec, env, profile, trials=trials, seed=seed, include_effort_cost=include_effort_cost
    )


def mixture_unchecked_value(
    spec: MechanismSpec, env: Environment, base: Strategy, mixture
) -> float:
    """Deviant-side mixtures are affine in the component utilities."""
    values = unchecked_block(spec, env, [base], list(mixture.components))[:, 0]
    return float(np.dot(mixture.weights, values))
