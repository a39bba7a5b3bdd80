"""Spot-check rewards and the combined spot-checked game M = (p, y, z).

With probability p a report is audited: the agent earns the trusted-agreement
reward (match on the audited object minus a cross-object match between an own
report and an independent audited object's trusted draw, which zeroes out
constant-report strategies).  Otherwise the unchecked mechanism pays.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import _expectations as _exact
from .mechanisms import (
    MechanismSpec,
    RealizedInstance,
    UtilityEstimate,
    expected_unchecked_utility,
    realized_reward,
)
from .errors import ShapeMismatch
from .signals import Environment
from .strategies import Strategy, StrategyProfile


@dataclass(frozen=True)
class SpotGame:
    """Spot-check probability and the unchecked mechanism; audits pay the paired-difference
    agreement with trusted draws."""

    p: float
    mechanism: MechanismSpec

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ShapeMismatch(f"spot-check probability must lie in [0, 1], got {self.p}")

    def with_p(self, p: float) -> "SpotGame":
        return replace(self, p=float(p))

    def to_json_dict(self) -> dict:
        return {"p": self.p, "mechanism": self.mechanism.to_json_dict()}

    @staticmethod
    def from_json_dict(doc: dict) -> "SpotGame":
        return SpotGame(p=float(doc.get("p", 0.0)), mechanism=MechanismSpec.from_json_dict(doc["mechanism"]))


@dataclass(frozen=True)
class SpotOutcome:
    """Whether the report was audited and the reward that resulted."""

    checked: bool
    reward: float


def spot_reward(report, trusted_same, own_other_report, trusted_other) -> float:
    """Audited reward: own-object agreement minus an independent cross-object agreement."""
    return float(report == trusted_same) - float(own_other_report == trusted_other)


def expected_spot_rewards(env: Environment, strategies: list) -> np.ndarray:
    """Exact E[y] per strategy: joint report/trusted agreement minus the product of marginals."""
    w = _exact.outer_weights(env)
    laws = _exact.report_laws(env, strategies)
    joint = np.einsum("ql,nqls,qt->nst", w, laws, env.trusted_channel.matrix())
    report_marg = joint.sum(axis=2)[:, None, :]
    trusted_marg = joint.sum(axis=1)[:, :, None]
    return np.trace(joint, axis1=1, axis2=2) - np.matmul(report_marg, trusted_marg)[:, 0, 0]


def expected_spot_reward(env: Environment, strategy: Strategy) -> float:
    """Exact E[y] for one agent."""
    return float(expected_spot_rewards(env, [strategy])[0])


def check_worthwhile_effort(env: Environment, table=None) -> bool:
    """True iff the audited value of a truthful high signal beats the best no-effort audit value.

    A payoff table for the environment, when given, supplies both audit values.
    """
    from .equilibrium import audit_values

    truthful, lazy = audit_values(env, table)
    return truthful - env.effort_cost > lazy


def combined_expected_utility(
    game: SpotGame,
    env: Environment,
    profile: StrategyProfile,
    for_agent: int | None = None,
    method: str = "auto",
    trials: int = 20_000,
    seed: int = 0,
) -> UtilityEstimate:
    """Per-object expected utility under the spot-checked game, effort cost included.

    Affine in p for fixed strategies: p * E[y] + (1 - p) * E[z] - effort cost.
    Monte-Carlo stderr of the unchecked part scales by (1 - p).
    """
    strategy = profile.focal_strategy()
    spot = expected_spot_reward(env, strategy)
    unchecked = expected_unchecked_utility(
        game.mechanism, env, profile, for_agent=for_agent, method=method, trials=trials, seed=seed
    )
    cost = env.effort_cost if strategy.is_full_effort else 0.0
    value = game.p * spot + (1.0 - game.p) * unchecked.value - cost
    return UtilityEstimate(
        value=value,
        stderr=(1.0 - game.p) * unchecked.stderr,
        method=unchecked.method,
        samples=unchecked.samples,
    )


def realize_spot_outcome(
    game: SpotGame,
    inst: RealizedInstance,
    agent: int,
    obj: int,
    rng: np.random.Generator,
) -> SpotOutcome:
    """Draw the audit coin and the audited/unchecked reward for one report."""
    if rng.random() >= game.p:
        return SpotOutcome(False, realized_reward(game.mechanism, inst, agent, obj, rng))
    trusted = inst.trusted
    audited = np.flatnonzero(trusted >= 0)
    own_objects = inst.objects_of(agent)
    if trusted[obj] < 0 or len(audited) < 2 or len(own_objects) == 0:
        raise ShapeMismatch("spot check needs a trusted draw here and on another audited object")
    own_other = int(own_objects[rng.integers(len(own_objects))])
    cross_candidates = [o for o in audited if o not in own_objects]
    if not cross_candidates:
        cross_candidates = [o for o in audited if o != obj]
    cross = int(cross_candidates[rng.integers(len(cross_candidates))])
    reward = spot_reward(
        inst.signal[agent, obj], inst.trusted[obj], inst.signal[agent, own_other], inst.trusted[cross]
    )
    return SpotOutcome(True, reward)
