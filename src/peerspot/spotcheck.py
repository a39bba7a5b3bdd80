"""Spot-check rewards and the combined spot-checked game M = (p, y, z).

With probability p a report is audited: the agent earns the trusted-agreement
reward (match on the audited object minus a cross-object match between an own
report and an independent audited object's trusted draw, which zeroes out
constant-report strategies).  Otherwise the unchecked mechanism pays.  This
module gives the exact expected audit reward E[y] per strategy; combined
utilities p * E[y] + (1 - p) * E[z] - cost live in ``equilibrium.PayoffTable``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import _expectations as _exact
from .errors import ShapeMismatch
from .mechanisms import MechanismSpec
from .signals import Environment
from .strategies import Strategy


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
