"""Spot-check rewards of the spot-checked game M = (p, y, z).

With probability p a report is audited: the agent earns the trusted-agreement
reward (match on the audited object minus a cross-object match between an own
report and an independent audited object's trusted draw, which zeroes out
constant-report strategies).  Otherwise the unchecked mechanism pays.  This
module gives the exact expected audit reward E[y] per strategy; the payoff
table in ``equilibrium`` stores it beside E[z], and combined utilities
p * E[y] + (1 - p) * E[z] - cost are read from that table.
"""

from __future__ import annotations

import numpy as np

from . import _expectations as _exact
from .signals import Environment
from .strategies import Strategy


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


def check_worthwhile_effort(table, cost: float) -> bool:
    """True iff the audited value of a truthful high signal, less ``cost``, beats the best
    no-effort audit value; both audit values are read from the payoff table ``table``."""
    truthful = float(table.spot[table.truthful])
    return truthful - cost > float(table.spot[table.best_no_effort])
