"""Spot-check rewards of the spot-checked game M = (p, y, z).

With probability p a report is audited: the agent earns the trusted-agreement
reward (match on the audited object minus a cross-object match between an own
report and an independent audited object's trusted draw, which zeroes out
constant-report strategies).  Otherwise the unchecked mechanism pays.  This
module gives the exact expected audit reward E[y] per observation and per
strategy; the payoff table in ``equilibrium`` stores it beside E[z], and
combined utilities p * E[y] + (1 - p) * E[z] - cost are read from that table.
"""

from __future__ import annotations

import numpy as np

from . import _expectations as _exact
from .signals import Environment
from .strategies import Strategy, strategy_arrays


def audit_rewards(env: Environment) -> np.ndarray:
    """Exact E[y] per observation, shape (2, k, k): ``A[e, o, r]`` is what an agent with
    effort e earns on the event that it observes o, if it reports r there, so a strategy
    earns ``sum_o A[e, o, m(o)]`` (joint report/trusted agreement minus the product of
    marginals)."""
    weighted = _exact.outer_weights(env)[None, :, :, None] * _exact.observation_laws(env)
    joint = np.einsum("eqlo,qt->eot", weighted, env.trusted_channel.matrix())  # [e, observed, trusted]
    return joint - joint.sum(axis=2)[:, :, None] * joint.sum(axis=1)[:, None, :]


def expected_spot_rewards(env: Environment, strategies: tuple) -> np.ndarray:
    """Exact E[y] per strategy, for strategies given as (efforts, maps) arrays."""
    return _exact.strategy_rewards(audit_rewards(env), *strategies)


def expected_spot_reward(env: Environment, strategy: Strategy) -> float:
    """Exact E[y] for one agent."""
    return float(expected_spot_rewards(env, strategy_arrays([strategy], len(env.q_space)))[0])


def check_worthwhile_effort(table, cost: float) -> bool:
    """True iff the audited value of a truthful high signal, less ``cost``, beats the best
    no-effort audit value; both audit values are read from the payoff table ``table``."""
    truthful = float(table.spot[table.truthful])
    return truthful - cost > float(table.spot[table.best_no_effort])
