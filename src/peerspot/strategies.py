"""Agent strategies: effort choice plus a report map, and the belief reports they induce.

A pure strategy either invests full effort (observe the costly high-quality
signal) or none (observe the shared low-quality signal), then reports a fixed
function of whichever signal it observed.  Belief reports are not free
choices: under the posterior mode an agent reports the exact law of a random
peer's signal report induced by the profile, and under the point-mass mode a
degenerate belief on its own report.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import EnumerationBudgetExceeded, ShapeMismatch
from .signals import Environment, LabelSpace

MAX_ENUMERABLE_LABELS = 6


class Effort(str, Enum):
    FULL = "full"
    NONE = "none"


class BeliefMode(str, Enum):
    POSTERIOR = "posterior"  # induced law of a random peer's report given own observation
    POINT_MASS = "pointmass"  # degenerate belief on own signal report


@dataclass(frozen=True)
class Strategy:
    """Effort level plus a total report map over label indices."""

    effort: Effort
    report_map: tuple  # output label index per input label index
    belief_mode: BeliefMode = BeliefMode.POSTERIOR

    def __post_init__(self):
        if not all(isinstance(i, int) for i in self.report_map):
            raise ShapeMismatch("report_map must hold label indices")

    @property
    def is_full_effort(self) -> bool:
        return self.effort is Effort.FULL

    def map_array(self) -> np.ndarray:
        return np.asarray(self.report_map, dtype=int)

    def describe(self, labels: LabelSpace | None = None) -> str:
        if labels is None:
            body = ",".join(str(i) for i in self.report_map)
        else:
            body = ",".join(str(labels.labels[i]) for i in self.report_map)
        return f"{self.effort.value}:[{body}]"

    def to_json_dict(self, labels: LabelSpace) -> dict:
        return {
            "effort": self.effort.value,
            "map": [labels.labels[i] for i in self.report_map],
            "belief": self.belief_mode.value,
        }

    @staticmethod
    def from_json_dict(doc: dict, labels: LabelSpace) -> "Strategy":
        report_map = tuple(labels.index(x) for x in doc["map"])
        if len(report_map) != len(labels):
            raise ShapeMismatch("report map must be total over the label space")
        return Strategy(
            Effort(doc["effort"]),
            report_map,
            BeliefMode(doc.get("belief", "posterior")),
        )


def identity_map(n_labels: int) -> tuple:
    return tuple(range(n_labels))


def truthful_strategy(labels: LabelSpace | int) -> Strategy:
    k = labels if isinstance(labels, int) else len(labels)
    return Strategy(Effort.FULL, identity_map(k))


def low_identity_strategy(labels: LabelSpace | int) -> Strategy:
    k = labels if isinstance(labels, int) else len(labels)
    return Strategy(Effort.NONE, identity_map(k))


def _ordered_maps(k: int) -> list:
    """Identity map first, then the remaining maps in lexicographic order."""
    ident = identity_map(k)
    rest = [m for m in itertools.product(range(k), repeat=k) if m != ident]
    return [ident] + rest


def enumerate_pure_strategies(labels: LabelSpace | int) -> list:
    """All 2*k**k pure strategies in canonical order: full effort first, identity map first."""
    k = labels if isinstance(labels, int) else len(labels)
    if k > MAX_ENUMERABLE_LABELS:
        raise EnumerationBudgetExceeded(
            f"strategy enumeration supports at most {MAX_ENUMERABLE_LABELS} labels, got {k}"
        )
    return list(_pure_strategies(k))


@functools.lru_cache(maxsize=None)  # one entry per label count up to MAX_ENUMERABLE_LABELS
def _pure_strategies(k: int) -> tuple:
    return tuple(Strategy(effort, m) for effort in (Effort.FULL, Effort.NONE) for m in _ordered_maps(k))


@dataclass(frozen=True)
class StrategyProfile:
    """Symmetric profile with at most one deviant agent."""

    base: Strategy
    deviant: tuple | None = None  # (agent index, Strategy)

    def focal_strategy(self) -> Strategy:
        return self.deviant[1] if self.deviant is not None else self.base

    @staticmethod
    def symmetric(strategy: Strategy) -> "StrategyProfile":
        return StrategyProfile(strategy)

    @staticmethod
    def with_deviant(base: Strategy, deviant: Strategy, agent: int = 0) -> "StrategyProfile":
        return StrategyProfile(base, (agent, deviant))


def peer_report_posterior(env: Environment, observer_effort: Effort, base: Strategy) -> np.ndarray:
    """Belief table: row v = law of a random base-strategy peer's report given own observation v.

    A full-effort observer conditions on its high signal; a no-effort observer
    conditions on the shared low draw (and therefore knows a no-effort peer's
    report exactly).  Rows for zero-probability observations are uniform; they
    never carry weight in any expectation.
    """
    k = len(env.q_space)
    prior = env.prior.as_array()
    high = env.high_channel.matrix()
    low = env.low_channel.matrix()
    base_map = base.map_array()
    onehot = np.zeros((k, k))
    onehot[np.arange(k), base_map] = 1.0

    if base.is_full_effort:
        peer_given_q = high @ onehot  # (q, report)
    else:
        peer_given_q = low @ onehot

    table = np.empty((k, k))
    for v in range(k):
        if observer_effort is Effort.FULL:
            w = prior * high[:, v]
            if w.sum() <= 0.0:
                table[v] = 1.0 / k
                continue
            table[v] = w @ peer_given_q / w.sum()
        else:
            if base.is_full_effort:
                w = prior * low[:, v]
                if w.sum() <= 0.0:
                    table[v] = 1.0 / k
                    continue
                table[v] = w @ (high @ onehot) / w.sum()
            else:
                # Shared low draw: the peer's report is a known function of v.
                table[v] = onehot[v]
    return table


def belief_table(env: Environment, strategy: Strategy, base: Strategy) -> np.ndarray:
    """Belief vectors per observed value for ``strategy`` against a base profile."""
    k = len(env.q_space)
    if strategy.belief_mode is BeliefMode.POSTERIOR:
        return peer_report_posterior(env, strategy.effort, base)
    table = np.zeros((k, k))
    table[np.arange(k), strategy.map_array()] = 1.0
    return table
