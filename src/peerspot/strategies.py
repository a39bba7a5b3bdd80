"""Agent strategies: effort choice plus a report map, and the belief reports they induce.

A pure strategy either invests full effort (observe the costly high-quality
signal) or none (observe the shared low-quality signal), then reports a fixed
function of whichever signal it observed.  Belief reports are not free
choices: an agent reports the exact law of a random peer's signal report
induced by the profile, given its own observation.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import EnumerationBudgetExceeded, ShapeMismatch
from .signals import Environment, LabelSpace, check_integer

# Largest label count any strategy array, payoff table or equilibrium search accepts.
# A table holds its O(S k^2) per-observation terms V once: at k=5 (S = 6,250) a seeded
# sweep of any kind over four costs takes at most 0.35 s and 82 MB peak RSS (2-core
# host).  At k=6 (S = 93,312; measured with this cap raised, seed 3) V takes 54 MB and a
# table builds in 0.15-3.1 s per kind, but the evaluators' intermediates peak at
# 114-801 MB (tracemalloc; peer-insensitive least, divergence BTS most), before any
# threshold search.
MAX_LABELS = 5


class Effort(str, Enum):
    FULL = "full"
    NONE = "none"


FULL_EFFORT, NO_EFFORT = 0, 1  # an effort's position in ``Effort`` order, as every strategy array holds it
EFFORT_COST = np.array([1.0, 0.0])  # the effort-cost factor paid at each position
TRUTHFUL = 0  # index of the truthful strategy in the canonical order of ``pure_strategy_arrays``


@dataclass(frozen=True)
class Strategy:
    """Effort level plus a total report map over label indices."""

    effort: Effort
    report_map: tuple  # output label index per input label index

    def __post_init__(self):
        if not isinstance(self.effort, Effort):
            raise ShapeMismatch(f"effort must be an Effort, got {self.effort!r}")
        for i in self.report_map:
            check_integer("report_map entry", i, 0)

    @property
    def is_full_effort(self) -> bool:
        return self.effort is Effort.FULL

    def describe(self, labels: LabelSpace | None = None) -> str:
        if labels is None:
            body = ",".join(str(i) for i in self.report_map)
        else:
            body = ",".join(str(labels.labels[i]) for i in self.report_map)
        return f"{self.effort.value}:[{body}]"


def identity_map(n_labels: int) -> tuple:
    return tuple(range(n_labels))


def truthful_strategy(labels: LabelSpace | int) -> Strategy:
    k = labels if isinstance(labels, int) else len(labels)
    return Strategy(Effort.FULL, identity_map(k))


def low_identity_strategy(labels: LabelSpace | int) -> Strategy:
    k = labels if isinstance(labels, int) else len(labels)
    return Strategy(Effort.NONE, identity_map(k))


@functools.lru_cache(maxsize=None)  # one entry per label count up to MAX_LABELS
def pure_strategy_arrays(k: int) -> tuple:
    """Every pure strategy over k labels in canonical order, as read-only arrays
    (efforts, maps): each strategy's position in ``Effort`` order, shape (S,), and its
    report map, shape (S, k).  Full effort comes first and, within each effort, the
    identity map and then the others in lexicographic order, so truthful is index
    ``TRUTHFUL`` and the no-effort identity ``low_identity_index(k)``."""
    if k > MAX_LABELS:
        raise EnumerationBudgetExceeded(f"pure strategies are enumerated for at most {MAX_LABELS} labels, got {k}")
    ident = identity_map(k)
    maps = np.array([ident] + [m for m in itertools.product(range(k), repeat=k) if m != ident], dtype=int)
    efforts, maps = np.repeat([FULL_EFFORT, NO_EFFORT], len(maps)), np.concatenate([maps, maps])
    efforts.flags.writeable = maps.flags.writeable = False
    return efforts, maps


def low_identity_index(k: int) -> int:
    """Index of the no-effort identity strategy in canonical order: it heads the no-effort half."""
    return k**k


def enumerate_pure_strategies(labels: LabelSpace | int) -> list:
    """All 2*k**k pure strategies in the canonical order of ``pure_strategy_arrays``."""
    k = labels if isinstance(labels, int) else len(labels)
    efforts, maps = pure_strategy_arrays(k)
    by_position = list(Effort)
    return [Strategy(by_position[e], tuple(m)) for e, m in zip(efforts.tolist(), maps.tolist())]


def strategy_arrays(strategies: list, k: int) -> tuple:
    """(efforts, maps) of ``strategies`` laid out as ``pure_strategy_arrays`` lays out every
    strategy: the arrays the exact engine reads.  A report map that is not a function
    from the k labels to themselves raises ``ShapeMismatch``."""
    if any(len(s.report_map) != k or max(s.report_map) >= k for s in strategies):
        raise ShapeMismatch(f"a report map over {k} labels takes {k} label indices below {k}")
    efforts = np.array([FULL_EFFORT if s.is_full_effort else NO_EFFORT for s in strategies])
    return efforts, np.array([s.report_map for s in strategies], dtype=int)


@dataclass(frozen=True)
class StrategyProfile:
    """Symmetric profile with at most one deviant agent."""

    base: Strategy
    deviant: Strategy | None = None

    def focal_strategy(self) -> Strategy:
        return self.deviant or self.base

    @staticmethod
    def symmetric(strategy: Strategy) -> "StrategyProfile":
        return StrategyProfile(strategy)

    @staticmethod
    def with_deviant(base: Strategy, deviant: Strategy) -> "StrategyProfile":
        return StrategyProfile(base, deviant)


def peer_report_posteriors(env: Environment, bases: tuple) -> np.ndarray:
    """Belief tables per holder effort and base, shape (2, G, k, k) in ``Effort`` order, for
    the G bases given as (efforts, maps) arrays (``strategy_arrays``).

    Row v of table [e, g] is the law of a random base-g peer's report given the
    holder's own observation v under effort e.  A full-effort holder conditions
    on its high signal and a no-effort holder on the shared low draw, which
    tells it a no-effort peer's report exactly.  Rows for zero-probability
    observations are uniform; they never carry weight in any expectation.
    """
    k = len(env.q_space)
    prior = env.prior.as_array()
    channels = np.stack([env.high_channel.matrix(), env.low_channel.matrix()])  # Effort order
    peer_efforts, maps = bases
    onehots = np.eye(k)[maps]  # (g, observation, report)
    peer_given_q = channels[peer_efforts] @ onehots  # (g, q, report)
    w = prior[None, :, None] * channels  # (e, q, own observation)
    mass = w.sum(axis=1)[:, None, :, None]  # (e, 1, own observation, 1)
    tables = np.swapaxes(w, 1, 2)[:, None] @ peer_given_q[None] / np.where(mass > 0.0, mass, 1.0)
    tables = np.where(mass > 0.0, tables, 1.0 / k)
    # Shared low draw: a no-effort holder knows a no-effort peer's report.
    tables[NO_EFFORT, peer_efforts == NO_EFFORT] = onehots[peer_efforts == NO_EFFORT]
    return tables
