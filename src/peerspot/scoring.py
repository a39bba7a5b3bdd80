"""Strictly proper scoring rules (quadratic and logarithmic) and their divergences."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LogOfZero, ShapeMismatch
from .signals import Distribution, LabelSpace

# Stand-in utility when a logarithmic score hits zero predicted mass; keeps
# expected utilities finite and totally ordered without changing any argmax.
NEGATIVE_SENTINEL = -1e9


class ScoringRule:
    """Interface: maps a belief vector and a realized outcome index to a real score."""

    name = "abstract"

    def score_array(self, belief: np.ndarray, outcome: int) -> float:
        raise NotImplementedError

    def score_table(self, beliefs: np.ndarray) -> np.ndarray:
        """Scores of each belief row at each outcome, shape (n_beliefs, n_labels).

        Entries where the score is undefined (log of zero) hold NEGATIVE_SENTINEL;
        callers that need a hard error should use :func:`score` instead.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class QuadraticRule(ScoringRule):
    """Brier-style rule: 2*b[outcome] - sum(b**2)."""

    name = "quadratic"

    def score_array(self, belief: np.ndarray, outcome: int) -> float:
        belief = np.asarray(belief, dtype=float)
        return float(2.0 * belief[outcome] - np.dot(belief, belief))

    def score_table(self, beliefs: np.ndarray) -> np.ndarray:
        beliefs = np.atleast_2d(np.asarray(beliefs, dtype=float))
        return 2.0 * beliefs - np.sum(beliefs * beliefs, axis=1, keepdims=True)


@dataclass(frozen=True)
class LogarithmicRule(ScoringRule):
    """Log rule: ln(b[outcome]); raises LogOfZero at zero predicted mass."""

    name = "log"

    def score_array(self, belief: np.ndarray, outcome: int) -> float:
        p = float(np.asarray(belief, dtype=float)[outcome])
        if p <= 0.0:
            raise LogOfZero(f"log score undefined: outcome has predicted mass {p}")
        return math.log(p)

    def score_table(self, beliefs: np.ndarray) -> np.ndarray:
        beliefs = np.atleast_2d(np.asarray(beliefs, dtype=float))
        with np.errstate(divide="ignore"):
            out = np.log(beliefs)
        out[beliefs <= 0.0] = NEGATIVE_SENTINEL
        return out


QUADRATIC = QuadraticRule()
LOGARITHMIC = LogarithmicRule()

_RULES = {"quadratic": QUADRATIC, "log": LOGARITHMIC, "logarithmic": LOGARITHMIC}


def rule_from_name(name: str) -> ScoringRule:
    try:
        return _RULES[str(name).lower()]
    except KeyError:
        raise ShapeMismatch(f"unknown scoring rule {name!r}; expected one of {sorted(_RULES)}") from None


def score(rule: ScoringRule, belief: Distribution | np.ndarray, outcome) -> float:
    """Score a belief report against a realized outcome label (or index for raw arrays)."""
    if isinstance(belief, Distribution):
        idx = belief.support.index(outcome)
        return rule.score_array(belief.as_array(), idx)
    return rule.score_array(np.asarray(belief, dtype=float), int(outcome))


def expected_score(rule: ScoringRule, truth: np.ndarray, belief: np.ndarray) -> float:
    """Expected score of ``belief`` when outcomes are drawn from ``truth``."""
    truth = np.asarray(truth, dtype=float)
    return float(sum(truth[o] * rule.score_array(belief, o) for o in range(len(truth)) if truth[o] > 0))


def divergence(rule: ScoringRule, b1: Distribution | np.ndarray, b2: Distribution | np.ndarray) -> float:
    """Divergence D(b1 || b2) = E_{s~b1}[score(b1, s) - score(b2, s)]; zero iff b1 == b2.

    Infinite when the log rule meets zero mass in ``b2`` on the support of ``b1``.
    """
    a1 = b1.as_array() if isinstance(b1, Distribution) else np.asarray(b1, dtype=float)
    a2 = b2.as_array() if isinstance(b2, Distribution) else np.asarray(b2, dtype=float)
    if a1.shape != a2.shape:
        raise ShapeMismatch("divergence arguments must share a support")
    try:
        return expected_score(rule, a1, a1) - expected_score(rule, a1, a2)
    except LogOfZero:
        return math.inf


def check_symmetry(rule: ScoringRule, labels: LabelSpace | int, atol: float = 1e-12) -> bool:
    """True iff a correct point-mass prediction scores identically for every label."""
    k = labels if isinstance(labels, int) else len(labels)
    values = []
    for i in range(k):
        pm = np.zeros(k)
        pm[i] = 1.0
        values.append(rule.score_array(pm, i))
    return max(values) - min(values) <= atol
