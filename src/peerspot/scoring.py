"""Strictly proper scoring rules (quadratic and logarithmic) and their divergences.

Each rule is one vectorised ``score_table``; a single score, a divergence and
the symmetry check all read cells of it.
"""

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
    """Interface: scores belief vectors against realized outcome indices."""

    name = "abstract"

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

    def score_table(self, beliefs: np.ndarray) -> np.ndarray:
        beliefs = np.atleast_2d(np.asarray(beliefs, dtype=float))
        return 2.0 * beliefs - np.sum(beliefs * beliefs, axis=1, keepdims=True)


@dataclass(frozen=True)
class LogarithmicRule(ScoringRule):
    """Log rule: ln(b[outcome]); NEGATIVE_SENTINEL at zero predicted mass."""

    name = "log"

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


def _as_array(belief: Distribution | np.ndarray) -> np.ndarray:
    return belief.as_array() if isinstance(belief, Distribution) else np.asarray(belief, dtype=float)


def score(rule: ScoringRule, belief: Distribution | np.ndarray, outcome) -> float:
    """Score a belief report against a realized outcome label (or index for raw arrays).

    Raises LogOfZero where the score is undefined (the log rule at zero predicted mass).
    """
    idx = belief.support.index(outcome) if isinstance(belief, Distribution) else int(outcome)
    value = float(rule.score_table(_as_array(belief))[0, idx])
    if value == NEGATIVE_SENTINEL:
        raise LogOfZero(f"{rule.name} score undefined: outcome {outcome!r} has no predicted mass")
    return value


def divergence(rule: ScoringRule, b1: Distribution | np.ndarray, b2: Distribution | np.ndarray):
    """Divergence D(b1 || b2) = E_{s~b1}[score(b1, s) - score(b2, s)]; zero iff b1 == b2.

    Infinite when the log rule meets zero mass in ``b2`` on the support of ``b1``.  Arrays
    broadcast over their leading axes and give an array of divergences; a single pair gives
    a float.
    """
    a1, a2 = _as_array(b1), _as_array(b2)
    if a1.shape[-1:] != a2.shape[-1:]:
        raise ShapeMismatch("divergence arguments must share a support")
    a1, a2 = np.broadcast_arrays(a1, a2)
    k = a1.shape[-1]
    own, other = (rule.score_table(a.reshape(-1, k)).reshape(a.shape) for a in (a1, a2))
    support = a1 > 0.0
    # One dot product per pair: the rounding the pinned divergence-BTS estimates were recorded with.
    weights, gaps = np.where(support, a1, 0.0), np.where(support, own - other, 0.0)
    gap = (weights[..., None, :] @ gaps[..., :, None])[..., 0, 0]
    gap = np.where(np.any(support & (other == NEGATIVE_SENTINEL), axis=-1), math.inf, gap)
    return float(gap) if gap.ndim == 0 else gap


def check_symmetry(rule: ScoringRule, labels: LabelSpace | int, atol: float = 1e-12) -> bool:
    """True iff a correct point-mass prediction scores identically for every label."""
    k = labels if isinstance(labels, int) else len(labels)
    values = np.diag(rule.score_table(np.eye(k)))
    return values.max() - values.min() <= atol
