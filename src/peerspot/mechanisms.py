"""The universal peer-mechanism zoo: mechanism specs and exact expected rewards.

Ten unchecked mechanisms are supported.  Signal-only kinds compare reports;
belief-based kinds additionally score belief reports with a proper scoring
rule; the peer-insensitive kind pays a constant.  Every kind has one exact
evaluator in ``_expectations`` that returns the expected per-object reward of
each deviant strategy against each symmetric base profile (many-object
limits for the multi-object kinds); ``unchecked_block`` dispatches to it.
The seeded Monte-Carlo samplers in ``_sampling`` are its independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _expectations as _exact
from .errors import ShapeMismatch
from .scoring import QUADRATIC, ScoringRule, rule_from_name
from .signals import Environment
from .strategies import Strategy


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
        if self.mts_aggregation not in ("mean", "sum"):
            raise ShapeMismatch(f"mts_aggregation must be 'mean' or 'sum', got {self.mts_aggregation!r}")

    def describe(self) -> str:
        return self.kind.value

    def to_json_dict(self) -> dict:
        doc: dict = {"kind": self.kind.value}
        if self.kind is MechanismKind.PEER_TRUTH_SERUM:
            doc.update(alpha=self.alpha, beta=self.beta)
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
        # Peer truth serum counts report frequencies on the scored object only.
        if doc.get("pts_frequency", "object") != "object":
            raise ShapeMismatch(f"pts_frequency must be 'object', got {doc['pts_frequency']!r}")
        return MechanismSpec(
            kind,
            alpha=float(doc.get("alpha", 1.0)),
            beta=float(doc.get("beta", 1.0)),
            scale=float(doc.get("K", 1.0)),
            theta=float(doc.get("theta", 0.05)),
            constant_reward=float(doc.get("W", 1.0)),
            rule=rule_from_name(doc.get("rule", "quadratic")),
            mts_aggregation=doc.get("mts_aggregation", "mean"),
        )


def all_mechanisms(rule: ScoringRule = QUADRATIC) -> list:
    """One spec per kind with default parameters."""
    return [MechanismSpec(kind, rule=rule) for kind in MechanismKind]


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
