"""The universal peer-mechanism zoo: mechanism specs and exact expected rewards.

Ten unchecked mechanisms are supported.  Signal-only kinds compare reports;
belief-based kinds also score belief reports with a proper scoring rule; the
peer-insensitive kind pays a constant.  ``KINDS`` defines each kind once: its
exact evaluator in ``_expectations`` (per-observation rewards of every deviant
against each symmetric base; many-object limits for multi-object kinds), its
JSON parameters, and whether it takes a scoring rule or only binary labels, which
``check_label_space`` enforces for the exact path and the sampler alike.  The
seeded samplers in ``_sampling`` keep their own dispatch: they are the
evaluators' independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from functools import partial
from typing import Callable

import numpy as np

from . import _expectations as _exact
from .errors import NonBinaryLabelSpace, ShapeMismatch
from .scoring import QUADRATIC, ScoringRule, rule_from_name
from .signals import Environment, is_json_number, json_fields
from .strategies import Strategy, strategy_arrays


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


@dataclass(frozen=True)
class KindEntry:
    evaluator: Callable  # (spec, env, (efforts, maps)) -> (G, 2, k, k) per-observation rewards
    params: tuple = ()  # (JSON key, MechanismSpec attribute) pairs; numeric ones finite and > 0
    scored: bool = False  # scores belief reports with the spec's ``rule``
    binary_only: bool = False

    @property
    def json_fields(self) -> tuple:
        return self.params + ((("rule", "rule"),) if self.scored else ())


KINDS = {
    MechanismKind.OUTPUT_AGREEMENT: KindEntry(_exact.output_agreement),
    MechanismKind.PEER_TRUTH_SERUM: KindEntry(_exact.peer_truth_serum, (("alpha", "alpha"), ("beta", "beta"))),
    MechanismKind.CORRELATED_AGREEMENT: KindEntry(_exact.correlated_agreement),
    MechanismKind.SQRT_SCALED_AGREEMENT: KindEntry(_exact.sqrt_scaled_agreement, (("K", "scale"),)),
    MechanismKind.DOUBLE_MIXED_AGREEMENT: KindEntry(_exact.double_mixed_agreement),
    MechanismKind.ROBUST_BTS: KindEntry(_exact.robust_bts, scored=True, binary_only=True),
    MechanismKind.MULTI_VALUED_ROBUST_BTS: KindEntry(_exact.multi_valued_robust_bts, scored=True),
    MechanismKind.DIVERGENCE_BTS: KindEntry(_exact.divergence_bts, (("theta", "theta"),), scored=True),
    MechanismKind.MINIMUM_TRUTH_SERUM: KindEntry(
        _exact.minimum_truth_serum, (("mts_aggregation", "mts_aggregation"),), scored=True
    ),
    MechanismKind.PEER_INSENSITIVE: KindEntry(_exact.peer_insensitive, (("W", "constant_reward"),)),
}
# JSON key -> MechanismSpec attribute, over every kind.
_ATTRIBUTE = {key: attr for entry in KINDS.values() for key, attr in entry.json_fields}


def _encode(value):
    return value.name if isinstance(value, ScoringRule) else value


def _decode(attr: str, value):
    """A JSON value as the type of the attribute's default: a rule, a number as a float, or
    the value itself, which ``MechanismSpec`` refuses if it is not of that type."""
    default = _DEFAULTS[attr]
    if isinstance(default, ScoringRule):
        return rule_from_name(value)
    return float(value) if isinstance(default, float) and is_json_number(value) else value


@dataclass(frozen=True)
class MechanismSpec:
    """Tagged choice of an unchecked mechanism with its parameters; a parameter its
    kind does not read must keep its default."""

    kind: MechanismKind
    alpha: float = 1.0  # peer truth serum offset
    beta: float = 1.0  # peer truth serum agreement weight
    scale: float = 1.0  # sqrt-scaled agreement constant (JSON key "K")
    theta: float = 0.05  # divergence threshold
    constant_reward: float = 1.0  # peer-insensitive payment (JSON key "W")
    rule: ScoringRule = QUADRATIC
    mts_aggregation: str = "mean"  # "mean" or "sum" over peer scores

    def __post_init__(self):
        if not isinstance(self.kind, MechanismKind):
            raise ShapeMismatch(f"kind must be a MechanismKind, got {self.kind!r}")
        taken = {attr for _, attr in KINDS[self.kind].json_fields}
        for key, attr in _ATTRIBUTE.items():
            value, default = getattr(self, attr), _DEFAULTS[attr]
            if attr not in taken:
                if value != default:
                    raise ShapeMismatch(f"{self.kind.value} does not take {key}={_encode(value)}")
            elif isinstance(default, float) and not (is_json_number(value) and 0 < value < math.inf):
                raise ShapeMismatch(f"{self.kind.value} requires {key} to be a finite number > 0, got {value!r}")
        if self.mts_aggregation not in ("mean", "sum"):
            raise ShapeMismatch(f"mts_aggregation must be 'mean' or 'sum', got {self.mts_aggregation!r}")

    def describe(self) -> str:
        """Row label: the kind, then its non-default JSON fields in key order,
        e.g. ``divergence_bts[rule=log,theta=0.5]``; the bare kind when all are defaults."""
        defaults = MechanismSpec(self.kind).to_json_dict()
        changed = sorted((key, value) for key, value in self.to_json_dict().items() if value != defaults[key])
        if not changed:
            return self.kind.value
        return f"{self.kind.value}[{','.join(f'{key}={value}' for key, value in changed)}]"

    def to_json_dict(self) -> dict:
        pairs = KINDS[self.kind].json_fields
        return {"kind": self.kind.value} | {key: _encode(getattr(self, attr)) for key, attr in pairs}

    @staticmethod
    def from_json_dict(doc) -> "MechanismSpec":
        """The spec a JSON object names, read by MECHANISM_FIELDS; a key no kind reads is an
        error, and so is a non-default value for a parameter this kind does not read."""
        fields = json_fields(doc, MECHANISM_FIELDS)
        frequency = fields.pop("pts_frequency", "object")  # peer truth serum counts on the scored object only
        if frequency != "object":
            raise ShapeMismatch(f"pts_frequency: must be 'object', got {frequency!r}")
        if "kind" not in fields:
            raise ShapeMismatch("mechanism document missing field 'kind'")
        return MechanismSpec(**{_ATTRIBUTE.get(key, key): value for key, value in fields.items()})


_DEFAULTS = {f.name: f.default for f in fields(MechanismSpec)}


# The reader of each key of a mechanism's JSON object: its kind, and every kind's parameters.
MECHANISM_FIELDS = {"kind": MechanismKind, "pts_frequency": lambda value: value} | {
    key: partial(_decode, attr) for key, attr in _ATTRIBUTE.items()
}


def check_label_space(spec: MechanismSpec, env: Environment) -> None:
    """Raise ``NonBinaryLabelSpace`` if ``spec``'s kind is binary-only and ``env`` is not binary."""
    if KINDS[spec.kind].binary_only and len(env.q_space) != 2:
        raise NonBinaryLabelSpace(f"{spec.kind.value} is defined for binary label spaces only")


def unchecked_rewards(spec: MechanismSpec, env: Environment, bases: tuple) -> np.ndarray:
    """Exact per-observation unchecked rewards ``V[g, e, o, r]`` of every deviant against each of
    the G bases ``bases`` = (efforts, maps), shape (G, 2, k, k); limits for multi-object kinds."""
    check_label_space(spec, env)
    return KINDS[spec.kind].evaluator(spec, env, bases)


def analytic_unchecked_value(
    spec: MechanismSpec, env: Environment, base: Strategy, deviant: Strategy
) -> float:
    """Exact per-object expectation E[z(deviant, base)]: the deviant's sum over observations
    of :func:`unchecked_rewards` against the one base."""
    k = len(env.q_space)
    values = unchecked_rewards(spec, env, strategy_arrays([base], k))[0]
    return float(_exact.strategy_rewards(values, *strategy_arrays([deviant], k))[0])
