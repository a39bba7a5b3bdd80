"""Discrete signal environments: quality prior and the high/low/trusted channels.

An environment describes one evaluation game: each object draws a latent
quality, every agent privately observes a costly high-quality signal drawn
per agent from the high channel, all agents share a single costless
low-quality draw from the low channel, and an auditor can obtain a trusted
draw from the trusted channel.  Everything downstream (mechanism
expectations, equilibrium search) reduces to sums over the per-object joint
law these channels define, so all probability objects and environments are validated when
built and kept immutable.  The ``json_*`` readers decide what each JSON type may hold, for
``Environment.from_json_dict`` and for the config reader in ``harness``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InvalidDistribution, ShapeMismatch

PROB_ATOL = 1e-12
# The effort-cost rule; NaN fails it, and so does an int too large for a float.
COST = (lambda x: 0.0 <= x <= sys.float_info.max, "finite and nonnegative")
_INTEGER = {None: "an integer", 0: "a nonnegative integer", 1: "a positive integer"}


def check_integer(name: str, value, minimum: int) -> None:
    """The library's integer rule: ``value`` is an int or numpy integer (not a bool) >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ShapeMismatch(f"{name} must be an integer of at least {minimum}, got {value!r}")


def is_json_number(value) -> bool:
    """A float, or an int that a float can hold: bools, numeric strings and ints past the
    float range are not numbers in a JSON document."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, float) or abs(value) <= sys.float_info.max


def json_number(value, rule=(lambda x: True, "a number")) -> float:
    """``value`` as a float if it is a JSON number that passes ``rule``: the test a number
    must pass, and what an error says it must be."""
    valid, requirement = rule
    if not (is_json_number(value) and valid(value)):
        raise ValueError(f"must be {requirement}, got {value!r}")
    return float(value)


def json_integer(value, minimum: int | None = None) -> int:
    """``value`` as an int if it is an integral JSON number (``3.0`` is, ``True`` is not) >= ``minimum``."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral or (minimum is not None and value < minimum):
        raise ValueError(f"must be {_INTEGER[minimum]}, got {value!r}")
    return int(value)


def json_list(value) -> list:
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"must be a list, got {value!r}")
    return list(value)


def json_string(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"must be a string, got {value!r}")
    return value


def json_fields(value, readers: Mapping, error=ShapeMismatch, where: str = "", path: str = "") -> dict:
    """The keys of the JSON object ``value``, each read by its reader; an absent key is left out,
    so that its default comes from where the value is defined.  An ``error`` names a bad object
    after ``where``, and a value that its reader refuses after ``path`` and the value's key."""
    if not isinstance(value, Mapping):
        raise error(f"{where}must be an object, got {value!r}")
    fields = {}
    for key, item in value.items():
        if key not in readers:
            raise error(f"{where}unknown key {key!r}")
        try:
            fields[key] = readers[key](item)
        except (TypeError, ValueError) as exc:
            raise error(f"{path}{key}: {exc}") from None
    return fields


def _json_array(value, rank: int) -> np.ndarray:
    """A list of JSON numbers (of such lists, for rank 2) as a float array."""
    return np.array([_json_array(x, rank - 1) if rank > 1 else json_number(x) for x in json_list(value)], dtype=float)


@dataclass(frozen=True)
class LabelSpace:
    """Ordered finite set of distinct labels; iteration order is the canonical index order."""

    labels: tuple

    def __post_init__(self):
        if len(self.labels) < 2:
            raise ShapeMismatch(f"label space needs at least 2 labels, got {len(self.labels)}")
        if len(set(self.labels)) != len(self.labels):
            raise ShapeMismatch("labels must be distinct")

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def index(self, label) -> int:
        return self.labels.index(label)

    @staticmethod
    def of(labels: Iterable) -> "LabelSpace":
        return LabelSpace(tuple(labels))


@dataclass(frozen=True)
class Distribution:
    """Probability distribution over a label space."""

    support: LabelSpace
    probs: tuple

    def __post_init__(self):
        if len(self.probs) != len(self.support):
            raise ShapeMismatch(
                f"distribution has {len(self.probs)} weights for {len(self.support)} labels"
            )
        arr = np.asarray(self.probs, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise InvalidDistribution(f"weights must be finite: {self.probs}")
        if np.any(arr < -PROB_ATOL) or np.any(arr > 1 + PROB_ATOL):
            raise InvalidDistribution(f"weights outside [0, 1]: {self.probs}")
        if abs(arr.sum() - 1.0) > PROB_ATOL:
            raise InvalidDistribution(f"weights sum to {arr.sum()!r}, not 1")

    def as_array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=float)

    @staticmethod
    def from_array(support: LabelSpace, arr: Sequence[float]) -> "Distribution":
        return Distribution(support, tuple(float(x) for x in arr))

    @staticmethod
    def uniform(support: LabelSpace) -> "Distribution":
        return Distribution(support, tuple([1.0 / len(support)] * len(support)))


@dataclass(frozen=True)
class Channel:
    """Conditional law of an output label given an input label, one distribution per row."""

    input_space: LabelSpace
    output_space: LabelSpace
    rows: tuple  # of Distribution

    def __post_init__(self):
        if len(self.rows) != len(self.input_space):
            raise ShapeMismatch(
                f"channel has {len(self.rows)} rows for {len(self.input_space)} inputs"
            )
        for row in self.rows:
            if row.support != self.output_space:
                raise ShapeMismatch("channel row support differs from the output space")

    def matrix(self) -> np.ndarray:
        """Row-stochastic matrix, shape (inputs, outputs)."""
        return np.stack([row.as_array() for row in self.rows])

    @staticmethod
    def from_matrix(input_space: LabelSpace, output_space: LabelSpace, mat) -> "Channel":
        rows = tuple(Distribution.from_array(output_space, row) for row in np.asarray(mat, float))
        return Channel(input_space, output_space, rows)

    @staticmethod
    def symmetric_noise(space: LabelSpace, accuracy) -> "Channel":
        """Row i puts mass ``accuracy[i]`` on label i and spreads the rest evenly over the other
        labels; ``accuracy`` is one number per row, or one number for every row."""
        k = len(space)
        accuracy = np.broadcast_to(np.asarray(accuracy, dtype=float), (k,))[:, None]
        mat = np.where(np.eye(k, dtype=bool), accuracy, (1.0 - accuracy) / (k - 1))
        return Channel.from_matrix(space, space, mat)

    @staticmethod
    def uniform(space: LabelSpace) -> "Channel":
        k = len(space)
        return Channel.from_matrix(space, space, np.full((k, k), 1.0 / k))


@dataclass(frozen=True)
class Environment:
    """One evaluation game: prior, the three signal channels, population sizes (no effort cost).

    The low channel produces a single draw per object that every agent
    observes; the high channel is applied independently per agent given the
    object's quality; the trusted channel is conditionally independent of all
    agent signals given quality.
    """

    q_space: LabelSpace
    prior: Distribution
    high_channel: Channel
    trusted_channel: Channel
    low_channel: Channel
    n_agents: int
    n_objects: int
    env_id: str = field(default="env", compare=False)

    def __post_init__(self):
        """Raise the first violated invariant, so that no Environment is invalid however built."""
        space = self.q_space
        if self.prior.support != space:
            raise ShapeMismatch("prior is not over the quality space")
        for name in ("high_channel", "trusted_channel", "low_channel"):
            channel = getattr(self, name)
            if channel.input_space != space or channel.output_space != space:
                raise ShapeMismatch(f"{name} must map the quality space to the label space")
        check_integer("n_agents", self.n_agents, 3)
        check_integer("n_objects", self.n_objects, 1)

    def to_json_dict(self) -> dict:
        return {
            "labels": list(self.q_space.labels),
            "prior": list(map(float, self.prior.probs)),
            "high": self.high_channel.matrix().tolist(),
            "trusted": self.trusted_channel.matrix().tolist(),
            "low": self.low_channel.matrix().tolist(),
            "n_agents": self.n_agents,
            "n_objects": self.n_objects,
            "env_id": self.env_id,
        }

    @staticmethod
    def from_json_dict(doc: Mapping) -> "Environment":
        """The environment a JSON object describes, read by ENVIRONMENT_FIELDS; ``trusted``
        defaults to ``high`` and ``low`` to uniform.  A missing or unknown key, or a field
        that does not parse, is a ShapeMismatch that names it."""
        fields = json_fields(doc, ENVIRONMENT_FIELDS)
        for key in ("labels", "prior", "high"):
            if key not in fields:
                raise ShapeMismatch(f"environment document missing field {key!r}")
        space, high = fields.pop("labels"), fields.pop("high")
        channel = partial(Channel.from_matrix, space, space)
        return Environment(
            q_space=space,
            prior=Distribution.from_array(space, fields.pop("prior")),
            high_channel=channel(high),
            trusted_channel=channel(fields.pop("trusted", high)),
            low_channel=channel(fields.pop("low")) if "low" in fields else Channel.uniform(space),
            **({"n_agents": 3, "n_objects": 2} | fields),
        )


# The reader of each key of an environment's JSON object.
ENVIRONMENT_FIELDS = {
    "labels": lambda labels: LabelSpace.of(json_list(labels)),
    "prior": partial(_json_array, rank=1),
    "high": partial(_json_array, rank=2),
    "trusted": partial(_json_array, rank=2),
    "low": partial(_json_array, rank=2),
    "n_agents": partial(json_integer, minimum=1),
    "n_objects": partial(json_integer, minimum=1),
    "env_id": json_string,
}


def reference_environment() -> Environment:
    """The binary environment used throughout the test suite: two labels, uniform prior,
    0.9 symmetric-noise high and trusted channels, uniform low channel, n=3, m=2."""
    space = LabelSpace.of((0, 1))
    return Environment(
        q_space=space,
        prior=Distribution.uniform(space),
        high_channel=Channel.symmetric_noise(space, 0.9),
        trusted_channel=Channel.symmetric_noise(space, 0.9),
        low_channel=Channel.uniform(space),
        n_agents=3,
        n_objects=2,
        env_id="e1",
    )
