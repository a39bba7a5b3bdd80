"""Discrete signal environments: quality prior and the high/low/trusted channels.

An environment describes one evaluation game: each object draws a latent
quality, every agent privately observes a costly high-quality signal drawn
per agent from the high channel, all agents share a single costless
low-quality draw from the low channel, and an auditor can obtain a trusted
draw from the trusted channel.  Everything downstream (mechanism
expectations, equilibrium search) reduces to sums over the per-object joint
law these channels define, so all probability objects are validated eagerly and kept immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InvalidDistribution, ShapeMismatch, TooFewAgents

PROB_ATOL = 1e-12


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
    def symmetric_noise(space: LabelSpace, accuracy: float) -> "Channel":
        """Diagonal mass ``accuracy``, remainder spread evenly over the other labels."""
        k = len(space)
        off = (1.0 - accuracy) / (k - 1)
        mat = np.full((k, k), off)
        np.fill_diagonal(mat, accuracy)
        return Channel.from_matrix(space, space, mat)

    @staticmethod
    def uniform(space: LabelSpace) -> "Channel":
        k = len(space)
        return Channel.from_matrix(space, space, np.full((k, k), 1.0 / k))


@dataclass(frozen=True)
class Environment:
    """One evaluation game: prior, the three signal channels, effort cost, population sizes.

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
    effort_cost: float
    n_agents: int
    n_objects: int
    env_id: str = field(default="env", compare=False)

    def validate(self) -> None:
        validate_environment(self)

    def with_effort_cost(self, cost: float) -> "Environment":
        if not 0.0 <= float(cost) < math.inf:  # also rejects NaN
            raise InvalidDistribution(f"effort_cost must be finite and nonnegative, got {cost}")
        return replace(self, effort_cost=float(cost))

    def to_json_dict(self) -> dict:
        return {
            "labels": list(self.q_space.labels),
            "prior": list(map(float, self.prior.probs)),
            "high": self.high_channel.matrix().tolist(),
            "trusted": self.trusted_channel.matrix().tolist(),
            "low": self.low_channel.matrix().tolist(),
            "effort_cost": self.effort_cost,
            "n_agents": self.n_agents,
            "n_objects": self.n_objects,
            "env_id": self.env_id,
        }

    @staticmethod
    def from_json_dict(doc: Mapping) -> "Environment":
        """The environment a JSON object describes; a missing field, or one that does not
        parse, is a ShapeMismatch that names it."""

        def read(key, parse, default=None):
            if key not in doc:
                if default is None:
                    raise ShapeMismatch(f"environment document missing field {key!r}")
                return default
            try:
                return parse(doc[key])
            except (TypeError, ValueError) as exc:
                raise ShapeMismatch(f"{key}: {exc}") from None

        space = read("labels", LabelSpace.of)
        prior = read("prior", lambda probs: Distribution.from_array(space, probs))
        channel = lambda mat: Channel.from_matrix(space, space, mat)
        high = read("high", channel)
        env = Environment(
            q_space=space,
            prior=prior,
            high_channel=high,
            trusted_channel=read("trusted", channel, high),
            low_channel=read("low", channel, Channel.uniform(space)),
            effort_cost=read("effort_cost", float, 0.0),
            n_agents=read("n_agents", int, 3),
            n_objects=read("n_objects", int, 2),
            env_id=read("env_id", str, "env"),
        )
        env.validate()
        return env


def reference_environment() -> Environment:
    """The binary environment used throughout the test suite: two labels, uniform prior,
    0.9 symmetric-noise high and trusted channels, uniform low channel, cost 0.1, n=3, m=2."""
    space = LabelSpace.of((0, 1))
    env = Environment(
        q_space=space,
        prior=Distribution.uniform(space),
        high_channel=Channel.symmetric_noise(space, 0.9),
        trusted_channel=Channel.symmetric_noise(space, 0.9),
        low_channel=Channel.uniform(space),
        effort_cost=0.1,
        n_agents=3,
        n_objects=2,
        env_id="e1",
    )
    env.validate()
    return env


def validate_environment(env: Environment) -> None:
    """Raise the first violated invariant; return silently when all hold."""
    space = env.q_space
    for name, dist in [("prior", env.prior)]:
        if dist.support != space:
            raise ShapeMismatch(f"{name} is not over the quality space")
    for name, channel in [
        ("high_channel", env.high_channel),
        ("trusted_channel", env.trusted_channel),
        ("low_channel", env.low_channel),
    ]:
        if channel.input_space != space or channel.output_space != space:
            raise ShapeMismatch(f"{name} must map the quality space to the label space")
    if not 0.0 <= env.effort_cost < math.inf:  # also rejects NaN
        raise InvalidDistribution(f"effort_cost must be finite and nonnegative, got {env.effort_cost}")
    if env.n_agents < 3:
        raise TooFewAgents(f"n_agents must be at least 3, got {env.n_agents}")
    if env.n_objects < 1:
        raise ShapeMismatch(f"n_objects must be positive, got {env.n_objects}")

