import numpy as np
import pytest
from hypothesis import settings

from peerspot import (
    LOGARITHMIC,
    QUADRATIC,
    Channel,
    Distribution,
    Environment,
    LabelSpace,
    MechanismSpec,
    reference_environment,
)
from peerspot.mechanisms import KINDS

# Property tests draw from a fixed seed, so every run checks the same examples.
settings.register_profile("seeded", derandomize=True, database=None, deadline=None)
settings.load_profile("seeded")

# Every kind at its default parameters, under both rules where it scores beliefs.
SPECS = [
    MechanismSpec(kind, rule=rule)
    for kind, entry in KINDS.items()
    for rule in ((QUADRATIC, LOGARITHMIC) if entry.scored else (QUADRATIC,))
]
K3_SPECS = [spec for spec in SPECS if not KINDS[spec.kind].binary_only]


def specs_for(env: Environment) -> list:
    """The specs of SPECS that apply to the environment's label count."""
    return SPECS if len(env.q_space) == 2 else K3_SPECS


def spec_id(spec: MechanismSpec) -> str:
    return f"{spec.kind.value}.{spec.rule.name}" if KINDS[spec.kind].scored else spec.kind.value


E1_COST = 0.1  # the effort cost at which tests read the ``env`` fixture
TERNARY_COST = 0.05  # the effort cost at which tests read the ``ternary_env`` fixture


@pytest.fixture
def env():
    """Binary environment: uniform prior, 0.9 high/trusted channels, uniform low."""
    return reference_environment()


@pytest.fixture
def ternary_env():
    space = LabelSpace.of((0, 1, 2))
    return Environment(
        q_space=space,
        prior=Distribution.from_array(space, [0.5, 0.3, 0.2]),
        high_channel=Channel.symmetric_noise(space, 0.8),
        trusted_channel=Channel.symmetric_noise(space, 0.75),
        low_channel=Channel.uniform(space),
        n_agents=3,
        n_objects=2,
        env_id="ternary",
    )


def random_environment(rng: np.random.Generator, labels: int, correlated_low: bool = False) -> Environment:
    """Arbitrary valid environment with noisy aligned channels for property tests."""
    return random_costed_environment(rng, labels, correlated_low)[0]


def random_costed_environment(rng: np.random.Generator, labels: int, correlated_low: bool = False) -> tuple:
    """``random_environment`` and an effort cost in [0, 0.2), drawn after it: every caller
    draws the cost, so a seeded loop builds the same environments whether or not it reads it."""
    space = LabelSpace.of(tuple(range(labels)))
    weights = rng.uniform(0.4, 1.6, size=labels)

    def noisy():
        rows = []
        for r in range(labels):
            acc = rng.uniform(max(0.45, 1.1 / labels), 0.95)
            row = np.full(labels, (1 - acc) / (labels - 1))
            row[r] = acc
            rows.append(row)
        return Channel.from_matrix(space, space, np.array(rows))

    env = Environment(
        q_space=space,
        prior=Distribution.from_array(space, weights / weights.sum()),
        high_channel=noisy(),
        trusted_channel=noisy(),
        low_channel=noisy() if correlated_low else Channel.uniform(space),
        n_agents=3,
        n_objects=2,
        env_id=f"rand-q{labels}",
    )
    return env, float(rng.uniform(0.0, 0.2))
