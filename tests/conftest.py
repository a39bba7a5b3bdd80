import numpy as np
import pytest
from hypothesis import settings

from peerspot import (
    Channel,
    Distribution,
    Environment,
    LabelSpace,
    reference_environment,
)

# Property tests draw from a fixed seed, so every run checks the same examples.
settings.register_profile("seeded", derandomize=True, database=None, deadline=None)
settings.load_profile("seeded")


@pytest.fixture
def env():
    """Binary environment: uniform prior, 0.9 high/trusted channels, uniform low, cost 0.1."""
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
        effort_cost=0.05,
        n_agents=3,
        n_objects=2,
        env_id="ternary",
    )


def random_environment(rng: np.random.Generator, labels: int, correlated_low: bool = False) -> Environment:
    """Arbitrary valid environment with noisy aligned channels for property tests."""
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

    return Environment(
        q_space=space,
        prior=Distribution.from_array(space, weights / weights.sum()),
        high_channel=noisy(),
        trusted_channel=noisy(),
        low_channel=noisy() if correlated_low else Channel.uniform(space),
        effort_cost=float(rng.uniform(0.0, 0.2)),
        n_agents=3,
        n_objects=2,
        env_id=f"rand-q{labels}",
    )
