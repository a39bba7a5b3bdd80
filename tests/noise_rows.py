"""The former symmetric-noise channels, built one row at a time.

``generate_environments`` and the acceptance gate's aligned environments used to draw
each row's accuracy with its own ``rng.uniform(lo, hi)`` call and fill the row by hand,
and ``Channel.symmetric_noise`` took one accuracy for every row.  The package now draws
the k accuracies with one ``rng.uniform(lo, hi, size=k)`` call and builds every such
channel with ``Channel.symmetric_noise``, so from the same generator state it must give
exactly the matrices these give.
"""

import numpy as np

from peerspot import Channel, Distribution, Environment, LabelSpace


def noisy_rows(rng: np.random.Generator, labels: int, lo: float, hi: float) -> np.ndarray:
    """One accuracy drawn per row, on the diagonal, the rest spread evenly over the row."""
    rows = []
    for r in range(labels):
        acc = rng.uniform(lo, hi)
        row = np.full(labels, (1.0 - acc) / (labels - 1))
        row[r] = acc
        rows.append(row)
    return np.array(rows)


def scalar_noise(labels: int, accuracy: float) -> np.ndarray:
    """The former ``Channel.symmetric_noise`` matrix for one accuracy on every row."""
    mat = np.full((labels, labels), (1.0 - accuracy) / (labels - 1))
    np.fill_diagonal(mat, accuracy)
    return mat


def generate_environments(labels: int, count: int, seed: int, accuracy=(0.6, 0.95), prefix="gen") -> list:
    """The former ``harness.generate_environments`` at its default sizes."""
    rng = np.random.default_rng(seed)
    space = LabelSpace.of(tuple(range(labels)))
    channel = lambda: Channel.from_matrix(space, noisy_rows(rng, labels, *accuracy))
    return [
        Environment(
            q_space=space,
            prior=Distribution.uniform(space),
            high_channel=channel(),
            trusted_channel=channel(),
            low_channel=Channel.uniform(space),
            n_agents=3,
            n_objects=2,
            env_id=f"{prefix}-q{labels}-s{seed}-{i}",
        )
        for i in range(count)
    ]


def aligned_random_environment(rng: np.random.Generator, labels: int, index: int) -> Environment:
    """The former ``acceptance._aligned_random_environment``."""
    space = LabelSpace.of(tuple(range(labels)))
    weights = rng.uniform(0.5, 1.5, size=labels)
    prior = Distribution.from_array(space, weights / weights.sum())
    aligned = lambda floor: Channel.from_matrix(space, noisy_rows(rng, labels, max(floor, 1.05 / labels), 0.95))
    return Environment(
        q_space=space,
        prior=prior,
        high_channel=aligned(0.55),
        trusted_channel=aligned(0.55),
        low_channel=aligned(0.3),
        n_agents=3,
        n_objects=2,
        env_id=f"aligned-q{labels}-{index}",
    )
