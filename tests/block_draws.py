"""The sampler's former categorical draws, which compare against a whole CDF block.

``draw_rows`` and ``draw_prior`` here gather a (samples, k) block of CDF rows
and count, per sample, the entries the uniform draw exceeds.  The package's
``_sampling._draw_rows`` and ``_draw_prior`` count the same comparisons one
CDF column at a time, so from the same generator state they must return
exactly what these return.
"""

import numpy as np


def draw_rows(rng: np.random.Generator, matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """One categorical draw per entry of ``rows`` from the matching matrix row."""
    cdf = np.cumsum(matrix, axis=1)
    u = rng.random(rows.shape[0])
    out = (u[:, None] > cdf[rows]).sum(axis=1)
    return np.minimum(out, matrix.shape[1] - 1)


def draw_prior(rng: np.random.Generator, prior: np.ndarray, size: int) -> np.ndarray:
    cdf = np.cumsum(prior)
    u = rng.random(size)
    return np.minimum((u[:, None] > cdf[None, :]).sum(axis=1), len(cdf) - 1)
