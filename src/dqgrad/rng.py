"""Seeded randomness for reproducible experiments.

Every random draw in this package goes through one documented generator:
PCG64 uniforms pushed through the Box-Muller transform for normals. A run
is therefore pinned bit-for-bit by its integer seed, independently of
numpy's default normal sampler (whose algorithm is not part of numpy's
stability guarantees).
"""

import numpy as np

TWO_PI = 2.0 * np.pi


def make_rng(seed):
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return np.random.Generator(np.random.PCG64(seed))


def standard_normal(rng, size):
    """Box-Muller normals driven by PCG64 uniforms.

    Draws ceil(size/2) uniform pairs; u1 is mapped from [0,1) to (0,1] so
    the log never sees zero.
    """
    half = (size + 1) // 2
    u1 = 1.0 - rng.random(half)
    u2 = rng.random(half)
    radius = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([radius * np.cos(TWO_PI * u2), radius * np.sin(TWO_PI * u2)])
    return z[:size]


def normal_matrix(rng, m, n):
    return standard_normal(rng, m * n).reshape(m, n)
