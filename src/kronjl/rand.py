"""Deterministic sub-stream derivation on top of numpy's Philox generator.

Every source of randomness in the package is a counter-based Philox stream
keyed by SeedSequence(seed, spawn_key=path). The path tags below are the
documented stream layout; two call sites never share a path, so draws are
reproducible bit-for-bit regardless of evaluation order or chunking.
"""

import numpy as np

# Stream path tags. Operator construction uses (SIGNS, axis) and (SAMPLES,);
# everything else hangs off the tag plus call-site specific integers.
TAG_SIGNS = 0
TAG_SAMPLES = 1
TAG_EXPERIMENT = 2
# 3 is retired; the values are kept so that no stream moves
TAG_SUBSPACE = 4
TAG_BOOTSTRAP = 5
TAG_VECTOR = 6


def substream(seed, *path):
    """Return a Generator for the sub-stream at `path` under `seed`.

    Identical (seed, path) pairs always yield identical streams; distinct
    paths are statistically independent.
    """
    seq = np.random.SeedSequence(seed, spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(seq))


def rademacher(rng, shape):
    """Draw +-1 entries, each sign independent and equiprobable."""
    return rng.integers(0, 2, size=shape).astype(np.float64) * 2.0 - 1.0
