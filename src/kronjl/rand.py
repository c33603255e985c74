"""Deterministic sub-stream derivation on top of numpy's Philox generator.

Every source of randomness in the package is a counter-based Philox stream
keyed by SeedSequence(seed, spawn_key=path); the path tags below are the
documented stream layout. Paths are distinct within one library call, so
its draws are reproducible bit-for-bit regardless of evaluation order.
Consecutive integers and standard_normal draws read a stream as one draw
does, so a draw split into blocks (indexing._blocks) gives the same
numbers at any block size. Separate calls under one seed may share a path:
(seed, TAG_EXPERIMENT, family, m_idx, eps_idx) by a jl-sweep cell and the
pointset cell of the same family, m and eps, and cell k of the row scan
in tests/theory_oracles.py reads the kron pointset path at m index k, eps
index 0; (seed, TAG_SAMPLES) by build_operator and
failure_probability_empirical, which every cell of a lower-bound sweep
calls with the same seed.
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


def rademacher_factors(rng, count, dims):
    """Per-axis factors of `count` Kronecker sign vectors over `dims`,
    drawn by ascending axis: one (count, n_l) array per axis."""
    return [rademacher(rng, (count, n)) for n in dims]
