"""Linear algebra over F_2 for subspace-indicator constructions.

Words of F_2^n are identified with the integers 0..2^n-1: vector position k
(1-based) corresponds to the word k-1, most significant bit first. A
subspace is stored as its reduced row echelon basis (rows as ints with
strictly decreasing leading bits), which is a canonical form: two subspaces
are equal iff their bases are equal tuples.

The normalized indicator of V puts 1/sqrt(|V|) on member positions, and the
Walsh-Hadamard transform maps it to the indicator of the orthogonal
complement (checked exhaustively in the tests).
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

__all__ = [
    "Gf2Subspace",
    "rref",
    "random_subspace",
    "enumerate_subspaces",
    "orthogonal_complement",
    "indicator",
]


def rref(rows, n):
    """Canonical reduced row echelon basis of the span of `rows`.

    Returns a tuple of ints with strictly decreasing leading bits; zero rows
    vanish, so the tuple length is the rank.
    """
    rows = [int(r) for r in rows]
    if any(not 0 <= r < (1 << n) for r in rows):
        raise ShapeError(f"rows must be {n}-bit words")
    out = []
    for bit in range(n - 1, -1, -1):
        mask = 1 << bit
        pivot = next((r for r in rows if r & mask), None)
        if pivot is None:
            continue
        rows = [r ^ pivot if r & mask else r for r in rows if r != pivot]
        out = [o ^ pivot if o & mask else o for o in out]
        out.append(pivot)
    return tuple(out)


@dataclass(frozen=True)
class Gf2Subspace:
    """A subspace of F_2^n held in canonical reduced echelon form."""

    n: int
    basis: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ShapeError("ambient dimension must be >= 1")
        canon = rref(self.basis, self.n)
        if canon != tuple(self.basis):
            raise ShapeError("basis is not in reduced echelon form")

    @property
    def dim(self):
        return len(self.basis)

    def members(self):
        """All 2^dim member words as an int64 array: the span doubles
        with each basis row b, the new half being the old one XOR b."""
        span = np.zeros(1 << self.dim, dtype=np.int64)
        for k, b in enumerate(self.basis):
            np.bitwise_xor(span[: 1 << k], b, out=span[1 << k : 2 << k])
        return span


def random_subspace(n, r, rng):
    """Uniformly random r-dimensional subspace of F_2^n.

    Rejection-samples full-rank r x n matrices; every subspace carries the
    same number of full-rank generating matrices, so the row space is
    uniform. `rng` is a numpy Generator.
    """
    if not 0 <= r <= n:
        raise ShapeError(f"need 0 <= r <= n, got r={r}, n={n}")
    if r == 0:
        return Gf2Subspace(n, ())
    while True:
        rows = [int(w) for w in rng.integers(0, 1 << n, size=r)]
        basis = rref(rows, n)
        if len(basis) == r:
            return Gf2Subspace(n, basis)


def enumerate_subspaces(n):
    """Yield every subspace of F_2^n, by ascending dimension, each exactly
    once via its canonical echelon basis."""
    for r in range(n + 1):
        # pivot columns as bit positions, highest first
        for pivots in itertools.combinations(range(n - 1, -1, -1), r):
            # free positions: row i may have 1s in non-pivot bits below
            # its own pivot
            free = [
                [b for b in range(pivots[i]) if b not in pivots]
                for i in range(r)
            ]
            slots = [(i, b) for i in range(r) for b in free[i]]
            for bits in itertools.product((0, 1), repeat=len(slots)):
                rows = [1 << p for p in pivots]
                for (i, b), v in zip(slots, bits):
                    if v:
                        rows[i] |= 1 << b
                yield Gf2Subspace(n, tuple(rows))


def orthogonal_complement(v):
    """All words orthogonal to V under the F_2 inner product."""
    pivots = [row.bit_length() - 1 for row in v.basis]
    kernel = []
    for f in range(v.n):
        if f in pivots:
            continue
        w = 1 << f
        for row, lead in zip(v.basis, pivots):
            if (row >> f) & 1:
                w |= 1 << lead
        kernel.append(w)
    return Gf2Subspace(v.n, rref(kernel, v.n))


def indicator(v):
    """Normalized indicator vector of V, length 2^n with entries
    1/sqrt(|V|) on member positions (word w sits at position w+1)."""
    out = np.zeros(1 << v.n)
    out[v.members()] = 1.0 / math.sqrt(2**v.dim)
    return out
