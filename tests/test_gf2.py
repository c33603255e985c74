"""F_2 subspace algebra: canonical bases, complements, indicator duality."""

import numpy as np
import pytest

from kronjl.errors import ShapeError
from kronjl.fwht import fwht
from kronjl.gf2 import (
    Gf2Subspace,
    dot,
    enumerate_subspaces,
    indicator,
    orthogonal_complement,
    random_subspace,
    rref,
)
from kronjl.rand import substream


def _gaussian_binomial(n, r):
    num = den = 1
    for i in range(r):
        num *= 2 ** (n - i) - 1
        den *= 2 ** (r - i) - 1
    return num // den


def test_rref_canonical_under_row_ops():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        rows = [int(w) for w in rng.integers(0, 1 << n, size=3)]
        base = rref(rows, n)
        # row ops preserve the span, hence the canonical form
        mixed = [rows[0] ^ rows[1], rows[2], rows[1], rows[0] ^ rows[2]]
        assert rref(mixed, n) == base
        assert rref(base, n) == base  # idempotent


def test_subspace_counts_match_gaussian_binomials():
    for n in range(1, 6):
        for r in range(n + 1):
            count = sum(1 for _ in enumerate_subspaces(n, r))
            assert count == _gaussian_binomial(n, r)
    assert sum(1 for _ in enumerate_subspaces(5)) == 374


def test_enumerate_yields_distinct_canonical_spaces():
    seen = set(enumerate_subspaces(4))
    assert len(seen) == sum(_gaussian_binomial(4, r) for r in range(5))
    for v in seen:
        assert v.basis == rref(v.basis, 4)


def test_members_closed_under_xor():
    v = Gf2Subspace.from_rows(4, [0b1010, 0b0110])
    mem = set(v.members())
    assert len(mem) == 2**v.dim
    for a in mem:
        for b in mem:
            assert (a ^ b) in mem
    for w in range(16):
        assert v.contains(w) == (w in mem)


def test_members_match_list_span():
    # the XOR doubling of the span, built as a list of ints
    for n in range(1, 5):
        for v in enumerate_subspaces(n):
            span = [0]
            for b in v.basis:
                span += [w ^ b for w in span]
            got = v.members()
            assert got.dtype == np.int64
            assert got.tolist() == span


def test_complement_dimension_and_orthogonality():
    for n in range(1, 6):
        for v in enumerate_subspaces(n):
            w = orthogonal_complement(v)
            assert w.dim == n - v.dim
            for a in v.members():
                for b in w.members():
                    assert dot(a, b) == 0
            assert orthogonal_complement(w) == v


def test_indicator_unit_norm_and_support():
    v = Gf2Subspace.from_rows(3, [0b101])
    vec = indicator(v)
    assert np.isclose(np.linalg.norm(vec), 1.0)
    assert np.count_nonzero(vec) == 2**v.dim
    # word w occupies position w+1, i.e. numpy slot w
    assert vec[0b101] > 0 and vec[0] > 0


def test_indicator_duality_exhaustive_small():
    # transform of a subspace indicator is the complement's indicator
    for n in range(1, 5):
        for v in enumerate_subspaces(n):
            lhs = fwht(indicator(v))
            rhs = indicator(orthogonal_complement(v))
            assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_zero_and_full_subspaces():
    z = Gf2Subspace(3, ())
    assert z.dim == 0 and z.members().tolist() == [0]
    assert np.array_equal(indicator(z), np.eye(8)[0] * 1.0)
    full = orthogonal_complement(z)
    assert full.dim == 3
    assert np.allclose(fwht(indicator(z)), indicator(full))


def test_random_subspace_uniform_support_and_determinism():
    rng1 = substream(7, 0)
    rng2 = substream(7, 0)
    a = random_subspace(5, 2, rng1)
    b = random_subspace(5, 2, rng2)
    assert a == b and a.dim == 2
    # hits many distinct subspaces across seeds
    seen = {random_subspace(4, 2, substream(s, 0)) for s in range(120)}
    assert len(seen) > 20


def test_validation_errors():
    with pytest.raises(ShapeError):
        random_subspace(3, 4, substream(0, 0))
    with pytest.raises(ShapeError):
        Gf2Subspace(3, (0b011, 0b101))  # not reduced echelon
    with pytest.raises(ShapeError):
        Gf2Subspace(0, ())


def test_random_subspace_rough_uniformity():
    # all 35 2-dim subspaces of F_2^4 appear with comparable frequency
    counts = {}
    rng = substream(99, 0)
    total = 3500
    for _ in range(total):
        v = random_subspace(4, 2, rng)
        counts[v] = counts.get(v, 0) + 1
    assert len(counts) == _gaussian_binomial(4, 2)
    expected = total / len(counts)
    assert max(counts.values()) < 2.0 * expected
    assert min(counts.values()) > 0.4 * expected
