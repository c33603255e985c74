"""Fiber top-k selection, split partition properties, max-sum checks."""

import dataclasses
import itertools

import numpy as np
import pytest

from kronjl.errors import ShapeError
from kronjl.sparsify import (
    SparsifySplit,
    check_fiber_sparsity,
    check_max_sum_inequalities,
    select_K,
    split,
)


def _brute_select(x, axes, s):
    # independent oracle: explicit per-fiber sort with the documented
    # tie-breaks (magnitude desc, linearized selected-index asc)
    d = x.ndim
    axes0 = sorted(a - 1 for a in axes)
    rest = [a for a in range(d) if a not in axes0]
    k = s ** len(axes0)
    keep = set()
    for rc in itertools.product(*[range(x.shape[a]) for a in rest]):
        entries = []
        sel_sizes = [x.shape[a] for a in axes0]
        for pos, rev in enumerate(
            itertools.product(*[range(n) for n in reversed(sel_sizes)])
        ):
            sc = tuple(reversed(rev))
            full = [0] * d
            for a, c in zip(axes0, sc):
                full[a] = c
            for a, c in zip(rest, rc):
                full[a] = c
            entries.append((-abs(x[tuple(full)]), pos, tuple(full)))
        entries.sort()
        for _, _, full in entries[: min(k, len(entries))]:
            keep.add(tuple(c + 1 for c in full))
    return keep


def _brute_assignment(x, s):
    d = x.ndim
    subsets = []
    for size in range(d, -1, -1):
        subsets += [
            frozenset(c) for c in itertools.combinations(range(1, d + 1), size)
        ]
    k_sets = {sub: _brute_select(x, sorted(sub), s) for sub in subsets}
    out = {}
    for idx in itertools.product(*[range(1, n + 1) for n in x.shape]):
        out[idx] = next(sub for sub in subsets if idx in k_sets[sub])
    return out


def _assignment(sp):
    """The split's choice as a 1-based full index -> subset dict."""
    return {
        tuple(c + 1 for c in idx): sp.subsets[sp.choice[idx]]
        for idx in np.ndindex(sp.shape)
    }


def test_select_matches_brute_force():
    rng = np.random.default_rng(0)
    for shape in [(4, 4), (2, 4, 2), (3, 5)]:
        d = len(shape)
        conts = rng.standard_normal(shape)
        ties = rng.integers(-2, 3, size=shape).astype(float)
        for x in (conts, ties):
            for r in range(d + 1):
                for axes in itertools.combinations(range(1, d + 1), r):
                    for s in (1, 2, 3):
                        assert select_K(x, axes, s) == _brute_select(x, axes, s)


def test_select_keeps_whole_small_fibers():
    x = np.arange(8.0).reshape(2, 4)
    # s^|S| = 9 >= fiber size 2: everything survives
    assert select_K(x, (1,), 3) == {
        (i, j) for i in (1, 2) for j in (1, 2, 3, 4)
    }


def test_split_frozen_example():
    x = np.array([[3.0, 1.0], [2.0, 4.0]])
    sp = split(x, 1)
    assert np.array_equal(sp.parts[frozenset({1, 2})], [[0, 0], [0, 4]])
    assert np.array_equal(sp.parts[frozenset({1})], [[3, 0], [0, 0]])
    assert np.array_equal(sp.parts[frozenset({2})], [[0, 0], [0, 0]])
    assert np.array_equal(sp.parts[frozenset()], [[0, 1], [2, 0]])
    assert _assignment(sp)[(1, 1)] == frozenset({1})  # lex tie-break {1} < {2}
    assert _assignment(sp)[(2, 2)] == frozenset({1, 2})


def test_split_all_ties():
    sp = split(np.ones((2, 2)), 1)
    assignment = _assignment(sp)
    assert assignment[(1, 1)] == frozenset({1, 2})
    assert assignment[(2, 1)] == frozenset({2})
    assert assignment[(1, 2)] == frozenset({1})
    assert assignment[(2, 2)] == frozenset()
    assert sp.choice.shape == (2, 2)
    with pytest.raises(ValueError):
        sp.choice[0, 0] = 3


def test_split_partitions_and_reconstructs():
    rng = np.random.default_rng(1)
    for shape, s in [((4, 4), 2), ((2, 4, 2), 2), ((4, 4), 3), ((8,), 2),
                     ((2, 2, 2, 2), 2), ((3, 1, 2), 1)]:
        x = rng.standard_normal(shape)
        sp = split(x, s)
        # exact reconstruction, bit for bit
        assert np.array_equal(sp.reconstruct(), x)
        # disjoint supports
        support_total = sum(
            np.count_nonzero(p) for p in sp.parts.values()
        )
        union = np.zeros(shape, dtype=int)
        for p in sp.parts.values():
            union += (p != 0).astype(int)
        assert union.max() <= 1
        assert support_total == np.count_nonzero(x)


def test_assignment_matches_brute_force():
    rng = np.random.default_rng(2)
    for shape, s in [((4, 4), 2), ((2, 4, 2), 2), ((3, 3), 1),
                     ((2, 2, 2, 2), 2), ((3, 1, 2), 1)]:
        x = rng.standard_normal(shape)
        sp = split(x, s)
        assert _assignment(sp) == _brute_assignment(x, s)
        x_int = rng.integers(-1, 2, size=shape).astype(float)
        sp2 = split(x_int, s)
        assert _assignment(sp2) == _brute_assignment(x_int, s)


def test_fiber_sparsity_bound():
    rng = np.random.default_rng(3)
    for shape, s in [((4, 4), 2), ((2, 4, 2), 3)]:
        sp = split(rng.standard_normal(shape), s)
        rep = check_fiber_sparsity(sp)
        assert rep.ok


def test_fiber_sparsity_rejects_bad_split():
    x = np.ones((2, 2))
    sp = split(x, 1)
    # corrupt: claim everything belongs to the singleton-{1} part
    bad_parts = dict(sp.parts)
    bad_parts[frozenset({1})] = x.copy()
    bad = SparsifySplit(
        shape=sp.shape, s=sp.s, subsets=sp.subsets, parts=bad_parts,
        choice=sp.choice,
    )
    assert not check_fiber_sparsity(bad).ok


def test_max_sum_inequalities_random():
    rng = np.random.default_rng(4)
    for shape, s in [((4, 4), 2), ((2, 4, 2), 2), ((4, 4), 3), ((2, 4, 2), 3),
                     ((2, 2, 2, 2), 2), ((3, 1, 2), 1)]:
        for _ in range(25):
            x = rng.standard_normal(shape)
            sp = split(x, s)
            rep = check_max_sum_inequalities(x, sp)
            assert rep.ok, rep.violations[:3]
            assert rep.checked > 0


def test_max_sum_with_ties_and_zeros():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.integers(-1, 2, size=(4, 4)).astype(float)
        sp = split(x, 2)
        assert check_max_sum_inequalities(x, sp).ok
    z = np.zeros((2, 4, 2))
    assert check_max_sum_inequalities(z, split(z, 2)).ok


def test_max_sum_violations_are_reported():
    # inflating every one-axis part breaks both inequalities where those
    # parts hold entries; the report must name each violated slice
    x = np.random.default_rng(7).standard_normal((4, 4))
    sp = split(x, 1)
    parts = {
        sub: 10.0 * part if len(sub) == 1 else part
        for sub, part in sp.parts.items()
    }
    rep = check_max_sum_inequalities(x, dataclasses.replace(sp, parts=parts))
    assert not rep.ok
    assert rep.checked == 13
    assert [v[:4] for v in rep.violations] == [
        ("peak", frozenset({1}), frozenset({1, 2}), 1),
        ("energy", frozenset({1}), frozenset({2}), 1),
        ("peak", frozenset({2}), frozenset({1, 2}), 1),
        ("energy", frozenset({2}), frozenset({1}), 1),
    ]
    for _, _, _, _, lhs, rhs in rep.violations:
        assert lhs > rhs


def test_permutation_equivariance():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((4, 4))
    perm = rng.permutation(4)
    sp = split(x, 2)
    sp_p = split(x[perm], 2)
    for sub in sp.parts:
        assert np.array_equal(sp_p.parts[sub], sp.parts[sub][perm])


def test_validation():
    with pytest.raises(ShapeError):
        split(np.ones((2, 2)), 0)
    with pytest.raises(ShapeError):
        select_K(np.ones((2, 2)), (3,), 1)
    with pytest.raises(ShapeError):
        select_K(np.ones((2, 2)), (1, 1), 1)
    with pytest.raises(ShapeError):
        check_max_sum_inequalities(np.ones((2, 3)), split(np.ones((2, 2)), 1))
