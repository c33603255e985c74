"""Fiber top-k selection, split partition properties, max-sum checks."""

import dataclasses
import functools
import gc
import itertools
import tracemalloc

import numpy as np
import pytest

from kronjl import indexing, sparsify
from kronjl.errors import ShapeError
from kronjl.indexing import _group_positions
from kronjl.sparsify import (
    MAX_SUM_REL_TOL,
    FiberReport,
    MaxSumReport,
    SparsifySplit,
    _priority_subsets,
    check_fiber_sparsity,
    check_max_sum_inequalities,
    split,
)


# reference: one gather and one numpy reduction per subset and per (S, T)
# pair, the library's loops before the comparison plan; the plan must give
# the same bytes. It asks for the same few layouts thousands of times, so
# it reads them through a cache of its own (the tables are read-only).
_positions = functools.cache(_group_positions)


def _grouped(x, *groups):
    used = set().union(*groups)
    rest = tuple(a for a in range(x.ndim) if a not in used)
    return x.reshape(-1)[_positions(x.shape, groups + (rest,))]


def _k_mask(x, axes0, s):
    """Where K(S) keeps x, for S given as sorted 0-based axes: the s^|S|
    largest entries by magnitude of every fiber over S."""
    pos = _positions(x.shape, (axes0, tuple(
        a for a in range(x.ndim) if a not in axes0)))
    k = s ** len(axes0)
    if k >= pos.shape[0]:
        return np.ones(x.shape, dtype=bool)
    # stable sort on -|v|: ties resolve to the smallest linearized index
    order = np.argsort(-np.abs(x.reshape(-1)[pos]), axis=0, kind="stable")
    mask = np.zeros(x.size, dtype=bool)
    mask[np.take_along_axis(pos, order[:k], axis=0)] = True
    return mask.reshape(x.shape)


def _reference_split(x, s):
    subsets = _priority_subsets(x.ndim)
    masks = np.stack([_k_mask(x, axes0, s) for axes0 in subsets.values()])
    choice = np.argmax(masks, axis=0)  # first True in priority order
    parts = {
        sub: np.where(choice == pos, x, 0.0) for pos, sub in enumerate(subsets)
    }
    return SparsifySplit(
        shape=x.shape, s=s, subsets=tuple(subsets), parts=parts, choice=choice,
    )


def _reference_fiber(sp):
    axes = _priority_subsets(len(sp.shape))
    ok = True
    worst = (-1, 0, frozenset())
    for sub, part in sp.parts.items():
        counts = np.count_nonzero(_grouped(part, axes[sub]), axis=0)
        bound = sp.s ** len(sub)
        top = int(counts.max()) if counts.size else 0
        if top - bound > worst[0] - worst[1]:
            worst = (top, bound, sub)
        if top > bound:
            ok = False
    return FiberReport(
        ok=ok, worst_count=worst[0], worst_bound=worst[1], worst_subset=worst[2]
    )


def _reference_max_sum(x, sp):
    axes = _priority_subsets(x.ndim)
    x2 = x * x
    fiber = {u: _grouped(x2, axes[u]).sum(axis=0) for u in sp.subsets if u}
    checked = 0
    violations = []
    for s_sub in sp.subsets:
        part2 = sp.parts[s_sub] ** 2
        for t_sub in sp.subsets:
            if not t_sub:
                continue
            bound = float(sp.s ** len(t_sub))
            sides = []
            if len(s_sub) < len(t_sub):
                lhs = _grouped(part2, axes[t_sub]).max(axis=0)
                sides.append(("peak", lhs, fiber[t_sub] / bound))
            if s_sub and not (s_sub & t_sub):
                st = (axes[s_sub], axes[t_sub])
                lhs = _grouped(part2, *st).sum(axis=0).max(axis=0)
                sides.append(("energy", lhs, fiber[s_sub | t_sub] / bound))
            for kind, lhs, rhs in sides:
                checked += lhs.size
                for k in (lhs > rhs * (1.0 + MAX_SUM_REL_TOL)).nonzero()[0]:
                    violations.append(
                        (kind, s_sub, t_sub, int(k) + 1,
                         float(lhs[k]), float(rhs[k]))
                    )
    return MaxSumReport(
        ok=not violations, checked=checked, violations=tuple(violations)
    )


def _inflated(sp, sizes=(1,)):
    """The split with every part over a subset of one of the given sizes
    scaled by 10, which breaks both inequalities wherever those parts hold
    entries."""
    return dataclasses.replace(sp, parts={
        sub: 10.0 * part if len(sub) in sizes else part
        for sub, part in sp.parts.items()
    })


def _assert_same_bytes(x, s, inflate=False):
    got, want = split(x, s), _reference_split(x, s)
    assert got.subsets == want.subsets and got.s == want.s
    assert got.choice.tobytes() == want.choice.tobytes()
    assert got.choice.shape == want.choice.shape
    for sub in want.subsets:
        assert got.parts[sub].tobytes() == want.parts[sub].tobytes()
        assert got.parts[sub].shape == want.parts[sub].shape
    # inflating every part also puts the rows of the empty part and of
    # one-axis shapes in the report, with their right-hand sides
    every = range(len(got.shape) + 1)
    splits = (got, _inflated(got), _inflated(got, every)) if inflate else (got,)
    for sp in splits:
        assert check_fiber_sparsity(sp) == _reference_fiber(sp)
        # dataclass equality compares the violation floats exactly, in order
        assert check_max_sum_inequalities(x, sp) == _reference_max_sum(x, sp)


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


def _select(x, axes, s):
    """The indices K(S) keeps, as 1-based full coordinate tuples."""
    mask = _k_mask(x, tuple(a - 1 for a in axes), s)
    return {tuple(int(c) + 1 for c in idx) for idx in np.argwhere(mask)}


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
                        assert _select(x, axes, s) == _brute_select(x, axes, s)


def test_select_keeps_whole_small_fibers():
    x = np.arange(8.0).reshape(2, 4)
    # s^|S| = 9 >= fiber size 2: everything survives
    assert _select(x, (1,), 3) == {
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
        check_max_sum_inequalities(np.ones((2, 3)), split(np.ones((2, 2)), 1))
    # the level is an integer: not a float, even an integral one, nor a bool
    for s in (2.0, 2.5, True, False, "2", None):
        with pytest.raises(ShapeError):
            split(np.ones((2, 2)), s)
    assert split(np.ones((2, 2)), np.int64(2)).s == 2
    with pytest.raises(ShapeError):
        split(np.ones((2, 0)), 1)
    x = np.ones((2, 2))
    sp = split(x, 1)
    missing = dict(sp.parts)
    del missing[frozenset({1})]
    extra = dict(sp.parts, **{"extra": x})
    foreign = {frozenset({a + 1 for a in sub}): part
               for sub, part in sp.parts.items()}
    misshapen = {sub: part.reshape(-1) for sub, part in sp.parts.items()}
    for parts in (missing, extra, foreign, misshapen):
        bad = dataclasses.replace(sp, parts=parts)
        with pytest.raises(ShapeError):
            check_fiber_sparsity(bad)
        with pytest.raises(ShapeError):
            check_max_sum_inequalities(x, bad)


REFERENCE_SHAPES = [(4, 4), (2, 4, 2), (3, 1, 2), (3, 3), (2, 2, 2, 2), (16,),
                    (8, 8), (4, 2, 2, 2)]


def test_plan_matches_reference():
    rng = np.random.default_rng(2828)
    for shape in REFERENCE_SHAPES:
        for s in (1, 2, 3):
            for k in range(100):
                if k % 3 == 2:
                    x = rng.integers(-1, 2, size=shape).astype(float)
                else:
                    x = rng.standard_normal(shape)
                _assert_same_bytes(x, s, inflate=k == 0)
            _assert_same_bytes(np.zeros(shape), s)


def test_whole_fiber_is_summed_pairwise():
    # numpy sums a fiber that is the whole array pairwise and the fibers of
    # a wider table in sequence; for this array the two orders differ in the
    # last bit, and the rhs of every violation over T = {1, 2} (bound 1 at
    # s = 1) must be the pairwise sum
    x = np.random.default_rng(2829).standard_normal((4, 4))
    fiber = (x * x).reshape(-1, order="F")  # linearized: axis 1 fastest
    sequential = 0.0
    for v in fiber:
        sequential += v
    assert fiber.sum() != sequential
    sp = _inflated(split(x, 1))
    rep = check_max_sum_inequalities(x, sp)
    whole = [v[5] for v in rep.violations if v[2] == frozenset({1, 2})]
    assert whole and all(rhs == fiber.sum() for rhs in whole)
    assert rep == _reference_max_sum(x, sp)


def test_spans_match_kept_plan(monkeypatch):
    # a plan over the block budget is evaluated span by span and dropped;
    # shrinking the budget sends these small shapes down that path
    rng = np.random.default_rng(29)
    cases = [(rng.standard_normal(shape), s)
             for shape in ((2, 4, 2), (3, 1, 2), (4, 4), (2, 2, 2, 2))
             for s in (1, 2)]
    budget = 3 * 16 * sparsify._ENTRY_BYTES  # three comparisons at n = 16
    sparsify._plan.cache_clear()
    monkeypatch.setattr(indexing, "_BLOCK_BYTES", budget)
    try:
        for x, s in cases:
            plan = sparsify._plan(x.shape, s)
            assert plan._kept is None
            assert len(list(plan.tables("rows"))) > 1
            _assert_same_bytes(x, s, inflate=True)
    finally:
        sparsify._plan.cache_clear()


def test_large_plans_are_not_kept():
    shape = (4,) * 5
    x = np.random.default_rng(30).standard_normal(shape)
    split(x, 2)  # imports and the subset table are made once per order
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sp = split(x, 2)
        fiber = check_fiber_sparsity(sp)
        max_sum = check_max_sum_inequalities(x, sp)
        assert fiber.ok and max_sum.ok
        del sp, fiber, max_sum
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert left < 64 * 1024
