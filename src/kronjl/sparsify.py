"""Fiber-wise top-k splitting of order-d arrays.

For an axis subset S, the array decomposes into fibers: fix the
coordinates outside S and let the S-coordinates range. K(S) keeps, in
every fiber, the s^|S| largest entries by magnitude (the whole fiber when
it is smaller); ties prefer the smallest linearized S-index. Every index
belongs to K(empty), so assigning each index the largest S with i in K(S)
(ties: lexicographically smallest S) yields a partition; the induced parts
x^(S) have disjoint supports and sum to x exactly.

Two max-sum comparisons connect parts to the original array:
- for |S| < |T|: per fiber over T, the largest squared entry of x^(S) is
  at most the fiber's total energy in x divided by s^|T|;
- for disjoint S, T: per T-slice, the S-summed energy of x^(S) is at most
  the (S u T)-fiber energy of x divided by s^|T|.
Both are checked exhaustively by check_max_sum_inequalities.
"""

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ShapeError
from .indexing import _check_axes

__all__ = [
    "SparsifySplit",
    "MaxSumReport",
    "FiberReport",
    "select_K",
    "split",
    "check_fiber_sparsity",
    "check_max_sum_inequalities",
]


def _check_input(x, s):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 1:
        raise ShapeError("expected an array of order >= 1")
    if s < 1:
        raise ShapeError(f"sparsity level must be >= 1, got {s}")
    return x


@lru_cache(maxsize=1024)
def _plan(shape, axes0):
    rest = tuple(a for a in range(len(shape)) if a not in axes0)
    perm = axes0 + rest
    p_sel = math.prod(shape[a] for a in axes0) if axes0 else 1
    inv = tuple(int(i) for i in np.argsort(perm))
    tshape = tuple(shape[a] for a in perm)
    return perm, inv, tshape, p_sel


def _fiber_matrix(x, axes0):
    """View of x as (selected axes, remaining axes), both linearized with
    their earliest axis fastest."""
    perm, _, _, p_sel = _plan(x.shape, axes0)
    return np.transpose(x, perm).reshape((p_sel, -1), order="F")


def _k_mask(x, axes0, s):
    mat = _fiber_matrix(x, axes0)
    p_sel = mat.shape[0]
    k = min(s ** len(axes0), p_sel)
    if k >= p_sel:
        return np.ones(x.shape, dtype=bool)
    # stable sort on -|v|: ties resolve to the smallest linearized index
    order = np.argsort(-np.abs(mat), axis=0, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(p_sel)[:, None], axis=0)
    mask2 = ranks < k
    perm, inv, tshape, _ = _plan(x.shape, axes0)
    return mask2.reshape(tshape, order="F").transpose(inv)


def select_K(x, axes, s):
    """Indices kept by the per-fiber top-s^|S| selection, as a set of
    1-based full coordinate tuples."""
    x = _check_input(x, s)
    axes0 = tuple(a - 1 for a in _check_axes(x.ndim, axes))
    mask = _k_mask(x, axes0, s)
    return {tuple(int(c) + 1 for c in idx) for idx in np.argwhere(mask)}


@dataclass(frozen=True)
class SparsifySplit:
    shape: tuple
    s: int
    subsets: tuple  # frozensets of 1-based axes, assignment priority order
    parts: dict  # frozenset -> array, same shape as the input
    assignment: dict  # 1-based full index tuple -> frozenset

    def reconstruct(self):
        out = np.zeros(self.shape)
        for part in self.parts.values():
            out = out + part
        return out


def _priority_subsets(d):
    subsets = []
    for size in range(d, -1, -1):
        for combo in itertools.combinations(range(1, d + 1), size):
            subsets.append(frozenset(combo))
    # combinations already yields lexicographically increasing tuples
    return tuple(subsets)


def split(x, s):
    """Partition x into parts x^(S), one per axis subset.

    Each index funds exactly one part: the largest S whose selection keeps
    it, ties to the lexicographically smallest subset.
    """
    x = _check_input(x, s)
    d = x.ndim
    subsets = _priority_subsets(d)
    masks = np.stack(
        [_k_mask(x, tuple(sorted(a - 1 for a in sub)), s) for sub in subsets]
    )
    choice = np.argmax(masks, axis=0)  # first True in priority order
    parts = {}
    for pos, sub in enumerate(subsets):
        sel = choice == pos
        parts[sub] = np.where(sel, x, 0.0)
    assignment = {
        tuple(int(c) + 1 for c in idx): subsets[choice[tuple(idx)]]
        for idx in np.ndindex(x.shape)
    }
    return SparsifySplit(
        shape=x.shape, s=int(s), subsets=subsets, parts=parts,
        assignment=assignment,
    )


@dataclass(frozen=True)
class FiberReport:
    ok: bool
    worst_count: int
    worst_bound: int
    worst_subset: frozenset


def check_fiber_sparsity(sp):
    """Every part must keep at most s^|S| entries per fiber over S."""
    ok = True
    worst = (-1, 0, frozenset())
    for sub, part in sp.parts.items():
        axes0 = tuple(sorted(a - 1 for a in sub))
        counts = np.count_nonzero(_fiber_matrix(part, axes0), axis=0)
        bound = sp.s ** len(sub)
        top = int(counts.max()) if counts.size else 0
        if top - bound > worst[0] - worst[1]:
            worst = (top, bound, sub)
        if top > bound:
            ok = False
    return FiberReport(
        ok=ok, worst_count=worst[0], worst_bound=worst[1], worst_subset=worst[2]
    )


@dataclass(frozen=True)
class MaxSumReport:
    ok: bool
    checked: int
    violations: tuple  # (kind, S, T, slice position, lhs, rhs)


def _three_block(x, s_axes0, t_axes0):
    shape = x.shape
    rest = tuple(
        a for a in range(len(shape)) if a not in s_axes0 and a not in t_axes0
    )
    perm = s_axes0 + t_axes0 + rest
    ps = math.prod(shape[a] for a in s_axes0) if s_axes0 else 1
    pt = math.prod(shape[a] for a in t_axes0)
    return np.transpose(x, perm).reshape((ps, pt, -1), order="F")


def check_max_sum_inequalities(x, sp, rel_tol=1e-12):
    """Exhaustively verify both max-sum inequalities for a split of x."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != sp.shape:
        raise ShapeError("split does not belong to this array")
    d = x.ndim
    x2 = x * x
    checked = 0
    violations = []
    for s_sub in sp.subsets:
        part = sp.parts[s_sub]
        part2 = part * part
        for t_sub in sp.subsets:
            if not t_sub:
                continue
            t_axes0 = tuple(sorted(a - 1 for a in t_sub))
            bound = float(sp.s ** len(t_sub))
            if len(s_sub) < len(t_sub):
                lhs = _fiber_matrix(part2, t_axes0).max(axis=0)
                rhs = _fiber_matrix(x2, t_axes0).sum(axis=0) / bound
                checked += lhs.size
                for k in np.flatnonzero(lhs > rhs * (1.0 + rel_tol)):
                    violations.append(
                        ("peak", s_sub, t_sub, int(k) + 1,
                         float(lhs[k]), float(rhs[k]))
                    )
            if s_sub and not (s_sub & t_sub):
                s_axes0 = tuple(sorted(a - 1 for a in s_sub))
                lhs = _three_block(part2, s_axes0, t_axes0).sum(axis=0).max(axis=0)
                rhs = (
                    _three_block(x2, s_axes0, t_axes0).sum(axis=(0, 1)) / bound
                )
                checked += lhs.size
                for k in np.flatnonzero(lhs > rhs * (1.0 + rel_tol)):
                    violations.append(
                        ("energy", s_sub, t_sub, int(k) + 1,
                         float(lhs[k]), float(rhs[k]))
                    )
    return MaxSumReport(
        ok=not violations, checked=checked, violations=tuple(violations)
    )
