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
Both are checked exhaustively by check_max_sum_inequalities, up to a
relative slack of MAX_SUM_REL_TOL, from one fiber-energy table.

Fibers and slices are gathers of the flat array at the positions that
`indexing._group_positions` gives for the axis groups (S, rest) or
(S, T, rest). A split keeps its parts and, per entry, the position of its
part's subset in priority order (`choice`).
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .errors import ShapeError
from .indexing import _group_positions

__all__ = [
    "SparsifySplit",
    "MaxSumReport",
    "FiberReport",
    "split",
    "check_fiber_sparsity",
    "check_max_sum_inequalities",
]

MAX_SUM_REL_TOL = 1e-12


def _check_input(x, s):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 1:
        raise ShapeError("expected an array of order >= 1")
    if s < 1:
        raise ShapeError(f"sparsity level must be >= 1, got {s}")
    return x


@lru_cache(maxsize=256)
def _positions(shape, *groups):
    """Grouped positions for `groups` of 0-based axes, then the rest."""
    used = set().union(*groups)
    rest = tuple(a for a in range(len(shape)) if a not in used)
    return _group_positions(shape, groups + (rest,))


def _grouped(x, *groups):
    return x.reshape(-1)[_positions(x.shape, *groups)]


def _k_mask(x, axes0, s):
    """Where K(S) keeps x, for S given as sorted 0-based axes: the s^|S|
    largest entries by magnitude of every fiber over S."""
    pos = _positions(x.shape, axes0)
    k = s ** len(axes0)
    if k >= pos.shape[0]:
        return np.ones(x.shape, dtype=bool)
    # stable sort on -|v|: ties resolve to the smallest linearized index
    order = np.argsort(-np.abs(x.reshape(-1)[pos]), axis=0, kind="stable")
    mask = np.zeros(x.size, dtype=bool)
    mask[np.take_along_axis(pos, order[:k], axis=0)] = True
    return mask.reshape(x.shape)


@dataclass(frozen=True)
class SparsifySplit:
    shape: tuple
    s: int
    subsets: tuple  # frozensets of 1-based axes, in priority order
    parts: dict  # frozenset -> array, same shape as the input
    choice: np.ndarray  # read-only, input's shape: position in subsets

    def reconstruct(self):
        out = np.zeros(self.shape)
        for part in self.parts.values():
            out = out + part
        return out


@lru_cache(maxsize=None)
def _priority_subsets(d):
    """Axis subsets of 1..d, largest first and then lexicographically
    smallest (combinations yields them in that order), each mapped to its
    sorted 0-based axes."""
    return MappingProxyType({
        frozenset(a + 1 for a in combo): combo
        for size in range(d, -1, -1)
        for combo in itertools.combinations(range(d), size)
    })


def split(x, s):
    """Partition x into parts x^(S), one per axis subset.

    Each index funds exactly one part: the largest S whose selection keeps
    it, ties to the lexicographically smallest subset.
    """
    x = _check_input(x, s)
    subsets = _priority_subsets(x.ndim)
    masks = np.stack([_k_mask(x, axes0, s) for axes0 in subsets.values()])
    choice = np.argmax(masks, axis=0)  # first True in priority order
    choice.setflags(write=False)
    parts = {
        sub: np.where(choice == pos, x, 0.0) for pos, sub in enumerate(subsets)
    }
    return SparsifySplit(
        shape=x.shape, s=int(s), subsets=tuple(subsets), parts=parts,
        choice=choice,
    )


@dataclass(frozen=True)
class FiberReport:
    ok: bool
    worst_count: int
    worst_bound: int
    worst_subset: frozenset


def check_fiber_sparsity(sp):
    """Every part must keep at most s^|S| entries per fiber over S."""
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


@dataclass(frozen=True)
class MaxSumReport:
    ok: bool
    checked: int
    violations: tuple  # (kind, S, T, slice position, lhs, rhs)


def check_max_sum_inequalities(x, sp):
    """Exhaustively verify both max-sum inequalities for a split of x."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != sp.shape:
        raise ShapeError("split does not belong to this array")
    axes = _priority_subsets(x.ndim)
    x2 = x * x
    # fiber[U]: energy of x over each fiber along the axes of U
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
