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

All three calls run from one comparison plan per (shape, s). A comparison
gathers the whole flat array once, fiber after fiber, each fiber in
linearized order (the other axes slowest, as `indexing._group_positions`
lays them out): one per selection K(S), one per part for its fiber
counts, one per fiber energy of x and one per max-sum row, in (S, T, kind)
order. The plan puts their positions end to end, so a call makes a few
array calls over all of them: for `split` one stable sort of -|x| per
fiber length, for `check_fiber_sparsity` one sum of nonzeros per fiber,
then one maximum per part, and for every max-sum row one sum per fiber,
then one maximum per run over T; a peak row sums over no axes, each sum
one entry (0.0 + v = v exactly, squares are never -0.0). Each fiber is summed in the order numpy
sums a gathered fiber table: in sequence (`np.bincount`), or pairwise
where the fiber is the whole array, so every report keeps its bytes.

The last 16 plans whose comparisons all fit in one `indexing._blocks` span
(`_BLOCK_BYTES` of working data, at `_ENTRY_BYTES` per gathered entry) are
kept. A larger plan is built and evaluated span by span, and dropped.

A split keeps its parts and, per entry, the position of its part's subset
in priority order (`choice`).
"""

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .errors import ShapeError
from .indexing import _blocks, _group_positions, _integer, _real

__all__ = [
    "SparsifySplit",
    "MaxSumReport",
    "FiberReport",
    "split",
    "check_fiber_sparsity",
    "check_max_sum_inequalities",
]

MAX_SUM_REL_TOL = 1e-12

# bytes a plan takes per gathered entry: int64 positions and fiber ids in
# its tables, the float64 values and sort order a call makes from them
_ENTRY_BYTES = 64


def _level(s):
    """The sparsity level as a Python int >= 1."""
    s = _integer(s, "sparsity level")
    if s < 1:
        raise ShapeError(f"sparsity level must be >= 1, got {s}")
    return s


def _check_input(x, s):
    x = _real(x)
    if x.ndim < 1:
        raise ShapeError("expected an array of order >= 1")
    if x.size == 0:
        raise ShapeError(f"expected a non-empty array, got shape {x.shape}")
    return x, _level(s)


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


def _cat(arrays, dtype=np.intp):
    return np.concatenate(arrays) if arrays else np.empty(0, dtype)


class _Plan:
    """The comparisons of all three calls on arrays of one shape at level
    s, and their gather tables, one per `_blocks` span. Each comparison
    gathers all n entries of one row of a (2^d + 1, n) source: the parts
    in priority order, then x. Sections:

    - "sort": the selections K(S) that `split` sorts, for the subsets
      before `keeps_all`, the first whose selection keeps every entry;
    - "count": every part's nonzeros, summed per fiber over its subset,
      one sum table;
    - "energy": the fiber energies of x over every nonempty subset, one
      sum table;
    - "rows": the max-sum rows, in (S, T, kind) order, each a sum table
      and one maximum per run (a peak row sums over no axes).
    """

    SECTIONS = ("sort", "count", "energy", "rows")

    def __init__(self, shape, s):
        self.shape, self.s, self.n = shape, s, math.prod(shape)
        self.subsets = tuple(_priority_subsets(len(shape)).items())
        self.index = {sub: p for p, (sub, _) in enumerate(self.subsets)}
        self.lengths = [
            math.prod(shape[a] for a in axes) for _, axes in self.subsets
        ]
        self.keeps_all = next(
            p for p, ((sub, _), length)
            in enumerate(zip(self.subsets, self.lengths))
            if s ** len(sub) >= length
        )
        # s^|S| clipped to n + 1: it fits int64 and still exceeds any count
        self.bounds = np.array(
            [min(s ** len(sub), self.n + 1) for sub, _ in self.subsets]
        )
        # offset of each subset's fibers in the fiber counts and, but for
        # the empty subset (last), in the fiber energies
        self.fiber_at = np.cumsum([0] + [self.n // k for k in self.lengths])
        count = sum(
            sum(1 for _ in self._comparisons(name)) for name in self.SECTIONS
        )
        # kept where every comparison of the plan fits in one span
        _, fit = next(_blocks(count, self.n * _ENTRY_BYTES))
        self._kept = None
        if fit == count:
            self._kept = {
                name: tuple(self._spans(name)) for name in self.SECTIONS
            }

    def tables(self, name):
        """The tables of one section in comparison order."""
        if self._kept is None:
            return self._spans(name)
        return self._kept[name]

    def _comparisons(self, name):
        if name == "sort":
            return range(self.keeps_all)
        if name == "count":
            return [(p, (), axes) for p, (_, axes) in enumerate(self.subsets)]
        if name == "energy":  # x is the last row, the empty subset last
            x_row = len(self.subsets)
            return [(x_row, (), axes) for _, axes in self.subsets[:-1]]
        return (
            (kind, ps, pt)
            for ps, (s_sub, _) in enumerate(self.subsets)
            for pt, (t_sub, _) in enumerate(self.subsets[:-1])
            for kind, due in (
                ("peak", len(s_sub) < len(t_sub)),
                ("energy", s_sub and not s_sub & t_sub),
            )
            if due
        )

    def _spans(self, name):
        comps = list(self._comparisons(name))
        build = {"sort": self._sort_table, "rows": self._rows_table}.get(
            name, self._sum_table)
        for lo, hi in _blocks(len(comps), self.n * _ENTRY_BYTES):
            yield build(comps[lo:hi])

    def _layout(self, *groups):
        """Flat positions of every entry, fiber after fiber: the axes in no
        group slowest, then each group in turn, as `_group_positions` lays
        them out."""
        used = set().union(*groups)
        rest = tuple(a for a in range(len(self.shape)) if a not in used)
        return _group_positions(self.shape, (rest,) + groups).reshape(-1)

    def _sort_table(self, parts):
        """The fibers of the given parts grouped by length, one (fibers,
        length) table each, with the slots in sorted order that K(S) keeps,
        the first s^|S| of each fiber, and the fiber of each kept slot."""
        by_length = {}
        for p in parts:
            by_length.setdefault(self.lengths[p], []).append(p)
        groups = []
        for length, ps in by_length.items():
            pos = _cat([self._layout(self.subsets[p][1]) for p in ps])
            pos = pos.reshape(-1, length)
            rows = self.n // length
            first = np.repeat(np.asarray(ps, dtype=np.intp) * self.n, rows)
            keep = [self.s ** len(self.subsets[p][0]) for p in ps]
            slots = np.arange(length) < np.repeat(keep, rows)[:, None]
            tgt = pos + first[:, None]
            groups.append((pos, tgt, slots, slots.nonzero()[0]))
        return groups

    def _sum_table(self, specs):
        """Per-fiber sums of source rows: one spec (row, outer axes, summed
        axes) sums row `row` over the fibers along the summed axes, ordered
        by the remaining axes and then the outer ones. A fiber that is the
        whole row goes to a separate (k, n) table, summed pairwise."""
        tgt, seg, whole, whole_at = [], [], [], []
        out = 0
        for row, outer, axes in specs:
            length = math.prod(self.shape[a] for a in axes)
            fibers = self.n // length
            pos = row * self.n + self._layout(outer, axes)
            if fibers == 1:
                whole.append(pos)
                whole_at.append(out)
            else:
                tgt.append(pos)
                seg.append(np.arange(out, out + fibers).repeat(length))
            out += fibers
        whole = np.array(whole, dtype=np.intp).reshape(-1, self.n)
        whole_at = np.array(whole_at, dtype=np.intp)
        return _cat(tgt), _cat(seg), out, whole, whole_at

    def _rows_table(self, rows):
        """One sum table for some max-sum rows, in row order, with the
        starts of its runs over T and the right-hand sides: a row's `size`
        left-hand sides are the maxima of its runs."""
        specs, starts, rhs_at, sizes, labels = [], [], [], [], []
        sums = 0
        for kind, ps, pt in rows:
            t_sub, t_axes = self.subsets[pt]
            # an energy row sums its part over S; a peak row sums over the
            # empty subset, which is last
            u_sub, u_axes = self.subsets[ps if kind == "energy" else -1]
            fiber = self.index[u_sub | t_sub]
            size, length = self.n // self.lengths[fiber], self.lengths[pt]
            specs.append((ps, t_axes, u_axes))
            starts.append(np.arange(sums, sums + size * length, length))
            sums += size * length
            rhs_at.append(self.fiber_at[fiber] + np.arange(size))
            sizes.append(size)
            labels.append((kind, self.subsets[ps][0], t_sub))
        bound = np.repeat(
            [float(self.s ** len(t_sub)) for _, _, t_sub in labels], sizes
        )
        return (
            self._sum_table(specs), _cat(starts), _cat(rhs_at), bound,
            np.cumsum(sizes) - sizes, labels,
        )


_plan = lru_cache(maxsize=16)(_Plan)


def split(x, s):
    """Partition x into parts x^(S), one per axis subset.

    Each index funds exactly one part: the largest S whose selection keeps
    it, ties to the lexicographically smallest subset.
    """
    x, s = _check_input(x, s)
    plan = _plan(x.shape, s)
    flat = x.reshape(-1)
    # keep[p, i]: K(S_p) keeps entry i; K(S_keeps_all) keeps every entry
    keep = np.zeros((plan.keeps_all + 1, flat.size), dtype=bool)
    keep[plan.keeps_all] = True
    magnitude = -np.abs(flat)
    for groups in plan.tables("sort"):
        for pos, tgt, slots, fibers in groups:
            # stable: within a fiber, ties keep the linearized order
            order = np.argsort(magnitude[pos], axis=1, kind="stable")
            keep.reshape(-1)[tgt[fibers, order[slots]]] = True
    choice = keep.argmax(axis=0).reshape(x.shape)  # first kept in priority
    choice.setflags(write=False)
    owner = choice.reshape(-1) == np.arange(len(plan.subsets))[:, None]
    parts = np.where(owner, flat, 0.0)
    return SparsifySplit(
        shape=x.shape, s=s, subsets=tuple(sub for sub, _ in plan.subsets),
        parts={
            sub: part.reshape(x.shape)
            for (sub, _), part in zip(plan.subsets, parts)
        },
        choice=choice,
    )


def _part_rows(sp):
    """The split's parts as rows of one (2^d + 1, n) array in priority
    order, with a last row left for x."""
    if math.prod(sp.shape) == 0:
        raise ShapeError(f"expected a non-empty split, got shape {sp.shape}")
    subsets = _priority_subsets(len(sp.shape))
    if sp.parts.keys() != subsets.keys():
        raise ShapeError("split parts must be exactly the axis subsets")
    if any(np.shape(part) != sp.shape for part in sp.parts.values()):
        raise ShapeError(f"split parts must have the shape {sp.shape}")
    rows = np.empty((len(subsets) + 1, math.prod(sp.shape)))
    for row, sub in zip(rows, subsets):
        row[:] = np.reshape(sp.parts[sub], -1)
    return rows


@dataclass(frozen=True)
class FiberReport:
    ok: bool
    worst_count: int
    worst_bound: int
    worst_subset: frozenset


def check_fiber_sparsity(sp):
    """Every part must keep at most s^|S| entries per fiber over S."""
    rows = _part_rows(sp)
    plan = _plan(tuple(sp.shape), _level(sp.s))
    nonzero = (rows[:-1] != 0).reshape(-1)
    counts = _cat(
        [_fiber_sums(nonzero, *table) for table in plan.tables("count")],
        np.float64,
    )
    # the largest count of each part
    top = np.maximum.reduceat(counts, plan.fiber_at[:-1])
    excess = top - plan.bounds
    p = int(excess.argmax())  # the first subset with the largest excess
    sub = plan.subsets[p][0]
    worst = (
        (int(top[p]), plan.s ** len(sub), sub) if excess[p] > -1
        else (-1, 0, frozenset())
    )
    return FiberReport(
        ok=bool(excess[p] <= 0), worst_count=worst[0],
        worst_bound=worst[1], worst_subset=worst[2],
    )


@dataclass(frozen=True)
class MaxSumReport:
    ok: bool
    checked: int
    violations: tuple  # (kind, S, T, slice position, lhs, rhs)


def _fiber_sums(source, tgt, seg, count, whole, whole_at):
    """Sums of a `_sum_table`, each in numpy's order for its fiber table."""
    # with no entries, bincount returns int64 zeros even given weights
    sums = np.bincount(seg, weights=source[tgt], minlength=count).astype(
        np.float64, copy=False
    )
    sums[whole_at] = source[whole].sum(axis=1)
    return sums


def check_max_sum_inequalities(x, sp):
    """Exhaustively verify both max-sum inequalities for a split of x."""
    x = _real(x)
    if x.shape != sp.shape:
        raise ShapeError("split does not belong to this array")
    rows = _part_rows(sp)
    plan = _plan(x.shape, _level(sp.s))
    rows[-1] = x.reshape(-1)
    source = np.square(rows, out=rows).reshape(-1)
    # fiber[U]: energy of x over each fiber along the axes of U
    fiber = _cat(
        [_fiber_sums(source, *table) for table in plan.tables("energy")],
        np.float64,
    )
    checked = 0
    violations = []
    for table, starts, rhs_at, bound, first, labels in plan.tables("rows"):
        lhs = np.maximum.reduceat(_fiber_sums(source, *table), starts)
        rhs = fiber[rhs_at] / bound
        for k in (lhs > rhs * (1.0 + MAX_SUM_REL_TOL)).nonzero()[0]:
            row = int(np.searchsorted(first, k, side="right")) - 1
            kind, s_sub, t_sub = labels[row]
            violations.append(
                (kind, s_sub, t_sub, int(k - first[row]) + 1,
                 float(lhs[k]), float(rhs[k]))
            )
        checked += lhs.size
    return MaxSumReport(
        ok=not violations, checked=checked, violations=tuple(violations)
    )
