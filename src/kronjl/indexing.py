"""Index algebra for Kronecker-structured arrays.

Axes are numbered 1..d and coordinates are 1-based to match the linear
algebra conventions used throughout the package; numpy internals are
0-based and stay behind this module's helpers. The linearization sends a
full index (i_1, ..., i_d) to

    sum_l (i_l - 1) * n_1 * ... * n_{l-1}  + 1,

so the earliest axis varies fastest. On numpy arrays that is exactly
Fortran raveling, which `vec_f` exposes for internal use. Fibers, slices
and matricizations group axes by the same rule, through `_group_positions`.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AxisConflictError, IndexRangeError, ShapeError

__all__ = [
    "KronDims",
    "PartialIndex",
    "linearize",
    "delinearize",
    "combine",
    "restrict",
    "vectorize",
    "vec_f",
]


@dataclass(frozen=True)
class KronDims:
    """Axis sizes (n_1, ..., n_d) of a Kronecker-structured index space."""

    dims: tuple

    def __post_init__(self):
        dims = tuple(int(n) for n in self.dims)
        if len(dims) == 0:
            raise ShapeError("need at least one axis")
        if any(n < 1 for n in dims):
            raise ShapeError(f"axis sizes must be >= 1, got {dims}")
        object.__setattr__(self, "dims", dims)

    @classmethod
    def parse(cls, text):
        """Parse '4x8x2' or '4,8,2' into KronDims."""
        parts = text.replace("x", ",").split(",")
        try:
            return cls(tuple(int(p) for p in parts))
        except ValueError as exc:
            raise ShapeError(f"cannot parse dims from {text!r}") from exc

    @property
    def order(self):
        return len(self.dims)

    @property
    def total(self):
        return math.prod(self.dims)

    def size_of(self, axes):
        """Product of the axis sizes over the 1-based axis subset."""
        return math.prod(self.dims[a - 1] for a in axes)

    def __iter__(self):
        return iter(self.dims)

    def __len__(self):
        return len(self.dims)


@dataclass(frozen=True)
class PartialIndex:
    """Coordinates on a subset of axes, stored as sorted (axis, coord) pairs.

    Axes and coordinates are 1-based. Structural equality and hashing come
    from the frozen dataclass; two partial indices are equal exactly when
    they assign the same coordinates to the same axes.
    """

    items: tuple

    def __post_init__(self):
        items = tuple((int(a), int(c)) for a, c in self.items)
        axes = [a for a, _ in items]
        if any(a < 1 for a in axes):
            raise AxisConflictError(f"axes must be >= 1, got {axes}")
        if len(set(axes)) != len(axes):
            raise AxisConflictError(f"duplicate axes in {axes}")
        if any(c < 1 for _, c in items):
            raise IndexRangeError(f"coordinates must be >= 1 in {items}")
        object.__setattr__(self, "items", tuple(sorted(items)))

    @classmethod
    def of(cls, mapping):
        """Build from a {axis: coord} mapping or an iterable of pairs."""
        if hasattr(mapping, "items"):
            return cls(tuple(mapping.items()))
        return cls(tuple(mapping))

    @classmethod
    def full(cls, coords):
        """Full index on axes 1..d from a coordinate tuple."""
        return cls(tuple((l + 1, c) for l, c in enumerate(coords)))

    @property
    def axes(self):
        return tuple(a for a, _ in self.items)

    @property
    def coords(self):
        return tuple(c for _, c in self.items)

    def coord(self, axis):
        for a, c in self.items:
            if a == axis:
                return c
        raise AxisConflictError(f"axis {axis} not present in {self.axes}")

    def as_dict(self):
        return dict(self.items)


EMPTY = PartialIndex(())


def _check_axes(ndim, axes):
    """The 1-based axes, sorted; each must be distinct and in 1..ndim."""
    axes = tuple(sorted(int(a) for a in axes))
    if len(set(axes)) != len(axes):
        raise AxisConflictError(f"duplicate axes in {axes}")
    bad = [a for a in axes if not 1 <= a <= ndim]
    if bad:
        raise AxisConflictError(f"axes {bad} outside 1..{ndim}")
    return axes


def _check_coords(dims, idx):
    for a, c in idx.items:
        if not 1 <= c <= dims.dims[a - 1]:
            raise IndexRangeError(
                f"coordinate {c} on axis {a} outside 1..{dims.dims[a - 1]}"
            )


def linearize(dims, idx):
    """Flat 1-based position of a partial index within its restricted axes.

    The earliest axis in sorted order varies fastest. The empty index maps
    to 1.
    """
    _check_axes(dims.order, idx.axes)
    _check_coords(dims, idx)
    flat = 0
    stride = 1
    for a, c in idx.items:
        flat += (c - 1) * stride
        stride *= dims.dims[a - 1]
    return flat + 1


def delinearize(dims, axes, flat):
    """Inverse of linearize for the given sorted 1-based axis subset."""
    axes = _check_axes(dims.order, axes)
    total = dims.size_of(axes)
    if not 1 <= flat <= total:
        raise IndexRangeError(f"flat index {flat} outside 1..{total}")
    rem = flat - 1
    pairs = []
    for a in axes:
        n = dims.dims[a - 1]
        pairs.append((a, rem % n + 1))
        rem //= n
    return PartialIndex(tuple(pairs))


def combine(a, b, mode="cross", d=None):
    """Disjoint union of two partial indices.

    mode='cross' concatenates coordinate assignments; the axis sets must be
    disjoint. mode='shift_plus' first shifts every axis of `b` by `d` (the
    base order), embedding a pair of order-d indices into 2d axes.
    """
    if mode == "cross":
        shifted = b
    elif mode == "shift_plus":
        if d is None:
            raise AxisConflictError("shift_plus requires the base order d")
        if b.axes and max(b.axes) > d:
            raise AxisConflictError(
                f"shift_plus expects second index on axes within 1..{d}, got {b.axes}"
            )
        shifted = PartialIndex(tuple((ax + d, c) for ax, c in b.items))
    else:
        raise AxisConflictError(f"unknown combine mode {mode!r}")
    overlap = set(a.axes) & set(shifted.axes)
    if overlap:
        raise AxisConflictError(f"axes {sorted(overlap)} present in both operands")
    return PartialIndex(a.items + shifted.items)


def restrict(idx, axes):
    """Projection of a partial index onto a subset of its axes."""
    axes = set(axes)
    missing = axes - set(idx.axes)
    if missing:
        raise AxisConflictError(
            f"axes {sorted(missing)} not present in {idx.axes}"
        )
    return PartialIndex(tuple(p for p in idx.items if p[0] in axes))


def vectorize(dims, array):
    """Flatten an order-d array so entry L(i) lands at position L(i)."""
    array = np.asarray(array)
    if array.shape != dims.dims:
        raise ShapeError(f"array shape {array.shape} != dims {dims.dims}")
    return vec_f(array)


@lru_cache(maxsize=256)
def _group_positions(shape, groups):
    """Read-only C-order flat positions of an array of `shape` whose
    0-based axes are regrouped by `groups` (covering each axis once): each
    group is one super-axis, linearized with its first listed axis fastest."""
    sizes = tuple(math.prod(shape[a] for a in g) for g in groups)
    flat = np.arange(math.prod(shape)).reshape(shape).transpose(sum(groups, ()))
    pos = np.ascontiguousarray(flat.reshape(sizes, order="F"))
    pos.setflags(write=False)
    return pos


def vec_f(array):
    """Fortran ravel: first axis fastest, matching the linearization."""
    return np.reshape(array, -1, order="F")
