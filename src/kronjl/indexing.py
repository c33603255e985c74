"""Index layout of Kronecker-structured arrays.

A vector over axis sizes (n_1, ..., n_d) sends the 1-based full index
(i_1, ..., i_d) to position

    sum_l (i_l - 1) * n_1 * ... * n_{l-1}  + 1,

so the earliest axis varies fastest; on numpy arrays that is Fortran
raveling. Fibers, slices and matricizations group axes by the same rule,
through `_group_positions`.

Every blocked loop of the package walks its items through `_blocks`, in
spans of about `_BLOCK_BYTES` of working data each; that one budget is the
only block size there is. A span holds one item at least, so an item over
`_ITEM_CAP` bytes is refused before its loop allocates it.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BudgetError, ShapeError

__all__ = ["KronDims"]

_BLOCK_BYTES = 1 << 20  # half a 2 MiB per-core L2
# the largest single item; a dense cell holds about five items at once
_ITEM_CAP = 1 << 30


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

    @property
    def order(self):
        return len(self.dims)

    @property
    def total(self):
        return math.prod(self.dims)

    def __iter__(self):
        return iter(self.dims)

    def __len__(self):
        return len(self.dims)


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


def _blocks(count, item_bytes):
    """(lo, hi) spans of range(count), in order, of
    max(1, _BLOCK_BYTES // item_bytes) items each, the last taking what
    is left. BudgetError, naming the bytes, where one item is over
    _ITEM_CAP."""
    if item_bytes > _ITEM_CAP:
        raise BudgetError(
            f"one item of a blocked loop needs {item_bytes} bytes, over the "
            f"cap of {_ITEM_CAP}"
        )
    step = max(1, _BLOCK_BYTES // item_bytes)
    for lo in range(0, count, step):
        yield lo, min(lo + step, count)
