"""Index layout of Kronecker-structured arrays.

A vector over axis sizes (n_1, ..., n_d) sends the 1-based full index
(i_1, ..., i_d) to position

    sum_l (i_l - 1) * n_1 * ... * n_{l-1}  + 1,

so the earliest axis varies fastest; on numpy arrays that is Fortran
raveling. Fibers, slices and matricizations group axes by the same rule,
through `_group_positions`. It builds its positions on every call and keeps
none: a table is as large as the array, and a cache of them would pin
tables for shapes and groupings no caller asks for again.

Every blocked loop of the package walks its items through `_blocks`, in
spans of about `_BLOCK_BYTES` of working data each; that one budget is the
only block size there is. `_check_bytes` refuses every array over its byte
cap before it is allocated: `_TABLE_CAP` for a whole table, `_ITEM_CAP` for
one item (a span holds one item at least), one dense point set or one
Monte Carlo cell's up-front draw.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ShapeError

__all__ = ["KronDims"]

# half a 2 MiB per-core L2; where transforms.hadamard_rows runs a call on
# two threads they share it, a block of two or more rows split in halves
_BLOCK_BYTES = 1 << 20
# the largest single item; a dense cell holds about five items at once
_ITEM_CAP = 1 << 30
_TABLE_CAP = 1 << 27  # a whole table: 2^24 float64, an N x N at N = 2^12


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


def _group_positions(shape, groups):
    """Read-only C-order flat positions of an array of `shape` whose
    0-based axes are regrouped by `groups` (covering each axis once): each
    group is one super-axis, linearized with its first listed axis fastest."""
    sizes = tuple(math.prod(shape[a] for a in g) for g in groups)
    order = [a for g in groups for a in reversed(g)]
    flat = np.arange(math.prod(shape)).reshape(shape).transpose(order)
    pos = np.ascontiguousarray(flat.reshape(sizes))
    pos.setflags(write=False)
    return pos


def _check_bytes(what, nbytes, cap):
    """BudgetError where `what` needs more than `cap` bytes. A pair (c, k)
    is c x 2^k bytes, compared by exponent first so no huge 2^k is formed."""
    c, k = nbytes if isinstance(nbytes, tuple) else (nbytes, 0)
    if k >= cap.bit_length() or c << k > cap:
        shown = f"{c} x 2^{k}" if k else c
        raise BudgetError(f"{what} needs {shown} bytes, over the cap of {cap}")


def _blocks(count, item_bytes):
    """(lo, hi) spans of range(count), in order, of
    max(1, _BLOCK_BYTES // item_bytes) items each, the last taking what
    is left. BudgetError, naming the bytes, where one item is over
    _ITEM_CAP."""
    _check_bytes("one item of a blocked loop", item_bytes, _ITEM_CAP)
    step = max(1, _BLOCK_BYTES // item_bytes)
    for lo in range(0, count, step):
        yield lo, min(lo + step, count)
