"""Index layout of Kronecker-structured arrays.

A vector over axis sizes (n_1, ..., n_d) sends the 1-based full index
(i_1, ..., i_d) to position

    sum_l (i_l - 1) * n_1 * ... * n_{l-1}  + 1,

so the earliest axis varies fastest; on numpy arrays that is Fortran
raveling. Fibers, slices and matricizations group axes by the same rule,
through `_group_positions`.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ShapeError

__all__ = ["KronDims"]


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
