"""Index layout: axis sizes and the grouped F-order positions that fibers,
slices and matricizations are read through."""

import itertools
import math

import numpy as np
import pytest

from kronjl.errors import ShapeError
from kronjl.indexing import KronDims, _group_positions


def _full(shape):
    return _group_positions(shape, (tuple(range(len(shape))),))


def test_linearize_frozen_example():
    # full index (2, 3) of a 2x3 array: (2-1)*1 + (3-1)*2 + 1 = 6, and
    # (2, 1): (2-1)*1 + 1 = 2
    assert _full((2, 3))[6 - 1] == np.ravel_multi_index((1, 2), (2, 3))
    assert _full((2, 3))[2 - 1] == np.ravel_multi_index((1, 0), (2, 3))


def test_linearize_all_ones_is_first():
    for shape in [(2,), (2, 3), (4, 2, 3)]:
        assert _full(shape)[0] == 0


def test_linearize_2x2_enumeration():
    # positions 1..4 hold (1,1), (2,1), (1,2), (2,2): C-order 0, 2, 1, 3
    assert _full((2, 2)).tolist() == [0, 2, 1, 3]


def test_linearize_matches_enumeration_oracle():
    # independent oracle: walk each group's coordinates with its earliest
    # axis fastest, counting positions
    shape = (3, 2, 4)
    axes = range(len(shape))
    for r in range(len(shape) + 1):
        for group in itertools.combinations(axes, r):
            rest = tuple(a for a in axes if a not in group)
            pos = _group_positions(shape, (group, rest))
            for j, inner in enumerate(
                itertools.product(*[range(shape[a]) for a in reversed(group)])
            ):
                for k, outer in enumerate(
                    itertools.product(*[range(shape[a]) for a in reversed(rest)])
                ):
                    coords = [0] * len(shape)
                    for a, c in zip(group[::-1] + rest[::-1], inner + outer):
                        coords[a] = c
                    assert pos[j, k] == np.ravel_multi_index(coords, shape)


def test_linearize_empty_index():
    # an empty group is a super-axis of size one
    pos = _group_positions((4, 4), ((), (0, 1)))
    assert pos.shape == (1, 16)
    assert np.array_equal(pos[0], _full((4, 4)))


def test_round_trip_exhaustive():
    # every grouping lays each element out exactly once
    shape = (2, 3, 2)
    for groups in [((0,), (1, 2)), ((2,), (0, 1)), ((0, 2), (1,)),
                   ((1, 0), (2,)), ((0, 1, 2),)]:
        pos = _group_positions(shape, groups)
        assert sorted(pos.reshape(-1)) == list(range(math.prod(shape)))


def test_krondims_validation():
    with pytest.raises(ShapeError):
        KronDims(())
    with pytest.raises(ShapeError):
        KronDims((2, 0))
    assert KronDims((4, 8, 2)).total == 64
    # any iterable of ints, another KronDims included, gives the same dims
    assert KronDims(KronDims((4, 8, 2))) == KronDims((4, 8, 2))
    assert KronDims([4, 8, 2]).dims == (4, 8, 2)


def test_group_positions_linearize_each_group():
    # entry (j_1, ..., j_k) is the C-order position of the element whose
    # coordinates on group g ravel in F order to j_g
    shape = (2, 3, 1, 2)
    for groups in [((0, 1, 2, 3),), ((1, 3), (0, 2)), ((), (2,), (0, 1, 3))]:
        pos = _group_positions(shape, groups)
        assert pos.shape == tuple(math.prod(shape[a] for a in g) for g in groups)
        assert not pos.flags.writeable
        for coords in itertools.product(*[range(n) for n in shape]):
            at = tuple(
                np.ravel_multi_index(
                    [coords[a] for a in g], [shape[a] for a in g], order="F"
                ) if g else 0
                for g in groups
            )
            assert pos[at] == np.ravel_multi_index(coords, shape)
