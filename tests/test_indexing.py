"""Index algebra: linearization bijections, combine/restrict, vectorize."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronjl.errors import AxisConflictError, IndexRangeError, ShapeError
from kronjl.indexing import (
    EMPTY,
    KronDims,
    PartialIndex,
    combine,
    delinearize,
    linearize,
    _group_positions,
    restrict,
    vec_f,
    vectorize,
)


def _enumeration_position(dims, idx):
    # independent oracle: walk the restricted index set with the earliest
    # axis varying fastest and report the 1-based position of idx
    axes = idx.axes
    sizes = [dims.dims[a - 1] for a in axes]
    for pos, combo in enumerate(
        itertools.product(*[range(1, s + 1) for s in reversed(sizes)]), start=1
    ):
        coords = dict(zip(reversed(axes), combo))
        if PartialIndex.of(coords) == idx:
            return pos
    raise AssertionError("index not found in enumeration")


def test_linearize_frozen_example():
    dims = KronDims((2, 3))
    idx = PartialIndex.full((2, 3))
    # (2-1)*1 + (3-1)*2 + 1 = 6
    assert linearize(dims, idx) == 6


def test_linearize_all_ones_is_first():
    for dims in [(2,), (2, 3), (4, 2, 3)]:
        kd = KronDims(dims)
        assert linearize(kd, PartialIndex.full((1,) * len(dims))) == 1


def test_linearize_2x2_enumeration():
    dims = KronDims((2, 2))
    expected = {(1, 1): 1, (2, 1): 2, (1, 2): 3, (2, 2): 4}
    got = {c: linearize(dims, PartialIndex.full(c)) for c in expected}
    assert got == expected


def test_linearize_matches_enumeration_oracle():
    dims = KronDims((3, 2, 4))
    for axes in [(1,), (2,), (1, 3), (2, 3), (1, 2, 3)]:
        sizes = [dims.dims[a - 1] for a in axes]
        for coords in itertools.product(*[range(1, s + 1) for s in sizes]):
            idx = PartialIndex.of(dict(zip(axes, coords)))
            assert linearize(dims, idx) == _enumeration_position(dims, idx)


def test_linearize_empty_index():
    assert linearize(KronDims((4, 4)), EMPTY) == 1


def test_round_trip_exhaustive():
    dims = KronDims((2, 3, 2))
    for axes in [(1,), (3,), (1, 2), (1, 3), (1, 2, 3)]:
        total = dims.size_of(axes)
        seen = set()
        for flat in range(1, total + 1):
            idx = delinearize(dims, axes, flat)
            assert linearize(dims, idx) == flat
            seen.add(idx)
        assert len(seen) == total  # bijection onto 1..total


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_round_trip_property(data):
    d = data.draw(st.integers(1, 4))
    dims = KronDims(tuple(data.draw(st.integers(1, 5)) for _ in range(d)))
    axes = tuple(
        sorted(data.draw(st.sets(st.integers(1, d), min_size=1, max_size=d)))
    )
    coords = tuple(
        data.draw(st.integers(1, dims.dims[a - 1])) for a in axes
    )
    idx = PartialIndex.of(dict(zip(axes, coords)))
    assert delinearize(dims, axes, linearize(dims, idx)) == idx


def test_out_of_range_errors():
    dims = KronDims((2, 3))
    with pytest.raises(IndexRangeError):
        linearize(dims, PartialIndex.full((3, 1)))
    with pytest.raises(IndexRangeError):
        delinearize(dims, (1, 2), 7)
    with pytest.raises(IndexRangeError):
        delinearize(dims, (1,), 0)
    with pytest.raises(AxisConflictError):
        linearize(dims, PartialIndex.of({5: 1}))


def test_combine_cross():
    a = PartialIndex.of({1: 2})
    b = PartialIndex.of({3: 1})
    assert combine(a, b).items == ((1, 2), (3, 1))
    with pytest.raises(AxisConflictError):
        combine(a, PartialIndex.of({1: 1}))


def test_combine_shift_plus():
    # order d=2: second operand on axis 2 lands on axis 4
    a = PartialIndex.of({1: 2})
    b = PartialIndex.of({2: 1})
    out = combine(a, b, mode="shift_plus", d=2)
    assert out.items == ((1, 2), (4, 1))
    with pytest.raises(AxisConflictError):
        combine(a, PartialIndex.of({3: 1}), mode="shift_plus", d=2)
    with pytest.raises(AxisConflictError):
        combine(a, b, mode="shift_plus")


def test_restrict():
    idx = PartialIndex.of({1: 2, 2: 1, 3: 3})
    assert restrict(idx, (1, 3)).items == ((1, 2), (3, 3))
    assert restrict(idx, ()) == EMPTY
    with pytest.raises(AxisConflictError):
        restrict(PartialIndex.of({1: 1}), (2,))


def test_restrict_then_combine_recovers():
    idx = PartialIndex.of({1: 2, 2: 3, 3: 1})
    left = restrict(idx, (1, 3))
    right = restrict(idx, (2,))
    assert combine(left, right) == idx


def test_vectorize_identity_d1():
    dims = KronDims((5,))
    x = np.arange(5.0)
    assert np.array_equal(vectorize(dims, x), x)


def test_vectorize_places_entries_by_linearize():
    dims = KronDims((2, 2))
    a = np.zeros((2, 2))
    a[0, 0] = 5.0  # full index (1,1) -> position 1
    assert np.array_equal(vectorize(dims, a), [5.0, 0.0, 0.0, 0.0])

    rng = np.random.default_rng(0)
    b = rng.standard_normal((3, 2, 4))
    v = vectorize(KronDims((3, 2, 4)), b)
    for coords in itertools.product(range(1, 4), range(1, 3), range(1, 5)):
        pos = linearize(KronDims((3, 2, 4)), PartialIndex.full(coords))
        assert v[pos - 1] == b[coords[0] - 1, coords[1] - 1, coords[2] - 1]


def test_vectorize_shape_error():
    with pytest.raises(ShapeError):
        vectorize(KronDims((2, 2)), np.zeros((2, 3)))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_vectorize_preserves_norm(data):
    d = data.draw(st.integers(1, 3))
    shape = tuple(data.draw(st.integers(1, 4)) for _ in range(d))
    a = np.array(
        data.draw(
            st.lists(
                st.floats(-10, 10, allow_nan=False),
                min_size=math.prod(shape),
                max_size=math.prod(shape),
            )
        )
    ).reshape(shape)
    assert np.isclose(
        np.linalg.norm(vectorize(KronDims(shape), a)), np.linalg.norm(a)
    )


def test_krondims_validation():
    with pytest.raises(ShapeError):
        KronDims(())
    with pytest.raises(ShapeError):
        KronDims((2, 0))
    assert KronDims.parse("4x8x2").dims == (4, 8, 2)
    assert KronDims.parse("4,8,2").dims == (4, 8, 2)
    assert KronDims((4, 8, 2)).total == 64
    # any iterable of ints, another KronDims included, gives the same dims
    assert KronDims(KronDims((4, 8, 2))) == KronDims((4, 8, 2))
    assert KronDims([4, 8, 2]).dims == (4, 8, 2)


def test_partial_index_validation():
    with pytest.raises(AxisConflictError):
        PartialIndex(((1, 1), (1, 2)))
    with pytest.raises(IndexRangeError):
        PartialIndex(((1, 0),))
    # structural equality regardless of construction order
    assert PartialIndex.of({2: 1, 1: 3}) == PartialIndex(((1, 3), (2, 1)))


def test_vec_f_is_first_axis_fastest():
    a = np.arange(6).reshape(2, 3)
    assert list(vec_f(a)) == [0, 3, 1, 4, 2, 5]


def test_group_positions_linearize_each_group():
    # entry (j_1, ..., j_k) is the C-order position of the element whose
    # coordinates on group g linearize to j_g, as `linearize` orders them
    shape = (2, 3, 1, 2)
    dims = KronDims(shape)
    for groups in [((0, 1, 2, 3),), ((1, 3), (0, 2)), ((), (2,), (0, 1, 3))]:
        pos = _group_positions(shape, groups)
        assert pos.shape == tuple(math.prod(shape[a] for a in g) for g in groups)
        assert not pos.flags.writeable
        for coords in itertools.product(*[range(n) for n in shape]):
            idx = [PartialIndex.of({a + 1: coords[a] + 1 for a in g}) for g in groups]
            at = tuple(linearize(dims, i) - 1 for i in idx)
            assert pos[at] == np.ravel_multi_index(coords, shape)
