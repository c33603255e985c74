"""Operator construction, dense vs factored paths, materialization."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from kronjl import transforms
from kronjl.errors import ShapeError
from kronjl.fwht import fwht_axis, hadamard_matrix, last_block
from kronjl.indexing import KronDims
from kronjl.transforms import (
    KfjltOperator,
    RademacherFactors,
    SampleSet,
    apply_dense,
    apply_dense_mat,
    apply_factored,
    build_operator,
    hadamard_rows,
    kron_materialize,
    materialize,
)


def _brute_matrix(op):
    # independent oracle: entry-by-entry construction at the F-order
    # positions of the 0-based coordinates,
    # H_full[L(i), L(j)] = prod_l H_l[i_l, j_l]
    dims = op.dims
    n = dims.total
    hs = [hadamard_matrix(nl) for nl in dims]
    h_full = np.zeros((n, n))
    ranges = [range(nl) for nl in dims]

    def position(coords):
        return np.ravel_multi_index(coords, dims.dims, order="F")

    for i_coords in itertools.product(*ranges):
        li = position(i_coords)
        for j_coords in itertools.product(*ranges):
            lj = position(j_coords)
            h_full[li, lj] = math.prod(
                h[ic, jc] for h, ic, jc in zip(hs, i_coords, j_coords)
            )
    signs = np.zeros(n)
    for j_coords in itertools.product(*ranges):
        signs[position(j_coords)] = math.prod(
            f[c] for f, c in zip(op.signs.factors, j_coords)
        )
    return op.scale * h_full[op.samples.rows - 1] * signs[None, :]


def test_kron_materialize_frozen_example():
    out = kron_materialize([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    assert np.array_equal(out, [0.0, 0.0, 1.0, 0.0])


def test_kron_materialize_matches_vectorized_outer():
    rng = np.random.default_rng(5)
    xs = [rng.standard_normal(n) for n in (3, 2, 4)]
    grid = np.multiply.outer(np.multiply.outer(xs[0], xs[1]), xs[2])
    assert np.allclose(kron_materialize(xs), grid.reshape(-1, order="F"))
    # a batch of factors gives one product per row; leading axes
    # broadcast, so an unbatched or length-1 factor is shared by every row
    batch = [rng.standard_normal((5, n)) for n in (3, 2, 4)]
    got = kron_materialize(batch)
    assert got.shape == (5, 24)
    shared = kron_materialize([xs[0], batch[1], batch[2][:1]])
    assert shared.shape == (5, 24)
    for b in range(5):
        row = kron_materialize([f[b] for f in batch])
        assert np.array_equal(got[b], row)
        row = kron_materialize([xs[0], batch[1][b], batch[2][0]])
        assert np.array_equal(shared[b], row)


def test_build_operator_determinism():
    a = build_operator((4, 8), 6, seed=123)
    b = build_operator((4, 8), 6, seed=123)
    assert np.array_equal(a.samples.rows, b.samples.rows)
    for fa, fb in zip(a.signs.factors, b.signs.factors):
        assert np.array_equal(fa, fb)


def test_operator_owns_read_only_arrays():
    op = build_operator((8,), 4, seed=1)
    with pytest.raises(ValueError):
        op.signs.full_vector()[0] = 0.0  # one axis: the factor itself
    with pytest.raises(ValueError):
        op.samples.rows[0] = 1
    signs = np.array([1.0, -1.0, 1.0, 1.0])
    rows = np.array([1, 3])
    op = KfjltOperator(
        dims=KronDims((4,)),
        signs=RademacherFactors((signs,)),
        samples=SampleSet(rows, total=4),
    )
    before = apply_dense(op, np.arange(4.0))
    signs[0] = -1.0
    rows[0] = 2
    assert op.signs.factors[0][0] == 1.0 and op.samples.rows[0] == 1
    assert np.array_equal(apply_dense(op, np.arange(4.0)), before)


def test_seeds_give_distinct_samples():
    seen = set()
    for seed in range(100):
        op = build_operator((16, 16), 12, seed=seed)
        seen.add(tuple(op.samples.rows))
    assert len(seen) == 100


def test_build_operator_validation():
    with pytest.raises(ShapeError):
        build_operator((3, 4), 2, seed=0)  # non power of two
    with pytest.raises(ShapeError):
        build_operator((4, 4), 0, seed=0)


def test_m_larger_than_n_allowed():
    op = build_operator((2, 2), 9, seed=1)
    assert op.m == 9
    assert op.scale == math.sqrt(4 / 9)


def test_sample_rows_in_range_and_with_replacement():
    op = build_operator((2,), 64, seed=7)
    assert op.samples.rows.min() >= 1 and op.samples.rows.max() <= 2
    # 64 draws from {1,2} must repeat
    assert len(set(op.samples.rows)) < 64


def test_apply_dense_matches_brute_matrix():
    rng = np.random.default_rng(17)
    for dims in [(2, 2), (4, 2), (2, 4, 2), (8,)]:
        op = build_operator(dims, 5, seed=rng.integers(10**6))
        mat = _brute_matrix(op)
        for _ in range(3):
            x = rng.standard_normal(op.dims.total)
            assert np.max(np.abs(apply_dense(op, x) - mat @ x)) <= 1e-10


def test_materialize_matches_brute_matrix():
    for dims in [(2, 2), (4, 2, 2)]:
        op = build_operator(dims, 7, seed=99)
        assert np.max(np.abs(materialize(op) - _brute_matrix(op))) <= 1e-12


def test_factored_equals_dense_on_rank_one():
    rng = np.random.default_rng(23)
    for _ in range(50):
        d = rng.integers(1, 4)
        dims = tuple(int(2 ** rng.integers(1, 5)) for _ in range(d))
        m = int(rng.integers(1, 2 * math.prod(dims)))
        op = build_operator(dims, m, seed=int(rng.integers(10**9)))
        factors = [rng.standard_normal(n) for n in dims]
        dense = apply_dense(op, kron_materialize(factors))
        fact = apply_factored(op, factors)
        scale = max(1.0, np.max(np.abs(dense)))
        assert np.max(np.abs(dense - fact)) <= 1e-10 * scale


def test_apply_dense_mat_matches_rowwise():
    # the batch runs one length-N transform, apply_dense one per axis
    rng = np.random.default_rng(31)
    # N >= 256 * 9 splits off the last 64-wide block: (64, 64), (8, 32, 16)
    for dims in [(4,), (2, 8), (4, 2, 8), (16, 16), (2, 2, 2, 2), (4, 4, 2),
                 (64, 64), (8, 32, 16)]:
        op = build_operator(dims, 9, seed=5)
        xs = rng.standard_normal((6, op.dims.total))
        batch = apply_dense_mat(op, xs)
        for i in range(6):
            assert np.allclose(batch[i], apply_dense(op, xs[i]), atol=1e-12)


@pytest.mark.parametrize("k", range(14))
def test_hadamard_rows_match_full_transform(k):
    # N = 2^k: the 64-wide last block splits off where 256 * m <= N
    # (m = 1 from 2^8, m = 7 from 2^11), including splits N/64 x 64 unlike
    # the kernel's digits (2^13: 32 x 16 x 16); not at m > N
    n = 1 << k
    rng = np.random.default_rng(k)
    xs = rng.standard_normal((5, n))
    full = fwht_axis(xs, 1)
    shared = rng.integers(0, n, size=7)
    per_row = rng.integers(0, n, size=(5, 2 * n + 3))  # m > N, duplicates
    per_row[:, 1] = per_row[:, 0]
    for rows0 in (shared, per_row, np.array([n - 1] * 3), np.array([n - 1])):
        want = np.take_along_axis(full, np.broadcast_to(rows0, (5, rows0.shape[-1])), 1)
        got = hadamard_rows(xs, rows0)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_hadamard_rows_many_rows_allocate_as_the_full_transform():
    # m > N: a 64-wide row gathered per sampled entry would hold
    # 64 * 4096 * 64 floats (128 MiB); unsplit, the peak is that of the
    # full transform and the (count, m) result, a few times 2 MiB
    rng = np.random.default_rng(8)
    xs = rng.standard_normal((64, 4096))
    rows0 = rng.integers(0, 4096, size=4096)
    tracemalloc.start()
    try:
        got = hadamard_rows(xs, rows0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.allclose(got, fwht_axis(xs, 1)[:, rows0], atol=1e-12)
    assert peak <= 4 * xs.nbytes


@pytest.mark.parametrize("n, m, count", [
    (1 << 12, 7, 9),  # split, r = 64
    (1 << 12, 1, 9),  # split at m = 1: a one-row block would run gemv
    (256, 8, 9),  # unsplit, two digits
    (64, 5, 9),  # unsplit, one digit: a one-row block would run gemv
    (16, 40, 9),  # m > N
])
def test_hadamard_rows_block_size_changes_no_byte(monkeypatch, n, m, count):
    rng = np.random.default_rng(n + m)
    xs = rng.standard_normal((count, n))
    shared = rng.integers(0, n, size=m)
    per_row = rng.integers(0, n, size=(count, m))
    dims = (n,) if n <= 64 else (64, n // 64)
    op = build_operator(dims, m, seed=m)
    row_bytes = 8 * max(n, m * last_block(n, m))

    def outputs(rows_per_block):
        monkeypatch.setattr(transforms, "_ROW_BLOCK_BYTES", rows_per_block * row_bytes)
        return [hadamard_rows(xs, shared), hadamard_rows(xs, per_row),
                apply_dense_mat(op, xs)]

    whole = outputs(count)
    for rows_per_block in (1, 2, 4):
        for got, want in zip(outputs(rows_per_block), whole):
            assert np.array_equal(got, want)


def _peak_bytes(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_hadamard_rows_memory_does_not_grow_with_the_batch():
    # each block's temporaries are freed before the next: the peak is
    # about one block, not a batch-sized transform (2x the input unblocked)
    rng = np.random.default_rng(3)
    xs = rng.standard_normal((64, 1 << 16))
    rows0 = rng.integers(0, 1 << 16, size=128)
    assert _peak_bytes(lambda: hadamard_rows(xs, rows0)) <= xs.nbytes / 4


def test_apply_dense_mat_peaks_near_its_batch():
    # the operator benchmark's batch: 32 rows of 2^18; the signed copy of
    # the batch and one block (3x the batch unblocked)
    op = build_operator((64, 64, 64), 128, seed=0)
    xs = np.random.default_rng(4).standard_normal((32, op.dims.total))
    assert _peak_bytes(lambda: apply_dense_mat(op, xs)) <= 1.25 * xs.nbytes


def test_hadamard_rows_validation():
    xs = np.ones((3, 128))
    for rows0 in ([0, 128], [-1], np.zeros((3, 2), dtype=int) - 1):
        with pytest.raises(ShapeError, match="0..127"):
            hadamard_rows(xs, rows0)
    for rows0 in (np.zeros((2, 4), dtype=int), np.zeros((1, 3, 4), dtype=int), 0):
        with pytest.raises(ShapeError, match="shape"):
            hadamard_rows(xs, rows0)
    # integer rows only: bool rows read as 0 and 1, float rows fail to
    # index, and no rows at all (m = 0) fail to reshape
    for rows0 in (np.array([True, False]), [1.0, 2.0], [1.7], np.zeros(0, dtype=int),
                  np.zeros((3, 0), dtype=int), []):
        with pytest.raises(ShapeError, match="rows must be a non-empty integer"):
            hadamard_rows(xs, rows0)
    got = hadamard_rows(xs, np.array([0, 127], dtype=np.uint64))
    assert np.array_equal(got, hadamard_rows(xs, [0, 127]))


def test_duplicate_rows_counted_twice():
    dims = KronDims((4,))
    signs = RademacherFactors((np.ones(4),))
    samples = SampleSet(np.array([2, 2]), total=4)
    op = KfjltOperator(dims=dims, signs=signs, samples=samples)
    x = np.array([1.0, 2.0, 3.0, 4.0])
    y = apply_dense(op, x)
    assert y[0] == y[1]
    h = hadamard_matrix(4)
    assert np.isclose(y[0], math.sqrt(4 / 2) * (h @ x)[1])


def test_operator_validation():
    dims = KronDims((4,))
    with pytest.raises(ShapeError):
        RademacherFactors((np.array([1.0, 0.5]),))
    with pytest.raises(ShapeError):
        SampleSet(np.array([0]), total=4)
    with pytest.raises(ShapeError):
        SampleSet(np.array([5]), total=4)
    # float rows used to truncate ([1.7, 2.2] -> [1, 2]) and bools to pass
    for rows in ([1.7, 2.2], [1.0], np.array([True, True]), []):
        with pytest.raises(ShapeError, match="rows must be a non-empty integer"):
            SampleSet(rows, total=4)
    with pytest.raises(ShapeError, match="rows must be a 1-D"):
        SampleSet(np.ones((2, 2), dtype=int), total=4)
    with pytest.raises(ShapeError):
        KfjltOperator(
            dims=dims,
            signs=RademacherFactors((np.ones(2),)),
            samples=SampleSet(np.array([1]), total=4),
        )
    with pytest.raises(ShapeError):
        apply_dense(build_operator((4,), 2, seed=0), np.ones(5))
    with pytest.raises(ShapeError):
        apply_factored(build_operator((4, 2), 2, seed=0), [np.ones(4)])


def test_unit_norm_preserved_in_expectation():
    # sanity: with the full sample (m = N, every row once) the operator is
    # orthonormal times sqrt(N/m) = 1, so norms are preserved exactly
    dims = KronDims((4, 2))
    signs = RademacherFactors(tuple(np.ones(n) for n in dims))
    samples = SampleSet(np.arange(1, 9), total=8)
    op = KfjltOperator(dims=dims, signs=signs, samples=samples)
    rng = np.random.default_rng(2)
    x = rng.standard_normal(8)
    assert np.isclose(np.linalg.norm(apply_dense(op, x)), np.linalg.norm(x))
