"""Operator construction, dense vs factored paths, materialization."""

import hashlib
import itertools
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import kronjl
from kronjl import indexing, transforms
from kronjl.chaos import ChaosCoefficients, SetPartition
from kronjl.errors import BudgetError, ShapeError
from kronjl.fwht import fwht, fwht_axis, hadamard_matrix, last_block
from kronjl.indexing import KronDims
from kronjl.rip import check_submatrix_bound, rip_constant
from kronjl.sparsify import check_max_sum_inequalities, split
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

from theory_oracles import (
    check_expectation_bound,
    kron_combinations,
    kron_sign_patterns,
    moment_bound_profile,
    moment_to_tail,
    partition_norm,
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


def _kron_outer(factors):
    # the outer-product recursion the in-place builder replaced, kept as
    # its reference
    out = factors[0]
    for f in factors[1:]:
        out = f[..., :, None] * out[..., None, :]
        out = out.reshape(out.shape[:-2] + (-1,))
    return out


def test_kron_materialize_matches_the_outer_recursion_byte_for_byte():
    # the in-place builder puts entries 2..n_l times the product so far
    # behind it, then scales by entry 1: each entry is the same product of
    # the same two floats, so Gaussian factors match too
    rng = np.random.default_rng(11)
    tables = [rng.standard_normal((r, n)) for r, n in ((3, 4), (2, 1), (5, 8))]
    cases = [
        [rng.standard_normal(n) for n in (3, 2, 4)],
        [rng.standard_normal((5, n)) for n in (4, 8, 2)],
        # leading axes as kron_combinations lays them: table l on axis l
        [t.reshape((1,) * l + (-1,) + (1,) * (2 - l) + t.shape[1:])
         for l, t in enumerate(tables)],
        [rng.standard_normal((6, n)) for n in (1, 4, 1, 2)],  # axes of length 1
        [rng.standard_normal((4, 8))[:, None, :], rng.standard_normal((3, 1))],
        [rng.standard_normal((2, 16))],  # a single factor
    ]
    for factors in cases:
        want = _kron_outer(factors)
        assert kron_materialize(factors).tobytes() == want.tobytes()
        # into a view of a larger flat buffer, whose other entries stay
        buf = np.full(want.size + 7, 9.0)
        out = buf[3:3 + want.size].reshape(want.shape)
        assert kron_materialize(factors, out=out) is out
        assert out.tobytes() == want.tobytes()
        assert np.all(buf[:3] == 9.0) and np.all(buf[3 + want.size:] == 9.0)
    # one factor and no out: the factor itself, no copy
    assert kron_materialize(cases[-1]) is cases[-1][0]
    with pytest.raises(ShapeError, match="out must be float64 with last axis 24"):
        kron_materialize(cases[0], out=np.empty(23))
    with pytest.raises(ShapeError, match="out must be float64 with last axis 24"):
        kron_materialize(cases[0], out=np.empty(24, dtype=np.float32))


def test_kron_materialize_peaks_near_its_result():
    # a (256, 4096) product of three factors is its only allocation; the
    # outer recursion also held its (256, 2048) intermediate, 1.5x the result
    rng = np.random.default_rng(12)
    factors = [rng.standard_normal((256, n)) for n in (64, 32, 2)]
    tracemalloc.start()
    try:
        got = kron_materialize(factors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.nbytes == 8 * 2**20
    assert peak < 1.05 * got.nbytes
    assert got.tobytes() == _kron_outer(factors).tobytes()


def test_kron_materialize_needs_a_factor():
    with pytest.raises(ShapeError, match="at least one factor"):
        kron_materialize([])


def test_kron_combinations_needs_a_factor():
    with pytest.raises(ShapeError, match="at least one factor"):
        kron_combinations([])


def test_kron_sign_patterns_needs_an_axis():
    with pytest.raises(ShapeError, match="at least one factor"):
        kron_sign_patterns(())


def test_gathered_reads_the_bit_fields_of_a_row():
    # N = 16: rows 0 and 15 read 1 * 10 and 4 * 40
    factors = [np.array([1.0, 2.0, 3.0, 4.0]), np.array([10.0, 20.0, 30.0, 40.0])]
    rows0 = np.array([0, 15])
    assert transforms._gathered(factors, rows0).tolist() == [10.0, 160.0]


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


def _apply_dense_unsplit(op, x):
    # every axis transformed in full, then the sampled entries gathered
    arr = (x * op.signs.full_vector()).reshape(op.dims.dims[::-1])
    for axis in range(op.dims.order - 1, -1, -1):
        arr = fwht_axis(arr, axis)
    return op.scale * arr.reshape(-1)[op.samples.rows - 1]


@pytest.mark.parametrize("dims, split", [
    ((64,), False),  # d = 1
    ((64, 64), True),
    ((8, 32, 16), True),
    ((16, 16), False),  # 4 m n_1 > N
    ((2, 64), True),
    ((2, 4), False),
])
def test_apply_dense_splits_its_first_axis(monkeypatch, dims, split):
    # where 4 m n_1 <= N, axis 1 is transformed only at the m fibres
    # holding the sampled entries
    op = build_operator(dims, 9, seed=3)
    shapes = []

    def traced(a, axis):
        shapes.append(np.shape(a))
        return fwht_axis(a, axis)

    monkeypatch.setattr(transforms, "fwht_axis", traced)
    mat = materialize(op)
    rng = np.random.default_rng(len(dims))
    for _ in range(3):
        x = rng.standard_normal(op.dims.total)
        shapes.clear()
        got = apply_dense(op, x)
        assert len(shapes) == op.dims.order
        assert (shapes[-1] == (9, dims[0])) == split
        assert np.max(np.abs(got - mat @ x)) <= 1e-10
        assert np.max(np.abs(got - _apply_dense_unsplit(op, x))) <= 1e-12


def _apply_dense_signed_in_full(op, x):
    # apply_dense's per-axis transforms after one multiply by the length-N
    # sign vector
    n1, rows0 = op.dims.dims[0], op.samples.rows - 1
    split = op.dims.order > 1 and 4 * op.m * n1 <= op.dims.total
    arr = (x * op.signs.full_vector()).reshape(op.dims.dims[::-1])
    for axis in range(op.dims.order - 1 - split, -1, -1):
        arr = fwht_axis(arr, axis)
    if not split:
        return op.scale * arr.reshape(-1)[rows0]
    fibres = fwht_axis(arr.reshape(-1, n1)[rows0 // n1], 1)
    return op.scale * fibres[np.arange(op.m), rows0 % n1]


_SIGN_CASES = [
    ((64,), 9),  # d = 1
    ((64, 64), 9),  # split
    ((16, 16), 9),  # unsplit
    ((8, 32, 16), 9),  # split
    ((4, 4, 4), 9),  # unsplit
    ((4, 2), 20),  # m > N
    ((1, 4), 1),  # n_1 = 1, split
    ((1, 4, 2), 3),  # n_1 = 1, unsplit
]


def _sign_case_inputs(dims, m):
    """Three operators of each case and four inputs for each: random,
    entries in {-1, 0, 1}, repeated pairs and constant."""
    rng = np.random.default_rng(m + len(dims))
    for seed in range(3):
        op = build_operator(dims, m, seed=seed)
        n = op.dims.total
        for x in (rng.standard_normal(n), rng.integers(-1, 2, n) * 1.0,
                  np.repeat(rng.standard_normal(n // 2), 2), np.ones(n)):
            yield op, x


@pytest.mark.parametrize("dims, m", _SIGN_CASES)
def test_apply_dense_signs_match_the_full_sign_vector(dims, m):
    for op, x in _sign_case_inputs(dims, m):
        want = _apply_dense_signed_in_full(op, x)
        assert apply_dense(op, x).tobytes() == want.tobytes()


def test_apply_dense_bytes_match_the_recorded_digest():
    # sha256 of every output of the sign cases in order, recorded when
    # apply_dense placed each axis's signs on its own: a sign flip is
    # exact, so signing with the full vector first keeps those bytes
    digest = hashlib.sha256()
    for dims, m in _SIGN_CASES:
        for op, x in _sign_case_inputs(dims, m):
            digest.update(apply_dense(op, x).tobytes())
    assert digest.hexdigest() == (
        "9845001b696162d46fe8e1dd8960c40afd746eb72a8e068503b1d03bfa60564f")


def test_materialize_matches_brute_matrix():
    for dims in [(2, 2), (4, 2, 2)]:
        op = build_operator(dims, 7, seed=99)
        assert np.max(np.abs(materialize(op) - _brute_matrix(op))) <= 1e-12


def test_materialize_peaks_near_its_result():
    # the gathered rows are scaled in place: no full-size temporary
    op = build_operator((16,), 16384, seed=0)
    tracemalloc.start()
    try:
        mat = materialize(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mat.nbytes == 2 * 2**20
    assert peak < 1.25 * mat.nbytes


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


@pytest.mark.parametrize("dims", [(64, 64, 64), (2, 2), (4, 8, 2)])
def test_factored_one_transform_gives_the_per_axis_bytes(dims):
    # equal axes go through one (d, n) transform, mixed axes one each
    rng = np.random.default_rng(sum(dims))
    op = build_operator(dims, 40, seed=4)
    factors = [rng.standard_normal(n) for n in dims]
    per_axis = [fwht(f * s) for f, s in zip(factors, op.signs.factors)]
    want = op.scale * kron_materialize(per_axis)[op.samples.rows - 1]
    got = apply_factored(op, factors)
    assert np.array_equal(got, want)
    assert np.allclose(got, apply_dense(op, kron_materialize(factors)), atol=1e-12)


def test_apply_dense_mat_matches_rowwise():
    # the batch runs one length-N transform, apply_dense one per axis
    rng = np.random.default_rng(31)
    # N >= 128 * 9 splits off the last 32-wide block: (64, 64), (8, 32, 16)
    for dims in [(4,), (2, 8), (4, 2, 8), (16, 16), (2, 2, 2, 2), (4, 4, 2),
                 (64, 64), (8, 32, 16)]:
        op = build_operator(dims, 9, seed=5)
        xs = rng.standard_normal((6, op.dims.total))
        batch = apply_dense_mat(op, xs)
        for i in range(6):
            assert np.allclose(batch[i], apply_dense(op, xs[i]), atol=1e-12)


@pytest.mark.parametrize("k", range(14))
def test_hadamard_rows_match_full_transform(k):
    # N = 2^k: the 32-wide last block splits off where 128 * m <= N
    # (m = 1 from 2^7, m = 7 from 2^10), including splits N/32 x 32 unlike
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
        got = hadamard_rows(xs, rows0, [np.ones((1, n))])[0]
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_hadamard_rows_many_rows_allocate_as_the_full_transform():
    # m > N: a 32-wide row gathered per sampled entry would hold
    # 64 * 4096 * 32 floats (64 MiB); unsplit, the peak is that of the
    # full transform and the (count, m) result, a few times 2 MiB
    rng = np.random.default_rng(8)
    xs = rng.standard_normal((64, 4096))
    rows0 = rng.integers(0, 4096, size=4096)
    tracemalloc.start()
    try:
        got = hadamard_rows(xs, rows0, [np.ones((1, 4096))])[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.allclose(got, fwht_axis(xs, 1)[:, rows0], atol=1e-12)
    assert peak <= 4 * xs.nbytes


@pytest.mark.parametrize("n, m, count", [
    (1 << 12, 7, 9),  # split, r = 32
    (1 << 12, 1, 9),  # split at m = 1: a lone row's last block has one row
    (256, 8, 9),  # unsplit, two digits
    (32, 5, 9),  # unsplit, one digit: a lone row's one product has one row
    (16, 40, 9),  # m > N
])
def test_hadamard_rows_block_size_changes_no_byte(monkeypatch, n, m, count):
    rng = np.random.default_rng(n + m)
    xs = rng.standard_normal((count, n))
    shared = rng.integers(0, n, size=m)
    per_row = rng.integers(0, n, size=(count, m))
    dims = (n,) if n <= 64 else (64, n // 64)
    op = build_operator(dims, m, seed=m)
    # three points under three trials of factor signs, each trial its rows:
    # nine rows, so blocks of two and four rows straddle trials
    factors = [rng.choice([-1.0, 1.0], size=(3, k)) for k in dims]
    per_trial = rng.integers(0, n, size=(3, 1, m))
    row_bytes = 8 * max(n, m * last_block(n, m))
    unit = [np.ones((1, n))]

    def outputs(rows_per_block=None, two_threads=False):
        monkeypatch.setattr(transforms, "_TWO_THREADS", two_threads)
        if rows_per_block is not None:
            monkeypatch.setattr(indexing, "_BLOCK_BYTES", rows_per_block * row_bytes)
        got = [hadamard_rows(xs, shared, unit)[0], hadamard_rows(xs, per_row, unit)[0],
               apply_dense_mat(op, xs), hadamard_rows(xs[:3], per_trial, factors)]
        # the signs written block by block into a reused buffer, one
        # trial's vector or each row's own, give the bytes of the rows
        # signed up front
        signed = hadamard_rows(xs * op.signs.full_vector(), op.samples.rows - 1, unit)
        assert np.array_equal(got[2], op.scale * signed[0])
        signed = (kron_materialize(factors)[:, None, :] * xs[None, :3]).reshape(-1, n)
        signed = hadamard_rows(signed, np.repeat(per_trial[:, 0], 3, axis=0), unit)[0]
        assert np.array_equal(got[3], signed.reshape(3, 3, m))
        return got

    whole = outputs(count)
    # the default budget, then blocks of one, two and four rows, where the
    # buffers serve several blocks and a one-row case's last is the largest;
    # on two threads the blocks are the same, and the two take the 9, 5
    # and 3 spans in whatever order they come free
    for rows_per_block, two_threads in itertools.product((None, 1, 2, 4),
                                                         (False, True)):
        for got, want in zip(outputs(rows_per_block, two_threads), whole):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("n, m", [(1 << 12, 7), (256, 300)])  # split; m > N
def test_hadamard_rows_results_are_fresh(monkeypatch, n, m):
    # the blocks share the call's buffers, the calls share nothing
    monkeypatch.setattr(indexing, "_BLOCK_BYTES", 2 * 8 * max(n, m))
    rng = np.random.default_rng(n)
    xs = rng.standard_normal((5, n))
    rows0 = rng.integers(0, n, size=m)
    signs = rng.choice([-1.0, 1.0], size=(2, n))
    for factors in ([np.ones((1, n))], [signs[:1]], [signs]):
        first, second = (hadamard_rows(xs, rows0, factors) for _ in range(2))
        assert np.array_equal(first, second)
        assert not np.shares_memory(first, second)
        assert not any(np.shares_memory(y, a) for y in (first, second)
                       for a in (xs, rows0, signs))


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
    unit = [np.ones((1, 1 << 16))]
    assert _peak_bytes(lambda: hadamard_rows(xs, rows0, unit)) <= xs.nbytes / 4


def test_apply_dense_mat_peaks_near_its_batch():
    # the operator benchmark's batch: 32 rows of 2^18; the signed copy of
    # the batch and one block (3x the batch unblocked)
    op = build_operator((64, 64, 64), 128, seed=0)
    xs = np.random.default_rng(4).standard_normal((32, op.dims.total))
    assert _peak_bytes(lambda: apply_dense_mat(op, xs)) <= 1.25 * xs.nbytes


def test_apply_dense_mat_holds_no_signed_copy():
    # an 8 MiB batch: the signs are flipped a block at a time, so no
    # (count, N) signed copy (1x the batch) is ever allocated
    op = build_operator((128, 128), 128, seed=2)
    xs = np.random.default_rng(5).standard_normal((64, op.dims.total))
    assert _peak_bytes(lambda: apply_dense_mat(op, xs)) < xs.nbytes / 2


def test_each_thread_holds_two_buffers_of_a_full_block(monkeypatch):
    # each thread holds one pair of buffers of a one-thread block: for the
    # operator benchmark's batch (one 2 MiB row a block) about 10 MiB
    # beyond it, its sign vector and 4 MiB a thread; where a block holds
    # eight 128 KiB rows, 2 MiB of buffers a thread and the result
    monkeypatch.setattr(transforms, "_TWO_THREADS", True)
    op = build_operator((64, 64, 64), 128, seed=0)
    xs = np.random.default_rng(4).standard_normal((32, op.dims.total))
    assert _peak_bytes(lambda: apply_dense_mat(op, xs)) <= 12 * 2**20
    op = build_operator((128, 128), 128, seed=2)
    xs = np.random.default_rng(5).standard_normal((64, op.dims.total))
    assert _peak_bytes(lambda: apply_dense_mat(op, xs)) < 4.25 * 2**20


def test_two_threads_take_the_spans_of_one(monkeypatch):
    # the sweep benchmark's dense call, one 2^16 point under 16 trials:
    # both paths take eight spans of two rows through buffers of one block
    # each, whichever thread takes a span
    rng = np.random.default_rng(12)
    xs = rng.standard_normal((1, 1 << 16))
    factors = [rng.choice([-1.0, 1.0], size=(16, k)) for k in (64, 64, 16)]
    rows0 = rng.integers(0, 1 << 16, size=(16, 1, 32))
    spans_rows = transforms._spans_rows
    lock = threading.Lock()

    def taken_spans(two_threads):
        taken = []

        def recording(xs, rows0, signs, r, size, spans, out):
            def seen():
                for span in spans:
                    with lock:
                        taken.append((span, size))
                    yield span
            spans_rows(xs, rows0, signs, r, size, seen(), out)

        monkeypatch.setattr(transforms, "_TWO_THREADS", two_threads)
        monkeypatch.setattr(transforms, "_spans_rows", recording)
        got = hadamard_rows(xs, rows0, factors)
        return sorted(taken), got

    one, want = taken_spans(False)
    assert one == [((lo, lo + 2), 2 << 16) for lo in range(0, 16, 2)]
    two, got = taken_spans(True)
    assert two == one
    assert np.array_equal(got, want)


def test_a_helper_error_is_raised_in_the_caller(monkeypatch):
    # the helper's error comes back after the join, and no thread outlives
    # a call, failed or not
    monkeypatch.setattr(transforms, "_TWO_THREADS", True)
    monkeypatch.setattr(indexing, "_BLOCK_BYTES", 8 * 256)
    xs = np.random.default_rng(6).standard_normal((4, 256))
    block_rows = transforms._block_rows
    before = threading.active_count()
    unit = [np.ones((1, 256))]
    want = hadamard_rows(xs, [3, 9], unit)
    assert threading.active_count() == before
    # the caller holds its first block until the helper has taken one
    helper_ran = threading.Event()

    def failing(*args):
        if threading.current_thread() is not threading.main_thread():
            helper_ran.set()
            raise ZeroDivisionError("helper failed")
        assert helper_ran.wait(timeout=60)
        block_rows(*args)

    monkeypatch.setattr(transforms, "_block_rows", failing)
    with pytest.raises(ZeroDivisionError, match="helper failed"):
        hadamard_rows(xs, [3, 9], unit)
    assert threading.active_count() == before
    monkeypatch.setattr(transforms, "_block_rows", block_rows)
    assert np.array_equal(hadamard_rows(xs, [3, 9], unit), want)


def test_two_threads_refuse_only_what_one_thread_refuses(monkeypatch):
    # two threads take the blocks of one and check one row against the
    # same cap: a row of exactly the cap runs on either path, with the
    # same bytes
    monkeypatch.setattr(indexing, "_BLOCK_BYTES", 8 * 256)
    monkeypatch.setattr(indexing, "_ITEM_CAP", 8 * 256)
    xs = np.random.default_rng(9).standard_normal((4, 256))
    unit = [np.ones((1, 256))]
    want = hadamard_rows(xs, [3, 9], unit)
    monkeypatch.setattr(transforms, "_TWO_THREADS", True)
    assert np.array_equal(hadamard_rows(xs, [3, 9], unit), want)
    with pytest.raises(BudgetError, match="needs 4096 bytes"):
        hadamard_rows(np.ones((4, 512)), [3, 9], [np.ones((1, 512))])


def test_two_thread_calls_under_contention(monkeypatch):
    # three callers at once, six threads on fewer cores, switching often:
    # a block taken twice or never would change or leave out rows; each
    # of the 12 points under 4 trials of (16, 16) factor signs
    monkeypatch.setattr(indexing, "_BLOCK_BYTES", 8 * 256)
    xs = np.random.default_rng(8).standard_normal((12, 256))
    rows0 = [3, 9, 200]
    factors = [np.sign(xs[:4, :16]), np.sign(xs[4:8, 16:32])]
    want = hadamard_rows(xs, rows0, factors)
    monkeypatch.setattr(transforms, "_TWO_THREADS", True)
    got = [None] * 3

    def call(i):
        got[i] = [hadamard_rows(xs, rows0, factors) for _ in range(20)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call, args=(i,)) for i in range(3)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert all(np.array_equal(y, want) for ys in got for y in ys)


_THREADS_SCRIPT = """
import hashlib
import numpy as np
from kronjl import transforms
for dims, count in (((64, 64, 32), 3), ((128, 128), 24)):
    op = transforms.build_operator(dims, 128, seed=1)
    xs = np.random.default_rng(2).standard_normal((count, op.dims.total))
    print(hashlib.sha256(transforms.apply_dense_mat(op, xs).tobytes()).hexdigest())
rng = np.random.default_rng(3)
x = rng.standard_normal((1, 1 << 16))
factors = [rng.choice([-1.0, 1.0], size=(16, k)) for k in (64, 64, 16)]
for m in (32, 128):
    rows0 = rng.integers(0, 1 << 16, size=(16, 1, m))
    ys = transforms.hadamard_rows(x, rows0, factors)
    print(hashlib.sha256(ys.tobytes()).hexdigest())
print(transforms._TWO_THREADS)
"""


def test_thread_decision_and_bytes_in_a_fresh_process():
    # the BLAS variables are read at import: one BLAS thread gives two
    # threads of our own where two CPUs are allowed, two BLAS threads or
    # none set (one per CPU) keep the serial path, and the bytes of a batch
    # of several blocks (3 one-row blocks, 3 blocks of 8 rows) never change,
    # nor those of the sweep benchmark's dense call (a 2^16 point under 16
    # trials of factor signs, 8 blocks of two rows, at m = 32 and 128)
    src = str(Path(kronjl.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    base = {k: v for k, v in os.environ.items() if k not in (
        "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    two_cpus = len(os.sched_getaffinity(0)) >= 2
    outs = []
    for blas, two_threads in (({"OPENBLAS_NUM_THREADS": "1"}, two_cpus),
                              ({"OPENBLAS_NUM_THREADS": "2"}, False),
                              ({}, False)):
        done = subprocess.run(
            [sys.executable, "-c", _THREADS_SCRIPT],
            env=dict(base, PYTHONPATH=path, **blas),
            capture_output=True, timeout=120, check=True, text=True)
        *digests, decision = done.stdout.split()
        assert decision == str(two_threads), blas
        outs.append(digests)
    assert len(outs[0]) == 4
    assert outs[0] == outs[1] == outs[2]


def test_hadamard_rows_refuse_one_oversized_row():
    # N = 2^28: one row is 2 GiB, over the item cap; the broadcast views
    # of the row and its unit signs cost nothing, and the refusal comes
    # before any buffer
    xs = np.broadcast_to(0.0, (1, 1 << 28))
    unit = [np.broadcast_to(1.0, (1, 1 << 28))]
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="needs 2147483648 bytes"):
            hadamard_rows(xs, [0], unit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_materialize_refuses_a_tall_result():
    # (2^20 + 1) x 16 float64 is 128 bytes over the table cap, and
    # nothing is allocated
    op = build_operator((16,), 2**20 + 1, seed=0)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="needs 134217856 bytes"):
            materialize(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_hadamard_rows_validation():
    xs = np.ones((3, 128))
    unit = [np.ones((1, 128))]
    # factors: a leading trials axis each, the same for all, and the
    # lengths multiplying to N
    for factors in ([np.ones(128)], [np.ones((1, 64))], [],
                    [np.ones((2, 8)), np.ones((3, 16))], [np.ones((1, 1, 128))]):
        with pytest.raises(ShapeError, match=r"sign factors must be .* = 128"):
            hadamard_rows(xs, [0], factors)
    with pytest.raises(ShapeError, match="shape"):
        hadamard_rows(xs, np.zeros((2, 3, 4), dtype=int), [np.ones((3, 128))])
    for rows0 in ([0, 128], [-1], np.zeros((3, 2), dtype=int) - 1):
        with pytest.raises(ShapeError, match="0..127"):
            hadamard_rows(xs, rows0, unit)
    # rows (1, 3, 4) are one trial of three points: valid under unit signs
    for rows0 in (np.zeros((2, 4), dtype=int), np.zeros((2, 3, 4), dtype=int), 0):
        with pytest.raises(ShapeError, match="shape"):
            hadamard_rows(xs, rows0, unit)
    # integer rows only: bool rows read as 0 and 1, float rows fail to
    # index, and no rows at all (m = 0) fail to reshape
    for rows0 in (np.array([True, False]), [1.0, 2.0], [1.7], np.zeros(0, dtype=int),
                  np.zeros((3, 0), dtype=int), []):
        with pytest.raises(ShapeError, match="rows must be a non-empty integer"):
            hadamard_rows(xs, rows0, unit)
    got = hadamard_rows(xs, np.array([0, 127], dtype=np.uint64), unit)
    assert np.array_equal(got, hadamard_rows(xs, [0, 127], unit))


@pytest.mark.parametrize("call, match", [
    (lambda op, z: apply_dense(op, z), "complex128"),
    (lambda op, z: apply_dense_mat(op, z[None]), "complex128"),
    (lambda op, z: hadamard_rows(z[None], [0], [np.ones((1, 64))]), "complex128"),
    (lambda op, z: hadamard_rows(z.real[None], [0], [z[None]]), "complex128"),
    (lambda op, z: apply_factored(op, [z[:8], z.real[:8]]), "complex128"),
    (lambda op, z: fwht(z.astype(np.complex64)), "complex64"),
    (lambda op, z: fwht_axis(z.reshape(8, 8), 1), "complex128"),
    (lambda op, z: fwht_axis(z.real.reshape(8, 8), True), "axis must be an integer"),
    (lambda op, z: fwht_axis(z.real.reshape(8, 8), 1.0), "axis must be an integer"),
    (lambda op, z: kron_materialize([z[:8], z.real[:8]]), "complex128"),
    (lambda op, z: RademacherFactors((np.ones(8) + 0j,)), "complex128"),
    (lambda op, z: rip_constant(z.reshape(8, 8), 1), "complex128"),
    (lambda op, z: check_submatrix_bound(z.reshape(8, 8), 1, 0.5), "complex128"),
    (lambda op, z: split(z.reshape(8, 8), 1), "complex128"),
    (lambda op, z: check_max_sum_inequalities(
        z.reshape(8, 8), split(z.real.reshape(8, 8), 1)), "complex128"),
    (lambda op, z: partition_norm(z.reshape(8, 8), SetPartition(({1, 2},))),
     "complex128"),
    (lambda op, z: moment_bound_profile(z.reshape(8, 8), (2.0,)), "complex128"),
    (lambda op, z: ChaosCoefficients.from_gram((8,), z.reshape(8, 8)), "complex128"),
    (lambda op, z: ChaosCoefficients(KronDims((8,)), z.reshape(8, 8)), "complex128"),
    (lambda op, z: ChaosCoefficients.distortion((8,), z.reshape(8, 8), z.real[:8]),
     "complex128"),
    (lambda op, z: ChaosCoefficients.from_gram((8,), z.real.reshape(8, 8), z[:8]),
     "complex128"),
    (lambda op, z: check_expectation_bound(z.reshape(8, 8), z.real[:8]), "complex128"),
    (lambda op, z: check_expectation_bound(z.real.reshape(8, 8), z[:8]), "complex128"),
    (lambda op, z: moment_to_tail(z[:2], np.ones(2), 1.0, 1.0), "complex128"),
])
def test_entry_points_refuse_complex_input_and_non_integer_axes(call, match):
    # a cast to float64 would drop the imaginary part with only a warning;
    # an axis of True would index as 1, where numpy refuses bool and float
    # axes
    op = build_operator((8, 8), 4, seed=0)
    z = np.random.default_rng(7).standard_normal(64) + 1j
    with pytest.raises(ShapeError, match=match):
        call(op, z)


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


def test_build_operator_refuses_a_target_dimension_that_is_not_an_integer():
    # unchecked, each fails inside numpy with a bare TypeError
    for m in (2.5, True):
        with pytest.raises(ShapeError, match="^target dimension m must be an integer"):
            build_operator((4, 4), m, 0)


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
