"""Chaos module tests: partition norms against independent linear-algebra
routes, exact sign enumeration as the moment oracle, and the comparison
inequalities (decoupling, merge monotonicity, expectation control)."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from kronjl import chaos
from kronjl.chaos import (
    ChaosCoefficients,
    PARTITION_GROUND_LIMIT,
    SetPartition,
    check_expectation_bound,
    check_partition_counting,
    enumerate_partitions,
    estimate_chaos_moments,
    exact_chaos_moments,
    moment_bound_profile,
    moment_to_tail,
    partition_norm,
    _counting_sides,
    _label_table,
)
from kronjl.errors import BudgetError, ShapeError
from kronjl.indexing import KronDims
from kronjl.rand import TAG_EXPERIMENT, substream
from kronjl.transforms import build_operator, materialize


def P(*blocks):
    return SetPartition(tuple(frozenset(b) for b in blocks))


# ---------------------------------------------------------------- partitions


def test_partition_canonical_order():
    p = P({2, 3}, {1})
    assert p.blocks == (frozenset({1}), frozenset({2, 3}))
    assert p.kappa == 2
    assert p.ground == frozenset({1, 2, 3})


def test_partition_rejects_overlap_and_empty():
    with pytest.raises(ShapeError):
        P({1, 2}, {2, 3})
    with pytest.raises(ShapeError):
        P({1}, set())


def test_enumerate_counts_match_bell_and_stirling():
    # Bell numbers 1, 1, 2, 5, 15 and Stirling S(4, 2) = 7.
    assert len(list(enumerate_partitions([]))) == 1
    assert len(list(enumerate_partitions([1]))) == 1
    assert len(list(enumerate_partitions([1, 2]))) == 2
    assert len(list(enumerate_partitions([1, 2, 3]))) == 5
    assert len(list(enumerate_partitions([1, 2, 3, 4]))) == 15
    assert sum(p.kappa == 2 for p in enumerate_partitions([1, 2, 3, 4])) == 7


def test_enumerate_partitions_distinct_and_cover():
    seen = set(p.blocks for p in enumerate_partitions(range(1, 5)))
    assert len(seen) == 15
    for blocks in seen:
        union = set()
        for b in blocks:
            union |= b
        assert union == {1, 2, 3, 4}


def test_enumerate_partitions_budget():
    with pytest.raises(BudgetError):
        list(enumerate_partitions(range(13)))


def test_enumerate_partitions_streams_at_the_limit():
    # B(12) = 4,213,597 partitions, a 386 MiB int64 label table: the
    # first ones arrive without the rest being built
    tracemalloc.start()
    try:
        parts = enumerate_partitions(range(PARTITION_GROUND_LIMIT))
        first = list(itertools.islice(parts, 1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first[0].kappa == 1 and len(set(first)) == 1000
    assert peak < 16 * 2**20


def _recursive_partitions(items):
    """The recursive generator that defined the enumeration order: each
    element, last first, joins every block of each partition of the
    later elements and then opens a new front block."""

    def rec(seq):
        if not seq:
            yield []
            return
        first, rest = seq[0], seq[1:]
        for part in rec(rest):
            for i in range(len(part)):
                yield part[:i] + [part[i] | {first}] + part[i + 1 :]
            yield [{first}] + part

    return [SetPartition(tuple(blocks)) for blocks in rec(list(items))]


def test_label_table_keeps_recursive_order():
    for g in range(9):
        table = _label_table(g)
        assert table.dtype == np.int64
        assert table.shape[1] == g
        got = [
            SetPartition(tuple(
                frozenset(np.flatnonzero(row == b).tolist())
                for b in range(row.max(initial=-1) + 1)
            ))
            for row in table
        ]
        assert got == _recursive_partitions(range(g))


def test_enumerate_partitions_keeps_recursive_order():
    ground = [7, 2, 11, 4, 5]
    assert list(enumerate_partitions(ground)) == _recursive_partitions(
        sorted(ground))


# ------------------------------------------------------------ partition norm


def test_identity_matrix_norms_frozen():
    eye = np.eye(2)
    assert partition_norm(eye, P({1, 2})) == pytest.approx(
        math.sqrt(2.0), abs=1e-14
    )
    assert partition_norm(eye, P({1}, {2})) == pytest.approx(1.0, abs=1e-14)


def test_zero_block_norm_of_a_scalar():
    assert partition_norm(np.array(-2.5), P()) == 2.5


def test_alternating_sup_of_a_zero_array():
    # the first update has zero norm: every restart ends at 0
    assert partition_norm(np.zeros((2, 3, 2)), P({1}, {2}, {3})) == 0.0


def test_single_block_matches_frobenius():
    rng = substream(11, TAG_EXPERIMENT)
    for shape in [(4,), (3, 5), (2, 3, 4)]:
        arr = rng.standard_normal(shape)
        blocks = P(set(range(1, len(shape) + 1)))
        assert partition_norm(arr, blocks) == pytest.approx(
            np.linalg.norm(arr.ravel()), rel=1e-12
        )


def test_two_block_matches_explicit_svd():
    rng = substream(12, TAG_EXPERIMENT)
    arr = rng.standard_normal((2, 3, 4))
    # group axes {1, 3} x {2}: permute then column-major flatten by hand
    mat = np.transpose(arr, (0, 2, 1)).reshape((8, 3), order="F")
    want = np.linalg.svd(mat, compute_uv=False)[0]
    got = partition_norm(arr, P({1, 3}, {2}))
    assert got == pytest.approx(want, rel=1e-12)


def test_alternating_recovers_spectral_norm():
    # on a matrix the alternating solver and the exact route must agree
    from kronjl.chaos import _alternating_sup

    rng = substream(13, TAG_EXPERIMENT)
    for _ in range(10):
        m = rng.standard_normal((5, 7))
        exact = np.linalg.norm(m, 2)
        approx = _alternating_sup(m, restarts=8, tol=1e-12, max_iter=10_000,
                                  seed=5)
        assert approx == pytest.approx(exact, rel=1e-9)


def test_three_block_norm_on_rank_one():
    # |B|_{{1},{2},{3}} of an outer product u (x) v (x) w is the product
    # of the factor norms
    rng = substream(14, TAG_EXPERIMENT)
    u, v, w = rng.standard_normal(3), rng.standard_normal(4), rng.standard_normal(2)
    arr = np.einsum("a,b,c->abc", u, v, w)
    want = np.linalg.norm(u) * np.linalg.norm(v) * np.linalg.norm(w)
    got = partition_norm(arr, P({1}, {2}, {3}))
    assert got == pytest.approx(want, rel=1e-9)


def test_merge_monotonicity_bulk():
    # coarsening the partition can only increase the norm; the refined
    # value is itself a lower bound, so the comparison is one-sided clean
    rng = substream(15, TAG_EXPERIMENT)
    chains = [
        (P({1}, {2}, {3}), P({1, 2}, {3})),
        (P({1}, {2}, {3}), P({1, 3}, {2})),
        (P({1, 2}, {3}), P({1, 2, 3})),
        (P({1}, {2, 3}), P({1, 2, 3})),
    ]
    for _ in range(60):
        arr = rng.standard_normal((3, 2, 3))
        for fine, coarse in chains:
            lo = partition_norm(arr, fine, restarts=8)
            hi = partition_norm(arr, coarse, restarts=8)
            assert lo <= hi + 1e-9 * max(1.0, hi)


def test_partition_norm_rejects_wrong_ground():
    arr = np.zeros((2, 2))
    with pytest.raises(ShapeError):
        partition_norm(arr, P({1}, {3}))
    with pytest.raises(ShapeError):
        partition_norm(arr, P({1, 2}, {3}))


# -------------------------------------------------------------- coefficients


def test_coefficients_shape_validation():
    dims = KronDims((2, 2))
    with pytest.raises(ShapeError):
        ChaosCoefficients(dims=dims, array=np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        ChaosCoefficients.from_gram(dims, np.zeros((3, 3)))
    with pytest.raises(ShapeError):
        ChaosCoefficients.from_gram(dims, np.zeros((4, 4)), weights=np.ones(3))


def test_from_gram_entry_layout():
    # array[i1, i2, j1, j2] must equal gram at the linearized (F-order)
    # positions
    dims = KronDims((2, 2))
    gram = np.arange(16.0).reshape(4, 4)
    co = ChaosCoefficients.from_gram(dims, gram)
    for i1, i2, j1, j2 in itertools.product(range(2), repeat=4):
        row = np.ravel_multi_index((i1, i2), dims.dims, order="F")
        col = np.ravel_multi_index((j1, j2), dims.dims, order="F")
        assert co.array[i1, i2, j1, j2] == gram[row, col]
    assert np.array_equal(co.matrix, gram)


def test_gram_matricization_partition_norm_agrees():
    # the ({1..d}, {d+1..2d}) partition norm is the spectral norm of the
    # Gram-indexed matrix
    dims = KronDims((2, 4))
    rng = substream(16, TAG_EXPERIMENT)
    gram = rng.standard_normal((8, 8))
    co = ChaosCoefficients.from_gram(dims, gram)
    got = partition_norm(co.array, P({1, 2}, {3, 4}))
    assert got == pytest.approx(np.linalg.norm(gram, 2), rel=1e-12)


def test_distortion_of_orthonormal_columns_is_zero():
    dims = KronDims((4,))
    co = ChaosCoefficients.distortion(dims, np.eye(4), np.ones(4) / 2.0)
    assert np.all(co.array == 0.0)
    prof = exact_chaos_moments(co, "coupled", [2.0, 4.0])
    assert prof.estimates == (0.0, 0.0)


def test_distortion_weights_scale_quadratically():
    dims = KronDims((4,))
    op = build_operator(dims, m=6, seed=3)
    phi = materialize(op)
    x = substream(17, TAG_EXPERIMENT).standard_normal(4)
    a = ChaosCoefficients.distortion(dims, phi, x)
    b = ChaosCoefficients.distortion(dims, phi, 2.0 * x)
    assert np.allclose(b.array, 4.0 * a.array, atol=1e-12)


# ------------------------------------------------------------------- moments


def _random_symmetric(n, seed):
    rng = substream(seed, TAG_EXPERIMENT)
    m = rng.standard_normal((n, n))
    return (m + m.T) / 2.0


def test_exact_coupled_variance_closed_form():
    # centered coupled second moment: Var(s' M s) = 2 sum_{k != l} M_kl^2
    # for symmetric M under independent signs
    m = _random_symmetric(8, 21)
    co = ChaosCoefficients.from_gram(KronDims((8,)), m)
    prof = exact_chaos_moments(co, "coupled", [2.0], centered=True)
    closed = 2.0 * (np.sum(m**2) - np.sum(np.diag(m) ** 2))
    assert prof.estimates[0] ** 2 == pytest.approx(closed, rel=1e-12)
    assert prof.mean == pytest.approx(np.trace(m), rel=1e-12)


def test_exact_decoupled_l2_is_frobenius():
    m = _random_symmetric(6, 22)
    co = ChaosCoefficients.from_gram(KronDims((6,)), m)
    prof = exact_chaos_moments(co, "decoupled", [2.0])
    assert prof.estimates[0] == pytest.approx(np.linalg.norm(m), rel=1e-12)
    assert prof.mean == 0.0


def test_exact_matches_brute_average_order_two():
    # independent oracle: loop the 2^N patterns in python for a tiny case
    m = _random_symmetric(3, 23)
    co = ChaosCoefficients.from_gram(KronDims((3,)), m)
    vals = []
    for bits in range(8):
        s = np.array([1.0 if bits >> k & 1 else -1.0 for k in range(3)])
        vals.append(s @ m @ s)
    want = np.mean(np.abs(np.array(vals)) ** 4) ** 0.25
    prof = exact_chaos_moments(co, "coupled", [4.0])
    assert prof.estimates[0] == pytest.approx(want, rel=1e-12)


def test_monte_carlo_matches_exact_within_bootstrap():
    m = _random_symmetric(8, 24)
    co = ChaosCoefficients.from_gram(KronDims((8,)), m)
    exact = exact_chaos_moments(co, "coupled", [2.0, 4.0], centered=True)
    est = estimate_chaos_moments(
        co, "coupled", [2.0, 4.0], trials=4000, seed=77, centered=True
    )
    for got, want, se in zip(est.estimates, exact.estimates, est.stderrs):
        assert se > 0.0
        assert abs(got - want) <= 3.0 * se


def test_exact_kron_structure_matches_brute_enumeration():
    # independent oracle for the tensored sign enumeration: loop all
    # factor-sign combinations in python, expand with axis 1 fastest
    m = _random_symmetric(4, 25)
    co = ChaosCoefficients.from_gram(KronDims((2, 2)), m)
    vals = []
    for bits in range(16):
        f1 = np.array([1.0 if bits >> k & 1 else -1.0 for k in range(2)])
        f2 = np.array([1.0 if bits >> (2 + k) & 1 else -1.0 for k in range(2)])
        s = (f2[:, None] * f1[None, :]).reshape(-1)
        vals.append(s @ m @ s)
    vals = np.abs(np.array(vals))
    prof = exact_chaos_moments(co, "coupled", [2.0, 6.0])
    for p, got in zip(prof.p_values, prof.estimates):
        want = np.mean(vals**p) ** (1.0 / p)
        assert got == pytest.approx(want, rel=1e-12)
    assert prof.trials == 16


def test_estimate_is_deterministic_per_seed():
    m = _random_symmetric(4, 26)
    co = ChaosCoefficients.from_gram(KronDims((4,)), m)
    a = estimate_chaos_moments(co, "decoupled", [2.0], trials=500, seed=5)
    b = estimate_chaos_moments(co, "decoupled", [2.0], trials=500, seed=5)
    c = estimate_chaos_moments(co, "decoupled", [2.0], trials=500, seed=6)
    assert a.estimates == b.estimates
    assert a.estimates != c.estimates


def test_decoupling_one_sided_ratio():
    # hollow coefficients: the coupled moments are controlled by the
    # decoupled ones with a constant that is modest for small order
    for d, dims in [(1, (8,)), (2, (2, 2))]:
        n = int(np.prod(dims))
        m = _random_symmetric(n, 30 + d)
        np.fill_diagonal(m, 0.0)
        co = ChaosCoefficients.from_gram(KronDims(dims), m)
        coupled = exact_chaos_moments(co, "coupled", [2.0, 4.0, 8.0])
        decoupled = exact_chaos_moments(co, "decoupled", [2.0, 4.0, 8.0])
        for c, dc in zip(coupled.estimates, decoupled.estimates):
            assert c <= 5.0**d * dc + 1e-12


def test_moment_budget_guard():
    co = ChaosCoefficients.from_gram(KronDims((32,)), np.eye(32))
    with pytest.raises(BudgetError):
        exact_chaos_moments(co, "coupled", [2.0])
    co16 = ChaosCoefficients.from_gram(KronDims((16,)), np.eye(16))
    with pytest.raises(BudgetError):
        exact_chaos_moments(co16, "decoupled", [2.0])


def test_moment_validation():
    co = ChaosCoefficients.from_gram(KronDims((4,)), np.eye(4))
    with pytest.raises(ShapeError):
        estimate_chaos_moments(co, "tangled", [2.0], trials=10, seed=0)
    with pytest.raises(ShapeError):
        estimate_chaos_moments(co, "coupled", [0.5], trials=10, seed=0)
    with pytest.raises(ShapeError):
        estimate_chaos_moments(co, "coupled", [2.0], trials=1, seed=0)
    with pytest.raises(ShapeError):
        exact_chaos_moments(co, "sideways", [2.0])
    for p in (0.0, 0.5):
        with pytest.raises(ShapeError):
            exact_chaos_moments(co, "coupled", [2.0, p])
        with pytest.raises(ShapeError):
            estimate_chaos_moments(co, "decoupled", [p], trials=10, seed=0)


# ------------------------------------------------------------ moment profile


def test_profile_frozen_identity():
    # partitions of {1, 2}: one block gives sqrt(p) * frobenius, two
    # blocks give p * spectral; for I_2 that is sqrt(p) * sqrt(2) + p
    (val,) = moment_bound_profile(np.eye(2), [4.0])
    assert val == pytest.approx(2.0 * math.sqrt(2.0) + 4.0, abs=1e-12)


def test_profile_rejects_bad_p():
    for ps in ([0.0], [2.0, -1.0]):
        with pytest.raises(ShapeError):
            moment_bound_profile(np.eye(2), ps)


def test_profile_matches_one_p_at_a_time():
    # the profile computes each partition norm once for all p; each value
    # must be the one-p sum, in the same order, bit for bit
    arr = np.random.default_rng(12).standard_normal((2, 3, 2))
    ps = (1.0, 2.5, 4, 9.0)
    norms = [(part.kappa, partition_norm(arr, part))
             for part in enumerate_partitions(range(1, 4))]
    want = []
    for p in ps:
        total = 0.0
        for kappa, norm in norms:
            total += p ** (kappa / 2.0) * norm
        want.append(total)
    assert moment_bound_profile(arr, ps) == tuple(want)


def test_profile_dominates_exact_moments_with_small_constant():
    # growth check, not a sharp-constant check: the fitted ratio between
    # the exact centered coupled L_p and the profile stays below a loose
    # cap and is reported for the record
    m = _random_symmetric(8, 41)
    np.fill_diagonal(m, 0.0)
    co = ChaosCoefficients.from_gram(KronDims((8,)), m)
    ps = [2.0, 4.0, 6.0, 8.0]
    exact = exact_chaos_moments(co, "coupled", ps, centered=True)
    profile = moment_bound_profile(m, ps)
    fitted = max(lp / b for lp, b in zip(exact.estimates, profile))
    print(f"fitted moment-profile constant: {fitted:.4f}")
    assert fitted <= 10.0


# ------------------------------------------------------------ tail converter


def test_tail_frozen_value():
    # single scale gamma = 1, exponent 1, one row: bound at t = e is
    # exp(p0) * exp(-1)
    got = moment_to_tail([[1.0]], [[1.0]], p0=0.0, t=math.e)
    assert got == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_tail_monotone_in_t():
    g = [[0.5, 2.0], [1.0, 1.0]]
    e = [[1.0, 2.0], [0.5, 1.0]]
    ts = [0.5, 1.0, 2.0, 4.0, 8.0]
    vals = [moment_to_tail(g, e, p0=1.0, t=t) for t in ts]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_tail_validation():
    with pytest.raises(ShapeError):
        moment_to_tail([[1.0]], [[1.0, 2.0]], p0=0.0, t=1.0)
    with pytest.raises(ShapeError):
        moment_to_tail([[-1.0]], [[1.0]], p0=0.0, t=1.0)
    with pytest.raises(ShapeError):
        moment_to_tail([[1.0]], [[1.0]], p0=0.0, t=0.0)


# ------------------------------------------------------- counting inequality


def test_partition_counting_exhaustive_small_orders():
    for d in (1, 2, 3):
        report = check_partition_counting(d)
        assert report.ok
        assert report.violations == ()
    # d = 1 count: grounds of sizes 2, 1, 1, 0 have 2 + 1 + 1 + 1 partitions
    assert check_partition_counting(1).checked == 5


def test_partition_counting_order_four():
    # checked is the sum over (S, T) cells of the Bell number of the
    # ground size 2d - |S| - |T|
    for d, checked in zip((1, 2, 3, 4), (5, 52, 877, 21_147)):
        assert check_partition_counting(d).checked == checked
    report = check_partition_counting(4)
    assert report.ok
    assert report.violations == ()


def test_counting_sides_match_partition_loop():
    # kappa and |J|/4 + (|I| + |I'|)/2 per row of the label table against
    # a loop over the blocks of each SetPartition, for every (S, T) cell
    for d in (1, 2, 3):
        left = set(range(1, d + 1))
        right = set(range(d + 1, 2 * d + 1))
        for removed in itertools.product((False, True), repeat=2 * d):
            ground = [e for e, r in zip(range(1, 2 * d + 1), removed)
                      if not r]
            kappa, lhs = _counting_sides(_label_table(len(ground)), ground, d)
            want_kappa, want_lhs = [], []
            for part in enumerate_partitions(ground):
                i_left = sum(len(b) for b in part.blocks if b <= left)
                i_right = sum(len(b) for b in part.blocks if b <= right)
                j_mixed = len(ground) - i_left - i_right
                want_kappa.append(part.kappa)
                want_lhs.append(j_mixed / 4.0 + (i_left + i_right) / 2.0)
            assert kappa.tolist() == want_kappa
            assert lhs.tolist() == want_lhs


def test_partition_counting_reports_violations_in_row_order(monkeypatch):
    # no partition violates the inequality, so set every left side to
    # -1 < kappa / 2: the report must then list the first eight rows in
    # the order of the cells and of enumerate_partitions within each
    sides = chaos._counting_sides

    def violated(*args):
        kappa, lhs = sides(*args)
        return kappa, np.full_like(lhs, -1.0)

    monkeypatch.setattr(chaos, "_counting_sides", violated)
    for d in (1, 2):
        want = []
        for s_sub in itertools.chain.from_iterable(
                itertools.combinations(range(1, d + 1), k)
                for k in range(d + 1)):
            for t_sub in itertools.chain.from_iterable(
                    itertools.combinations(range(1, d + 1), k)
                    for k in range(d + 1)):
                removed = set(s_sub) | {a + d for a in t_sub}
                ground = set(range(1, 2 * d + 1)) - removed
                want += [(s_sub, t_sub, part)
                         for part in enumerate_partitions(ground)]
        report = check_partition_counting(d)
        assert not report.ok
        assert report.checked == len(want)
        assert report.violations == tuple(want[:8])


def test_partition_counting_guard():
    with pytest.raises(BudgetError):
        check_partition_counting(5)
    with pytest.raises(BudgetError):
        check_partition_counting(0)


# --------------------------------------------------------- expectation bound


def test_expectation_bound_identity():
    report = check_expectation_bound(np.eye(5), np.ones(5) / math.sqrt(5.0))
    assert report.ok
    assert report.expectation == 0.0
    assert report.diag_bound == 0.0
    assert report.delta1 == 0.0


def test_expectation_bound_random_instances():
    rng = substream(55, TAG_EXPERIMENT)
    dims = KronDims((8,))
    for trial in range(20):
        op = build_operator(dims, m=5, seed=100 + trial)
        phi = materialize(op)
        x = rng.standard_normal(8)
        x /= np.linalg.norm(x)
        report = check_expectation_bound(phi, x)
        assert report.ok
        assert abs(report.expectation) <= report.delta1 + 1e-12
    for trial in range(10):
        phi = rng.standard_normal((6, 9)) / math.sqrt(6.0)
        x = rng.standard_normal(9)
        report = check_expectation_bound(phi, x)
        assert report.ok


def test_expectation_bound_validation():
    with pytest.raises(ShapeError):
        check_expectation_bound(np.eye(4), np.ones(3))
