"""Restricted isometry constants and the Gram submatrix bound."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from kronjl import indexing, rand, rip
from kronjl.errors import BudgetError, ShapeError
from kronjl.fwht import hadamard_matrix
from kronjl.rip import check_submatrix_bound, rip_constant
from kronjl.transforms import build_operator, materialize


def _brute_delta(phi, s):
    # independent oracle: spectral norm of each Gram block deviation
    n = phi.shape[1]
    best = -1.0
    for sup in itertools.combinations(range(n), s):
        block = phi[:, sup]
        dev = np.linalg.norm(block.T @ block - np.eye(s), 2)
        best = max(best, dev)
    return best


def _all_supports_delta(phi, s):
    # reference: one eigvalsh per support, in lexicographic order, and the
    # first support attaining the largest deviation
    gram = phi.T @ phi
    supports = np.array(list(itertools.combinations(range(phi.shape[1]), s)))
    evs = np.linalg.eigvalsh(gram[supports[:, :, None], supports[:, None, :]])
    dev = np.maximum(evs[:, -1] - 1.0, 1.0 - evs[:, 0])
    k = int(np.argmax(dev))
    return float(dev[k]), tuple(int(c) + 1 for c in supports[k])


def _all_pairs_worst(phi, s):
    # reference: every ordered pair in row-major order, chunked SVDs, the
    # first pair attaining the largest norm
    n = phi.shape[1]
    supports = np.array(list(itertools.combinations(range(n), s)))
    k = supports.shape[0]
    hollow = phi.T @ phi - np.eye(n)
    left = np.repeat(np.arange(k), k)
    right = np.tile(np.arange(k), k)
    worst, pair = -1.0, (0, 0)
    for lo in range(0, left.size, 65536):
        li, ri = left[lo : lo + 65536], right[lo : lo + 65536]
        blocks = hollow[supports[li][:, :, None], supports[ri][:, None, :]]
        norms = np.linalg.svd(blocks, compute_uv=False)[:, 0]
        j = int(np.argmax(norms))
        if norms[j] > worst:
            worst, pair = float(norms[j]), (int(li[j]), int(ri[j]))
    return worst, tuple(tuple(int(c) + 1 for c in supports[p]) for p in pair)


def test_identity_matrix_has_zero_delta():
    for s in (1, 2, 3):
        rep = rip_constant(np.eye(8), s)
        assert rep.delta == 0.0
        assert len(rep.witness_support) == s


def test_delta_one_is_column_norm_deviation():
    rng = np.random.default_rng(1)
    phi = rng.standard_normal((6, 10)) / math.sqrt(6)
    rep = rip_constant(phi, 1)
    expected = np.max(np.abs(np.sum(phi**2, axis=0) - 1.0))
    assert np.isclose(rep.delta, expected, atol=1e-13)
    j = rep.witness_support[0] - 1
    assert np.isclose(abs(np.sum(phi[:, j] ** 2) - 1.0), rep.delta)


def test_delta_matches_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(5):
        phi = rng.standard_normal((5, 9)) / math.sqrt(5)
        for s in (1, 2, 3):
            rep = rip_constant(phi, s)
            assert np.isclose(rep.delta, _brute_delta(phi, s), atol=1e-12)


def test_witness_attains_delta():
    rng = np.random.default_rng(3)
    phi = rng.standard_normal((6, 12)) / math.sqrt(6)
    rep = rip_constant(phi, 3)
    cols = [c - 1 for c in rep.witness_support]
    block = phi[:, cols]
    evs, vecs = np.linalg.eigh(block.T @ block)
    k = int(np.argmax(np.abs(evs - 1.0)))
    x = vecs[:, k]  # unit s-sparse witness on the support
    assert np.isclose(abs(np.linalg.norm(block @ x) ** 2 - 1.0), rep.delta)


def test_monotone_in_s():
    rng = np.random.default_rng(4)
    for seed in range(5):
        op = build_operator((16,), 8, seed=seed)
        phi = materialize(op)
        deltas = [rip_constant(phi, s).delta for s in (1, 2, 3, 4)]
        for a, b in zip(deltas, deltas[1:]):
            assert a <= b + 1e-12
    phi = rng.standard_normal((8, 14)) / math.sqrt(8)
    deltas = [rip_constant(phi, s).delta for s in (1, 2, 3)]
    assert deltas == sorted(deltas)


def test_budget_guard():
    phi = np.eye(30)
    with pytest.raises(BudgetError):
        rip_constant(phi, 10)  # C(30, 10) = 30,045,015 supports
    with pytest.raises(ShapeError):
        rip_constant(phi, 0)
    with pytest.raises(ShapeError):
        rip_constant(phi, 31)


def test_submatrix_bound_on_identity():
    rep = check_submatrix_bound(np.eye(10), 2, delta=0.0)
    assert rep.ok and rep.worst_norm <= 1e-15
    assert rep.exhaustive and rep.pairs_checked == 45 * 45


def test_submatrix_bound_brute_force_agreement():
    rng = np.random.default_rng(5)
    phi = rng.standard_normal((4, 6)) / math.sqrt(4)
    hollow = phi.T @ phi - np.eye(6)
    worst = -1.0
    for s_sup in itertools.combinations(range(6), 2):
        for t_sup in itertools.combinations(range(6), 2):
            block = hollow[np.ix_(s_sup, t_sup)]
            worst = max(worst, np.linalg.norm(block, 2))
    rep = check_submatrix_bound(phi, 2, delta=worst)
    assert rep.ok
    assert np.isclose(rep.worst_norm, worst, atol=1e-12)
    bad = check_submatrix_bound(phi, 2, delta=worst * 0.5)
    assert not bad.ok
    assert bad.worst_pair[0] and bad.worst_pair[1]


def test_polarization_consequence_on_hadamard_instances():
    # (2s, delta) isometry forces every s x s off-Gram block below delta,
    # including overlapping and equal support pairs
    for seed in range(6):
        op = build_operator((16,), 10, seed=seed)
        phi = materialize(op)
        for s in (1, 2):
            delta = rip_constant(phi, 2 * s).delta
            rep = check_submatrix_bound(phi, s, delta)
            assert rep.ok, (seed, s, rep)


def test_polarization_consequence_on_gaussian_instances():
    rng = np.random.default_rng(11)
    for _ in range(4):
        phi = rng.standard_normal((12, 20)) / math.sqrt(12)
        delta = rip_constant(phi, 4).delta
        rep = check_submatrix_bound(phi, 2, delta)
        assert rep.ok


def test_sampled_fallback_when_over_budget():
    rng = np.random.default_rng(6)
    phi = rng.standard_normal((4, 8)) / math.sqrt(4)
    rep = check_submatrix_bound(phi, 2, delta=10.0, budget=100, seed=1)
    assert not rep.exhaustive
    assert rep.pairs_checked == 100
    assert rep.ok


def _sampled_reference(phi, s, budget, seed):
    # reference: the whole draw, `budget` left supports then `budget` right
    # ones, and the first sampled pair attaining the largest block norm
    hollow = phi.T @ phi - np.eye(phi.shape[1])
    supports = np.array(list(itertools.combinations(range(phi.shape[1]), s)))
    stream = rand.substream(seed, rand.TAG_EXPERIMENT)
    left = stream.integers(0, len(supports), size=budget)
    right = stream.integers(0, len(supports), size=budget)
    blocks = hollow[supports[left][:, :, None], supports[right][:, None, :]]
    norms = np.linalg.svd(blocks, compute_uv=False)[:, 0]
    j = int(np.argmax(norms))
    return float(norms[j]), (tuple(int(c) + 1 for c in supports[left[j]]),
                             tuple(int(c) + 1 for c in supports[right[j]]))


# budgets between the support count k and the pair count k^2
@pytest.mark.parametrize("dims,m,s,budget", [
    ((16,), 8, 2, 200), ((16,), 4, 3, 600), ((4, 4), 8, 1, 200),
])
def test_sampled_fallback_matches_the_whole_draw(monkeypatch, dims, m, s, budget):
    # one block of all pairs and blocks of 1, 3 and 7 pairs draw the same
    phi = materialize(build_operator(dims, m, seed=2))
    expected = _sampled_reference(phi, s, budget, seed=5)
    for pairs in (None, 1, 3, 7):
        if pairs:
            monkeypatch.setattr(indexing, "_BLOCK_BYTES", pairs * (8 * s * s + 16))
        rep = check_submatrix_bound(phi, s, delta=1.0, budget=budget, seed=5)
        assert (rep.worst_norm, rep.worst_pair) == expected, pairs
        assert not rep.exhaustive and rep.pairs_checked == budget


def test_sampled_fallback_draws_its_pairs_in_blocks():
    # 10^6 pairs of single columns: a whole draw of their 16 MB of indices
    # would sit on top of the (N, N) Gram tables (the Gram, its hollow
    # copy and an identity while the copy is made)
    phi = materialize(build_operator((1024,), 8, seed=0))
    tables = 3 * 8 * 1024 * 1024
    tracemalloc.start()
    try:
        rep = check_submatrix_bound(phi, 1, delta=1.0, budget=1_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not rep.exhaustive and rep.pairs_checked == 1_000_000
    assert peak < tables + (2 << 20), peak


def _assert_pruned_equals_all_pairs(monkeypatch, phi, s):
    # small chunks make the first chunk miss the worst pair, so the stop
    # rule and the tie rule decide the answer
    expected = _all_pairs_worst(phi, s)
    for chunk in (3, 64, rip._PAIR_CHUNK):
        monkeypatch.setattr(rip, "_PAIR_CHUNK", chunk)
        rep = check_submatrix_bound(phi, s, delta=1.0)
        assert (rep.worst_norm, rep.worst_pair) == expected, chunk
        assert rep.exhaustive
        assert rep.pairs_checked == math.comb(phi.shape[1], s) ** 2


def test_pruned_bound_equals_all_pairs_on_hadamard_instances(monkeypatch):
    # subsampled Hadamard blocks take few distinct values: many exact ties
    for m in (4, 8, 12):
        phi = materialize(build_operator((16,), m, seed=m))
        for s in (1, 2, 3):
            _assert_pruned_equals_all_pairs(monkeypatch, phi, s)


def test_pruned_bound_equals_all_pairs_on_gaussian_instances(monkeypatch):
    rng = np.random.default_rng(12)
    for rows, cols, s in ((6, 10, 1), (8, 12, 2), (8, 12, 3), (12, 20, 2)):
        phi = rng.standard_normal((rows, cols)) / math.sqrt(rows)
        _assert_pruned_equals_all_pairs(monkeypatch, phi, s)


def test_pruned_bound_equals_all_pairs_when_the_bound_overflows(monkeypatch):
    # the blocks' Frobenius sums and the fourth powers of B^T B overflow:
    # an inf times a 0 indicator, or inf and -inf summed, give nan bounds,
    # which must count as inf. The second phi's columns are nearly
    # parallel (Gram entries near 1.2e154), so every sum of two squared
    # entries overflows and every coarse bound at s >= 2 is nan
    scaled = np.random.default_rng(87).standard_normal((6, 10)) * 3.7e76
    near = 4.3e76 * (1.0 + 0.05 * np.random.default_rng(88).standard_normal((6, 10)))
    for phi in (scaled, near):
        for s in (1, 2, 3):
            _assert_pruned_equals_all_pairs(monkeypatch, phi, s)


def test_pruning_decomposes_few_blocks(monkeypatch):
    decomposed = []
    real_svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        decomposed.append(a.shape[0])
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    phi = materialize(build_operator((16,), 8, seed=0))
    rep = check_submatrix_bound(phi, 3, delta=1.0)
    assert rep.exhaustive and rep.pairs_checked == 313_600
    assert 0 < sum(decomposed) < 31_360
    # the Frobenius bound alone leaves 14,720, 15,344 and 15,344 blocks to
    # decompose on these operators; the fourth-power bound on B^T B does not
    for m, seed in ((8, 1), (4, 16), (4, 32)):
        decomposed.clear()
        phi = materialize(build_operator((16,), m, seed=seed))
        check_submatrix_bound(phi, 3, delta=1.0)
        assert 0 < sum(decomposed) <= 1024, (m, seed)


def _assert_pruned_equals_all_supports(monkeypatch, phi, s):
    # small chunks make the lead chunk miss the witness, so the stop rule
    # and the tie rule decide the answer
    expected = _all_supports_delta(phi, s)
    for chunk in (3, 64, rip._PAIR_CHUNK):
        monkeypatch.setattr(rip, "_PAIR_CHUNK", chunk)
        rep = rip_constant(phi, s)
        assert (rep.delta, rep.witness_support) == expected, (s, chunk)


def test_rip_constant_equals_all_supports_on_hadamard_instances(monkeypatch):
    # subsampled Hadamard Gram blocks take few distinct values: many exact
    # ties; m = 4 < s also makes blocks singular
    for m in (4, 8, 12):
        for seed in (3, m):
            phi = materialize(build_operator((16,), m, seed=seed))
            for s in range(1, 7):
                _assert_pruned_equals_all_supports(monkeypatch, phi, s)


def test_rip_constant_equals_all_supports_on_gaussian_instances(monkeypatch):
    rng = np.random.default_rng(13)
    for rows, cols in ((6, 10), (8, 12), (12, 14)):
        phi = rng.standard_normal((rows, cols)) / math.sqrt(rows)
        for s in range(1, 7):
            _assert_pruned_equals_all_supports(monkeypatch, phi, s)


def test_rip_constant_equals_all_supports_near_zero_delta(monkeypatch):
    # delta is 0 or a few rounding errors: the bound's slack must be
    # absolute, since the deviation is read from the eigenvalues of G_S
    q, _ = np.linalg.qr(np.random.default_rng(14).standard_normal((12, 12)))
    for phi in (np.eye(8), hadamard_matrix(8), q):
        for s in range(1, 7):
            _assert_pruned_equals_all_supports(monkeypatch, phi, s)
            assert rip_constant(phi, s).delta < 1e-14


def test_rip_constant_equals_all_supports_when_rank_deficient(monkeypatch):
    # m < s: every Gram block is singular, so delta_s >= 1
    rng = np.random.default_rng(15)
    for rows, cols, sizes in ((2, 8, (3, 4, 5)), (3, 9, (4, 5, 6))):
        phi = rng.standard_normal((rows, cols)) / math.sqrt(rows)
        for s in sizes:
            _assert_pruned_equals_all_supports(monkeypatch, phi, s)
            assert rip_constant(phi, s).delta >= 1.0 - 1e-12


def test_rip_constant_equals_all_supports_when_the_bound_overflows(monkeypatch):
    # the Gram entries (up to 1.2e154) have finite squares, but the
    # fourth powers overflow, and some bounds sum inf and -inf to nan
    phi = np.random.default_rng(87).standard_normal((6, 10)) * 3.7e76
    for s in (2, 4, 5, 6):
        _assert_pruned_equals_all_supports(monkeypatch, phi, s)


def test_rip_pruning_decomposes_few_supports(monkeypatch):
    decomposed = []
    real_eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(a, *args, **kwargs):
        decomposed.append(a.shape[0])
        return real_eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    # the search starts from the supports at the largest coarse bound: 4
    # at seed 0, where one short chunk of 20 more settles it, and 14 at
    # seed 3, where 2,234 more have bounds that reach their largest
    # deviation
    for seed, count in ((0, 24), (3, 2248)):
        decomposed.clear()
        rip_constant(materialize(build_operator((16,), 8, seed=seed)), 6)
        assert sum(decomposed) == count < math.comb(16, 6) // 2


def test_support_table_is_refused_before_it_is_allocated():
    # C(60, 5) = 5,461,512 supports are within the count budget, but their
    # table (218 MB) is over the table cap
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="support table needs 218460480"):
            rip_constant(np.eye(60)[:4], 5)
        with pytest.raises(BudgetError, match="support table needs 218460480"):
            check_submatrix_bound(np.eye(60)[:4], 5, delta=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_support_count_is_refused_before_the_gram_is_formed():
    # C(3000, 6) supports are over the count budget; the 3000 x 3000 Gram
    # and its squares, formed first, would peak near 146 MiB
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match=r"C\(3000,6\) = \d+ supports exceed"):
            rip_constant(np.zeros((1, 3000)), 6)
        with pytest.raises(BudgetError, match=r"C\(3000,6\) = \d+ supports exceed"):
            check_submatrix_bound(np.zeros((1, 3000)), 6, delta=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_gram_is_refused_over_the_table_cap():
    # N = 4097 passes every support check at s = 1, but its N x N Gram is
    # 8 * 4097^2 = 134,283,272 bytes, over the 2^27-byte table cap
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="4097 x 4097 Gram matrix needs "
                           "134283272 bytes"):
            rip_constant(np.zeros((1, 4097)), 1)
        with pytest.raises(BudgetError, match="4097 x 4097 Gram matrix needs "
                           "134283272 bytes"):
            check_submatrix_bound(np.zeros((1, 4097)), 1, delta=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_support_array_matches_combinations():
    for n, s in ((1, 1), (5, 2), (8, 3), (9, 9), (12, 5)):
        expected = np.array(list(itertools.combinations(range(n), s)))
        got = rip._support_array(n, s, budget=10_000)
        assert got.dtype == np.intp
        assert np.array_equal(got, expected)


def test_oracles_reject_bad_input():
    nan = np.full((4, 6), np.nan)
    inf = np.eye(6)
    inf[2, 3] = np.inf
    # finite, but the Gram entries (1e400) or their squares (1e320) overflow
    huge = [scale * np.eye(6) for scale in (1e200, 1e80)]
    for phi, s in ((np.ones(6), 1), (np.ones((2, 3, 4)), 1), (nan, 1),
                   (inf, 2), (huge[0], 2), (huge[1], 2), (np.eye(6), 0),
                   (np.eye(6), 7)):
        with pytest.raises(ShapeError):
            rip_constant(phi, s)
        with pytest.raises(ShapeError):
            check_submatrix_bound(phi, s, delta=1.0)
    with pytest.raises(ShapeError):
        check_submatrix_bound(np.eye(6), 2, delta=np.nan)
