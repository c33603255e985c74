"""Restricted isometry constants and the Gram submatrix bound."""

import itertools
import math

import numpy as np
import pytest

from kronjl import rip
from kronjl.errors import BudgetError, ShapeError
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
        rip_constant(phi, 10, budget=1000)
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
