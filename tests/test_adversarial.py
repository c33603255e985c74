"""Adversarial lower-bound experiment: closed forms and Monte Carlo."""

import math
import tracemalloc

import numpy as np
import pytest

from kronjl import rand
from kronjl.adversarial import (
    embedding_dim_threshold,
    failure_probability_empirical,
    failure_probability_exact,
)
from kronjl.errors import ShapeError
from kronjl.fwht import fwht
from kronjl.gf2 import indicator, orthogonal_complement, random_subspace
from kronjl.transforms import kron_materialize, sampled_entries

# a transformed entry this small counts as zero; nonzero entries of the
# references below are at least 2^(-31)
ZERO_TOL = 1e-12


def test_exact_frozen_values():
    out = failure_probability_exact(s=4, d=1, m=8)
    assert abs(out.prob - 0.75**8) < 1e-15
    assert abs(out.prob - 0.10011291503906) < 1e-11
    assert abs(out.lower_bound - math.exp(-4.0)) < 1e-15
    grid = failure_probability_exact(s=4, d=2, m=16)
    assert abs(grid.prob - (15 / 16) ** 16) < 1e-15
    assert abs(grid.prob - 0.35607) < 5e-6


def test_bound_below_exact_probability():
    for s, d in [(2, 1), (2, 2), (4, 1), (4, 2), (4, 3)]:
        for m in [0, 1, 4, 16, 64]:
            out = failure_probability_exact(s, d, m)
            assert out.lower_bound <= out.prob + 1e-15


def test_exact_validation():
    with pytest.raises(ShapeError):
        failure_probability_exact(s=1, d=1, m=4)  # s^d < 2
    with pytest.raises(ShapeError):
        failure_probability_exact(s=2, d=1, m=-1)


def test_threshold_frozen():
    # with p = 2^{ds} the threshold reduces to (1/2) log(1/nu) s^d
    val = embedding_dim_threshold(nu=math.exp(-2.0), log2_p=8, d=2)
    assert abs(val - 16.0) < 1e-12
    with pytest.raises(ShapeError):
        embedding_dim_threshold(nu=1.5, log2_p=2, d=1)


def test_empirical_matches_closed_form():
    # one grid cell, pinned seed: estimate within 3 binomial sigma
    out = failure_probability_empirical(
        bit_dims=(4, 4), r=2, m=16, trials=4000, seed=20
    )
    exact = failure_probability_exact(s=4, d=2, m=16).prob
    sigma = math.sqrt(exact * (1 - exact) / 4000)
    assert abs(out.estimate - exact) <= 3 * sigma


def test_empirical_full_rank_subspace():
    # r = n: transform support is a single entry among 2^n
    out = failure_probability_empirical(
        bit_dims=(3,), r=3, m=4, trials=4000, seed=5
    )
    exact = (1 - 1 / 8) ** 4
    sigma = math.sqrt(exact * (1 - exact) / 4000)
    assert abs(out.estimate - exact) <= 3 * sigma


def test_empirical_large_m_never_misses():
    out = failure_probability_empirical(
        bit_dims=(2,), r=1, m=400, trials=500, seed=3
    )
    assert out.failures == 0 and out.estimate == 0.0


def test_empirical_deterministic_in_seed():
    a = failure_probability_empirical((4,), 2, 8, 1000, seed=11)
    b = failure_probability_empirical((4,), 2, 8, 1000, seed=11)
    assert a == b
    c = failure_probability_empirical((4,), 2, 8, 1000, seed=12)
    assert a.failures != c.failures or a.estimate == c.estimate


def test_empirical_validation():
    with pytest.raises(ShapeError):
        failure_probability_empirical((2, 2), 3, 4, 100, seed=0)
    with pytest.raises(ShapeError):
        failure_probability_empirical((), 1, 4, 100, seed=0)
    with pytest.raises(ShapeError):
        failure_probability_empirical((2,), 1, 4, 0, seed=0)


def test_empirical_rejects_rows_past_int64():
    with pytest.raises(ShapeError, match="2\\^63"):
        failure_probability_empirical((21, 21, 21), 1, 4, 10, seed=0)


# d = 3, odd r, r = bits and uneven axes
SHAPES = [((3, 3, 3), 3), ((2, 3, 4), 1), ((5,), 5), ((4, 5), 3), ((6, 6), 2)]


def _length_n_reference(bit_dims, r, m, trials, seed):
    """Per-axis transforms, the length-N transform they form and the
    sampled rows, drawn from the estimate's streams."""
    y_factors = [
        fwht(indicator(random_subspace(n, r, rand.substream(
            seed, rand.TAG_SUBSPACE, j))))
        for j, n in enumerate(bit_dims, start=1)
    ]
    y = kron_materialize(y_factors)
    rows0 = rand.substream(seed, rand.TAG_SAMPLES).integers(
        0, y.size, size=(trials, m))
    return y_factors, y, rows0


@pytest.mark.parametrize("bit_dims,r", SHAPES)
def test_sampled_entries_match_length_n_gather(bit_dims, r):
    y_factors, y, rows0 = _length_n_reference(bit_dims, r, 7, 300, seed=2)
    assert np.array_equal(sampled_entries(y_factors, rows0), y[rows0])
    # batched: a (5, 3, n_l) stack of factors per axis against (5, 1, 7)
    # rows, broadcast as np.take_along_axis broadcasts
    rng = np.random.default_rng(4)
    stacks = [rng.standard_normal((5, 3, f.size)) for f in y_factors]
    rows = rows0[:5, None, :]
    got = sampled_entries(stacks, rows)
    assert got.shape == (5, 3, 7)
    for i in range(5):
        for j in range(3):
            y_ij = kron_materialize([f[i, j] for f in stacks])
            assert np.array_equal(got[i, j], y_ij[rows0[i]])


@pytest.mark.parametrize("bit_dims,r", SHAPES)
def test_empirical_failures_match_length_n_gather(bit_dims, r):
    # 3000 trials of 7 rows span two gather blocks
    _, y, rows0 = _length_n_reference(bit_dims, r, 7, 3000, seed=3)
    want = int(np.all(np.abs(y[rows0]) <= ZERO_TOL, axis=1).sum())
    out = failure_probability_empirical(bit_dims, r, 7, 3000, seed=3)
    assert out.failures == want


@pytest.mark.parametrize("bit_dims,r", [((10,), 1), ((10,), 7), ((10,), 10),
                                        ((7, 9), 3), ((2, 10, 5), 2)])
def test_complement_indicator_keeps_transform_misses(bit_dims, r):
    # the estimate reads each axis transform as the complement's indicator
    # instead of transforming the subspace indicator; the supports agree
    # and so does every miss decision
    seed, m, trials = 8, 5, 4000
    wht = []
    for j, n in enumerate(bit_dims, start=1):
        v = random_subspace(n, r, rand.substream(seed, rand.TAG_SUBSPACE, j))
        y = fwht(indicator(v))
        comp = indicator(orthogonal_complement(v))
        assert np.array_equal(np.abs(y) > ZERO_TOL, comp > 0)
        wht.append(y)
    rows0 = rand.substream(seed, rand.TAG_SAMPLES).integers(
        0, 1 << sum(bit_dims), size=(trials, m))
    gathered = sampled_entries(wht, rows0)
    want = int(np.all(np.abs(gathered) <= ZERO_TOL, axis=1).sum())
    out = failure_probability_empirical(bit_dims, r, m, trials, seed=seed)
    assert out.failures == want


@pytest.mark.parametrize("bit_dims,r", [((40,), 1), ((40,), 3),
                                        ((20, 25), 1), ((20, 25), 3)])
def test_empirical_failures_match_complement_membership(bit_dims, r):
    # axes far past any length a per-axis table could hold: a row misses
    # the support iff some coordinate leaves its axis's complement
    seed, m, trials = 9, 3, 6000  # two row blocks
    comps = [
        orthogonal_complement(random_subspace(n, r, rand.substream(
            seed, rand.TAG_SUBSPACE, j)))
        for j, n in enumerate(bit_dims, start=1)
    ]
    rows0 = rand.substream(seed, rand.TAG_SAMPLES).integers(
        0, 1 << sum(bit_dims), size=(trials, m))
    want = 0
    for trial in rows0.tolist():
        missed = True
        for row in trial:
            shift, hit = 0, True
            for n, comp in zip(bit_dims, comps):
                hit = hit and comp.contains((row >> shift) & ((1 << n) - 1))
                shift += n
            missed = missed and not hit
        want += missed
    out = failure_probability_empirical(bit_dims, r, m, trials, seed=seed)
    assert 0 < out.failures < trials
    assert out.failures == want


@pytest.mark.parametrize("k", [1, 2, 3, 4, 20, 33, 62])
def test_block_draws_reproduce_one_draw(k):
    # the estimate and the adversarial family (whose N can be 2) draw
    # their rows one block at a time; that reads the stream as one
    # (trials, m) draw does, whatever the block sizes
    whole = rand.substream(6, rand.TAG_SAMPLES).integers(
        0, 2**k, size=(101, 7))
    rng = rand.substream(6, rand.TAG_SAMPLES)
    blocks = [rng.integers(0, 2**k, size=(b, 7)) for b in (1, 33, 3, 57, 7)]
    assert np.array_equal(np.concatenate(blocks), whole)


def test_empirical_memory_stays_per_axis():
    # N = 2^24; a length-N transform alone would be 128 MiB
    tracemalloc.start()
    try:
        failure_probability_empirical((12, 12), 2, 4, 10, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_empirical_memory_does_not_grow_with_trials():
    # 300,000 trials of 32 rows would be 73 MiB of rows drawn at once
    tracemalloc.start()
    try:
        failure_probability_empirical((4, 4), 2, 32, 300_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
