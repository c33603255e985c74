"""Adversarial lower-bound experiment: closed forms and Monte Carlo."""

import math

import pytest

from kronjl.adversarial import (
    embedding_dim_threshold,
    failure_probability_empirical,
    failure_probability_exact,
)
from kronjl.errors import ShapeError


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
    val = embedding_dim_threshold(nu=math.exp(-2.0), p=256, d=2)
    assert abs(val - 16.0) < 1e-12
    with pytest.raises(ShapeError):
        embedding_dim_threshold(nu=1.5, p=4, d=1)


def test_empirical_matches_closed_form():
    # one grid cell, pinned seed: estimate within 3 binomial sigma
    out = failure_probability_empirical(
        bit_dims=(4, 4), r=2, m=16, trials=4000, seed=20
    )
    exact = failure_probability_exact(s=4, d=2, m=16).prob
    sigma = math.sqrt(exact * (1 - exact) / 4000)
    assert abs(out.estimate - exact) <= 3 * sigma
    assert out.sign_witnesses == 8
    assert out.zero_witnesses > 0


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
