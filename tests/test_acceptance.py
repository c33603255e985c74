"""Acceptance gate: one test per criterion, each printing a PASS line
with its measured numbers. Tolerances and budgets are asserted inline;
a failed assertion means the criterion is red.

Run as `pytest -v tests/test_acceptance.py` for the per-criterion lines,
add -s to see the printed measurements.
"""

import json
import math
import time

import numpy as np

from kronjl import harness
from kronjl.adversarial import failure_probability_empirical, failure_probability_exact
from kronjl.chaos import (
    ChaosCoefficients,
    SetPartition,
    check_partition_counting,
    estimate_chaos_moments,
)
from kronjl.fwht import fwht, hadamard_matrix
from kronjl.gf2 import enumerate_subspaces, indicator, orthogonal_complement
from kronjl.indexing import KronDims
from kronjl.rip import check_submatrix_bound, rip_constant
from kronjl.sparsify import check_fiber_sparsity, check_max_sum_inequalities, split
from kronjl.transforms import (
    apply_dense,
    apply_factored,
    build_operator,
    kron_materialize,
    materialize,
)

from theory_oracles import (
    check_expectation_bound,
    exact_chaos_moments,
    partition_norm,
    scaling_exponent_report,
)


def test_criterion_01_hadamard_identities():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    worst_gram = 0.0
    worst_inv = 0.0
    sizes = [2 << i for i in range(10)]  # 2 .. 1024
    for n in sizes:
        h = hadamard_matrix(n)
        worst_gram = max(worst_gram, float(np.max(np.abs(h.T @ h - np.eye(n)))))
        for _ in range(3):
            x = rng.standard_normal(n)
            rel = np.linalg.norm(fwht(fwht(x)) - x) / np.linalg.norm(x)
            worst_inv = max(worst_inv, float(rel))
    wall = time.monotonic() - t0
    assert worst_gram <= 1e-12
    assert worst_inv <= 1e-12
    assert wall < 10.0
    print(f"[criterion 01] PASS gram dev {worst_gram:.2e}, "
          f"involution rel {worst_inv:.2e}, {len(sizes)} sizes, "
          f"wall {wall:.2f}s")


def test_criterion_02_factored_path_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    worst = 0.0
    for trial in range(1000):
        order = int(rng.integers(1, 4))
        dims = tuple(int(2 ** rng.integers(1, 5)) for _ in range(order))
        n = math.prod(dims)
        m = int(rng.integers(1, 2 * n + 1))
        op = build_operator(dims, m, seed=trial)
        factors = [rng.standard_normal(d) for d in dims]
        ya = apply_factored(op, factors)
        yb = apply_dense(op, kron_materialize(factors))
        rel = np.linalg.norm(ya - yb) / max(np.linalg.norm(yb), 1e-300)
        worst = max(worst, float(rel))
    wall = time.monotonic() - t0
    assert worst <= 1e-10
    assert wall < 30.0
    print(f"[criterion 02] PASS 1000 trials, worst rel {worst:.2e}, "
          f"wall {wall:.2f}s")


def test_criterion_03_subspace_fourier_duality():
    t0 = time.monotonic()
    checked = 0
    worst = 0.0
    for n in range(1, 6):
        for v in enumerate_subspaces(n):
            dev = float(np.max(np.abs(
                fwht(indicator(v)) - indicator(orthogonal_complement(v))
            )))
            worst = max(worst, dev)
            checked += 1
    wall = time.monotonic() - t0
    assert worst <= 1e-12
    assert checked == 2 + 5 + 16 + 67 + 374  # subspace counts for n = 1..5
    print(f"[criterion 03] PASS {checked} subspaces, worst dev "
          f"{worst:.2e}, wall {wall:.2f}s")


def test_criterion_04_lower_bound_probability():
    t0 = time.monotonic()
    trials = 10**4
    frozen = failure_probability_exact(4, 2, 16)
    assert abs(frozen.prob - 0.35607) < 5e-6
    worst_sigmas = 0.0
    for d in (1, 2):
        for m in (4, 8, 16, 32):
            ex = failure_probability_exact(4, d, m)
            assert ex.lower_bound <= ex.prob + 1e-15
            emp = failure_probability_empirical(
                (3,) * d, 2, m, trials, seed=1000 * d + m
            )
            sigma = math.sqrt(ex.prob * (1.0 - ex.prob) / trials)
            pull = abs(emp.estimate - ex.prob) / sigma
            worst_sigmas = max(worst_sigmas, pull)
            assert pull <= 3.0
    wall = time.monotonic() - t0
    assert wall < 120.0
    print(f"[criterion 04] PASS 8 cells x {trials} trials, worst pull "
          f"{worst_sigmas:.2f} sigma, exact(4,2,16) {frozen.prob:.5f}, "
          f"wall {wall:.2f}s")


def test_criterion_05_jl_monotone_sweep():
    t0 = time.monotonic()
    trials = 10**4
    records = harness.jl_failure_sweep(
        (16, 16), (8, 16, 32, 64, 128), (0.5,), trials, seed=11
    )
    worst_rise = -math.inf
    for family in harness.FAMILIES:
        cells = sorted(
            (r for r in records if r.family == family), key=lambda r: r.m
        )
        assert [c.m for c in cells] == [8, 16, 32, 64, 128]
        for a, b in zip(cells, cells[1:]):
            rise = b.eta_hat - a.eta_hat
            slack = 3.0 * math.sqrt(a.stderr**2 + b.stderr**2)
            worst_rise = max(worst_rise, rise - slack)
            assert rise <= slack
    wall = time.monotonic() - t0
    assert wall < 300.0
    print(f"[criterion 05] PASS {len(records)} cells x {trials} trials, "
          f"worst rise-minus-slack {worst_rise:.4f}, wall {wall:.2f}s")


def test_criterion_06_scaling_exponent():
    t0 = time.monotonic()
    rep = scaling_exponent_report(seed=424242)
    wall = time.monotonic() - t0
    assert 1.5 <= rep.slope_ratio <= 3.0
    d1 = [(p, round(m, 1)) for _, p, m in rep.cells_d1]
    d2 = [(p, round(m, 1)) for _, p, m in rep.cells_d2]
    print(f"[criterion 06] PASS slope d1 {rep.slope_d1:.3f} over {d1}, "
          f"slope d2 {rep.slope_d2:.3f} over {d2}, ratio "
          f"{rep.slope_ratio:.3f} in [1.5, 3], wall {wall:.2f}s")


def test_criterion_07_rip_machinery():
    t0 = time.monotonic()
    for n in (8, 16):
        for s in (1, 2, 3):
            assert rip_constant(np.eye(n), s).delta == 0.0
    worst_margin = math.inf
    for k in range(50):
        m = (4, 8, 12)[k % 3]
        phi = materialize(build_operator((16,), m, seed=k))
        deltas = {s: rip_constant(phi, s).delta for s in (1, 2, 3, 4, 6)}
        assert deltas[1] <= deltas[2] <= deltas[3] <= deltas[4] <= deltas[6]
        for s in (1, 2, 3):
            rep = check_submatrix_bound(
                phi, s, delta=deltas[2 * s], budget=400_000, seed=k
            )
            assert rep.exhaustive and rep.ok
            worst_margin = min(worst_margin, deltas[2 * s] - rep.worst_norm)
    wall = time.monotonic() - t0
    print(f"[criterion 07] PASS identity deltas exact zero, 50 instances "
          f"exhaustive at s<=3, smallest bound margin {worst_margin:.2e}, "
          f"wall {wall:.2f}s")


def test_criterion_08_sparsification():
    t0 = time.monotonic()
    rng = np.random.default_rng(808)
    combos = [((4, 4), 2), ((4, 4), 3), ((2, 4, 2), 2), ((2, 4, 2), 3)]
    per_combo = 2500
    for shape, s in combos:
        for _ in range(per_combo):
            x = rng.standard_normal(shape)
            sp = split(x, s)
            assert np.array_equal(sp.reconstruct(), x)
            occupancy = sum(
                (part != 0).astype(np.int64) for part in sp.parts.values()
            )
            assert np.max(occupancy) <= 1
            assert check_fiber_sparsity(sp).ok
            assert check_max_sum_inequalities(x, sp).ok
    wall = time.monotonic() - t0
    print(f"[criterion 08] PASS {per_combo * len(combos)} arrays over "
          f"{len(combos)} (dims, s) combos, zero violations, "
          f"wall {wall:.2f}s")


def test_criterion_09_chaos_oracles():
    t0 = time.monotonic()
    rng = np.random.default_rng(909)

    # partition norms vs direct Frobenius / spectral computations
    coarse2 = SetPartition((frozenset({1, 2}),))
    fine2 = SetPartition((frozenset({1}), frozenset({2})))
    worst = 0.0
    for _ in range(100):
        mat = rng.standard_normal((7, 5))
        frob = math.sqrt(float(np.sum(mat * mat)))
        spectral = float(np.linalg.svd(mat, compute_uv=False)[0])
        worst = max(worst, abs(partition_norm(mat, coarse2) - frob))
        worst = max(worst, abs(partition_norm(mat, fine2) - spectral))
    assert worst <= 1e-10

    # merging blocks never decreases the norm
    coarse3 = SetPartition((frozenset({1, 2, 3}),))
    mid3 = SetPartition((frozenset({1}), frozenset({2, 3})))
    fine3 = SetPartition((frozenset({1}), frozenset({2}), frozenset({3})))
    for _ in range(1000):
        arr = rng.standard_normal((3, 4, 2))
        nc = partition_norm(arr, coarse3)
        nm = partition_norm(arr, mid3)
        nf = partition_norm(arr, fine3, restarts=6)
        assert nc >= nm - 1e-10
        assert nm >= nf - 1e-10

    # coupled Monte Carlo moments vs exact enumeration of 2^12 patterns
    g = rng.standard_normal((12, 12))
    coeffs = ChaosCoefficients.from_gram(KronDims((12,)), (g + g.T) / 2.0)
    exact = exact_chaos_moments(coeffs, "coupled", (2.0, 4.0))
    mc = estimate_chaos_moments(
        coeffs, "coupled", (2.0, 4.0), trials=20000, seed=5
    )
    pulls = [
        abs(a - b) / s
        for a, b, s in zip(mc.estimates, exact.estimates, mc.stderrs)
    ]
    assert max(pulls) <= 3.0

    # partition-size counting inequality, exhaustively per order
    for d in (1, 2, 3):
        assert check_partition_counting(d).ok

    # expectation of the distortion chaos against the delta_1 cap
    for k in range(1000):
        phi = materialize(build_operator((16,), 8, seed=k))
        x = rng.standard_normal(16)
        x /= np.linalg.norm(x)
        assert check_expectation_bound(phi, x).ok

    wall = time.monotonic() - t0
    print(f"[criterion 09] PASS norms dev {worst:.2e}, merge x1000, "
          f"moment pulls {[round(p, 2) for p in pulls]} sigma, counting "
          f"d<=3, expectation x1000, wall {wall:.2f}s")


def test_criterion_10_reproducibility():
    t0 = time.monotonic()

    def jl_csv():
        recs = harness.jl_failure_sweep(
            (4, 4), (4, 8), (0.25, 0.5), 200, seed=10
        )
        return harness.sweep_to_csv(recs)

    def point_csv():
        reps = harness.pointset_preservation(
            (4, 4), 6, (8,), (0.5,), 300, seed=20)
        return harness.pointset_to_csv(reps)

    def lb_csv():
        recs = harness.lower_bound_sweep(3, 2, (1, 2), (4, 8), 500, seed=30)
        return harness.lower_bound_to_csv(recs)

    def rip_json():
        return harness.report_to_json(
            harness.run_report("rip", seed=40, dims=(16,), m=8, s=2)
        )

    def chaos_json():
        return harness.report_to_json(
            harness.run_report("chaos", seed=50, dims=(4,), m=4, trials=400)
        )

    def partition_json():
        return harness.report_to_json(harness.run_report("partition", d=2))

    writers = [
        ("jl_csv", jl_csv), ("point_csv", point_csv), ("lb_csv", lb_csv),
        ("rip_json", rip_json), ("chaos_json", chaos_json),
        ("partition_json", partition_json),
    ]
    for name, fn in writers:
        first, second = fn(), fn()
        assert first == second, f"{name} rerun differs"
        if name.endswith("json"):
            json.loads(first)
    wall = time.monotonic() - t0
    print(f"[criterion 10] PASS byte-identical reruns for "
          f"{[name for name, _ in writers]}, wall {wall:.2f}s")
