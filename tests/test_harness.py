"""Harness tests: option merging, sweep determinism, CSV texture,
pointset union bound, lower-bound sweep consistency, JSON reports."""

import itertools
import json
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from kronjl import harness
from kronjl.adversarial import failure_probability_exact
from kronjl.errors import BudgetError, ConfigError
from kronjl.fwht import fwht_axis, hadamard_matrix
from kronjl.indexing import KronDims
from kronjl import indexing, rand, transforms
from kronjl.transforms import kron_materialize

from theory_oracles import (
    ROW_SCAN_START,
    adversarial_joint_norm_failure,
    kron_combinations,
    kron_sign_patterns,
    required_embedding_rows,
    required_rows_adversarial,
    scaling_exponent_report,
    _adversarial_rates,
    _family_energies,
    _scan_interpolate,
)


# ------------------------------------------------------------------ options


def test_merge_flags_win():
    merged = harness.merge_options(
        {"trials": 100, "seed": 1}, {"trials": 200, "seed": None}
    )
    assert merged["trials"] == 200
    assert merged["seed"] == 1


def test_merge_unknown_key_named():
    with pytest.raises(ConfigError, match="mystery"):
        harness.merge_options({"mystery": 3}, {})


def test_merge_parses_lists_and_dims():
    merged = harness.merge_options(
        {}, {"dims": "4x8", "m": "8,16", "eps": "0.25,0.5", "family": "kron",
             "seed": "0", "nu": "0.2"}
    )
    assert merged["seed"] == 0
    assert merged["nu"] == 0.2
    assert merged["dims"] == KronDims((4, 8))
    assert merged["m"] == (8, 16)
    assert merged["eps"] == (0.25, 0.5)
    assert merged["family"] == ("kron",)
    # YAML lists: an integer is a number too
    merged = harness.merge_options({}, {"m": [8, 16], "eps": [1, 0.5]})
    assert merged["m"] == (8, 16)
    assert merged["eps"] == (1.0, 0.5)
    # dims from either text form, a YAML list or a YAML number
    for dims in ("4x8x2", "4,8,2", " 4, 8,2", [4, 8, 2], ["4", 8, 2]):
        merged = harness.merge_options({"dims": dims}, {})
        assert merged["dims"] == KronDims((4, 8, 2))
    assert harness.merge_options({"dims": 16}, {})["dims"] == KronDims((16,))
    # names: one reader for families and baselines alike
    merged = harness.merge_options(
        {"family": ["onehot", "kron"]}, {"baseline": "gaussian"}
    )
    assert merged["family"] == ("onehot", "kron")
    assert merged["baseline"] == ("gaussian",)


def test_merge_rejects_bad_values():
    with pytest.raises(ConfigError, match="dims"):
        harness.merge_options({}, {"dims": "3,4"})
    with pytest.raises(ConfigError, match="m"):
        harness.merge_options({}, {"m": "8,zebra"})
    with pytest.raises(ConfigError, match="eps"):
        harness.merge_options({}, {"eps": "-0.5"})
    with pytest.raises(ConfigError, match="family"):
        harness.merge_options({}, {"family": "kron,spiral"})
    with pytest.raises(ConfigError, match="baseline"):
        harness.merge_options({}, {"baseline": "lasers"})
    with pytest.raises(ConfigError, match="seed"):
        harness.merge_options({}, {"seed": "abc"})
    with pytest.raises(ConfigError, match="nu"):
        harness.merge_options({}, {"nu": "abc"})
    with pytest.raises(ConfigError, match="trials"):
        harness.merge_options({}, {"trials": "10,20"})
    # a YAML boolean is no number, as a scalar or as a list item
    with pytest.raises(ConfigError, match="^trials:"):
        harness.merge_options({"trials": True}, {})
    with pytest.raises(ConfigError, match="^m:"):
        harness.merge_options({"m": [8, True]}, {})
    with pytest.raises(ConfigError, match="^eps:"):
        harness.merge_options({"eps": [0.5, False]}, {})
    # non-finite values, from a flag or from YAML
    for bad in ("nan", "inf", "0.5,inf", float("nan"), [0.5, float("inf")]):
        with pytest.raises(ConfigError, match="^eps:"):
            harness.merge_options({}, {"eps": bad})
    with pytest.raises(ConfigError, match="^nu:"):
        harness.merge_options({}, {"nu": "nan"})
    # a list item is checked as a scalar is, not truncated
    with pytest.raises(ConfigError, match="^m:"):
        harness.merge_options({"m": 4.7}, {})
    with pytest.raises(ConfigError, match="^m:"):
        harness.merge_options({"m": [4.7, 8]}, {})
    # a dims item is read as any other integer is
    for bad in ([4.5, 2], [True, 2], [4, None], "4x2.5", "4xx2", []):
        with pytest.raises(ConfigError, match="^dims:"):
            harness.merge_options({"dims": bad}, {})
    with pytest.raises(ConfigError, match="^dims: values must be positive"):
        harness.merge_options({}, {"dims": "0x4"})
    with pytest.raises(ConfigError, match="^dims: axis lengths must be"):
        harness.merge_options({}, {"dims": [4, 6]})
    # names from YAML are checked as names from a flag are
    for field, bad in (("family", ["kron", 3]), ("family", []),
                       ("baseline", ["kfjlt", "lasers"]), ("baseline", True)):
        with pytest.raises(ConfigError, match=f"^{field}:"):
            harness.merge_options({field: bad}, {})


def test_load_config(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("dims: '4,4'\ntrials: 50\n")
    assert harness.load_config(str(path)) == {"dims": "4,4", "trials": 50}
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    assert harness.load_config(str(empty)) == {}
    bad = tmp_path / "bad.yaml"
    bad.write_text("- 1\n- 2\n")
    with pytest.raises(ConfigError):
        harness.load_config(str(bad))
    with pytest.raises(ConfigError):
        harness.load_config(str(tmp_path / "missing.yaml"))


# ----------------------------------------------------------------- jl sweep


def test_csv_header_exact_bytes():
    assert (
        harness.CSV_HEADER
        == "family,d,dims,N,m,eps,trials,failures,eta_hat,stderr,seed,wall_ms"
    )


def test_csv_data_rows_exact_bytes():
    # one literal data row per format: the bytes the CSV readers depend on
    sweep = harness.jl_failure_sweep(
        (4, 2), (3,), (0.5,), trials=200, seed=11, families=("kron",)
    )
    assert harness.sweep_to_csv(sweep).splitlines()[1] == (
        "kron,2,4x2,8,3,0.5,200,108,0.54,0.035242020373412196,11,0"
    )
    pointset = harness.pointset_preservation(
        (4, 2), 4, (8,), (0.5,), trials=300, seed=9
    )
    assert harness.pointset_to_csv(pointset).splitlines()[1] == (
        "kron,4,2,4x2,8,8,0.5,300,214,0.7133333333333334,"
        "0.02610803764417444,0.205,2.46,0,9,0"
    )
    bound = harness.lower_bound_sweep(
        bits=4, r=2, d_values=(2,), m_values=(4, 2048), trials=400, seed=8,
    )
    assert harness.lower_bound_to_csv(bound).splitlines()[1:] == [
        "4,2,4,2,4,0.7724761962890625,0.6065306597126334,0.8125,"
        "0.019515618744994995,400,1,8,0",
        "4,2,4,2,2048,3.9552511611106926e-58,6.616261056709485e-112,0.0,"
        "0.0,400,0,8,0",
    ]


def test_sweep_rerun_byte_identical():
    args = dict(
        dims=(4, 4), m_values=(4, 8), eps_values=(0.5,), trials=400, seed=21
    )
    a = harness.sweep_to_csv(harness.jl_failure_sweep(**args))
    b = harness.sweep_to_csv(harness.jl_failure_sweep(**args))
    assert a == b
    assert a.startswith(harness.CSV_HEADER + "\n")
    assert a.endswith("\n")


def test_sweep_rows_sorted_and_complete():
    recs = harness.jl_failure_sweep(
        (4, 4), (8, 4), (0.5, 0.25), trials=100, seed=2,
        families=("onehot", "kron"),
    )
    keys = [(r.family, r.m, r.eps) for r in recs]
    assert keys == sorted(keys)
    assert len(recs) == 8
    for r in recs:
        assert 0.0 <= r.eta_hat <= 1.0
        assert r.stderr == pytest.approx(
            math.sqrt(r.eta_hat * (1 - r.eta_hat) / r.trials)
        )
        assert r.wall_ms == 0


def test_sweep_onehot_never_fails():
    # a one-hot input spreads perfectly: every transformed entry has
    # magnitude N^{-1/2}, so the sampled energy is exactly 1
    recs = harness.jl_failure_sweep(
        (4, 2), (2, 4, 7), (0.01,), trials=500, seed=5, families=("onehot",)
    )
    assert all(r.failures == 0 for r in recs)


@pytest.mark.parametrize("dims", [(4, 4), (8, 16), (2, 2, 2, 2), (256,)])
def test_sweep_onehot_never_fails_at_any_eps_below_one(dims):
    # every entry of H D_xi e_i is +-1/sqrt(N), whatever the draw
    recs = harness.jl_failure_sweep(
        dims, (1, 3, 16, 64), (0.01, 0.5, 0.99), trials=50, seed=2,
        families=("onehot",)
    )
    assert len(recs) == 12
    assert all(r.failures == 0 for r in recs)


def _multisets(n, m):
    """Every multiset of m rows out of n as a (count, n) matrix of row
    counts, with the probability of drawing it in m i.i.d. uniform rows."""
    idx = np.array(list(itertools.combinations_with_replacement(range(n), m)))
    k = idx.shape[0]
    counts = np.bincount((idx + n * np.arange(k)[:, None]).ravel(),
                         minlength=k * n).reshape(k, n)
    fact = np.array([math.factorial(i) for i in range(m + 1)], dtype=float)
    weights = math.factorial(m) / np.prod(fact[counts], axis=1) / n**m
    return counts.astype(float), weights


def _exact_failure(dims, x, m, eps):
    """Exact P(|‖Ax‖^2 - 1| > eps) over the Kronecker signs and the m
    rows. Flipping one axis's whole sign factor leaves (H D_xi x)^2
    unchanged, so one pattern per class, with its first entry on every
    axis +1, stands for the 2^d of it; every multiset of rows is scored
    against a block of patterns at once."""
    n = dims.total
    axes = [kron_sign_patterns((k,)) for k in dims]
    signs = kron_combinations([p[p[:, 0] > 0] for p in axes])
    v = (hadamard_matrix(n) @ (signs * x).T) ** 2  # (N, patterns)
    counts, weights = _multisets(n, m)
    fails = sum(weights @ np.count_nonzero(
        np.abs(n / m * (counts @ v[:, lo:lo + 64]) - 1.0) > eps, axis=1)
        for lo in range(0, v.shape[1], 64))
    return fails / v.shape[1]


@pytest.mark.parametrize("dims, m_values", [
    ((4, 4), (2, 4, 6)), ((2, 2, 2, 2), (2, 4, 6)), ((8, 4), (2, 4)),
])
def test_sweep_cells_match_their_exact_failure(dims, m_values):
    # a fixed grid and seed, not chosen to pass: eps 0.5, seed 3, 20,000
    # trials, every family; onehot cells are exactly 0
    dims, trials = KronDims(dims), 20_000
    for rec in harness.jl_failure_sweep(dims, m_values, (0.5,), trials, seed=3):
        x = kron_materialize(harness._family_factors(rec.family, dims, 3))[0]
        exact = _exact_failure(dims, x, rec.m, 0.5)
        sigma = math.sqrt(exact * (1.0 - exact) / trials)
        assert abs(rec.eta_hat - exact) <= 4 * sigma, (rec, exact)


def test_sweep_chunking_does_not_change_counts(monkeypatch):
    args = dict(
        dims=(2, 4), m_values=(4,), eps_values=(0.5,), trials=333, seed=13,
        families=("kron", "onehot"),
    )
    ps_args = dict(dims=(4, 2), n_points=5, m_values=(8,), eps_values=(0.5,),
                   trials=301, seed=3)
    base = harness.jl_failure_sweep(**args)
    base_ps = harness.pointset_preservation(**ps_args)
    monkeypatch.setattr(indexing, "_BLOCK_BYTES", 1)
    small = harness.jl_failure_sweep(**args)
    assert [r.failures for r in base] == [r.failures for r in small]
    assert harness.pointset_preservation(**ps_args) == base_ps


@pytest.mark.parametrize("family", ["kron", "onehot", "dense"])
@pytest.mark.parametrize("points", [1, 5])
def test_trial_coordinates_do_not_depend_on_the_block_size(
        monkeypatch, family, points):
    # 13 trials, on one thread and on two. A rank-one span is sized by its
    # per-axis work, a dense one by its output, which hadamard_rows fills
    # in blocks of rows: at the default budget one span (and at N = 128
    # one block); at a budget of three trials' work, rank-one spans of
    # 3, 3, 3, 3 and the one trial left over, and one dense span in blocks
    # of three trials' rows; at three dense rows, blocks of three rows,
    # which at 5 points straddle trials; at 1 byte, spans of one trial and
    # blocks of one row, whose transforms are one-row products
    dims = KronDims((8, 16))
    pts = harness._family_factors(family, dims, seed=4, count=points)
    width = dims.total if family == "dense" else sum(dims) + 8

    def coords(budget, two_threads):
        monkeypatch.setattr(indexing, "_BLOCK_BYTES", budget)
        monkeypatch.setattr(transforms, "_TWO_THREADS", two_threads)
        rng = rand.substream(4, rand.TAG_EXPERIMENT)
        return np.concatenate(list(harness._sampled_trials(dims, pts, 8, 13, rng)))

    want = coords(indexing._BLOCK_BYTES, False)
    assert want.shape == (13, points, 8)
    for budget, two_threads in itertools.product(
            (3 * 8 * points * width, 3 * 8 * width, 1), (False, True)):
        assert np.array_equal(coords(budget, two_threads), want)


def test_dense_cell_memory_does_not_grow_with_trials(monkeypatch):
    # 64 trials at N = 2^16 would be 32 MiB per length-N array formed for
    # the whole cell at once. One hadamard_rows call per span of trials
    # holds a few 1 MiB buffers per thread, on one thread and on two, for
    # one point and for a dense point set of five (2.5 MiB of points). A
    # span of 100 points at m = 8 is sized by its 100 x 100 Gram matrices,
    # not its entries: by its entries it would peak near 59 MiB
    def sweep():
        harness.jl_failure_sweep((64, 64, 16), (32,), (0.5,), 64, 0,
                                 families=("dense",))

    def pointset():
        harness.pointset_preservation((64, 64, 16), 5, (32,), (0.5,), 64, 0,
                                      family="dense")

    def many_points():
        harness.pointset_preservation((16, 16), 100, (8,), (0.5,), 500, 0,
                                      family="dense")

    for run, two_threads in itertools.product((sweep, pointset, many_points),
                                              (False, True)):
        monkeypatch.setattr(transforms, "_TWO_THREADS", two_threads)
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20, (run.__name__, two_threads)


def _length_n_trials(dims, pts, m, trials, rng):
    """Reference for _sampled_trials: the same draws, each point
    materialized and run through the length-N transform, then gathered."""
    signs = rand.rademacher_factors(rng, trials, dims)
    rows0 = rng.integers(0, dims.total, size=(trials, m))
    z = kron_materialize(signs)[:, None, :] * kron_materialize(pts)[None]
    w = fwht_axis(z, 2)
    return np.take_along_axis(w, rows0[:, None, :], axis=2)


@pytest.mark.parametrize("family", ["kron", "onehot"])
@pytest.mark.parametrize("dims", [(16,), (4, 8), (4, 8, 2), (2, 2, 4)])
@pytest.mark.parametrize("points", [1, 5])
def test_factored_trials_match_length_n_transform(family, dims, points):
    dims = KronDims(dims)
    pts = harness._family_factors(family, dims, seed=8, count=points)
    assert [f.shape for f in pts] == [(points, n) for n in dims]
    args = (dims, pts, 6, 37)
    got = np.concatenate(list(
        harness._sampled_trials(*args, rand.substream(8, rand.TAG_EXPERIMENT))
    ))
    want = _length_n_trials(*args, rand.substream(8, rand.TAG_EXPERIMENT))
    assert got.shape == (37, points, 6)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("dims", [(16,), (8, 32), (2048,), (64, 4, 8)])
@pytest.mark.parametrize("points", [1, 5])
def test_dense_trials_match_length_n_transform(dims, points):
    # dense points; at N >= 256 * 8, (2048,) and (64, 4, 8), the last
    # Sylvester block runs at the sampled rows only
    dims = KronDims(dims)
    pts = harness._family_factors("dense", dims, seed=3, count=points)
    args = (dims, pts, 8, 21)
    got = np.concatenate(list(
        harness._sampled_trials(*args, rand.substream(3, rand.TAG_EXPERIMENT))
    ))
    want = _length_n_trials(*args, rand.substream(3, rand.TAG_EXPERIMENT))
    assert got.shape == (21, points, 8)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_rank_one_families_allocate_nothing_of_length_n():
    # N = 2^30: one length-N float64 vector alone would be 8 GiB
    dims = (1024, 1024, 1024)
    tracemalloc.start()
    try:
        recs = harness.jl_failure_sweep(
            dims, (8,), (0.5,), trials=3, seed=1, families=("kron", "onehot")
        )
        [rep] = harness.pointset_preservation(
            dims, 3, (8,), (0.5,), trials=3, seed=1
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert [r.family for r in recs] == ["kron", "onehot"]
    # a one-hot input spreads perfectly at any N
    assert recs[1].failures == 0
    assert rep.valid_pairs == 3


def _peak_bytes(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dense_point_is_drawn_in_place():
    # an 8 MiB point is its own array and no temporary of its size, with
    # the bytes of v / norm(v) for v drawn from the family's substream
    dims = KronDims((1024, 1024))
    peak = _peak_bytes(lambda: harness._family_factors("dense", dims, 0))
    [[point]] = harness._family_factors("dense", dims, 0)
    assert peak <= 1.1 * point.nbytes
    rng = rand.substream(0, rand.TAG_VECTOR, harness.FAMILIES.index("dense"))
    v = rng.standard_normal(dims.total)
    assert np.array_equal(point, v / np.linalg.norm(v))


def test_oversized_points_and_trials_are_refused_before_allocating():
    # a 2 GiB dense point set is over the item cap, an 8 GiB
    # Gaussian-baseline trial (m = 64 at N = 2^24) is refused before its
    # 128 MiB point is built, and so is a cell's draw over the cap
    def dense():
        with pytest.raises(BudgetError, match="a dense point set of 1 x "
                           f"{1 << 28} needs {1 << 31} bytes, over the cap"):
            harness._family_factors("dense", KronDims((1 << 14, 1 << 14)), 0)

    def gaussian():
        with pytest.raises(BudgetError, match=f"needs {1 << 33} bytes"):
            harness.jl_failure_sweep((256, 256, 256), (64,), (0.5,), 1, 0,
                                     families=("kron",), baseline="gaussian")

    def draw():
        # a cell's up-front draw of 1025 trials x (8 signs + 2^17 - 8 rows)
        # is 1 MiB over the item cap, refused before a sign is drawn
        with pytest.raises(BudgetError, match=r"a cell's draw of 1025 trials "
                           r"x \(8 signs \+ 131064 rows\) needs 1074790400 bytes"):
            harness.jl_failure_sweep((4, 4), ((1 << 17) - 8,), (0.5,), 1025, 0,
                                     families=("kron",))

    for run in (dense, gaussian, draw):
        assert _peak_bytes(run) < 2**20


def test_sweep_validation():
    with pytest.raises(ConfigError):
        harness.jl_failure_sweep((4,), (4,), (0.5,), 100, 0, families=("x",))
    with pytest.raises(ConfigError):
        harness.jl_failure_sweep((4,), (4,), (0.5,), 100, 0, baseline="nope")
    with pytest.raises(ConfigError):
        harness.jl_failure_sweep((4,), (0,), (0.5,), 100, 0)
    with pytest.raises(ConfigError):
        harness.jl_failure_sweep((4,), (4,), (-0.5,), 100, 0)
    with pytest.raises(ConfigError):
        harness.jl_failure_sweep((4,), (4,), (0.5,), 0, 0)


@pytest.mark.parametrize("field, call", [
    ("m", lambda: harness.jl_failure_sweep(
        (4,), (4, 4), (0.5,), 10, 0, families=("kron",))),
    ("eps", lambda: harness.jl_failure_sweep((4,), (4,), (0.5, 0.5), 10, 0)),
    ("family", lambda: harness.jl_failure_sweep(
        (4,), (4,), (0.5,), 10, 0, families=("kron", "kron"))),
    ("d", lambda: harness.lower_bound_sweep(3, 1, (1, 1), (4,), 10, 0)),
    ("m", lambda: harness.lower_bound_sweep(3, 1, (1,), (4, 4), 10, 0)),
    pytest.param("m", lambda: harness.pointset_preservation(
        (4,), 3, (4, 8, 4), (0.5,), 10, 0), id="pointset-m"),
    pytest.param("eps", lambda: harness.pointset_preservation(
        (4,), 3, (4,), (0.5, 0.25, 0.5), 10, 0), id="pointset-eps"),
])
def test_library_sweeps_reject_repeated_cells(field, call):
    # a repeated value would draw the same stream and write its row twice
    with pytest.raises(ConfigError, match=f"^{field}: values must be distinct$"):
        call()


@pytest.mark.parametrize("field, call", [
    ("trials", lambda: harness.jl_failure_sweep((4,), (2,), (0.5,), 2.5, 0)),
    ("m", lambda: harness.jl_failure_sweep((4,), (2.5,), (0.5,), 2, 0)),
    ("trials", lambda: harness.jl_failure_sweep((4,), (2,), (0.5,), True, 0)),
    pytest.param("m", lambda: harness.pointset_preservation(
        (4,), 3, (4, 8.0), (0.5,), 10, 0), id="pointset-m"),
    ("trials", lambda: harness.lower_bound_sweep(3, 1, (1,), (4,), 10.0, 0)),
    ("m", lambda: harness.lower_bound_sweep(3, 1, (1,), (4.5,), 10, 0)),
    ("bits", lambda: harness.lower_bound_sweep(3.0, 1, (1,), (4,), 10, 0)),
    ("r", lambda: harness.lower_bound_sweep(3, 1.5, (1,), (4,), 10, 0)),
    ("d", lambda: harness.lower_bound_sweep(3, 1, (1, 1.5), (4,), 10, 0)),
    pytest.param("points", lambda: harness.pointset_preservation(
        (4,), 3.5, (4,), (0.5,), 10, 0), id="pointset-points"),
    ("r_dims", lambda: adversarial_joint_norm_failure(
        (1.5,), 4, 0.5, 10, 0)),
    ("r_dims", lambda: required_rows_adversarial(
        (True, 1), 0.5, 0.1, 10, 0)),
])
def test_library_sweeps_refuse_counts_that_are_not_integers(field, call):
    # unchecked, a float count fails deep inside with a bare TypeError,
    # and int() truncates an exponent
    with pytest.raises(ConfigError, match=f"^{field}: must be an integer"):
        call()


def test_gaussian_baseline_comparable_on_dense_family():
    # the structured transform should not beat fully random projections
    # beyond noise on dense inputs; log the gap, assert the 3 sigma band
    args = dict(
        dims=(8, 8), m_values=(16,), eps_values=(0.5,), trials=2500, seed=31,
        families=("dense",),
    )
    kf = harness.jl_failure_sweep(**args, baseline="kfjlt")[0]
    ga = harness.jl_failure_sweep(**args, baseline="gaussian")[0]
    gap = ga.eta_hat - kf.eta_hat
    print(f"gaussian - kfjlt eta gap: {gap:+.4f}")
    assert gap <= 3.0 * (ga.stderr + kf.stderr)


def test_gaussian_baseline_deterministic():
    args = dict(
        dims=(4,), m_values=(8,), eps_values=(0.5,), trials=200, seed=17,
        families=("dense",), baseline="gaussian",
    )
    a = harness.jl_failure_sweep(**args)
    b = harness.jl_failure_sweep(**args)
    assert [r.failures for r in a] == [r.failures for r in b]


def test_normal_block_draws_reproduce_one_draw():
    # the Gaussian baseline draws its normals a block of whole trials at a
    # time; that reads the stream as one draw does, whatever the blocks
    whole = rand.substream(6, rand.TAG_EXPERIMENT).standard_normal((197, 3, 5))
    rng = rand.substream(6, rand.TAG_EXPERIMENT)
    blocks = [rng.standard_normal((b, 3, 5)) for b in (1, 64, 64, 64, 4)]
    assert np.array_equal(np.concatenate(blocks), whole)


def test_gaussian_block_size_changes_no_byte(monkeypatch):
    # 150 trials of (32, 16) normals: one block at the default budget, one
    # trial per block at a 1-byte budget
    args = dict(dims=(4, 4), m_values=(4, 32), eps_values=(0.25, 0.5),
                trials=150, seed=3, baseline="gaussian")
    want = harness.sweep_to_csv(harness.jl_failure_sweep(**args))
    monkeypatch.setattr(indexing, "_BLOCK_BYTES", 1)
    assert harness.sweep_to_csv(harness.jl_failure_sweep(**args)) == want


# ----------------------------------------------------------------- pointset


def test_pointset_identical_points_skipped():
    # find a seed whose two one-hot points on N=2 collide, then the only
    # pair is degenerate: excluded rather than divided by zero
    dims = KronDims((2,))
    seed = next(
        s
        for s in range(100)
        if np.array_equal(*kron_materialize(
            harness._family_factors("onehot", dims, s, count=2)))
    )
    [rep] = harness.pointset_preservation(
        dims, 2, (4,), (0.5,), trials=50, seed=seed, family="onehot"
    )
    assert rep.skipped_pairs == 1
    assert rep.valid_pairs == 0
    assert rep.joint_failures == 0
    assert rep.union_bound == 0.0


def test_pointset_pairs_match_an_explicit_pair_loop():
    # twenty one-hot points on N = 16 coincide in some pairs and not in
    # others; each cell scores the pairs i < j of its own draws as a loop
    # over them does, and skips the coincident ones. A length-4 axis
    # transform scales by exactly 1/2, so the sampled entries are +-1/4,
    # and N / m is a power of two: both sides are exact, also where a
    # ratio sits on 1 +- eps
    dims, p, trials, seed = KronDims((4, 4)), 20, 400, 5
    pts = harness._family_factors("onehot", dims, seed, count=p)
    x = kron_materialize(pts)
    reps = harness.pointset_preservation(dims, p, (16, 32), (0.25, 0.5), trials,
                                         seed, family="onehot")
    fam = harness.FAMILIES.index("onehot")
    for rep, at in zip(reps, itertools.product(range(2), range(2))):
        rng = rand.substream(seed, rand.TAG_EXPERIMENT, fam, *at)
        g = np.concatenate(list(
            harness._sampled_trials(dims, pts, rep.m, trials, rng)))
        joint, pair_failures, valid = np.zeros(trials, dtype=bool), 0, 0
        for i, j in itertools.combinations(range(p), 2):
            base = np.sum((x[i] - x[j]) ** 2)
            if base == 0.0:
                continue
            valid += 1
            dist = dims.total / rep.m * np.sum((g[:, i] - g[:, j]) ** 2, axis=1)
            fails = np.abs(dist / base - 1.0) > rep.eps
            pair_failures += int(np.count_nonzero(fails))
            joint |= fails
        assert 0 < valid < p * (p - 1) // 2
        assert rep.valid_pairs + rep.skipped_pairs == p * (p - 1) // 2
        assert rep.valid_pairs == valid
        assert rep.pair_failures == pair_failures > 0
        assert rep.joint_failures == int(np.count_nonzero(joint))
        assert 0 < rep.joint_failures < trials


def test_pointset_setup_forms_two_pair_tables_at_most():
    # at 1024 points one (points, points) float table is 8 MiB; the
    # set-up forms the Gram matrix and one sum of its size, and keeps d0
    # and a boolean mask, an eighth of a table
    cells = []
    peak = _peak_bytes(lambda: cells.append(harness._pointset_cells(
        (4,), 1024, (4,), (0.5,), 2, 0, "kron", False)))
    assert peak < 20 * 2**20
    [rep] = cells[0]
    assert rep.valid_pairs + rep.skipped_pairs == 1024 * 1023 // 2


def test_pointset_cells_score_in_one_table_and_one_sum():
    # at 2048 points one (points, points) float table is 32 MiB; beside d0
    # and its mask the cells hold one table per trial of a span, reused
    # from span to span and scored in place, and one sum: about 3.3 tables
    table = 8 * 2048**2
    reps = []
    peak = _peak_bytes(lambda: reps.extend(harness._pointset_cells(
        (4,), 2048, (4,), (0.5,), 2, 0, "kron", False)))
    assert peak < 3.5 * table
    assert reps[0].valid_pairs + reps[0].skipped_pairs == 2048 * 2047 // 2


def test_pointset_spans_are_sized_by_the_tables_they_hold(monkeypatch):
    # a trial of 64 points holds two 32 KiB tables while it is scored: an
    # item cap of one table refuses the cell before its first span
    monkeypatch.setattr(indexing, "_ITEM_CAP", 8 * 64 * 64)
    cells = harness._pointset_cells((8,), 64, (4,), (0.5,), 3, 0, "kron", False)
    with pytest.raises(BudgetError, match="needs 65536 bytes"):
        next(cells)


def test_pointset_joint_below_union_bound():
    # per-sample: a joint failure needs at least one failing pair, so the
    # joint rate never exceeds p(p-1) times the pair rate
    [rep] = harness.pointset_preservation(
        (4, 4), 6, (32,), (0.6,), trials=800, seed=7
    )
    assert rep.joint_eta <= rep.union_bound + 1e-12
    assert rep.valid_pairs == 15
    assert 0.0 <= rep.joint_eta <= 1.0


def test_pointset_rerun_byte_identical():
    args = dict(dims=(4, 2), n_points=4, m_values=(8,), eps_values=(0.5,),
                trials=300, seed=9)
    a = harness.pointset_to_csv(harness.pointset_preservation(**args))
    b = harness.pointset_to_csv(harness.pointset_preservation(**args))
    assert a == b
    assert a.startswith(harness.POINTSET_HEADER + "\n")


def test_pointset_validation():
    with pytest.raises(ConfigError):
        harness.pointset_preservation((4,), 1, (4,), (0.5,), 10, 0)
    with pytest.raises(ConfigError):
        harness.pointset_preservation(
            (4,), 3, (4,), (0.5,), 10, 0, family="blob")
    # checked as a jl-sweep cell is
    for field, cell in (("m", ((0,), (0.5,), 10)),
                        ("eps", ((4,), (-1.0,), 10)),
                        ("trials", ((4,), (0.5,), 0))):
        with pytest.raises(ConfigError, match=f"^{field}: must be positive"):
            harness.pointset_preservation((4,), 3, *cell, 0)


def test_required_rows_scan_brackets_target():
    m_star, scan = required_embedding_rows(
        (16,), 4, eps=0.5, target=0.25, trials=400, seed=41
    )
    ms = [m for m, _ in scan]
    etas = [e for _, e in scan]
    assert ms == [2 * 2**i for i in range(len(ms))]
    assert etas[-1] <= 0.25
    assert all(e > 0.25 for e in etas[:-1])
    if len(ms) > 1:
        assert ms[-2] <= m_star <= ms[-1]
    else:
        assert m_star == float(ms[0])


def test_required_rows_budget():
    with pytest.raises(BudgetError):
        required_embedding_rows(
            # no eps this small is ever met, up to ROW_SCAN_CAP rows
            (16,), 4, eps=1e-9, target=1e-9, trials=100, seed=1
        )
    with pytest.raises(ConfigError):
        required_embedding_rows(
            (16,), 4, eps=0.5, target=1.5, trials=100, seed=1
        )
    # checked as a pointset is, before the scan divides by the trials
    for field, args in (("trials", ((16,), 4, 0.5, 0.25, 0)),
                        ("eps", ((16,), 4, 0.0, 0.25, 100)),
                        ("points", ((16,), 1, 0.5, 0.25, 100))):
        with pytest.raises(ConfigError, match=f"^{field}: "):
            required_embedding_rows(*args, seed=1)
    for field, args in (("trials", ((1,), 0.5, 0.2, 0)),
                        ("eps", ((1,), -0.5, 0.2, 100))):
        with pytest.raises(ConfigError, match=f"^{field}: must be positive"):
            required_rows_adversarial(*args, seed=1)
    with pytest.raises(ConfigError, match="^trials: must be positive"):
        scaling_exponent_report(seed=1, trials=0)


def test_row_scan_cells_are_pointset_cells():
    # scan cell k reads the stream of the pointset cell at m index k
    _, scan = required_embedding_rows(
        (16,), 4, eps=0.5, target=0.25, trials=400, seed=41
    )
    assert scan == [(2, 1.0), (4, 0.9675), (8, 0.805), (16, 0.4675),
                    (32, 0.19)]
    reps = harness.pointset_preservation(
        (16,), 4, (2, 4, 8, 16, 32), (0.5,), 400, 41
    )
    assert [eta for _, eta in scan] == [r.joint_eta for r in reps]


def test_row_scan_stops_at_its_first_row_count():
    rates = iter([0.05, 0.01])
    m_star, scan = _scan_interpolate(rates, 0.1, 100)
    assert m_star == float(ROW_SCAN_START)
    assert scan == [(ROW_SCAN_START, 0.05)]
    assert list(rates) == [0.01]


# ------------------------------------------------- adversarial norm scaling


def test_sign_rows_enumerate_all_kron_patterns():
    rows = kron_sign_patterns(KronDims((2, 2)))
    assert rows.shape == (16, 4)
    expected = {
        tuple(np.kron(f2, f1))
        for f1 in ([1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0])
        for f2 in ([1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0])
    }
    assert {tuple(r) for r in rows} == expected


def test_unnormalized_transform_of_sign_rows_is_exact():
    rows = kron_sign_patterns(KronDims((2, 4)))
    n = rows.shape[1]
    want = np.round(hadamard_matrix(n) * np.sqrt(n)) @ rows.T
    got = rows @ scipy.linalg.hadamard(n)
    assert np.array_equal(got, want.T)


@pytest.mark.parametrize("r_dims", [
    (1,), (2,), (3,), (1, 1), (1, 2), (2, 2),  # criterion 06's grids
    (1, 3), (1, 1, 1), (2, 1, 1),
])
def test_family_energies_match_length_n_transform(r_dims):
    # reference: the exact unnormalized length-N transform of every
    # member, squared over N^2
    dims = KronDims(tuple(1 << r for r in r_dims))
    n = dims.total
    wht = kron_sign_patterns(dims) @ scipy.linalg.hadamard(n)
    assert np.array_equal(_family_energies(dims), (wht / n) ** 2)


def test_adversarial_failure_matches_binomial_closed_form():
    # one axis of length 2: every family member transforms to +-e0 or
    # +-e1, so the joint failure is a plain binomial deviation event
    m, trials = 8, 20000
    k = np.arange(m + 1)
    pmf = np.array([math.comb(m, int(i)) for i in k]) / 2.0**m
    exact = float(pmf[np.abs(2.0 * k / m - 1.0) > 0.5].sum())
    assert exact == 18 / 256
    mc = adversarial_joint_norm_failure((1,), m, 0.5, trials, seed=5)
    sigma = math.sqrt(exact * (1 - exact) / trials)
    assert abs(mc - exact) <= 3 * sigma


def test_adversarial_failure_matches_multinomial_closed_form():
    # two axes of length 2, m = 4: all sixteen members transform to
    # signed basis vectors of R^4, so the joint failure is one minus the
    # probability that four uniform draws hit each coordinate once
    exact = 1.0 - math.factorial(4) / 4.0**4
    trials = 20000
    mc = adversarial_joint_norm_failure(
        (1, 1), 4, 0.5, trials, seed=9
    )
    sigma = math.sqrt(exact * (1 - exact) / trials)
    assert abs(mc - exact) <= 3 * sigma
    # and it dominates the aligned-member miss event
    assert mc + 3 * sigma >= (1 - 0.25) ** 4


def test_adversarial_failure_memory_does_not_grow_with_trials():
    # 300,000 trials of 32 rows would be 73 MiB of rows drawn at once
    tracemalloc.start()
    try:
        adversarial_joint_norm_failure((1,), 32, 0.5, 300_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_adversarial_failure_determinism_and_validation():
    a = adversarial_joint_norm_failure((2,), 16, 0.5, 500, seed=3)
    b = adversarial_joint_norm_failure((2,), 16, 0.5, 500, seed=3)
    assert a == b
    with pytest.raises(ConfigError, match="r_dims"):
        adversarial_joint_norm_failure((0,), 8, 0.5, 100, seed=1)
    for field, cell in (("trials", (4, 0.5, 0)), ("m", (0, 0.5, 10)),
                        ("eps", (4, -1.0, 10))):
        with pytest.raises(ConfigError, match=f"^{field}: must be positive"):
            adversarial_joint_norm_failure((1,), *cell, seed=1)


def test_adversarial_family_budget():
    # (4, 3): 2^24 members x 128 columns would be a 16 GiB energy table
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="2\\^24 members x 128 columns "
                           "needs 1024 x 2\\^24 bytes"):
            adversarial_joint_norm_failure((4, 3), 64, 0.5, 10, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # (4,): the 2^16 x 16 table fits; a cell scores its trials from their
    # row counts, so at m = 256 it holds the 8 MiB table (built through
    # one temporary of its size) and little else
    tracemalloc.start()
    try:
        rate = adversarial_joint_norm_failure((4,), 256, 0.5, 2, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 17 * 2**20
    assert 0.0 <= rate <= 1.0
    assert adversarial_joint_norm_failure((4,), 240, 0.5, 1, seed=1) == 1.0


def _gathered_ratios(r_dims, m_values, trials, seed):
    """Reference for _adversarial_rates: per m in turn, every member's
    energies gathered at each trial's rows and summed, (members, trials),
    a few trials at a time."""
    energy = _family_energies(KronDims(tuple(1 << r for r in r_dims)))
    n = energy.shape[1]
    for k, m in enumerate(m_values):
        rng = rand.substream(seed, rand.TAG_SAMPLES, len(r_dims), sum(r_dims), k)
        rows0 = rng.integers(0, n, size=(trials, m))
        yield np.concatenate([n / m * energy[:, rows0[lo:lo + 16]].sum(axis=2)
                              for lo in range(0, trials, 16)], axis=1)


@pytest.mark.parametrize("seed", [2, 7])
@pytest.mark.parametrize("r_dims", [(1,), (2,), (3,), (1, 1), (1, 2), (2, 2)])
def test_row_counts_score_as_the_gathered_sum(r_dims, seed):
    # the energies are dyadic with small numerators, so the count product
    # and the gathered sum are exact and must agree on every boundary hit
    m_values, trials = (1, 3, 16, 200), 200
    ratios = list(_gathered_ratios(r_dims, m_values, trials, seed))
    for eps in (0.25, 0.5, 0.75):
        want = [np.count_nonzero(np.any(np.abs(r - 1.0) > eps, axis=0)) / trials
                for r in ratios]
        got = list(_adversarial_rates(r_dims, m_values, eps, trials, seed))
        assert got == want


def test_required_rows_adversarial_scan():
    m_star, scan = required_rows_adversarial(
        (1,), eps=0.5, target=0.2, trials=600, seed=11
    )
    etas = [e for _, e in scan]
    assert etas[-1] <= 0.2
    assert all(e > 0.2 for e in etas[:-1])
    ms = [m for m, _ in scan]
    if len(ms) > 1:
        assert ms[-2] <= m_star <= ms[-1]


def test_scaling_report_structure():
    rep = scaling_exponent_report(seed=17, trials=400)
    assert [p for _, p, _ in rep.cells_d1] == [4, 16, 256]
    assert [p for _, p, _ in rep.cells_d2] == [16, 64, 256]
    stars_d1 = [m for _, _, m in rep.cells_d1]
    stars_d2 = [m for _, _, m in rep.cells_d2]
    assert stars_d1 == sorted(stars_d1)
    assert stars_d2 == sorted(stars_d2)
    assert rep.slope_d2 > rep.slope_d1 > 0
    assert rep == scaling_exponent_report(seed=17, trials=400)


# -------------------------------------------------------------- lower bound


def test_lower_bound_exact_column_consistent():
    recs = harness.lower_bound_sweep(
        bits=4, r=2, d_values=(2,), m_values=(16, 64, 256), trials=300, seed=5
    )
    assert len(recs) == 3
    for rec in recs:
        want = failure_probability_exact(4, 2, rec.m)
        assert rec.exact == pytest.approx(want.prob, rel=1e-12)
        assert rec.bound == pytest.approx(want.lower_bound, rel=1e-12)
        assert rec.bound <= rec.exact + 1e-15
        assert 0.0 <= rec.empirical <= 1.0


def test_lower_bound_flagging():
    # at m far below the threshold the empirical failure must stay high,
    # which is exactly the flagged condition
    recs = harness.lower_bound_sweep(
        bits=4, r=2, d_values=(2,), m_values=(4, 2048), trials=400, seed=8,
        nu=0.1,
    )
    low, high = recs
    assert low.flagged
    assert not high.flagged


def test_lower_bound_subspace_of_1024_words():
    # s = 2^10: the family's 2^{d s} point count overflows a float, and
    # the threshold must come from the exact count
    (rec,) = harness.lower_bound_sweep(
        bits=10, r=10, d_values=(1,), m_values=(4,), trials=20, seed=0
    )
    assert rec.s == 1024
    assert rec.flagged


def test_lower_bound_empty_grid():
    text = harness.lower_bound_to_csv(
        harness.lower_bound_sweep(
            bits=3, r=1, d_values=(), m_values=(4,), trials=10, seed=0
        )
    )
    assert text == harness.LOWER_BOUND_HEADER + "\n"


def test_lower_bound_validation():
    with pytest.raises(ConfigError):
        harness.lower_bound_sweep(4, 5, (1,), (4,), 10, 0)
    with pytest.raises(ConfigError):
        harness.lower_bound_sweep(4, 2, (1,), (4,), 10, 0, nu=0.0)


def test_lower_bound_rerun_byte_identical():
    args = dict(bits=3, r=2, d_values=(1,), m_values=(8,), trials=200, seed=3)
    a = harness.lower_bound_to_csv(harness.lower_bound_sweep(**args))
    b = harness.lower_bound_to_csv(harness.lower_bound_sweep(**args))
    assert a == b


# ------------------------------------------------------------------ reports


def test_rip_report_document():
    doc = harness.run_report("rip", seed=7, dims="16", m=8, s=2)
    assert doc["schema"] == "kronjl.report.v1"
    assert doc["kind"] == "rip"
    assert 0.0 <= doc["delta"]
    assert len(doc["witness_support"]) == 2
    again = harness.run_report("rip", seed=7, dims="16", m=8, s=2)
    assert harness.report_to_json(doc) == harness.report_to_json(again)


def test_chaos_report_zero_coefficients(monkeypatch):
    # orthonormal columns give a vanishing hollow Gram: zero moments
    monkeypatch.setattr(harness, "materialize", lambda op: np.eye(16))
    doc = harness.run_report("chaos", seed=1, dims="4,4", m=16, trials=200)
    assert doc["estimates"] == [0.0, 0.0]
    assert doc["mean"] == 0.0


def test_partition_report():
    doc = harness.run_report("partition", d=2)
    assert doc["violations"] == 0
    assert doc["ok"] is True
    text = harness.report_to_json(doc)
    assert json.loads(text)["kind"] == "partition"
    assert text.endswith("\n")


def test_report_validation():
    with pytest.raises(ConfigError):
        harness.run_report("sideways", seed=0)
    with pytest.raises(ConfigError):
        harness.run_report("rip", seed=0, dims="16")
    with pytest.raises(ConfigError, match="partition report needs d"):
        harness.run_report("partition", seed=0)
    # a partition report draws nothing, so it reads no seed
    with pytest.raises(ConfigError, match="seed: not an option"):
        harness.run_report("partition", d=2, seed=0)


# ----------------------------------------------------------------- selftest


def test_selftest_all_green():
    results = harness.selftest()
    assert len(results) == 5
    for name, ok, detail in results:
        assert ok, f"{name}: {detail}"


@pytest.mark.parametrize("check,name,broken,detail", [
    ("fwht-identities", "hadamard_matrix", lambda n: np.ones((n, n)),
     "orthonormality at 2"),
    ("subspace-duality", "orthogonal_complement", lambda v: v,
     "duality n=2"),
    ("operator-roundtrip", "materialize", lambda op: np.zeros((6, 16)),
     "dense/materialized mismatch"),
    ("fiber-split", "check_fiber_sparsity",
     lambda sp: SimpleNamespace(ok=False), "fiber bound"),
])
def test_selftest_names_each_broken_check(monkeypatch, check, name, broken,
                                          detail):
    monkeypatch.setattr(harness, name, broken)
    failed = [(c, d) for c, ok, d in harness.selftest() if not ok]
    assert failed == [(check, detail)]
