"""Experiment layer: seeded Monte Carlo sweeps with CSV/JSON output.

Reproducibility contract: a run is a pure function of its configuration
and master seed. Every random draw comes from a named substream, and each
sweep cell draws its whole trial block up front in a fixed order (sign
factors by ascending axis, then sample rows), so chunking of the later
arithmetic can never change the bytes written. jl-sweep and pointset share
that trial loop (`_sampled_trials`), and every CSV format is written by one
writer from its header's column names (`_to_csv`). The Gaussian baseline
cannot afford whole-cell draws at large trial counts; it consumes its
stream in fixed-size blocks of GAUSSIAN_CHUNK trials instead, which keeps
the draw order independent of how the arithmetic is batched.

Test points are kept as factors (`_family_factors`). The rank-one families
(kron, onehot) run from their per-axis factors: each axis is transformed on
its own and the sampled entries are products of per-axis entries, so their
cells allocate nothing of length N, and a pointset's base Gram matrix is
the product of per-axis Gram matrices. Only dense points run length-N
work, and for the m sampled entries of their transform only
(hadamard_rows).
"""

import inspect
import itertools
import json
import math
import time
from dataclasses import dataclass

import numpy as np
import yaml

from . import rand
from .adversarial import (
    embedding_dim_threshold,
    failure_probability_empirical,
    failure_probability_exact,
)
from .chaos import (
    ChaosCoefficients,
    check_partition_counting,
    estimate_chaos_moments,
)
from .errors import BudgetError, ConfigError
from .fwht import fwht, fwht_axis, hadamard_matrix
from .gf2 import enumerate_subspaces, indicator, orthogonal_complement
from .indexing import KronDims, _group_positions
from .rip import rip_constant
from .sparsify import check_fiber_sparsity, split
from .transforms import (
    apply_dense,
    build_operator,
    hadamard_rows,
    kron_combinations,
    kron_materialize,
    kron_sign_patterns,
    materialize,
    sampled_entries,
)

__all__ = [
    "CSV_HEADER",
    "FAMILIES",
    "BASELINES",
    "REPORT_KINDS",
    "REPORT_USAGE",
    "COMMANDS",
    "SweepRecord",
    "PointsetReport",
    "LowerBoundRecord",
    "ScalingReport",
    "load_config",
    "merge_options",
    "jl_failure_sweep",
    "sweep_to_csv",
    "pointset_preservation",
    "pointset_to_csv",
    "lower_bound_sweep",
    "lower_bound_to_csv",
    "required_embedding_rows",
    "adversarial_joint_norm_failure",
    "required_rows_adversarial",
    "scaling_exponent_report",
    "run_report",
    "report_to_json",
    "run_command",
    "selftest",
    "write_text",
]

CSV_HEADER = "family,d,dims,N,m,eps,trials,failures,eta_hat,stderr,seed,wall_ms"
POINTSET_HEADER = (
    "family,points,d,dims,N,m,eps,trials,joint_failures,joint_eta,"
    "joint_stderr,pair_eta,union_bound,skipped_pairs,seed,wall_ms"
)
LOWER_BOUND_HEADER = (
    "s,d,bits,r,m,exact,bound,empirical,stderr,trials,flagged,seed,wall_ms"
)
REPORT_SCHEMA = "kronjl.report.v1"

FAMILIES = ("kron", "dense", "onehot")
BASELINES = ("kfjlt", "gaussian")

# fixed block sizes; GAUSSIAN_CHUNK is part of the reproducibility contract
GAUSSIAN_CHUNK = 64
APPLY_CHUNK = 512
ROW_SCAN_START = 2
ROW_SCAN_CAP = 4096
SCALING_EPS = 0.75
SCALING_TARGET = 0.1
SCALING_GRIDS = (("d1", ((1,), (2,), (3,))),
                 ("d2", ((1, 1), (1, 2), (2, 2))))


# ------------------------------------------------------------- configuration


def load_config(path):
    """Read a YAML mapping of option overrides."""
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must be a mapping")
    return data


def _parse_numbers(field, value, kind, allow_zero=False):
    """A tuple of `kind` values from a YAML number or list or a
    comma-separated string; each must be finite and positive (or zero, if
    allowed). Every item is read from its text, a list item as a scalar
    is, so a boolean is no number and 4.7 is no integer."""
    items = value if isinstance(value, (list, tuple)) else str(value).split(",")
    try:
        out = tuple(kind(str(v)) for v in items)
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise ConfigError(f"{field}: expected comma-separated {noun}")
    if not all(math.isfinite(v) for v in out):
        raise ConfigError(f"{field}: values must be finite")
    if not out or any(v < 0 or v == 0 and not allow_zero for v in out):
        sign = "non-negative" if allow_zero else "positive"
        raise ConfigError(f"{field}: values must be {sign}")
    return out


def _parse_one(field, value, kind, allow_zero=False):
    """One `kind` value, checked as by _parse_numbers."""
    out = _parse_numbers(field, value, kind, allow_zero)
    if len(out) != 1:
        raise ConfigError(f"{field}: expected one value, got {len(out)}")
    return out[0]


def _distinct(field, values):
    """`values`, each of which must appear once: a repeated cell would
    draw the same stream and write its row twice."""
    if len(set(values)) != len(values):
        raise ConfigError(f"{field}: values must be distinct")
    return values


def _parse_bool(field, value):
    if not isinstance(value, bool):
        raise ConfigError(f"{field}: expected true or false, got {value!r}")
    return value


def _parse_dims(field, value):
    """Power-of-two axis lengths from a YAML list or a '4x8x2' / '4,8,2'
    string; each item is read as _parse_numbers reads an integer."""
    if isinstance(value, KronDims):
        return value
    if not isinstance(value, (list, tuple)):
        value = str(value).replace("x", ",")
    dims = KronDims(_parse_numbers(field, value, int))
    for n in dims:
        if n & (n - 1):
            raise ConfigError(f"{field}: axis lengths must be powers of two")
    return dims


def _parse_choices(field, value, allowed):
    """A tuple of names from a YAML string or list or a comma-separated
    string; each must be one of `allowed`."""
    items = value if isinstance(value, (list, tuple)) else str(value).split(",")
    names = tuple(str(v).strip() for v in items)
    if not names or any(name not in allowed for name in names):
        raise ConfigError(
            f"{field}: expected {'|'.join(allowed)}, got {value!r}"
        )
    return names


_FIELD_PARSERS = {
    "dims": _parse_dims,
    "m": lambda f, v: _parse_numbers(f, v, int),
    "eps": lambda f, v: _parse_numbers(f, v, float),
    "trials": lambda f, v: _parse_one(f, v, int),
    "seed": lambda f, v: _parse_one(f, v, int, allow_zero=True),
    "out": lambda f, v: str(v),
    "family": lambda f, v: _parse_choices(f, v, FAMILIES),
    "baseline": lambda f, v: _parse_choices(f, v, BASELINES),
    "timing": _parse_bool,
    "points": lambda f, v: _parse_one(f, v, int),
    "bits": lambda f, v: _parse_one(f, v, int),
    "r": lambda f, v: _parse_one(f, v, int),
    "d": lambda f, v: _parse_numbers(f, v, int),
    "nu": lambda f, v: _parse_one(f, v, float),
    "kind": lambda f, v: str(v),
    "s": lambda f, v: _parse_one(f, v, int),
}


def merge_options(config, flags):
    """Combine a config mapping with flag overrides; flags win. Unknown
    keys and malformed values raise ConfigError naming the field; a value
    repeated in a list option is refused by the sweep or command that
    reads it."""
    merged = {}
    for source in (config, flags):
        for key, value in source.items():
            if value is None:
                continue
            if key not in _FIELD_PARSERS:
                raise ConfigError(f"unknown option {key!r}")
            merged[key] = _FIELD_PARSERS[key](key, value)
    return merged


# ------------------------------------------------------------- test vectors


def _family_factors(family, dims, seed, count=1):
    """`count` unit test points of the named family, drawn from the vector
    substream keyed by the family's canonical position, as factors whose
    kron_materialize is the (count, N) matrix of points.

    The rank-one families give one (count, n_l) factor per axis: kron
    normalizes a Gaussian factor per axis, and a one-hot vector is the
    product of one-hot factors at the F-order coordinates of its index.
    dense gives one (count, N) factor.
    """
    fam_idx = FAMILIES.index(family)
    rng = rand.substream(seed, rand.TAG_VECTOR, fam_idx)
    lengths = (dims.total,) if family == "dense" else dims.dims
    factors = [np.zeros((count, n)) for n in lengths]
    for i in range(count):
        if family == "onehot":
            at = np.unravel_index(
                int(rng.integers(0, dims.total)), dims.dims, order="F"
            )
            for f, c in zip(factors, at):
                f[i, c] = 1.0
        else:
            for f in factors:
                v = rng.standard_normal(f.shape[1])
                f[i] = v / np.linalg.norm(v)
    return factors


# ---------------------------------------------------------- trials and rows


def _sampled_trials(dims, pts, m, trials, rng):
    """Sampled, unscaled coordinates of fresh embeddings of the points.

    `pts` holds the points' factors (_family_factors). Draws every trial
    up front: per-axis signs by ascending axis, then the sample rows. Then
    yields, for chunks of trials in order, the m sampled entries of
    H D_xi p for each point p: (chunk, points, m).

    A rank-one point never becomes a length-N vector: H D_xi (x_1 (x) ...
    (x) x_d) is the Kronecker product of the H_l (xi_l * x_l), so each
    axis is transformed on its own and the entries are gathered at the
    bit fields of the rows (sampled_entries). Dense points, one length-N
    factor, meet the Kronecker product of the signs and go through
    hadamard_rows at their trial's rows: the high bits are transformed in
    full, and where m is small against N the last Sylvester block only at
    the m sampled rows.
    """
    points = pts[0].shape[0]
    signs = rand.rademacher_factors(rng, trials, dims)
    rows0 = rng.integers(0, dims.total, size=(trials, m))
    chunk = max(1, APPLY_CHUNK // points)
    for lo in range(0, trials, chunk):
        hi = min(lo + chunk, trials)
        xi = [f[lo:hi] for f in signs]
        if len(pts) == 1:  # one length-N factor: dense, or a single axis
            z = kron_materialize(xi)[:, None, :] * pts[0][None, :, :]
            rows = np.repeat(rows0[lo:hi], points, axis=0)
            ys = hadamard_rows(z.reshape(-1, dims.total), rows)
            yield ys.reshape(z.shape[:2] + (m,))
        else:
            ys = [fwht_axis(s[:, None, :] * f[None, :, :], 2)
                  for s, f in zip(xi, pts)]
            yield sampled_entries(ys, rows0[lo:hi, None, :])


def _csv_cell(value):
    if isinstance(value, KronDims):
        return "x".join(str(n) for n in value)
    if isinstance(value, bool):
        return str(int(value))
    return str(value)


def _to_csv(header, records):
    """CSV text: the header, then per record the attribute named by each
    header column, in header order."""
    cols = header.split(",")
    rows = [",".join(_csv_cell(getattr(r, c)) for c in cols) for r in records]
    return "\n".join([header] + rows) + "\n"


class _DimsColumns:
    """The d and N columns of a record over `dims`."""

    @property
    def d(self):
        return self.dims.order

    @property
    def N(self):
        return self.dims.total


# ---------------------------------------------------------------- jl sweeps


@dataclass(frozen=True)
class SweepRecord(_DimsColumns):
    family: str
    dims: KronDims
    m: int
    eps: float
    trials: int
    failures: int
    seed: int
    wall_ms: int

    @property
    def eta_hat(self):
        return self.failures / self.trials

    @property
    def stderr(self):
        eta = self.eta_hat
        return math.sqrt(eta * (1.0 - eta) / self.trials)


def _kfjlt_cell_failures(dims, x, m, eps, trials, rng):
    """One sweep cell: fresh (signs, rows) per trial, fixed x (factors)."""
    scale2 = dims.total / m
    failures = 0
    for g in _sampled_trials(dims, x, m, trials, rng):
        dist = scale2 * np.sum(g * g, axis=2) - 1.0
        failures += int(np.count_nonzero(np.abs(dist) > eps))
    return failures


def _gaussian_cell_failures(x, m, eps, trials, rng):
    """Gaussian baseline cell; draws in fixed GAUSSIAN_CHUNK blocks."""
    n = x.size
    failures = 0
    done = 0
    while done < trials:
        take = min(GAUSSIAN_CHUNK, trials - done)
        g = rng.standard_normal((take, m, n))
        y = g @ x / math.sqrt(m)
        dist = np.sum(y * y, axis=1) - 1.0
        failures += int(np.count_nonzero(np.abs(dist) > eps))
        done += take
    return failures


def _check_cells(m_values, eps_values, trials):
    """The sweep checks shared by jl-sweep and pointset cells."""
    if trials <= 0:
        raise ConfigError("trials: must be positive")
    if any(m <= 0 for m in m_values):
        raise ConfigError("m: must be positive")
    if any(e <= 0 for e in eps_values):
        raise ConfigError("eps: must be positive")
    _distinct("m", m_values)
    _distinct("eps", eps_values)


def jl_failure_sweep(dims, m_values, eps_values, trials, seed,
                     families=FAMILIES, baseline="kfjlt", timing=False):
    """Estimate P(|‖Ax‖^2 - 1| > eps) per (family, m, eps) cell over
    fresh operator draws; one record per cell, sorted by (family, m, eps)."""
    dims = KronDims(dims)
    if baseline not in BASELINES:
        raise ConfigError(f"baseline: unknown {baseline!r}")
    for fam in families:
        if fam not in FAMILIES:
            raise ConfigError(f"family: unknown {fam!r}")
    _distinct("family", families)
    _check_cells(m_values, eps_values, trials)
    records = []
    for family in families:
        fam_idx = FAMILIES.index(family)
        x = _family_factors(family, dims, seed)
        for m_idx, m in enumerate(m_values):
            for e_idx, eps in enumerate(eps_values):
                rng = rand.substream(
                    seed, rand.TAG_EXPERIMENT, fam_idx, m_idx, e_idx
                )
                t0 = time.perf_counter()
                if baseline == "kfjlt":
                    failures = _kfjlt_cell_failures(
                        dims, x, m, eps, trials, rng
                    )
                else:
                    failures = _gaussian_cell_failures(
                        kron_materialize(x)[0], m, eps, trials, rng
                    )
                wall = int(round((time.perf_counter() - t0) * 1000))
                records.append(
                    SweepRecord(
                        family=family, dims=dims, m=m, eps=eps,
                        trials=trials, failures=failures, seed=seed,
                        wall_ms=wall if timing else 0,
                    )
                )
    records.sort(key=lambda r: (r.family, r.m, r.eps))
    return records


def sweep_to_csv(records):
    return _to_csv(CSV_HEADER, records)


# ----------------------------------------------------------------- pointset


@dataclass(frozen=True)
class PointsetReport(_DimsColumns):
    family: str
    points: int
    dims: KronDims
    m: int
    eps: float
    trials: int
    joint_failures: int
    pair_failures: int
    valid_pairs: int
    skipped_pairs: int
    seed: int
    wall_ms: int

    @property
    def joint_eta(self):
        return self.joint_failures / self.trials

    @property
    def joint_stderr(self):
        eta = self.joint_eta
        return math.sqrt(eta * (1.0 - eta) / self.trials)

    @property
    def pair_eta(self):
        if self.valid_pairs == 0:
            return 0.0
        return self.pair_failures / (self.trials * self.valid_pairs)

    @property
    def union_bound(self):
        # the documented prediction: p (p - 1) eta_pair
        return self.points * (self.points - 1) * self.pair_eta


def pointset_preservation(dims, n_points, m, eps, trials, seed,
                          family="kron", timing=False, _cell=(0, 0)):
    """Pairwise-distance preservation over a fixed point set.

    Per trial a fresh operator embeds all points at once (the trial loop
    of jl-sweep); squared pair distances come from the embedded Gram
    matrix. A pair at distance zero cannot be distorted and is skipped
    (counted in skipped_pairs). The joint failure event is any surviving
    pair leaving (1 +- eps).
    """
    dims = KronDims(dims)
    if n_points < 2:
        raise ConfigError("points: need at least 2")
    if family not in FAMILIES:
        raise ConfigError(f"family: unknown {family!r}")
    _check_cells((m,), (eps,), trials)
    fam_idx = FAMILIES.index(family)
    pts = _family_factors(family, dims, seed, count=n_points)

    iu = np.triu_indices(n_points, k=1)
    # the Gram matrix of Kronecker products is the product of the factors'
    gram0 = math.prod(f @ f.T for f in pts)
    sq = np.diag(gram0)
    d0 = sq[:, None] + sq[None, :] - 2.0 * gram0
    pair_d0 = d0[iu]
    degenerate = pair_d0 <= 1e-24
    skipped = int(np.count_nonzero(degenerate))
    valid = np.where(~degenerate)[0]
    base = pair_d0[valid]

    rng = rand.substream(
        seed, rand.TAG_EXPERIMENT, fam_idx, int(_cell[0]), int(_cell[1])
    )
    scale2 = dims.total / m

    t0 = time.perf_counter()
    joint = 0
    pair_fail = 0
    for g in _sampled_trials(dims, pts, m, trials, rng):
        yg = np.matmul(g, np.transpose(g, (0, 2, 1))) * scale2
        ysq = np.diagonal(yg, axis1=1, axis2=2)
        dist = ysq[:, :, None] + ysq[:, None, :] - 2.0 * yg
        ratio = dist[:, iu[0], iu[1]][:, valid] / base[None, :]
        bad = np.abs(ratio - 1.0) > eps
        pair_fail += int(np.count_nonzero(bad))
        joint += int(np.count_nonzero(np.any(bad, axis=1)))
    wall = int(round((time.perf_counter() - t0) * 1000))
    return PointsetReport(
        family=family, points=n_points, dims=dims, m=m, eps=eps,
        trials=trials, joint_failures=joint, pair_failures=pair_fail,
        valid_pairs=int(valid.size), skipped_pairs=skipped, seed=seed,
        wall_ms=wall if timing else 0,
    )


def pointset_to_csv(reports):
    return _to_csv(POINTSET_HEADER, reports)


def _scan_interpolate(eval_eta, target, trials, cap):
    """Doubling scan of m from ROW_SCAN_START with log-log interpolation at
    the target crossing. eval_eta(m, m_idx) returns the measured failure."""
    if not 0.0 < target < 1.0:
        raise ConfigError("target: must be in (0, 1)")
    floor = 0.5 / trials
    scan = []
    prev = None
    m = ROW_SCAN_START
    m_idx = 0
    while m <= cap:
        eta_raw = eval_eta(m, m_idx)
        eta = max(eta_raw, floor)
        scan.append((m, eta_raw))
        if eta_raw <= target:
            if prev is None:
                return float(m), scan
            m_lo, eta_lo = prev
            t = (math.log(eta_lo) - math.log(target)) / (
                math.log(eta_lo) - math.log(eta)
            )
            log_m = math.log(m_lo) + t * (math.log(m) - math.log(m_lo))
            return float(math.exp(log_m)), scan
        prev = (m, eta)
        m *= 2
        m_idx += 1
    raise BudgetError(
        f"no row count <= {cap} reached joint failure {target}"
    )


def required_embedding_rows(dims, n_points, eps, target, trials, seed,
                            cap=ROW_SCAN_CAP):
    """Smallest embedding row count whose joint failure on a kron pointset
    is at or below `target`, located by an ascending power-of-two scan
    with log-log interpolation at the crossing. Returns (m_star, scan)
    where scan is the list of (m, joint_eta) pairs examined."""

    def eval_eta(m, m_idx):
        rep = pointset_preservation(
            dims, n_points, m, eps, trials, seed, _cell=(m_idx, 0),
        )
        return rep.joint_eta

    return _scan_interpolate(eval_eta, target, trials, cap)


def _family_energies(dims):
    """Exact (H x)^2 for each unit member x of the flat Kronecker sign
    family, one per row in kron_sign_patterns order: (2^{sum n_l}, N)."""
    tables = []
    for n in dims:
        sylvester = np.rint(hadamard_matrix(n) * math.sqrt(n))
        w = kron_sign_patterns((n,)) @ sylvester  # integer-valued, exact
        tables.append((w / n) ** 2)
    return kron_combinations(tables)


def adversarial_joint_norm_failure(r_dims, m, eps, trials, seed,
                                   _cell=0):
    """Joint norm-preservation failure over the sign-modulated flat
    Kronecker family.

    The family has one unit point per combination of per-axis sign
    patterns on axes of length 2^{r_l}: 2^{sum 2^{r_l}} points. Whatever
    signs the operator draws, one member aligns with them, and its
    transform concentrates on a 2^{-sum r_l} fraction of coordinates, so
    the scan of the sampled energy inherits the miss behavior. The
    distribution of the family's norm profile is invariant to the sign
    draw, so only the sample rows are random here.

    Energies are exact, because some members sit exactly on the
    |distortion| = eps boundary and the strict inequality must not depend
    on rounding. A member's energy is the product over axes of
    (W_l / n_l)^2, W_l being its axis pattern times the +-1 Sylvester
    matrix: an integer of size at most n_l, summed exactly. So each factor
    is dyadic with at most 2 log2 n_l significant bits and the product has
    at most 2 log2 N <= 53 bits for any family small enough to enumerate.
    """
    r_dims = tuple(int(r) for r in r_dims)
    if any(r < 1 for r in r_dims):
        raise ConfigError("r_dims: per-axis exponents must be >= 1")
    dims = KronDims(tuple(1 << r for r in r_dims))
    n = dims.total
    energy = _family_energies(dims)
    rng = rand.substream(
        seed, rand.TAG_SAMPLES, len(r_dims), sum(r_dims), int(_cell)
    )
    scale2 = n / m
    failures = 0
    # keep the (points, chunk, m) gather around 2M floats; rows drawn one
    # chunk at a time read the stream as one (trials, m) draw does
    chunk = max(1, 2_000_000 // (energy.shape[0] * m))
    for lo in range(0, trials, chunk):
        rows0 = rng.integers(0, n, size=(min(chunk, trials - lo), m))
        sums = energy[:, rows0].sum(axis=2)
        dist = scale2 * sums - 1.0
        bad = np.abs(dist) > eps
        failures += int(np.count_nonzero(np.any(bad, axis=0)))
    return failures / trials


def required_rows_adversarial(r_dims, eps, target, trials, seed):
    """Smallest row count taming the adversarial family's joint failure."""

    def eval_eta(m, m_idx):
        return adversarial_joint_norm_failure(
            r_dims, m, eps, trials, seed, _cell=m_idx
        )

    return _scan_interpolate(eval_eta, target, trials, ROW_SCAN_CAP)


@dataclass(frozen=True)
class ScalingReport:
    cells_d1: tuple  # (per-axis exponents, nominal point count, m*) rows
    cells_d2: tuple
    slope_d1: float
    slope_d2: float

    @property
    def slope_ratio(self):
        return self.slope_d2 / self.slope_d1


def _nominal_points(r_dims):
    return 1 << sum(1 << r for r in r_dims)


def scaling_exponent_report(seed, trials=3000):
    """Fit log m* against log log p on the adversarial families and
    report the d=2 vs d=1 slope ratio (qualitative scaling check).

    p is the family's nominal point count 2^{sum 2^{r_l}}; SCALING_GRIDS
    realize p in {4, 16, 256} for one axis and {16, 64, 256} for two
    axes, the point counts the construction can hit exactly. The coarse
    distortion SCALING_EPS keeps each cell dominated by the sampling-miss
    event rather than by binomial concentration noise, which is what the
    growth exponent is about.
    """
    slopes = {}
    cells = {}
    for key, grid in SCALING_GRIDS:
        rows = []
        for r_dims in grid:
            m_star, _ = required_rows_adversarial(
                r_dims, SCALING_EPS, SCALING_TARGET, trials, seed
            )
            rows.append((tuple(r_dims), _nominal_points(r_dims), m_star))
        cells[key] = tuple(rows)
        loglogp = [math.log(math.log(p)) for _, p, _ in rows]
        logm = [math.log(m) for _, _, m in rows]
        slopes[key] = float(np.polyfit(loglogp, logm, 1)[0])
    return ScalingReport(
        cells_d1=cells["d1"], cells_d2=cells["d2"],
        slope_d1=slopes["d1"], slope_d2=slopes["d2"],
    )


# -------------------------------------------------------------- lower bound


@dataclass(frozen=True)
class LowerBoundRecord:
    s: int
    d: int
    bits: int
    r: int
    m: int
    exact: float
    bound: float
    empirical: float
    stderr: float
    trials: int
    flagged: bool
    seed: int
    wall_ms: int


def lower_bound_sweep(bits, r, d_values, m_values, trials, seed, nu=0.1,
                      timing=False):
    """Adversarial sweep: closed form, analytic lower bound, and the
    empirical frequency per (d, m); flags cells where the empirical
    failure exceeds nu while m sits below the claimed threshold.

    Every (d, m) cell reuses the same streams: its subspaces come from
    (seed, TAG_SUBSPACE, axis) and its rows from (seed, TAG_SAMPLES). So
    the cells are correlated estimates, and a run of flagged cells is not
    independent evidence."""
    if not 0.0 < nu < 1.0:
        raise ConfigError("nu: must be in (0, 1)")
    if r < 1 or r > bits:
        raise ConfigError("r: need 1 <= r <= bits")
    _distinct("d", d_values)
    _distinct("m", m_values)
    s = 1 << r
    records = []
    for d in d_values:
        # the family has 2^{d s} points, passed in bits: at s = 2^31 the
        # count itself would be a 2^32-bit integer
        threshold = embedding_dim_threshold(nu, d * s, d)
        for m in m_values:
            exact = failure_probability_exact(s, d, m)
            t0 = time.perf_counter()
            emp = failure_probability_empirical(
                (bits,) * d, r, m, trials, seed
            )
            wall = int(round((time.perf_counter() - t0) * 1000))
            flagged = emp.estimate > nu and m < threshold
            records.append(
                LowerBoundRecord(
                    s=s, d=d, bits=bits, r=r, m=m, exact=exact.prob,
                    bound=exact.lower_bound, empirical=emp.estimate,
                    stderr=emp.stderr, trials=trials, flagged=flagged,
                    seed=seed, wall_ms=wall if timing else 0,
                )
            )
    return records


def lower_bound_to_csv(records):
    return _to_csv(LOWER_BOUND_HEADER, records)


# ------------------------------------------------------------------ reports


def _rip_report(dims, m, s, seed=0):
    """Isometry constant of one operator, with its witness."""
    dims = _parse_dims("dims", dims)
    rep = rip_constant(materialize(build_operator(dims, m=m, seed=seed)), s)
    return {
        "dims": list(dims),
        "n": dims.total,
        "m": m,
        "s": s,
        "seed": seed,
        "delta": rep.delta,
        "witness_support": list(rep.witness_support),
    }


def _chaos_report(dims, m, trials=2000, seed=0):
    """Distortion moment estimates at a Kronecker unit vector."""
    dims = _parse_dims("dims", dims)
    phi = materialize(build_operator(dims, m=m, seed=seed))
    x = kron_materialize(_family_factors("kron", dims, seed))[0]
    co = ChaosCoefficients.distortion(dims, phi, x)
    profile = estimate_chaos_moments(
        co, "coupled", (2.0, 4.0), trials=trials, seed=seed
    )
    return {
        "dims": list(dims),
        "m": m,
        "seed": seed,
        "trials": trials,
        "p_values": list(profile.p_values),
        "estimates": list(profile.estimates),
        "stderrs": list(profile.stderrs),
        "mean": profile.mean,
    }


def _partition_report(d):
    """The partition-counting inequality, checked exhaustively."""
    rep = check_partition_counting(d)
    return {
        "d": d,
        "checked": rep.checked,
        "violations": len(rep.violations),
        "ok": rep.ok,
    }


# per report kind, its builder; the builder's parameters are the options
# the kind reads, required where they have no default
_REPORTS = {
    "rip": _rip_report,
    "chaos": _chaos_report,
    "partition": _partition_report,
}
REPORT_KINDS = tuple(_REPORTS)


def _usage(build):
    """`build`'s parameters as help text: the required ones, then the
    others in brackets, e.g. 'dims, m, s [seed]'."""
    params = inspect.signature(build).parameters.values()
    need = ", ".join(p.name for p in params if p.default is p.empty)
    rest = ", ".join(p.name for p in params if p.default is not p.empty)
    return f"{need} [{rest}]" if rest else need


# per report kind, one help line naming the options it reads
REPORT_USAGE = tuple(f"{kind}: {_usage(build)}" for kind, build in _REPORTS.items())


def _checked_call(build, what, options):
    """build(**options) over the options not None, once every parameter
    of `build` without a default is given and every option is a parameter
    of `build`; else a ConfigError naming the first failure and `what`."""
    options = {k: v for k, v in options.items() if v is not None}
    params = inspect.signature(build).parameters
    needs = [name for name, p in params.items() if p.default is p.empty]
    if any(name not in options for name in needs):
        raise ConfigError(f"{what} needs {', '.join(needs)}")
    for key in options:
        if key not in params:
            raise ConfigError(f"{key}: not an option of a {what}")
    return build(**options)


def run_report(kind, **options):
    """Build one JSON-ready report document of the named kind from its
    options, the parameters of its builder in _REPORTS; an option set to
    None is not given. Checks, in order: the kind is known, every option
    the kind needs is given, and every given option is one the kind reads;
    each failure is a ConfigError naming it."""
    if kind not in _REPORTS:
        raise ConfigError(f"kind: unknown report kind {kind!r}")
    doc = _checked_call(_REPORTS[kind], f"{kind} report", options)
    return {"schema": REPORT_SCHEMA, "kind": kind, **doc}


def report_to_json(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def write_text(path, text):
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


# ----------------------------------------------------------------- commands


def _single(field, values):
    """The value of a list option that this command takes singly; a
    repeated value is named as such."""
    if values is None:
        return None
    if len(_distinct(field, values)) != 1:
        raise ConfigError(f"{field}: this command takes a single value")
    return values[0]


def _jl_sweep_command(dims, m, eps=(0.5,), trials=10_000, seed=0,
                      family=FAMILIES, baseline=("kfjlt",), timing=False):
    """Estimate the squared-norm distortion failure rate per (m, eps)."""
    return sweep_to_csv(jl_failure_sweep(
        dims, m, eps, trials, seed, families=family,
        baseline=_single("baseline", baseline), timing=timing,
    ))


def _pointset_command(dims, points, m, eps=(0.5,), trials=10_000, seed=0,
                      family=("kron",), timing=False):
    """Joint pairwise-distance preservation over a fixed point set."""
    family = _single("family", family)
    _check_cells(m, eps, trials)
    return pointset_to_csv([
        pointset_preservation(
            dims, points, m_val, eps_val, trials, seed, family=family,
            timing=timing, _cell=(m_idx, e_idx),
        )
        for m_idx, m_val in enumerate(m)
        for e_idx, eps_val in enumerate(eps)
    ])


def _lower_bound_command(bits, r, d, m, nu=0.1, trials=10_000, seed=0,
                         timing=False):
    """Adversarial subspace-indicator sweep: exact, bound, empirical."""
    return lower_bound_to_csv(lower_bound_sweep(
        bits, r, d, m, trials, seed, nu=nu, timing=timing,
    ))


def _report_command(kind, dims=None, m=None, s=None, d=None, trials=None,
                    seed=None):
    """Write one JSON report document."""
    return report_to_json(run_report(
        kind, dims=dims, m=_single("m", m), s=s, d=_single("d", d),
        trials=trials, seed=seed,
    ))


# per command, the builder of its output text; a builder's parameters are
# the command's options, required where they have no default
COMMANDS = {
    "jl-sweep": _jl_sweep_command,
    "pointset": _pointset_command,
    "lower-bound": _lower_bound_command,
    "report": _report_command,
}


def run_command(name, **options):
    """The output text of the named command, from options as
    merge_options gives them; checked as run_report checks a report's."""
    return _checked_call(COMMANDS[name], f"{name} command", options)


# ----------------------------------------------------------------- selftest


def _selftest_indexing():
    # every element lands where an independent F-order ravel of its
    # coordinates on each group puts it
    shape = (4, 8, 2)
    coords = np.indices(shape).reshape(len(shape), -1)  # C-order element k
    axes = range(len(shape))
    for r in range(len(shape) + 1):
        for group in itertools.combinations(axes, r):
            groups = (group, tuple(a for a in axes if a not in group))
            lengths = [[shape[a] for a in g] for g in groups]
            want = np.empty([math.prod(n) for n in lengths], dtype=np.intp)
            at = tuple(
                np.ravel_multi_index(coords[list(g)], n, order="F") if g else 0
                for g, n in zip(groups, lengths)
            )
            want[at] = np.arange(coords.shape[1])
            if not np.array_equal(_group_positions(shape, groups), want):
                return False, f"layout broke for axes {group}"
    return True, "dims 4x8x2 exhaustive"


def _selftest_fwht():
    for n in (2, 8, 64, 256):
        h = hadamard_matrix(n)
        if np.max(np.abs(h.T @ h - np.eye(n))) > 1e-12:
            return False, f"orthonormality at {n}"
        rng = rand.substream(0, rand.TAG_EXPERIMENT, n)
        x = rng.standard_normal(n)
        if np.max(np.abs(fwht(fwht(x)) - x)) > 1e-12 * max(
            1.0, float(np.max(np.abs(x)))
        ):
            return False, f"involution at {n}"
        if np.max(np.abs(fwht(x) - h @ x)) > 1e-12 * n:
            return False, f"matrix agreement at {n}"
    return True, "orthonormal + involution through 256"


def _selftest_duality():
    for n in (2, 3, 4):
        for v in enumerate_subspaces(n):
            got = fwht(indicator(v))
            want = indicator(orthogonal_complement(v))
            if np.max(np.abs(got - want)) > 1e-12:
                return False, f"duality n={n}"
    return True, "exhaustive n <= 4"


def _selftest_roundtrip():
    dims = KronDims((4, 2, 2))
    op = build_operator(dims, m=6, seed=9)
    phi = materialize(op)
    rng = rand.substream(9, rand.TAG_EXPERIMENT)
    for _ in range(25):
        x = rng.standard_normal(dims.total)
        if np.max(np.abs(apply_dense(op, x) - phi @ x)) > 1e-10:
            return False, "dense/materialized mismatch"
    return True, "25 dense/materialized agreements"


def _selftest_sparsify():
    rng = rand.substream(4, rand.TAG_EXPERIMENT)
    for _ in range(20):
        x = rng.standard_normal((2, 4, 2))
        sp = split(x, s=2)
        if not np.array_equal(sp.reconstruct(), x):
            return False, "reconstruction"
        if not check_fiber_sparsity(sp).ok:
            return False, "fiber bound"
    return True, "20 split/reconstruct checks"


def selftest():
    """Run the oracle suite; returns a list of (name, ok, detail)."""
    checks = [
        ("index-bijection", _selftest_indexing),
        ("fwht-identities", _selftest_fwht),
        ("subspace-duality", _selftest_duality),
        ("operator-roundtrip", _selftest_roundtrip),
        ("fiber-split", _selftest_sparsify),
    ]
    results = []
    for name, fn in checks:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append((name, bool(ok), detail))
    return results
