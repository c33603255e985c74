"""Experiment layer: seeded Monte Carlo sweeps with CSV/JSON output.

Reproducibility contract: a run is a pure function of its configuration
and master seed. Every random draw comes from a named substream, and each
sweep cell draws its whole trial block up front in a fixed order (sign
factors by ascending axis, then sample rows), refused over the item cap
before it is drawn. The later arithmetic runs through spans of trials of
about 1 MiB (indexing._blocks): a rank-one span sized by its per-axis
work, a dense span by its output (each no smaller than the two tables a
pointset scores a trial in) and run by one hadamard_rows call, whose
docstring says why neither its blocks nor its threads change a byte.
jl-sweep and pointset share that trial loop (`_sampled_trials`) and one
cell loop (`_cells`), which gives each (m, eps) cell its substream and its
wall time (the lower-bound sweep shares its timer, `_timed`), and every
CSV format is written by one writer from its header's column names
(`_to_csv`).

Every Monte Carlo cell is a source of ratios (embedded over original
squared norm or pair distance) per block of trials, scored by one rule
(`_failures`): a trial fails where some ratio leaves 1 +- eps. Each
jl-sweep baseline is one such source in `_BASELINES`. gaussian draws its
normals whole trials at a time; a generator's stream reads the same in
blocks as in one draw. The row scan and the adversarial scaling family
run their cells through `_pointset_cells`, `_check_cells` and `_failures`
from tests/theory_oracles.py until `report --kind scaling` (ROADMAP item
12c) brings them back.

Each command option is one row of OPTIONS: its reader, which merge_options
applies to a config or flag value, and its help line on the command line.

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
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

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
from .errors import ConfigError
from .fwht import fwht, fwht_axis, hadamard_matrix
from .gf2 import enumerate_subspaces, indicator, orthogonal_complement
from .indexing import (
    _ITEM_CAP,
    _TABLE_CAP,
    KronDims,
    _blocks,
    _check_bytes,
    _group_positions,
    _integer,
)
from .rip import rip_constant
from .sparsify import check_fiber_sparsity, split
from .transforms import (
    apply_dense,
    build_operator,
    hadamard_rows,
    kron_materialize,
    materialize,
    _gathered,
)

__all__ = [
    "CSV_HEADER",
    "FAMILIES",
    "BASELINES",
    "REPORT_KINDS",
    "REPORT_USAGE",
    "COMMANDS",
    "OPTIONS",
    "SweepRecord",
    "PointsetReport",
    "LowerBoundRecord",
    "load_config",
    "merge_options",
    "jl_failure_sweep",
    "sweep_to_csv",
    "pointset_preservation",
    "pointset_to_csv",
    "lower_bound_sweep",
    "lower_bound_to_csv",
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


# ------------------------------------------------------------- configuration


def load_config(path):
    """Read a YAML mapping of option overrides. PyYAML is imported here,
    the one reader of it, so a run without a config does not load it."""
    import yaml

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


def _items(value):
    """The items of a YAML list, or of a scalar read as comma-separated
    text."""
    return value if isinstance(value, (list, tuple)) else str(value).split(",")


def _parse_numbers(field, value, kind, allow_zero=False):
    """A tuple of `kind` values from a YAML number or list or a
    comma-separated string; each must be finite and positive (or zero, if
    allowed). Every item is read from its text, a list item as a scalar
    is, so a boolean is no number and 4.7 is no integer."""
    try:
        out = tuple(kind(str(v)) for v in _items(value))
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
    items = _items(value)
    if len(items) != 1:
        raise ConfigError(f"{field}: expected one value, got {len(items)}")
    try:
        kind(str(items[0]))
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{field}: expected {noun}")
    return _parse_numbers(field, items, kind, allow_zero)[0]


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
    names = tuple(str(v).strip() for v in _items(value))
    if not names or any(name not in allowed for name in names):
        raise ConfigError(
            f"{field}: expected {'|'.join(allowed)}, got {value!r}"
        )
    return names


def merge_options(config, flags):
    """Combine a config mapping with flag overrides; flags win. Each value
    is read by its OPTIONS row. Unknown keys and malformed values raise
    ConfigError naming the field; a value repeated in a list option is
    refused by the sweep or command that reads it."""
    merged = {}
    for source in (config, flags):
        for key, value in source.items():
            if value is None:
                continue
            if key not in OPTIONS:
                raise ConfigError(f"unknown option {key!r}")
            merged[key] = OPTIONS[key].read(key, value)
    return merged


# ------------------------------------------------------------- test vectors


def _family_factors(family, dims, seed, count=1):
    """`count` unit test points of the named family, drawn from the vector
    substream keyed by the family's canonical position, as factors whose
    kron_materialize is the (count, N) matrix of points.

    The rank-one families give one (count, n_l) factor per axis: kron
    normalizes a Gaussian factor per axis, and a one-hot vector is the
    product of one-hot factors at the F-order coordinates of its index.
    dense gives one (count, N) factor, refused over the item cap, the size
    of the dense trial loop's own item, before anything is drawn. A
    Gaussian row is drawn and normalized in place.
    """
    fam_idx = FAMILIES.index(family)
    rng = rand.substream(seed, rand.TAG_VECTOR, fam_idx)
    if family == "dense":
        _check_bytes(f"a dense point set of {count} x {dims.total}",
                     8 * count * dims.total, _ITEM_CAP)
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
                rng.standard_normal(out=f[i])
                f[i] /= np.linalg.norm(f[i])
    return factors


# ---------------------------------------------------------- trials and rows


def _sampled_trials(dims, pts, m, trials, rng):
    """Sampled, unscaled coordinates of fresh embeddings of the points.

    `pts` holds the points' factors (_family_factors). Draws every trial
    up front, refused over the item cap before anything is drawn: per-axis
    signs by ascending axis, then the sample rows. Then yields, for spans
    of trials in order (indexing._blocks), the m sampled entries of
    H D_xi p for each point p: (span, points, m).

    A rank-one point never becomes a length-N vector: H D_xi (x_1 (x) ...
    (x) x_d) is the Kronecker product of the H_l (xi_l * x_l), so each
    axis is transformed on its own and the entries are gathered at the
    bit fields of the rows (transforms._gathered, unchecked, as the rows
    are drawn in [0, N) and the transforms are float64 of power-of-two
    lengths). Dense points, one length-N factor,
    go through one hadamard_rows call per span of trials, sized by its
    output or the tables a pointset scores it in.
    """
    points = pts[0].shape[0]
    _check_bytes(f"a cell's draw of {trials} trials x ({sum(dims)} signs + {m} rows)",
                 8 * trials * (sum(dims) + m), _ITEM_CAP)
    signs = rand.rademacher_factors(rng, trials, dims)
    rows0 = rng.integers(0, dims.total, size=(trials, m))
    # a trial's floats: its sampled entries (and a rank-one point's
    # per-axis transforms), and no fewer than the two (points, points)
    # tables a pointset scores them in: its table of Gram, distances and
    # ratios in place, and one sum
    if len(pts) == 1:  # one length-N factor: dense, or a single axis
        for lo, hi in _blocks(trials, 8 * points * max(m, 2 * points)):
            yield hadamard_rows(pts[0], rows0[lo:hi, None, :],
                                [f[lo:hi] for f in signs])
        return
    for lo, hi in _blocks(trials, 8 * points * max(sum(dims) + m, 2 * points)):
        xi = [f[lo:hi] for f in signs]
        ys = [fwht_axis(s[:, None, :] * f[None, :, :], 2)
              for s, f in zip(xi, pts)]
        yield _gathered(ys, rows0[lo:hi, None, :])


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


def _check_cells(m_values, eps_values, trials, families=()):
    """The checks of a grid of cells, shared by every sweep and scan."""
    for fam in families:
        if fam not in FAMILIES:
            raise ConfigError(f"family: unknown {fam!r}")
    _distinct("family", families)
    _integer(trials, "trials:", ConfigError)
    if trials <= 0:
        raise ConfigError("trials: must be positive")
    for m in m_values:
        _integer(m, "m:", ConfigError)
    if any(m <= 0 for m in m_values):
        raise ConfigError("m: must be positive")
    if any(e <= 0 for e in eps_values):
        raise ConfigError("eps: must be positive")
    _distinct("m", m_values)
    _distinct("eps", eps_values)


def _timed(timing, run, *args):
    """run(*args) and its wall time in ms, 0 unless `timing`."""
    t0 = time.perf_counter()
    out = run(*args)
    wall = int(round((time.perf_counter() - t0) * 1000))
    return out, wall if timing else 0


def _cells(seed, family, m_values, eps_values, timing, cell):
    """Per (m, eps) in order, (m, eps, cell(m, eps, rng), wall_ms) with rng
    the cell's substream (seed, TAG_EXPERIMENT, family index, m index, eps
    index). A cell runs when the consumer reaches it, so a scan can stop
    early."""
    fam_idx = FAMILIES.index(family)
    for (m_idx, m), (e_idx, eps) in itertools.product(
            enumerate(m_values), enumerate(eps_values)):
        rng = rand.substream(seed, rand.TAG_EXPERIMENT, fam_idx, m_idx, e_idx)
        yield (m, eps, *_timed(timing, cell, m, eps, rng))


def _failures(ratios, eps):
    """The failure rule of every Monte Carlo cell. `ratios` yields per
    block of trials a (block, points) array, each entry an embedded over
    an original squared norm or pair distance, which the rule overwrites
    with its distance from 1. Returns the trials where some ratio leaves
    1 +- eps, and the ratios that do."""
    trials = entries = 0
    for ratio in ratios:
        ratio -= 1.0
        bad = np.abs(ratio, out=ratio) > eps
        trials += int(np.count_nonzero(np.any(bad, axis=1)))
        entries += int(np.count_nonzero(bad))
    return trials, entries


def _kfjlt_ratios(dims, x, m, trials, rng):
    """Squared-norm ratios of fresh subsampled Kronecker FJLT draws."""
    for g in _sampled_trials(dims, x, m, trials, rng):
        yield dims.total / m * np.sum(g * g, axis=2)


def _gaussian_ratios(dims, x, m, trials, rng):
    """Squared-norm ratios of (m, N) Gaussian draws, normals drawn whole
    trials at a time in blocks of about 1 MiB (indexing._blocks). The
    spans come first, so an oversized trial is refused before the point
    is built."""
    spans = list(_blocks(trials, 8 * m * dims.total))
    x = kron_materialize(x)[0]
    for lo, hi in spans:
        y = rng.standard_normal((hi - lo, m, x.size)) @ x / math.sqrt(m)
        yield np.sum(y * y, axis=1)[:, None]


# per baseline operator, the source of a jl-sweep cell's ratios
_BASELINES = {"kfjlt": _kfjlt_ratios, "gaussian": _gaussian_ratios}
BASELINES = tuple(_BASELINES)


def jl_failure_sweep(dims, m_values, eps_values, trials, seed,
                     families=FAMILIES, baseline="kfjlt", timing=False):
    """Estimate P(|‖Ax‖^2 - 1| > eps) per (family, m, eps) cell over
    fresh operator draws; one record per cell, sorted by (family, m, eps)."""
    dims = KronDims(dims)
    if baseline not in BASELINES:
        raise ConfigError(f"baseline: unknown {baseline!r}")
    _check_cells(m_values, eps_values, trials, families)
    source = _BASELINES[baseline]
    records = []
    for family in families:
        x = _family_factors(family, dims, seed)

        def cell(m, eps, rng):
            return _failures(source(dims, x, m, trials, rng), eps)[0]

        records += [
            SweepRecord(family=family, dims=dims, m=m, eps=eps, trials=trials,
                        failures=failures, seed=seed, wall_ms=wall)
            for m, eps, failures, wall in _cells(
                seed, family, m_values, eps_values, timing, cell)
        ]
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


def _squared_distances(gram):
    """The Gram matrices on the last two axes of `gram` turned into squared
    pair distances in place, (|x_i|^2 + |x_j|^2) - 2 <x_i, x_j>."""
    sq = np.diagonal(gram, axis1=-2, axis2=-1).copy()
    gram *= -2.0
    gram += sq[..., :, None] + sq[..., None, :]
    return gram


def _pointset_cells(dims, n_points, m_values, eps_values, trials, seed,
                    family, timing):
    """Checks the arguments and builds the points now; then an iterator of
    one PointsetReport per (m, eps), each cell run as it is reached. The
    cells hold two (points, points) tables: the base squared distances d0,
    refused over the table cap before the points are drawn, and the mask
    of the pairs they score, i < j at a distance over 1e-24. Every other
    entry scores 1.0, which never fails. The set-up peaks at two float
    tables, the Gram matrix and one sum. A cell scores a span of trials in
    one table per trial, reused for every span: the embedded Gram matrix
    is formed into it and turned into distances, ratios and then their
    distance from 1 in place, beside one sum table and a mask."""
    dims = KronDims(dims)
    _integer(n_points, "points:", ConfigError)
    if n_points < 2:
        raise ConfigError("points: need at least 2")
    _check_cells(m_values, eps_values, trials, (family,))
    _check_bytes(f"a pointset's {n_points} x {n_points} pair table",
                 8 * n_points * n_points, _TABLE_CAP)
    pts = _family_factors(family, dims, seed, count=n_points)

    # the Gram matrix of Kronecker products is the product of the factors'
    d0 = _squared_distances(math.prod(f @ f.T for f in pts))
    valid = np.triu(d0 > 1e-24, k=1)
    pairs = int(np.count_nonzero(valid))

    def pair_ratios(m, rng):
        table = None
        for g in _sampled_trials(dims, pts, m, trials, rng):
            if table is None:  # the first span is the longest
                table = np.empty((len(g), n_points, n_points))
            dist = np.matmul(g, np.transpose(g, (0, 2, 1)), out=table[:len(g)])
            dist *= dims.total / m
            _squared_distances(dist)
            np.divide(dist, d0, out=dist, where=valid)
            np.copyto(dist, 1.0, where=~valid)
            yield dist.reshape(len(g), -1)

    def cell(m, eps, rng):
        return _failures(pair_ratios(m, rng), eps)

    return (PointsetReport(
        family=family, points=n_points, dims=dims, m=m, eps=eps,
        trials=trials, joint_failures=joint, pair_failures=pair_fail,
        valid_pairs=pairs, skipped_pairs=n_points * (n_points - 1) // 2 - pairs,
        seed=seed, wall_ms=wall,
    ) for m, eps, (joint, pair_fail), wall in _cells(
        seed, family, m_values, eps_values, timing, cell))


def pointset_preservation(dims, n_points, m_values, eps_values, trials, seed,
                          family="kron", timing=False):
    """Pairwise-distance preservation over a fixed point set; one report
    per (m, eps) cell, in order.

    Per trial a fresh operator embeds all points at once (the trial loop
    of jl-sweep); squared pair distances come from the embedded Gram
    matrix. A pair at distance zero cannot be distorted and is skipped
    (counted in skipped_pairs). The joint failure event is any surviving
    pair leaving (1 +- eps).
    """
    return list(_pointset_cells(dims, n_points, m_values, eps_values, trials,
                                seed, family, timing))


def pointset_to_csv(reports):
    return _to_csv(POINTSET_HEADER, reports)


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
    _integer(bits, "bits:", ConfigError)
    _integer(r, "r:", ConfigError)
    for d in d_values:
        _integer(d, "d:", ConfigError)
    if r < 1 or r > bits:
        raise ConfigError("r: need 1 <= r <= bits")
    _distinct("d", d_values)
    _check_cells(m_values, (), trials)
    s = 1 << r
    records = []
    for d in d_values:
        # the family has 2^{d s} points, passed in bits: at s = 2^31 the
        # count itself would be a 2^32-bit integer
        threshold = embedding_dim_threshold(nu, d * s, d)
        for m in m_values:
            exact = failure_probability_exact(s, d, m)
            emp, wall = _timed(timing, failure_probability_empirical,
                               (bits,) * d, r, m, trials, seed)
            flagged = emp.estimate > nu and m < threshold
            records.append(
                LowerBoundRecord(
                    s=s, d=d, bits=bits, r=r, m=m, exact=exact.prob,
                    bound=exact.lower_bound, empirical=emp.estimate,
                    stderr=emp.stderr, trials=trials, flagged=flagged,
                    seed=seed, wall_ms=wall,
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
    return pointset_to_csv(pointset_preservation(
        dims, points, m, eps, trials, seed, family=_single("family", family),
        timing=timing,
    ))


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


_Option = namedtuple("_Option", "read help")

# per command option, its reader (field, value) -> value, which
# merge_options applies, and its help line on the command line
OPTIONS = {
    "out": _Option(lambda f, v: str(v), "Output path (stdout if omitted)."),
    "kind": _Option(lambda f, v: str(v),
                    f"Report kind: {'|'.join(REPORT_KINDS)}."),
    "dims": _Option(_parse_dims, "Axis lengths, e.g. 4,8,2 or 16x16."),
    "points": _Option(lambda f, v: _parse_one(f, v, int),
                      "Number of points (>= 2)."),
    "bits": _Option(lambda f, v: _parse_one(f, v, int),
                    "Bits per axis of the sign domain."),
    "r": _Option(lambda f, v: _parse_one(f, v, int),
                 "Subspace dimension (1 <= r <= bits)."),
    "d": _Option(lambda f, v: _parse_numbers(f, v, int),
                 "Axis counts, e.g. 1,2."),
    "m": _Option(lambda f, v: _parse_numbers(f, v, int),
                 "Embedding row counts, e.g. 8,16,32."),
    "s": _Option(lambda f, v: _parse_one(f, v, int), "Sparsity level."),
    "eps": _Option(lambda f, v: _parse_numbers(f, v, float),
                   "Distortion levels, e.g. 0.25,0.5."),
    "nu": _Option(lambda f, v: _parse_one(f, v, float),
                  "Target failure level for flagging."),
    "trials": _Option(lambda f, v: _parse_one(f, v, int),
                      "Monte Carlo trials per cell."),
    "seed": _Option(lambda f, v: _parse_one(f, v, int, allow_zero=True),
                    "Master seed."),
    "family": _Option(lambda f, v: _parse_choices(f, v, FAMILIES),
                      f"Test-point families: {'|'.join(FAMILIES)}."),
    "baseline": _Option(lambda f, v: _parse_choices(f, v, BASELINES),
                        f"Operator: {'|'.join(BASELINES)}."),
    "timing": _Option(_parse_bool, "Record wall-clock ms per cell "
                      "(breaks byte-identity of reruns)."),
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
