"""Theory oracles that no kronjl command runs yet, kept beside the tests
that check them: acceptance criteria 06 and 09 and the unit tests import
them from here. pytest collects no module without the test_ prefix.

Each group is as it was in src/kronjl and returns there with its command:

- Moments and partitions, from kronjl.chaos (ROADMAP item 12b,
  `report --kind moments`): set partitions in the order of the chaos
  module's label tables, partition norms, the moment bound profile over
  all partitions, exact chaos moments by sign enumeration, the
  moment-to-tail conversion and the expectation bound. Partition norms
  generalize Frobenius (one block) and the spectral norm of a
  matricization (two blocks); for three or more blocks the supremum is
  approximated from below by multi-start alternating maximization and
  the returned value is a certified lower bound of the true norm
  (SUP_TOL, SUP_MAX_ITER and SUP_SEED fix the search). Exact moments (a
  sign table, or a decoupled value per pattern pair, inside the table cap
  of kronjl.indexing) share all but the signs with
  chaos.estimate_chaos_moments.
- Scaling, from kronjl.harness and kronjl.transforms (ROADMAP item 12c,
  `report --kind scaling`): the doubling row scan over kron pointset
  cells, the sign-modulated adversarial family with the sign tables that
  enumerate it (kron_sign_patterns, kron_combinations, both built by
  transforms.kron_materialize), and criterion 06's fit of log m* against
  log log p. The family scores a block of trials as its row counts times
  the members' exact energies, under the harness's one failure rule
  (`_failures`).
"""

import math
from dataclasses import dataclass
from string import ascii_lowercase

import numpy as np

from kronjl import rand
from kronjl.chaos import _check_moment_args, _partition_from_labels, _profile
from kronjl.errors import BudgetError, ConfigError, ShapeError
from kronjl.fwht import _sylvester
from kronjl.harness import _check_cells, _failures, _pointset_cells
from kronjl.indexing import (_TABLE_CAP, KronDims, _blocks, _check_bytes,
                             _group_positions, _integer, _real)
from kronjl.rip import rip_constant
from kronjl.transforms import kron_materialize


# ------------------------------------------ moments and partitions (12b)

PARTITION_GROUND_LIMIT = 12
SUP_TOL = 1e-10
SUP_MAX_ITER = 10_000
SUP_SEED = 0


def _label_rows(g):
    """Set partitions of range(g) as lists of block labels, blocks
    numbered by their minima. The recursion adds each element, last
    first, to every block of each partition of the later elements and
    then as a new front block; that fixes the order of the rows."""

    def rec(k):
        if k == g:
            yield []
            return
        for part in rec(k + 1):
            for i in range(len(part)):
                yield part[:i] + [part[i] + [k]] + part[i + 1 :]
            yield [[k]] + part

    for part in rec(0):
        row = [0] * g
        for label, block in enumerate(sorted(part, key=min)):
            for e in block:
                row[e] = label
        yield row


def enumerate_partitions(ground):
    """All set partitions of `ground`. The empty ground has exactly one
    partition (no blocks)."""
    items = sorted(set(int(e) for e in ground))
    if len(items) > PARTITION_GROUND_LIMIT:
        raise BudgetError(
            f"partition enumeration over {len(items)} elements exceeds "
            f"the limit {PARTITION_GROUND_LIMIT}"
        )
    for row in _label_rows(len(items)):
        yield _partition_from_labels(items, row)


def _matricize(arr, blocks):
    """Group the 1-based axes of `arr` by blocks (sorted within each block,
    earliest axis fastest) into one super-axis per block."""
    groups = tuple(tuple(sorted(a - 1 for a in b)) for b in blocks)
    return arr.reshape(-1)[_group_positions(arr.shape, groups)]


def partition_norm(arr, partition, restarts=32):
    """Norm of an array against a partition of its axes.

    One block: Euclidean (Frobenius) norm. Two blocks: spectral norm of
    the matricization. Three or more: alternating maximization over unit
    block factors with `restarts` (>= 1) seeded starts; the result is a
    lower bound that is exact in the matrix cases.
    """
    arr = _real(arr)
    if restarts < 1:
        raise ShapeError(f"need at least one restart, got {restarts}")
    if partition.ground != frozenset(range(1, arr.ndim + 1)):
        raise ShapeError(
            f"partition ground {sorted(partition.ground)} != axes 1..{arr.ndim}"
        )
    if partition.kappa == 0:
        return float(abs(arr))
    if partition.kappa == 1:
        return float(np.linalg.norm(arr.ravel()))
    mat = _matricize(arr, partition.blocks)
    if partition.kappa == 2:
        return float(np.linalg.norm(mat, 2))
    return _alternating_sup(mat, restarts, SUP_TOL, SUP_MAX_ITER, SUP_SEED)


def _alternating_sup(t, restarts, tol, max_iter, seed):
    k = t.ndim
    letters = ascii_lowercase[:k]
    rng = rand.substream(seed, rand.TAG_EXPERIMENT, 7)
    best = 0.0
    for _ in range(restarts):
        vs = []
        for n in t.shape:
            v = rng.standard_normal(n)
            nv = np.linalg.norm(v)
            vs.append(v / nv if nv > 0 else np.ones(n) / math.sqrt(n))
        val = 0.0
        prev = -np.inf
        for _ in range(max_iter):
            for l in range(k):
                sub = (
                    letters
                    + ","
                    + ",".join(letters[j] for j in range(k) if j != l)
                    + "->"
                    + letters[l]
                )
                w = np.einsum(sub, t, *[vs[j] for j in range(k) if j != l])
                nw = float(np.linalg.norm(w))
                if nw == 0.0:
                    val = 0.0
                    break
                vs[l] = w / nw
                val = nw
            if val - prev <= tol * max(1.0, abs(val)):
                break
            prev = val
        best = max(best, abs(val))
    return best


def moment_bound_profile(arr, p_values):
    """For each p, the sum over block counts kappa of p^{kappa/2} times
    the total partition norm over all partitions of the axes into kappa
    blocks. Each partition norm is computed once for all p; returns one
    float per p."""
    arr = _real(arr)
    p_values = tuple(float(p) for p in p_values)
    if not all(0 < p < math.inf for p in p_values):
        raise ShapeError("p must be positive and finite")
    terms = [
        (partition.kappa, partition_norm(arr, partition))
        for partition in enumerate_partitions(range(1, arr.ndim + 1))
    ]
    totals = []
    for p in p_values:
        total = 0.0
        for kappa, norm in terms:
            total += p ** (kappa / 2.0) * norm
        totals.append(total)
    return tuple(totals)


def exact_chaos_moments(coeffs, mode, p_values, centered=False):
    """Exact L_p norms by enumerating every sign pattern (both sides for
    the decoupled form). Intended as a desk-scale oracle."""
    p_values = _check_moment_args(mode, p_values)
    bits = sum(coeffs.dims.dims)
    # a row of n entries per pattern: the coupled form's sign table, or the
    # decoupled form's values, which cover its table (N <= 2^bits)
    n = 1 << bits if mode == "decoupled" else coeffs.dims.total
    what = f"exact moments: a table of 2^{bits} sign patterns x {n} entries"
    _check_bytes(what, (8 * n) << bits, _TABLE_CAP)
    signs = kron_sign_patterns(coeffs.dims)
    m = coeffs.matrix
    if mode == "coupled":
        xs = np.einsum("ai,ij,aj->a", signs, m, signs)
    else:
        xs = (signs @ m @ signs.T).ravel()
    return _profile(coeffs, mode, p_values, centered, xs, None, None)


def moment_to_tail(gammas, exponents, p0, t):
    """Tail bound from a two-parameter moment growth table.

    gammas and exponents are (rows, cols) arrays: row k collects the
    moment scales gamma_{k,l} with growth exponents e_{k,l}. The bound is
    exp(p0) * exp(-min_k max_l (t / (e * rows * gamma_{k,l}))^{1/e_{k,l}}).
    """
    g = np.atleast_2d(_real(gammas))
    e = np.atleast_2d(_real(exponents))
    if g.shape != e.shape:
        raise ShapeError("gammas and exponents must have matching shapes")
    if np.any(g <= 0) or np.any(e <= 0):
        raise ShapeError("gammas and exponents must be positive")
    if t <= 0:
        raise ShapeError("threshold t must be positive")
    rows = g.shape[0]
    inner = (t / (math.e * rows * g)) ** (1.0 / e)
    exponent = np.min(np.max(inner, axis=1))
    return float(math.exp(p0) * math.exp(-exponent))


@dataclass(frozen=True)
class ExpectationReport:
    ok: bool
    expectation: float
    diag_bound: float
    delta1: float


def check_expectation_bound(phi, x):
    """The mean distortion is a diagonal sum controlled by the order-1
    isometry constant: |E X| <= max_j |diag_j| * ||x||^2 and the diagonal
    deviation never exceeds delta_1."""
    phi = _real(phi)
    x = _real(x)
    if x.ndim != 1 or x.size != phi.shape[1]:
        raise ShapeError("x must be a vector matching the column count")
    diag = np.sum(phi**2, axis=0) - 1.0
    expectation = float(np.dot(diag, x**2))
    diag_bound = float(np.max(np.abs(diag)))
    delta1 = rip_constant(phi, 1).delta
    norm2 = float(np.dot(x, x))
    tol = 1e-12 * max(1.0, diag_bound * norm2)
    ok = (
        abs(expectation) <= diag_bound * norm2 + tol
        and diag_bound <= delta1 + 1e-12 * max(1.0, delta1)
    )
    return ExpectationReport(
        ok=bool(ok), expectation=expectation, diag_bound=diag_bound,
        delta1=delta1,
    )


# ------------------------------------------------------------ scaling (12c)

# the row counts a scan reads, doubling from 2 up to 4096
_SCAN_ROWS = tuple(2 << k for k in range(12))
ROW_SCAN_START, ROW_SCAN_CAP = _SCAN_ROWS[0], _SCAN_ROWS[-1]
SCALING_EPS = 0.75
SCALING_TARGET = 0.1
SCALING_GRIDS = (("d1", ((1,), (2,), (3,))),
                 ("d2", ((1, 1), (1, 2), (2, 2))))


def kron_combinations(tables):
    """kron_materialize of every combination of one row per (rows_l, n_l)
    table: (prod rows_l, N), the first table's row varying slowest."""
    d = len(tables)
    # table l's rows on leading axis l, so the product broadcasts over
    # every combination
    shaped = [t.reshape((1,) * l + (-1,) + (1,) * (d - 1 - l) + t.shape[1:])
              for l, t in enumerate(tables)]
    n = math.prod(t.shape[1] for t in tables)
    return kron_materialize(shaped).reshape(-1, n)


def kron_sign_patterns(dims):
    """Every Kronecker sign vector over the axes, one per row:
    (2^{sum n_l}, N). The first axis's pattern varies slowest down the
    rows; within a pattern k of axis l, entry j is +1 where bit j of k
    is set."""
    return kron_combinations([
        ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1) * 2.0 - 1.0
        for n in dims
    ])


def _scan_interpolate(rates, target, trials):
    """Doubling scan of m over _SCAN_ROWS with log-log interpolation at the
    target crossing. `rates` yields the measured failure at each m in turn
    and is read no further than the first at or below `target`."""
    if not 0.0 < target < 1.0:
        raise ConfigError("target: must be in (0, 1)")
    floor = 0.5 / trials
    scan = []
    prev = None
    for m, eta_raw in zip(_SCAN_ROWS, rates):
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
    raise BudgetError(
        f"no row count <= {ROW_SCAN_CAP} reached joint failure {target}"
    )


def required_embedding_rows(dims, n_points, eps, target, trials, seed):
    """Smallest embedding row count whose joint failure on a kron pointset
    is at or below `target`, located by a scan of pointset_preservation's
    cells over _SCAN_ROWS with log-log interpolation at the crossing.
    Returns (m_star, scan), scan the (m, joint_eta) pairs examined."""
    reports = _pointset_cells(
        dims, n_points, _SCAN_ROWS, (eps,), trials, seed, "kron", False
    )
    return _scan_interpolate((r.joint_eta for r in reports), target, trials)


def _family_energies(dims):
    """Exact (H x)^2 for each unit member x of the flat Kronecker sign
    family, one per row in kron_sign_patterns order: (2^{sum n_l}, N)."""
    # a pattern times the +-1 Sylvester matrix is integer-valued, exact
    return kron_combinations(
        [(kron_sign_patterns((n,)) @ _sylvester(n) / n) ** 2 for n in dims])


def _adversarial_rates(r_dims, m_values, eps, trials, seed):
    """Checks the arguments and tabulates the family's energies now; then
    an iterator of the joint failure at each m in turn, cell k reading the
    rows of (seed, TAG_SAMPLES, axes, sum r_dims, k)."""
    r_dims = tuple(_integer(r, "r_dims:", ConfigError) for r in r_dims)
    if any(r < 1 for r in r_dims):
        raise ConfigError("r_dims: per-axis exponents must be >= 1")
    _check_cells(m_values, (eps,), trials)
    member_bits = sum(1 << r for r in r_dims)
    n = 1 << sum(r_dims)
    what = f"adversarial family: a table of 2^{member_bits} members x {n} columns"
    _check_bytes(what, (8 * n, member_bits), _TABLE_CAP)
    energy = _family_energies(KronDims(tuple(1 << r for r in r_dims)))
    path = (rand.TAG_SAMPLES, len(r_dims), sum(r_dims))

    def ratios(k, m):
        rng = rand.substream(seed, *path, k)
        # a trial holds its rows, its row counts and its members' sampled
        # energies; rows drawn in blocks read the stream as one draw does
        for lo, hi in _blocks(trials, 8 * (m + n + energy.shape[0])):
            at = rng.integers(0, n, size=(hi - lo, m))
            at += n * np.arange(hi - lo)[:, None]
            counts = np.bincount(at.ravel(), minlength=(hi - lo) * n)
            yield n / m * (counts.reshape(hi - lo, n) @ energy.T)

    return (_failures(ratios(k, m), eps)[0] / trials
            for k, m in enumerate(m_values))


def adversarial_joint_norm_failure(r_dims, m, eps, trials, seed):
    """Joint norm-preservation failure over the sign-modulated flat
    Kronecker family.

    The family has one unit point per combination of per-axis sign
    patterns on axes of length 2^{r_l}: 2^{sum 2^{r_l}} points. Whatever
    signs the operator draws, one member aligns with them, and its
    transform concentrates on a 2^{-sum r_l} fraction of coordinates, so
    the scan of the sampled energy inherits the miss behavior. The
    distribution of the family's norm profile is invariant to the sign
    draw, so only the sample rows are random here.

    Sampled energies are exact, because some members sit exactly on the
    |distortion| = eps boundary and the strict inequality must not depend
    on rounding. A member's energy is the product over axes of
    (W_l / n_l)^2, W_l being its axis pattern times the +-1 Sylvester
    matrix: an integer of size at most n_l, summed exactly. So every
    energy is an integer numerator of at most N^2 over N^2. A trial's
    sampled energy is its row counts, integers summing to m, times the
    energies: every product and partial sum is a multiple of 1 / N^2 of
    size at most m. Inside the table cap N^2 <= 2^16, so below
    m = 2^37 each fits in 53 bits: the product is exact in any summation
    order, as a gathered sum is.
    """
    return next(_adversarial_rates(r_dims, (m,), eps, trials, seed))


def required_rows_adversarial(r_dims, eps, target, trials, seed):
    """Smallest row count taming the adversarial family's joint failure;
    scan cell k is adversarial_joint_norm_failure's stream at index k."""
    rates = _adversarial_rates(r_dims, _SCAN_ROWS, eps, trials, seed)
    return _scan_interpolate(rates, target, trials)


@dataclass(frozen=True)
class ScalingReport:
    cells_d1: tuple  # (per-axis exponents, nominal point count, m*) rows
    cells_d2: tuple
    slope_d1: float
    slope_d2: float

    @property
    def slope_ratio(self):
        return self.slope_d2 / self.slope_d1


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
            rows.append((tuple(r_dims), 1 << sum(1 << r for r in r_dims), m_star))
        cells[key] = tuple(rows)
        loglogp = [math.log(math.log(p)) for _, p, _ in rows]
        logm = [math.log(m) for _, _, m in rows]
        slopes[key] = float(np.polyfit(loglogp, logm, 1)[0])
    return ScalingReport(
        cells_d1=cells["d1"], cells_d2=cells["d2"],
        slope_d1=slopes["d1"], slope_d2=slopes["d2"],
    )
