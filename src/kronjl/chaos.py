"""Rademacher chaos machinery: partition norms, moments, tails.

The quadratic form of interest is X = sum over index pairs (i, i') of
W[i +. i'] xi_i xi'_{i'}, where W is an order-2d coefficient array over
doubled axes, xi is a Kronecker product of per-axis sign vectors, and xi'
is either the same draw (coupled) or an independent copy (decoupled).
Taking W = (Phi* Phi - I) weighted entrywise by x_i x_{i'} makes the
coupled form exactly the squared-norm distortion ||A vec x||^2 - ||x||^2
of the subsampled operator with measurement matrix Phi.

Partition norms generalize Frobenius (one block) and the spectral norm of
a matricization (two blocks); for three or more blocks the supremum is
approximated from below by multi-start alternating maximization and the
returned value is a certified lower bound of the true norm (SUP_TOL,
SUP_MAX_ITER and SUP_SEED fix the search). Exact moments (at most
EXACT_PATTERN_BUDGET sign patterns) and Monte Carlo moments (with
BOOTSTRAP_RESAMPLES bootstrap resamples) share all but the signs.

Set partitions come from one recursion that yields rows of block labels
(blocks numbered by their minima). enumerate_partitions maps them to
SetPartitions one at a time; the partition-counting check stacks them
into a label table per ground size and checks each (S, T) cell in one
array pass, with no SetPartition unless a row violates the inequality.
"""

import itertools
import math
from dataclasses import dataclass
from string import ascii_lowercase

import numpy as np

from . import rand
from .errors import BudgetError, ShapeError
from .indexing import KronDims, _group_positions
from .rip import rip_constant
from .transforms import kron_materialize, kron_sign_patterns

__all__ = [
    "SetPartition",
    "ChaosCoefficients",
    "MomentProfile",
    "enumerate_partitions",
    "partition_norm",
    "moment_bound_profile",
    "estimate_chaos_moments",
    "exact_chaos_moments",
    "moment_to_tail",
    "check_partition_counting",
    "check_expectation_bound",
]

PARTITION_GROUND_LIMIT = 12
EXACT_PATTERN_BUDGET = 1 << 24
SUP_TOL = 1e-10
SUP_MAX_ITER = 10_000
SUP_SEED = 0
BOOTSTRAP_RESAMPLES = 200
# resamples per draw; this bounds memory only, since consecutive draws read
# the TAG_BOOTSTRAP stream as one draw does
_BOOTSTRAP_BLOCK = 50


@dataclass(frozen=True)
class SetPartition:
    """Partition of a finite ground set into non-empty disjoint blocks,
    stored canonically (blocks sorted by their minima)."""

    blocks: tuple

    def __post_init__(self):
        blocks = tuple(frozenset(int(e) for e in b) for b in self.blocks)
        if any(not b for b in blocks):
            raise ShapeError("blocks must be non-empty")
        all_elems = [e for b in blocks for e in b]
        if len(all_elems) != len(set(all_elems)):
            raise ShapeError("blocks must be disjoint")
        object.__setattr__(
            self, "blocks", tuple(sorted(blocks, key=min))
        )

    @property
    def ground(self):
        return frozenset(e for b in self.blocks for e in b)

    @property
    def kappa(self):
        return len(self.blocks)


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


def _label_table(g):
    """(B(g), g) int64 array of block labels, one row per set partition
    of range(g), in the order enumerate_partitions yields them."""
    if g == 0:
        return np.zeros((1, 0), dtype=np.int64)  # the empty partition
    # rows stream into the array: no list of B(g) row lists is held
    return np.fromiter(_label_rows(g), dtype=np.dtype((np.int64, g)))


def _partition_from_labels(items, row):
    blocks = [[] for _ in range(max(row, default=-1) + 1)]
    for e, label in zip(items, row):
        blocks[label].append(e)
    return SetPartition(tuple(blocks))


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
    block factors with `restarts` seeded starts; the result is a lower
    bound that is exact in the matrix cases.
    """
    arr = np.asarray(arr, dtype=np.float64)
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
    arr = np.asarray(arr, dtype=np.float64)
    p_values = tuple(float(p) for p in p_values)
    if any(p <= 0 for p in p_values):
        raise ShapeError("p must be positive")
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


@dataclass(frozen=True)
class ChaosCoefficients:
    """Order-2d coefficient array over doubled axes (dims + dims)."""

    dims: KronDims
    array: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.array, dtype=np.float64)
        if arr.shape != self.dims.dims * 2:
            raise ShapeError(
                f"array shape {arr.shape} != doubled dims {self.dims.dims * 2}"
            )
        object.__setattr__(self, "array", arr)

    @classmethod
    def from_gram(cls, dims, matrix, weights=None):
        """Wrap an (N, N) matrix indexed by linearized positions; optional
        entrywise weights w_i w_j (vector of length N)."""
        dims = KronDims(dims)
        matrix = np.asarray(matrix, dtype=np.float64)
        n = dims.total
        if matrix.shape != (n, n):
            raise ShapeError(f"matrix shape {matrix.shape} != ({n}, {n})")
        if weights is not None:
            w = np.asarray(weights, dtype=np.float64)
            if w.shape != (n,):
                raise ShapeError(f"weights must have length {n}")
            matrix = matrix * w[:, None] * w[None, :]
        return cls(dims=dims, array=matrix.reshape(dims.dims * 2, order="F"))

    @classmethod
    def distortion(cls, dims, phi, x):
        """Coefficients of ||Phi vec||^2 - ||.||^2 at the weighting x (a
        length-N vector): hollow Gram entries times x_i x_j."""
        phi = np.asarray(phi, dtype=np.float64)
        gram = phi.T @ phi - np.eye(phi.shape[1])
        return cls.from_gram(dims, gram, weights=x)

    @property
    def matrix(self):
        n = self.dims.total
        return self.array.reshape((n, n), order="F")


@dataclass(frozen=True)
class MomentProfile:
    mode: str
    p_values: tuple
    estimates: tuple
    stderrs: tuple
    trials: int
    seed: object
    mean: float  # exact expectation of the uncentered form
    centered: bool


def _sign_rows(seed, copy, trials, dims):
    """Row-wise Kronecker signs from substream(seed, TAG_EXPERIMENT, copy):
    (trials, N) with axis 1 fastest, drawn by ascending axis."""
    rng = rand.substream(seed, rand.TAG_EXPERIMENT, copy)
    return kron_materialize(rand.rademacher_factors(rng, trials, dims))


def _check_moment_args(mode, p_values):
    if mode not in ("coupled", "decoupled"):
        raise ShapeError(f"mode must be coupled|decoupled, got {mode!r}")
    p_values = tuple(float(p) for p in p_values)
    if not all(p >= 1 for p in p_values):
        raise ShapeError("moment orders must be >= 1")
    return p_values


def _lp_norms(absx, p_values):
    """L_p means of |X| samples along the last axis, one column per p."""
    out = np.empty(absx.shape[:-1] + (len(p_values),))
    for j, p in enumerate(p_values):
        out[..., j] = np.mean(absx**p, axis=-1) ** (1.0 / p)
    return out


def _profile(coeffs, mode, p_values, centered, xs, seed, boot_rng):
    """Shared tail of both moment routines: the exact mean, optional
    centering at it, the L_p norms of |X| and, given a generator,
    bootstrap standard errors (exact enumeration reports zeros)."""
    mean = float(np.trace(coeffs.matrix)) if mode == "coupled" else 0.0
    absx = np.abs(xs - mean if centered else xs)
    n = absx.size
    stderrs = np.zeros(len(p_values))
    if boot_rng is not None:
        draws = (boot_rng.integers(0, n, size=(_BOOTSTRAP_BLOCK, n))
                 for _ in range(BOOTSTRAP_RESAMPLES // _BOOTSTRAP_BLOCK))
        boot = np.concatenate([_lp_norms(absx[i], p_values) for i in draws])
        stderrs = boot.std(axis=0, ddof=1)
    return MomentProfile(
        mode=mode, p_values=p_values,
        estimates=tuple(float(v) for v in _lp_norms(absx, p_values)),
        stderrs=tuple(float(s) for s in stderrs), trials=n, seed=seed,
        mean=mean, centered=centered,
    )


def estimate_chaos_moments(coeffs, mode, p_values, trials, seed,
                           centered=False):
    """Monte Carlo L_p norms of the chaos, with bootstrap standard errors.

    Sign draws: substream(seed, TAG_EXPERIMENT, 1) for xi and (seed,
    TAG_EXPERIMENT, 2) for the independent copy; bootstrap resampling uses
    substream(seed, TAG_BOOTSTRAP). `centered` subtracts the exact mean
    (only meaningful for the coupled form; the decoupled mean is zero).
    """
    p_values = _check_moment_args(mode, p_values)
    if trials < 2:
        raise ShapeError("need at least 2 trials")
    left = _sign_rows(seed, 1, trials, coeffs.dims)
    if mode == "coupled":
        right = left
    else:
        right = _sign_rows(seed, 2, trials, coeffs.dims)
    xs = np.einsum("ti,ij,tj->t", left, coeffs.matrix, right)
    boot_rng = rand.substream(seed, rand.TAG_BOOTSTRAP)
    return _profile(coeffs, mode, p_values, centered, xs, seed, boot_rng)


def exact_chaos_moments(coeffs, mode, p_values, centered=False):
    """Exact L_p norms by enumerating every sign pattern (both sides for
    the decoupled form). Intended as a desk-scale oracle."""
    p_values = _check_moment_args(mode, p_values)
    patterns = 1 << sum(coeffs.dims.dims)
    cost = patterns * patterns if mode == "decoupled" else patterns
    if cost > EXACT_PATTERN_BUDGET:
        raise BudgetError(
            f"{cost} sign patterns exceed the enumeration budget "
            f"{EXACT_PATTERN_BUDGET}"
        )
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
    g = np.atleast_2d(np.asarray(gammas, dtype=np.float64))
    e = np.atleast_2d(np.asarray(exponents, dtype=np.float64))
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
class PartitionCountingReport:
    ok: bool
    order: int
    checked: int
    violations: tuple


def check_partition_counting(d):
    """Exhaustively verify the block-counting inequality used by the tail
    analysis: for subsets S, T of [d] and any partition of
    [2d] \\ (S u (T+d)) into kappa blocks, with I the union of blocks
    inside [d], I' the union inside [2d] \\ [d], and J the rest,
    |J|/4 + (|I| + |I'|)/2 >= kappa/2.

    Each (S, T) cell is one array pass over the label table of its
    ground (built once per call for sizes 0..2d): block sizes and
    left-side counts per partition come from one bincount each, and only
    a violating partition becomes a SetPartition."""
    if not 1 <= d <= 4:
        raise BudgetError(f"supported for 1 <= d <= 4, got {d}")
    axes = range(1, d + 1)
    tables = [_label_table(g) for g in range(2 * d + 1)]
    checked = 0
    violations = []
    for s_size in range(d + 1):
        for s_sub in itertools.combinations(axes, s_size):
            for t_size in range(d + 1):
                for t_sub in itertools.combinations(axes, t_size):
                    removed = set(s_sub) | {a + d for a in t_sub}
                    ground = [e for e in range(1, 2 * d + 1)
                              if e not in removed]
                    table = tables[len(ground)]
                    kappa, lhs = _counting_sides(table, ground, d)
                    checked += len(table)
                    for r in np.flatnonzero(lhs < kappa / 2.0 - 1e-12):
                        part = _partition_from_labels(ground, table[r].tolist())
                        violations.append((s_sub, t_sub, part))
    return PartitionCountingReport(
        ok=not violations, order=d, checked=checked,
        violations=tuple(violations[:8]),
    )


def _counting_sides(table, ground, d):
    """Block count kappa and left side |J|/4 + (|I| + |I'|)/2 of every
    row of a label table over `ground`, whose elements up to d lie in
    the left half."""
    n, g = table.shape
    cells = np.arange(n)[:, None] * g + table
    sizes = np.bincount(cells.ravel(), minlength=n * g).reshape(n, g)
    on_left = np.array([e <= d for e in ground], dtype=bool)
    left = np.bincount(
        cells[:, on_left].ravel(), minlength=n * g
    ).reshape(n, g)
    kappa = np.count_nonzero(sizes, axis=1)
    i_left = np.where(left == sizes, sizes, 0).sum(axis=1)
    i_right = np.where(left == 0, sizes, 0).sum(axis=1)
    j_mixed = g - i_left - i_right
    return kappa, j_mixed / 4.0 + (i_left + i_right) / 2.0


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
    phi = np.asarray(phi, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
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
