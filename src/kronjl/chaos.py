"""Rademacher chaos machinery: Monte Carlo moments and partition counting.

The quadratic form of interest is X = sum over index pairs (i, i') of
W[i +. i'] xi_i xi'_{i'}, where W is an order-2d coefficient array over
doubled axes, xi is a Kronecker product of per-axis sign vectors, and xi'
is either the same draw (coupled) or an independent copy (decoupled).
Taking W = (Phi* Phi - I) weighted entrywise by x_i x_{i'} makes the
coupled form exactly the squared-norm distortion ||A vec x||^2 - ||x||^2
of the subsampled operator with measurement matrix Phi.

Monte Carlo moments carry BOOTSTRAP_RESAMPLES bootstrap resamples. Their
tail, `_profile`, also serves the exact moments by sign enumeration in
tests/theory_oracles.py, which holds the partition norms and the tail
conversion too until a command runs them (ROADMAP item 12b).

Set partitions come in one order, that of a recursion over rows of block
labels (blocks numbered by their minima). The partition-counting check
builds those rows as a label table per ground size, in numpy, level by
level, and checks one array pass per class (|S|, |T|) of (S, T) cells,
since a cell's sides depend only on the two sizes; no SetPartition is
made unless a row violates the inequality.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import rand
from .errors import BudgetError, ShapeError
from .indexing import _ITEM_CAP, _TABLE_CAP, KronDims, _blocks, _check_bytes, _real
from .transforms import kron_materialize

__all__ = [
    "SetPartition",
    "ChaosCoefficients",
    "MomentProfile",
    "estimate_chaos_moments",
    "check_partition_counting",
]

BOOTSTRAP_RESAMPLES = 200


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


def _label_table(g):
    """(B(g), g) int64 array of block labels, one row per set partition
    of range(g), in the order of a recursion over the elements, the order
    of the partition enumeration in tests/theory_oracles.py.

    Built in numpy, level by level in the order of that recursion:
    element k joins each block of every partition of k + 1 .. g - 1 in
    turn, then opens a new front block. Blocks gain
    elements largest first, so a block's position in the recursion's list
    is the rank of its largest element; the table holds these positions
    until the last level, and then numbers the blocks by their minima."""
    pos = np.zeros((1, 0), dtype=np.int64)
    blocks = np.zeros(1, dtype=np.int64)  # blocks per partition
    for _ in range(g):
        children = blocks + 1
        parent = np.repeat(np.arange(blocks.size), children)
        first = np.cumsum(children) - children
        slot = np.arange(parent.size) - first[parent]
        new = slot == blocks[parent]  # the new front block
        pos = np.column_stack(
            (np.where(new, 0, slot), pos[parent] + new[:, None])
        )
        blocks = blocks[parent] + new
    # number the blocks in the order their minima appear along the row
    rows = np.arange(pos.shape[0])
    label_of = np.full(pos.shape, -1, dtype=np.int64)
    seen = np.zeros(pos.shape[0], dtype=np.int64)
    labels = np.empty_like(pos)
    for e in range(g):
        p = pos[:, e]
        fresh = label_of[rows, p] < 0
        label_of[rows[fresh], p[fresh]] = seen[fresh]
        seen += fresh
        labels[:, e] = label_of[rows, p]
    return labels


def _partition_from_labels(items, row):
    blocks = [[] for _ in range(max(row, default=-1) + 1)]
    for e, label in zip(items, row):
        blocks[label].append(e)
    return SetPartition(tuple(blocks))


@dataclass(frozen=True)
class ChaosCoefficients:
    """Order-2d coefficient array over doubled axes (dims + dims)."""

    dims: KronDims
    array: np.ndarray

    def __post_init__(self):
        arr = _real(self.array)
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
        matrix = _real(matrix)
        n = dims.total
        if matrix.shape != (n, n):
            raise ShapeError(f"matrix shape {matrix.shape} != ({n}, {n})")
        if weights is not None:
            w = _real(weights)
            if w.shape != (n,):
                raise ShapeError(f"weights must have length {n}")
            matrix = matrix * w[:, None] * w[None, :]
        return cls(dims=dims, array=matrix.reshape(dims.dims * 2, order="F"))

    @classmethod
    def distortion(cls, dims, phi, x):
        """Coefficients of ||Phi vec||^2 - ||.||^2 at the weighting x (a
        length-N vector): hollow Gram entries times x_i x_j. The N x N
        Gram is refused over the table cap before it is formed."""
        phi = _real(phi)
        n = phi.shape[1]
        _check_bytes(f"the {n} x {n} Gram matrix", 8 * n * n, _TABLE_CAP)
        gram = phi.T @ phi - np.eye(n)
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
    if not all(1 <= p < math.inf for p in p_values):
        raise ShapeError("moment orders must be finite and >= 1")
    return p_values


def _lp_norms(power, p_values, rows=()):
    """L_p means along the last axis, one column per p, where power(p)
    gives the p-th powers of |X| samples as an array of shape rows +
    (samples,); each is dropped before the next is asked for."""
    out = np.empty(rows + (len(p_values),))
    for j, p in enumerate(p_values):
        out[..., j] = np.mean(power(p), axis=-1) ** (1.0 / p)
    return out


def _profile(coeffs, mode, p_values, centered, xs, seed, boot_rng):
    """Shared tail of both moment routines: the exact mean, optional
    centering at it, the L_p norms of |X| and, given a generator,
    bootstrap standard errors (exact enumeration reports zeros). The
    samples `xs`, which both routines own, become |X| in place."""
    mean = float(np.trace(coeffs.matrix)) if mode == "coupled" else 0.0
    if centered:
        xs -= mean
    absx = np.abs(xs, out=xs)
    n = absx.size
    stderrs = np.zeros(len(p_values))
    if boot_rng is None:
        power = absx.__pow__  # one table-sized power at a time
    else:
        # each |X|^p once: a resample gathers its powers, the same floats
        # its values' powers would be. Resamples drawn a block at a time
        # read the TAG_BOOTSTRAP stream as one draw does, so the blocks
        # bound memory only; a resample holds its indices and a gather
        powers = {p: absx**p for p in p_values}
        power = powers.__getitem__
        draws = (boot_rng.integers(0, n, size=(hi - lo, n))
                 for lo, hi in _blocks(BOOTSTRAP_RESAMPLES, 24 * n))
        boot = np.concatenate([_lp_norms(lambda p: powers[p][i], p_values,
                                         i.shape[:1]) for i in draws])
        stderrs = boot.std(axis=0, ddof=1)
    return MomentProfile(
        mode=mode, p_values=p_values,
        estimates=tuple(float(v) for v in _lp_norms(power, p_values)),
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
    The (trials, N) sign rows, one table per copy, are one item, refused
    over the item cap before they are drawn.
    """
    p_values = _check_moment_args(mode, p_values)
    if trials < 2:
        raise ShapeError("need at least 2 trials")
    copies, tables = (1, "sign table") if mode == "coupled" else (2, "2 sign tables")
    n = coeffs.dims.total
    _check_bytes(f"a chaos estimate's {tables} of {trials} trials x {n} entries",
                 8 * copies * trials * n, _ITEM_CAP)
    left = _sign_rows(seed, 1, trials, coeffs.dims)
    if mode == "coupled":
        right = left
    else:
        right = _sign_rows(seed, 2, trials, coeffs.dims)
    xs = np.einsum("ti,ij,tj->t", left, coeffs.matrix, right)
    boot_rng = rand.substream(seed, rand.TAG_BOOTSTRAP)
    return _profile(coeffs, mode, p_values, centered, xs, seed, boot_rng)


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

    A cell's ground has 2d - |S| - |T| elements, the first d - |S| of
    them on the left, so both sides of every partition depend only on the
    class (|S|, |T|): one array pass over the label table of the ground
    size (built once per call for sizes 0..2d) serves every cell of a
    class. Block sizes and left-side counts per partition come from one
    bincount each, and only a violating partition becomes a SetPartition,
    on its cell's ground."""
    if not 1 <= d <= 4:
        raise BudgetError(f"supported for 1 <= d <= 4, got {d}")
    axes = range(1, d + 1)
    tables = [_label_table(g) for g in range(2 * d + 1)]
    violating = {}  # (|S|, |T|) -> the rows that violate the inequality
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
                    if (s_size, t_size) not in violating:
                        kappa, lhs = _counting_sides(table, ground, d)
                        violating[s_size, t_size] = np.flatnonzero(
                            lhs < kappa / 2.0 - 1e-12)
                    checked += len(table)
                    for r in violating[s_size, t_size]:
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
