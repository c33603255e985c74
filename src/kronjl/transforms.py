"""Kronecker fast Johnson-Lindenstrauss operators.

An operator over axis sizes (n_1, ..., n_d) with target dimension m is

    A = sqrt(N/m) * P * H * D,

where D flips signs by a Kronecker product of independent per-axis
Rademacher vectors, H is the orthonormal length-N Walsh-Hadamard transform,
and P gathers m rows drawn uniformly with replacement (duplicates kept; m
may exceed N). Vectors live in the linearized order of kronjl.indexing:
the first axis varies fastest, so a rank-one array with factors
(x_1, ..., x_d) vectorizes to the Kronecker product with x_1 innermost.

The Kronecker structure lies only in D: for power-of-two axes,
H_{n_d} (x) ... (x) H_{n_1} = H_N, so the batched dense path treats each
row as one length-N vector (hadamard_rows), while apply_dense, its
reference, composes the full per-axis transforms. P keeps only m rows, so
where m is small against N (fwht.last_block) hadamard_rows transforms the
high bits of a row in full and runs the last 64-wide Sylvester block only
at the sampled rows. It streams a batch through blocks of rows of about
1 MiB, each dropped before the next, so its temporaries stay in cache and
do not grow with the batch; the block size changes no byte. A rank-one
input needs no length-N work: H D (x_1 (x) ... (x) x_d) is the Kronecker
product of the H_l (xi_l * x_l), and a sampled entry is a product of one
entry per axis, found at the bit fields of its row (sampled_entries).
apply_factored and the harness's kron and onehot trials take that path;
only dense inputs go through hadamard_rows.

Randomness: signs for axis l come from substream(seed, TAG_SIGNS, l); the
row sample from substream(seed, TAG_SAMPLES).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import rand
from .errors import BudgetError, ShapeError
from .fwht import fwht, fwht_axis, hadamard_matrix, last_block
from .indexing import KronDims

__all__ = [
    "RademacherFactors",
    "SampleSet",
    "KfjltOperator",
    "build_operator",
    "apply_dense",
    "apply_dense_mat",
    "apply_factored",
    "hadamard_rows",
    "kron_combinations",
    "kron_materialize",
    "kron_sign_patterns",
    "materialize",
    "sampled_entries",
]


MATERIALIZE_MAX_COLUMNS = 1 << 12  # an N x N float64 is 128 MiB at 2^12
_ROW_BLOCK_BYTES = 1 << 20  # half a 2 MiB per-core L2


def _frozen(a, dtype):
    """A read-only copy of `a`, so a frozen operator owns its arrays."""
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class RademacherFactors:
    """Per-axis sign vectors; the effective sign of entry i is the product
    over axes of factors[l][i_l - 1]. Each factor is a read-only copy of
    the caller's array."""

    factors: tuple

    def __post_init__(self):
        fac = tuple(_frozen(f, np.float64) for f in self.factors)
        for f in fac:
            if f.ndim != 1:
                raise ShapeError("each sign factor must be a 1-D vector")
            if not np.all(np.abs(f) == 1.0):
                raise ShapeError("sign factors must have +-1 entries")
        object.__setattr__(self, "factors", fac)

    def full_vector(self):
        """Signs in linearized order (length N)."""
        return kron_materialize(self.factors)


@dataclass(frozen=True)
class SampleSet:
    """Multiset of m sampled rows, 1-based positions in [N], kept as a
    read-only copy of the caller's array."""

    rows: np.ndarray
    total: int

    def __post_init__(self):
        rows = np.asarray(self.rows)
        if rows.ndim != 1:
            raise ShapeError(f"rows must be a 1-D array, got shape {rows.shape}")
        rows = _frozen(_check_rows(rows), np.int64)
        if rows.min() < 1 or rows.max() > self.total:
            raise ShapeError(f"sampled rows must lie in 1..{self.total}")
        object.__setattr__(self, "rows", rows)

    @property
    def m(self):
        return self.rows.size


@dataclass(frozen=True)
class KfjltOperator:
    dims: KronDims
    signs: RademacherFactors
    samples: SampleSet

    def __post_init__(self):
        if len(self.signs.factors) != self.dims.order:
            raise ShapeError("one sign factor per axis required")
        for n, f in zip(self.dims, self.signs.factors):
            if f.size != n:
                raise ShapeError(f"sign factor length {f.size} != axis size {n}")
        if self.samples.total != self.dims.total:
            raise ShapeError("sample set ambient size does not match dims")

    @property
    def m(self):
        return self.samples.m

    @property
    def scale(self):
        return math.sqrt(self.dims.total / self.samples.m)


def build_operator(dims, m, seed):
    """Draw a fresh operator: independent per-axis signs, then the row
    sample, from documented substreams of `seed`."""
    dims = KronDims(dims)
    for n in dims:
        if n & (n - 1):
            raise ShapeError(f"axis sizes must be powers of two, got {dims.dims}")
    if m < 1:
        raise ShapeError(f"target dimension must be >= 1, got {m}")
    factors = tuple(
        rand.rademacher(rand.substream(seed, rand.TAG_SIGNS, l), n)
        for l, n in enumerate(dims, start=1)
    )
    rows = rand.substream(seed, rand.TAG_SAMPLES).integers(
        1, dims.total + 1, size=m, dtype=np.int64
    )
    return KfjltOperator(
        dims=dims,
        signs=RademacherFactors(factors),
        samples=SampleSet(rows, dims.total),
    )


def kron_materialize(factors):
    """Kronecker product in linearized order: the entry at the position of
    full index i is the product of factors[l][..., i_l - 1].

    Factor l has shape (..., n_l); the leading axes broadcast, so a batch
    of per-axis factors gives a batch of products of shape (..., N).
    """
    factors = [np.asarray(f, dtype=np.float64) for f in factors]
    out = factors[0]
    for f in factors[1:]:
        # later axes vary slower: new index = (i_next - 1) * len(out) + old
        out = f[..., :, None] * out[..., None, :]
        out = out.reshape(out.shape[:-2] + (-1,))
    return out


def sampled_entries(factors, rows0):
    """kron_materialize(factors) at the 0-based positions rows0, bit for
    bit, without forming it.

    Factor l has shape (..., n_l), n_l a power of two, and rows0 shape
    (..., m). A 1-D factor serves every row; otherwise factor and rows
    have as many axes, and the leading ones broadcast as in
    np.take_along_axis. A position's F-order coordinate on axis l is a bit
    field of it, and the entries multiply in kron_materialize's order.
    """
    rows0 = np.asarray(rows0)
    out, shift = None, 0
    for f in factors:
        f = np.asarray(f, dtype=np.float64)
        n = f.shape[-1]
        at = (rows0 >> shift) & (n - 1)
        entry = f[at] if f.ndim == 1 else np.take_along_axis(f, at, axis=-1)
        out = entry if out is None else entry * out
        shift += n.bit_length() - 1
    return out


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


def apply_dense(op, x):
    """Apply the operator to a length-N vector via per-axis transforms.

    Cost O(N log N + m). It composes full transforms, one per axis,
    rather than the split length-N transform of hadamard_rows, so that
    the two derivations of H check each other (apply_dense_mat is tested
    against this function).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size != op.dims.total:
        raise ShapeError(f"expected a vector of length {op.dims.total}")
    # C order over the reversed dims is the linearized order: axis l is
    # C axis d - l
    arr = (x * op.signs.full_vector()).reshape(op.dims.dims[::-1])
    for axis in range(op.dims.order - 1, -1, -1):
        arr = fwht_axis(arr, axis)
    return op.scale * arr.reshape(-1)[op.samples.rows - 1]


def _check_rows(rows):
    """ShapeError unless `rows` is a non-empty integer array (bool and
    float rows would index as 0/1 or truncate); integer rows as int64."""
    if rows.dtype.kind not in "iu" or rows.shape[-1] == 0:
        raise ShapeError(
            f"rows must be a non-empty integer array, got {rows.dtype} "
            f"of shape {rows.shape}"
        )
    return rows.astype(np.int64, copy=False)


def hadamard_rows(xs, rows0):
    """Entries rows0[c] of the orthonormal length-N Walsh-Hadamard
    transform of each row xs[c] of a (count, N) matrix: (count, m).

    rows0 holds 0-based integer rows in [0, N), of shape (m,) for every
    row or (count, m); duplicates are kept. With the earliest axis
    fastest, the Kronecker product of the per-axis Sylvester factors is
    the length-N Sylvester matrix, so one transform serves every shape of
    the same N. It is split as H_N = H_{N/r} (x) H_r,
    r = fwht.last_block(N, m): the high bits are transformed in full, then
    only the m length-r rows holding the sampled entries take the last
    block. That block costs count * m * r^2 multiply-adds where the full
    transform's last digit costs count * N * r, and r = 64 only where
    m * r <= N / 4; otherwise r = 1, the full transform and a gather.

    The rows go through in blocks of about _ROW_BLOCK_BYTES of row or
    gathered data, each transformed, gathered and read into the
    (count, m) result before the next starts, so the temporaries stay in
    cache and do not grow with count. Each row meets the same products
    whatever the block, so the block size changes no byte.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2:
        raise ShapeError(f"expected a (count, N) matrix, got shape {xs.shape}")
    count, n = xs.shape
    rows0 = np.asarray(rows0)
    if rows0.ndim not in (1, 2) or rows0.shape[:-1] not in ((), (count,)):
        raise ShapeError(
            f"rows must have shape (m,) or ({count}, m), got {rows0.shape}"
        )
    rows0 = _check_rows(rows0)
    m = rows0.shape[-1]
    r = last_block(n, m)
    if np.any((rows0 < 0) | (rows0 >= n)):
        raise ShapeError(f"rows must lie in 0..{n - 1}")
    rows0 = np.broadcast_to(rows0, (count, m))
    out = np.empty((count, m))
    # numpy sends a one-row matrix product to gemv, whose sums round
    # unlike gemm's. One row's last product has one row where a split
    # keeps m = 1 or an unsplit row is one digit (N <= 64), so there
    # every block, the last included, holds two rows unless the batch
    # has one.
    one_row = m == 1 if r > 1 else n <= 64
    least = 2 if one_row else 1
    step = max(least, _ROW_BLOCK_BYTES // (8 * max(n, m * r)))
    starts = range(0, max(count - least + 1, 1), step)
    for lo, hi in zip(starts, [*starts[1:], count]):
        out[lo:hi] = _block_rows(xs[lo:hi], rows0[lo:hi], r)
    return out


def _block_rows(xs, rows0, r):
    """hadamard_rows of one block with last block r; its temporaries die
    with the call."""
    count, n = xs.shape
    # the length-r rows of every xs[c], one after another, at rows0 // r
    picked = fwht_axis(xs.reshape(count, n // r, r), 1).reshape(-1, r)[
        rows0 // r + (np.arange(count) * (n // r))[:, None]
    ]
    low = fwht_axis(picked, 2)
    return np.take_along_axis(low, (rows0 % r)[:, :, None], axis=2)[:, :, 0]


def apply_dense_mat(op, xs):
    """Apply one operator to the rows of a (count, N) matrix in a batch:
    hadamard_rows computes only the m sampled entries of each row."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != op.dims.total:
        raise ShapeError(f"expected shape (count, {op.dims.total})")
    ys = hadamard_rows(xs * op.signs.full_vector()[None, :], op.samples.rows - 1)
    return op.scale * ys


def apply_factored(op, factors):
    """Apply the operator to a rank-one input given by per-axis factors.

    Cost O(sum_l n_l log n_l + m d): each factor is sign-flipped and
    transformed on its own axis, then sampled entries are products of
    per-axis entries.
    """
    if len(factors) != op.dims.order:
        raise ShapeError("one input factor per axis required")
    transformed = []
    for f, s, n in zip(factors, op.signs.factors, op.dims):
        f = np.asarray(f, dtype=np.float64)
        if f.shape != (n,):
            raise ShapeError(f"factor shape {f.shape} != ({n},)")
        transformed.append(fwht(f * s))
    return op.scale * sampled_entries(transformed, op.samples.rows - 1)


def materialize(op):
    """Dense (m, N) matrix of the operator, built from the Hadamard
    recursion rather than the transform kernels.

    It stays the Kronecker product of per-axis matrices. That is an
    independent derivation of the operator, and the recorded oracle
    digests come from its bits: hadamard_matrix(N) rounds differently
    (neither is exact), which moves outputs such as a RIP constant in the
    last bits. Wider than MATERIALIZE_MAX_COLUMNS it allocates nothing.
    """
    size = op.dims.total
    if size > MATERIALIZE_MAX_COLUMNS:
        raise BudgetError(f"materialize: N = {size} needs {8 * size**2} bytes (N x N)")
    hs = [hadamard_matrix(n) for n in op.dims]
    h_full = hs[-1]
    for h in hs[-2::-1]:
        h_full = np.kron(h_full, h)  # earlier axes innermost (fastest)
    signs = op.signs.full_vector()
    return op.scale * h_full[op.samples.rows - 1] * signs[None, :]
