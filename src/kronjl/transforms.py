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
row as one length-N vector (hadamard_rows, whose docstring describes its
blocks, threads and buffers), while apply_dense, its reference, signs with
the length-N sign vector and composes per-axis transforms. P keeps only m
rows, so where m is small against N hadamard_rows runs its last 32-wide
Sylvester block (fwht.last_block), and apply_dense its first axis, only at
the sampled rows. A rank-one input needs no length-N work:
H D (x_1 (x) ... (x) x_d) is the Kronecker product of the
H_l (xi_l * x_l), and a sampled entry is a product of one entry per
axis, found at the bit fields of its row (_gathered).
apply_factored and the harness's kron and onehot trials take that path;
only dense inputs go through hadamard_rows.

Randomness: signs for axis l come from substream(seed, TAG_SIGNS, l); the
row sample from substream(seed, TAG_SAMPLES).
"""

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import rand
from .errors import ShapeError
from .fwht import _digits, _transformed, fwht, fwht_axis, hadamard_matrix, last_block
from .indexing import _TABLE_CAP, KronDims, _blocks, _check_bytes, _integer, _real

__all__ = [
    "RademacherFactors",
    "SampleSet",
    "KfjltOperator",
    "build_operator",
    "apply_dense",
    "apply_dense_mat",
    "apply_factored",
    "hadamard_rows",
    "kron_materialize",
    "materialize",
]

# A hadamard_rows call of two or more blocks runs on two threads where this
# process may use two CPUs and BLAS runs one thread: two callers of a
# multi-threaded BLAS contend (at two BLAS threads on 2 vCPUs, the operator
# benchmark's batch took 40-44 ms on two threads, 27 ms on one). numpy does
# not report the BLAS thread count, so it is read once here, as OpenBLAS
# reads it at load: the first of its variables set to a positive count,
# else one per CPU.
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
_BLAS_THREADS = next(
    (int(v) for v in map(os.environ.get, (
        "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"))
     if v and v.strip().isdigit() and int(v) > 0),
    _CPUS)
_TWO_THREADS = _CPUS >= 2 and _BLAS_THREADS == 1


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
        fac = tuple(_frozen(_real(f), np.float64) for f in self.factors)
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
    m = _integer(m, "target dimension m")
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


def kron_materialize(factors, out=None):
    """Kronecker product in linearized order: the entry at the position of
    full index i is the product of factors[l][..., i_l - 1].

    Factor l has shape (..., n_l); the leading axes broadcast, so a batch
    of per-axis factors gives a batch of products of shape (..., N). It is
    built in place, in `out` where given (float64 with last axis N, the
    factors broadcasting over its leading axes), and nothing else of its
    size is allocated. One factor and no `out` give that factor itself.
    """
    factors = [_real(f) for f in factors]
    if not factors:
        raise ShapeError("need at least one factor")
    n = math.prod(f.shape[-1] for f in factors)
    if out is None:
        if len(factors) == 1:
            return factors[0]
        out = np.empty(np.broadcast_shapes(*(f.shape[:-1] for f in factors)) + (n,))
    elif out.shape[-1:] != (n,) or out.dtype != np.float64:
        raise ShapeError(f"out must be float64 with last axis {n}, got {out.shape}")
    size = factors[0].shape[-1]
    out[..., :size] = factors[0]
    for f in factors[1:]:
        # later axes vary slower: entries 2..k of f times the product so far
        # go behind it (a view of `out`), then entry 1 scales it in place
        k = f.shape[-1]
        grid = out[..., :size * k].reshape(out.shape[:-1] + (k, size))
        np.multiply(f[..., 1:, None], grid[..., :1, :], out=grid[..., 1:, :])
        out[..., :size] *= f[..., :1]
        size *= k
    return out


def _gathered(factors, rows0):
    """kron_materialize(factors) at the 0-based positions rows0, bit for
    bit, without forming it: a position's F-order coordinate on axis l is
    a bit field of it, and the entries multiply in kron_materialize's
    order. Factor l has shape (..., n_l) and rows0 shape (..., m); a 1-D
    factor serves every row, otherwise the leading axes broadcast as in
    np.take_along_axis. Unchecked: its callers' float64 factors have
    power-of-two lengths and their int64 rows are known to lie in
    [0, N), an operator's own rows or rows drawn there."""
    out, shift = None, 0
    for f in factors:
        n = f.shape[-1]
        at = (rows0 >> shift) & (n - 1)
        entry = f[at] if f.ndim == 1 else np.take_along_axis(f, at, axis=-1)
        out = entry if out is None else entry * out
        shift += n.bit_length() - 1
    return out


def apply_dense(op, x):
    """Apply the operator to a length-N vector via per-axis transforms.

    It signs x with op.signs.full_vector(), then composes transforms, one
    fwht_axis call per axis, rather than the split length-N transform of
    hadamard_rows, so that the two derivations of H check each other
    (apply_dense_mat is tested against this function). Where the m sampled
    fibres of the first (fastest) axis make at most a quarter of the
    vector (d > 1 and 4 m n_1 <= N), it writes H_N = H_{N/n_1} (x) H_{n_1}
    per axis: axes 2..d are transformed in full, then axis 1 only at the m
    fibres holding the sampled entries. Cost O(N log(N/n_1) + m n_1 log n_1)
    there, else O(N log N + m).
    """
    x = _real(x)
    if x.ndim != 1 or x.size != op.dims.total:
        raise ShapeError(f"expected a vector of length {op.dims.total}")
    n1, rows0 = op.dims.dims[0], op.samples.rows - 1
    split = op.dims.order > 1 and 4 * op.m * n1 <= op.dims.total
    # C order over the reversed dims is the linearized order: axis l is
    # C axis d - l
    arr = (x * op.signs.full_vector()).reshape(op.dims.dims[::-1])
    for axis in range(op.dims.order - 1 - split, -1, -1):
        arr = fwht_axis(arr, axis)
    if not split:
        return op.scale * arr.reshape(-1)[rows0]
    fibres = fwht_axis(arr.reshape(-1, n1)[rows0 // n1], 1)
    return op.scale * fibres[np.arange(op.m), rows0 % n1]


def _check_rows(rows):
    """ShapeError unless `rows` is a non-empty integer array (bool and
    float rows would index as 0/1 or truncate); integer rows as int64."""
    if rows.dtype.kind not in "iu" or rows.ndim == 0 or rows.shape[-1] == 0:
        raise ShapeError(
            f"rows must be a non-empty integer array, got {rows.dtype} "
            f"of shape {rows.shape}"
        )
    return rows.astype(np.int64, copy=False)


def hadamard_rows(xs, rows0, factors):
    """Entries rows0 of the orthonormal length-N Walsh-Hadamard transform
    of each point xs[p] of a (points, N) matrix under each trial t:
    (trials, points, m). Sign factor l has shape (trials, n_l), prod n_l =
    N, and the Kronecker product of the factors' rows t (kron_materialize)
    signs trial t; unit factors, [np.ones((1, N))], sign nothing.

    rows0 holds 0-based integer rows in [0, N), of shape (m,) for every
    row or broadcasting to the result's shape (the harness passes
    (trials, 1, m), a trial's rows for each of its points); duplicates
    are kept. With the earliest axis fastest, the Kronecker product of
    the per-axis Sylvester factors is the length-N Sylvester matrix, so
    one transform serves every shape of the same N. It is split as
    H_N = H_{N/r} (x) H_r, r = fwht.last_block(N, m): the high bits are
    transformed in full, then only the m length-r rows holding the
    sampled entries take the last block. That block costs m * r^2
    multiply-adds a row where the full transform's last digit costs
    N * r, and r = 32 only where m * r <= N / 4; otherwise r = 1, the
    full transform and a gather.

    The rows, trial by trial, go through in blocks of about 1 MiB of row
    or gathered data (indexing._blocks), each signed, transformed,
    gathered and read into the result. A row's signs are written into the
    buffer that then holds it: one trial's vector is formed once per call
    and multiplies each block; under several trials kron_materialize forms
    a block's vectors in the buffer, a row each, and they are multiplied
    by their points, with no loop over rows. The caller takes the blocks
    one after another. Where there are two or more and the process may
    use two CPUs while BLAS runs one thread (_TWO_THREADS, read at import
    from the CPU affinity and OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or
    OMP_NUM_THREADS), a helper thread, which the call starts and joins,
    takes blocks from the same sequence, each thread the next one as it
    comes free. Each thread allocates one pair of buffers for the largest
    block (the signed rows, which the kernel then alternates with the
    other; the one its high-bit transform leaves free holds the row index
    and the gathered rows) and every block it runs reuses them, so the
    temporaries stay in cache and do not grow with the rows. Each row
    meets the same products whatever its block or thread, and a sign flip
    is exact, so neither the block size nor the thread count changes a
    byte, and the bytes are those of signing every row up front.
    """
    xs = _real(xs)
    if xs.ndim != 2:
        raise ShapeError(f"expected a (points, N) matrix, got shape {xs.shape}")
    points, n = xs.shape
    factors = [_real(f) for f in factors]
    shapes = [f.shape for f in factors]
    if (not factors or any(len(s) != 2 or s[0] != shapes[0][0] for s in shapes)
            or math.prod(s[1] for s in shapes) != n):
        raise ShapeError(
            f"sign factors must be (trials, n_l) arrays with prod n_l = {n}, "
            f"got {len(shapes)} of shapes {shapes[:4]}")
    lead = (shapes[0][0], points)
    rows0 = np.asarray(rows0)
    if not 1 <= rows0.ndim <= 3 or any(
            a not in (1, b) for a, b in zip(rows0.shape[-2::-1], lead[::-1])):
        raise ShapeError(
            f"rows must have shape (m,) or {lead + ('m',)}, got {rows0.shape}")
    rows0 = _check_rows(rows0)
    m = rows0.shape[-1]
    r = last_block(n, m)
    if np.any((rows0 < 0) | (rows0 >= n)):
        raise ShapeError(f"rows must lie in 0..{n - 1}")
    count = math.prod(lead)
    rows0 = np.broadcast_to(rows0, lead + (m,)).reshape(count, m)
    out = np.empty((count, m))
    # a row's floats, and its share of each buffer: the row, or its m row
    # indices where m > N (r = 1 then); a split's m indices and m gathered
    # length-32 rows fit in its row, as 128 m <= N
    item = max(n, m * r)
    blocks = list(_blocks(count, 8 * item))
    # one trial: one sign vector
    signs = kron_materialize([f[0] for f in factors]) if lead[0] == 1 else factors
    size = item * max((hi - lo for lo, hi in blocks), default=0)
    # each thread takes the next block as it comes free, so a thread on a
    # slower CPU takes fewer of them
    lock, spans, errors = threading.Lock(), iter(blocks), []

    def take():
        with lock:
            return next(spans, None)

    def helper():
        try:
            _spans_rows(xs, rows0, signs, r, size, iter(take, None), out)
        except BaseException as exc:  # raised again in the caller
            errors.append(exc)

    thread = None
    if _TWO_THREADS and len(blocks) > 1:
        thread = threading.Thread(target=helper)
        thread.start()
    try:
        _spans_rows(xs, rows0, signs, r, size, iter(take, None), out)
    finally:
        if thread is not None:
            thread.join()
    if errors:
        raise errors[0]
    return out.reshape(lead + (m,))


def _spans_rows(xs, rows0, signs, r, size, spans, out):
    """hadamard_rows of the (lo, hi) spans of rows, each written into
    out[lo:hi], through one pair of buffers of `size` floats each, the
    first holding each signed block. `signs` is one length-N vector for
    every row, or per-axis factors whose trial i // points signs row i,
    the point xs[i % points]."""
    points, n = xs.shape
    # one allocation cut into the buffers: the first is over glibc's mmap
    # threshold, and freeing it raises that threshold and the heap's trim
    # threshold (twice it), so later buffers and the caller's arrays reuse
    # heap pages rather than fault them in afresh. Separate 2 MiB buffers
    # left the threshold low: a `sweep` pass took 710-1,440 minor faults,
    # not 12-17, and most `operator` passes 33,300, not about 100
    whole = np.empty(2 * size)
    bufs = (whole[:size], whole[size:])
    for lo, hi in spans:
        block = _lent(bufs[0], (hi - lo, n))
        if isinstance(signs, np.ndarray):
            np.multiply(xs[lo:hi], signs, out=block)
        else:
            trial = np.arange(lo, hi) // points
            kron_materialize([f[trial] for f in signs], block)
            # row i is point i % points: a partial trial, whole trials of
            # every point in turn, then a partial trial from point 0
            head = min(-lo % points, hi - lo)
            body = head + (hi - lo - head) // points * points
            block[:head] *= xs[lo % points:lo % points + head]
            whole = block[head:body].reshape(-1, points, n)
            whole *= xs
            block[body:] *= xs[:hi - lo - body]
        _block_rows(block, rows0[lo:hi], r, bufs, out[lo:hi])


def _lent(buf, shape, dtype=np.float64):
    """The leading entries of a flat float64 buffer as an array of
    `shape` and `dtype` (8 bytes an item)."""
    return buf[:math.prod(shape)].view(dtype).reshape(shape)


def _block_rows(xs, rows0, r, bufs, out):
    """hadamard_rows of one block `xs`, held in bufs[0], with last block
    r, written into `out`. The high-bit transform alternates between the
    two buffers (fwht._transformed); the row index and the gathered rows
    go in the one it leaves free, the last block of those rows in the
    other, and the index of their entries in the free one again. Neither
    the gather nor the last block allocates a block-sized array."""
    count, n = xs.shape
    high = _transformed(xs.reshape(count, n // r, r), 1, bufs).reshape(-1, r)
    # the buffer holding `high`, and the one the transform left free
    held, free = bufs[::-1] if len(_digits(n // r)) % 2 else bufs
    # the length-r rows of every xs[c], one after another, at rows0 // r
    at = np.floor_divide(rows0, r, out=_lent(free, rows0.shape, np.int64))
    at += np.arange(0, count * (n // r), n // r)[:, None]
    # rows0 is checked; "clip" writes into `out=` without a buffered copy
    if r == 1:  # no last block: the gathered entries are the result
        np.take(high[:, 0], at, out=out, mode="clip")
        return
    picked = _lent(free[at.size:], at.shape + (r,))
    np.take(high, at, axis=0, out=picked, mode="clip")
    # r = 32 is one digit, read from `free` into the other buffer, so the
    # index of entry rows0 % r of each low row goes in `free` again
    low = _transformed(picked, 2, (free, held))
    at = np.remainder(rows0, r, out=_lent(free, rows0.shape, np.int64))
    at += np.arange(0, at.size * r, r).reshape(at.shape)
    np.take(low.reshape(-1), at, out=out, mode="clip")


def apply_dense_mat(op, xs):
    """Apply one operator to the rows of a (count, N) matrix in a batch:
    hadamard_rows, given the operator's sign factors as one trial, flips
    the signs and computes only the m sampled entries of each row."""
    xs = _real(xs)
    if xs.ndim != 2 or xs.shape[1] != op.dims.total:
        raise ShapeError(f"expected shape (count, {op.dims.total})")
    ys = hadamard_rows(xs, op.samples.rows - 1, [f[None] for f in op.signs.factors])
    return op.scale * ys[0]


def apply_factored(op, factors):
    """Apply the operator to a rank-one input given by per-axis factors.

    Cost O(sum_l n_l log n_l + m d): each factor is sign-flipped and
    transformed on its own axis, then sampled entries are products of
    per-axis entries. Where every axis has the same length the signed
    factors go through one (d, n) transform, which gives each the bytes
    of its own call (a lone row is a row of a batch to the kernel).
    """
    if len(factors) != op.dims.order:
        raise ShapeError("one input factor per axis required")
    signed = []
    for f, s, n in zip(factors, op.signs.factors, op.dims):
        f = _real(f)
        if f.shape != (n,):
            raise ShapeError(f"factor shape {f.shape} != ({n},)")
        signed.append(f * s)
    if len(set(op.dims)) == 1:
        transformed = list(fwht_axis(np.stack(signed), 1))
    else:
        transformed = [fwht(f) for f in signed]
    return op.scale * _gathered(transformed, op.samples.rows - 1)


def materialize(op):
    """Dense (m, N) matrix of the operator, built from the Hadamard
    recursion rather than the transform kernels.

    It stays the Kronecker product of per-axis matrices. That is an
    independent derivation of the operator, and the recorded oracle
    digests come from its bits: hadamard_matrix(N) rounds differently
    (neither is exact), which moves outputs such as a RIP constant in the
    last bits. Where the N x N Hadamard or the (m, N) result is over the
    table cap it allocates nothing; otherwise it scales the gathered rows
    in place, so it peaks near its result.
    """
    size = op.dims.total
    _check_bytes(f"materialize: N x N Hadamard at N = {size}", 8 * size**2, _TABLE_CAP)
    _check_bytes(f"materialize: the (m, N) = ({op.m}, {size}) result",
                 8 * op.m * size, _TABLE_CAP)
    hs = [hadamard_matrix(n) for n in op.dims]
    h_full = hs[-1]
    for h in hs[-2::-1]:
        h_full = np.kron(h_full, h)  # earlier axes innermost (fastest)
    out = h_full[op.samples.rows - 1]
    out *= op.scale
    out *= op.signs.full_vector()
    return out
