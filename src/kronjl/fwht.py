"""Orthonormal fast Walsh-Hadamard transform.

The transform matrix follows the recursion H_0 = (1),
H_{k+1} = (1/sqrt2) [[H_k, H_k], [H_k, -H_k]]; the transform is symmetric
and involutive (applying it twice is the identity).

One blocked numpy kernel computes it; there is no backend to choose.
It rests on the Sylvester identity
H_{2^(a+b)} = H_{2^a} (x) H_{2^b}: it splits log2(n) into at most 5-bit
digits and applies each digit as one matrix product with the +-1
Sylvester matrix of that digit (order <= 32), so a length-n transform is
a few BLAS products instead of log2(n) strided passes. The 1/sqrt(n)
scale rides on the last digit's matrix, so no pass of its own follows.
A digit of order r costs r multiply-adds per entry:
2^18 splits as (32, 32, 16, 16), 96 per entry, where 6-bit digits
(64, 64, 64) cost 192. The public functions write a new array on every
call and none works in place; transforms.hadamard_rows lends the kernel
one pair of buffers, the first holding the signed block it transforms,
for all the blocks a thread of a call runs instead.
"""

import functools
import math

import numpy as np

from .errors import ShapeError
from .indexing import _real

__all__ = ["fwht", "fwht_axis", "last_block", "hadamard_matrix", "active_backend"]


def active_backend():
    """Name of the transform kernel: always 'numpy'.

    Kept because run manifests record the kernel that produced them.
    """
    return "numpy"


def _check_pow2(n):
    if n < 1 or n & (n - 1):
        raise ShapeError(f"transform length must be a power of two, got {n}")


_DIGIT_BITS = 5


def _digits(n):
    """Split n = 2^k into the fewest factors of at most 2^5, as even as
    possible, larger first: 2^13 -> (32, 16, 16)."""
    k = n.bit_length() - 1
    count = -(-k // _DIGIT_BITS)
    return tuple(1 << (k // count + (i < k % count)) for i in range(count))


def last_block(n, m):
    """Order r of the last Sylvester block to split off a length-n
    transform of which only m entries per row are kept: 32, the kernel's
    largest digit, if the m length-32 rows holding those entries make at
    most a quarter of the row (128 * m <= n), else 1 (no split).

    With H_n = H_{n/r} (x) H_r, transforming the high bits in full and
    the last block at the m gathered rows alone skips one matmul pass of
    r multiply-adds per entry of the whole row, and pays r * r per
    gathered row and a copy of m * r floats. Below the quarter that
    saves time and memory; at half the row it saves little time (1-12%)
    for a copy of half the row. Split over full time of
    transforms.hadamard_rows on 8 MiB of rows (median of 7 calls, mean of
    two runs), with one BLAS thread on a 2-vCPU x86-64 host:

        m * r    n = 2^10  2^12  2^14  2^16  2^18
        n / 8        0.49  0.76  0.69  0.77  0.69
        n / 4        0.68  0.83  0.79  0.86  0.73
        n / 2        0.88  0.99  0.94  0.98  0.89
    """
    _check_pow2(n)
    r = 1 << _DIGIT_BITS
    return r if 4 * m * r <= n else 1


@functools.cache
def _sylvester(r):
    """Unnormalized +-1 Sylvester-Hadamard matrix of order r (read-only),
    whose products with integers are exact (the adversarial family's
    energies in tests/theory_oracles.py)."""
    h = np.ones((1, 1))
    while h.shape[0] < r:
        h = np.block([[h, h], [h, -h]])
    h.flags.writeable = False
    return h


@functools.cache
def _scaled_sylvester(r, n):
    """_sylvester(r) times 1/sqrt(n), the last digit of a length-n
    transform (read-only). Where n = 4^k the scale is a power of two, so
    the products and sums round as the +-1 matrix's do, then scaled."""
    h = _sylvester(r) * (1.0 / math.sqrt(n))
    h.flags.writeable = False
    return h


def _transformed(a, axis, bufs=None):
    """`a` (float64) transformed along `axis` into a new C-contiguous array,
    or, where the caller lends a pair of flat float64 buffers with `a`
    anywhere in the first, into the leading a.size entries of one of them:
    viewed as (outer, n, inner), digit i of n is one matmul through `out=`
    into bufs[(i + 1) % 2], so the first digit never writes the buffer it
    reads and the result lands in bufs[len(_digits(n)) % 2], for odd and
    even digit counts (n = 1 copies `a` to the front of bufs[0]). Without
    buffers each target is a new array, and one digit needs only one. The
    last digit's matrix carries the 1/sqrt(n) scale (_scaled_sylvester),
    so no scale pass follows."""
    n = a.shape[axis]
    axis = range(a.ndim)[axis]
    cur = np.ascontiguousarray(a)
    digits = _digits(n)
    if bufs is None:
        bufs = [np.empty(cur.size) if len(digits) != 1 else None,
                np.empty(cur.size) if digits else None]
    targets = [b if b is None else b[:cur.size].reshape(cur.shape) for b in bufs]
    if not digits:  # n = 1: the identity
        np.copyto(targets[0], cur)
        return targets[0]
    pre, post = math.prod(a.shape[:axis]), n
    inner = math.prod(a.shape[axis + 1:])
    for i, r in enumerate(digits):
        post //= r
        tgt = targets[(i + 1) % 2]
        h = _scaled_sylvester(r, n) if i == len(digits) - 1 else _sylvester(r)
        if post * inner == 1:
            # last digit of a trailing axis: one (pre, r) @ (r, r) product.
            # numpy sends a lone row to gemv, which rounds unlike gemm, so it
            # runs as the first of two contiguous rows (not a broadcast view,
            # which may skip BLAS): a row gets the same bytes in any batch
            rows = cur.reshape(pre, r)
            if pre == 1:
                tgt.reshape(1, r)[...] = (rows.repeat(2, axis=0) @ h)[:1]
            else:
                np.matmul(rows, h, out=tgt.reshape(pre, r))
        else:
            shape = (pre, r, post * inner)
            np.matmul(h, cur.reshape(shape), out=tgt.reshape(shape))
        cur, pre = tgt, pre * r
    return cur


def fwht(x):
    """Orthonormal Walsh-Hadamard transform of a 1-D vector.

    Cost O(n log n); the length must be a power of two.
    """
    x = _real(x)
    if x.ndim != 1:
        raise ShapeError(f"expected a 1-D vector, got shape {x.shape}")
    _check_pow2(x.shape[0])
    return _transformed(x, 0)


def fwht_axis(a, axis):
    """Transform an nd array along one axis, batched over the rest.

    Returns a new array; the input is untouched.
    """
    if isinstance(axis, bool) or not isinstance(axis, (int, np.integer)):
        raise ShapeError(f"axis must be an integer, got {axis!r}")
    a = _real(a)
    if not -a.ndim <= axis < a.ndim:
        raise ShapeError(f"axis {axis} is out of range for shape {a.shape}")
    _check_pow2(a.shape[axis])
    return _transformed(a, axis)


def hadamard_matrix(n):
    """Materialized orthonormal transform matrix, built by the recursion.

    Independent of the transform kernels; used as a cross-check and for
    small dense instances. Every level divides by sqrt(2) and rounds, so
    entries are not exact even where 1/sqrt(n) is: hadamard_matrix(4)[0, 0]
    is 0.49999999999999994.
    """
    _check_pow2(n)
    h = np.ones((1, 1))
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]]) / math.sqrt(2.0)
    return h
