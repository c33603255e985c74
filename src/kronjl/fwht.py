"""Orthonormal fast Walsh-Hadamard transform.

The transform matrix follows the recursion H_0 = (1),
H_{k+1} = (1/sqrt2) [[H_k, H_k], [H_k, -H_k]]; the transform is symmetric
and involutive (applying it twice is the identity).

One blocked numpy kernel computes it; there is no backend to choose.
It rests on the Sylvester identity
H_{2^(a+b)} = H_{2^a} (x) H_{2^b}: it splits log2(n) into at most 6-bit
digits and applies each digit as one matrix product with the +-1
Sylvester matrix of that digit (order <= 64), so a length-n transform is
a few BLAS products instead of log2(n) strided passes, then one
1/sqrt(n) scale. Every call writes a new array; none works in place.
"""

import functools
import math

import numpy as np

from .errors import ShapeError

__all__ = ["fwht", "fwht_axis", "last_block", "hadamard_matrix", "active_backend"]


def active_backend():
    """Name of the transform kernel: always 'numpy'.

    Kept because run manifests record the kernel that produced them.
    """
    return "numpy"


def _check_pow2(n):
    if n < 1 or n & (n - 1):
        raise ShapeError(f"transform length must be a power of two, got {n}")


_DIGIT_BITS = 6


def _digits(n):
    """Split n = 2^k into the fewest factors of at most 2^6, as even as
    possible, larger first: 2^13 -> (32, 16, 16)."""
    k = n.bit_length() - 1
    count = -(-k // _DIGIT_BITS)
    return tuple(1 << (k // count + (i < k % count)) for i in range(count))


def last_block(n, m):
    """Order r of the last Sylvester block to split off a length-n
    transform of which only m entries per row are kept: 64, the kernel's
    largest digit, if the m length-64 rows holding those entries make at
    most a quarter of the row (256 * m <= n), else 1 (no split).

    With H_n = H_{n/r} (x) H_r, transforming the high bits in full and
    the last block at the m gathered rows alone skips one matmul pass of
    r multiply-adds per entry of the whole row, and pays r * r per
    gathered row and a copy of m * r floats. Below the quarter that
    saves time and memory; at half the row it no longer does (measured
    at n = 2^10..2^18 with one BLAS thread on a 2-vCPU x86-64 host).
    """
    _check_pow2(n)
    r = 1 << _DIGIT_BITS
    return r if 4 * m * r <= n else 1


@functools.cache
def _sylvester(r):
    """Unnormalized +-1 Sylvester-Hadamard matrix of order r (read-only)."""
    h = np.ones((1, 1))
    while h.shape[0] < r:
        h = np.block([[h, h], [h, -h]])
    h.flags.writeable = False
    return h


def _transformed(a, axis):
    """`a` (float64) transformed along `axis` into a new C-contiguous array:
    viewed as (outer, n, inner), each digit of n is one matmul through
    `out=`, alternating between the output and at most one scratch buffer
    so that the last lands in the output; then one 1/sqrt(n) scale."""
    n = a.shape[axis]
    axis = range(a.ndim)[axis]
    cur = np.ascontiguousarray(a)
    if n == 1:
        return cur.copy()
    out = np.empty_like(cur)
    digits = _digits(n)
    spare = np.empty_like(out) if len(digits) > 1 else None
    targets = (out, spare) if len(digits) % 2 else (spare, out)
    pre, post = math.prod(a.shape[:axis]), n
    inner = math.prod(a.shape[axis + 1:])
    for i, r in enumerate(digits):
        post //= r
        tgt = targets[i % 2]
        h = _sylvester(r)
        if post * inner == 1:
            # last digit of a trailing axis: one (pre, r) @ (r, r) product
            np.matmul(cur.reshape(pre, r), h, out=tgt.reshape(pre, r))
        else:
            shape = (pre, r, post * inner)
            np.matmul(h, cur.reshape(shape), out=tgt.reshape(shape))
        cur, pre = tgt, pre * r
    out *= 1.0 / math.sqrt(n)
    return out


def fwht(x):
    """Orthonormal Walsh-Hadamard transform of a 1-D vector.

    Cost O(n log n); the length must be a power of two.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeError(f"expected a 1-D vector, got shape {x.shape}")
    _check_pow2(x.shape[0])
    return _transformed(x, 0)


def fwht_axis(a, axis):
    """Transform an nd array along one axis, batched over the rest.

    Returns a new array; the input is untouched.
    """
    a = np.asarray(a, dtype=np.float64)
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
