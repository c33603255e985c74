"""Restricted isometry constants by exhaustive support enumeration.

delta_s is the smallest delta with (1-delta)|x|^2 <= |Phi x|^2 <=
(1+delta)|x|^2 over all s-sparse x, computed exactly as the worst extreme
eigenvalue deviation of the s x s Gram blocks over all C(N, s) supports.
Enumeration cost is guarded by a budget on C(N, s), and the support table
(8 s C(N, s) bytes) by the table cap of `indexing`.

check_submatrix_bound verifies the polarization consequence of the
(2s, delta)-property: every s x s off-Gram block (Phi* Phi - I)_{S,T} has
spectral norm at most delta, over ALL ordered support pairs |S| = |T| = s,
including overlapping and equal pairs. If the pair count exceeds the
budget the checker falls back to a seeded random sample of pairs and
reports how many were covered.

Both oracles are exact without decomposing every block. Each item (a
support, or an ordered support pair) gets a cheap upper bound on the value
its decomposition would give, and one search, `_pruned_max`, decomposes
the _PAIR_CHUNK items with the largest bounds for a first maximum; then
only the other items whose bound reaches it are decomposed, in descending
order of bound, a chunk at a time, stopping before a chunk whose largest
bound is below the largest value seen. So no skipped item could reach or
tie that value. Among items whose value equals the maximum exactly, the
one with the smallest index is reported, so the result is that of a visit
of all items in order: the first support in lexicographic order, the first
pair in row-major order S * k + T (k = C(N, s)).

The bounds:
- rip_constant bounds ||G_S - I||_2 for A = (Phi* Phi - I)_{S,S}, which is
  symmetric, so rho(A)^4 <= ||A^4||_inf: b = (||A^4||_inf + 1e-12 (s
  ||A||_F^2)^2)^(1/4). The inner term covers rounding in the two batched
  s x s products, since || |A|^4 ||_inf <= s^2 ||A||_F^4. The bound is then
  widened to b + 1e-12 (1 + b): the deviation is read from the eigenvalues
  of G_S, not of G_S - I, so near delta = 0 a relative slack alone fails.
  A bound whose fourth power overflows is infinite.
- check_submatrix_bound uses ||B||_2 <= ||B||_F, with the Frobenius norms
  of all k^2 blocks from one product of support indicators, times
  (1 + 1e-12) for rounding in the sums and in the SVD.
pairs_checked counts the pairs certified: all k^2 when exhaustive, the
sampled draws otherwise.

Both oracles raise ShapeError for a phi that is not a finite 2-D array,
or whose squared Gram entries overflow, and for s outside 1..N;
check_submatrix_bound also for a NaN delta.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import rand
from .errors import BudgetError, ShapeError
from .indexing import _TABLE_CAP, _blocks, _check_bytes

__all__ = [
    "RipReport",
    "SubmatrixReport",
    "rip_constant",
    "check_submatrix_bound",
]

DEFAULT_BUDGET = 10_000_000
_PAIR_CHUNK = 512
_SLACK = 1e-12


@dataclass(frozen=True)
class RipReport:
    sparsity: int
    delta: float
    witness_support: tuple  # 1-based column positions attaining delta


@dataclass(frozen=True)
class SubmatrixReport:
    ok: bool
    sparsity: int
    delta: float
    worst_norm: float
    worst_pair: tuple  # (S, T) 1-based supports
    pairs_checked: int
    exhaustive: bool


def _check_phi(phi, s):
    """Return the Gram matrix phi* phi of a finite 2-D phi, for 1 <= s <=
    its columns. Its squared entries must be finite too: the pruning sums
    them, and an overflowed block would yield nan norms that no max sees."""
    phi = np.asarray(phi, dtype=np.float64)
    if phi.ndim != 2:
        raise ShapeError(f"need a 2-D measurement matrix, not {phi.ndim}-D")
    n = phi.shape[1]
    if not 1 <= s <= n:
        raise ShapeError(f"need 1 <= s <= {n}, got {s}")
    if not np.isfinite(phi).all():
        raise ShapeError("measurement matrix has non-finite entries")
    with np.errstate(over="ignore", invalid="ignore"):
        gram = phi.T @ phi
        if not np.isfinite(gram * gram).all():
            raise ShapeError("measurement matrix too large: Gram overflows")
    return gram


def _support_array(n, s, budget):
    """The C(n, s) supports of size s as rows, in lexicographic order."""
    count = math.comb(n, s)
    if count > budget:
        raise BudgetError(
            f"C({n},{s}) = {count} supports exceed the budget {budget}"
        )
    _check_bytes(f"the C({n},{s}) x {s} support table", 8 * count * s, _TABLE_CAP)
    # column j holds j .. n - s + j: a prefix ending there in a has
    # C(n - 1 - a, s - 1 - j) completions and extends by a + 1 .. n - s + j + 1
    table = np.empty((count, s), dtype=np.intp)
    last = np.arange(n - s + 1)  # the prefixes' last entries, in order
    for j in range(s - 1):
        ways = [math.comb(n - 1 - a, s - 1 - j) for a in range(j, n - s + j + 1)]
        table[:, j] = np.repeat(last, np.array(ways)[last - j])
        reps = n - s + j + 1 - last
        starts = np.cumsum(reps) - reps
        last = np.repeat(last + 1 - starts, reps)
        last += np.arange(last.size)
    table[:, -1] = last
    return table


def rip_constant(phi, s):
    """Exact restricted isometry constant of order s, over at most
    DEFAULT_BUDGET supports.

    Monotone in s; delta_1 is the largest column-norm deviation
    max_j | ||phi_j||^2 - 1 |.
    """
    gram = _check_phi(phi, s)
    n = gram.shape[0]
    supports = _support_array(n, s, DEFAULT_BUDGET)
    hollow = gram - np.eye(n)
    # the fourth-power bound of the module docstring, per support
    bound = np.empty(supports.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi in _blocks(supports.shape[0], 8 * s * s):
            a = _gather(hollow, supports[lo:hi], supports[lo:hi])
            a2 = a @ a
            quartic = np.abs(a2 @ a2).sum(axis=2).max(axis=1)
            frob2 = np.einsum("kii->k", a2)  # trace(A^2) = ||A||_F^2
            bound[lo:hi] = (quartic + _SLACK * (s * frob2) ** 2) ** 0.25
    bound[np.isnan(bound)] = np.inf  # inf - inf in an overflowed power
    bound += _SLACK * (1.0 + bound)

    def deviations(items):
        evs = np.linalg.eigvalsh(_gather(gram, supports[items], supports[items]))
        return np.maximum(evs[:, -1] - 1.0, 1.0 - evs[:, 0])

    delta, witness = _pruned_max(bound, deviations, 8 * s * s)
    return RipReport(
        sparsity=s,
        delta=delta,
        witness_support=tuple(int(c) + 1 for c in supports[witness]),
    )


def _gather(matrix, rows, cols):
    """The blocks matrix[rows[i]][:, cols[i]], stacked."""
    return matrix.take((rows * matrix.shape[1])[:, :, None] + cols[:, None, :])


def _block_norms(hollow, supports, left, right):
    blocks = _gather(hollow, supports[left], supports[right])
    return np.linalg.svd(blocks, compute_uv=False)[:, 0]


def _pruned_max(bound, measure, item_bytes):
    """(value, index): the largest measure over all items and the smallest
    item index attaining it, where bound[i] >= measure of item i.

    measure(items) returns the values of an index array. The _PAIR_CHUNK
    items with the largest bounds give a first value; of the rest, only
    those whose bound reaches it are measured, in descending order of
    bound, _PAIR_CHUNK at a time, until no bound reaches the largest value
    so far. A chunk is measured in _blocks spans of item_bytes per item."""
    lead = np.argpartition(bound, max(bound.size - _PAIR_CHUNK, 0))[-_PAIR_CHUNK:]
    best = _fold(lead, measure, item_bytes, (-1.0, 0))
    rest = bound >= best[0]
    rest[lead] = False
    rest = np.flatnonzero(rest)
    rest = rest[np.argsort(-bound[rest], kind="stable")]
    for lo in range(0, rest.size, _PAIR_CHUNK):
        items = rest[lo : lo + _PAIR_CHUNK]
        if bound[items[0]] < best[0]:
            break
        best = _fold(items, measure, item_bytes, best)
    return best


def _fold(items, measure, item_bytes, best):
    """best = (value, smallest index attaining it), updated with items."""
    values = np.concatenate(
        [measure(items[lo:hi]) for lo, hi in _blocks(items.size, item_bytes)]
    )
    top = values.max()
    value, index = best
    if top >= value:
        first = int(items[values == top].min())
        if top > value or first < index:
            return float(top), first
    return best


def check_submatrix_bound(phi, s, delta, budget=DEFAULT_BUDGET, seed=0):
    """Check ||(Phi* Phi - I)_{S,T}||_2 <= delta over support pairs."""
    gram = _check_phi(phi, s)
    delta = float(delta)
    if np.isnan(delta):
        raise ShapeError("delta must not be NaN")
    n = gram.shape[0]
    supports = _support_array(n, s, budget)
    k = supports.shape[0]
    hollow = gram - np.eye(n)

    exhaustive = k * k <= budget
    if exhaustive:
        member = np.zeros((k, n))
        member[np.arange(k)[:, None], supports] = 1.0
        # ||block(S, T)||_2 <= ||block(S, T)||_F, with rounding slack
        bound = np.sqrt(member @ (hollow * hollow) @ member.T).ravel()
        bound *= 1.0 + _SLACK
        worst, index = _pruned_max(
            bound, lambda items: _block_norms(hollow, supports, *np.divmod(items, k)),
            8 * s * s,
        )
        worst_pair = divmod(index, k)
        checked = k * k
    else:
        rng = rand.substream(seed, rand.TAG_EXPERIMENT)
        left = rng.integers(0, k, size=budget)
        right = rng.integers(0, k, size=budget)
        worst = -1.0
        worst_pair = (0, 0)
        for lo, hi in _blocks(budget, 8 * s * s):
            li, ri = left[lo:hi], right[lo:hi]
            norms = _block_norms(hollow, supports, li, ri)
            j = int(np.argmax(norms))
            if norms[j] > worst:
                worst = float(norms[j])
                worst_pair = (int(li[j]), int(ri[j]))
        checked = budget

    tol = 1e-12 * max(1.0, abs(delta))
    return SubmatrixReport(
        ok=bool(worst <= delta + tol),
        sparsity=s,
        delta=delta,
        worst_norm=worst,
        worst_pair=(
            tuple(int(c) + 1 for c in supports[worst_pair[0]]),
            tuple(int(c) + 1 for c in supports[worst_pair[1]]),
        ),
        pairs_checked=checked,
        exhaustive=exhaustive,
    )
