"""Restricted isometry constants by exhaustive support enumeration.

delta_s is the smallest delta with (1-delta)|x|^2 <= |Phi x|^2 <=
(1+delta)|x|^2 over all s-sparse x, computed exactly as the worst extreme
eigenvalue deviation of the s x s Gram blocks over all C(N, s) supports.
Enumeration cost is guarded by a budget on C(N, s).

check_submatrix_bound verifies the polarization consequence of the
(2s, delta)-property: every s x s off-Gram block (Phi* Phi - I)_{S,T} has
spectral norm at most delta, over ALL ordered support pairs |S| = |T| = s,
including overlapping and equal pairs. If the pair count exceeds the
budget the checker falls back to a seeded random sample of pairs and
reports how many were covered.

The exhaustive check is exact without decomposing every block. Since
||B||_2 <= ||B||_F, it computes the Frobenius norms of all k^2 blocks at
once (k = C(N, s)) and times each by (1 + 1e-12), a slack that covers
rounding in the Frobenius sums and in the SVD. That bound orders the
pairs. One chunk of the pairs with the largest bounds gives a first
worst spectral norm; then only the other pairs whose bound reaches it are
decomposed, in descending order of bound, a chunk at a time, stopping
before a chunk whose largest bound is below the worst norm seen. So no
skipped pair could reach or tie that norm. Among pairs whose norm equals
the worst exactly, the one with the smallest row-major index S * k + T
is reported, so worst_norm and worst_pair are those of a visit of all
pairs in row-major order. pairs_checked counts the pairs certified: all
k^2 when exhaustive, the sampled draws otherwise.

Both oracles raise ShapeError for a phi that is not a finite 2-D array,
or whose squared Gram entries overflow, and for s outside 1..N;
check_submatrix_bound also for a NaN delta.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import rand
from .errors import BudgetError, ShapeError

__all__ = [
    "RipReport",
    "SubmatrixReport",
    "rip_constant",
    "check_submatrix_bound",
]

DEFAULT_BUDGET = 10_000_000
_CHUNK = 65536
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
    count = math.comb(n, s)
    if count > budget:
        raise BudgetError(
            f"C({n},{s}) = {count} supports exceed the budget {budget}"
        )
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), s))
    return np.fromiter(flat, dtype=np.intp, count=count * s).reshape(count, s)


def rip_constant(phi, s, budget=DEFAULT_BUDGET):
    """Exact restricted isometry constant of order s.

    Monotone in s; delta_1 is the largest column-norm deviation
    max_j | ||phi_j||^2 - 1 |.
    """
    gram = _check_phi(phi, s)
    supports = _support_array(gram.shape[0], s, budget)
    best = -1.0
    witness = 0
    for lo in range(0, supports.shape[0], _CHUNK):
        chunk = supports[lo : lo + _CHUNK]
        blocks = gram[chunk[:, :, None], chunk[:, None, :]]
        evs = np.linalg.eigvalsh(blocks)
        dev = np.maximum(evs[:, -1] - 1.0, 1.0 - evs[:, 0])
        k = int(np.argmax(dev))
        if dev[k] > best:
            best = float(dev[k])
            witness = lo + k
    return RipReport(
        sparsity=s,
        delta=best,
        witness_support=tuple(int(c) + 1 for c in supports[witness]),
    )


def _block_norms(hollow, supports, left, right):
    blocks = hollow[supports[left][:, :, None], supports[right][:, None, :]]
    return np.linalg.svd(blocks, compute_uv=False)[:, 0]


def _worst_pair_pruned(hollow, supports):
    """Worst spectral norm over all ordered pairs, and its (S, T) indices."""
    k, n = supports.shape[0], hollow.shape[0]
    member = np.zeros((k, n))
    member[np.arange(k)[:, None], supports] = 1.0
    # bound[S * k + T] >= ||block(S, T)||_2, with rounding slack
    bound = np.sqrt(member @ (hollow * hollow) @ member.T).ravel()
    bound *= 1.0 + _SLACK
    # the pairs with the largest bounds give a first worst norm; of the
    # rest, only those whose bound reaches it can raise or tie it
    lead = np.argpartition(bound, max(bound.size - _PAIR_CHUNK, 0))
    lead = lead[-_PAIR_CHUNK:]
    worst = _visit(hollow, supports, bound, lead, (-1.0, 0))
    bound[lead] = -np.inf
    rest = np.flatnonzero(bound >= worst[0])
    norm, index = _visit(hollow, supports, bound, rest, worst)
    return norm, divmod(index, k)


def _visit(hollow, supports, bound, pairs, worst):
    """Fold the pairs into worst = (norm, smallest row-major index attaining
    it), in descending order of bound, until no bound reaches the norm."""
    k = supports.shape[0]
    pairs = pairs[np.argsort(-bound[pairs], kind="stable")]
    norm, index = worst
    for lo in range(0, pairs.size, _PAIR_CHUNK):
        chunk = pairs[lo : lo + _PAIR_CHUNK]
        if bound[chunk[0]] < norm:
            break
        norms = _block_norms(hollow, supports, *np.divmod(chunk, k))
        top = norms.max()
        if top >= norm:
            first = int(chunk[norms == top].min())
            if top > norm or first < index:
                norm, index = float(top), first
    return norm, index


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
        worst, worst_pair = _worst_pair_pruned(hollow, supports)
        checked = k * k
    else:
        rng = rand.substream(seed, rand.TAG_EXPERIMENT)
        left = rng.integers(0, k, size=budget)
        right = rng.integers(0, k, size=budget)
        worst = -1.0
        worst_pair = (0, 0)
        for lo in range(0, budget, _CHUNK):
            li = left[lo : lo + _CHUNK]
            ri = right[lo : lo + _CHUNK]
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
