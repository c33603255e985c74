"""Restricted isometry constants by exhaustive support enumeration.

delta_s is the smallest delta with (1-delta)|x|^2 <= |Phi x|^2 <=
(1+delta)|x|^2 over all s-sparse x, computed exactly as the worst extreme
eigenvalue deviation of the s x s Gram blocks over all C(N, s) supports.
Enumeration cost is guarded by a budget on C(N, s), and the support table
(8 s C(N, s) bytes) and the N x N Gram (8 N^2 bytes) by the table cap of
`indexing`, all three checked before the Gram is formed.

check_submatrix_bound verifies the polarization consequence of the
(2s, delta)-property: every s x s off-Gram block (Phi* Phi - I)_{S,T} has
spectral norm at most delta, over ALL ordered support pairs |S| = |T| = s,
including overlapping and equal pairs. If the pair count exceeds the
budget the checker falls back to a seeded random sample of pairs and
reports how many were covered; the sample's support indices are drawn a
`_blocks` span at a time, the same pairs as one whole draw.

Both oracles are exact without decomposing every block. Each item (a
support, or an ordered support pair) gets two upper bounds on the value
its decomposition would give: a coarse one for every item, and a fine one
for the items the coarse one cannot rule out. One search, `_pruned_max`,
decomposes the items that reach the largest coarse bound (the first
_PAIR_CHUNK of them, where more tie) for a first maximum. Of the other
items, only those whose coarse bound reaches it get a fine bound, and
only those whose fine bound reaches it too are decomposed, in descending
order of fine bound, a chunk at a time, stopping before a chunk whose
largest fine bound is below the largest value seen. So no skipped item
could reach or tie that value, and which items seed the search changes
how many are decomposed, never the result. Among items
whose value equals the maximum exactly, the one with the smallest index
is reported, so the result is that of a visit of all items in order: the
first support in lexicographic order, the first pair in row-major order
S * k + T (k = C(N, s)).

The bounds, on A = (Phi* Phi - I)_{S,S} for rip_constant and on the block
B = (Phi* Phi - I)_{S,T} for check_submatrix_bound:
- Coarse: the Frobenius norm. For pairs, the squared norms of all k^2
  blocks come from one product of support indicators, member @ (Phi* Phi
  - I)^2 @ member.T (entrywise square); for supports, ||A||_F^2 is that
  product's diagonal, summed directly over the entry pairs of each S.
- Fine: a fourth-power bound. A symmetric s x s M has rho(M)^4 <=
  ||M^4||_inf, so r(M) = (||M^4||_inf + 1e-12 (s ||M||_F^2)^2)^(1/4)
  bounds rho(M); the inner term covers rounding in the two batched s x s
  products, since || |M|^4 ||_inf <= s^2 ||M||_F^4. rip_constant takes
  M = A. check_submatrix_bound takes M = C = B^T B, whose spectral radius
  is ||B||_2^2. The computed C' has C' - C = E with |E| <= gamma_s |B|^T
  |B| entrywise (gamma_s = s u / (1 - s u), u the unit roundoff), so
  ||E||_2 <= ||E||_F <= gamma_s ||B||_F^2, and by Weyl rho(C) <= rho(C') +
  ||E||_2. gamma_s is below 1e-12 (1 - gamma_s) for s < 9,000, and
  trace(C') >= (1 - gamma_s) ||B||_F^2, so ||B||_2 <= (r(C') + 1e-12
  trace(C'))^(1/2).
- Slack: rip_constant widens both bounds b (the coarse one after a factor
  1 + 1e-12 for rounding in its sums) to b + 1e-12 (1 + b): the deviation
  is read from the eigenvalues of G_S, not of G_S - I, so near delta = 0
  a relative slack alone fails. check_submatrix_bound multiplies both by
  1 + 1e-12, for rounding in the sums and in the SVD. A bound whose
  square sums or fourth power overflow is infinite.
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
from .indexing import _TABLE_CAP, _blocks, _check_bytes, _real

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


def _gram_and_supports(phi, s, budget):
    """The Gram matrix phi* phi of a finite 2-D phi, for 1 <= s <= its
    columns, and its supports (`_support_array`). The support count and
    the Gram's bytes need only the shape, so both are refused before the
    Gram is formed. Its squared entries must be finite too: the pruning
    sums them, and an overflowed block would yield nan norms that no max
    sees."""
    phi = _real(phi)
    if phi.ndim != 2:
        raise ShapeError(f"need a 2-D measurement matrix, not {phi.ndim}-D")
    n = phi.shape[1]
    if not 1 <= s <= n:
        raise ShapeError(f"need 1 <= s <= {n}, got {s}")
    if not np.isfinite(phi).all():
        raise ShapeError("measurement matrix has non-finite entries")
    supports = _support_array(n, s, budget)
    _check_bytes(f"the {n} x {n} Gram matrix", 8 * n * n, _TABLE_CAP)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = phi.T @ phi
        if not np.isfinite(gram * gram).all():
            raise ShapeError("measurement matrix too large: Gram overflows")
    return gram, supports


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
    gram, supports = _gram_and_supports(phi, s, DEFAULT_BUDGET)
    n = gram.shape[0]
    hollow = gram - np.eye(n)
    # the two bounds of the module docstring, on A, with rounding slack
    coarse = _widen(np.sqrt(_support_energies(hollow * hollow, supports))
                    * (1.0 + _SLACK))

    def fine(items):
        a = _gather(hollow, supports[items], supports[items])
        return _widen(_quartic_root(a, s))

    def deviations(items):
        evs = np.linalg.eigvalsh(_gather(gram, supports[items], supports[items]))
        return np.maximum(evs[:, -1] - 1.0, 1.0 - evs[:, 0])

    delta, witness = _pruned_max(coarse, fine, deviations, _item_bytes(s))
    return RipReport(
        sparsity=s,
        delta=delta,
        witness_support=tuple(int(c) + 1 for c in supports[witness]),
    )


def _support_energies(squares, supports):
    """The sum of squares[S, S] for each support S (as rows): the diagonal
    of member @ squares @ member.T, summed over the entry pairs of S, so
    the cost does not grow with the column count."""
    n, s = squares.shape[0], supports.shape[1]
    flat = squares.ravel()
    with np.errstate(over="ignore"):
        out = np.diagonal(squares)[supports].sum(axis=1)
        for a in range(s):
            for b in range(a + 1, s):
                out += 2.0 * flat[supports[:, a] * n + supports[:, b]]
    return out


def _quartic_root(a, s):
    """(||A^4||_inf + 1e-12 (s ||A||_F^2)^2)^(1/4) for a stack of
    symmetric s x s blocks A, an upper bound on rho(A); inf where the
    fourth power overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        a2 = a @ a
        quartic = np.abs(a2 @ a2).sum(axis=2).max(axis=1)
        frob2 = np.einsum("kii->k", a2)  # trace(A^2) = ||A||_F^2
        root = (quartic + _SLACK * (s * frob2) ** 2) ** 0.25
    root[np.isnan(root)] = np.inf  # inf - inf in an overflowed power
    return root


def _item_bytes(s):
    """Working data per item of a fine bound or a decomposition: at most
    about eight s x s arrays of 8 bytes (gather positions, the block and
    its products)."""
    return 64 * s * s


def _widen(bound):
    """Absolute and relative slack on a bound of an eigenvalue deviation."""
    return bound + _SLACK * (1.0 + bound)


def _gather(matrix, rows, cols):
    """The blocks matrix[rows[i]][:, cols[i]], stacked."""
    return matrix.take((rows * matrix.shape[1])[:, :, None] + cols[:, None, :])


def _block_norms(hollow, supports, left, right):
    blocks = _gather(hollow, supports[left], supports[right])
    return np.linalg.svd(blocks, compute_uv=False)[:, 0]


def _pruned_max(coarse, fine, measure, item_bytes):
    """(value, index): the largest measure over all items and the smallest
    item index attaining it, where coarse[i] and fine(i) both bound the
    measure of item i from above.

    fine and measure map an index array to its items' values. The items
    at the largest coarse bound, at most _PAIR_CHUNK of them, give a first
    value (coarse holds no NaN, so its max is defined); of the rest, the
    fine bound is computed only where the coarse bound reaches it, and
    only items whose fine bound also reaches it are measured, in
    descending order of fine bound, _PAIR_CHUNK at a time, until no fine
    bound reaches the largest value so far. Every item whose bounds reach
    the running maximum is measured, ties included, so the first value
    only prunes. Fine bounds and measures run in _blocks spans of
    item_bytes per item."""
    lead = np.flatnonzero(coarse == coarse.max())[:_PAIR_CHUNK]
    best = _fold(lead, measure, item_bytes, (-1.0, 0))
    rest = coarse >= best[0]
    rest[lead] = False
    rest = np.flatnonzero(rest)
    bound = _spans(fine, rest, item_bytes)
    keep = bound >= best[0]
    rest, bound = rest[keep], bound[keep]
    order = np.argsort(-bound, kind="stable")
    rest, bound = rest[order], bound[order]
    for lo in range(0, rest.size, _PAIR_CHUNK):
        if bound[lo] < best[0]:
            break
        best = _fold(rest[lo : lo + _PAIR_CHUNK], measure, item_bytes, best)
    return best


def _spans(fn, items, item_bytes):
    """fn over an index array, one _blocks span at a time."""
    return np.concatenate(
        [fn(items[lo:hi]) for lo, hi in _blocks(items.size, item_bytes)]
        or [np.empty(0)]
    )


def _fold(items, measure, item_bytes, best):
    """best = (value, smallest index attaining it), updated with items."""
    values = _spans(measure, items, item_bytes)
    top = values.max()
    value, index = best
    if top >= value:
        first = int(items[values == top].min())
        if top > value or first < index:
            return float(top), first
    return best


def check_submatrix_bound(phi, s, delta, budget=DEFAULT_BUDGET, seed=0):
    """Check ||(Phi* Phi - I)_{S,T}||_2 <= delta over support pairs."""
    gram, supports = _gram_and_supports(phi, s, budget)
    delta = float(delta)
    if np.isnan(delta):
        raise ShapeError("delta must not be NaN")
    n = gram.shape[0]
    k = supports.shape[0]
    hollow = gram - np.eye(n)

    exhaustive = k * k <= budget
    if exhaustive:
        member = np.zeros((k, n))
        member[np.arange(k)[:, None], supports] = 1.0
        # the two bounds of the module docstring, with rounding slack
        with np.errstate(over="ignore", invalid="ignore"):
            coarse = (member @ (hollow * hollow) @ member.T).ravel()
        np.sqrt(coarse, out=coarse)
        coarse[np.isnan(coarse)] = np.inf  # an overflowed sum times 0
        coarse *= 1.0 + _SLACK

        def fine(items):
            left, right = np.divmod(items, k)
            b = _gather(hollow, supports[left], supports[right])
            with np.errstate(over="ignore", invalid="ignore"):
                c = np.matmul(b.transpose(0, 2, 1), b)  # B^T B
                trace = np.einsum("kii->k", c)
            return np.sqrt(_quartic_root(c, s) + _SLACK * trace) * (1.0 + _SLACK)

        worst, index = _pruned_max(
            coarse, fine,
            lambda items: _block_norms(hollow, supports, *np.divmod(items, k)),
            _item_bytes(s),
        )
        worst_pair = divmod(index, k)
        checked = k * k
    else:
        # the first `budget` draws pick left supports, the next `budget`
        # right ones, which `ahead` reads after skipping the left ones
        rng = rand.substream(seed, rand.TAG_EXPERIMENT)
        ahead = rand.substream(seed, rand.TAG_EXPERIMENT)
        item_bytes = 8 * s * s + 16  # a block and its two support indices
        for lo, hi in _blocks(budget, item_bytes):
            ahead.integers(0, k, size=hi - lo)
        worst = -1.0
        worst_pair = (0, 0)
        for lo, hi in _blocks(budget, item_bytes):
            li = rng.integers(0, k, size=hi - lo)
            ri = ahead.integers(0, k, size=hi - lo)
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
