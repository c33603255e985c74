"""Sign-blind adversarial inputs: exact and empirical failure probabilities.

The construction: pick an r-dimensional subspace V_j of F_2^{n_j} per axis
and set x to the Kronecker product of normalized subspace indicators. The
Walsh-Hadamard transform maps each factor to the indicator of the
orthogonal complement, so the transformed vector is supported on N / s^d
positions (s = 2^r). Sign flips commute with the construction (flipping
signs of x yields another admissible input with the same transform support
up to signs), so an operator that misses the support entirely maps the
input to zero regardless of its sign randomness: a certain embedding
failure for any distortion below 1.

With rows drawn uniformly with replacement, the miss probability is exactly
(1 - s^{-d})^m, and 1 - t >= e^{-2t} for t <= 1/2 gives the closed lower
bound exp(-2 m / s^d) whenever s^d >= 2.

The Monte Carlo estimate never forms the length-N transform, a Kronecker
product of per-axis transforms, and runs no transform at all: each
per-axis transform is the indicator of the orthogonal complement, and a
sampled entry multiplies one entry per axis, at the row's coordinate on
that axis. That costs O(m d) per trial after O(sum_l 2^{n_l}) once, in
memory capped by MAX_AXIS_LENGTH.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import rand
from .errors import BudgetError, ShapeError
from .fwht import fwht
from .gf2 import indicator, orthogonal_complement, random_subspace
from .transforms import sampled_entries

__all__ = [
    "ExactFailure",
    "EmpiricalFailure",
    "failure_probability_exact",
    "failure_probability_empirical",
    "embedding_dim_threshold",
]

ZERO_TOL = 1e-12
# Nothing here runs a transform. This module still binds fwht because
# perfbench/test_perfbench.py checks that the span tracer rebinds it
# here; the binding goes when that test stops naming it.
_TRACED_BINDINGS = (fwht,)
# longest axis (2^bits entries) an empirical estimate may build: its
# complement's indicator and member list then stay near 230 MiB of
# resident memory (at r = 1, the largest complement)
MAX_AXIS_LENGTH = 1 << 24
_GATHER_BLOCK = 1 << 14


@dataclass(frozen=True)
class ExactFailure:
    prob: float
    lower_bound: float
    s: int
    d: int
    m: int


@dataclass(frozen=True)
class EmpiricalFailure:
    estimate: float
    stderr: float
    trials: int
    failures: int
    bit_dims: tuple
    r: int
    m: int
    seed: object


def failure_probability_exact(s, d, m):
    """Closed-form miss probability and its exponential lower bound."""
    if s < 1 or d < 1 or m < 0:
        raise ShapeError("need s >= 1, d >= 1, m >= 0")
    if s**d < 2:
        raise ShapeError(f"need s^d >= 2 for the bound, got s={s}, d={d}")
    prob = (1.0 - float(s) ** -d) ** m
    bound = math.exp(-2.0 * m / s**d)
    return ExactFailure(prob=prob, lower_bound=bound, s=s, d=d, m=m)


def embedding_dim_threshold(nu, p, d):
    """Smallest m the lower bound permits at failure budget nu for a
    sign-modulated family of p inputs: (1/2) log(1/nu) (log p / (d log 2))^d.
    """
    if not 0 < nu < 1 or p < 2 or d < 1:
        raise ShapeError("need 0 < nu < 1, p >= 2, d >= 1")
    return 0.5 * math.log(1.0 / nu) * (math.log(p) / (d * math.log(2.0))) ** d


def failure_probability_empirical(bit_dims, r, m, trials, seed):
    """Monte Carlo estimate of the miss probability.

    Draws the subspaces once from substream(seed, TAG_SUBSPACE, axis), then
    per-trial row samples from substream(seed, TAG_SAMPLES); a trial fails
    when every sampled entry of the transformed input is zero (|entry| <=
    1e-12). Entries are gathered per axis, O(m d) per trial; an axis longer
    than MAX_AXIS_LENGTH raises BudgetError before any allocation. Rows are
    drawn one gather block at a time, which reads the stream exactly as
    one (trials, m) draw would, so memory does not grow with `trials`.
    """
    bit_dims = tuple(int(n) for n in bit_dims)
    if not bit_dims or any(n < 1 for n in bit_dims):
        raise ShapeError(f"bad bit dims {bit_dims}")
    if any(r > n for n in bit_dims):
        raise ShapeError(f"subspace dimension {r} exceeds an axis in {bit_dims}")
    if trials < 1:
        raise ShapeError("need trials >= 1")
    bits = max(bit_dims)
    if 1 << bits > MAX_AXIS_LENGTH:
        raise BudgetError(f"bits={bits}: an axis of length 2^{bits} = "
                          f"{1 << bits} exceeds {MAX_AXIS_LENGTH}")
    if sum(bit_dims) > 62:
        raise ShapeError(f"N = 2^{sum(bit_dims)} overflows int64 row indices")

    spaces = [
        random_subspace(n, r, rand.substream(seed, rand.TAG_SUBSPACE, j))
        for j, n in enumerate(bit_dims, start=1)
    ]
    # each axis transform is the complement's indicator (gf2 duality):
    # a nonzero product of one entry per axis is at least 2^(-sum/2) >=
    # 2^-31 > ZERO_TOL, so the miss test reads the support exactly
    y_factors = [indicator(orthogonal_complement(v)) for v in spaces]

    rng = rand.substream(seed, rand.TAG_SAMPLES)
    failures = 0
    step = max(1, _GATHER_BLOCK // max(m, 1))  # cache-sized gathers
    for lo in range(0, trials, step):
        rows0 = rng.integers(
            0, 1 << sum(bit_dims), size=(min(step, trials - lo), m)
        )
        gathered = sampled_entries(y_factors, rows0)
        missed = np.all(np.abs(gathered) <= ZERO_TOL, axis=1)
        failures += int(np.count_nonzero(missed))
    est = failures / trials
    stderr = math.sqrt(est * (1.0 - est) / trials)
    return EmpiricalFailure(
        estimate=est,
        stderr=stderr,
        trials=trials,
        failures=failures,
        bit_dims=bit_dims,
        r=r,
        m=m,
        seed=seed,
    )
