"""Benchmark the Walsh-Hadamard kernel and the batched operator apply.

Times the blocked numpy kernel on (rows, n) batches and prints the median
wall time per batch for each n, then the median time of one batched
operator apply on a 64x64x64 operator.

Usage: python3 benchmarks/bench_fwht.py [--repeats 9] [--rows 512]
"""

import argparse
import statistics
import time

import numpy as np

from kronjl.fwht import _fwht2_numpy
from kronjl.indexing import KronDims
from kronjl.transforms import apply_dense_mat, build_operator


def bench_kernel(rows, repeats, rng):
    print(f"{'n':>7} {'rows':>6} {'ms':>12}")
    for n in (256, 1024, 4096, 16384, 65536):
        base = rng.standard_normal((rows, n))
        samples = []
        for _ in range(repeats):
            work = base.copy()
            t0 = time.perf_counter()
            _fwht2_numpy(work)
            samples.append(time.perf_counter() - t0)
        print(f"{n:>7} {rows:>6} {statistics.median(samples) * 1e3:>12.3f}")


def bench_operator(repeats, rng):
    dims = KronDims((64, 64, 64))
    op = build_operator(dims.dims, 128, seed=7)
    xs = rng.standard_normal((32, dims.total))
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        apply_dense_mat(op, xs)
        samples.append(time.perf_counter() - t0)
    med = statistics.median(samples)
    per = med / xs.shape[0]
    print(f"\noperator apply: dims {dims.dims}, N={dims.total}, m=128, "
          f"batch 32: {med * 1e3:.1f} ms/batch ({per * 1e6:.0f} us/vector)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=9)
    ap.add_argument("--rows", type=int, default=512)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)
    bench_kernel(args.rows, args.repeats, rng)
    bench_operator(args.repeats, rng)


if __name__ == "__main__":
    main()
