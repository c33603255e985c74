"""Benchmark the two Walsh-Hadamard kernels against each other.

Runs both the compiled kernel (when built) and the numpy kernel on the
same batch shapes and reports the median wall time per transform, the
rows*n*log2(n) butterfly throughput, and the speedup. The import-time
backend switch (KRONJL_PURE=1) is bypassed here: both kernels are called
directly so one process can time them side by side. An end-to-end timing
of the batched operator apply closes with whichever backend the package
selected at import.

Usage: python3 benchmarks/bench_fwht.py [--repeats 9] [--rows 512]
"""

import argparse
import math
import statistics
import time

import numpy as np

from kronjl.fwht import _fwht2_numpy, _fwht_cy, active_backend
from kronjl.indexing import KronDims
from kronjl.transforms import apply_dense_mat, build_operator


def _time_kernel(kernel, rows, n, repeats, rng):
    base = rng.standard_normal((rows, n))
    samples = []
    for _ in range(repeats):
        work = np.ascontiguousarray(base.copy())
        t0 = time.perf_counter()
        kernel(work)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def bench_kernels(rows, repeats, rng):
    kernels = [("numpy", _fwht2_numpy)]
    if _fwht_cy is not None:
        kernels.append(("cython", _fwht_cy.fwht2))
    print(f"{'n':>7} {'rows':>6}", end="")
    for name, _ in kernels:
        print(f" {name + ' ms':>12}", end="")
    if len(kernels) == 2:
        print(f" {'speedup':>8}", end="")
    print()
    for n in (256, 1024, 4096, 16384, 65536):
        times = [
            _time_kernel(kernel, rows, n, repeats, rng)
            for _, kernel in kernels
        ]
        print(f"{n:>7} {rows:>6}", end="")
        for t in times:
            print(f" {t * 1e3:>12.3f}", end="")
        if len(times) == 2:
            print(f" {times[0] / times[1]:>8.2f}x", end="")
        print()


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
    n = dims.total
    per = med / xs.shape[0]
    print(f"\noperator apply ({active_backend()} backend): dims "
          f"{dims.dims}, N={n}, m=128, batch 32: "
          f"{med * 1e3:.1f} ms/batch ({per * 1e6:.0f} us/vector)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=9)
    ap.add_argument("--rows", type=int, default=512)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)
    if _fwht_cy is None:
        print("compiled kernel not built; timing the numpy kernel only")
    bench_kernels(args.rows, args.repeats, rng)
    bench_operator(args.repeats, rng)


if __name__ == "__main__":
    main()
