"""Span tracer that wraps the public functions of every kronjl module.

Callers bind package functions by name at import (``harness`` holds its
own ``hadamard_rows``, ``adversarial`` its own ``fwht``), so patching the
defining module is not enough: ``install`` replaces every binding of a
wrapped function in every loaded ``kronjl`` module, including the package
namespace, and ``uninstall`` puts the originals back.

Each call becomes a span with a name, start, end, parent span and run id.
Spans stay in memory until the run ends. A tracer made with ``alloc=True``
also records each span's allocation peak through ``tracemalloc`` (numpy
reports its array buffers to it); that slows Python-heavy calls several
times over, so span times come from a tracer without it.
"""

import functools
import inspect
import math
import sys
import time
import tracemalloc

import numpy as np

# the package's modules, one layer each
LAYERS = (
    "fwht", "transforms", "harness", "rand", "rip", "chaos", "sparsify",
    "adversarial", "gf2", "cli", "indexing",
)


def _butterflies(args, kwargs, result):
    # rows * n * log2(n) element updates per call: fwht(x) is one row,
    # fwht_axis(a, axis) transforms a.size / n rows of length n
    shape = np.shape(args[0])
    n = shape[args[1]] if len(args) > 1 else shape[0]
    done = math.prod(shape) * int(math.log2(n))
    # computed, not measured: each update reads and writes one float64
    return {"butterflies": done, "bytes_computed": 16 * done}


def _family_kind(args, kwargs, result):
    # the dense family needs length-N work; kron and onehot are rank-one.
    # Without a family list the sweep runs every family, dense included.
    fams = kwargs.get("families")
    return {"kind": "rank_one" if fams is not None and "dense" not in fams else "dense"}


def _supports(args, kwargs, result):
    phi, s = args[0], args[1]
    out = {"supports": math.comb(phi.shape[1], s)}
    if hasattr(result, "pairs_checked"):
        out["pairs_checked"] = result.pairs_checked
    return out


COUNTERS = {
    "fwht.fwht": _butterflies,
    "fwht.fwht_axis": _butterflies,
    "harness.jl_failure_sweep": _family_kind,
    "rip.rip_constant": _supports,
    "rip.check_submatrix_bound": _supports,
}


class Span:
    __slots__ = (
        "id", "parent", "run", "name", "layer", "outer", "start", "end",
        "error", "counts", "alloc_start", "alloc_peak",
    )

    def as_row(self):
        return [
            self.id, self.parent, self.run, self.name,
            round(self.start, 9), round(self.end, 9), self.error,
            self.alloc_peak - self.alloc_start,
        ]


class Tracer:
    def __init__(self, alloc=False):
        self.alloc = alloc
        self.spans = []
        self.run = None
        self._stack = []
        self._patched = []

    # ------------------------------------------------------------ patching

    def install(self):
        mods = [
            (name, mod) for name, mod in sys.modules.items()
            if name == "kronjl" or name.startswith("kronjl.")
        ]
        wrappers = {}
        for name, mod in mods:
            layer = name.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == name
                        and not attr.startswith("_")):
                    wrappers[fn] = self._wrap(fn, layer, f"{layer}.{attr}")
        for _, mod in mods:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    setattr(mod, attr, wrappers[val])
                    self._patched.append((mod, attr, val))
        if self.alloc:
            tracemalloc.start()

    def uninstall(self):
        if self.alloc:
            tracemalloc.stop()
        for mod, attr, fn in self._patched:
            setattr(mod, attr, fn)
        self._patched = []

    def _wrap(self, fn, layer, name):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span.error = True
                raise
            finally:
                self._close(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    def _fold_peak(self):
        current, peak = tracemalloc.get_traced_memory()
        for open_span in self._stack:
            open_span.alloc_peak = max(open_span.alloc_peak, peak)
        tracemalloc.reset_peak()
        return current

    def _open(self, name, layer):
        current = self._fold_peak() if self.alloc else 0
        span = Span()
        span.id = len(self.spans)
        span.parent = self._stack[-1].id if self._stack else None
        span.run = self.run
        span.name = name
        span.layer = layer
        span.outer = all(s.layer != layer for s in self._stack)
        span.error = False
        span.counts = None
        span.alloc_start = span.alloc_peak = current
        self._stack.append(span)
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        if self.alloc:
            self._fold_peak()
        self._stack.pop()


def layer_metrics(spans):
    """Per-layer figures of one run (one pass or one set-up)."""
    child_time = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.end - s.start
    out = {"trace.spans": len(spans), "trace.top_level_s": 0.0}
    for layer in LAYERS:
        for key in ("calls", "busy_s", "self_s", "errors", "peak_alloc_mb"):
            out[f"{layer}.{key}"] = 0
    by_name = {}
    counts = {}
    for s in spans:
        dur = s.end - s.start
        if s.parent is None:
            out["trace.top_level_s"] += dur
        out[f"{s.layer}.calls"] += 1
        out[f"{s.layer}.self_s"] += dur - child_time.get(s.id, 0.0)
        out[f"{s.layer}.errors"] += int(s.error)
        if s.outer:
            out[f"{s.layer}.busy_s"] += dur
            out[f"{s.layer}.peak_alloc_mb"] = max(
                out[f"{s.layer}.peak_alloc_mb"],
                (s.alloc_peak - s.alloc_start) / 2**20,
            )
        by_name[s.name] = by_name.get(s.name, 0.0) + dur
        for key, val in (s.counts or {}).items():
            if key == "kind":
                key, val = f"jl_sweep.{val}_s", dur
            counts[key] = counts.get(key, 0) + val

    kernel_s = by_name.get("fwht.fwht", 0.0) + by_name.get("fwht.fwht_axis", 0.0)
    butterflies = counts.get("butterflies", 0)
    out["fwht.butterflies"] = butterflies
    out["fwht.bytes_computed"] = counts.get("bytes_computed", 0)
    out["fwht.ns_per_butterfly"] = kernel_s / butterflies * 1e9 if butterflies else 0.0
    for fn in ("apply_dense_mat", "apply_dense", "apply_factored",
               "hadamard_rows", "materialize", "build_operator"):
        out[f"transforms.{fn}_s"] = by_name.get(f"transforms.{fn}", 0.0)
    out["harness.jl_sweep.rank_one_s"] = counts.get("jl_sweep.rank_one_s", 0.0)
    out["harness.jl_sweep.dense_s"] = counts.get("jl_sweep.dense_s", 0.0)
    out["harness.pointset_s"] = by_name.get("harness.pointset_preservation", 0.0)
    out["rip.rip_constant_s"] = by_name.get("rip.rip_constant", 0.0)
    out["rip.check_submatrix_bound_s"] = by_name.get("rip.check_submatrix_bound", 0.0)
    out["rip.supports"] = counts.get("supports", 0)
    out["rip.pairs_checked"] = counts.get("pairs_checked", 0)
    return out
