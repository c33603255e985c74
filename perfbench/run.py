"""Benchmark of kronjl: three workloads, end-to-end metrics, traced layers.

Usage, from the root of the repository:

    python3 perfbench/run.py                       # all workloads, a table
    python3 perfbench/run.py --workload sweep --seed 3 --seconds 30 --trace 0

Workloads (see workloads.py): ``sweep`` runs the command-line Monte Carlo,
``operator`` applies one large operator to many inputs, ``oracles`` runs
the verification layer. Each run imports kronjl from ``src`` of this
checkout, builds its inputs from ``--seed``, runs one warm-up pass and then
timed passes for ``--seconds``, one caller in one process, checking every
call's output. BLAS runs one thread.

With ``--trace 0`` the metrics are the end-to-end ones:

- ``setup_s``: import kronjl and build the inputs; the median of seven
  set-ups, each in a fresh interpreter;
- ``pass_ref_s``: median time of one pass over the workload's calls, at
  the reference speed of the host: a fixed probe that uses no kronjl code
  runs between passes, and each pass's time is scaled by ``PROBE_REF_S``
  over the mean of the probe times on either side of it. The shared
  host's speed drifts by 20-40% over minutes and the probe cancels most
  of it; the raw median ``pass_s`` and the probe's time are printed too;
- ``peak_rss_mb``: peak resident memory of this process.

With ``--trace 1`` half the time runs untraced and half with every public
kronjl function wrapped in a span (spans.py), and one more pass records
allocation peaks; the metrics are per-layer figures per pass, the median
over traced passes. Spans go to
``perfbench/out/``. Metric names and units come from ``BENCHMARK.json``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 if any
output check failed.

``--smoke`` runs tiny sizes through the same calls, checks and output.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("sweep", "operator", "oracles")
SETUP_REPEATS = 7
MIN_PASSES = 2


def _cap_threads():
    # one caller, one BLAS thread: on a shared slice of a few vCPUs a second
    # thread waits on whichever vCPU the host delays
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _import_workloads():
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads


# ---------------------------------------------------------------- stamp


def _blas():
    import ctypes

    import numpy as np

    dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                threads = fn()
                break
    return f"{dep.get('name')} {dep.get('version')}", threads


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "kronjl").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _stamp(args, digest_source):
    import kronjl
    import numpy as np

    blas, blas_threads = _blas()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "smoke": args.smoke,
        "backend": kronjl.active_backend(), "numpy": np.__version__,
        "python": platform.python_version(), "blas": blas,
        "blas_threads": blas_threads, "cpu_count": os.cpu_count(),
        "probe_ref_s": PROBE_REF_S, "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "digests": digest_source,
    }


# ---------------------------------------------------------------- set-up


def _setup_child(args):
    """Time one set-up in this fresh interpreter and print it."""
    t0 = time.perf_counter()
    workloads = _import_workloads()
    workloads.WORKLOADS[args.workload].build(args.seed, args.smoke)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


def _setup_times(args):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed: {done.stderr.strip()[-500:]}")
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


# ---------------------------------------------------------------- host probe

# The probe's median time on the 2-vCPU host the bounds were set on; it only
# fixes the scale of ``pass_ref_s``.
PROBE_REF_S = 0.040


def _host_probe():
    """A fixed piece of work that uses nothing of kronjl: a Python loop,
    small numpy ufuncs, batched 3x3 SVDs and a streaming multiply over
    8 MiB, the kinds of work the passes do, about 10 ms each. It drifts
    with the host's speed, and no change to the package can change its
    time."""
    import numpy as np

    rng = np.random.default_rng(0)
    small = rng.standard_normal((2000, 3, 3))
    big = rng.standard_normal(1 << 20)
    out = np.empty_like(big)

    def probe():
        t0 = time.perf_counter()
        acc = 0
        for i in range(130_000):
            acc += i * i
        a = np.arange(2000.0)
        for _ in range(1500):
            a = np.sqrt(a * a + 1.0)
        for _ in range(2):
            np.linalg.svd(small, compute_uv=False)
        for _ in range(10):
            np.multiply(big, 1.0001, out=out)
        return time.perf_counter() - t0

    return probe


# ---------------------------------------------------------------- passes


def _reference_digests(args):
    path = HERE / "reference_digests.json"
    table = json.loads(path.read_text()) if path.is_file() else {}
    mode = "smoke" if args.smoke else "full"
    ref = table.get(mode, {}).get(args.workload, {}).get(str(args.seed))
    return (ref, "recorded") if ref is not None else ({}, "self")


def _passes(workload, inputs, rec, seconds, tracer=None):
    """Run passes for ``seconds``, stopping before a pass that would run
    past them (but making at least MIN_PASSES), with the host probe before
    the first pass and after each one. Returns each pass's busy time and
    the mean of the two probes around it."""
    probe = _host_probe()
    times, probes = [], [probe()]
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_PASSES or time.perf_counter() + times[-1] <= deadline:
        if tracer is not None:
            tracer.run = f"pass{len(times)}"
        before = rec.busy
        workload.run_pass(inputs, rec)
        times.append(rec.busy - before)
        probes.append(probe())
    return times, [(a + b) / 2 for a, b in zip(probes, probes[1:])]


def _median_metrics(rows):
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def _traced(workload, inputs, rec, seconds, args):
    """Per-layer metrics: span times from passes for ``seconds`` and one
    traced set-up, then allocation peaks from one more pass."""
    import spans

    tracer = spans.Tracer()
    tracer.install()
    try:
        times, _ = _passes(workload, inputs, rec, seconds, tracer)
        tracer.run = "setup"
        workload.build(args.seed, args.smoke)
    finally:
        tracer.uninstall()
    allocs = spans.Tracer(alloc=True)
    allocs.run = "alloc"
    allocs.install()
    try:
        workload.run_pass(inputs, rec)
    finally:
        allocs.uninstall()

    per_run = {}
    for span in tracer.spans:
        per_run.setdefault(span.run, []).append(span)
    rows = []
    for i, busy in enumerate(times):
        row = spans.layer_metrics(per_run.get(f"pass{i}", []))
        row["trace.top_level_share"] = row["trace.top_level_s"] / busy
        rows.append(row)
    metrics = _median_metrics(rows)
    metrics["trace.pass_s"] = statistics.median(times)
    setup = spans.layer_metrics(per_run.get("setup", []))
    metrics["setup.busy_s"] = setup["trace.top_level_s"]
    metrics["setup.transforms_s"] = setup["transforms.busy_s"]
    peaks = spans.layer_metrics(allocs.spans)
    for key in (k for k in peaks if k.endswith(".peak_alloc_mb")):
        metrics[key] = peaks[key]
    return metrics, tracer.spans + allocs.spans


def _run(args, declared):
    workloads = _import_workloads()
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.build(args.seed, args.smoke)

    import kronjl

    if Path(kronjl.__file__).resolve().parent != SRC / "kronjl":
        raise RuntimeError(f"imported kronjl from {kronjl.__file__}, not {SRC}")
    digests, digest_source = _reference_digests(args)
    stamp = _stamp(args, digest_source)
    rec = workloads.Recorder(digests)

    workload.run_pass(inputs, rec)  # warm-up: caches, lazy imports
    embeds = inputs["embeds"]
    if args.trace:
        half = args.seconds / 2
        untraced = statistics.median(_passes(workload, inputs, rec, half)[0])
        metrics, spans = _traced(workload, inputs, rec, half, args)
        metrics["trace.untraced_pass_s"] = untraced
        metrics["trace.overhead_s"] = metrics["trace.pass_s"] - untraced
        metrics["fwht.butterflies_per_embed"] = (
            metrics["fwht.butterflies"] / embeds if embeds else 0.0)
        report = dict(metrics)
    else:
        setups = _setup_times(args)
        times, probes = _passes(workload, inputs, rec, args.seconds)
        spans = []
        pass_s = statistics.median(times)
        metrics = {
            "setup_s": statistics.median(setups),
            "pass_ref_s": statistics.median(
                t * PROBE_REF_S / p for t, p in zip(times, probes)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        report = dict(metrics)
        report.update({
            "pass_s": pass_s, "passes": len(times),
            "pass_s_min": min(times), "pass_s_max": max(times),
            "probe_s": statistics.median(probes),
            "embeds_per_pass": embeds, "embeds_per_s": embeds / pass_s,
            "setup_s_runs": setups,
        })
    report["error_rate"] = rec.failed / rec.attempted
    result = {
        "correct": rec.failed == 0, "attempted": rec.attempted, "failed": rec.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }
    _write_out(args, stamp, report, rec, spans)
    return stamp, report, rec, result


def _write_out(args, stamp, report, rec, spans):
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}{'-smoke' if args.smoke else ''}-seed{args.seed}-trace{args.trace}"
    doc = {"stamp": stamp, "report": report, "problems": rec.problems,
           "digests": rec.seen,
           "spans": {"columns": ["id", "parent", "run", "name", "start", "end",
                                 "error", "alloc_bytes"],
                     "rows": [s.as_row() for s in spans]}}
    (OUT / f"{name}.json").write_text(json.dumps(doc) + "\n")


def _declared_metrics(trace):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def _print_report(stamp, report, rec, declared):
    print("stamp " + json.dumps(stamp, sort_keys=True))
    units = dict(REPORT_UNITS, **declared)
    for key in sorted(report):
        val = report[key]
        if isinstance(val, list):
            val = "[" + ", ".join(f"{v:.4g}" for v in val) + "]"
        print(f"{key:<36} {val} {units.get(key, '')}")
    for problem in rec.problems:
        print(f"FAILED {problem}")


# units of the printed figures that are not declared metrics
REPORT_UNITS = {
    "pass_s": "s", "pass_s_min": "s", "pass_s_max": "s", "probe_s": "s",
    "embeds_per_pass": "count",
    "embeds_per_s": "1/s", "setup_s_runs": "s",
    "error_rate": "ratio", "passes": "count",
}


def _all(args):
    """Each workload in its own process, so no peak hides another."""
    status = 0
    rows = []
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        status = status or done.returncode
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        rows.append((name, result))
    print()
    for name, result in rows:
        if result is None:
            print(f"{name}: no result")
            continue
        err = result["failed"] / result["attempted"]
        cells = [f"{k} {v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()]
        print(f"{name:<9} " + "  ".join(cells) + f"  error_rate {err:.6g} ratio")
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, same checks")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "kronjl" / "__init__.py").is_file():
        print(f"perfbench: no kronjl sources under {SRC}", file=sys.stderr)
        return 2
    _cap_threads()
    if args.workload == "all":
        return _all(args)
    if args.setup_only:
        return _setup_child(args)
    declared = _declared_metrics(args.trace)
    stamp, report, rec, result = _run(args, declared)
    _print_report(stamp, report, rec, declared)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
