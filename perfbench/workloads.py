"""The benchmark's workloads: inputs made from a seed, one pass of package
calls, and a check of every call's output.

Each workload has a ``build(seed, smoke)`` that imports what it uses from
``kronjl`` and makes the pass's inputs, and a ``run_pass(inputs, rec)``
that makes the pass's calls through ``rec``. Calls go through module
attributes (``transforms.apply_dense``), never through names bound here,
so a tracer that patches the package sees them. ``smoke`` picks tiny
sizes that run through the same calls and checks.
"""

import contextlib
import hashlib
import io
import json
import time

import numpy as np

REL_TOL = 1e-10


class Recorder:
    """Times each package call of a pass and records its output check.

    ``digests`` maps an output label to its reference sha256; a label it
    lacks takes the first digest seen, so later passes must repeat it.
    """

    def __init__(self, digests):
        self.digests = digests
        self.seen = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.busy = 0.0

    def op(self, label, call, check):
        """Run ``call()``; count it failed if it raises or ``check(result)``
        returns a problem. Only the call itself is timed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a raising call is a failed operation
            self.busy += time.perf_counter() - t0
            self.fail(label, f"{type(exc).__name__}: {exc}")
            return None
        self.busy += time.perf_counter() - t0
        try:
            problem = check(result)
        except Exception as exc:  # output the check cannot read is wrong
            problem = f"unreadable output: {type(exc).__name__}: {exc}"
        if problem:
            self.fail(label, problem)
        return result

    def skip(self, label, reason):
        """Count a call that could not be made because its input failed."""
        self.attempted += 1
        self.fail(label, reason)

    def fail(self, label, problem):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{label}: {problem}")

    def digest(self, label, text):
        got = hashlib.sha256(text.encode()).hexdigest()
        self.seen.setdefault(label, got)
        want = self.digests.get(label, self.seen[label])
        return None if got == want else f"sha256 {got[:12]} != {want[:12]}"


def _cli(argv):
    """Run the command line in-process; returns (exit code, stdout text)."""
    import kronjl.cli

    buf = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(buf):
        try:
            kronjl.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, buf.getvalue()


def _cli_check(rec, label, text_check):
    """Check of a command-line call: exit code 0, ``text_check(text)``
    passes, and the output bytes match their digest."""

    def check(result):
        code, text = result
        if code != 0:
            return f"exit code {code}"
        return text_check(text) or rec.digest(label, text)

    return check


def _csv(header, rows, count_col=None, trials=None):
    """Text check of a CSV: its header, its row count and, when given, a
    failure-count column within 0..trials."""

    def check(text):
        lines = text.splitlines()
        if not lines or lines[0] != header:
            return "wrong CSV header"
        if len(lines) != rows + 1:
            return f"{len(lines) - 1} rows, expected {rows}"
        if count_col is not None:
            col = header.split(",").index(count_col)
            if any(not 0 <= int(line.split(",")[col]) <= trials for line in lines[1:]):
                return f"{count_col} outside 0..{trials}"
        return None

    return check


def _rel_err(a, b):
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def _agree(y, refs):
    """Problem if ``y`` differs from any (reference, name) in ``refs``."""
    for ref, what in refs:
        if ref is None:
            return f"no {what} result to compare"
        err = _rel_err(y, ref)
        if not err <= REL_TOL:
            return f"relative error {err:.2e} against {what}"
    return None


# ---------------------------------------------------------------- sweep

JL_HEADER = "family,d,dims,N,m,eps,trials,failures,eta_hat,stderr,seed,wall_ms"
POINTSET_HEADER = (
    "family,points,d,dims,N,m,eps,trials,joint_failures,joint_eta,"
    "joint_stderr,pair_eta,union_bound,skipped_pairs,seed,wall_ms"
)
LOWER_HEADER = "s,d,bits,r,m,exact,bound,empirical,stderr,trials,flagged,seed,wall_ms"


class Sweep:
    """The command-line Monte Carlo of the paper's experiments: one
    ``jl-sweep`` per family (each family's substream is keyed by its
    canonical index, so the rows equal one combined run's), then one
    ``pointset``. Every trial draws a fresh operator, so sign-row builds,
    WHT butterflies and gathers over (trials, N) blocks dominate."""

    name = "sweep"
    # 16 trials keep each (trials, N) block at 8 MiB, past the 2 MiB L2 of
    # a core, and a pass near one second, so a run times many passes
    FULL = dict(dims="64x64x16", m="32,128", trials=16,
                ps_dims="32x32x16", points=16, ps_m=64, ps_trials=8)
    SMOKE = dict(dims="4x4x2", m="4,8", trials=8,
                 ps_dims="4x4", points=4, ps_m=8, ps_trials=8)

    @staticmethod
    def build(seed, smoke):
        import kronjl.cli  # noqa: F401  (set-up pays for the pass's imports)

        p = Sweep.SMOKE if smoke else Sweep.FULL
        n_m = len(p["m"].split(","))
        calls = [
            (f"jl-sweep/{fam}",
             ["jl-sweep", "--dims", p["dims"], "--m", p["m"], "--eps", "0.5",
              "--family", fam, "--trials", str(p["trials"]), "--seed", str(seed)],
             _csv(JL_HEADER, n_m, "failures", p["trials"]))
            for fam in ("kron", "onehot", "dense")
        ]
        calls.append((
            "pointset/kron",
            ["pointset", "--dims", p["ps_dims"], "--points", str(p["points"]),
             "--m", str(p["ps_m"]), "--family", "kron",
             "--trials", str(p["ps_trials"]), "--seed", str(seed)],
            _csv(POINTSET_HEADER, 1, "joint_failures", p["ps_trials"]),
        ))
        embeds = 3 * n_m * p["trials"] + p["points"] * p["ps_trials"]
        return {"cli": calls, "embeds": embeds}

    @staticmethod
    def run_pass(inputs, rec):
        _run_cli(inputs, rec)


def _run_cli(inputs, rec):
    for label, argv, text_check in inputs["cli"]:
        rec.op(label, lambda: _cli(argv), _cli_check(rec, label, text_check))


# ------------------------------------------------------------- operator


def _sylvester(n):
    """Orthonormal Hadamard matrix from the bit-parity formula, independent
    of the package's recursion and butterflies."""
    i = np.arange(n)
    parity = np.vectorize(lambda v: bin(v).count("1") & 1)(i[:, None] & i[None, :])
    return (1.0 - 2.0 * parity) / np.sqrt(n)


class Operator:
    """One operator reused across many inputs: a batch through
    ``apply_dense_mat``, the same vectors one at a time through
    ``apply_dense``, and rank-one inputs through ``apply_factored``.
    At 64x64x64 a row is 2 MiB and a batch 64 MiB, so the WHT runs out
    of cache, unlike the smaller blocks of the sweep."""

    name = "operator"
    FULL = dict(dims=(64, 64, 64), m=128, batch=32, rank_one_rows=16, factored=256)
    SMOKE = dict(dims=(4, 4, 4), m=8, batch=4, rank_one_rows=2, factored=16)

    @staticmethod
    def build(seed, smoke):
        from kronjl import transforms

        p = Operator.SMOKE if smoke else Operator.FULL
        op = transforms.build_operator(p["dims"], p["m"], seed)
        rng = np.random.default_rng([seed, 1])
        factors = []
        for _ in range(p["factored"]):
            fs = [rng.standard_normal(n) for n in p["dims"]]
            factors.append([f / np.linalg.norm(f) for f in fs])
        # the first rows of the batch are rank-one, the rest dense
        k = p["rank_one_rows"]
        dense = rng.standard_normal((p["batch"] - k, op.dims.total))
        xs = np.vstack(
            [transforms.kron_materialize(f) for f in factors[:k]]
            + [dense / np.linalg.norm(dense, axis=1, keepdims=True)]
        )
        # reference for apply_factored: scale * prod_l (H_l D_l f_l)[coord_l]
        coords = np.unravel_index(op.samples.rows - 1, p["dims"], order="F")
        hds = [_sylvester(n) * s[None, :] for n, s in zip(p["dims"], op.signs.factors)]
        return {"op": op, "xs": xs, "factors": factors, "rank_one_rows": k,
                "coords": coords, "hds": hds,
                "embeds": 2 * p["batch"] + p["factored"]}

    @staticmethod
    def _factored_ref(inputs, fs):
        out = np.full(inputs["op"].m, inputs["op"].scale)
        for hd, f, c in zip(inputs["hds"], fs, inputs["coords"]):
            out *= (hd @ f)[c]
        return out

    @staticmethod
    def run_pass(inputs, rec):
        from kronjl import transforms

        op, xs = inputs["op"], inputs["xs"]
        batch = rec.op(
            "apply_dense_mat", lambda: transforms.apply_dense_mat(op, xs),
            lambda y: None if y.shape == (xs.shape[0], op.m) and np.all(np.isfinite(y))
            else "bad batch output",
        )
        singles = []
        for i, x in enumerate(xs):
            row = None if batch is None else batch[i]
            singles.append(rec.op(
                "apply_dense", lambda: transforms.apply_dense(op, x),
                lambda y: _agree(y, [(row, "apply_dense_mat row")]),
            ))
        k = inputs["rank_one_rows"]
        for j, fs in enumerate(inputs["factors"]):
            refs = [(Operator._factored_ref(inputs, fs), "Hadamard matrices")]
            if j < k:  # row j of the batch is kron_materialize(fs)
                refs.append((singles[j], "apply_dense(kron_materialize)"))
            rec.op("apply_factored", lambda: transforms.apply_factored(op, fs),
                   lambda y: _agree(y, refs))


# -------------------------------------------------------------- oracles


class Oracles:
    """The verification layer on the shapes of acceptance criterion 07:
    exact isometry constants and the exhaustive submatrix bound on
    materialized 16-column operators, the chaos and partition reports,
    the lower-bound sweep, fiber splits of (2,4,2) arrays and the
    self-test. Batched small SVD/eigvalsh and support enumeration
    dominate; WHT work is negligible."""

    name = "oracles"
    FULL = dict(n=16, ms=(4, 8, 12), arrays=100, partition_d=4, lower_rows=8,
                lower=["--bits", "4", "--r", "2", "--d", "1,2", "--m", "4,8,16,32",
                       "--trials", "10000"])
    SMOKE = dict(n=8, ms=(4, 8), arrays=5, partition_d=2, lower_rows=2,
                 lower=["--bits", "2", "--r", "1", "--d", "1", "--m", "2,4",
                        "--trials", "100"])
    RIP_S = (1, 2, 3, 4, 6)
    BOUND_S = (1, 2, 3)  # checked against delta_{2s}
    BUDGET = 400_000

    @staticmethod
    def build(seed, smoke):
        import kronjl.cli  # noqa: F401  (set-up pays for the pass's imports)
        from kronjl import rip, sparsify, transforms  # noqa: F401

        p = Oracles.SMOKE if smoke else Oracles.FULL
        phis = [
            transforms.materialize(transforms.build_operator((p["n"],), m, 16 * seed + k))
            for k, m in enumerate(p["ms"])
        ]
        arrays = np.random.default_rng([seed, 2]).standard_normal((p["arrays"], 2, 4, 2))
        cli = [
            (f"report-chaos/m{m}",
             ["report", "--kind", "chaos", "--dims", str(p["n"]), "--m", str(m),
              "--seed", str(seed)], _report_check)
            for m in p["ms"]
        ]
        cli += [
            ("report-partition",
             ["report", "--kind", "partition", "--d", str(p["partition_d"])],
             _partition_check),
            ("lower-bound", ["lower-bound"] + p["lower"] + ["--seed", str(seed)],
             _csv(LOWER_HEADER, p["lower_rows"])),
            ("selftest", ["selftest"], _selftest_check),
        ]
        return {"phis": phis, "arrays": arrays, "cli": cli, "embeds": 0}

    @staticmethod
    def run_pass(inputs, rec):
        from kronjl import rip, sparsify

        for k, phi in enumerate(inputs["phis"]):
            deltas = {}
            for s in Oracles.RIP_S:
                rep = rec.op(f"rip_constant/s{s}", lambda: rip.rip_constant(phi, s),
                             lambda r: _monotone(deltas, s, r.delta))
                if rep is not None:
                    deltas[s] = rep.delta
            for s in Oracles.BOUND_S:
                label = f"check_submatrix_bound/s{s}"
                if 2 * s not in deltas:
                    rec.skip(label, f"no delta_{2 * s}")
                    continue
                rec.op(
                    label,
                    lambda: rip.check_submatrix_bound(
                        phi, s, delta=deltas[2 * s], budget=Oracles.BUDGET, seed=k),
                    lambda r: None if r.exhaustive and r.ok
                    else f"exhaustive={r.exhaustive} ok={r.ok}",
                )
        for x in inputs["arrays"]:
            for s in (2, 3):
                sp = rec.op("split", lambda: sparsify.split(x, s),
                            lambda sp: None if np.array_equal(sp.reconstruct(), x)
                            else "parts do not sum to the input")
                if sp is None:
                    rec.skip("check_fiber_sparsity", "no split")
                    rec.skip("check_max_sum_inequalities", "no split")
                    continue
                rec.op("check_fiber_sparsity",
                       lambda: sparsify.check_fiber_sparsity(sp),
                       lambda r: None if r.ok else "fiber bound violated")
                rec.op("check_max_sum_inequalities",
                       lambda: sparsify.check_max_sum_inequalities(x, sp),
                       lambda r: None if r.ok else "max-sum inequality violated")
        _run_cli(inputs, rec)


def _monotone(deltas, s, delta):
    below = [d for t, d in deltas.items() if t < s]
    if not delta >= 0:
        return f"delta_{s} = {delta}"
    if below and max(below) > delta:
        return f"delta_{s} = {delta} is below a smaller order's {max(below)}"
    return None


def _report_check(text):
    doc = json.loads(text)
    return None if doc.get("schema") == "kronjl.report.v1" else "wrong report schema"


def _partition_check(text):
    doc = json.loads(text)
    if _report_check(text) or doc.get("ok") is not True or doc.get("violations") != 0:
        return f"partition report not ok: {doc}"
    return None


def _selftest_check(text):
    lines = text.splitlines()
    if not lines or not lines[-1].startswith("all ") or any(
        ": ok (" not in line for line in lines[:-1]
    ):
        return "a self-test check failed"
    return None


WORKLOADS = {w.name: w for w in (Sweep, Operator, Oracles)}
