"""Tests of the benchmark itself, on its tiny smoke sizes.

Run from the root of the repository: python3 -m pytest -q perfbench
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import spans  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*extra, cwd=ROOT, script=HERE / "run.py"):
    done = subprocess.run(
        [sys.executable, str(script), "--seconds", "1", "--seed", "5", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_prints_every_declared_metric(workload, trace):
    code, lines = _run("--workload", workload, "--trace", str(trace), "--smoke")
    assert code == 0, lines[-5:]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        assert result["metrics"]["trace.top_level_share"]["value"] > 0.5
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_all_workloads_in_one_command():
    code, lines = _run("--smoke")
    assert code == 0
    table = lines[-3:]
    assert [row.split()[0] for row in table] == ["sweep", "operator", "oracles"]
    assert all("pass_ref_s" in row and "error_rate 0 ratio" in row for row in table)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, lines = _run("--workload", "sweep", cwd=tmp_path,
                       script=tmp_path / "perfbench" / "run.py")
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def _smoke_pass(name, digests=None):
    workload = workloads.WORKLOADS[name]
    rec = workloads.Recorder(digests or {})
    workload.run_pass(workload.build(5, smoke=True), rec)
    return rec


def test_wrong_apply_factored_is_counted(monkeypatch):
    from kronjl import transforms

    real = transforms.apply_factored
    monkeypatch.setattr(transforms, "apply_factored",
                        lambda op, fs: real(op, fs) * (1 + 1e-8))
    rec = _smoke_pass("operator")
    assert rec.failed == workloads.Operator.SMOKE["factored"]


def test_raising_call_is_counted(monkeypatch):
    from kronjl import rip

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(rip, "check_submatrix_bound", broken)
    rec = _smoke_pass("oracles")
    assert rec.failed == len(workloads.Oracles.SMOKE["ms"]) * len(workloads.Oracles.BOUND_S)


def test_changed_output_bytes_are_counted():
    rec = _smoke_pass("sweep", digests={"jl-sweep/dense": "0" * 64})
    assert rec.failed == 1 and "jl-sweep/dense" in rec.problems[0]


def test_per_family_sweeps_equal_one_combined_sweep():
    argv = ["jl-sweep", "--dims", "4x4x2", "--m", "4,8", "--trials", "8", "--seed", "5"]
    code, combined = workloads._cli(argv)
    assert code == 0
    rows = []
    for fam in ("kron", "onehot", "dense"):
        code, text = workloads._cli(argv + ["--family", fam])
        rows += text.splitlines()[1:]
    assert sorted(rows) == sorted(combined.splitlines()[1:])


def test_tracer_patches_every_binding_and_restores_it():
    import kronjl
    from kronjl import adversarial, harness, transforms

    fwht = importlib.import_module("kronjl.fwht")  # kronjl.fwht is the function
    original = fwht.fwht
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert adversarial.fwht is fwht.fwht is kronjl.fwht is not original
        assert harness.hadamard_rows is transforms.hadamard_rows
        op = transforms.build_operator((4, 8), 4, seed=1)
        tracer.run = "r"
        transforms.apply_dense(op, np.ones(32))
    finally:
        tracer.uninstall()
    assert adversarial.fwht is original and kronjl.fwht is original
    names = [s.name for s in tracer.spans]
    assert names[0] == "transforms.build_operator"
    assert names.count("fwht.fwht_axis") == 2
    m = spans.layer_metrics([s for s in tracer.spans if s.run == "r"])
    assert m["fwht.butterflies"] == 32 * 2 + 32 * 3
    assert m["fwht.calls"] == 2
    busy = m["transforms.busy_s"]
    assert m["transforms.self_s"] + m["fwht.busy_s"] + m["indexing.busy_s"] == pytest.approx(busy)
