"""The byte contract of the benchmark: the sweep workload's smoke commands
(jl-sweep per family, then pointset), its full-size jl-sweep/dense
command (N = 2^16, so hadamard_rows splits off its 32-wide last block)
and pointset/kron command, and every command of the oracles workload
(lower-bound, report-chaos for each m, report-partition and selftest),
full and smoke, print exactly the bytes whose sha256
perfbench/reference_digests.json records, for seeds 0-3."""

import functools
import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from kronjl import transforms
from kronjl.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads().WORKLOADS
REFERENCE = json.loads((PERFBENCH / "reference_digests.json").read_text())


def _digest(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert (excinfo.value.code or 0) == 0, argv
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("seed", range(4))
def test_sweep_smoke_outputs_match_reference_digests(seed, capsys):
    want = REFERENCE["smoke"]["sweep"][str(seed)]
    calls = WORKLOADS["sweep"].build(seed, smoke=True)["cli"]
    assert sorted(label for label, _, _ in calls) == sorted(want)
    for label, argv, _ in calls:
        assert _digest(argv, capsys) == want[label], label


# the dense cells on the caller alone (the default BLAS threads, ids
# "0".."3") and on the caller and a helper thread
@pytest.mark.parametrize("seed, two_threads", [
    pytest.param(seed, two, id=f"{seed}-two-threads" if two else str(seed))
    for two in (False, True) for seed in range(4)])
def test_full_sweep_dense_and_pointset_match_reference_digests(
        seed, two_threads, monkeypatch, capsys):
    monkeypatch.setattr(transforms, "_TWO_THREADS", two_threads)
    want = REFERENCE["full"]["sweep"][str(seed)]
    calls = WORKLOADS["sweep"].build(seed, smoke=False)["cli"]
    argvs = {label: argv for label, argv, _ in calls}
    for label in ("jl-sweep/dense", "pointset/kron"):
        assert _digest(argvs[label], capsys) == want[label], label


@functools.cache
def _oracles_calls(mode, seed):
    # building the workload materializes its phis: once per (mode, seed)
    return WORKLOADS["oracles"].build(seed, smoke=mode == "smoke")["cli"]


@pytest.mark.parametrize("mode", ["full", "smoke"])
@pytest.mark.parametrize("seed", range(4))
def test_oracles_lower_bound_matches_reference_digests(mode, seed, capsys):
    want = REFERENCE[mode]["oracles"][str(seed)]["lower-bound"]
    (argv,) = [argv for label, argv, _ in _oracles_calls(mode, seed)
               if label == "lower-bound"]
    assert _digest(argv, capsys) == want


@pytest.mark.parametrize("mode", ["full", "smoke"])
@pytest.mark.parametrize("seed", range(4))
def test_oracles_reports_and_selftest_match_reference_digests(mode, seed, capsys):
    # every other oracles command; with the test above, all of them
    want = REFERENCE[mode]["oracles"][str(seed)]
    calls = _oracles_calls(mode, seed)
    assert sorted(label for label, _, _ in calls) == sorted(want)
    for label, argv, _ in calls:
        if label != "lower-bound":
            assert _digest(argv, capsys) == want[label], label
