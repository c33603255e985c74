"""The byte contract of the benchmark: the sweep workload's smoke commands
(jl-sweep per family, then pointset), its full-size jl-sweep/dense
command (N = 2^16, so hadamard_rows splits off its 64-wide last block)
and pointset/kron command, and the oracles workload's lower-bound
command, full and smoke, print exactly the bytes whose sha256
perfbench/reference_digests.json records, for seeds 0-3."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("seed", range(4))
def test_full_sweep_dense_and_pointset_match_reference_digests(seed, capsys):
    want = REFERENCE["full"]["sweep"][str(seed)]
    calls = WORKLOADS["sweep"].build(seed, smoke=False)["cli"]
    argvs = {label: argv for label, argv, _ in calls}
    for label in ("jl-sweep/dense", "pointset/kron"):
        assert _digest(argvs[label], capsys) == want[label], label


@pytest.mark.parametrize("mode", ["full", "smoke"])
@pytest.mark.parametrize("seed", range(4))
def test_oracles_lower_bound_matches_reference_digests(mode, seed, capsys):
    want = REFERENCE[mode]["oracles"][str(seed)]["lower-bound"]
    calls = WORKLOADS["oracles"].build(seed, smoke=mode == "smoke")["cli"]
    (argv,) = [argv for label, argv, _ in calls if label == "lower-bound"]
    assert _digest(argv, capsys) == want
