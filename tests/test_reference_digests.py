"""The byte contract of the benchmark's sweep workload: its smoke commands
(jl-sweep per family, then pointset) print exactly the bytes whose sha256
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


SWEEP = _workloads().Sweep
REFERENCE = json.loads((PERFBENCH / "reference_digests.json").read_text())


@pytest.mark.parametrize("seed", range(4))
def test_sweep_smoke_outputs_match_reference_digests(seed, capsys):
    want = REFERENCE["smoke"]["sweep"][str(seed)]
    calls = SWEEP.build(seed, smoke=True)["cli"]
    assert sorted(label for label, _, _ in calls) == sorted(want)
    for label, argv, _ in calls:
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert (excinfo.value.code or 0) == 0, label
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == want[label], label
