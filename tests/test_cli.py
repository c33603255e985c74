"""CLI tests driven through the real entry point so the exit-code
mapping is exercised: 0 success, 1 config, 2 budget, 3 selftest."""

import hashlib
import inspect
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import kronjl
from kronjl import errors, harness
from kronjl.cli import main


def run_cli(args, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(list(args))
    out, err = capsys.readouterr()
    code = excinfo.value.code or 0
    return code, out, err


def test_selftest_exit_zero(capsys):
    code, out, _ = run_cli(["selftest"], capsys)
    assert code == 0
    assert "all 5 checks passed" in out
    assert "FAIL" not in out


def test_selftest_fails_on_a_wrong_layout(monkeypatch, capsys):
    # each group's first listed axis slowest instead of fastest
    def c_order_positions(shape, groups):
        sizes = [math.prod(shape[a] for a in g) for g in groups]
        flat = np.arange(math.prod(shape)).reshape(shape)
        return flat.transpose(sum(groups, ())).reshape(sizes)

    monkeypatch.setattr(harness, "_group_positions", c_order_positions)
    failed = [name for name, ok, _ in harness.selftest() if not ok]
    assert failed == ["index-bijection"]
    code, out, _ = run_cli(["selftest"], capsys)
    assert code == 3
    assert "index-bijection: FAIL (layout broke for axes ())" in out


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(["--help"], capsys)
    assert code == 0
    assert "jl-sweep" in out


def test_jl_sweep_to_file_and_rerun(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    args = [
        "jl-sweep", "--dims", "4,4", "--m", "4,8", "--eps", "0.5",
        "--trials", "200", "--seed", "42", "--family", "kron",
        "--out", str(out_path),
    ]
    code, _, _ = run_cli(args, capsys)
    assert code == 0
    first = out_path.read_bytes()
    lines = first.decode().splitlines()
    assert lines[0] == "family,d,dims,N,m,eps,trials,failures,eta_hat,stderr,seed,wall_ms"
    assert len(lines) == 3
    code, _, _ = run_cli(args, capsys)
    assert code == 0
    assert out_path.read_bytes() == first


def test_jl_sweep_stdout(capsys):
    code, out, _ = run_cli(
        ["jl-sweep", "--dims", "8", "--m", "4", "--trials", "100",
         "--seed", "1", "--family", "onehot"],
        capsys,
    )
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert row[0] == "onehot"
    assert row[7] == "0"  # perfect spreading: no failures


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "dims: '4,4'\nm: '4'\neps: 0.5\ntrials: 100\nseed: 3\nfamily: kron\n"
    )
    code, out, _ = run_cli(
        ["jl-sweep", "--config", str(cfg), "--trials", "150"], capsys
    )
    assert code == 0
    assert out.splitlines()[1].split(",")[6] == "150"


def test_bad_dims_exits_one(capsys):
    code, _, err = run_cli(["jl-sweep", "--dims", "4,5", "--m", "4"], capsys)
    assert code == 1
    assert "dims" in err


def test_missing_required_exits_one(capsys):
    code, _, err = run_cli(["jl-sweep", "--m", "4"], capsys)
    assert code == 1
    assert "dims" in err


@pytest.mark.parametrize("command,config,other", [
    pytest.param(command, config, other, id=command)
    for command, config, other in (
        ("jl-sweep", "dims: '4'\nm: '4'\ntrials: 10\n", "points"),
        ("pointset", "dims: '4'\npoints: 2\nm: '4'\ntrials: 10\n", "nu"),
        ("lower-bound", "bits: 2\nr: 1\nd: 1\nm: 2\ntrials: 10\n", "points"),
        ("report", "kind: partition\nd: 2\n", "eps"),
    )
])
def test_unknown_config_key_exits_one(command, config, other, tmp_path,
                                      capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(config)
    assert run_cli([command, "--config", str(cfg)], capsys)[0] == 0
    # `warp` is no option at all; `other` is another command's option
    for key, message in (
        ("warp", "unknown option 'warp'"),
        (other, f"{other}: not an option of a {command} command"),
    ):
        cfg.write_text(f"{config}{key}: 9\n")
        code, out, err = run_cli([command, "--config", str(cfg)], capsys)
        assert code == 1
        assert out == ""
        assert err.splitlines() == [f"config error: {message}"]


_SWEEP = ["jl-sweep", "--dims", "4", "--trials", "10"]
_LOWER = ["lower-bound", "--bits", "2", "--r", "1", "--trials", "10"]


@pytest.mark.parametrize("args,field", [
    pytest.param(args, field, id=f"{args[0]}-{field}")
    for args, field in (
        (_SWEEP + ["--m", "4", "--family", "kron,kron"], "family"),
        (_SWEEP + ["--m", "4", "--baseline", "kfjlt,kfjlt"], "baseline"),
        (_SWEEP + ["--m", "4,4"], "m"),
        (_SWEEP + ["--m", "4", "--eps", "0.5,0.50"], "eps"),
        (_LOWER + ["--d", "1,1", "--m", "4"], "d"),
        (_LOWER + ["--d", "1", "--m", "4,4"], "m"),
        (["pointset", "--dims", "4", "--points", "2", "--trials", "10",
          "--m", "4,8,4"], "m"),
        (["report", "--kind", "rip", "--dims", "8", "--s", "1",
          "--m", "4,4"], "m"),
        # a repeated axis length is a shape, not a repeated cell
        (_SWEEP + ["--m", "4", "--dims", "4x4"], None),
    )
])
def test_repeated_list_value_exits_one(args, field, capsys):
    # a repeated cell would draw the same stream and write its row twice
    code, out, err = run_cli(args, capsys)
    if field is None:
        assert code == 0
        assert len(out.splitlines()) == 4
    else:
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            f"config error: {field}: values must be distinct"
        ]


def _help_options(command, capsys):
    code, out, _ = run_cli([command, "--help"], capsys)
    assert code == 0
    return out, re.findall(r"^  (--[a-z-]+)", out, re.MULTILINE)


@pytest.mark.parametrize("name", list(harness.COMMANDS))
def test_command_flags_are_its_builder_parameters(name, capsys):
    _, flags = _help_options(name, capsys)
    params = inspect.signature(harness.COMMANDS[name]).parameters
    want = ["--config", *(f"--{p}" for p in params), "--out", "--help"]
    assert flags == want


def test_report_help_names_the_report_kinds(capsys):
    out, _ = _help_options("report", capsys)
    kinds = re.search(r"Report kind: ([a-z|]+)\.", out).group(1)
    assert tuple(kinds.split("|")) == harness.REPORT_KINDS


def test_report_help_says_which_kind_reads_which_option(capsys):
    out, _ = _help_options("report", capsys)
    lines = out.split("Options each kind reads, [optional]:\n")[1].splitlines()
    assert len(lines) == len(harness.REPORT_KINDS)
    for kind, line in zip(harness.REPORT_KINDS, lines):
        name, _, usage = line.strip().partition(": ")
        need, _, rest = usage.rstrip("]").partition(" [")
        params = inspect.signature(harness._REPORTS[kind]).parameters.values()
        assert name == kind
        assert need.split(", ") == [p.name for p in params if p.default is p.empty]
        assert (rest.split(", ") if rest else []) == [
            p.name for p in params if p.default is not p.empty]


def test_budget_error_exits_two(capsys):
    code, _, err = run_cli(["report", "--kind", "partition", "--d", "6"], capsys)
    assert code == 2
    assert "budget" in err


@pytest.mark.parametrize("args", [
    ["--kind", "rip", "--dims", "16384", "--m", "8", "--s", "1"],
    ["--kind", "chaos", "--dims", "128x128", "--m", "8"],
])
def test_dense_reports_refuse_a_wide_operator(args, capsys):
    # N = 2^14: one N x N float64 would be 2 GiB, and none is allocated
    tracemalloc.start()
    try:
        code, out, err = run_cli(["report", *args], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "budget error: materialize: N = 16384 needs 2147483648 bytes (N x N)"
    ]
    assert peak < 8 * 2**20


def test_malformed_config_exits_one(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("dims: [4, 4\nm: 8\n")
    code, out, err = run_cli(["jl-sweep", "--config", str(cfg)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"config error: malformed config {cfg}")


def test_out_into_a_missing_directory_exits_one(tmp_path, capsys):
    out_path = tmp_path / "missing" / "partition.json"
    code, out, err = run_cli(
        ["report", "--kind", "partition", "--d", "2", "--out", str(out_path)],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert err.startswith(f"config error: cannot write {out_path}")
    assert not out_path.parent.exists()


def test_report_rip_stdout_json(capsys):
    code, out, _ = run_cli(
        ["report", "--kind", "rip", "--dims", "16", "--m", "8", "--s", "2",
         "--seed", "7"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "kronjl.report.v1"
    assert doc["kind"] == "rip"


def test_report_without_dims_names_what_it_needs(capsys):
    for args, need in (
        (["--kind", "rip", "--m", "8", "--s", "2"], "rip report needs dims, m, s"),
        (["--kind", "chaos", "--m", "8"], "chaos report needs dims, m"),
    ):
        code, _, err = run_cli(["report", *args], capsys)
        assert code == 1
        assert err.splitlines() == [f"config error: {need}"]


def test_report_rejects_options_its_kind_does_not_read(capsys):
    for args, extra in (
        (["--kind", "partition", "--d", "2", "--dims", "4x4", "--s", "3"],
         "dims: not an option of a partition report"),
        (["--kind", "rip", "--dims", "16", "--m", "8", "--s", "2", "--d", "3"],
         "d: not an option of a rip report"),
        (["--kind", "rip", "--dims", "16", "--m", "8", "--s", "2",
          "--trials", "7"], "trials: not an option of a rip report"),
        (["--kind", "chaos", "--dims", "4", "--m", "4", "--s", "2"],
         "s: not an option of a chaos report"),
        # a missing option is named before an extra one
        (["--kind", "rip", "--m", "8", "--s", "2", "--trials", "7"],
         "rip report needs dims, m, s"),
    ):
        code, out, err = run_cli(["report", *args], capsys)
        assert code == 1
        assert out == ""
        assert err.splitlines() == [f"config error: {extra}"]
    # each kind takes every option it reads
    code, out, _ = run_cli(
        ["report", "--kind", "chaos", "--dims", "4", "--m", "4",
         "--trials", "50", "--seed", "2"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["trials"] == 50


def _concrete_errors(cls=errors.KronjlError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _concrete_errors(sub)


def test_every_library_error_maps_to_an_exit_code(monkeypatch, capsys):
    seen = []
    for cls in _concrete_errors():
        def fail(*args, cls=cls, **kwargs):
            raise cls("boom")

        monkeypatch.setattr(harness, "run_report", fail)
        code, out, err = run_cli(
            ["report", "--kind", "partition", "--d", "2"], capsys
        )
        kind = "budget" if issubclass(cls, errors.BudgetError) else "config"
        assert code == (2 if kind == "budget" else 1), cls.__name__
        assert out == ""
        assert err.splitlines() == [f"{kind} error: boom"], cls.__name__
        seen.append(cls.__name__)
    assert sorted(seen) == ["BudgetError", "ConfigError", "ShapeError"]


def test_report_takes_one_m(capsys):
    code, _, err = run_cli(
        ["report", "--kind", "rip", "--dims", "16", "--m", "8,16", "--s", "2"],
        capsys,
    )
    assert code == 1
    assert "m" in err


def test_report_partition_to_file(tmp_path, capsys):
    out_path = tmp_path / "partition.json"
    args = ["report", "--kind", "partition", "--d", "2", "--out", str(out_path)]
    code, _, _ = run_cli(args, capsys)
    assert code == 0
    first = out_path.read_bytes()
    assert json.loads(first)["violations"] == 0
    code, _, _ = run_cli(args, capsys)
    assert out_path.read_bytes() == first


def test_pointset_command(tmp_path, capsys):
    out_path = tmp_path / "points.csv"
    args = [
        "pointset", "--dims", "4,4", "--points", "4", "--m", "16",
        "--eps", "0.5", "--trials", "100", "--seed", "2",
        "--out", str(out_path),
    ]
    code, _, _ = run_cli(args, capsys)
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("family,points,d,dims,N,m,eps,trials,")
    assert len(lines) == 2
    code, _, _ = run_cli(args, capsys)
    assert out_path.read_text().splitlines() == lines


def test_pointset_too_few_points(capsys):
    code, _, err = run_cli(
        ["pointset", "--dims", "4", "--points", "1", "--m", "4"], capsys
    )
    assert code == 1
    assert "points" in err


def test_lower_bound_command(capsys):
    code, out, _ = run_cli(
        ["lower-bound", "--bits", "4", "--r", "2", "--d", "1,2",
         "--m", "8,16", "--trials", "200", "--seed", "4"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == (
        "s,d,bits,r,m,exact,bound,empirical,stderr,trials,flagged,seed,wall_ms"
    )
    assert len(lines) == 5


@pytest.mark.parametrize("bits,r,d", [(31, 31, 2), (62, 1, 1)])
def test_lower_bound_long_axes_run_in_small_memory(bits, r, d, capsys):
    # an axis of 2^bits words and a family of 2^(d 2^r) points: neither
    # is ever built, so memory follows the row blocks alone
    tracemalloc.start()
    try:
        code, out, err = run_cli(
            ["lower-bound", "--bits", str(bits), "--r", str(r), "--d", str(d),
             "--m", "4", "--trials", "1000"],
            capsys,
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 2
    assert peak < 8 * 2**20


def test_lower_bound_bad_r(capsys):
    code, _, err = run_cli(
        ["lower-bound", "--bits", "3", "--r", "9", "--d", "1", "--m", "4",
         "--trials", "10"],
        capsys,
    )
    assert code == 1
    assert "r" in err


def test_unknown_flag_exits_one(capsys):
    code, _, _ = run_cli(["jl-sweep", "--sideways", "1"], capsys)
    assert code == 1


def test_gaussian_baseline_via_cli(capsys):
    code, out, _ = run_cli(
        ["jl-sweep", "--dims", "4", "--m", "8", "--trials", "100",
         "--seed", "5", "--family", "dense", "--baseline", "gaussian"],
        capsys,
    )
    assert code == 0
    assert len(out.splitlines()) == 2


def test_timing_flag_fills_wall_ms(monkeypatch, capsys):
    # a clock that moves 0.5 s per reading: each cell reads it twice
    clock = itertools.count(step=0.5)
    monkeypatch.setattr(time, "perf_counter", lambda: next(clock))
    for args in (
        ["jl-sweep", "--dims", "4,4", "--m", "4,8", "--trials", "20",
         "--seed", "6", "--family", "dense,kron"],
        ["pointset", "--dims", "4", "--points", "3", "--m", "4",
         "--eps", "0.25,0.5", "--trials", "20"],
        ["lower-bound", "--bits", "3", "--r", "1", "--d", "1,2",
         "--m", "4", "--trials", "20"],
    ):
        for flag, wall in (["--timing"], "500"), ([], "0"):
            code, out, _ = run_cli(args + flag, capsys)
            assert code == 0
            rows = out.splitlines()[1:]
            assert len(rows) >= 2
            assert [r.split(",")[-1] for r in rows] == [wall] * len(rows)


def test_shape_error_exits_one(capsys):
    code, _, err = run_cli(
        ["report", "--kind", "rip", "--dims", "16", "--m", "8", "--s", "17"],
        capsys,
    )
    assert code == 1
    assert err.splitlines() == ["config error: need 1 <= s <= 16, got 17"]


def test_timing_config_takes_only_a_boolean(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    args = ["jl-sweep", "--config", str(cfg), "--dims", "4x4", "--m", "4",
            "--trials", "3000"]
    cfg.write_text("timing: 'no'\n")
    code, _, err = run_cli(args, capsys)
    assert code == 1
    assert "timing" in err
    cfg.write_text("timing: false\n")
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert {row.split(",")[-1] for row in out.splitlines()[1:]} == {"0"}


def test_jl_sweep_bytes_do_not_depend_on_blas_threads():
    # the transform runs as BLAS matrix products, so its rounding must not
    # change with the thread count; a fresh process reads the variable
    src = str(Path(kronjl.__file__).resolve().parents[1])
    args = [
        sys.executable, "-m", "kronjl.cli", "jl-sweep", "--dims", "64x64x4",
        "--m", "8,32", "--eps", "0.5", "--trials", "256", "--seed", "3",
    ]
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        done = subprocess.run(
            args, env=env, capture_output=True, timeout=120, check=True
        )
        outs.append(done.stdout)
    assert outs[0].count(b"\n") == 7
    assert outs[0] == outs[1]


# sha256 of the stdout of each README command. Output is a pure function of
# the arguments and seed, so a changed digest is a changed result.
README_DIGESTS = {
    "jl-sweep --dims 16x16 --m 8,16,32 --eps 0.5 --trials 2000 --seed 1":
        "a598d0cf5e7a135ee1a41608dcbb3b4f779e21872e922dec933c33237e8c81e0",
    "pointset --dims 4x4 --points 8 --m 16 --eps 0.5 --trials 2000 --seed 1":
        "167f81ad20a88ddead063f0f84804976778429c4d7c8247b2257533c5474aec2",
    "lower-bound --bits 4 --r 2 --d 1,2 --m 4,8,16,32 --trials 10000 --seed 1":
        "608e325b5e9084217918a0421c4a11eeadfb8db6e4ad6c0c0a0b4fc5d2934b11",
    "report --kind rip --dims 16 --m 8 --s 2 --seed 3":
        "a3c88d15e33e149175f2b74e3ad6f304b741127f936e994270d7006f45d236ac",
    "selftest":
        "c27a4f41302efa094f85d3d184fd3b7342b354558f2280d752be56a0a707cb5b",
}


def test_readme_command_bytes(capsys):
    for command, digest in README_DIGESTS.items():
        code, out, _ = run_cli(command.split(), capsys)
        assert code == 0, command
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command


# sha256 of the stdout of two chaos reports, which run the Monte Carlo
# moment estimator and its bootstrap end to end.
CHAOS_REPORT_DIGESTS = {
    "report --kind chaos --dims 16 --m 8 --seed 3":
        "266ced0a4ff972331c0d74c60e1b68ff1398d75a40e7ddbf7bafc9a39549d892",
    "report --kind chaos --dims 4x4 --m 8 --seed 1":
        "413b81d6d353bca2c7ff1dc44ca35a71dac9598d92374c9120e40a575a439697",
}


def test_chaos_report_bytes(capsys):
    for command, digest in CHAOS_REPORT_DIGESTS.items():
        code, out, _ = run_cli(command.split(), capsys)
        assert code == 0, command
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command
