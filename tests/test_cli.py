"""CLI tests driven through the real entry point so the exit-code
mapping is exercised: 0 success, 1 config, 2 budget, 3 selftest."""

import contextlib
import gc
import hashlib
import inspect
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
import weakref
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


_DISTINCT = "values must be distinct"


@pytest.mark.parametrize("args,field,message", [
    pytest.param(args, field, message, id=f"{args[0]}-{field}")
    for args, field, message in (
        (_SWEEP + ["--m", "4", "--family", "kron,kron"], "family", _DISTINCT),
        (_SWEEP + ["--m", "4", "--baseline", "kfjlt,kfjlt"], "baseline",
         _DISTINCT),
        (_SWEEP + ["--m", "4,4"], "m", _DISTINCT),
        (_SWEEP + ["--m", "4", "--eps", "0.5,0.50"], "eps", _DISTINCT),
        (_LOWER + ["--d", "1,1", "--m", "4"], "d", _DISTINCT),
        (_LOWER + ["--d", "1", "--m", "4,4"], "m", _DISTINCT),
        (["pointset", "--dims", "4", "--points", "2", "--trials", "10",
          "--m", "4,8,4"], "m", _DISTINCT),
        (["report", "--kind", "rip", "--dims", "8", "--s", "1",
          "--m", "4,4"], "m", _DISTINCT),
        # a single-valued option names the one value it expects
        (_SWEEP + ["--m", "4", "--seed", "1.5"], "seed", "expected an integer"),
        (_LOWER + ["--d", "1", "--m", "4", "--nu", "abc"], "nu",
         "expected a number"),
        (["jl-sweep", "--dims", "4", "--m", "4", "--trials", "5,6"], "trials",
         "expected one value, got 2"),
        # a repeated axis length is a shape, not a repeated cell
        (_SWEEP + ["--m", "4", "--dims", "4x4"], None, None),
    )
])
def test_repeated_list_value_exits_one(args, field, message, capsys):
    # a repeated cell would draw the same stream and write its row twice
    code, out, err = run_cli(args, capsys)
    if field is None:
        assert code == 0
        assert len(out.splitlines()) == 4
    else:
        assert code == 1
        assert out == ""
        assert err.splitlines() == [f"config error: {field}: {message}"]


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


def test_every_option_is_one_row_of_the_option_table():
    # a command parameter without a row, or a row no command reads, fails
    params = {"out"}
    for build in harness.COMMANDS.values():
        params |= set(inspect.signature(build).parameters)
    assert set(harness.OPTIONS) == params
    report = inspect.signature(harness.COMMANDS["report"]).parameters
    for build in harness._REPORTS.values():
        assert set(inspect.signature(build).parameters) <= set(report)


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
        "budget error: materialize: N x N Hadamard at N = 16384 needs "
        "2147483648 bytes, over the cap of 134217728"
    ]
    assert peak < 8 * 2**20


def test_rip_report_refuses_a_tall_operator(capsys):
    # m N = (2^20 + 1) * 16 float64 is over the table cap, though the
    # N x N Hadamard is small
    code, out, err = run_cli(["report", "--kind", "rip", "--dims", "16",
                              "--m", str(2**20 + 1), "--s", "1"], capsys)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "budget error: materialize: the (m, N) = (1048577, 16) result needs "
        "134217856 bytes, over the cap of 134217728"
    ]


def test_rip_report_refuses_a_large_support_table(capsys):
    # C(64, 5) = 7,624,512 supports are within the count budget, but their
    # table is over the table cap
    code, out, err = run_cli(["report", "--kind", "rip", "--dims", "64",
                              "--m", "4", "--s", "5"], capsys)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "budget error: the C(64,5) x 5 support table needs 304980480 bytes, "
        "over the cap of 134217728"
    ]


def test_one_oversized_trial_exits_two(capsys):
    # one Gaussian-baseline trial at N = 2^20, m = 1024 would be 8 GiB of
    # normals; the trial block is refused before the 8 MiB point is built
    args = ["jl-sweep", "--dims", "1024x1024", "--m", "1024", "--family",
            "kron", "--baseline", "gaussian", "--trials", "1"]
    tracemalloc.start()
    try:
        code, out, err = run_cli(args, capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert "needs 8589934592 bytes" in err
    assert peak < 32 * 2**20


def test_an_oversized_trial_draw_exits_two(capsys):
    # the signs and rows of 1025 trials at m = 2^17 - 8 over 4x4 are
    # 1 MiB over the item cap: refused, naming its bytes, before a draw
    args = ["jl-sweep", "--dims", "4x4", "--m", str((1 << 17) - 8),
            "--family", "kron", "--trials", "1025"]
    tracemalloc.start()
    try:
        code, out, err = run_cli(args, capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "budget error: a cell's draw of 1025 trials x (8 signs + 131064 rows) "
        "needs 1074790400 bytes, over the cap of 1073741824"
    ]
    assert peak < 2**20


def test_in_process_runs_keep_no_stream():
    # click's echo without a file caches the current sys.stdout or
    # sys.stderr in a WeakKeyDictionary whose value is the stream itself,
    # so a redirected stream and all its text would stay alive for good:
    # every run here, a success, a config, a usage and a budget error,
    # writes to fresh streams that must be freed when it is done
    runs = [
        ["jl-sweep", "--dims", "4x4", "--m", "4", "--trials", "2"],
        ["report", "--kind", "partition", "--d", "2"],
        ["jl-sweep", "--dims", "3x4", "--m", "4"],
        ["jl-sweep", "--no-such-flag"],
        ["report", "--kind", "rip", "--dims", "64", "--m", "4", "--s", "5"],
    ]
    refs = []
    for args in runs * 3:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with pytest.raises(SystemExit):
                main(args)
        assert out.getvalue() or err.getvalue(), args
        refs += [weakref.ref(out), weakref.ref(err)]
        del out, err
    gc.collect()
    assert [r for r in refs if r() is not None] == []


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


# sha256 of the stdout of RIP reports on 16 columns, one or two axes, at
# every sparsity the oracle benchmark checks; their Gram blocks tie often
RIP_REPORT_DIGESTS = {
    "report --kind rip --dims 16 --m 4 --s 1 --seed 0":
        "e60dd6bd97c88da6bbdc92d21a68778b6d94370c286746286d587a243729ea02",
    "report --kind rip --dims 16 --m 4 --s 1 --seed 5":
        "0bfbe0748c7521f023588729ab5f5c57715f1b1a35f6e7b1cdf6246703eb75bb",
    "report --kind rip --dims 16 --m 4 --s 2 --seed 0":
        "aee1ba533ec85eca6627532ed40b04ebc72c5667081dc391a51114c00ea5fdf2",
    "report --kind rip --dims 16 --m 4 --s 2 --seed 5":
        "bf1a840d6bdbe7d14f6cdb08bf8bee1687afb1fba093ae7e895a1d43e975174e",
    "report --kind rip --dims 16 --m 4 --s 3 --seed 0":
        "5cd49a89309818763cd2781e8fc2a267c09afe402757a95aee40a1dc66dba270",
    "report --kind rip --dims 16 --m 4 --s 3 --seed 5":
        "db6013dfb13f3f1147167da9dd33fc6fb4e8a9a12dcb9b3ba19eeaeea58b1941",
    "report --kind rip --dims 16 --m 4 --s 4 --seed 0":
        "687fd13a3de041aab7e3223d407f7303b5216e955371cf0df00012b1e4e25f78",
    "report --kind rip --dims 16 --m 4 --s 4 --seed 5":
        "6099c9426b8d5b856411f37be40bf6cff68c8e4a4415409e0cfb64189dae7b1e",
    "report --kind rip --dims 16 --m 4 --s 6 --seed 0":
        "4ec322ea4c4c8d58e0753949641e7f9bb6eb9e0912399175056e9de420c47a40",
    "report --kind rip --dims 16 --m 4 --s 6 --seed 5":
        "a34a9192d099a88ec29fe37adc8315a47e214485d746929780e5dd4354fb924b",
    "report --kind rip --dims 16 --m 8 --s 1 --seed 0":
        "92f9f71db1badaa78986ce2263cf568756e12295c8fdd72bcaf517564d67b58a",
    "report --kind rip --dims 16 --m 8 --s 1 --seed 5":
        "fc0c9346726754ce0a83b22df6e7b1769f3ffdf793b837914a600b80ba002365",
    "report --kind rip --dims 16 --m 8 --s 2 --seed 0":
        "40066ddf3981ce05de711992c329e47a731d64ec3328ec580f4f47e74da452fb",
    "report --kind rip --dims 16 --m 8 --s 2 --seed 5":
        "613503c1d2e0404b8d375cce831f40dfa50733a0fd610784a75dc5c91dd20827",
    "report --kind rip --dims 16 --m 8 --s 3 --seed 0":
        "d407b6f0b4ac9426153d1437abe4c6fad04b221702a7eefb941ca718645505ba",
    "report --kind rip --dims 16 --m 8 --s 3 --seed 5":
        "8b532ce482746eb77a3a7243f9701fce454a8e17474c5153892208d30de7a5d7",
    "report --kind rip --dims 16 --m 8 --s 4 --seed 0":
        "77b461fe508dc7b36612a18173c104af3156f7d51c49dacf7f47b10bbec6dd4f",
    "report --kind rip --dims 16 --m 8 --s 4 --seed 5":
        "889596b618cb4b2ced724668a24aa0098080713877cade2bef41fa1f66266dff",
    "report --kind rip --dims 16 --m 8 --s 6 --seed 0":
        "77b80d06c22a2d8a97969f9f9ac27e675fc8d8957a09196bdb3d6fa27d100388",
    "report --kind rip --dims 16 --m 8 --s 6 --seed 5":
        "248f5126aa5e72c41aff0c3428ec7fd97d8c03bb767dfba923e53bcbb1f5d0df",
    "report --kind rip --dims 16 --m 12 --s 1 --seed 0":
        "596179ec5ffe9669e8fdf6fa49b1d390c9db9c004a6a93622a4ff9ea936c2095",
    "report --kind rip --dims 16 --m 12 --s 1 --seed 5":
        "bfccefeb78417d6c52f8ac1c081297afcf3e80b25cdbf50ae1610f854208346a",
    "report --kind rip --dims 16 --m 12 --s 2 --seed 0":
        "43afd998d540ef63f8280c7660d6d40ce04dcf85e00c51f55666d051b7871fcb",
    "report --kind rip --dims 16 --m 12 --s 2 --seed 5":
        "1a84a06845dd84475da2d49ef605e61861cff7c019d2da466fe86e21f79361eb",
    "report --kind rip --dims 16 --m 12 --s 3 --seed 0":
        "ed96f0c67e4f9cdbf3ddcccb4c3a2f85e32549305983afca0f25cddd4dea61b3",
    "report --kind rip --dims 16 --m 12 --s 3 --seed 5":
        "87d02093078e12be573a7d0dd50f2d4953a4ac4b400430f1230d3fdd2afd9a7a",
    "report --kind rip --dims 16 --m 12 --s 4 --seed 0":
        "e780917e4aed285130a6c338bd1ec7ab8d80b2ff682a9801e41468b57501d846",
    "report --kind rip --dims 16 --m 12 --s 4 --seed 5":
        "289271573bd5a3303e9a972ef74fc1baa800396a3a2ede4c59c8c983d8fc6cf6",
    "report --kind rip --dims 16 --m 12 --s 6 --seed 0":
        "4ac2a76368ec41679de49d3dcf07e189e283edb0b922555f8f439a055cda88b1",
    "report --kind rip --dims 16 --m 12 --s 6 --seed 5":
        "adc17fa5a6aa63e990ca27956f87e14762b800b5c9da6c72676e96faaf1d62d3",
    "report --kind rip --dims 4x4 --m 4 --s 1 --seed 0":
        "72b52f1016bccc2f9feeadeaa6fd9f202e90d03d56033e88da0ddde7646c79af",
    "report --kind rip --dims 4x4 --m 4 --s 1 --seed 5":
        "1811e14bfaf30decce05ce77aa52da6c40a9814dd8f1d0af83b1905972c733b7",
    "report --kind rip --dims 4x4 --m 4 --s 2 --seed 0":
        "cd4d3b359cf16c15fb6674c8e148144fc93733f76f80888a589ba3cfb075daf5",
    "report --kind rip --dims 4x4 --m 4 --s 2 --seed 5":
        "f9d00fbe6062f43a2b91e2e103d24b59107b9954a832eee22bf311536b6c12d6",
    "report --kind rip --dims 4x4 --m 4 --s 3 --seed 0":
        "843424a34e89ac76718c67669ebd32c94eb63dae6ac493c0d98183586186dfae",
    "report --kind rip --dims 4x4 --m 4 --s 3 --seed 5":
        "80a96373c36cc445c96a8a4f8772681fc4e942d29f0e1338735284ebd893ba02",
    "report --kind rip --dims 4x4 --m 4 --s 4 --seed 0":
        "f47717e1abf88d90f2f9270d99ee70bf5a31622af110a0bd6144bd1a7bafbc88",
    "report --kind rip --dims 4x4 --m 4 --s 4 --seed 5":
        "55686fdf7a5e0feddf03447e7e78490a935eaa5fc350b6073cf2ed5ecce4771b",
    "report --kind rip --dims 4x4 --m 4 --s 6 --seed 0":
        "00fdd887883b5b2ce843281773e177784196558d5ff50c3d60f1fb1ae83462e8",
    "report --kind rip --dims 4x4 --m 4 --s 6 --seed 5":
        "d1091c9ff457d87329c215852f8e7144240b2e51a046bcd53cbded7ef5b5dd92",
    "report --kind rip --dims 4x4 --m 8 --s 1 --seed 0":
        "d62774e63a616681d813497834c045ec4c35ff72a2c1d2d5ed300c2443e28348",
    "report --kind rip --dims 4x4 --m 8 --s 1 --seed 5":
        "a4f92b26a02a88a4f239df647dabc131e458c2cf4d4d890c8f138d61cde13551",
    "report --kind rip --dims 4x4 --m 8 --s 2 --seed 0":
        "80b271eb36940abf8536cf0c8c8c39ed66b22567e71da594135fcc864848b4dd",
    "report --kind rip --dims 4x4 --m 8 --s 2 --seed 5":
        "4575fad03ec484616b740cd985dad1b2699180be08ab82645adf09c10d9b27bc",
    "report --kind rip --dims 4x4 --m 8 --s 3 --seed 0":
        "84d2ec9e4220564176860763e1a7b12334f18004222865ede8d06d56eb1b4351",
    "report --kind rip --dims 4x4 --m 8 --s 3 --seed 5":
        "a7948c37bb51381d3ad3ee5c36213feec08ff021b90a0851fa29678bfcd544fa",
    "report --kind rip --dims 4x4 --m 8 --s 4 --seed 0":
        "f99b83ff941bcfbc31f33f81d797aaecda45a0615d0637282887bb002347b70d",
    "report --kind rip --dims 4x4 --m 8 --s 4 --seed 5":
        "b109bb8d7b9dfb643c4ecc63d6b029258897ffd7a84964694dcf9ee2e4a632b4",
    "report --kind rip --dims 4x4 --m 8 --s 6 --seed 0":
        "1f733a63f3b5e70ecc58ac7c8a1a862470264bbf8415726362aef91cd0051ca1",
    "report --kind rip --dims 4x4 --m 8 --s 6 --seed 5":
        "47c1f120054547fbffa5fe87c376f11297c86564e62a95caab24f0cbba9bdb7e",
    "report --kind rip --dims 4x4 --m 12 --s 1 --seed 0":
        "cfb0afeb8ffdfe29a803412adeaf000593ca8f58381201b0dcae785fe5c521b7",
    "report --kind rip --dims 4x4 --m 12 --s 1 --seed 5":
        "7bf53c060277aa398221b1d8dd4b2c58d7393fba2cb079ae99b610664ab4bab8",
    "report --kind rip --dims 4x4 --m 12 --s 2 --seed 0":
        "7561da7b3e78e3d0793d457dd4ac04d51273352c14ce4ae68ea711548f72b123",
    "report --kind rip --dims 4x4 --m 12 --s 2 --seed 5":
        "06785013ca2c1bf910db68f83dd874339e9898daf1b2f178f824a49e2ca09518",
    "report --kind rip --dims 4x4 --m 12 --s 3 --seed 0":
        "04de8ecd6a1e3361fd4f40359edbc9cd0eda0daeb84abd1c819979decd5d3d7b",
    "report --kind rip --dims 4x4 --m 12 --s 3 --seed 5":
        "a305e6c4bf6fa8fa1d1d44aea4e084dd5d9591f1e1345946d628dd4631443fb9",
    "report --kind rip --dims 4x4 --m 12 --s 4 --seed 0":
        "215bed8529d7f770046a22e92faf797aece736dbf30de24c1dcd22f9dfce321f",
    "report --kind rip --dims 4x4 --m 12 --s 4 --seed 5":
        "82300c13319ef0f481c772083a01732abbe1404deddba1e449686032c25014eb",
    "report --kind rip --dims 4x4 --m 12 --s 6 --seed 0":
        "d58c083b1c6787a013f0d266a90acee158839f25fdf99fc91c0f18ccc8c93e18",
    "report --kind rip --dims 4x4 --m 12 --s 6 --seed 5":
        "b9c524a0da003e3e7741c312125c6e6d424ae5c288526bfeb86d49846315b0e3",
}


def test_rip_report_bytes(capsys):
    for command, digest in RIP_REPORT_DIGESTS.items():
        code, out, _ = run_cli(command.split(), capsys)
        assert code == 0, command
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command
