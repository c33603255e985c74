"""The benchmark's in-process tests, run with the package's own: the
tracer's patch and restore of every traced binding, the counting of
wrong, raising and changed-output calls, and the per-family sweeps
against one combined sweep. A change to a traced layer that breaks a
benchmark pin fails here. The subprocess smoke runs stay in
perfbench/test_perfbench.py alone."""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_tests():
    spec = importlib.util.spec_from_file_location(
        "perfbench_test_perfbench", PERFBENCH / "test_perfbench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TESTS = _perfbench_tests()

test_wrong_apply_factored_is_counted = _TESTS.test_wrong_apply_factored_is_counted
test_raising_call_is_counted = _TESTS.test_raising_call_is_counted
test_changed_output_bytes_are_counted = _TESTS.test_changed_output_bytes_are_counted
test_per_family_sweeps_equal_one_combined_sweep = (
    _TESTS.test_per_family_sweeps_equal_one_combined_sweep)
test_tracer_patches_every_binding_and_restores_it = (
    _TESTS.test_tracer_patches_every_binding_and_restores_it)
