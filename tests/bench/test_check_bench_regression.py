"""Unit tests for the benchmark regression gate
(:mod:`benchmarks.check_bench_regression`).

The checker is a standalone CI script under ``benchmarks/``; the tests
load it by path so the suite stays independent of the benchmarks
becoming a package.
"""

import importlib.util
import os

from repro.matrices.base import backend_installed

_MODULE_PATH = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                            "benchmarks", "check_bench_regression.py")
_spec = importlib.util.spec_from_file_location("check_bench_regression",
                                               _MODULE_PATH)
checker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checker)


def _doc(seconds, agree=True, solver="sparse", case="funding_x1"):
    return {"workloads": {case: {
        "agree": agree,
        "solvers": {solver: {"results": 3, "wall_time_s": seconds}},
    }}}


def test_clean_run_no_problems():
    problems = checker.compare(_doc(1.0), _doc(1.1), factor=2.0,
                               min_seconds=0.02, missing_backends=set())
    assert problems == []


def test_regression_message_names_case_and_numbers():
    """The failure line carries case path, baseline, current and ratio —
    enough to identify the regressed metric from the CI log alone."""
    problems = checker.compare(_doc(1.0), _doc(5.0), factor=2.0,
                               min_seconds=0.02, calibrate=False,
                               missing_backends=set())
    assert len(problems) == 1
    message = problems[0]
    assert "case workloads.funding_x1.solvers.sparse.wall_time_s" in message
    assert "baseline 1.0000s" in message
    assert "current 5.0000s" in message
    assert "ratio 5.00x" in message


def test_agree_false_is_a_failure():
    problems = checker.compare(_doc(1.0), _doc(1.0, agree=False),
                               factor=2.0, min_seconds=0.02,
                               missing_backends=set())
    assert any("disagree" in p for p in problems)


def test_missing_cell_is_coverage_loss():
    current = {"workloads": {}}
    problems = checker.compare(_doc(1.0), current, factor=2.0,
                               min_seconds=0.02, missing_backends=set())
    assert any("missing from the current run" in p for p in problems)


def test_below_floor_skipped():
    problems = checker.compare(_doc(0.001), _doc(1.0), factor=2.0,
                               min_seconds=0.02, missing_backends=set())
    assert problems == []


def test_unavailable_backend_solver_cell_skipped():
    """A suite keyed on a backend whose dependency is missing is skipped
    entirely — no regression, no coverage-loss failure."""
    baseline = _doc(1.0, solver="sparse")
    current = {"workloads": {}}  # the host could not run sparse at all
    skipped = []
    problems = checker.compare(baseline, current, factor=2.0,
                               min_seconds=0.02,
                               missing_backends={"sparse"}, skipped=skipped)
    assert problems == []
    assert skipped == ["workloads.funding_x1.solvers.sparse.wall_time_s"]


def test_unavailable_backend_workload_suffix_skipped():
    """Spill-suite workloads name the backend as a ``_backend`` suffix
    (``funding_x16_bitset``); those skip on a NumPy-free host too —
    including their agree flag, which the host cannot have computed."""
    baseline = _doc(10.0, solver="blocked_budgeted",
                    case="funding_x16_bitset", agree=True)
    current = {"workloads": {}}
    skipped = []
    problems = checker.compare(baseline, current, factor=2.0,
                               min_seconds=0.02,
                               missing_backends={"bitset"}, skipped=skipped)
    assert problems == []
    assert len(skipped) == 2  # the agree flag and the timing cell


def test_available_backends_still_checked_when_others_missing():
    baseline = {"workloads": {
        "funding_x1": {"agree": True, "solvers": {
            "sparse": {"wall_time_s": 1.0},
            "setmatrix": {"wall_time_s": 1.0},
        }},
    }}
    current = {"workloads": {
        "funding_x1": {"agree": True, "solvers": {
            "setmatrix": {"wall_time_s": 9.0},
        }},
    }}
    problems = checker.compare(baseline, current, factor=2.0,
                               min_seconds=0.02, calibrate=False,
                               missing_backends={"sparse"})
    assert len(problems) == 1
    assert "setmatrix" in problems[0]


def test_unavailable_backends_reflects_host():
    """On this test host NumPy/SciPy availability decides the set; the
    function must agree with the library's rule rather than hardcode."""
    missing = checker.unavailable_backends()
    for backend in checker.OPTIONAL_BACKEND_MODULES:
        assert (backend in missing) == (not backend_installed(backend))


def test_calibration_absorbs_uniform_slowdown():
    baseline = {"workloads": {"w": {"solvers": {
        "a": {"wall_time_s": 1.0},
        "b": {"wall_time_s": 1.0},
        "c": {"wall_time_s": 1.0},
    }}}}
    current = {"workloads": {"w": {"solvers": {
        "a": {"wall_time_s": 3.0},
        "b": {"wall_time_s": 3.0},
        "c": {"wall_time_s": 3.0},
    }}}}
    assert checker.compare(baseline, current, factor=2.0,
                           min_seconds=0.02,
                           missing_backends=set()) == []
