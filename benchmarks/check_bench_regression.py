"""Benchmark regression gate: fresh JSON numbers vs committed baselines.

Usage (what CI's bench-smoke job runs)::

    PYTHONPATH=src python benchmarks/bench_single_path.py \
        --datasets skos travel --output /tmp/semantics.json
    PYTHONPATH=src python benchmarks/check_bench_regression.py \
        --baseline benchmarks/BENCH_semantics.json \
        --current /tmp/semantics.json --factor 2.0

The checker walks both JSON documents in lockstep and compares every
leaf whose key ends in ``wall_time_s``:

* current > baseline × factor × calibration  →  regression, exit 1,
  reporting suite, case, baseline seconds, current seconds and the
  slowdown ratio so the failing metric is identifiable from the log;
* the cell is missing from the current run  →  coverage loss, exit 1;
* baseline below ``--min-seconds`` (default 0.02) → skipped, such cells
  are timer noise on CI runners;
* ``agree`` flags that are false in the current run → correctness
  failure, exit 1 (strategies must stay byte-identical);
* ``within_*`` boolean leaves that are false in the current run →
  budget failure, exit 1 (the producing benchmark self-asserts a
  budget — e.g. bench_obs.py's ``within_overhead`` tracing gate);
* cells naming a backend whose optional dependency is not importable
  on this host (``sparse`` needs SciPy; ``dense``/``bitset`` need
  NumPy) are skipped with a notice instead of reported as coverage
  loss — a dependency-free runner checks what it can run.

``calibration`` absorbs machine-speed differences between the baseline
host and the CI runner: it is the *median* current/baseline ratio over
all compared cells, clamped to ≥ 1.  A uniformly slower runner raises
every ratio equally and the median absorbs it; a genuine strategy
regression is an outlier against the median and still trips the
factor.  ``--no-calibrate`` restores raw absolute comparison.

Regenerate a baseline by re-running the producing benchmark with
``--output benchmarks/BENCH_<name>.json`` on a quiet machine.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys

#: Backend name → the module its kernels import.  A baseline cell whose
#: path names one of these backends is only comparable when the module
#: is importable on the checking host.
OPTIONAL_BACKEND_MODULES = {
    "sparse": "scipy",
    "dense": "numpy",
    "bitset": "numpy",
}


def unavailable_backends() -> set[str]:
    """The backends whose optional dependency this host cannot import."""
    return {
        backend
        for backend, module in OPTIONAL_BACKEND_MODULES.items()
        if not _findable(module)
    }


def _findable(module: str) -> bool:
    """Found, not imported; a finder that refuses the name counts as
    missing, as in :func:`repro.matrices.base.backend_installed`."""
    try:
        return importlib.util.find_spec(module) is not None
    except (ImportError, ValueError):
        return False


def _names_unavailable_backend(path: tuple, missing: set[str]) -> bool:
    """True when any path component is (or is suffixed by) a backend
    whose dependency is missing — ``solvers.sparse`` and
    ``funding_x16_bitset`` alike."""
    if not missing:
        return False
    for component in path:
        for backend in missing:
            if component == backend or component.endswith(f"_{backend}"):
                return True
    return False


def iter_cells(document, path=()):
    """Yield (path, value) for every leaf of the nested JSON document."""
    if isinstance(document, dict):
        for key, value in document.items():
            yield from iter_cells(value, path + (str(key),))
    elif isinstance(document, list):
        for index, value in enumerate(document):
            yield from iter_cells(value, path + (str(index),))
    else:
        yield path, document


def lookup(document, path):
    node = document
    for key in path:
        if isinstance(node, dict):
            if key not in node:
                return None
            node = node[key]
        elif isinstance(node, list):
            index = int(key)
            if index >= len(node):
                return None
            node = node[index]
        else:
            return None
    return node


def compare(baseline: dict, current: dict, factor: float,
            min_seconds: float, calibrate: bool = True,
            missing_backends: set[str] | None = None,
            skipped: list[str] | None = None) -> list[str]:
    problems: list[str] = []
    timed: list[tuple[str, float, float]] = []
    missing = (unavailable_backends() if missing_backends is None
               else missing_backends)
    for path, value in iter_cells(baseline):
        dotted = ".".join(path)
        if _names_unavailable_backend(path, missing):
            if skipped is not None and (
                    path[-1] == "agree" or path[-1].endswith("wall_time_s")):
                skipped.append(dotted)
            continue
        if path and path[-1] == "agree":
            now = lookup(current, path)
            if now is False:
                problems.append(f"{dotted}: strategies disagree in the "
                                f"current run")
            continue
        if path and path[-1].startswith("within_"):
            # Self-asserted budget leaves (e.g. bench_obs.py's
            # within_overhead): the producing benchmark computed the
            # pass/fail verdict; a false in the current run is a gate
            # failure regardless of the baseline's numbers.
            now = lookup(current, path)
            if now is False:
                problems.append(f"{dotted}: budget exceeded in the "
                                f"current run")
            continue
        if not path or not path[-1].endswith("wall_time_s"):
            continue
        if not isinstance(value, (int, float)) or value < min_seconds:
            continue
        now = lookup(current, path)
        if now is None:
            problems.append(f"{dotted}: cell missing from the current run")
            continue
        timed.append((dotted, float(value), float(now)))

    calibration = 1.0
    if calibrate and timed:
        ratios = sorted(now / value for _dotted, value, now in timed)
        median = ratios[len(ratios) // 2]
        calibration = max(1.0, median)

    for dotted, value, now in timed:
        if now > value * factor * calibration:
            problems.append(
                f"case {dotted}: baseline {value:.4f}s, current "
                f"{now:.4f}s, ratio {now / value:.2f}x (limit "
                f"{factor:.1f}x after {calibration:.2f}x machine "
                f"calibration)"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="fail when benchmark wall times regress vs a baseline"
    )
    parser.add_argument("--baseline", required=True, action="append",
                        help="committed BENCH_*.json (repeatable)")
    parser.add_argument("--current", required=True, action="append",
                        help="freshly produced JSON, paired positionally "
                             "with --baseline")
    parser.add_argument("--factor", type=float, default=2.0,
                        help="allowed slowdown factor (default 2.0)")
    parser.add_argument("--min-seconds", type=float, default=0.02,
                        help="ignore cells whose baseline is below this "
                             "(timer noise)")
    parser.add_argument("--no-calibrate", action="store_true",
                        help="compare raw wall times instead of "
                             "median-ratio machine calibration")
    args = parser.parse_args(argv)
    if len(args.baseline) != len(args.current):
        parser.error("--baseline and --current must be paired")

    missing = unavailable_backends()
    failures: list[str] = []
    for baseline_path, current_path in zip(args.baseline, args.current):
        with open(baseline_path, "r", encoding="utf-8") as stream:
            baseline = json.load(stream)
        with open(current_path, "r", encoding="utf-8") as stream:
            current = json.load(stream)
        skipped: list[str] = []
        for problem in compare(baseline, current, args.factor,
                               args.min_seconds,
                               calibrate=not args.no_calibrate,
                               missing_backends=missing, skipped=skipped):
            failures.append(f"suite {baseline_path}: {problem}")
        if skipped:
            print(f"{baseline_path}: skipped {len(skipped)} cell(s) "
                  f"needing unavailable backends "
                  f"({', '.join(sorted(missing))})")

    if failures:
        print("benchmark regression gate FAILED:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("benchmark regression gate OK "
          f"(factor {args.factor:.1f}x, floor {args.min_seconds}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
