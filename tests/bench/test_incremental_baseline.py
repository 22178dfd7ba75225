"""Guards on the committed ``BENCH_incremental.json`` baseline.

The baseline is the acceptance record for the batch-insertion engine:
``add_edges`` on a 1000-edge batch must beat the per-tuple ``add_edge``
loop by at least 2× (pinned numbers), and the sweep cells CI's
bench-smoke gate compares against must stay present and consistent.
"""

from __future__ import annotations

import json
from pathlib import Path

BASELINE = Path(__file__).resolve().parents[2] / "benchmarks" / \
    "BENCH_incremental.json"


def _load() -> dict:
    with BASELINE.open(encoding="utf-8") as stream:
        return json.load(stream)


def test_baseline_committed_and_well_formed():
    report = _load()
    assert report["benchmark"] == "incremental batch vs per-tuple insertion"
    for size in ("10", "100", "1000"):
        cell = report["batch_sizes"][size]
        assert cell["agree"] is True, size
        assert cell["edges"] == int(size)
        assert cell["facts"] > 0
        assert cell["batch_wall_time_s"] > 0
        assert cell["per_tuple_wall_time_s"] > 0
        assert cell["delete_wall_time_s"] > 0


def test_batch_speedup_at_least_2x():
    """Acceptance criterion: the matrix-granular batch path ≥2× over
    the per-tuple worklist on a 1000-edge batch (pinned numbers)."""
    cell = _load()["batch_sizes"]["1000"]
    assert cell["speedup"] >= 2.0
    assert cell["per_tuple_wall_time_s"] >= 2.0 * cell["batch_wall_time_s"]


def test_small_batch_and_delete_ratios():
    """ROADMAP [3b], as pinned (CI's bench-smoke asserts the same on its
    fresh run): a 10-edge batch is no slower than the per-tuple loop —
    both run the worklist — and the DRed delete of a tenth of the
    1000-edge load stays within 10× of loading it."""
    cells = _load()["batch_sizes"]
    assert cells["10"]["speedup"] >= 0.8
    assert cells["1000"]["delete_wall_time_s"] \
        <= 10 * cells["1000"]["batch_wall_time_s"]


def test_batch_speedup_live():
    """Live guard: re-measure the 1000-edge cell so a regression of the
    batch path cannot hide behind the pinned JSON.  Best-of-repeats
    with a relaxed 1.4× bar keeps this robust on noisy CI runners — the
    real margin is ~2.3×."""
    import sys

    sys.path.insert(0, str(BASELINE.parent))
    try:
        from bench_incremental import run_incremental_suite
    finally:
        sys.path.pop(0)
    report = run_incremental_suite(batch_sizes=(1000,), repeats=3)
    cell = report["batch_sizes"]["1000"]
    assert cell["agree"] is True
    assert cell["speedup"] >= 1.4, cell
