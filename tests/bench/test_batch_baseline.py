"""Guards on the committed ``BENCH_batch.json`` baseline.

The baseline is the acceptance record for the batched multi-query
closure (one closure plus reads per batch): every cell's batched answers must agree with the all-pairs
oracle, and the headline cell — batch 32 membership on funding × 8,
bitset — must keep its ≥3× queries/s advantage over per-query
closures.
"""

from __future__ import annotations

import json
from pathlib import Path

BASELINE = Path(__file__).resolve().parents[2] / "benchmarks" / \
    "BENCH_batch.json"

HEADLINE = "funding_x8_b32_delta_bitset"


def _load() -> dict:
    with BASELINE.open(encoding="utf-8") as stream:
        return json.load(stream)


def test_baseline_committed_and_well_formed():
    report = _load()
    assert "batched multi-query closure" in report["benchmark"]
    assert report["workloads"], "no cells committed"
    for name, cell in report["workloads"].items():
        assert cell["agree"] is True, name
        for solver in ("batched", "per_query"):
            timing = cell["solvers"][solver]
            assert timing["wall_time_s"] > 0, (name, solver)
            assert timing["queries_per_s"] > 0, (name, solver)
        assert cell["speedup"] > 0, name


def test_headline_cell_speedup_at_least_3x():
    """Acceptance criterion: ≥3× queries/s at batch 32 on funding × 8
    (bitset, delta) with identical answers (pinned numbers)."""
    cell = _load()["workloads"][HEADLINE]
    assert cell["batch_size"] == 32
    assert cell["agree"] is True
    assert cell["speedup"] >= 3.0
    batched = cell["solvers"]["batched"]["queries_per_s"]
    per_query = cell["solvers"]["per_query"]["queries_per_s"]
    assert batched >= 3.0 * per_query


def test_small_cell_speedup_live():
    """Live guard: re-measure the cheapest sweep cell so a regression
    of the one-closure batch path cannot hide behind the pinned JSON.  The
    pinned margin is ~6.7×; the relaxed 2× bar keeps this robust on
    noisy runners."""
    import sys

    import pytest

    pytest.importorskip("numpy")
    sys.path.insert(0, str(BASELINE.parent))
    try:
        from bench_batch import bench_cell
    finally:
        sys.path.pop(0)
    cell = bench_cell(copies=2, batch_size=8, strategy="delta",
                      backend="bitset", sample=2)
    assert cell["agree"] is True, cell
    assert cell["speedup"] >= 2.0, cell
