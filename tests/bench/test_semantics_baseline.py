"""Guards on the committed ``BENCH_semantics.json`` baseline.

The baseline is the acceptance record for the array-native length
closure (ROADMAP [2]): on funding, the single-path ``delta`` build must
cost at most twice the relational ``delta`` closure timed in the same
sweep, and every strategy must still agree on the annotations.  The
same holds for the all-path forest since it became a view of the
closed relations (ROADMAP [1]).
"""

from __future__ import annotations

import json
from pathlib import Path

BASELINE = Path(__file__).resolve().parents[2] / "benchmarks" / \
    "BENCH_semantics.json"


def _load() -> dict:
    with BASELINE.open(encoding="utf-8") as stream:
        return json.load(stream)


def test_baseline_committed_and_well_formed():
    report = _load()
    assert report["benchmark"] == "query semantics x closure strategies"
    for dataset, workload in report["workloads"].items():
        assert workload["agree"] is True, dataset
        for section in ("relational", "single_path", "bench_allpath"):
            for strategy in ("naive", "delta", "blocked"):
                assert workload[section][strategy]["wall_time_s"] > 0


def test_single_path_within_2x_of_relational_on_funding():
    funding = _load()["workloads"]["funding"]
    single = funding["single_path"]["delta"]
    relational = funding["relational"]["delta"]
    assert single["wall_time_s"] <= 2 * relational["wall_time_s"]


def test_all_path_within_2x_of_relational_on_funding():
    funding = _load()["workloads"]["funding"]
    all_path = funding["bench_allpath"]["delta"]
    relational = funding["relational"]["delta"]
    assert all_path["wall_time_s"] <= 2 * relational["wall_time_s"]
