"""Guards on the committed ``BENCH_serving.json`` baseline.

Every workload must have answered every request, replicated ones with
byte-identical leader and follower snapshots, and a follower must apply
a tick within 10 ms of the leader's reply (``replica_lag_p95_ms``): the
leader pushes a ``sync`` after each tick instead of the follower polling
the WAL.  CI's bench-smoke job asserts the same bound on a fresh run.
"""

from __future__ import annotations

import json
from pathlib import Path

BASELINE = Path(__file__).resolve().parents[2] / "benchmarks" / \
    "BENCH_serving.json"

REPLICATED = ("leader_1r_32c", "leader_2r_32c")


def _workloads() -> dict:
    with BASELINE.open(encoding="utf-8") as stream:
        return json.load(stream)["workloads"]


def test_every_workload_agrees():
    for name, cell in _workloads().items():
        assert cell["agree"] is True, name
        assert cell["completed"] == cell["requests"], name


def test_replica_lag_within_10ms():
    workloads = _workloads()
    for name in REPLICATED:
        assert workloads[name]["replica_lag_p95_ms"] <= 10.0, name
