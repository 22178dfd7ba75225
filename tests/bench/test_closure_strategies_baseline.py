"""Guard on the committed ``BENCH_closure_strategies.json`` baseline.

Every strategy must find the same R_S on every repeated-funding
workload, and the blocked engine — at the tile edge its budget rule
picks — must stay within 8x of the delta closure timed in the same
sweep (CI's bench-smoke job checks the fresh sweep the same way).
"""

from __future__ import annotations

import json
from pathlib import Path

BASELINE = Path(__file__).resolve().parents[2] / "benchmarks" / \
    "BENCH_closure_strategies.json"

#: Bound on blocked ÷ delta wall time per workload.
BLOCKED_OVER_DELTA = 8


def test_every_workload_agrees_and_blocked_stays_near_delta():
    with BASELINE.open(encoding="utf-8") as stream:
        workloads = json.load(stream)["workloads"]
    funding = {name: cell for name, cell in workloads.items()
               if name.startswith("funding_x")}
    assert funding
    for name, cell in funding.items():
        assert cell["agree"], name
        strategies = cell["strategies"]
        assert strategies["blocked"]["wall_time_s"] \
            <= BLOCKED_OVER_DELTA * strategies["delta"]["wall_time_s"], name
