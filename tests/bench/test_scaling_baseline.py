"""Guard on the committed ``BENCH_scaling.json`` baseline.

The Hellings worklist joins a whole pending row per pop, so on every
repeated-funding workload it must finish no later than the GLL baseline
timed in the same sweep, and every solver must find the same |R_S|.
"""

from __future__ import annotations

import json
from pathlib import Path

BASELINE = Path(__file__).resolve().parents[2] / "benchmarks" / \
    "BENCH_scaling.json"


def test_every_workload_agrees_and_hellings_keeps_up_with_gll():
    with BASELINE.open(encoding="utf-8") as stream:
        workloads = json.load(stream)["workloads"]
    funding = {name: cell for name, cell in workloads.items()
               if name.startswith("funding_x")}
    assert funding
    for name, cell in funding.items():
        assert cell["agree"], name
        solvers = cell["solvers"]
        assert solvers["hellings"]["wall_time_s"] \
            <= solvers["gll"]["wall_time_s"], name
