"""Guard on the committed ``BENCH_weighted.json`` baseline.

Counting is a scalar semiring on the array layout like Viterbi; its
Kleene loop by increments may cost a small multiple of the Viterbi
``delta`` closure timed in the same sweep, never the 30x it cost on
set-valued dict cells (ROADMAP [1 iii]).
"""

from __future__ import annotations

import json
from pathlib import Path

BASELINE = Path(__file__).resolve().parents[2] / "benchmarks" / \
    "BENCH_weighted.json"


def test_counting_closure_within_4x_of_viterbi_on_funding():
    with BASELINE.open(encoding="utf-8") as stream:
        closures = json.load(stream)["closures"]
    assert closures["counting"]["agree"] and closures["viterbi"]["agree"]
    assert closures["counting"]["entries"] == closures["viterbi"]["entries"]
    assert closures["counting"]["wall_time_s"] \
        <= 4 * closures["viterbi"]["wall_time_s"]
