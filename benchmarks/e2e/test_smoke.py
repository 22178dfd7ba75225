"""Smoke test of the end-to-end benchmark: ``--quick`` runs of every
workload, untraced and traced, emit exactly the workload and metric
names ``BENCHMARK.json`` declares, with correct answers.

Not part of tier 1 (``testpaths`` stays ``tests``); run it with
``python -m pytest benchmarks/e2e -q`` (about a minute and a half).
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def _load(path):
    with open(path, encoding="utf-8") as stream:
        return json.load(stream)


MANIFEST = _load(os.path.join(ROOT, "BENCHMARK.json"))
BASELINE = _load(os.path.join(HERE, "baseline.json"))


def test_every_catalogued_metric_is_bounded_or_reported_per_layer():
    workloads = {w["name"] for w in MANIFEST["workloads"]}
    bounded = {m["name"]: m for m in MANIFEST["end_to_end"]}
    per_layer = {m["name"]: m for m in MANIFEST["per_layer"]}
    catalogue = {m["name"]: m for m in BASELINE["end_to_end"]}
    assert set(bounded) <= set(catalogue)
    for name, entry in catalogue.items():
        assert set(entry["workloads"]) <= workloads
        if name in bounded:
            # Bounded on every workload, as the contract's one list is.
            assert set(entry["workloads"]) == workloads
            assert entry["unit"] == bounded[name]["unit"]
        elif name != "failed_share":  # the last line's failed / attempted
            assert entry["unit"] == per_layer[name]["unit"]
    assert {"serve_mixed", "serve_replicated"} <= set(BASELINE["rates"])
    assert BASELINE["claim"] is None


@pytest.mark.parametrize("trace, section",
                         [(0, "end_to_end"), (1, "per_layer")])
def test_quick_suite_emits_the_declared_names(trace, section):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick",
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-2000:]
    results = json.loads(done.stdout.splitlines()[-1])

    assert set(results) == {w["name"] for w in MANIFEST["workloads"]}
    units = {m["name"]: m["unit"] for m in MANIFEST[section]}
    for workload, result in results.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, workload
        assert result["attempted"] >= 1
        emitted = {name: entry["unit"]
                   for name, entry in result["metrics"].items()}
        assert emitted == units, workload
        if trace == 0:
            assert all(entry["value"] > 0
                       for entry in result["metrics"].values()), workload
    if trace == 0:
        # The printed tables name every catalogued metric, bounded or not.
        for entry in BASELINE["end_to_end"]:
            assert f"\n  {entry['name']} " in done.stdout
