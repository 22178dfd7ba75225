"""Offline workloads: the ``repro-cfpq`` CLI in a subprocess, file to
answer, timed from spawn to exit with the answer on stdout."""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time

from workloads import PathChecker, check_top_k

#: A CLI call that has not answered by then counts as failed.
CALL_TIMEOUT_S = 60.0


def run_cli(args: list, env: dict):
    """One ``python -m repro.cli`` child: (seconds, exit code, stdout)."""
    started = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, "-m", "repro.cli", *args],
                              env=env, capture_output=True,
                              timeout=CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - started, None, b""
    return time.perf_counter() - started, done.returncode, done.stdout


def children_peak_rss_mb() -> float:
    """Largest resident set of any child waited for so far, MiB.  A
    child is forked at its parent's size, so this cannot read lower than
    this process's own peak when it spawned the child; called right
    after the last child, it says so if the two come close."""
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if peak < 1.1 * own:
        print(f"  note: child peak {peak:.1f} MiB is within a tenth of the "
              f"benchmark process's own {own:.1f} MiB and may be its floor")
    return peak


def measure(cells: list, seconds: float, env: dict, min_passes: int):
    """Run whole passes — every cell once — until the next pass would
    overrun *seconds* (and *min_passes* are done).  Returns each pass's
    per-cell wall seconds, the distinct stdouts per cell and the number
    of calls that failed (a pass with a failed call is not timed)."""
    passes: list = []
    outputs = {cell.name: set() for cell in cells}
    failed = 0
    spent = 0.0
    while len(passes) < min_passes or spent + spent / len(passes) <= seconds:
        started = time.perf_counter()
        times = {}
        for cell in cells:
            elapsed, code, stdout = run_cli(cell.args, env)
            if code == 0:
                times[cell.name] = elapsed
                outputs[cell.name].add(stdout)
            else:
                failed += 1
        spent += time.perf_counter() - started
        if len(times) == len(cells):
            passes.append(times)
        elif failed > 2 * len(cells):
            raise RuntimeError("the CLI keeps failing")
    return passes, outputs, failed


def check_outputs(cells: list, outputs: dict) -> int:
    """Oracle checks on every distinct answer; the number that fail."""
    by_name = {cell.name: cell for cell in cells}
    wrong = 0
    lengths: dict = {}
    documents = {name: [json.loads(out) for out in outs]
                 for name, outs in outputs.items()}
    for document in documents.get("length", ()):
        lengths = {(s, t): value for s, t, value in document["pairs"]}
    checkers: dict = {}
    for name, docs in documents.items():
        cell = by_name[name]
        for document in docs:
            if cell.kind in ("pairs", "annotated"):
                got = {(row[0], row[1]) for row in document["pairs"]}
                want = {(str(a), str(b)) for a, b in cell.expected}
                good = got == want and document["count"] == len(want)
            else:
                if cell.graph_file not in checkers:
                    with open(cell.graph_file, encoding="utf-8") as stream:
                        checkers[cell.graph_file] = PathChecker(
                            (line.split() for line in stream),
                            cell.grammar_name)
                checker = checkers[cell.graph_file]
                source, target = cell.endpoints
                best = lengths.get((str(source), str(target)))
                if cell.kind == "path":
                    good = checker.valid(document, source, target, best)
                else:
                    good = bool(document) and check_top_k(
                        checker, document, source, target, best)
            wrong += not good
    return wrong
