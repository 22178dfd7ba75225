"""End-to-end, layer-attributed benchmark: graph file to answered request.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

One run measures one workload.  ``--trace 0`` drives the public
surfaces in subprocesses (the ``repro-cfpq`` CLI, the JSONL TCP server)
and prints the end-to-end metrics; ``--trace 1`` replays the same
generated inputs in-process with a span around each call into a layer
and prints the per-layer metrics.  The last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Without
``--workload`` every workload runs in turn (each in its own child) and
the last line maps workload names to those objects.  See README.md.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Set-up is repeated, so one slow file write does not read as a
#: regression.
SETUP_REPEATS = 5
QUICK_SECONDS = 3

def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as stream:
        return json.load(stream)


def child_env(workdir: str) -> dict:
    """Children import ``repro`` from this checkout and keep their
    temporary files inside it."""
    env = dict(os.environ, TMPDIR=workdir)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def timed_setup(build, once: bool):
    """Run *build* ``SETUP_REPEATS`` times (one time when *once*); the
    last result and the median seconds."""
    seconds = []
    for _ in range(1 if once else SETUP_REPEATS):
        started = time.perf_counter()
        result = build()
        seconds.append(time.perf_counter() - started)
    print("  set-up (s) " + " ".join(f"{value:.4f}" for value in seconds))
    return result, statistics.median(seconds)


def run_offline(name: str, workdir: str, seed: int, seconds: float,
                quick: bool, baseline: dict) -> dict:
    import offline
    import workloads

    size = workloads.QUICK_SIZE if quick else workloads.FULL_SIZE
    build = getattr(workloads, name)
    cells, setup_s = timed_setup(lambda: build(workdir, seed, size), quick)
    passes, outputs, failed = offline.measure(
        cells, seconds, child_env(workdir), 1 if quick else 2)
    peak_rss_mb = offline.children_peak_rss_mb()
    wrong = offline.check_outputs(cells, outputs)
    for cell in cells:
        print(f"  cell {cell.name:16s} (s) "
              + " ".join(f"{times[cell.name]:.4f}" for times in passes))
    return {
        "metrics": {
            "setup_s": setup_s,
            "answer_s": statistics.median(
                sum(times.values()) for times in passes),
            "peak_rss_mb": peak_rss_mb,
        },
        "attempted": len(passes) * len(cells) + failed,
        "failed": failed + wrong,
    }


def run_serving(name: str, workdir: str, seed: int, seconds: float,
                quick: bool, baseline: dict, probe=None) -> dict:
    import serving
    import workloads

    mixed = name == "serve_mixed"
    inputs, setup_s = timed_setup(lambda: workloads.serve_inputs(
        workdir, seed, int(seconds * serving.REQUESTS_PER_SECOND),
        serving.TICKS_PER_RUN,
        workloads.READ_MIX if mixed else workloads.REPLICATED_MIX), quick)
    env = child_env(workdir)
    starts = 1 if quick else serving.START_REPEATS
    rates = baseline["rates"][name]
    if mixed:
        run = asyncio.run(serving.serve_mixed(
            inputs, env, workdir, seconds, seed, starts, rates, probe))
    else:
        snapshot, snapshot_s = timed_setup(
            lambda: serving.make_snapshot(inputs, env, workdir), True)
        setup_s += snapshot_s
        run = asyncio.run(serving.serve_replicated(
            inputs, env, workdir, seconds, seed, starts, rates, snapshot,
            probe))
    run.metrics["setup_s"] = setup_s + run.metrics.pop("warm_up_s")
    return {"metrics": run.metrics, "attempted": run.attempted,
            "failed": run.failed}


RUNNERS = {
    "offline_relational": run_offline,
    "offline_budgeted": run_offline,
    "offline_paths": run_offline,
    "serve_mixed": run_serving,
    "serve_replicated": run_serving,
}


def end_to_end(workload: str, result: dict, baseline: dict,
               bounded: set) -> dict:
    """Every end-to-end metric the workload has, by name: printed with
    its unit and returned."""
    metrics = result["metrics"]
    # The large-reply probe counts here; the last line's ``failed``
    # leaves it out (see README.md, "The large-reply probe").
    probed = "replica.large_reply_ok" in metrics
    metrics["failed_share"] = \
        (result["failed"] + probed - metrics.get("replica.large_reply_ok", 0)) \
        / (result["attempted"] + probed)
    table = {}
    for entry in baseline["end_to_end"]:
        if workload in entry["workloads"]:
            name = entry["name"]
            table[name] = metrics[name]
            print(f"  {name:20s} {metrics[name]:14.6g} {entry['unit']:6s}"
                  f"{'' if name in bounded else '  (no bound)'}")
    return table


def run_workload(args, manifest: dict, baseline: dict) -> dict:
    workdir = os.path.join(OUT, f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    print(f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds} trace {args.trace}")
    if args.trace:
        import layers
        declared = manifest["per_layer"]
        result = layers.run_traced(
            args, workdir, OUT, [metric["name"] for metric in declared],
            child_env(workdir),
            lambda probe: run_serving(args.workload, workdir, args.seed,
                                      args.seconds, args.quick, baseline,
                                      probe))
        values = result["metrics"]
        for metric in declared:
            print(f"  {metric['name']:40s} {values[metric['name']]:14.6g} "
                  f"{metric['unit']}")
    else:
        declared = manifest["end_to_end"]
        result = RUNNERS[args.workload](args.workload, workdir, args.seed,
                                        args.seconds, args.quick, baseline)
        values = end_to_end(args.workload, result, baseline,
                            {metric["name"] for metric in declared})
        # All of them, for ``--repeat-check``; the last line carries
        # only the ones ``BENCHMARK.json`` bounds.
        with open(os.path.join(OUT, f"end_to_end_{args.workload}.json"),
                  "w", encoding="utf-8") as stream:
            json.dump(values, stream)
    shutil.rmtree(workdir, ignore_errors=True)
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {metric["name"]: {"value": values[metric["name"]],
                                         "unit": metric["unit"]}
                        for metric in declared}}


def run_suite(args, manifest: dict) -> dict:
    """Every workload, each in a child of its own so that peak-RSS and
    interpreter state never carry over from one to the next."""
    results = {}
    for workload in manifest["workloads"]:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", workload["name"], "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace",
                   str(args.trace)]
        if args.quick:
            command.append("--quick")
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0:
            raise SystemExit(f"{workload['name']} exited "
                             f"{done.returncode}")
        results[workload["name"]] = json.loads(lines[-1])
    return results


def repeat_check(args, manifest: dict, baseline: dict) -> int:
    """Two untraced suites of the same code: every end-to-end metric of
    both, and their difference against the metric's bound — relative,
    or absolute for a share.  Non-zero when a metric that
    ``BENCHMARK.json`` bounds differs by more than its bound; for the
    others the line says whether they could be bounded."""
    sets = []
    for _ in range(2):
        run_suite(args, manifest)
        sets.append({
            workload["name"]: load_json(os.path.join(
                OUT, f"end_to_end_{workload['name']}.json"))
            for workload in manifest["workloads"]})
    bounded = {metric["name"]: metric["bound"]
               for metric in manifest["end_to_end"]}
    exceeded = 0
    for entry in baseline["end_to_end"]:
        name = entry["name"]
        bound = bounded.get(name, entry["bound"])
        for workload in entry["workloads"]:
            a, b = (values[workload][name] for values in sets)
            diff = abs(a - b) if entry["unit"] == "ratio" \
                else abs(a - b) / max(abs(a), abs(b))
            flag = ""
            if diff > bound:
                flag = "  EXCEEDS" if name in bounded else "  (no bound)"
                exceeded += name in bounded
            print(f"{workload:20s} {name:20s} {a:12.5g} {b:12.5g} "
                  f"diff {diff:6.3f} bound {bound:5.2f}{flag}")
    return 1 if exceeded else 0


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("benchmarks/e2e needs the repro package under src/ of the "
              "checkout it runs in", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    manifest = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    baseline = load_json(os.path.join(HERE, "baseline.json"))
    names = [workload["name"] for workload in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=baseline["seed"])
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs and a 3 s timed section")
    parser.add_argument("--repeat-check", action="store_true",
                        help="run the untraced suite twice and compare")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick \
            else manifest["run_seconds"]
    if args.repeat_check:
        return repeat_check(args, manifest, baseline)
    if args.workload is None:
        results = run_suite(args, manifest)
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1
    result = run_workload(args, manifest, baseline)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
