"""Serving-tier benchmark: concurrent JSONL clients against the asyncio
TCP server, single node and leader + N replicas.

Each workload stands up a server (``ServerThread``), opens ``--clients``
concurrent connections, and drives a mixed stream — mostly point
queries with periodic update ticks — measuring per-request latency on
the client side.  Reported per workload:

* ``p50_latency_s`` / ``p99_latency_s`` — request latency percentiles;
* ``queries_per_s`` — completed requests / wall time;
* ``wall_time_s`` — the whole workload (the regression-gated cell);
* ``agree`` — every response well-formed and, for replicated
  workloads, leader and follower snapshots byte-identical at the end;
* ``replica_lag_p95_ms`` (replicated workloads) — after the stream,
  ``LAG_TICKS`` quiet ticks one at a time: from the leader's ``update``
  reply until every follower has applied the tick, which the leader's
  pushed ``sync`` alone brings about (no client syncs a follower).

Workloads:

* ``single_<C>c``   — one server owning reads and writes;
* ``single_<C>c_batch8`` — the same stream with queries grouped into
  ``batch`` ops of 8 (one round-trip, one coalesced answer batch);
* ``leader_1r_<C>c`` / ``leader_2r_<C>c`` — a WAL-writing leader
  fanning reads out to 1 / 2 follower replicas (replica scaling).

Usage::

    PYTHONPATH=src python benchmarks/bench_serving.py \
        --output benchmarks/BENCH_serving.json
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import socket
import tempfile
import time

from bench_workloads import drive_mixed_stream, make_service, percentile
from repro.service.replica import FollowerService, ReplicatedService
from repro.service.server import ServerThread
from repro.service.wal import TickLog

#: Quiet ticks timed for ``replica_lag_p95_ms``.
LAG_TICKS = 20


def bench_single(clients: int, requests_per_client: int,
                 update_every: int, batch_size: int = 0) -> dict:
    service = make_service(2, 3)
    with ServerThread(service) as server:
        metrics = drive_mixed_stream(server.address, clients,
                                     requests_per_client, update_every,
                                     batch_size=batch_size)
    metrics["agree"] = metrics.pop("ok")
    return metrics


def replica_lag_ms(address, leader, followers) -> list:
    """Milliseconds from each quiet tick's ``update`` reply until every
    follower has applied it.  A follower started from a seq-0 snapshot
    has applied tick *s* once it has replayed *s* ticks."""

    def replayed(follower) -> int:
        return follower.stats["replication"]["ticks_replayed"]

    lags = []
    with socket.create_connection(address, timeout=30) as sock:
        stream = sock.makefile("rw", encoding="utf-8")
        for index in range(LAG_TICKS):
            node = f"lag-{index}"
            stream.write(json.dumps({
                "op": "update", "insert": [[node, "a", node + "'"]],
                "delete": [[node, "a", node + "'"]]}) + "\n")
            stream.flush()
            if not json.loads(stream.readline()).get("ok"):
                raise RuntimeError("lag tick failed")
            acked = time.perf_counter()
            seq = leader.applied_seq
            deadline = acked + 30
            while any(replayed(follower) < seq for follower in followers):
                if time.perf_counter() > deadline:
                    raise RuntimeError("a follower never replayed")
                time.sleep(0.0002)
            lags.append((time.perf_counter() - acked) * 1e3)
    return lags


def bench_replicated(replicas: int, clients: int,
                     requests_per_client: int, update_every: int) -> dict:
    """Leader + N read replicas; convergence is asserted by comparing
    leader and follower snapshot bytes after the stream drains."""
    with tempfile.TemporaryDirectory() as tmp:
        wal = os.path.join(tmp, "wal")
        snapshot = os.path.join(tmp, "index.snapshot")
        leader = ReplicatedService(make_service(2, 3), TickLog(wal))
        leader.save_snapshot(snapshot)
        followers = [FollowerService.from_snapshot(snapshot, wal)
                     for _ in range(replicas)]

        follower_servers = [ServerThread(follower) for follower in followers]
        for server in follower_servers:
            server.__enter__()
        try:
            with ServerThread(
                leader,
                replicas=[server.address for server in follower_servers],
            ) as front:
                metrics = drive_mixed_stream(front.address, clients,
                                             requests_per_client,
                                             update_every)
                lags = replica_lag_ms(front.address, leader, followers)
        finally:
            for server in follower_servers:
                server.__exit__(None, None, None)

        converged = True
        leader_snapshot = os.path.join(tmp, "leader.final")
        leader.save_snapshot(leader_snapshot)
        for index, follower in enumerate(followers):
            follower.replay()
            follower_snapshot = os.path.join(tmp, f"follower{index}.final")
            follower.save_snapshot(follower_snapshot)
            converged &= filecmp.cmp(leader_snapshot, follower_snapshot,
                                     shallow=False)
        leader.close()
        metrics["agree"] = metrics.pop("ok") and converged
        metrics["replicas"] = replicas
        metrics["replica_lag_p95_ms"] = percentile(lags, 0.95)
        return metrics


def run(clients: int, requests_per_client: int,
        update_every: int) -> dict:
    workloads = {}
    name = f"single_{clients}c"
    print(f"  {name}...", flush=True)
    workloads[name] = bench_single(clients, requests_per_client,
                                   update_every)
    name = f"single_{clients}c_batch8"
    print(f"  {name}...", flush=True)
    workloads[name] = bench_single(clients, requests_per_client,
                                   update_every, batch_size=8)
    for replicas in (1, 2):
        name = f"leader_{replicas}r_{clients}c"
        print(f"  {name}...", flush=True)
        workloads[name] = bench_replicated(replicas, clients,
                                           requests_per_client,
                                           update_every)
    return {
        "benchmark": "serving",
        "clients": clients,
        "requests_per_client": requests_per_client,
        "update_every": update_every,
        "workloads": workloads,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        description="concurrent-client serving benchmark "
                    "(latency percentiles, throughput, replica scaling)"
    )
    parser.add_argument("--clients", type=int, default=32,
                        help="concurrent client connections (default 32)")
    parser.add_argument("--requests", type=int, default=25,
                        help="requests per client (default 25)")
    parser.add_argument("--update-every", type=int, default=10,
                        help="every Nth request per client is an update "
                             "tick (0 = read-only; default 10)")
    parser.add_argument("--output", help="write JSON here (default stdout)")
    args = parser.parse_args(argv)

    print(f"serving benchmark: {args.clients} clients x "
          f"{args.requests} requests", flush=True)
    document = run(args.clients, args.requests, args.update_every)
    rendered = json.dumps(document, indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as stream:
            stream.write(rendered + "\n")
        print(f"wrote {args.output}")
    else:
        print(rendered)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
