"""``serve`` loads everything its requests reach before it listens.

Modules are imported lazily elsewhere (each command loads only its own
layers), so a server could end up importing on its first tick or its
first replay instead, inside the latency a client sees.  This builds
servers the way ``repro-cfpq serve`` builds them, in a fresh
interpreter, sends one request of every kind, and checks that
``sys.modules`` did not grow after the servers were listening: a
snapshot-started leader with a follower, and a cold single-path server
solved from a graph file.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro import CFPQEngine
from repro.graph import word_chain
from repro.grammar import get_grammar

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

SCRIPT = textwrap.dedent("""
    import json, socket, sys, time

    from repro.cli import build_parser, serve_service
    from repro.service.server import ServerThread

    mode, path, wal, semiring = sys.argv[1:5]

    def service(*flags):
        return serve_service(build_parser().parse_args(
            ["serve", *flags, "--semiring", semiring]))

    def call(address, request):
        with socket.create_connection(address, timeout=30) as sock:
            stream = sock.makefile("rw", encoding="utf-8")
            stream.write(json.dumps(request) + "\\n")
            stream.flush()
            response = json.loads(stream.readline())
        assert response["ok"], response
        return response["result"]

    if mode == "replicated":
        roles = {role: service("--snapshot", path, "--role", role,
                               "--wal", wal)
                 for role in ("follower", "leader")}
        follower = ServerThread(roles["follower"]).__enter__()
        front = ServerThread(roles["leader"],
                             replicas=[follower.address]).__enter__()
        servers = [front, follower]
    else:
        front = ServerThread(service(
            "--graph", path, "--grammar-name", "dyck1",
            "--single-path")).__enter__()
        servers = [front]
    for server in servers:
        call(server.address, {"op": "ping"})  # the client's own imports
    listening = set(sys.modules)
    pair = {"start": "S", "source": 0, "target": 4}
    for request in [
        {"op": "query", **pair},
        {"op": "query", **pair, "semantics": "length"},
        {"op": "query", **pair, "semantics": "single-path"},
        {"op": "top_k", **pair, "k": 2},
        {"op": "batch", "queries": [pair, {"start": "S"}]},
        {"op": "query", "start": "S"},
        {"op": "update", "insert": [[4, "a", 5], [5, "b", 6]],
         "delete": [[0, "a", 1]]},
        {"op": "stats"},
        {"op": "save", "path": wal + ".snapshot"},
        {"op": "metrics"},
    ]:
        call(front.address, request)
    if mode == "replicated":
        call(follower.address, {"op": "sync"})
        deadline = time.monotonic() + 30
        while call(follower.address, {"op": "stats"})["replication"][
                "ticks_replayed"] < 1:
            assert time.monotonic() < deadline, "follower never replayed"
            time.sleep(0.01)
    print(json.dumps(sorted(set(sys.modules) - listening)))
    for server in servers:
        server.stop()
""")


@pytest.mark.parametrize("mode", ["replicated", "cold"])
def test_no_module_is_imported_after_listening(tmp_path, mode, ranking):
    chain = word_chain(["a", "a", "b", "b"])
    if mode == "replicated":
        path = str(tmp_path / "index.snapshot")
        CFPQEngine(chain, get_grammar("dyck1")).save_snapshot(
            path, semantics=("relational", "single-path"))
    else:
        path = str(tmp_path / "graph.txt")
        with open(path, "w", encoding="utf-8") as stream:
            stream.writelines(f"{u} {label} {v}\n"
                              for u, label, v in chain.edges())
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep
           + os.environ.get("PYTHONPATH", "")}
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, mode, path,
         str(tmp_path / "ticks.wal"), ranking],
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == []
