"""Leader/follower replication: WAL-ahead writes, deterministic replay,
byte-identical convergence, read fan-out."""

from __future__ import annotations

import filecmp
import json
import os
import socket
import subprocess
import sys
import textwrap
import time

import pytest

from repro import QueryService, parse_grammar
from repro.errors import ReadOnlyReplicaError, WALError
from repro.graph.generators import two_cycles, word_chain
from repro.service.replica import (
    FollowerService,
    ReplicatedService,
    open_role,
)
from repro.service.server import ServerThread, handle_request
from repro.service.wal import TickLog, TickLogReader

ANBN = parse_grammar("S -> a S b | a b", terminals=["a", "b"])

TICKS = [
    [("insert", ("p", "a", "q")), ("insert", ("q", "b", "p"))],
    [("delete", (0, "a", 1))],
    [("insert", (0, "a", 1)), ("insert", ("q", "b", "q"))],
    [("delete", ("q", "b", "q"))],
]


def _service():
    return QueryService(two_cycles(2, 3), ANBN, single_path=True)


def _leader(tmp_path, name="wal"):
    return ReplicatedService(_service(), TickLog(str(tmp_path / name)))


class TestLeader:
    def test_tick_is_logged_before_applied(self, tmp_path):
        leader = _leader(tmp_path)
        report = leader.tick(TICKS[0])
        assert report.frontier_runs == 1
        assert leader.applied_seq == 1 == leader.log.last_seq
        (seq, ops), = TickLogReader(leader.log.path).poll()
        assert seq == 1
        assert ops == [["insert", "p", "a", "q"], ["insert", "q", "b", "p"]]

    def test_malformed_tick_never_reaches_log_or_state(self, tmp_path):
        leader = _leader(tmp_path)
        ticks_before = leader.stats["ticks"]
        with pytest.raises(WALError):
            leader.tick([("upsert", ("p", "a", "q"))])
        assert leader.log.last_seq == 0
        assert leader.stats["ticks"] == ticks_before

    def test_update_convenience(self, tmp_path):
        leader = _leader(tmp_path)
        leader.update(inserts=[("p", "a", "q"), ("q", "b", "p")])
        assert leader.query("S", "p", "p") is True
        assert leader.applied_seq == 1

    def test_snapshot_stamps_wal_seq_and_anchors(self, tmp_path):
        leader = _leader(tmp_path)
        for ops in TICKS[:2]:
            leader.tick(ops)
        path = str(tmp_path / "index.snapshot")
        leader.save_snapshot(path)
        assert leader.log.anchor_seq == 2
        warm = QueryService.from_snapshot(path)
        assert warm.snapshot_meta["wal_seq"] == 2

    def test_snapshot_truncate_shrinks_log(self, tmp_path):
        leader = _leader(tmp_path)
        for ops in TICKS:
            leader.tick(ops)
        leader.save_snapshot(str(tmp_path / "index.snapshot"),
                             truncate=True)
        assert list(leader.log.records()) == []
        leader.tick(TICKS[0])
        assert leader.applied_seq == 5

    def test_recover_replays_past_snapshot(self, tmp_path):
        wal = str(tmp_path / "wal")
        snapshot = str(tmp_path / "index.snapshot")
        continuous = _leader(tmp_path, "wal-continuous")

        leader = ReplicatedService(_service(), TickLog(wal))
        leader.tick(TICKS[0])
        continuous.tick(TICKS[0])
        leader.save_snapshot(snapshot)
        for ops in TICKS[1:]:
            leader.tick(ops)
            continuous.tick(ops)
        leader.flush()
        leader.close()  # "crash" after the ticks were logged

        recovered = ReplicatedService.recover(snapshot, wal)
        assert recovered.applied_seq == len(TICKS)
        a = str(tmp_path / "recovered.snapshot")
        b = str(tmp_path / "continuous.snapshot")
        recovered.save_snapshot(a)
        continuous.save_snapshot(b)
        assert filecmp.cmp(a, b, shallow=False)

    def test_recover_covers_write_ahead_crash_window(self, tmp_path):
        """A tick appended to the log but never applied (crash between
        write-ahead and apply) is replayed on recovery."""
        wal = str(tmp_path / "wal")
        snapshot = str(tmp_path / "index.snapshot")
        leader = ReplicatedService(_service(), TickLog(wal))
        leader.save_snapshot(snapshot)
        leader.log.append(TICKS[0])  # logged, not applied: the crash
        leader.flush()
        leader.close()

        recovered = ReplicatedService.recover(snapshot, wal)
        assert recovered.applied_seq == 1
        assert recovered.query("S", "p", "p") is True

    def test_stats_carry_replication_block(self, tmp_path):
        leader = _leader(tmp_path)
        leader.tick(TICKS[0])
        replication = leader.stats["replication"]
        assert replication["role"] == "leader"
        assert replication["wal_seq"] == 1
        assert replication["wal_fsync"] == "batch"


class TestFollower:
    def _pair(self, tmp_path, **follower_kwargs):
        leader = _leader(tmp_path)
        snapshot = str(tmp_path / "index.snapshot")
        leader.save_snapshot(snapshot)
        follower = FollowerService.from_snapshot(snapshot, leader.log.path,
                                                 **follower_kwargs)
        return leader, follower

    def test_replay_converges_to_byte_identical_index(self, tmp_path):
        leader, follower = self._pair(tmp_path)
        for ops in TICKS:
            leader.tick(ops)
        synced = follower.replay()
        assert synced == {"applied_ticks": len(TICKS), "seq": len(TICKS)}
        assert follower.replay() == {"applied_ticks": 0, "seq": len(TICKS)}

        a = str(tmp_path / "leader.snapshot")
        b = str(tmp_path / "follower.snapshot")
        leader.save_snapshot(a)
        follower.save_snapshot(b)
        assert filecmp.cmp(a, b, shallow=False)
        assert follower.query("S", "p", "p") is leader.query("S", "p", "p")

    def test_engine_snapshot_pair_stays_byte_identical(self, tmp_path):
        """Both roles warm-start from one *engine* snapshot (the
        ``snapshot`` CLI's format, length section included) and stay
        byte-identical through small ticks and a 210-edge one."""
        from repro import CFPQEngine
        from repro.service.snapshot import save_engine_snapshot

        snapshot = str(tmp_path / "engine.snapshot")
        save_engine_snapshot(
            snapshot, CFPQEngine(two_cycles(2, 3), ANBN),
            semantics=("relational", "single-path"))
        wal = str(tmp_path / "wal")
        leader = ReplicatedService.recover(snapshot, wal)
        follower = FollowerService.from_snapshot(snapshot, wal)
        assert leader.single_path and follower.single_path

        chain = [("insert", (f"n{k}", "ab"[k % 2], f"n{k + 1}"))
                 for k in range(210)]
        for ops in [*TICKS, chain]:
            leader.tick(ops)
        assert leader.stats["frontier_runs"] >= 1
        follower.replay()

        a = str(tmp_path / "leader.snapshot")
        b = str(tmp_path / "follower.snapshot")
        leader.save_snapshot(a)
        follower.save_snapshot(b)
        assert filecmp.cmp(a, b, shallow=False)
        assert (follower.query("S", "n0", "n2", semantics="length")
                == leader.query("S", "n0", "n2", semantics="length") == 2)

    def test_reads_serve_at_replay_horizon(self, tmp_path):
        leader, follower = self._pair(tmp_path)
        leader.tick(TICKS[0])
        # Not replayed yet: the follower still answers from its horizon.
        assert follower.query("S", "p", "p") is False
        follower.replay()
        assert follower.query("S", "p", "p") is True

    def test_writes_are_refused(self, tmp_path):
        _, follower = self._pair(tmp_path)
        with pytest.raises(ReadOnlyReplicaError):
            follower.tick(TICKS[0])
        with pytest.raises(ReadOnlyReplicaError):
            follower.update(inserts=[("p", "a", "q")])
        response = handle_request(follower, {
            "op": "update", "insert": [["p", "a", "q"]],
        })
        assert response["ok"] is False
        assert response["error_type"] == "ReadOnlyReplicaError"

    def test_sync_op_fast_forwards(self, tmp_path):
        leader, follower = self._pair(tmp_path)
        leader.tick(TICKS[0])
        response = handle_request(follower, {"op": "sync"})
        assert response["ok"] is True
        assert response["result"]["applied_ticks"] == 1
        # A plain service has nothing to sync.
        plain = handle_request(_service(), {"op": "sync"})
        assert plain["ok"] is False

    def test_top_k_serves_on_follower(self, tmp_path, ranking):
        leader, follower = self._pair(tmp_path, semiring=ranking)
        leader.tick(TICKS[0])
        follower.replay()
        response = handle_request(follower, {
            "op": "top_k", "start": "S",
            "source": "p", "target": "p", "k": 1,
        })
        assert response["ok"], response
        paths = response["result"]["paths"]
        assert paths == [[["p", "a", "q"], ["q", "b", "p"]]]

    def test_node_coercion_replicates_faithfully(self, tmp_path):
        """The protocol coerces "0" → int node 0 on the leader *before*
        logging, so the follower replays the coerced edge instead of
        growing a string twin node."""
        leader, follower = self._pair(tmp_path)
        response = handle_request(leader, {
            "op": "update", "insert": [["0", "a", "1"]],
            "delete": [["1", "a", "0"]],
        })
        assert response["ok"], response
        follower.replay()
        assert not follower.graph.has_node("0")
        assert follower.graph.node_count == leader.graph.node_count
        a = str(tmp_path / "leader.snapshot")
        b = str(tmp_path / "follower.snapshot")
        leader.save_snapshot(a)
        follower.save_snapshot(b)
        assert filecmp.cmp(a, b, shallow=False)

    def test_stats_carry_replication_block(self, tmp_path):
        leader, follower = self._pair(tmp_path)
        leader.tick(TICKS[0])
        follower.replay()
        replication = follower.stats["replication"]
        assert replication["role"] == "follower"
        assert replication["wal_seq"] == 1
        assert replication["ticks_replayed"] == 1


class TestCrossProcessDeterminism:
    def test_snapshots_byte_identical_across_hash_seeds(self, tmp_path):
        """The convergence guarantee must hold across *processes*:
        PYTHONHASHSEED randomizes set/dict iteration, so only canonical
        snapshot encoding makes leader and follower bytes comparable."""
        script = textwrap.dedent("""
            import sys
            from repro import QueryService, parse_grammar
            from repro.graph.generators import two_cycles, word_chain

            grammar = parse_grammar("S -> a S b | a b",
                                    terminals=["a", "b"])
            service = QueryService(two_cycles(2, 3), grammar,
                                   single_path=True)
            service.tick([("insert", ("p", "a", "q")),
                          ("insert", ("q", "b", "p"))])
            service.tick([("delete", (0, "a", 1))])
            service.save_snapshot(sys.argv[1], extra={"wal_seq": 2})
        """)
        env = {**os.environ,
               "PYTHONPATH": "src" + os.pathsep
               + os.environ.get("PYTHONPATH", "")}
        cwd = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))
        outputs = []
        for seed in ("1", "4242"):
            out = str(tmp_path / f"seed-{seed}.snapshot")
            result = subprocess.run(
                [sys.executable, "-c", script, out],
                env={**env, "PYTHONHASHSEED": seed},
                capture_output=True, text=True, cwd=cwd, timeout=120,
            )
            assert result.returncode == 0, result.stderr
            outputs.append(out)
        assert filecmp.cmp(outputs[0], outputs[1], shallow=False)


class TestOpenRole:
    def test_single_passthrough(self):
        service = _service()
        assert open_role("single", service) is service

    def test_leader_wraps_and_recovers(self, tmp_path):
        wal = str(tmp_path / "wal")
        with TickLog(wal) as log:
            log.append(TICKS[0])
        leader = open_role("leader", _service(), wal=wal)
        assert leader.role == "leader"
        assert leader.applied_seq == 1
        assert leader.query("S", "p", "p") is True
        leader.close()

    def test_follower_catches_up(self, tmp_path):
        leader = _leader(tmp_path)
        snapshot = str(tmp_path / "index.snapshot")
        leader.save_snapshot(snapshot)
        leader.tick(TICKS[0])
        follower = open_role("follower", None, snapshot=snapshot,
                             wal=leader.log.path)
        assert follower.role == "follower"
        assert follower.replay_seq == leader.applied_seq

    def test_bad_configurations_rejected(self, tmp_path):
        with pytest.raises(WALError, match="--wal"):
            open_role("leader", _service())
        with pytest.raises(WALError, match="snapshot"):
            open_role("follower", None, wal=str(tmp_path / "wal"))
        with pytest.raises(WALError, match="unknown role"):
            open_role("primary", _service(), wal=str(tmp_path / "wal"))


def _request(address, request, timeout=10):
    with socket.create_connection(address, timeout=timeout) as sock:
        stream = sock.makefile("rw", encoding="utf-8")
        stream.write(json.dumps(request) + "\n")
        stream.flush()
        return json.loads(stream.readline())


def _wait_replayed(follower, ticks: int, timeout: float = 10) -> None:
    """Block until *follower* has applied *ticks* ticks in all."""
    deadline = time.monotonic() + timeout
    while follower.stats["replication"]["ticks_replayed"] < ticks:
        assert time.monotonic() < deadline, follower.stats["replication"]
        time.sleep(0.005)


def _same_snapshot_bytes(leader, follower, tmp_path) -> bool:
    paths = [str(tmp_path / f"{name}.final") for name in ("lead", "follow")]
    leader.save_snapshot(paths[0])
    follower.save_snapshot(paths[1])
    return filecmp.cmp(*paths, shallow=False)


def _update(address, tick) -> dict:
    return _request(address, {"op": "update", "ops": [
        [kind, *edge] for kind, edge in tick]})


class TestReplicatedServing:
    def test_leader_and_follower_servers_converge(self, tmp_path):
        """End-to-end over TCP: updates to the leader reach the follower
        through the leader's sync push alone, byte for byte."""
        leader = _leader(tmp_path)
        snapshot = str(tmp_path / "index.snapshot")
        leader.save_snapshot(snapshot)
        follower = FollowerService.from_snapshot(snapshot, leader.log.path)

        with ServerThread(follower) as follower_server, \
                ServerThread(leader, replicas=[follower_server.address]
                             ) as leader_server:
            for tick in TICKS:
                response = _update(leader_server.address, tick)
                assert response["ok"], response
            query = {"op": "query", "start": "S",
                     "source": "p", "target": "p"}
            deadline = time.monotonic() + 10
            while True:
                answer = _request(follower_server.address, query)
                if answer["result"] is True:
                    break
                assert time.monotonic() < deadline, answer
                time.sleep(0.02)
            _wait_replayed(follower, len(TICKS))
            # The follower refuses writes even over the wire.
            refused = _request(follower_server.address, {
                "op": "update", "insert": [["x", "a", "y"]],
            })
            assert refused["error_type"] == "ReadOnlyReplicaError"
        assert _same_snapshot_bytes(leader, follower, tmp_path)
        leader.close()

    def test_leader_fans_reads_out_to_replicas(self, tmp_path):
        leader = _leader(tmp_path)
        snapshot = str(tmp_path / "index.snapshot")
        leader.save_snapshot(snapshot)
        followers = [
            FollowerService.from_snapshot(snapshot, leader.log.path)
            for _ in range(2)
        ]
        with ServerThread(followers[0]) as f0, \
                ServerThread(followers[1]) as f1:
            with ServerThread(leader, include_stats=True,
                              replicas=[f0.address, f1.address]) as front:
                _request(front.address, {
                    "op": "update", "insert": [["p", "a", "q"],
                                               ["q", "b", "p"]],
                })
                query = {"op": "query", "start": "S",
                         "source": "p", "target": "p"}
                deadline = time.monotonic() + 10
                roles = set()
                while time.monotonic() < deadline:
                    answer = _request(front.address, query)
                    assert answer["ok"], answer
                    # Responses come from the followers: their stats are
                    # not attached (follower servers run stats-less) —
                    # but a forwarded True means replication delivered.
                    if answer["result"] is True:
                        roles.add("follower")
                        break
                    time.sleep(0.02)
                assert "follower" in roles
                # Updates still run on the leader itself.
                stats = leader.stats["replication"]
                assert stats["wal_seq"] == 1
                # The push reaches every replica, not just the one the
                # reads happened to hit.
                for follower in followers:
                    _wait_replayed(follower, 1)
        for follower in followers:
            assert _same_snapshot_bytes(leader, follower, tmp_path)

    def test_leader_falls_back_when_replicas_die(self, tmp_path):
        leader = _leader(tmp_path)
        snapshot = str(tmp_path / "index.snapshot")
        leader.save_snapshot(snapshot)
        follower = FollowerService.from_snapshot(snapshot, leader.log.path)
        with ServerThread(follower) as f0:
            dead_address = f0.address
        # The follower server is gone; the leader serves reads itself.
        with ServerThread(leader, replicas=[dead_address]) as front:
            answer = _request(front.address, {
                "op": "query", "start": "S", "source": 0, "target": 0,
            })
            assert answer["ok"] and answer["result"] is True

    def test_leader_relays_reply_longer_than_64k(self, tmp_path):
        """Regression: a forwarded whole-relation reply longer than
        asyncio's default 64 KiB stream limit used to raise out of the
        leader's connection task (the client read EOF).  It must come
        back whole, and the same client connection must stay usable."""
        chain = word_chain(["a"] * 160)
        leader = ReplicatedService(
            QueryService(chain, parse_grammar("S -> a | a S",
                                              terminals=["a"])),
            TickLog(str(tmp_path / "wal")))
        snapshot = str(tmp_path / "index.snapshot")
        leader.save_snapshot(snapshot)
        follower = FollowerService.from_snapshot(snapshot, leader.log.path)
        with ServerThread(follower) as f0, \
                ServerThread(leader, replicas=[f0.address]) as front, \
                socket.create_connection(front.address, timeout=30) as sock:
            stream = sock.makefile("rw", encoding="utf-8")
            stream.write(json.dumps({"op": "query", "start": "S"}) + "\n")
            stream.flush()
            line = stream.readline()
            assert len(line) > 64 * 1024
            answer = json.loads(line)
            assert answer["ok"], answer
            assert len(answer["result"]) == 160 * 161 // 2
            stream.write(json.dumps({"op": "ping"}) + "\n")
            stream.flush()
            assert json.loads(stream.readline())["ok"]
        leader.close()
        assert follower.stats["queries"] == 1  # the follower answered

    def test_leader_answers_locally_when_reply_overruns_limit(
            self, tmp_path, monkeypatch):
        """A reply past the replica stream limit is a dead replica, not
        a dead leader: the connection is dropped and the leader serves
        the read itself."""
        from repro.service import server as server_module

        monkeypatch.setattr(server_module, "REPLICA_REPLY_LIMIT_BYTES", 256)
        leader = _leader(tmp_path)
        snapshot = str(tmp_path / "index.snapshot")
        leader.save_snapshot(snapshot)
        follower = FollowerService.from_snapshot(snapshot, leader.log.path)
        with ServerThread(follower) as f0, \
                ServerThread(leader, replicas=[f0.address]) as front:
            query = {"op": "batch",
                     "queries": [{"start": "S"} for _ in range(40)]}
            answer = _request(front.address, query)
            assert answer["ok"] and len(answer["result"]) == 40
            assert _request(front.address, {"op": "ping"})["ok"]
        leader.close()
        assert leader.stats["queries"] == 40  # served by the leader

    def test_update_reply_is_followed_by_replay_without_sync(
            self, tmp_path):
        """After the leader acknowledges a tick, the follower applies it
        with no ``sync`` from any client: the leader pushed one."""
        leader = _leader(tmp_path)
        snapshot = str(tmp_path / "index.snapshot")
        leader.save_snapshot(snapshot)
        follower = FollowerService.from_snapshot(snapshot, leader.log.path)
        with ServerThread(follower) as f0, \
                ServerThread(leader, replicas=[f0.address]) as front:
            for count, tick in enumerate(TICKS, start=1):
                assert _update(front.address, tick)["ok"]
                deadline = time.monotonic() + 10
                while _request(f0.address, {"op": "stats"})["result"][
                        "replication"]["ticks_replayed"] < count:
                    assert time.monotonic() < deadline
                    time.sleep(0.005)
        assert _same_snapshot_bytes(leader, follower, tmp_path)
        leader.close()

    def test_follower_down_during_ticks_catches_up(self, tmp_path):
        """Ticks logged while a follower is down reach it on the first
        push after it is back: the leader reopens the push connection
        with a ``sync``, which replays to the end of the log."""
        leader = _leader(tmp_path)
        snapshot = str(tmp_path / "index.snapshot")
        leader.save_snapshot(snapshot)
        follower = FollowerService.from_snapshot(snapshot, leader.log.path)
        with ServerThread(follower) as f0:
            address = f0.address
        with ServerThread(leader, replicas=[address]) as front:
            for tick in TICKS[:2]:
                assert _update(front.address, tick)["ok"]
            assert follower.stats["replication"]["ticks_replayed"] == 0
            with ServerThread(follower, port=address[1]):
                for tick in TICKS[2:]:
                    assert _update(front.address, tick)["ok"]
                _wait_replayed(follower, len(TICKS))
        assert follower.replay_seq == leader.applied_seq == len(TICKS)
        assert _same_snapshot_bytes(leader, follower, tmp_path)
        leader.close()

    def test_follower_restart_receives_the_next_tick(self, tmp_path):
        """Regression: a follower restart leaves the leader's open push
        connection dead, so the first push after it fails.  The leader
        retries on a new connection: that one tick, with no tick after
        it, still reaches the restarted follower."""
        leader = _leader(tmp_path)
        snapshot = str(tmp_path / "index.snapshot")
        leader.save_snapshot(snapshot)
        follower = FollowerService.from_snapshot(snapshot, leader.log.path)
        first = ServerThread(follower).__enter__()
        address = first.address
        try:
            with ServerThread(leader, replicas=[address]) as front:
                assert _update(front.address, TICKS[0])["ok"]
                _wait_replayed(follower, 1)
                first.stop()
                with ServerThread(follower, port=address[1]):
                    assert _update(front.address, TICKS[1])["ok"]
                    _wait_replayed(follower, 2)
        finally:
            first.stop()
        assert follower.replay_seq == leader.applied_seq == 2
        assert _same_snapshot_bytes(leader, follower, tmp_path)
        leader.close()

    def test_stalled_follower_never_delays_the_tick_reply(self, tmp_path):
        """A replica that accepts the push connection and never reads
        from it must not hold up the leader's ``update`` reply."""
        leader = _leader(tmp_path)
        accepted = []
        with socket.create_server(("127.0.0.1", 0)) as stalled:
            stalled.settimeout(10)
            with ServerThread(leader,
                              replicas=[stalled.getsockname()]) as front:
                for tick in TICKS:
                    started = time.monotonic()
                    assert _update(front.address, tick)["ok"]
                    assert time.monotonic() - started < 1.0
                    if not accepted:
                        accepted.append(stalled.accept()[0])
            for connection in accepted:
                connection.close()
        assert leader.applied_seq == len(TICKS)
        leader.close()

    def test_shutdown_flushes_leader_wal(self, tmp_path):
        leader = ReplicatedService(
            _service(), TickLog(str(tmp_path / "wal"), fsync="never"))
        with ServerThread(leader) as server:
            _request(server.address, {"op": "update",
                                      "insert": [["p", "a", "q"]]})
            response = _request(server.address, {"op": "shutdown"})
            assert response["ok"]
            server._thread.join(timeout=10)
        # After shutdown the record is on disk despite fsync="never".
        assert [seq for seq, _ in
                TickLogReader(str(tmp_path / "wal")).poll()] == [1]
