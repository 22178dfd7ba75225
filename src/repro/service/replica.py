"""Replicated serving roles: a WAL-writing leader and replaying followers.

:class:`~repro.service.query_service.QueryService` ticks are
**deterministic** and its snapshots **canonical** (two processes holding
the same logical state write the same bytes), so replication is pure
serving-layer plumbing:

* :class:`ReplicatedService` — the **leader**.  Owns writes: every tick
  is appended to a :class:`~repro.service.wal.TickLog` *before* it is
  applied (write-ahead), so the durable history is never behind the
  served state.  Snapshots are stamped with the WAL sequence they
  include and anchored into the log, enabling snapshot-anchored
  truncation.  Crash recovery = :meth:`ReplicatedService.recover`:
  reload the last snapshot, replay the log past its anchor.
* :class:`FollowerService` — a **read replica**.  Loads the leader's
  snapshot, tails the WAL from the snapshot's ``wal_seq``, and replays
  each tick through the same ``tick()`` code.  Writes are refused
  (:class:`~repro.errors.ReadOnlyReplicaError`) — accepting one would
  fork the replica from the replicated history.  Reads are served at
  the **replay horizon**: whatever prefix of the log the follower has
  applied (eventual consistency; :meth:`FollowerService.replay` — the
  protocol's ``sync`` op, which a leader server pushes after every tick
  — fast-forwards to the end of the log).

Both wrap a :class:`QueryService` and duck-type its serving surface, so
both transports serve either role.  Like the service, both have one
owner and take no locks.
"""

from __future__ import annotations

from typing import Iterable

from ..errors import ReadOnlyReplicaError, WALError
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from .query_service import QueryService, Steps, TickReport, run_inline
from .wal import TickLog, TickLogReader, decode_ops, encode_ops

__all__ = ["ReplicatedService", "FollowerService", "check_role",
           "open_role"]


class _ServiceProxy:
    """Shared delegation: the wrapped service's read surface, plus the
    replication block in :attr:`stats`."""

    role = "single"

    def __init__(self, service: QueryService):
        self.service = service

    def __getattr__(self, name: str):
        # Only names the role does not define get here: the read
        # surface (graph, query, query_steps, top_k_page, ...).
        return getattr(self.service, name)

    # Through the role's own tick: the leader's logs, a follower's
    # refuses.
    update = QueryService.update

    def _replication_stats(self) -> dict:
        raise NotImplementedError

    @property
    def stats(self) -> dict:
        payload = self.service.stats
        payload["replication"] = self._replication_stats()
        return payload


class ReplicatedService(_ServiceProxy):
    """The leader: a :class:`QueryService` whose ticks are written ahead
    to a :class:`~repro.service.wal.TickLog`.

    *applied_seq* is the log sequence already reflected in *service*'s
    state (0 for a fresh log; :meth:`recover` computes it).  One owner
    calls it, so the (append, apply) pair of a tick and the (snapshot,
    anchor) pair of :meth:`save_snapshot` never interleave.
    """

    role = "leader"

    def __init__(self, service: QueryService, log: TickLog,
                 applied_seq: "int | None" = None):
        super().__init__(service)
        self.log = log
        self._applied_seq = log.last_seq if applied_seq is None \
            else applied_seq

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def recover(cls, snapshot_path: str, wal_path: str,
                fsync: str = "batch", **service_kwargs
                ) -> "ReplicatedService":
        """Restart a leader: load the snapshot, replay every logged tick
        past the snapshot's ``wal_seq``, and resume appending.

        This also covers the write-ahead crash window — a tick that was
        logged but not yet applied when the process died is simply
        replayed like any other."""
        return cls.resume(QueryService.from_snapshot(snapshot_path,
                                                     **service_kwargs),
                          TickLog(wal_path, fsync=fsync))

    @classmethod
    def resume(cls, service: QueryService,
               log: TickLog) -> "ReplicatedService":
        """Lead over *log* from *service*'s state: first replay every
        logged tick past the ``wal_seq`` its snapshot included."""
        applied = service.snapshot_meta.get("wal_seq", 0)
        for seq, ops in log.records(after_seq=applied):
            service.tick(decode_ops(ops))
            applied = seq
        return cls(service, log, applied_seq=applied)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    @property
    def applied_seq(self) -> int:
        """The log sequence the served state includes."""
        return self._applied_seq

    def tick(self, ops: Iterable[tuple]) -> TickReport:
        """Write-ahead, then apply: the tick is durable per the log's
        fsync policy before any follower (or this leader's own state)
        can observe it."""
        ops = list(ops)
        # encode_ops validates kinds/shapes; a malformed op must fail
        # *before* it is written into the replicated history, because
        # every follower will replay whatever the log accepted.
        encode_ops(ops)
        seq = self.log.append(ops)
        report = self.service.tick(ops)
        self._applied_seq = seq
        return report

    # ------------------------------------------------------------------
    # Snapshots / lifecycle
    # ------------------------------------------------------------------
    def save_snapshot(self, path: str, truncate: bool = False) -> int:
        """Snapshot the current state, stamped with the WAL sequence it
        includes, and anchor the log at that sequence.  With *truncate*
        the log drops the ticks the snapshot made redundant."""
        return run_inline(self.save_snapshot_steps(path, truncate))

    def save_snapshot_steps(self, path: str,
                            truncate: bool = False) -> Steps:
        seq = self._applied_seq
        size = yield from self.service.save_snapshot_steps(
            path, extra={"wal_seq": seq})
        if truncate:
            self.log.truncate(snapshot=path, seq=seq)
        else:
            self.log.anchor(path, seq=seq)
        return size

    def flush(self) -> None:
        """Force the log durable (the server calls this on shutdown)."""
        self.log.flush()

    def close(self) -> None:
        self.log.close()

    def _replication_stats(self) -> dict:
        return {
            "role": self.role,
            "wal_path": self.log.path,
            "wal_seq": self._applied_seq,
            "wal_last_seq": self.log.last_seq,
            "wal_anchor_seq": self.log.anchor_seq,
            "wal_fsync": self.log.fsync,
        }


class FollowerService(_ServiceProxy):
    """A read replica: snapshot + WAL tail + deterministic replay.

    Replay applies each logged tick through the service's ``tick``,
    exactly like a leader tick, on the one thread that owns the
    service; queries always see a completed tick's fixpoint.
    """

    role = "follower"

    def __init__(self, service: QueryService, wal_path: str,
                 start_seq: "int | None" = None):
        super().__init__(service)
        if start_seq is None:
            start_seq = service.snapshot_meta.get("wal_seq", 0)
        self._reader = TickLogReader(wal_path, after_seq=start_seq)
        self._ticks_replayed = 0

    @classmethod
    def from_snapshot(cls, snapshot_path: str, wal_path: str,
                      **service_kwargs) -> "FollowerService":
        """Load the leader's snapshot and position the WAL tail at its
        ``wal_seq``; call :meth:`replay` (or let a leader's pushed
        ``sync``) to catch up."""
        service = QueryService.from_snapshot(snapshot_path,
                                             **service_kwargs)
        return cls(service, wal_path)

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    @property
    def replay_seq(self) -> int:
        """The replay horizon: the highest log sequence applied."""
        return self._reader.last_seq

    def replay(self) -> dict:
        """Apply every tick the log has grown since the last replay;
        returns ``{"applied_ticks", "seq"}`` — the protocol's ``sync``
        response."""
        registry = get_registry()
        lag = registry.gauge("repro_replica_replay_lag_ticks",
                             "Ticks behind the WAL at the last replay poll")
        with get_tracer().span("replica.replay") as span:
            pending = self._reader.poll()
            # Observed backlog before applying: how many ticks this
            # replica was behind the log at poll time.
            lag.set(len(pending))
            for seq, ops in pending:
                self.service.tick(decode_ops(ops))
            span.set("applied_ticks", len(pending))
        applied = len(pending)
        self._ticks_replayed += applied
        registry.counter(
            "repro_replica_ticks_replayed_total",
            "WAL ticks replayed by this follower"
        ).inc(applied)
        lag.set(0)  # the backlog is drained
        return {"applied_ticks": applied, "seq": self._reader.last_seq}

    # ------------------------------------------------------------------
    # Writes are refused
    # ------------------------------------------------------------------
    def tick(self, ops: Iterable[tuple]) -> TickReport:
        raise ReadOnlyReplicaError(
            "this replica is a read-only follower; send updates to the "
            "leader (they arrive here through the WAL)"
        )

    def save_snapshot(self, path: str) -> int:
        """Snapshot the replica at its replay horizon, stamped with that
        horizon's sequence — byte-identical to the leader's snapshot of
        the same sequence (the convergence proof the tests assert)."""
        return run_inline(self.save_snapshot_steps(path))

    def save_snapshot_steps(self, path: str) -> Steps:
        return self.service.save_snapshot_steps(
            path, extra={"wal_seq": self._reader.last_seq})

    def close(self) -> None:
        pass

    def _replication_stats(self) -> dict:
        return {
            "role": self.role,
            "wal_path": self._reader.path,
            "wal_seq": self._reader.last_seq,
            "ticks_replayed": self._ticks_replayed,
        }


def check_role(role: str, *, snapshot: "str | None" = None,
               wal: "str | None" = None, replicas=()) -> None:
    """Refuse a ``serve --role`` configuration that cannot run, before
    anything is loaded: every role but ``single`` needs a WAL, a
    follower needs the leader's snapshot, and only a leader fans reads
    out to ``replicas``."""
    if role not in ("single", "leader", "follower"):
        raise WALError(f"unknown role {role!r}; expected "
                       "'single', 'leader' or 'follower'")
    if role != "single" and wal is None:
        raise WALError(f"role {role!r} requires --wal PATH")
    if role == "follower" and snapshot is None:
        raise WALError("role 'follower' requires --snapshot (the "
                       "leader's snapshot anchors the replay)")
    if replicas and role != "leader":
        raise WALError("--replicas is a leader feature (the leader "
                       "fans reads out to its followers)")


def open_role(role: str, service_or_none, *, snapshot: "str | None" = None,
              wal: "str | None" = None, fsync: str = "batch",
              **service_kwargs):
    """CLI glue: build the service object for ``serve --role``.

    * ``single`` — *service_or_none* passed through unchanged;
    * ``leader`` — wrap it in a :class:`ReplicatedService` over *wal*
      (replaying any logged ticks past the state's ``wal_seq`` first,
      so a restart with the same flags recovers);
    * ``follower`` — ignore *service_or_none* and build a
      :class:`FollowerService` from *snapshot* + *wal*, caught up to
      the current end of the log.
    """
    check_role(role, snapshot=snapshot, wal=wal)
    if role == "single":
        return service_or_none
    if role == "leader":
        return ReplicatedService.resume(service_or_none,
                                        TickLog(wal, fsync=fsync))
    follower = FollowerService.from_snapshot(snapshot, wal,
                                             **service_kwargs)
    follower.replay()
    return follower
