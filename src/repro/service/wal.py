"""Write-ahead tick log: the replication backbone of the serving tier.

A :class:`TickLog` is an append-only JSONL file of **coalesced update
ticks**.  The leader appends every tick *before* applying it
(write-ahead), followers tail the file and replay the same ticks through
the same :meth:`QueryService.tick
<repro.service.query_service.QueryService.tick>` code — and because
ticks are deterministic (last-op-per-edge coalescing, one DRed pass +
one insertion worklist run), a follower that loads the leader's snapshot and
replays its log converges to a byte-identical index.

Record format — one JSON object per line::

    {"kind": "tick",   "seq": 7, "ops": [["insert", 0, "a", 1],
                                         ["delete", "u", "b", "v"]]}
    {"kind": "anchor", "seq": 7, "snapshot": "index.snapshot"}

* ``seq`` is a strictly increasing sequence number, starting at 1; an
  ``anchor`` record marks that a snapshot captured the state *after*
  applying every tick with ``seq <=`` its own, so
  :meth:`TickLog.truncate` may drop those ticks (snapshot-anchored
  truncation — the log never needs to outgrow one snapshot interval).
* Edge endpoints are JSON scalars — the protocol's node coercion
  (int/str twins) runs on the leader *before* logging, so followers
  replay exactly the edges the leader applied.

Durability is a policy, not a constant (``fsync=``):

* ``"always"`` — ``fsync`` after every append: a tick acknowledged to a
  client survives power loss;
* ``"batch"`` (default) — ``fsync`` every :attr:`TickLog.fsync_interval`
  appends and on :meth:`flush`/:meth:`close`: bounded loss window,
  near-zero per-tick cost;
* ``"never"`` — leave durability to the OS page cache.

Every append is *flushed* to the OS regardless of policy so a tailing
follower on the same host observes records promptly.

Crash tolerance: a process killed mid-append leaves a partial final
line.  Opening the log for writing trims it; a tailing reader simply
ignores a partial tail and retries on the next poll.  Corruption
anywhere *before* the tail raises :class:`~repro.errors.WALError`.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Iterator

from ..errors import WALError
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer, stopwatch

__all__ = ["TickLog", "TickLogReader", "encode_ops", "decode_ops"]

#: Edge-update op as it travels through the log: ("insert"|"delete",
#: (source, label, target)).
TickOp = "tuple[str, tuple]"

_KINDS = ("tick", "anchor")


def encode_ops(ops: Iterable[tuple]) -> list:
    """Flatten ``("insert", (s, label, t))`` pairs to the JSON record
    shape ``["insert", s, label, t]`` (the protocol's interleaved-op
    form), validating shape and kind so a malformed op fails *before*
    it is written into the replicated history."""
    encoded = []
    for op in ops:
        try:
            kind, (source, label, target) = op
        except (TypeError, ValueError):
            raise WALError(f"malformed tick op {op!r}; expected "
                           "(kind, (source, label, target))") from None
        if kind not in ("insert", "delete"):
            raise WALError(f"unknown tick op kind {kind!r}; expected "
                           "'insert' or 'delete'")
        if not isinstance(label, str):
            raise WALError(f"edge label must be a string, got {label!r}")
        encoded.append([kind, source, label, target])
    return encoded


def decode_ops(encoded: Iterable) -> list:
    """Inverse of :func:`encode_ops`."""
    return [(kind, (source, label, target))
            for kind, source, label, target in encoded]


def _parse_record(line: str, path: str, line_number: int) -> dict:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as error:
        raise WALError(
            f"{path}:{line_number}: corrupt WAL record: {error}"
        ) from error
    if not isinstance(record, dict) or record.get("kind") not in _KINDS \
            or not isinstance(record.get("seq"), int):
        raise WALError(
            f"{path}:{line_number}: not a WAL record: {line[:120]!r}"
        )
    return record


class TickLogReader:
    """Tail a tick log: each :meth:`poll` yields the tick records that
    became visible since the last poll.

    The reader survives leader-side truncation (the file is atomically
    rewritten): it detects the replacement via inode change and re-scans
    from the top, skipping everything at or below the highest sequence
    it already delivered.  A partial final line (a concurrent append
    caught mid-write) is held back until it completes.
    """

    def __init__(self, path: str, after_seq: int = 0):
        self.path = path
        self._seq = after_seq
        self._offset = 0
        self._inode: "int | None" = None

    @property
    def last_seq(self) -> int:
        """Highest tick sequence delivered so far."""
        return self._seq

    def poll(self) -> list[tuple[int, list]]:
        """Return new ``(seq, ops)`` tick pairs, oldest first.

        Missing file → no records yet (the leader may not have opened
        the log); anchor records are consumed silently (they carry no
        state to replay)."""
        try:
            stream = open(self.path, "rb")
        except FileNotFoundError:
            return []
        ticks: list[tuple[int, list]] = []
        with stream:
            inode = os.fstat(stream.fileno()).st_ino
            if inode != self._inode:
                # New or rewritten (truncated) file: re-scan from the
                # top; the seq filter below drops already-applied ticks.
                self._inode = inode
                self._offset = 0
            stream.seek(self._offset)
            line_number = 0
            while True:
                position = stream.tell()
                raw = stream.readline()
                line_number += 1
                if not raw:
                    break
                if not raw.endswith(b"\n"):
                    # Partial tail: an append in progress.  Leave the
                    # offset before it so the next poll retries.
                    break
                self._offset = position + len(raw)
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                record = _parse_record(line, self.path, line_number)
                if record["seq"] <= self._seq:
                    continue
                if record["kind"] == "tick":
                    ticks.append((record["seq"], record["ops"]))
                    self._seq = record["seq"]
        return ticks


class TickLog:
    """The leader's append side of the write-ahead tick log.

    Opening recovers the existing file: the tail is scanned for the last
    sequence number and anchor, and a partial final line (crash
    mid-append) is trimmed off.  ``fsync`` picks the durability policy
    (see the module docstring)."""

    def __init__(self, path: str, fsync: str = "batch",
                 fsync_interval: int = 32):
        if fsync not in ("always", "batch", "never"):
            raise WALError(f"unknown fsync policy {fsync!r}; expected "
                           "'always', 'batch' or 'never'")
        self.path = path
        self.fsync = fsync
        self.fsync_interval = max(1, fsync_interval)
        self._unsynced = 0
        self._last_seq = 0
        self._anchor_seq = 0
        self._recover()
        self._stream = open(path, "ab")

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        try:
            stream = open(self.path, "r+b")
        except FileNotFoundError:
            return
        with stream:
            line_number = 0
            while True:
                position = stream.tell()
                raw = stream.readline()
                line_number += 1
                if not raw:
                    break
                if not raw.endswith(b"\n"):
                    # Partial tail from a crash mid-append: trim it so
                    # the next append starts on a record boundary.
                    stream.truncate(position)
                    break
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                record = _parse_record(line, self.path, line_number)
                if record["seq"] < self._last_seq:
                    raise WALError(
                        f"{self.path}:{line_number}: sequence went "
                        f"backwards ({record['seq']} after "
                        f"{self._last_seq})"
                    )
                self._last_seq = max(self._last_seq, record["seq"])
                if record["kind"] == "anchor":
                    self._anchor_seq = record["seq"]

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    @property
    def last_seq(self) -> int:
        """Sequence number of the most recent record."""
        return self._last_seq

    @property
    def anchor_seq(self) -> int:
        """Highest sequence a snapshot is recorded to have captured."""
        return self._anchor_seq

    def append(self, ops: Iterable[tuple]) -> int:
        """Append one tick of *ops* (already-validated protocol pairs);
        returns its sequence number.  The record is flushed to the OS
        before returning; fsync follows the policy."""
        encoded = encode_ops(ops)
        seq = self._last_seq + 1
        self._write({"kind": "tick", "seq": seq, "ops": encoded})
        self._last_seq = seq
        return seq

    def anchor(self, snapshot: str, seq: "int | None" = None) -> int:
        """Record that *snapshot* captured the state after tick *seq*
        (default: every tick so far).  Enables :meth:`truncate`."""
        if seq is None:
            seq = self._last_seq
        if seq > self._last_seq:
            raise WALError(f"cannot anchor at seq {seq}: log only "
                           f"reaches {self._last_seq}")
        self._write({"kind": "anchor", "seq": seq, "snapshot": snapshot})
        self._anchor_seq = max(self._anchor_seq, seq)
        return seq

    def _write(self, record: dict) -> None:
        with get_tracer().span("wal.append", kind=record["kind"],
                               seq=record["seq"]):
            self._stream.write(json.dumps(record).encode("utf-8") + b"\n")
            self._stream.flush()
            self._unsynced += 1
            if self.fsync == "always" or (
                    self.fsync == "batch"
                    and self._unsynced >= self.fsync_interval):
                self._fsync()
        get_registry().counter(
            "repro_wal_appends_total", "WAL records appended", ("kind",)
        ).inc(kind=record["kind"])

    def _fsync(self) -> None:
        if self._unsynced:
            with get_tracer().span("wal.fsync"), stopwatch() as timer:
                os.fsync(self._stream.fileno())
            self._unsynced = 0
            registry = get_registry()
            registry.counter(
                "repro_wal_fsyncs_total", "WAL fsync calls"
            ).inc()
            registry.histogram(
                "repro_wal_fsync_seconds", "WAL fsync latency"
            ).observe(timer.elapsed)

    def flush(self) -> None:
        """Force the log durable regardless of policy (``"never"``
        included — an explicit flush is always honoured)."""
        self._stream.flush()
        self._fsync()

    def close(self) -> None:
        if self._stream.closed:
            return
        self.flush()
        self._stream.close()

    def __enter__(self) -> "TickLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Reading / truncation
    # ------------------------------------------------------------------
    def records(self, after_seq: int = 0) -> Iterator[tuple[int, list]]:
        """Iterate ``(seq, ops)`` of tick records with ``seq >
        after_seq`` — the leader-recovery replay path."""
        self._stream.flush()
        reader = TickLogReader(self.path, after_seq=after_seq)
        yield from reader.poll()

    def truncate(self, snapshot: "str | None" = None,
                 seq: "int | None" = None) -> int:
        """Drop every record at or below the anchor; returns how many
        tick records were dropped.

        With *snapshot* (and optionally *seq*), a fresh anchor is
        recorded first — ``truncate(snapshot=path)`` is the one-call
        "snapshot taken, shrink the log" maneuver.  The file is
        rewritten atomically (write temp + rename) so a concurrent
        :class:`TickLogReader` never observes a half-truncated log.
        """
        if snapshot is not None:
            self.anchor(snapshot, seq=seq)
        anchor = self._anchor_seq
        self.flush()
        kept: list[dict] = [{"kind": "anchor", "seq": anchor,
                             "snapshot": snapshot or ""}] if anchor else []
        dropped = 0
        with open(self.path, "rb") as stream:
            line_number = 0
            for raw in stream:
                line_number += 1
                if not raw.endswith(b"\n"):
                    break
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                record = _parse_record(line, self.path, line_number)
                if record["kind"] != "tick":
                    continue
                if record["seq"] <= anchor:
                    dropped += 1
                else:
                    kept.append(record)
        temp_path = self.path + ".truncating"
        with open(temp_path, "wb") as stream:
            for record in kept:
                stream.write(json.dumps(record).encode("utf-8") + b"\n")
            stream.flush()
            os.fsync(stream.fileno())
        self._stream.close()
        os.replace(temp_path, self.path)
        self._stream = open(self.path, "ab")
        self._unsynced = 0
        return dropped
