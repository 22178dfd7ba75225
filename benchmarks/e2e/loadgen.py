"""Single-process asyncio load generator for the JSONL TCP server.

Closed loop: each connection sends its next request when the previous
reply arrives, so a slow server receives less load.  Open loop: requests
fall due on a seeded Poisson schedule at a fixed rate, wait in one
due-time-ordered queue for the first idle connection, and are timed from
when they were *due* — a stall is charged to every request it delays —
and how late the generator itself sent them is reported next to it.
Updates go out on one more connection on a time schedule of their own,
beside whatever read phase is running.

A request that gets no reply within ``REQUEST_TIMEOUT_S``, hits a
transport error, or fails its check counts as failed; the connection is
reopened and the run continues.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import time
from dataclasses import dataclass, field

REQUEST_TIMEOUT_S = 5.0
#: Replies can be whole relations; asyncio's default 64 KiB line limit
#: would cut them off on the client side.
STREAM_LIMIT = 64 << 20
#: An open-loop phase keeps working off its backlog this long past its
#: end; what is still unsent then is counted as failed.  Long enough
#: that only a server that has stopped answering gets there: waiting in
#: the generator's queue is lateness, which the latency figures carry.
DRAIN_LIMIT_S = 30.0


@dataclass
class PhaseResult:
    seconds: float = 0.0
    attempted: int = 0
    ok: int = 0
    failed: int = 0
    #: Latency of each correct reply in ms (closed loop: from send; open
    #: loop: from due time), in completion order.
    latencies_ms: list = field(default_factory=list)
    #: Open loop: how long after its due time each request was sent, ms.
    late_ms: list = field(default_factory=list)
    bytes_in: int = 0

    def within(self, limit_ms: float) -> int:
        return sum(1 for value in self.latencies_ms if value <= limit_ms)


class Connection:
    """One client connection; reopened after any failure."""

    def __init__(self, address):
        self.address = address
        self._reader = None
        self._writer = None

    async def request(self, line: bytes,
                      timeout: float = REQUEST_TIMEOUT_S) -> "bytes | None":
        """Send one request line; the reply line, or None on failure."""
        try:
            if self._writer is None:
                self._reader, self._writer = await asyncio.wait_for(
                    asyncio.open_connection(*self.address,
                                            limit=STREAM_LIMIT), timeout)
            self._writer.write(line)
            await self._writer.drain()
            reply = await asyncio.wait_for(self._reader.readline(), timeout)
        except (OSError, asyncio.TimeoutError, ValueError):
            reply = b""
        if not reply.endswith(b"\n"):
            await self.close()
            return None
        return reply

    async def call(self, document: dict,
                   timeout: float = REQUEST_TIMEOUT_S) -> "dict | None":
        """Request/response with JSON on both sides (control traffic)."""
        reply = await self.request(
            (json.dumps(document) + "\n").encode("utf-8"), timeout)
        return None if reply is None else json.loads(reply)

    async def close(self) -> None:
        writer, self._reader, self._writer = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass


async def sleep_until(due_at: float) -> None:
    """Sleep to *due_at*.  The loop's timers round up to a millisecond;
    that lateness is reported, not hidden by spinning, because a
    spinning generator would compete with the servers for two cores."""
    delay = due_at - time.perf_counter()
    if delay > 0:
        await asyncio.sleep(delay)


async def _one(connection: Connection, request, check, result: PhaseResult,
               timed_from: "float | None") -> None:
    sent = time.perf_counter()
    reply = await connection.request(request.line)
    done = time.perf_counter()
    result.attempted += 1
    if reply is not None and check(request, reply):
        result.ok += 1
        result.bytes_in += len(reply)
        result.latencies_ms.append(
            (done - (sent if timed_from is None else timed_from)) * 1e3)
    else:
        result.failed += 1
    if timed_from is not None:
        result.late_ms.append((sent - timed_from) * 1e3)


async def closed_loop(address, requests, check, seconds: float,
                      clients: int = 2) -> PhaseResult:
    """*clients* connections, each sending back to back for *seconds*."""
    result = PhaseResult()
    started = time.perf_counter()
    deadline = started + seconds

    async def client() -> None:
        connection = Connection(address)
        try:
            while time.perf_counter() < deadline:
                await _one(connection, next(requests), check, result, None)
        finally:
            await connection.close()

    await asyncio.gather(*(client() for _ in range(clients)))
    result.seconds = time.perf_counter() - started
    return result


async def open_loop(address, requests, check, seconds: float, rate: float,
                    rng, clients: int = 2) -> PhaseResult:
    """Poisson arrivals at *rate* per second for *seconds*, served by
    *clients* connections from one due-time-ordered queue."""
    result = PhaseResult()
    schedule = []
    due = rng.expovariate(rate)
    while due < seconds:
        schedule.append(due)
        due += rng.expovariate(rate)

    connections = [Connection(address) for _ in range(clients)]
    idle: asyncio.Queue = asyncio.Queue()
    for connection in connections:
        idle.put_nowait(connection)
    tasks = set()
    started = time.perf_counter()

    async def serve(connection, request, due_at) -> None:
        try:
            await _one(connection, request, check, result, due_at)
        finally:
            idle.put_nowait(connection)

    try:
        for position, offset in enumerate(schedule):
            due_at = started + offset
            await sleep_until(due_at)
            connection = await idle.get()
            if time.perf_counter() > started + seconds + DRAIN_LIMIT_S:
                # Backlog did not drain: the rest got no reply.
                idle.put_nowait(connection)
                unsent = len(schedule) - position
                result.attempted += unsent
                result.failed += unsent
                break
            task = asyncio.create_task(
                serve(connection, next(requests), due_at))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
        if tasks:
            await asyncio.gather(*tasks)
    finally:
        for connection in connections:
            await connection.close()
    result.seconds = max(seconds, time.perf_counter() - started)
    return result


@dataclass
class TickResult:
    attempted: int = 0
    failed: int = 0
    #: Update acknowledgement latency from the tick's due time, ms.
    ack_ms: list = field(default_factory=list)


async def tick_schedule(address, next_line, first_s: float, every_s: float,
                        stop: asyncio.Event, on_ack) -> TickResult:
    """Send update lines on one writer connection, the i-th due
    ``first_s + i * every_s`` seconds from now, until *stop* is set.
    ``next_line()`` makes the line when its tick falls due and
    ``on_ack()`` is called when the server acknowledges it.  A tick
    still unacknowledged when the next falls due makes that one late;
    like an open-loop read it is timed from when it was due."""
    result = TickResult()
    writer = Connection(address)
    started = time.perf_counter()
    try:
        for index in itertools.count():
            due_at = started + first_s + index * every_s
            try:
                await asyncio.wait_for(
                    stop.wait(), max(0.0, due_at - time.perf_counter()))
                break
            except asyncio.TimeoutError:
                pass
            result.attempted += 1
            reply = await writer.request(next_line(), timeout=30.0)
            if reply is None or not json.loads(reply).get("ok"):
                result.failed += 1
                continue
            on_ack()
            result.ack_ms.append((time.perf_counter() - due_at) * 1e3)
    finally:
        await writer.close()
    return result
