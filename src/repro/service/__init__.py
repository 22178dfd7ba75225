"""Persistent index store and query service layer.

The solver stack (:mod:`repro.core`) answers one query fast; this
package turns it into something a process can *serve*:

* :mod:`repro.service.snapshot` — save/load a fully solved index (graph
  node map, grammar, per-non-terminal matrices via the backend payload
  codec, length annotations, incremental fact sets) in a
  versioned on-disk format, so engines warm-start in O(load) instead of
  O(solve);
* :mod:`repro.service.query_service` — a session object wrapping the
  engine and the batch-incremental solver: point reads are views of its
  live state, whole relations are cached per start symbol (a tick pops
  the symbols whose matrix changed), and update ticks are coalesced
  (one DRed pass + one insertion worklist run per tick);
* :mod:`repro.service.server` — a JSONL request loop over stdio and an
  asyncio TCP transport (``repro-cfpq serve``) whose event loop owns
  the service, so queries always see a completed tick;
* :mod:`repro.service.wal` / :mod:`repro.service.replica` — the
  replicated tier: a write-ahead tick log on the leader, follower
  replicas that replay it to a byte-identical index, reads fanned out
  across replicas while the leader owns writes.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".query_service": ("QueryService", "TickReport"),
    ".replica": ("FollowerService", "ReplicatedService", "open_role"),
    ".wal": ("TickLog", "TickLogReader"),
    ".snapshot": ("SNAPSHOT_VERSION", "load_engine_snapshot",
                  "read_snapshot", "save_engine_snapshot",
                  "write_snapshot"),
})
