"""Serving CFPQ: snapshots, the query service, and the JSONL protocol.

Walks the full serving story on a small class hierarchy:

1. a :class:`repro.QueryService` answers same-generation queries; the
   whole relation is cached per start symbol (the repeat is a cache
   hit), while point reads go straight to the live fact maps;
2. a **coalesced update tick** applies an interleaved insert/delete
   stream as one DRed pass + one insertion pass, dropping the cached
   relations whose non-terminal matrices changed;
3. the solved index is **snapshotted** and a second service warm-starts
   from it with *zero* closure rounds, answering identically;
4. the same requests go through the JSONL request handler — the exact
   protocol ``repro-cfpq serve`` speaks over stdio/TCP.

Run:  python examples/service_quickstart.py
"""

import json
import os
import tempfile

from repro import QueryService, parse_grammar
from repro.graph import LabeledGraph
from repro.service.server import handle_request

SAME_GENERATION = parse_grammar(
    "S -> subClassOf S subClassOf_r | subClassOf subClassOf_r",
    terminals=["subClassOf", "subClassOf_r"],
)


def triples(*pairs):
    """subClassOf triples plus the paper's inverse edges."""
    return [edge
            for child, parent in pairs
            for edge in ((child, "subClassOf", parent),
                         (parent, "subClassOf_r", child))]


def main() -> None:
    graph = LabeledGraph.from_edges(triples(
        ("Cat", "Mammal"), ("Dog", "Mammal"),
        ("Mammal", "Animal"), ("Bird", "Animal"),
    ))
    service = QueryService(graph, SAME_GENERATION, single_path=True)

    # -- 1. cached queries ---------------------------------------------
    first = service.query("S")
    again = service.query("S")
    assert first == again and service.stats["cache_hits"] == 1
    same_gen = sorted((a, b) for a, b in first if str(a) < str(b))
    print(f"same-generation pairs: {same_gen}")
    print(f"cache: {service.stats['cache_hits']} hit / "
          f"{service.stats['cache_misses']} miss")

    # -- 2. one coalesced tick -----------------------------------------
    tick = service.tick(
        [("insert", edge) for edge in triples(("Sparrow", "Bird"))]
        + [("insert", ("Robin", "subClassOf", "Bird"))]
        + [("delete", ("Robin", "subClassOf", "Bird"))]   # retracted in-tick
    )
    print(f"\ntick: +{tick.facts_added} facts, "
          f"{tick.coalesced_away} op coalesced away, "
          f"{tick.dred_passes} DRed pass / {tick.frontier_runs} insertion "
          f"pass, invalidated {tick.invalidated_entries} cache entries")
    # Robin's insert was coalesced away (its delete, the last op on that
    # edge, wins); the whole interleaved stream ran as ≤1 DRed pass +
    # exactly 1 insertion pass.
    assert tick.frontier_runs == 1 and tick.dred_passes <= 1
    assert tick.coalesced_away == 1
    assert service.query("S", "Sparrow", "Cat") is True
    path = service.query("S", "Sparrow", "Cat", semantics="single-path")
    print("witness Sparrow ~ Cat:",
          " ".join(f"{a}-{label}->{b}" for a, label, b in path))

    # -- 3. snapshot + warm restart ------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        snapshot = os.path.join(tmp, "index.snapshot")
        size = service.save_snapshot(snapshot)
        warm = QueryService.from_snapshot(snapshot)
        startup = warm.stats["startup"]
        assert startup["warm_start"] and startup["closure_iterations"] == 0
        assert warm.query("S") == service.query("S")
        print(f"\nsnapshot: {size} bytes; warm restart ran "
              f"{startup['closure_iterations']} closure rounds and "
              "answers identically")

        # -- 4. the serve protocol -------------------------------------
        print("\nJSONL protocol (what `repro-cfpq serve` speaks):")
        for request in (
            {"op": "query", "start": "S", "source": "Sparrow",
             "target": "Cat"},
            {"op": "query", "start": "S", "source": "Sparrow",
             "target": "Cat", "semantics": "length"},
            {"op": "stats"},
        ):
            response = handle_request(warm, request)
            assert response["ok"], response
            shown = (response["result"] if request["op"] != "stats"
                     else {key: response["result"][key]
                           for key in ("queries", "cache_hit_rate")})
            print(f"  -> {json.dumps(request)}")
            print(f"  <- {json.dumps(shown)}")


if __name__ == "__main__":
    main()
