"""Dynamic graph databases: incremental CFPQ and the RPQ fallback.

Graph databases mutate continuously.  This example maintains a
same-generation query answer **incrementally** while an ontology grows
edge by edge (semi-naive delta propagation over the paper's monotone
fixpoint), bulk-loads a batch in one worklist run,
retracts triples with DRed delete-and-rederive, and contrasts the
context-free answer with the cheaper regular-path-query
over-approximation ``subClassOf_r+ subClassOf+`` (which ignores depth
matching).

Run:  python examples/dynamic_graph_updates.py
"""

from repro import IncrementalCFPQ, LabeledGraph, parse_grammar, solve_rpq
from repro.core import solve_matrix_relations

# Sibling-style same generation: climb n levels up, then n levels down
# (nodes with a common ancestor at equal depth).
SAME_GENERATION = parse_grammar(
    "S -> subClassOf S subClassOf_r | subClassOf subClassOf_r",
    terminals=["subClassOf", "subClassOf_r"],
)


def add_subclass(solver: IncrementalCFPQ, child: str, parent: str) -> int:
    """Insert a subClassOf triple with the paper's inverse-edge rule —
    both directions in one batch, so the triple costs one worklist run
    instead of two."""
    return solver.add_edges([(child, "subClassOf", parent),
                             (parent, "subClassOf_r", child)])


def main() -> None:
    solver = IncrementalCFPQ(LabeledGraph(), SAME_GENERATION)

    print("Growing a class hierarchy, maintaining R_S incrementally:\n")
    inserts = [
        ("Cat", "Mammal"), ("Dog", "Mammal"),
        ("Mammal", "Animal"), ("Bird", "Animal"),
        ("Sparrow", "Bird"), ("Siamese", "Cat"),
    ]
    for child, parent in inserts:
        derived = add_subclass(solver, child, parent)
        same_gen = sorted(
            (a, b) for a, b in solver.relations().node_pairs("S")
            if str(a) < str(b)
        )
        print(f"  + {child} subClassOf {parent:<7}  "
              f"(+{derived} facts)  same-generation: {same_gen}")

    # Bulk load: one worklist run instead of a per-tuple loop.
    batch_triples = [("Poodle", "Dog"), ("Robin", "Bird"),
                     ("Crow", "Bird")]
    batch_edges = [edge
                   for child, parent in batch_triples
                   for edge in ((child, "subClassOf", parent),
                                (parent, "subClassOf_r", child))]
    derived = solver.add_edges(batch_edges)
    print(f"\n  + bulk batch {batch_triples}  (+{derived} facts)")

    # Retraction: DRed over-deletes the downward closure of the dead
    # triple, then re-derives what other triples still support.
    removed = solver.remove_edges([("Crow", "subClassOf", "Bird"),
                                   ("Bird", "subClassOf_r", "Crow")])
    print(f"  - Crow subClassOf Bird  (-{removed} facts)")

    # Consistency: incremental state == batch solve on the final graph.
    batch = solve_matrix_relations(solver.graph, SAME_GENERATION)
    assert solver.relations().same_as(batch)
    print("\nIncremental state (insert + bulk + delete) verified against "
          "a from-scratch solve.")

    # The regular approximation cannot express depth matching:
    rpq = {
        (a, b) for a, b in solve_rpq(solver.graph,
                                     "subClassOf+ subClassOf_r+")
        if str(a) < str(b)
    }
    cfpq = {
        (a, b) for a, b in solver.relations().node_pairs("S")
        if str(a) < str(b)
    }
    print(f"\nCFPQ same-generation pairs: {sorted(cfpq)}")
    print(f"RPQ  over-approximation   : {sorted(rpq)}")
    extra = sorted(rpq - cfpq)
    print(f"RPQ false positives (depth mismatch): {extra}")
    assert cfpq <= rpq and extra, "RPQ must strictly over-approximate here"
    # e.g. (Siamese, Bird): Siamese is 3 levels below Animal, Bird is 1 —
    # regular queries cannot enforce equal depths.


if __name__ == "__main__":
    main()
