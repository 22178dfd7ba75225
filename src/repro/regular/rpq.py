"""Regular path query evaluation by automaton-graph product.

The regular analogue of the paper's reduction: for an NFA
``A = (Q, Σ, δ, q0, F)`` and graph ``D = (V, E)``, node pair ``(m, n)``
satisfies the RPQ iff an accepting automaton run can be driven by some
path ``m π n``.  On matrices this is reachability in the product graph,

    M_x^prod = A_x ⊗ G_x   (Kronecker product per label x)

followed by a boolean transitive closure — the same kernel Algorithm 1
uses, which is why the module reuses :mod:`repro.matrices`.  (The
Kronecker formulation is also the bridge to the tensor-based CFPQ
algorithms that followed the paper.)
"""

from __future__ import annotations

from typing import Hashable, Iterable

from ..core.transitive_closure import engine_closure
from ..graph.labeled_graph import LabeledGraph
from ..matrices.base import BooleanMatrix, MatrixBackend, get_backend
from .automaton import NFA, regex_to_nfa
from .regex import parse_regex


def product_adjacency(nfa: NFA, graph: LabeledGraph,
                      backend: MatrixBackend) -> BooleanMatrix:
    """The product-graph adjacency matrix.

    Product node ``(q, v)`` is encoded as ``q * |V| + v``; there is an
    edge ``(q, v) → (q', v')`` iff some label x has both the automaton
    transition ``q →x q'`` and the graph edge ``v →x v'`` — exactly the
    Kronecker product ``A_x ⊗ G_x`` summed over x.
    """
    node_count = graph.node_count
    pairs: set[tuple[int, int]] = set()
    for label in nfa.labels & graph.labels:
        graph_pairs = graph.edge_pairs(label)
        for (q, q_next) in nfa.transitions[label]:
            base_q = q * node_count
            base_next = q_next * node_count
            for (v, v_next) in graph_pairs:
                pairs.add((base_q + v, base_next + v_next))
    return backend.from_pairs(nfa.state_count * node_count, pairs)


def _demux_rpq(closed: BooleanMatrix, nfa: NFA, graph: LabeledGraph,
               backend: MatrixBackend, offset: int = 0,
               ) -> frozenset[tuple[int, int]]:
    """Read one query's (source, target) id pairs out of a closed product
    matrix whose block starts at row *offset*: keep only the start-state
    rows (a :meth:`~repro.matrices.base.MatrixBackend.mask_rows` kernel
    apply, not a Python filter over the full closure), then accept-state
    columns."""
    node_count = graph.node_count
    start_rows = [offset + q * node_count + v
                  for q in nfa.start_states for v in range(node_count)]
    masked = backend.mask_rows(closed, start_rows)
    span = nfa.state_count * node_count
    answers: set[tuple[int, int]] = set()
    for source_id, target_id in masked.nonzero_pairs():
        if not offset <= target_id < offset + span:
            continue
        _state, source_node = divmod(source_id - offset, node_count)
        target_state, target_node = divmod(target_id - offset, node_count)
        if target_state in nfa.accept_states:
            answers.add((source_node, target_node))
    if nfa.accepts_empty():
        answers.update(zip(range(node_count), range(node_count)))
    return frozenset(answers)


def _node_pairs(graph: LabeledGraph, pairs: Iterable[tuple[int, int]],
                ) -> frozenset[tuple[Hashable, Hashable]]:
    node_at = graph.node_at
    return frozenset((node_at(i), node_at(j)) for i, j in pairs)


def solve_rpq(graph: LabeledGraph, query: "str | NFA",
              backend: "str | MatrixBackend | None" = None,
              strategy: str | None = None,
              ) -> frozenset[tuple[Hashable, Hashable]]:
    """Evaluate an RPQ; returns the satisfied (source, target) node
    pairs (as node objects).

    *query* is a regex string (see :mod:`repro.regular.regex`) or a
    prebuilt NFA.  ε (the empty path) contributes the reflexive pairs
    when the expression is nullable, matching the RPQ literature.
    Evaluation runs through the CFPQ closure engine (see
    :func:`repro.core.transitive_closure.engine_closure`), so
    *strategy* picks any closure strategy; :func:`solve_rpq_reference`
    keeps the original self-contained squaring loop as the
    differential oracle.
    """
    return _node_pairs(graph, rpq_pairs_by_id(graph, query, backend,
                                              strategy))


def solve_rpq_batch(graph: LabeledGraph,
                    queries: Iterable["str | NFA"],
                    backend: "str | MatrixBackend | None" = None,
                    strategy: str | None = None,
                    ) -> list[frozenset[tuple[Hashable, Hashable]]]:
    """Evaluate many RPQs with **one** closure: each query's product
    graph becomes one block of a block-diagonal adjacency (blocks never
    interact — there are no cross-block edges), the closure runs once
    over the stacked matrix, and per-query answers demultiplex from
    each block's start-state rows."""
    nfas = [regex_to_nfa(parse_regex(query)) if isinstance(query, str)
            else query for query in queries]
    backend_obj = get_backend(backend)
    node_count = graph.node_count
    if not nfas:
        return []
    if node_count == 0:
        return [frozenset() for _ in nfas]
    offsets: list[int] = []
    total = 0
    for nfa in nfas:
        offsets.append(total)
        total += nfa.state_count * node_count
    pairs: set[tuple[int, int]] = set()
    for nfa, offset in zip(nfas, offsets):
        block = product_adjacency(nfa, graph, backend_obj)
        pairs.update((offset + i, offset + j)
                     for i, j in block.nonzero_pairs())
    closed = engine_closure(backend_obj.from_pairs(total, pairs), strategy)
    return [_node_pairs(graph, _demux_rpq(closed, nfa, graph, backend_obj,
                                          offset=offset))
            for nfa, offset in zip(nfas, offsets)]


def solve_rpq_reference(graph: LabeledGraph, query: "str | NFA",
                        backend: "str | MatrixBackend | None" = None,
                        ) -> frozenset[tuple[Hashable, Hashable]]:
    """The original self-contained evaluation loop (squaring closure +
    Python row filter), kept verbatim as the differential oracle for
    the engine-routed :func:`solve_rpq`."""
    nfa = regex_to_nfa(parse_regex(query)) if isinstance(query, str) else query
    backend_obj = get_backend(backend)
    node_count = graph.node_count
    if node_count == 0:
        return frozenset()

    adjacency = product_adjacency(nfa, graph, backend_obj)
    # Reachability from all (start, v): closure then filter rows.
    from ..core.transitive_closure import boolean_closure_naive

    closed = boolean_closure_naive(adjacency)

    answers: set[tuple[Hashable, Hashable]] = set()
    for source_id, target_id in closed.nonzero_pairs():
        source_state, source_node = divmod(source_id, node_count)
        target_state, target_node = divmod(target_id, node_count)
        if (source_state in nfa.start_states
                and target_state in nfa.accept_states):
            answers.add((graph.node_at(source_node), graph.node_at(target_node)))
    if nfa.accepts_empty():
        for node in graph.nodes:
            answers.add((node, node))
    return frozenset(answers)


def rpq_pairs_by_id(graph: LabeledGraph, query: "str | NFA",
                    backend: "str | MatrixBackend | None" = None,
                    strategy: str | None = None,
                    ) -> frozenset[tuple[int, int]]:
    """:func:`solve_rpq` with dense node ids: what the CLI prints from."""
    nfa = regex_to_nfa(parse_regex(query)) if isinstance(query, str) else query
    backend_obj = get_backend(backend)
    if graph.node_count == 0:
        return frozenset()
    adjacency = product_adjacency(nfa, graph, backend_obj)
    closed = engine_closure(adjacency, strategy)
    return _demux_rpq(closed, nfa, graph, backend_obj)
