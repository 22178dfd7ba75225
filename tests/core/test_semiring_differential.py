"""Differential harness: the semiring engine vs the legacy loops.

The bespoke fixpoint loops the single-path and all-path semantics
used to run were deleted when both moved onto the unified
closure engine (:mod:`repro.core.semiring`).  They survive here as
**oracles**: a tuple-level re-implementation of the Section 5
length-annotated closure, and a brute-force walk enumerator checked by
CYK.  For deterministic random grammars × random graphs the harness
asserts, across every closure strategy (including tiled ``blocked``
with a tile smaller than the graph) and every boolean backend:

* the annotated engine's **relational projection** equals the boolean
  engine's answer on every backend × strategy cell;
* the recorded **single-path lengths** are byte-identical to the legacy
  loop's (and therefore identical across strategies);
* every **extracted path** is a real path of exactly the recorded
  length whose labeling derives from the queried non-terminal;
* the bounded **all-path answer** equals brute-force walk enumeration
  filtered by CYK, the midpoint index is identical across strategies,
  and the forest *view* of the closed relations equals a forest whose
  children are enumerated over Algorithm 1's pair sets
  (``tests/oracles/witness.py``) — splits, ``top_k`` order, path sets,
  counts and expansion counts — on every backend × strategy;
* the **incremental annotated solver** stays equal to a from-scratch
  index after every insertion.

One deliberate strengthening in the length oracle: the legacy loop
recorded whichever length its iteration order found first (sound, but
order-dependent — the reason it could never be compared across
strategies exactly); the oracle merges candidate lengths with ``min``,
the canonical confluent form of the paper's never-update rule, which is
precisely what :class:`repro.core.semiring.LengthSemiring` computes.
"""

from __future__ import annotations

import random

import pytest
from oracles.witness import naive_forest

from repro.cli import main as cli_main
from repro.core import semiring as semiring_module
from repro.core.incremental import IncrementalSinglePathCFPQ
from repro.core.matrix_cfpq import solve_matrix, solve_matrix_relations
from repro.core.path_index import AllPathIndex, matrix_maps
from repro.core.semiring import (
    BOOLEAN_SEMIRING,
    LENGTH_SEMIRING,
    VITERBI_SEMIRING,
    AnnotatedBackend,
    AnnotatedMatrix,
    CountingSemiring,
    LengthSemiring,
    ScalarAnnotatedMatrix,
    ViterbiSemiring,
    initial_annotated_matrices,
    register_semiring,
    solve_annotated,
)
from repro.core.single_path import (
    build_single_path_index,
    extract_path,
    path_is_valid,
    path_word,
)
from repro.datasets.registry import build_graph
from repro.grammar.cfg import CFG
from repro.grammar.cnf import to_cnf
from repro.grammar.parser import parse_grammar
from repro.grammar.production import Production
from repro.grammar.recognizer import cyk_recognize
from repro.grammar.symbols import Nonterminal, Terminal
from repro.graph.generators import random_graph
from repro.graph.io import dump_graph
from repro.graph.labeled_graph import LabeledGraph
from repro.matrices.base import available_backends
from test_incremental import DIFFERENTIAL_GRAMMARS

STRATEGIES = ("naive", "delta", "blocked")
SEEDS = tuple(range(10))
_LABELS = ("a", "b")
_NONTERMINALS = ("S", "A", "B")


# ----------------------------------------------------------------------
# Deterministic random cases (seeded at call time, never at import)
# ----------------------------------------------------------------------

def make_case(seed: int, max_nodes: int = 5, max_edges: int = 12,
              ) -> tuple:
    """One random (graph, CNF grammar) pair, fully determined by *seed*."""
    rng = random.Random(0xC0FFEE ^ seed)
    productions = []
    for _ in range(rng.randint(1, 6)):
        head = Nonterminal(rng.choice(_NONTERMINALS))
        body = []
        for _ in range(rng.randint(0, 3)):
            if rng.random() < 0.5:
                body.append(Terminal(rng.choice(_LABELS)))
            else:
                body.append(Nonterminal(rng.choice(_NONTERMINALS)))
        productions.append(Production(head, tuple(body)))
    grammar = to_cnf(CFG(productions))
    graph = random_graph(rng.randint(2, max_nodes),
                         rng.randint(1, max_edges),
                         list(_LABELS), seed=rng.randint(0, 10_000))
    return graph, grammar


# ----------------------------------------------------------------------
# Oracles (the legacy loops, kept for differential testing only)
# ----------------------------------------------------------------------

def legacy_single_path_cells(graph, grammar) -> dict:
    """The pre-semiring Section 5 fixpoint at tuple granularity:
    ``(i, j) -> {A: l_A}`` with edge initialization 1 and
    ``l_A = l_B + l_C`` through every rule ``A → B C``, candidates
    merged with min (see the module docstring)."""
    cells: dict[tuple[int, int], dict[Nonterminal, int]] = {}
    # Empty-path diagonal: originally-nullable non-terminals witness
    # (i, i) with length 0 (the paper's relation semantics counts the
    # empty path; to_cnf records the nullable set on the CNF grammar).
    for head in grammar.nullable_diagonal:
        for i in range(graph.node_count):
            cells.setdefault((i, i), {}).setdefault(head, 0)
    for i, label, j in graph.edges_by_id():
        for head in grammar.heads_for_terminal(Terminal(label)):
            entries = cells.setdefault((i, j), {})
            if entries.get(head, 2) > 1:
                entries[head] = 1
    pair_rules = [
        (rule.head, rule.body[0], rule.body[1])
        for rule in grammar.binary_rules
    ]
    changed = True
    while changed:
        changed = False
        by_col: dict[int, list[tuple[int, dict]]] = {}
        for (r, j), entries in cells.items():
            by_col.setdefault(r, []).append((j, entries))
        additions: list[tuple[int, int, Nonterminal, int]] = []
        for head, left, right in pair_rules:
            for (i, r), left_entries in cells.items():
                left_length = left_entries.get(left)
                if left_length is None:
                    continue
                for j, right_entries in by_col.get(r, ()):
                    right_length = right_entries.get(right)
                    if right_length is None:
                        continue
                    additions.append(
                        (i, j, head, left_length + right_length)
                    )
        for i, j, head, length in additions:
            entries = cells.setdefault((i, j), {})
            existing = entries.get(head)
            if existing is None or length < existing:
                entries[head] = length
                changed = True
    return cells


def brute_force_paths(graph, grammar, nonterminal, source_id: int,
                      target_id: int, max_length: int) -> frozenset:
    """Every walk of length ≤ *max_length* from source to target whose
    label word derives from *nonterminal* — checked edge-by-edge with
    CYK, completely independent of the closure machinery."""
    out_edges = graph.out_edges_index()
    found: set = set()
    if source_id == target_id and nonterminal in grammar.nullable_diagonal:
        found.add(())  # the empty path, witnessed by A => * eps

    def extend(node: int, path: tuple) -> None:
        if path and node == target_id:
            word = [label for _i, label, _j in path]
            if cyk_recognize(grammar, nonterminal, word):
                found.add(path)
        if len(path) == max_length:
            return
        for label, successor in out_edges.get(node, ()):
            extend(successor, path + ((node, label, successor),))

    extend(source_id, ())
    return frozenset(found)


# ----------------------------------------------------------------------
# Single-path differentials
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_single_path_lengths_byte_identical_across_strategies(seed):
    graph, grammar = make_case(seed)
    oracle = legacy_single_path_cells(graph, grammar)
    for strategy in STRATEGIES:
        index = build_single_path_index(graph, grammar, normalize=False,
                                        strategy=strategy)
        assert index.cells == oracle, strategy


@pytest.mark.parametrize("seed", SEEDS)
def test_single_path_lengths_survive_real_tiling(seed):
    """blocked with a tile edge smaller than the graph exercises the
    offset bookkeeping of the annotated tiles."""
    graph, grammar = make_case(seed)
    oracle = legacy_single_path_cells(graph, grammar)
    result = solve_annotated(graph, grammar, LENGTH_SEMIRING,
                             strategy="blocked", normalize=False,
                             tile_size=2)
    assert result.cells() == oracle


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_extracted_paths_realize_recorded_lengths(seed, strategy):
    graph, grammar = make_case(seed)
    index = build_single_path_index(graph, grammar, normalize=False,
                                    strategy=strategy)
    for (i, j), entries in index.cells.items():
        for nonterminal, length in entries.items():
            path = extract_path(index, nonterminal, graph.node_at(i),
                                graph.node_at(j))
            assert len(path) == length
            assert path_is_valid(index, path)
            if length == 0:
                # Empty path: witnessed by nullability, not by CYK (the
                # CNF grammar itself cannot derive the empty word).
                assert i == j and nonterminal in grammar.nullable_diagonal
            else:
                assert cyk_recognize(grammar, nonterminal,
                                     list(path_word(path)))


# ----------------------------------------------------------------------
# Relational projection vs every boolean backend × strategy
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS[:6])
def test_relational_projection_matches_all_backends_and_strategies(seed):
    graph, grammar = make_case(seed)
    projections = {}
    for semiring in (BOOLEAN_SEMIRING, LENGTH_SEMIRING, DICT_LENGTH):
        for strategy in STRATEGIES:
            result = solve_annotated(graph, grammar, semiring,
                                     strategy=strategy, normalize=False)
            projections[(semiring.name, strategy)] = {
                nt: frozenset(matrix.nonzero_pairs())
                for nt, matrix in result.matrices.items()
            }
    reference = next(iter(projections.values()))
    for key, projection in projections.items():
        assert projection == reference, key
    for backend in available_backends():
        for strategy in STRATEGIES:
            relations = solve_matrix_relations(graph, grammar,
                                               backend=backend,
                                               normalize=False,
                                               strategy=strategy)
            for nonterminal, pairs in reference.items():
                assert relations.pairs(nonterminal) == pairs, (
                    backend, strategy, nonterminal
                )


# ----------------------------------------------------------------------
# All-path differentials
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS[:6])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_bounded_all_paths_match_brute_force(seed, strategy):
    graph, grammar = make_case(seed, max_nodes=4, max_edges=8)
    index = AllPathIndex.build(graph, grammar, strategy=strategy)
    bound = 4
    for nonterminal in grammar.nonterminals:
        for i in range(graph.node_count):
            for j in range(graph.node_count):
                expected = brute_force_paths(graph, grammar, nonterminal,
                                             i, j, bound)
                actual = frozenset(index.iter_paths(
                    nonterminal, graph.node_at(i), graph.node_at(j), bound))
                assert actual == expected, (nonterminal, i, j)


@pytest.mark.parametrize("seed", SEEDS)
def test_midpoint_index_identical_across_strategies(seed):
    graph, grammar = make_case(seed)
    forests = []
    for strategy in STRATEGIES:
        index = AllPathIndex.build(graph, grammar, strategy=strategy)
        forests.append({
            (nonterminal, i, j): tuple(index.splits(nonterminal, i, j))
            for nonterminal in grammar.nonterminals
            for i, j in index.relations.pairs(nonterminal)
        })
    assert forests[0] == forests[1] == forests[2]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_forest_view_equals_closure_built_forest(seed, strategy):
    """The forest is a view of the closed relations; the oracle
    enumerates each node's children over Algorithm 1's pair sets.  Same
    structure, same ranked streams (ties included), same path sets,
    counts and search effort — whichever backend and strategy closed the
    relations."""
    graph, grammar = make_case(seed)
    oracle = naive_forest(graph, grammar)
    nodes = [(nonterminal, i, j)
             for nonterminal in sorted(grammar.nonterminals,
                                       key=lambda nt: nt.name)
             for i, j in sorted(oracle.relations.pairs(nonterminal))]
    for backend in available_backends():
        oracle.drop_memos()
        oracle.kbest_stats.update(expansions=0, yielded=0)
        view = AllPathIndex(graph, grammar, *matrix_maps(
            grammar.nonterminals, solve_matrix(
                graph, grammar, backend=backend, normalize=False,
                strategy=strategy).matrices))
        assert view.relations.same_as(oracle.relations), backend
        for node in nodes:
            assert view.splits(*node) == oracle.splits(*node), node
            assert sorted(view.terminal_edges(*node)) \
                == oracle.terminal_edges(*node), node
        for node in nodes[:12]:
            assert view.top_k(*node, 6, max_length=5) \
                == oracle.top_k(*node, 6, max_length=5), (backend, node)
            assert set(view.iter_paths(*node, 4)) \
                == set(oracle.iter_paths(*node, 4)), (backend, node)
            assert view.count_paths(*node, 4) \
                == oracle.count_paths(*node, 4), (backend, node)
        assert view.kbest_stats == oracle.kbest_stats, backend


# ----------------------------------------------------------------------
# Incremental annotated solver vs from-scratch index
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS[:6])
def test_incremental_lengths_track_from_scratch_index(seed):
    graph, grammar = make_case(seed)
    rng = random.Random(0xFEED ^ seed)
    solver = IncrementalSinglePathCFPQ(graph, to_cnf(grammar))
    for _ in range(4):
        source = rng.randrange(graph.node_count)
        target = rng.randrange(graph.node_count)
        solver.add_edge(source, rng.choice(_LABELS), target)
        rebuilt = build_single_path_index(graph, solver.grammar,
                                          normalize=False)
        expected = {
            (nt, i, j): length
            for (i, j), entries in rebuilt.cells.items()
            for nt, length in entries.items()
        }
        assert {(nt, i, j): length
                for nt, cells in solver.length_cells().items()
                for i, j, length in cells} == expected


# ----------------------------------------------------------------------
# Array layout vs row-map layout (length, Viterbi, counting)
# ----------------------------------------------------------------------
#
# The scalar semirings run on the array-native kernels of
# :mod:`repro.core.scalar_matrix`.  A subclass that withdraws the
# ``array_ops`` declaration keeps the same algebra on the row-map
# ``AnnotatedMatrix`` — the differential oracle.  Both are registered at
# import (collection) time, so a spilled tile's reload resolves them by
# name.

class DictLength(LengthSemiring):
    name = "length[dict-oracle]"
    array_ops = None


class DictViterbi(ViterbiSemiring):
    array_ops = None


class DictCounting(CountingSemiring):
    def __init__(self, cap: int, name: str):
        super().__init__(cap, name)
        self.array_ops = None


DICT_LENGTH = register_semiring(DictLength())
_WEIGHTS = {"a": 0.9, "b": 0.3}
#: (array-native semiring, row-map oracle) per scalar semiring.
LAYOUT_PAIRS = {
    "length": (LENGTH_SEMIRING, DICT_LENGTH),
    "viterbi": (
        register_semiring(ViterbiSemiring(
            weights=_WEIGHTS, name="viterbi[weighted-test]")),
        register_semiring(DictViterbi(
            weights=_WEIGHTS, name="viterbi[dict-oracle]")),
    ),
    # A small cap keeps the Kleene loop's rounds on cyclic graphs short.
    "counting": (
        register_semiring(CountingSemiring(cap=64,
                                           name="counting[layout-test]")),
        register_semiring(DictCounting(cap=64,
                                       name="counting[dict-oracle]")),
    ),
}

requires_arrays = pytest.mark.skipif(
    ScalarAnnotatedMatrix is None, reason="array layout needs NumPy")


def _closed(graph, grammar, semiring, strategy, **tile_options):
    """The closure under *semiring*; the tile options reach ``blocked``
    over an idempotent ⊕ only, as every other closure refuses them."""
    if strategy != "blocked" or not semiring.idempotent_add:
        tile_options = {}
    return solve_annotated(graph, grammar, semiring, strategy=strategy,
                           normalize=False, **tile_options)


def _assert_layouts_agree(graph, grammar, strategy, **options):
    """Close under both layouts of every scalar semiring (*options* as
    :func:`_closed` passes them on); returns the array-layout length
    result."""
    results = {}
    for name, (array_semiring, dict_semiring) in LAYOUT_PAIRS.items():
        arrays = _closed(graph, grammar, array_semiring, strategy, **options)
        oracle = _closed(graph, grammar, dict_semiring, strategy, **options)
        for matrix in arrays.matrices.values():
            assert isinstance(matrix, ScalarAnnotatedMatrix), name
        for matrix in oracle.matrices.values():
            assert isinstance(matrix, AnnotatedMatrix), name
        assert arrays.cells() == oracle.cells(), (name, strategy, options)
        assert arrays.multiplications == oracle.multiplications, name
        assert arrays.iterations == oracle.iterations, name
        assert arrays.delta_nnz_per_round == oracle.delta_nnz_per_round, name
        results[name] = arrays
    return results["length"]


#: The random grammar of :func:`make_case`, then fixed grammar shapes
#: over the same graph.
CASE_GRAMMARS = [pytest.param(None, id="random"), *DIFFERENTIAL_GRAMMARS]


def _layout_case(seed, grammar):
    graph, random_grammar = make_case(seed)
    if grammar is None:
        return graph, random_grammar
    return graph, to_cnf(parse_grammar(grammar, terminals=list(_LABELS)))


@requires_arrays
@pytest.mark.parametrize("grammar", CASE_GRAMMARS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("strategy", ("naive", "delta"))
def test_array_layout_equals_dict_layout(seed, strategy, grammar):
    _assert_layouts_agree(*_layout_case(seed, grammar), strategy)


@requires_arrays
@pytest.mark.parametrize("grammar", CASE_GRAMMARS)
@pytest.mark.parametrize("seed", SEEDS[:5])
@pytest.mark.parametrize("tile_size", (1, 2, 3))
def test_array_layout_equals_dict_layout_blocked(seed, tile_size, grammar):
    """Tiled runs: tile_size 1 puts one cell in each tile, and 2 or 3
    leave a ragged edge tile on graphs their edge does not divide."""
    _assert_layouts_agree(*_layout_case(seed, grammar), "blocked",
                          tile_size=tile_size)


@requires_arrays
def test_ragged_edge_tiles_keep_every_cell():
    graph, grammar = make_case(3, max_nodes=7, max_edges=16)
    reference = _closed(graph, grammar, LENGTH_SEMIRING, "naive").cells()
    assert graph.node_count == 6
    for tile_size in (4, 5):
        tiled = _assert_layouts_agree(graph, grammar, "blocked",
                                      tile_size=tile_size)
        assert tiled.cells() == reference, tile_size


@requires_arrays
def test_nullable_diagonal_has_length_zero():
    grammar = to_cnf(parse_grammar("S -> a S b | eps", terminals=["a", "b"]))
    graph = random_graph(4, 6, list(_LABELS), seed=11)
    start = Nonterminal("S")
    for strategy in STRATEGIES:
        result = _assert_layouts_agree(graph, grammar, strategy)
        matrix = result.matrices[start]
        assert [matrix.value_at(i, i) for i in range(4)] == [0] * 4


@requires_arrays
def test_shorter_witness_found_later_reenters_the_frontier():
    """``S → S S`` doubles its reach per round and spans 0..8 with eight
    ``a`` edges by round 3; the left-linear ``Y`` route of six edges
    needs five rounds.  The cell must be refined 8 → 6, and the
    refinement must ride the delta: the rounds merge one entry more
    than the matrices gain cells."""
    grammar = to_cnf(parse_grammar("S -> S S | a | Y\nY -> Y c | d",
                                   terminals=["a", "c", "d"]))
    route = [0, 10, 11, 12, 13, 14, 8]
    graph = LabeledGraph.from_edges(
        [(i, "a", i + 1) for i in range(8)]
        + [(route[k], "d" if k == 0 else "c", route[k + 1])
           for k in range(6)])
    seeded = sum(matrix.nnz() for matrix in initial_annotated_matrices(
        graph, grammar, LENGTH_SEMIRING).values())
    for strategy in STRATEGIES:
        result = _assert_layouts_agree(graph, grammar, strategy, tile_size=4)
        assert result.matrices[Nonterminal("S")].value_at(
            0, graph.node_id(8)) == 6
        closed = sum(matrix.nnz() for matrix in result.matrices.values())
        if strategy != "delta":  # delta's first round re-merges the seeds
            assert sum(result.delta_nnz_per_round) == closed - seeded + 1


@requires_arrays
def test_parallel_edges_keep_the_best_viterbi_weight():
    grammar = to_cnf(parse_grammar("S -> A A\nA -> a | b",
                                   terminals=["a", "b"]))
    graph = LabeledGraph.from_edges(
        [(0, "a", 1), (0, "b", 1), (1, "b", 2)])
    for strategy in STRATEGIES:
        result = _assert_layouts_agree(graph, grammar, strategy)
    array_semiring, _oracle = LAYOUT_PAIRS["viterbi"]
    result = _closed(graph, grammar, array_semiring, "delta")
    assert result.matrices[Nonterminal("A")].value_at(0, 1) == 0.9
    assert result.matrices[Nonterminal("S")].value_at(0, 2) == 0.9 * 0.3


# -- kernel properties ---------------------------------------------------

def _random_cells(rng, shape, density, value):
    return {
        (i, j): value(rng)
        for i in range(shape[0]) for j in range(shape[1])
        if rng.random() < density
    }


def _layout_operands(kind, shape, cells):
    array_semiring, dict_semiring = LAYOUT_PAIRS[kind]
    return (ScalarAnnotatedMatrix(array_semiring, shape, cells),
            AnnotatedMatrix(dict_semiring, shape, cells))


_VALUES = {
    "length": lambda rng: rng.randint(0, 9),
    "viterbi": lambda rng: rng.choice((1.0, 0.9, 0.5, 0.3, 0.27)),
    "counting": lambda rng: rng.randint(1, 40),
}


def _cells(matrix):
    return {(i, j): value for i, j, value in matrix.nonzero_cells()}


@requires_arrays
@pytest.mark.parametrize("kind", sorted(LAYOUT_PAIRS))
@pytest.mark.parametrize("seed", SEEDS)
def test_multiply_matches_dict_reference_on_rectangles(kind, seed):
    rng = random.Random(0xA77A1 ^ seed)
    rows, inner, cols = (rng.randint(1, 7) for _ in range(3))
    density = rng.choice((0.0, 0.2, 0.6, 1.0))
    left = _layout_operands(kind, (rows, inner), _random_cells(
        rng, (rows, inner), density, _VALUES[kind]))
    right = _layout_operands(kind, (inner, cols), _random_cells(
        rng, (inner, cols), rng.choice((0.0, 0.3, 1.0)), _VALUES[kind]))
    product = left[0].multiply(right[0])
    assert product.shape == (rows, cols)
    assert _cells(product) == _cells(left[1].multiply(right[1]))


@requires_arrays
@pytest.mark.parametrize("kind", sorted(LAYOUT_PAIRS))
@pytest.mark.parametrize("seed", SEEDS)
def test_union_update_delta_is_new_plus_improved(kind, seed):
    rng = random.Random(0x0DE17A ^ seed)
    shape = (rng.randint(1, 6), rng.randint(1, 6))
    before = _random_cells(rng, shape, 0.5, _VALUES[kind])
    incoming = _random_cells(rng, shape, rng.choice((0.0, 0.5, 1.0)),
                             _VALUES[kind])
    target, oracle = _layout_operands(kind, shape, before)
    other, oracle_other = _layout_operands(kind, shape, incoming)
    add = target.semiring.add
    merged = {
        pair: (add(before[pair], incoming[pair])
               if pair in before and pair in incoming
               else before.get(pair, incoming.get(pair)))
        for pair in before.keys() | incoming.keys()
    }
    delta = target.union_update(other)
    assert _cells(delta) == {pair: merged[pair] for pair in incoming
                             if merged[pair] != before.get(pair)}
    assert _cells(delta) == _cells(oracle.union_update(oracle_other))
    # Mutated in place, to the ⊕ of both operands.
    assert _cells(target) == _cells(oracle) == merged
    assert _cells(other) == incoming
    assert {pair: value for pair, value in _cells(target).items()
            if pair not in incoming} == {
        pair: before[pair] for pair in before.keys() - incoming.keys()
    }


@requires_arrays
@pytest.mark.parametrize("kind", sorted(LAYOUT_PAIRS))
def test_empty_operands(kind):
    array_semiring, _oracle = LAYOUT_PAIRS[kind]
    backend = AnnotatedBackend(array_semiring)
    empty = backend.zeros(3, 4)
    full = backend.from_pairs(4, [(0, 0), (3, 1)], cols=2)
    assert empty.multiply(full).nnz() == 0
    assert empty.multiply(full).shape == (3, 2)
    assert backend.zeros(2, 3).multiply(empty).nnz() == 0
    assert full.union_update(backend.zeros(4, 2)).nnz() == 0
    assert full.nnz() == 2
    delta = backend.zeros(4, 2).union_update(full)
    assert _cells(delta) == _cells(full)
    assert backend.clone(empty).nnz() == 0
    tiles = backend.split_into_tiles(backend.zeros(5), 2)
    assert len(tiles) == 9 and not any(t.nnz() for t in tiles.values())
    assert backend.assemble_from_tile_iter(tiles.items(), 5, 2).nnz() == 0


# -- the cell merge: ⊕, and whether it moved the cell --------------------

_CAPPED = CountingSemiring(cap=7, name="counting[merge-test]")
#: Per ``src/`` semiring, ``(held, incoming, merged)`` for one cell each:
#: a new cell (held None), an equal value, an improved and a worse one;
#: counting's ⊕ always moves a cell below the cap, so its cases are a
#: sum below, a sum reaching and a cell already at the cap.
_MERGE_CASES = {
    "boolean": (BOOLEAN_SEMIRING, [(None, True, True), (True, True, True)]),
    "length": (LENGTH_SEMIRING,
               [(None, 4, 4), (4, 4, 4), (5, 3, 3), (3, 5, 3)]),
    "viterbi": (VITERBI_SEMIRING,
                [(None, 0.5, 0.5), (0.5, 0.5, 0.5), (0.3, 0.9, 0.9),
                 (0.9, 0.3, 0.9)]),
    "counting": (_CAPPED,
                 [(None, 2, 2), (2, 3, 5), (5, 3, 7), (7, 1, 7)]),
}
_LAYOUTS = {"dict": AnnotatedMatrix, "array": ScalarAnnotatedMatrix}


@pytest.mark.parametrize("name, layout", [
    (name, layout) for name, (semiring, _cases) in sorted(_MERGE_CASES.items())
    for layout in ("dict", "array") if layout == "dict" or semiring.array_ops
])
def test_union_update_delta_is_what_add_moved(name, layout):
    """Both layouts fold an incoming cell into the held one with ⊕ and
    report it in the delta iff it is new or ⊕ moved it."""
    if _LAYOUTS[layout] is None:
        pytest.skip("the array layout needs NumPy")
    semiring, cases = _MERGE_CASES[name]
    shape = (1, len(cases))
    held = {(0, k): value for k, (value, _in, _out) in enumerate(cases)
            if value is not None}
    incoming = {(0, k): value for k, (_held, value, _out) in enumerate(cases)}
    merged = {(0, k): value for k, (_held, _in, value) in enumerate(cases)}
    target = _LAYOUTS[layout](semiring, shape, held)
    delta = target.union_update(_LAYOUTS[layout](semiring, shape, incoming))
    assert _cells(delta) == {pair: value for pair, value in merged.items()
                             if held.get(pair) != value}
    assert _cells(target) == merged


# ----------------------------------------------------------------------
# Snapshot bytes under either layout
# ----------------------------------------------------------------------
#
# ``annotated_layout`` puts one closure of an ``array_ops`` semiring on
# the row map or on the arrays.  Hiding the array class from the rule
# closes on the rows; with NumPy loaded (as in this process) the rule
# picks the arrays.

def _on_layout(layout: str, monkeypatch, solve):
    """``solve()`` with the rule left to pick the arrays, or with the
    array class hidden from it (the row map)."""
    with monkeypatch.context() as patch:
        if layout == "rows":
            patch.setattr(semiring_module, "ScalarAnnotatedMatrix", None)
        elif semiring_module._array_layout() is None:
            pytest.skip("the array layout needs NumPy")
        return solve()


@pytest.mark.parametrize("dataset", ["funding", "skos"])
def test_snapshot_bytes_do_not_depend_on_the_layout(dataset, tmp_path,
                                                    monkeypatch):
    """``repro-cfpq snapshot`` writes the same file whichever layout
    closed the length matrices."""
    graph_file = tmp_path / f"{dataset}.txt"
    with open(graph_file, "w", encoding="utf-8") as stream:
        dump_graph(build_graph(dataset), stream)
    written = {}
    for layout in ("rows", "arrays"):
        output = tmp_path / f"{layout}.snapshot"
        code = _on_layout(layout, monkeypatch, lambda: cli_main([
            "snapshot", "--graph", str(graph_file), "--grammar-name",
            "query1", "--output", str(output), "--semantics", "relational",
            "single-path"]))
        assert code == 0, layout
        written[layout] = output.read_bytes()
    assert written["rows"] == written["arrays"]
