"""Snapshot store: lossless round trips across backends × semantics.

The differential contract: an engine loaded from a snapshot must answer
**byte-identically** to the engine that saved it — for the relational,
single-path and all-path semantics, on every registered backend,
including loading under a *different* backend than the snapshot was
saved with (the payload-codec conversion path) — while running zero
closure rounds.  Plus the format guardrails: magic and version checks.
"""

from __future__ import annotations

import json
import os
import pickle

import pytest

from repro import CFPQEngine, QueryService, parse_grammar
from repro.core.semiring import get_semiring
from repro.errors import SnapshotError, SnapshotVersionError
from repro.core.single_path import extract_path, path_is_valid
from repro.graph.generators import two_cycles, word_chain
from repro.matrices.base import available_backends
from repro.service import snapshot as snapshot_store
from repro.service.snapshot import (
    SNAPSHOT_VERSION,
    load_engine_snapshot,
    read_snapshot,
    save_engine_snapshot,
    write_snapshot,
)

BACKENDS = available_backends()

ANBN = parse_grammar("S -> a S b | a b", terminals=["a", "b"])
#: Nullable variant: exercises the empty-path diagonal in every section.
ANBN_EPS = parse_grammar("S -> a S b | eps", terminals=["a", "b"])

SEMANTICS = ("relational", "single-path", "all-path")

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def _graph():
    return two_cycles(2, 3)


def _relational_answer(engine):
    return engine.relational("S")


def _single_path_answers(engine):
    """Every recorded (pair → path), byte-identical across engines
    because extraction tries rules in grammar order and midpoints in
    ascending order."""
    index = engine.single_path_index()
    out = {}
    for (i, j), entries in index.cells.items():
        for nonterminal in entries:
            out[(nonterminal, i, j)] = extract_path(
                index, nonterminal,
                engine.graph.node_at(i), engine.graph.node_at(j),
            )
    return out


def _all_path_answers(engine, bound=6):
    return {
        (i, j): engine.all_paths("S", engine.graph.node_at(i),
                                 engine.graph.node_at(j), max_length=bound)
        for i in range(engine.graph.node_count)
        for j in range(engine.graph.node_count)
    }


@pytest.mark.parametrize("grammar", [ANBN, ANBN_EPS],
                         ids=["anbn", "anbn-nullable"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_round_trip_same_backend(tmp_path, backend, grammar):
    engine = CFPQEngine(_graph(), grammar, backend=backend)
    relational = _relational_answer(engine)
    single = _single_path_answers(engine)
    allp = _all_path_answers(engine)

    path = str(tmp_path / "index.snapshot")
    size = save_engine_snapshot(path, engine, semantics=SEMANTICS)
    assert size > 0

    warm = load_engine_snapshot(path)
    assert warm.backend == backend
    # Zero closure rounds for every semantics.
    assert warm.solve().stats.iterations == 0
    assert warm.solve().stats.multiplications == 0
    assert warm.single_path_index().iterations == 0
    # Byte-identical answers.
    assert warm.relational("S") == relational
    assert _single_path_answers(warm) == single
    assert _all_path_answers(warm) == allp
    # The length index round-trips exactly; paths no longer depend on
    # cell order (extract_path reads rows in midpoint order).
    assert warm.single_path_index().cells == engine.single_path_index().cells


@pytest.mark.parametrize("save_backend", BACKENDS)
@pytest.mark.parametrize("load_backend", BACKENDS)
def test_round_trip_cross_backend(tmp_path, save_backend, load_backend):
    engine = CFPQEngine(_graph(), ANBN, backend=save_backend)
    relational = _relational_answer(engine)
    single = _single_path_answers(engine)

    path = str(tmp_path / "index.snapshot")
    save_engine_snapshot(path, engine, semantics=SEMANTICS)
    warm = load_engine_snapshot(path, backend=load_backend)
    assert warm.backend == load_backend
    assert warm.solve().stats.backend == load_backend
    assert warm.solve().stats.iterations == 0
    assert warm.relational("S") == relational
    assert _single_path_answers(warm) == single
    # The re-materialized matrices really are the target backend's type.
    some_matrix = next(iter(warm.solve().matrices.values()))
    assert some_matrix.backend_name == load_backend


def test_snapshot_paths_stay_valid(tmp_path):
    engine = CFPQEngine(word_chain(["a", "a", "b", "b"]), ANBN)
    path = str(tmp_path / "index.snapshot")
    save_engine_snapshot(path, engine)
    warm = load_engine_snapshot(path)
    index = warm.single_path_index()
    witness = extract_path(index, "S", 0, 4)
    assert path_is_valid(index, witness)
    assert len(witness) == 4


def _parent_format_payload(engine, seed=7):
    """The engine's snapshot as the parent commit wrote it: length cells
    in dict insertion order (here: shuffled) plus ``length_cell_order``,
    the merged cell-key order its ``extract_path`` depended on."""
    import random

    payload = snapshot_store.build_engine_payload(
        engine, ("relational", "single-path"))
    rng = random.Random(seed)
    for entry in payload["length"].values():
        rng.shuffle(entry["cells"])
    order = sorted({(i, j) for entry in payload["length"].values()
                    for i, j, _length in entry["cells"]})
    rng.shuffle(order)
    payload["length_cell_order"] = [list(pair) for pair in order]
    return payload


@pytest.mark.parametrize("grammar", [ANBN, ANBN_EPS],
                         ids=["anbn", "anbn-nullable"])
def test_parent_format_snapshot_warm_starts_single_path(tmp_path, grammar):
    """Files written before the arrays (list cells in any order, a
    ``length_cell_order`` section) still load: same lengths, zero
    closure rounds, valid minimal paths."""
    engine = CFPQEngine(_graph(), grammar)
    index = engine.single_path_index()
    path = str(tmp_path / "parent.snapshot")
    write_snapshot(path, _parent_format_payload(engine))

    warm_engine = load_engine_snapshot(path)
    assert warm_engine.single_path_index().cells == index.cells
    assert warm_engine.single_path_index().iterations == 0

    service = QueryService.from_snapshot(path)
    assert service.single_path is True
    assert service.stats["startup"]["closure_iterations"] == 0
    graph = service.graph
    for (i, j), entries in index.cells.items():
        for nonterminal, length in entries.items():
            source, target = graph.node_at(i), graph.node_at(j)
            assert service.query(nonterminal, source, target,
                                 semantics="length") == length
            found = service.query(nonterminal, source, target,
                                  semantics="single-path")
            assert len(found) == length
            assert path_is_valid(index, tuple(
                (graph.node_id(a), label, graph.node_id(b))
                for a, label, b in found))


def test_snapshot_drops_cell_order_and_does_not_grow(tmp_path):
    """The writer no longer emits ``length_cell_order`` (paths are a
    function of the index alone), the file loads on both warm-start
    entry points, and it is smaller than the parent-format file of the
    same engine."""
    engine = CFPQEngine(_graph(), ANBN)
    new = str(tmp_path / "new.snapshot")
    size = save_engine_snapshot(new, engine,
                                semantics=("relational", "single-path"))
    payload = read_snapshot(new)
    assert "length_cell_order" not in payload
    for entry in payload["length"].values():
        assert entry["cells"] == sorted(entry["cells"])
        assert all(type(x) is int for cell in entry["cells"] for x in cell)
    old = str(tmp_path / "parent.snapshot")
    assert size < write_snapshot(old, _parent_format_payload(engine))

    cells = engine.single_path_index().cells
    assert load_engine_snapshot(new).single_path_index().cells == cells
    service = QueryService.from_snapshot(new)
    lengths: dict = {}
    for (i, j), entries in cells.items():
        for nonterminal, length in entries.items():
            lengths.setdefault(nonterminal, set()).add((i, j, length))
    assert service.solver.export_state() == {"facts": lengths}


def test_partial_snapshot_solves_missing_sections(tmp_path):
    """A relational-only snapshot still serves single-path queries —
    by solving them lazily, not by failing."""
    engine = CFPQEngine(_graph(), ANBN)
    path = str(tmp_path / "index.snapshot")
    save_engine_snapshot(path, engine, semantics=("relational",))
    warm = load_engine_snapshot(path)
    assert warm.solve().stats.iterations == 0
    assert warm.single_path("S", 0, 0)  # lazily solved
    assert warm.single_path_index().iterations > 0


def test_all_path_snapshot_is_its_relational_section(tmp_path):
    """The forest is a view of the relations: asking for ``all-path``
    stores the relational section and nothing else, and the loaded
    engine enumerates with zero closure rounds."""
    engine = CFPQEngine(_graph(), ANBN)
    path = str(tmp_path / "index.snapshot")
    save_engine_snapshot(path, engine, semantics=("all-path",))
    payload = read_snapshot(path)
    assert "relational" in payload
    assert "witness" not in payload and "length" not in payload
    warm = load_engine_snapshot(path)
    assert _all_path_answers(warm) == _all_path_answers(engine)
    assert warm.solve().stats.iterations == 0


def test_parent_snapshot_with_witness_section_still_loads(ranking):
    """``fixtures/engine_allpath_parent.snapshot`` was written by the
    last commit whose ``all-path`` snapshots stored the witness closure
    (``CFPQEngine(two_cycles(2, 3), dyck, backend="pyset")``, all three
    semantics), beside the answers that commit gave.  The section is
    ignored; every answer is unchanged, and the retired ``pyset`` name
    loads as ``setmatrix``; the top-k order is the same under both
    ranking semirings (uniform weights)."""
    snapshot = os.path.join(FIXTURES, "engine_allpath_parent.snapshot")
    with open(os.path.join(FIXTURES, "engine_allpath_parent.json")) as stream:
        expected = json.load(stream)
    assert "witness" in read_snapshot(snapshot)

    warm = load_engine_snapshot(snapshot)
    assert warm.backend == "setmatrix"
    graph = warm.graph
    forest = warm.all_path_index()
    assert warm.solve().stats.iterations == 0
    assert warm.single_path_index().iterations == 0

    def plain(path):
        return [list(edge) for edge in path]

    pairs = sorted(warm.relations().pairs("S"))
    assert [list(pair) for pair in pairs] == expected["relational"]
    for i, j in pairs:
        key = f"{i},{j}"
        source, target = graph.node_at(i), graph.node_at(j)
        assert [plain(path) for path in forest.top_k(
            "S", source, target, 6, rank=get_semiring(ranking))] \
            == expected["top_k"][key]
        assert sorted(plain(path) for path in warm.all_paths(
            "S", source, target, 8)) == expected["all_paths"][key]
        assert forest.count_paths("S", source, target, 8) \
            == expected["count_paths"][key]
        assert plain(warm.single_path("S", source, target)) \
            == expected["single_path"][key]


@pytest.mark.parametrize("backend", BACKENDS)
def test_retired_pyset_payload_tags_decode_on_every_backend(backend):
    """Payloads tagged ``"pyset"`` carry the generic coordinate tuple;
    they decode to the same cells under every backend."""
    snapshot = os.path.join(FIXTURES, "engine_allpath_parent.snapshot")
    matrices = read_snapshot(snapshot)["relational"]["matrices"]
    assert {payload[0] for payload in matrices.values()} == {"pyset"}
    decoded = dict(snapshot_store.iter_decoded_matrices(matrices, backend))
    assert sorted(symbol.name for symbol in decoded) == sorted(matrices)
    for symbol, matrix in decoded.items():
        _tag, rows, cols, pairs = matrices[symbol.name]
        assert matrix.backend_name == backend
        assert matrix.shape == (rows, cols)
        assert matrix.to_pair_set() == set(pairs)


@pytest.mark.parametrize("backend", BACKENDS)
def test_parent_engine_snapshot_loads_under_every_backend(backend):
    snapshot = os.path.join(FIXTURES, "engine_allpath_parent.snapshot")
    with open(os.path.join(FIXTURES, "engine_allpath_parent.json")) as stream:
        expected = json.load(stream)
    warm = load_engine_snapshot(snapshot, backend=backend)
    assert warm.backend == backend
    assert warm.solve().stats.iterations == 0
    pairs = sorted(warm.relations().pairs("S"))
    assert [list(pair) for pair in pairs] == expected["relational"]
    graph = warm.graph
    for i, j in pairs:
        path = warm.single_path("S", graph.node_at(i), graph.node_at(j))
        assert [list(edge) for edge in path] \
            == expected["single_path"][f"{i},{j}"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_parent_service_snapshot_loads_under_every_backend(backend):
    snapshot = os.path.join(FIXTURES, "service_single_path_parent.snapshot")
    with open(os.path.join(FIXTURES,
                           "service_single_path_parent.json")) as stream:
        expected = json.load(stream)
    service = QueryService.from_snapshot(snapshot, backend=backend)
    assert service.backend == backend
    assert service.stats["startup"]["closure_iterations"] == 0
    pairs = sorted(service.query("S"))
    assert [list(pair) for pair in pairs] == expected["relational"]
    for source, target in pairs:
        assert service.query("S", source, target, semantics="length") \
            == expected["length"][f"{source},{target}"]


def test_retired_backend_header_reads_as_setmatrix(tmp_path):
    engine = CFPQEngine(_graph(), ANBN, backend="setmatrix")
    payload = snapshot_store.build_engine_payload(engine)
    payload["backend"] = "pyset"
    path = str(tmp_path / "retired.snapshot")
    write_snapshot(path, payload)
    assert read_snapshot(path)["backend"] == "setmatrix"
    warm = load_engine_snapshot(path)
    assert warm.backend == "setmatrix"
    assert warm.relational("S") == engine.relational("S")


def test_header_without_backend_stays_without_one(tmp_path):
    path = str(tmp_path / "headless.snapshot")
    write_snapshot(path, {"graph": {}})
    assert "backend" not in read_snapshot(path)


def _header(version) -> bytes:
    return (snapshot_store.MAGIC.encode() + b"\x00"
            + str(version).encode() + b"\n")


def test_version_mismatch_is_rejected(tmp_path):
    path = str(tmp_path / "future.snapshot")
    with open(path, "wb") as stream:
        stream.write(_header(99))
        pickle.dump({"payload": {}}, stream)
    with pytest.raises(SnapshotVersionError) as excinfo:
        read_snapshot(path)
    assert "99" in str(excinfo.value)
    assert str(SNAPSHOT_VERSION) in str(excinfo.value)


def test_foreign_files_are_rejected(tmp_path):
    not_pickle = tmp_path / "garbage.snapshot"
    not_pickle.write_bytes(b"\x00not a snapshot at all")
    with pytest.raises(SnapshotError):
        read_snapshot(str(not_pickle))

    wrong_magic = tmp_path / "other.snapshot"
    with open(wrong_magic, "wb") as stream:
        pickle.dump({"something": "else"}, stream)
    with pytest.raises(SnapshotError):
        read_snapshot(str(wrong_magic))

    missing = tmp_path / "does-not-exist.snapshot"
    with pytest.raises(SnapshotError):
        read_snapshot(str(missing))

    # A well-framed snapshot that is not a CFPQ index: both loaders
    # name the missing section instead of raising KeyError.
    sectionless = str(tmp_path / "sectionless.snapshot")
    write_snapshot(sectionless, {"hello": [1]})
    for load in (QueryService.from_snapshot, CFPQEngine.from_snapshot):
        with pytest.raises(SnapshotError, match="'graph'"):
            load(sectionless)


def test_failed_save_leaves_the_previous_file(tmp_path):
    """A save is written beside the target and renamed over it: a save
    that fails mid-pickle leaves the previous snapshot loadable and no
    temporary file behind."""
    engine = CFPQEngine(_graph(), ANBN)
    path = str(tmp_path / "index.snapshot")
    save_engine_snapshot(path, engine)
    payload = snapshot_store.build_engine_payload(engine)
    payload["relational"]["stats"]["gadget"] = lambda: None
    with pytest.raises((pickle.PicklingError, AttributeError)):
        write_snapshot(path, payload)
    assert os.listdir(tmp_path) == ["index.snapshot"]
    warm = load_engine_snapshot(path)
    assert warm.solve().stats.iterations == 0
    assert warm.relational("S") == engine.relational("S")


def test_crafted_pickle_body_cannot_reach_classes(tmp_path):
    """The body is unpickled through a loader that refuses every class
    lookup, so a pickle smuggling a callable (the classic
    os.system-style gadget) dies in find_class instead of executing."""
    path = str(tmp_path / "evil.snapshot")
    with open(path, "wb") as stream:
        stream.write(_header(SNAPSHOT_VERSION))
        pickle.dump({"payload": {"gadget": print}}, stream)
    with pytest.raises(SnapshotError) as excinfo:
        read_snapshot(path)
    assert "plain containers" in str(excinfo.value)


def test_envelope_records_version(tmp_path):
    path = str(tmp_path / "v.snapshot")
    write_snapshot(path, {"hello": [1, 2, 3]})
    with open(path, "rb") as stream:
        assert stream.readline() == _header(SNAPSHOT_VERSION)
    assert read_snapshot(path) == {"hello": [1, 2, 3]}


@pytest.mark.parametrize("single_path", [False, True])
def test_incremental_state_round_trip(tmp_path, single_path):
    """Facts and lengths survive a service save→load, and the warm
    solver continues updating exactly like the original.  The file has
    the engine's layout: ``relational``, plus ``length`` for
    single-path, and no ``incremental`` copy of the facts."""
    service = QueryService(two_cycles(2, 3), ANBN, single_path=single_path)
    service.update(inserts=[("x", "a", "y"), ("y", "b", "x")])
    service.update(deletes=[("x", "a", "y")])
    path = str(tmp_path / "service.snapshot")
    service.save_snapshot(path)
    payload = read_snapshot(path)
    assert "incremental" not in payload
    assert ("length" in payload) is single_path

    twin = QueryService.from_snapshot(path)
    solver, warm = service.solver, twin.solver
    assert twin.single_path is single_path
    assert warm.initial_closure_iterations == 0
    assert warm.relations().same_as(solver.relations())
    assert warm.export_state() == solver.export_state()
    # The engine reads the same file with zero rounds, lengths included.
    engine = CFPQEngine.from_snapshot(path)
    assert engine.solve().stats.iterations == 0
    if single_path:
        index = engine.single_path_index()
        assert index.iterations == 0
        assert index.cells == CFPQEngine(
            service.graph, ANBN).single_path_index().cells

    # Updates after the warm start stay in lockstep.
    batch = [("p", "a", "q"), ("q", "b", "p")]
    assert warm.add_edges(batch) == solver.add_edges(batch)
    assert warm.remove_edges(batch[:1]) == solver.remove_edges(batch[:1])
    assert warm.relations().same_as(solver.relations())
    assert warm.export_state() == solver.export_state()


def test_decode_ignores_supports_section_of_older_snapshots(tmp_path):
    """A service snapshot written while DRed still kept a support store
    carries an ``incremental`` section with facts, lengths and
    ``supports`` next to ``relational``.  The format version did not
    move, so such a file must warm-start: facts from ``relational``,
    lengths from the old section, the rest ignored."""
    from repro.grammar.symbols import Nonterminal

    grammar = parse_grammar("S -> A B\nA -> a\nB -> b",
                            terminals=["a", "b"])
    graph = word_chain(["a", "b"])
    payload = snapshot_store.encode_problem(graph, grammar, "setmatrix",
                                            "delta")
    payload["relational"] = {"matrices": snapshot_store.encode_relations(
        {Nonterminal("S"): [(0, 2)], Nonterminal("A"): [(0, 1)],
         Nonterminal("B"): [(1, 2)]}, "setmatrix", graph.node_count)}
    payload["incremental"] = {
        "facts": {"S": [[0, 2]], "A": [[0, 1]], "B": [[1, 2]]},
        "lengths": [["A", 0, 1, 1], ["B", 1, 2, 1], ["S", 0, 2, 2]],
        "supports": [
            [["A", 0, 1], [["edge", "a"]]],
            [["B", 1, 2], [["edge", "b"]]],
            [["S", 0, 2], [["split", "A", "B", 1]]],
        ],
    }
    path = str(tmp_path / "older.snapshot")
    write_snapshot(path, payload)

    service = QueryService.from_snapshot(path)
    solver = service.solver
    assert service.single_path is True
    assert solver.initial_closure_iterations == 0
    assert set(solver.export_state()) == {"facts"}
    assert solver.length_of("S", 0, 2) == 2
    assert solver.remove_edge(0, "a", 1) == 2
    assert solver.pairs(Nonterminal("B")) == {(1, 2)}


def test_parent_service_single_path_snapshot_warm_starts():
    """``fixtures/service_single_path_parent.snapshot`` was written by
    the last commit whose service snapshots kept an ``incremental``
    copy of their facts and lengths (``QueryService(two_cycles(2, 3),
    a^n b^n, backend="pyset", single_path=True)`` after one insert
    tick), beside the answers that commit gave.  It has no ``length``
    section, yet it warm-starts single-path with zero closure rounds
    and answers as it did; the retired ``pyset`` name loads as
    ``setmatrix``."""
    snapshot = os.path.join(FIXTURES, "service_single_path_parent.snapshot")
    with open(os.path.join(FIXTURES,
                           "service_single_path_parent.json")) as stream:
        expected = json.load(stream)
    payload = read_snapshot(snapshot)
    assert "incremental" in payload and "length" not in payload

    service = QueryService.from_snapshot(snapshot)
    assert service.backend == "setmatrix"
    assert service.single_path is True
    assert service.stats["startup"]["closure_iterations"] == 0
    pairs = sorted(service.query("S"))
    assert [list(pair) for pair in pairs] == expected["relational"]
    for source, target in pairs:
        key = f"{source},{target}"
        assert service.query("S", source, target, semantics="length") \
            == expected["length"][key]
        assert [list(edge) for edge in service.query(
            "S", source, target, semantics="single-path")] \
            == expected["single_path"][key]


@pytest.mark.parametrize("source", ["service", "engine", "from_engine"])
def test_single_path_warm_start_answers_as_a_cold_one(tmp_path, source):
    """A single-path service warm-started from a service or an engine
    snapshot, or from an engine, adopts the closed lengths as its facts
    and lengths at once: on funding·Q1 ``length_of``, ``export_state()``
    and the bytes ``save`` writes equal a cold service's."""
    import filecmp

    from repro import LabeledGraph
    from repro.datasets.registry import build_graph
    from repro.grammar.builders import same_generation_query1

    base = build_graph("funding")
    grammar = same_generation_query1()

    def graph():
        return LabeledGraph.from_edges(base.edges(), nodes=list(base.nodes))

    cold = QueryService(graph(), grammar, single_path=True)
    saved = str(tmp_path / "saved.snapshot")
    if source == "service":
        cold.save_snapshot(saved)
    elif source == "engine":
        save_engine_snapshot(saved, CFPQEngine(graph(), grammar),
                             semantics=("relational", "single-path"))
    if source == "from_engine":
        warm = QueryService.from_engine(CFPQEngine(graph(), grammar),
                                        single_path=True)
    else:
        warm = QueryService.from_snapshot(saved)
    assert warm.single_path is True
    assert warm.stats["startup"]["warm_start"] is True
    assert warm.solver.initial_closure_iterations == 0

    state = cold.solver.export_state()
    assert warm.solver.export_state() == state
    nodes = cold.graph.node_at
    for nonterminal, cells in state["facts"].items():
        for i, j, length in cells:
            for source_id, target_id in ((i, j), (j, i)):
                source_node, target_node = nodes(source_id), nodes(target_id)
                assert warm.solver.length_of(
                    nonterminal, source_node, target_node) \
                    == cold.solver.length_of(
                        nonterminal, source_node, target_node)
            assert warm.solver.length_of(nonterminal, nodes(i),
                                         nodes(j)) == length

    warm_path = str(tmp_path / "warm.snapshot")
    cold_path = str(tmp_path / "cold.snapshot")
    warm.save_snapshot(warm_path)
    cold.save_snapshot(cold_path)
    assert filecmp.cmp(warm_path, cold_path, shallow=False)


@pytest.mark.parametrize("single_path", [False, True])
def test_updated_and_cold_started_dred_snapshots_byte_identical(tmp_path,
                                                                single_path):
    """After an interleaved insert/delete sequence a service saves the
    **byte-identical** snapshot file of a service cold-started on the
    final graph — DRed leaves no state behind that a from-scratch solve
    would not have."""
    import filecmp
    import random

    from repro import LabeledGraph

    updated = QueryService(two_cycles(2, 3), ANBN, single_path=single_path)
    rng = random.Random(0xD1FF)
    for _ in range(6):
        edge = (rng.randrange(8), rng.choice("ab"), rng.randrange(8))
        updated.update(inserts=[edge])
        if rng.random() < 0.5:
            updated.update(deletes=[edge])
    final = updated.solver.graph
    cold = QueryService(
        LabeledGraph.from_edges(list(final.edges()), nodes=list(final.nodes)),
        ANBN, single_path=single_path)
    assert updated.solver.stats["edge_removals"] > 0

    updated_path = str(tmp_path / "updated.snapshot")
    cold_path = str(tmp_path / "cold.snapshot")
    assert updated.save_snapshot(updated_path) > 0
    assert cold.save_snapshot(cold_path) > 0
    assert filecmp.cmp(updated_path, cold_path, shallow=False)


# ----------------------------------------------------------------------
# Sections that do not fit the decoded problem
# ----------------------------------------------------------------------

LOADERS = (QueryService.from_snapshot, CFPQEngine.from_snapshot)


def _engine_payload(semantics=("relational", "single-path")):
    engine = CFPQEngine(_graph(), ANBN, backend="setmatrix")
    return engine, snapshot_store.build_engine_payload(engine, semantics)


@pytest.mark.parametrize("edge", [[-1, "a", 0], [0, "a", 3]])
def test_edge_outside_the_node_list_is_refused(tmp_path, edge):
    """An id of -1 used to wrap to the last node, one past the end
    raised a bare IndexError."""
    payload = snapshot_store.encode_problem(
        word_chain(["a", "b"]), ANBN, "setmatrix", "delta")
    assert payload["graph"]["nodes"] == [0, 1, 2]
    payload["graph"]["edges"].append(edge)
    path = str(tmp_path / "edge.snapshot")
    write_snapshot(path, payload)
    for load in LOADERS:
        with pytest.raises(SnapshotError, match="node id outside 0..2"):
            load(path)


def test_relational_matrix_of_another_shape_is_refused(tmp_path):
    """A matrix three rows and columns too large used to load and fail
    the first query with an IndexError."""
    engine, payload = _engine_payload(("relational",))
    n = engine.graph.node_count
    payload["relational"]["matrices"].update(snapshot_store.encode_relations(
        {ANBN.resolve_nonterminal("S"): [(0, n + 2)]}, "setmatrix", n + 3))
    path = str(tmp_path / "shape.snapshot")
    write_snapshot(path, payload)
    for load in LOADERS:
        with pytest.raises(SnapshotError, match=f"{n + 3}x{n + 3}"):
            load(path)


def test_length_cell_off_the_graph_is_refused(tmp_path):
    """A single-path service adopts the ``length`` cells as its facts,
    so a cell past the last node is refused, not kept as a fact no node
    names; both loaders refuse it with a library error, which the CLI
    prints as one ``error:`` line (the engine's used to escape as a bare
    ValueError)."""
    from repro.errors import ReproError

    engine, payload = _engine_payload()
    n = engine.graph.node_count
    payload["length"]["S"]["cells"].append([0, n + 2, 3])
    path = str(tmp_path / "cell.snapshot")
    write_snapshot(path, payload)
    for load in LOADERS:
        with pytest.raises(ReproError, match="off the graph|outside"):
            load(path)


@pytest.mark.parametrize("section", ["relational", "length"])
def test_section_naming_a_nonterminal_the_grammar_lacks_is_refused(
        tmp_path, section):
    """``Ghost`` used to load silently into the engine and fail the
    service with a bare KeyError."""
    _engine, payload = _engine_payload()
    matrices = (payload["relational"]["matrices"] if section == "relational"
                else payload["length"])
    matrices["Ghost"] = matrices["S"]
    path = str(tmp_path / "ghost.snapshot")
    write_snapshot(path, payload)
    for load in LOADERS:
        with pytest.raises(SnapshotError, match="'Ghost'"):
            load(path)


# ----------------------------------------------------------------------
# One encoder, one load path
# ----------------------------------------------------------------------

@pytest.mark.parametrize("semantics", [("relational",),
                                       ("relational", "single-path")])
@pytest.mark.parametrize("backend", BACKENDS)
def test_engine_and_service_write_one_relational_section(
        tmp_path, backend, semantics):
    """For one fixpoint the engine's relational section (from its
    boolean or its length closure) and the service's (from its row
    maps) are the same bytes on every backend."""
    from repro.datasets.registry import build_graph
    from repro.grammar import get_grammar

    graph, grammar = build_graph("skos"), get_grammar("query1")
    engine = CFPQEngine(graph, grammar, backend=backend)
    service = QueryService(graph, grammar, backend=backend)
    engine_path = str(tmp_path / "engine.snapshot")
    service_path = str(tmp_path / "service.snapshot")
    save_engine_snapshot(engine_path, engine, semantics=semantics)
    service.save_snapshot(service_path)
    sections = [read_snapshot(path)["relational"]["matrices"]
                for path in (engine_path, service_path)]
    assert pickle.dumps(sections[0]) == pickle.dumps(sections[1])


def test_budgeted_load_keeps_the_matrices_resident(tmp_path, monkeypatch):
    """``REPRO_MEMORY_BUDGET`` governs closures, not loads: the decoded
    matrices are the relations, and no pair set is built beside them."""
    from repro.matrices.base import BooleanMatrix

    engine = CFPQEngine(_graph(), ANBN)
    path = str(tmp_path / "index.snapshot")
    save_engine_snapshot(path, engine, semantics=("relational",))
    expected = engine.relational("S"), engine.count("S")

    def refuse(_matrix):
        raise AssertionError("a pair set was built")

    monkeypatch.setenv("REPRO_MEMORY_BUDGET", "1K")
    monkeypatch.setattr(BooleanMatrix, "to_pair_set", refuse)
    warm = load_engine_snapshot(path)
    assert warm.solve().stats.iterations == 0
    assert (warm.relational("S"), warm.count("S")) == expected
