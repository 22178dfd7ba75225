"""Every exit of the array-native annotation layout hands out Python
scalars.

The length/Viterbi/counting closures hold their cells in NumPy arrays;
a NumPy scalar hashes and compares equal to the Python one but breaks
``json.dumps`` and the byte-compared reply lines of the serving
benchmarks.  So every way a value leaves the arrays — cell iteration,
probes, the single-path index, the incremental solver's warm state,
the snapshot encoder, ``cli --json`` and the server's replies — must
yield ``int`` / ``float``, and must survive a JSON round trip.
"""

from __future__ import annotations

import json

import pytest

from repro import CFPQEngine, QueryService, parse_grammar
from repro.cli import main
from repro.core.incremental import IncrementalSinglePathCFPQ
from repro.core.semiring import (
    COUNTING_SEMIRING,
    LENGTH_SEMIRING,
    VITERBI_SEMIRING,
    solve_annotated,
)
from repro.graph.generators import two_cycles
from repro.graph.io import save_graph_file
from repro.service.server import handle_request
from repro.service.snapshot import encode_annotated_matrices

ANBN = parse_grammar("S -> a S b | a b", terminals=["a", "b"])
SCALAR = {"length": (LENGTH_SEMIRING, int),
          "viterbi": (VITERBI_SEMIRING, float),
          "counting": (COUNTING_SEMIRING, int)}


def _round_trips(value) -> bool:
    return json.loads(json.dumps(value)) == value


@pytest.mark.parametrize("name", sorted(SCALAR))
def test_matrix_exits_are_python_scalars(name):
    semiring, scalar = SCALAR[name]
    graph = two_cycles(2, 3)
    result = solve_annotated(graph, ANBN, semiring)
    encoded = encode_annotated_matrices(
        {nonterminal: zip(*matrix.columns())
         for nonterminal, matrix in result.matrices.items()},
        graph.node_count, semiring)
    assert _round_trips(encoded)
    seen = 0
    for nonterminal, matrix in result.matrices.items():
        rows, cols, values = matrix.columns()
        assert list(matrix.nonzero_cells()) == list(zip(rows, cols, values))
        for i, j, value in matrix.nonzero_cells():
            seen += 1
            assert type(i) is int and type(j) is int
            assert type(value) is scalar
            assert type(matrix.value_at(i, j)) is scalar
            assert matrix.value_at(i, j) == value
        for i, j, value in encoded[nonterminal.name]["cells"]:
            assert (type(i), type(j), type(value)) == (int, int, scalar)
        assert _round_trips([list(cell) for cell in matrix.nonzero_cells()])
    assert seen


def test_single_path_and_warm_state_lengths_are_ints():
    engine = CFPQEngine(two_cycles(2, 3), ANBN)
    index = engine.single_path_index()
    for (i, j), entries in index.cells.items():
        for nonterminal, length in entries.items():
            assert type(length) is int
            assert type(index.length_of(nonterminal, i, j)) is int

    solver = IncrementalSinglePathCFPQ(two_cycles(2, 3), ANBN)
    # A batch of 210 edges on top of lengths adopted from the arrays.
    solver.add_edges([(f"n{k}", "ab"[k % 2], f"n{k + 1}")
                      for k in range(210)])
    cells = [cell for cells in solver.export_state()["facts"].values()
             for cell in cells]
    assert cells and all(type(x) is int for cell in cells for x in cell)
    assert type(solver.length_of("S", "n0", "n2")) is int
    # What a service snapshot's ``length`` section is encoded from.
    assert _round_trips(encode_annotated_matrices(
        solver.length_cells(), solver.graph.node_count, LENGTH_SEMIRING))


def test_server_length_and_path_replies_serialize():
    service = QueryService.from_engine(CFPQEngine(two_cycles(2, 3), ANBN),
                                       single_path=True)
    pair = next(iter(sorted(service.query("S"))))
    for semantics in ("length", "single-path"):
        response = handle_request(service, {
            "op": "query", "start": "S", "source": pair[0],
            "target": pair[1], "semantics": semantics,
        })
        assert response["ok"] is True
        assert _round_trips(response["result"])
    assert type(service.query("S", *pair, semantics="length")) is int


@pytest.mark.parametrize("name", sorted(SCALAR))
def test_cli_semiring_json_values(tmp_path, capsys, name):
    path = str(tmp_path / "cycles.txt")
    save_graph_file(two_cycles(2, 3), path)
    grammar = tmp_path / "anbn.cfg"
    grammar.write_text("S -> a S b\nS -> a b\n")
    assert main(["query", "--graph", path, "--grammar", str(grammar),
                 "--semiring", name, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == len(payload["pairs"]) > 0
    assert all(type(value) is SCALAR[name][1]
               for _source, _target, value in payload["pairs"])


def test_cli_counting_ignores_the_closure_strategy(tmp_path, capsys):
    """Counting always closes by Kleene iteration: a strategy must change
    neither the counts nor their rendering (its tile flags are refused,
    ``tests/test_cli.py``)."""
    path = str(tmp_path / "cycles.txt")
    save_graph_file(two_cycles(2, 3), path)
    query = ["query", "--graph", path, "--grammar-name", "dyck1",
             "--semiring", "counting", "--json"]
    assert main(query) == 0
    default = capsys.readouterr().out
    assert main([*query, "--strategy", "blocked"]) == 0
    assert capsys.readouterr().out == default
    counts = [count for _s, _t, count in json.loads(default)["pairs"]]
    assert counts and max(counts) == COUNTING_SEMIRING.cap
