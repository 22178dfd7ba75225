"""Tests for grammar symbols and inverse-label conventions."""

import pytest

from repro.grammar.symbols import (
    EPSILON,
    Nonterminal,
    Terminal,
    fresh_nonterminal,
    inverse_label,
    is_inverse_label,
)


class TestTerminal:
    def test_equality_by_label(self):
        assert Terminal("a") == Terminal("a")
        assert Terminal("a") != Terminal("b")

    def test_hashable(self):
        assert len({Terminal("a"), Terminal("a"), Terminal("b")}) == 2

    def test_str(self):
        assert str(Terminal("subClassOf")) == "subClassOf"

    def test_empty_label_rejected(self):
        with pytest.raises(ValueError):
            Terminal("")

    def test_inverse_property_round_trips(self):
        t = Terminal("subClassOf")
        assert t.inverse == Terminal("subClassOf_r")
        assert t.inverse.inverse == t

    def test_terminal_not_equal_nonterminal(self):
        assert Terminal("x") != Nonterminal("x")


class TestNonterminal:
    def test_equality_by_name(self):
        assert Nonterminal("S") == Nonterminal("S")
        assert Nonterminal("S") != Nonterminal("S1")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Nonterminal("")

    def test_repr_contains_name(self):
        assert "S" in repr(Nonterminal("S"))


class TestEpsilon:
    def test_singleton(self):
        assert EPSILON is type(EPSILON)()

    def test_equality_and_hash(self):
        assert EPSILON == type(EPSILON)()
        assert hash(EPSILON) == hash(type(EPSILON)())

    def test_str(self):
        assert str(EPSILON) == "eps"


class TestInverseLabels:
    def test_forward_to_inverse(self):
        assert inverse_label("type") == "type_r"

    def test_inverse_to_forward(self):
        assert inverse_label("type_r") == "type"

    def test_involution(self):
        for label in ["a", "subClassOf", "x_r", "type_r"]:
            assert inverse_label(inverse_label(label)) == label

    def test_is_inverse_label(self):
        assert is_inverse_label("a_r")
        assert not is_inverse_label("a")
        # the bare suffix is not an inverse label
        assert not is_inverse_label("_r")

    def test_label_that_is_only_suffix_gains_suffix(self):
        assert inverse_label("_r") == "_r_r"


class TestFreshNonterminal:
    def test_no_collision_returns_base(self):
        assert fresh_nonterminal("X", set()) == Nonterminal("X")

    def test_collision_appends_counter(self):
        taken = {Nonterminal("X"), Nonterminal("X1")}
        assert fresh_nonterminal("X", taken) == Nonterminal("X2")


# ----------------------------------------------------------------------
# Interning contract
# ----------------------------------------------------------------------

class TestInterning:
    """Symbols are interned: one object per ``(class, name)`` per
    process, identity equality, and every way of copying or shipping a
    symbol lands on that one object again."""

    def test_same_name_same_object(self):
        assert Nonterminal("S") is Nonterminal("S")
        assert Terminal("a") is Terminal("a")
        assert Terminal("a").inverse.inverse is Terminal("a")
        assert Nonterminal("S").name == "S" and Terminal("a").label == "a"

    def test_equality_and_hash_are_the_identity_slots(self):
        for cls in (Terminal, Nonterminal):
            assert cls.__eq__ is object.__eq__
            assert cls.__hash__ is object.__hash__

    def test_classes_intern_apart(self):
        terminal, nonterminal = Terminal("x"), Nonterminal("x")
        assert terminal is not nonterminal
        assert terminal != nonterminal
        assert type(terminal) is Terminal and type(nonterminal) is Nonterminal
        assert len({terminal, nonterminal}) == 2

    @pytest.mark.parametrize("cls", [Terminal, Nonterminal])
    def test_empty_name_raises_and_interns_nothing(self, cls):
        from repro.grammar import symbols

        for _ in range(2):
            with pytest.raises(ValueError):
                cls("")
        assert (cls, "") not in symbols._INTERNED

    @pytest.mark.parametrize("symbol", [Terminal("a"), Nonterminal("S")])
    def test_attributes_cannot_be_set(self, symbol):
        attribute = "label" if isinstance(symbol, Terminal) else "name"
        with pytest.raises(AttributeError):
            setattr(symbol, attribute, "other")
        with pytest.raises(AttributeError):
            delattr(symbol, attribute)
        with pytest.raises(AttributeError):
            symbol.extra = 1
        assert getattr(symbol, attribute) in ("a", "S")

    @pytest.mark.parametrize("symbol", [Terminal("a"), Nonterminal("S"),
                                        EPSILON])
    def test_pickle_copy_deepcopy_return_the_identical_object(self, symbol):
        import copy
        import pickle

        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(symbol, protocol)) is symbol
        assert copy.copy(symbol) is symbol
        assert copy.deepcopy(symbol) is symbol
        nested = {"rule": (symbol, [symbol])}
        clone = copy.deepcopy(nested)
        assert clone["rule"][0] is symbol and clone["rule"][1][0] is symbol

    def test_threads_racing_on_fresh_names_agree_on_one_object(self):
        """More threads than cores and a short switch interval: a lost
        ``setdefault`` race would hand two threads different objects
        for one name."""
        import sys
        import threading
        import uuid

        names = [f"race-{uuid.uuid4().hex}-{k}" for k in range(200)]
        workers = 8
        barrier = threading.Barrier(workers)
        seen: list[list] = [[] for _ in range(workers)]

        def construct(slot: int) -> None:
            barrier.wait(timeout=30)
            for name in names:
                seen[slot].append((Nonterminal(name), Terminal(name)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=construct, args=(slot,))
                       for slot in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for position, name in enumerate(names):
            row = {tuple(map(id, seen[slot][position]))
                   for slot in range(workers)}
            assert len(row) == 1
            assert seen[0][position][0] is Nonterminal(name)
            assert seen[0][position][1] is Terminal(name)


class TestEdgeLabelsAreNotInterned:
    """The intern table lives as long as the process, so graph-side
    code resolves an edge label through ``CFG.heads_for_label`` and
    never constructs a ``Terminal`` for it: a label no grammar rule
    mentions — a served update may carry any string — leaves no entry
    behind."""

    @staticmethod
    def _interned(label: str) -> bool:
        from repro.grammar import symbols

        return (Terminal, label) in symbols._INTERNED

    def test_solvers_and_service_leave_unknown_labels_alone(self):
        import uuid

        from repro.baselines.hellings import solve_hellings
        from repro.core.incremental import IncrementalSinglePathCFPQ
        from repro.core.matrix_cfpq import solve_matrix_relations
        from repro.core.path_index import AllPathIndex
        from repro.core.single_path import build_single_path_index
        from repro.grammar.builders import get_grammar
        from repro.grammar.cnf import to_cnf
        from repro.grammar.recognizer import cyk_recognize
        from repro.graph.labeled_graph import LabeledGraph
        from repro.matrices.setmatrix import initial_matrix
        from repro.service.query_service import QueryService

        stray = [f"stray-{uuid.uuid4().hex}-{k}" for k in range(4)]
        grammar = to_cnf(get_grammar("dyck1"))
        edges = [(0, "a", 1), (1, "b", 2), (2, stray[0], 3)]
        graph = LabeledGraph.from_edges(edges)

        expected = solve_hellings(graph, grammar).node_pairs("S")
        assert expected == {(0, 2)}
        assert solve_matrix_relations(graph, grammar).node_pairs("S") \
            == expected
        initial_matrix(graph.node_count, grammar, graph.edges_by_id())
        build_single_path_index(graph, grammar)
        forest = AllPathIndex.build(graph, grammar)
        assert forest.terminal_edges(Nonterminal("S"), 2, 3) == []
        assert not cyk_recognize(grammar, Nonterminal("S"), ["a", stray[1]])

        solver = IncrementalSinglePathCFPQ(
            LabeledGraph.from_edges(edges), grammar)
        solver.add_edge(3, stray[2], 4)
        solver.remove_edge(3, stray[2], 4)
        service = QueryService(LabeledGraph.from_edges(edges), grammar)
        service.tick([("insert", (3, stray[3], 4))])
        service.tick([("delete", (3, stray[3], 4))])
        assert service.query("S") == expected

        assert not any(map(self._interned, stray))
        assert self._interned("a") and self._interned("b")


class TestAcrossProcesses:
    """Identity hashing must not leak into answers: a child with another
    ``PYTHONHASHSEED`` interns its own objects and still gives the
    parent's relations and bytes."""

    def test_snapshot_reloaded_under_another_hash_seed(self, tmp_path):
        """The service snapshot is the canonical encoding (the replicated
        tier compares its bytes): a child under another hash seed loads
        the parent's file, answers from it and writes the same bytes."""
        import json
        import os
        import subprocess
        import sys
        import textwrap

        from repro import QueryService
        from repro.grammar.builders import get_grammar
        from repro.graph.generators import two_cycles

        original = str(tmp_path / "parent.snapshot")
        resaved = str(tmp_path / "child.snapshot")
        service = QueryService(two_cycles(3, 4), get_grammar("dyck1"),
                               single_path=True)
        service.tick([("insert", ("p", "a", 0)), ("delete", (0, "a", 1))])
        service.save_snapshot(original)
        script = textwrap.dedent("""
            import json, sys
            from repro import QueryService
            service = QueryService.from_snapshot(sys.argv[1])
            print(json.dumps(sorted(service.query("S"), key=str)))
            service.save_snapshot(sys.argv[2])
        """)
        root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        env = {**os.environ, "PYTHONHASHSEED": "4242",
               "PYTHONPATH": os.path.join(root, "src") + os.pathsep
               + os.environ.get("PYTHONPATH", "")}
        result = subprocess.run(
            [sys.executable, "-c", script, original, resaved],
            env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        expected = sorted(service.query("S"), key=str)
        assert expected
        assert json.loads(result.stdout) == [list(p) for p in expected]
        with open(original, "rb") as a, open(resaved, "rb") as b:
            assert a.read() == b.read()
