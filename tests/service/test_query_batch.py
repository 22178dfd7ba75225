"""``QueryService.query_batch``: answers, caching, errors, races.

The service contract: a batch answers exactly what the same queries
asked one-by-one would answer, caches only whole relations, reports
per-item failures in-band, and — because the whole batch runs under one
read-lock acquisition — is linearizable against concurrent ticks:
correlated membership probes in one batch see all-old or all-new state,
never a mix.
"""

from __future__ import annotations

import threading

import pytest

from repro import QueryService, parse_grammar
from repro.errors import GrammarError, SemanticsError
from repro.graph.generators import two_cycles, word_chain
from repro.service.query_service import BATCH_ITEM_ERRORS
from repro.service.server import ServerThread

ANBN = parse_grammar("S -> a S b | a b", terminals=["a", "b"])
INSERTS = [("insert", (0, "a", 99)), ("insert", (99, "b", 0))]
DELETES = [("delete", (1, "a", 0))]


def _service(*ticks):
    service = QueryService(two_cycles(2, 3), ANBN, backend="setmatrix",
                           single_path=True)
    for ops in ticks:
        service.tick(ops)
    return service


@pytest.fixture
def service():
    return _service()


def _all_probes(graph):
    nodes = [graph.node_at(i) for i in range(graph.node_count)]
    return [("S", a, b) for a in nodes for b in nodes]


def _batch_items(graph):
    """Every item shape a batch takes: membership over all node pairs
    plus absent endpoints, length and single-path items, the full
    relation, a dict item, an unknown start and an unknown semantics."""
    probes = _all_probes(graph)
    return probes + [
        ("S", 99, 0), ("S", 0, 99), ("S", "ghost", "ghost"),
        ("S", 0, 0, "length"), ("S", 1, 3, "length"), ("S", 99, 0, "length"),
        ("S", 0, 0, "single-path"), ("S", 1, 3, "single-path"),
        ("S",),
        {"start": "S", "source": 0, "target": 0},
        ("NoSuchNT", 0, 0),
        ("S", 0, 0, "bogus-semantics"),
    ]


def _one_by_one(service, items):
    """What :meth:`QueryService.query` answers item by item, an error
    standing for its type."""
    answers = []
    for item in items:
        if isinstance(item, dict):
            item = (item["start"], item["source"], item["target"])
        try:
            answers.append(service.query(*item))
        except BATCH_ITEM_ERRORS as error:
            answers.append(type(error))
    return answers


def _as_compared(answers):
    return [type(answer) if isinstance(answer, Exception) else answer
            for answer in answers]


class TestBatchAnswers:
    def test_matches_per_query(self, service):
        items = _batch_items(service.graph)
        answers = _as_compared(service.query_batch(items))
        assert answers == _one_by_one(_service(), items)
        assert issubclass(answers[-2], GrammarError)
        assert answers[-1] is SemanticsError

    def test_matches_per_query_after_tick(self, service):
        service.query_batch(_batch_items(service.graph))
        service.tick(INSERTS)
        items = _batch_items(service.graph)
        assert _as_compared(service.query_batch(items)) \
            == _one_by_one(_service(INSERTS), items)
        service.tick(DELETES)
        assert _as_compared(service.query_batch(items)) \
            == _one_by_one(_service(INSERTS, DELETES), items)

    def test_only_whole_relations_are_cached(self, service):
        probes = _all_probes(service.graph)[:6]
        service.query_batch(probes)
        service.query_batch(probes)
        stats = service.stats
        assert stats["cache_entries"] == 0
        assert (stats["cache_hits"], stats["cache_misses"]) == (0, 0)
        assert stats["batch"]["queries"] == 2 * len(probes)
        # A whole relation is one entry, shared with the single query.
        service.query_batch([("S",)])
        service.query("S")
        stats = service.stats
        assert stats["cache_entries"] == 1
        assert (stats["cache_hits"], stats["cache_misses"]) == (1, 1)

    def test_empty_batch(self, service):
        assert service.query_batch([]) == []

    def test_mixed_semantics(self):
        service = QueryService(word_chain(["a", "a", "b", "b"]), ANBN,
                               backend="setmatrix", single_path=True)
        answers = service.query_batch([
            ("S", 0, 4, "length"),
            ("S", 0, 4, "single-path"),
            ("S", 0, 4),
            ("S",),
        ])
        assert answers[0] == 4
        assert len(answers[1]) == 4
        assert answers[2] is True
        assert answers[3] == frozenset({(0, 4), (1, 3)})


class TestBatchErrors:
    def test_per_item_errors_in_band(self, service):
        answers = service.query_batch([
            ("S", 0, 0),
            ("NoSuchNT", 0, 0),
            {"source": 0},                     # missing start
            ("S", 0, None),                    # half-restricted
            ("S", 0, 0, "bogus-semantics"),
            ("S", 1, 1),
            "S01",                             # a string is not a spec
        ])
        assert answers[0] in (True, False)
        assert isinstance(answers[1], GrammarError)
        assert isinstance(answers[2], SemanticsError)
        assert isinstance(answers[3], SemanticsError)
        assert isinstance(answers[4], SemanticsError)
        assert answers[5] in (True, False)
        assert isinstance(answers[6], SemanticsError)

    def test_errors_are_not_cached(self, service):
        service.query_batch([("NoSuchNT",)])
        assert service.stats["cache_entries"] == 0

    def test_absent_nodes_are_false_and_not_cached(self, service):
        answers = service.query_batch([("S", "ghost", 0)])
        assert answers == [False]
        assert service.stats["cache_entries"] == 0


class TestMembershipEvaluate:
    def test_single_query_membership_matches_relation(self, service):
        pairs = service.query("S")
        graph = service.graph
        for i in range(graph.node_count):
            for j in range(graph.node_count):
                a, b = graph.node_at(i), graph.node_at(j)
                assert service.query("S", a, b) == ((a, b) in pairs)

    def test_membership_probe_reads_one_cell(self, service, monkeypatch):
        """A batch of membership misses reads one forest cell per probe
        and never materializes a relation."""
        expected = service.query("S")

        def no_relation(*_args, **_kwargs):
            raise AssertionError("a membership probe copied a relation")

        for name in ("pairs", "relations"):
            monkeypatch.setattr(service.solver, name, no_relation)
        cells: list = []
        node_exists = service._forest.node_exists

        def counted(nonterminal, i, j):
            cells.append((i, j))
            return node_exists(nonterminal, i, j)

        monkeypatch.setattr(service._forest, "node_exists", counted)
        probes = _all_probes(service.graph)
        answers = service.query_batch(probes)
        assert len(cells) == len(probes)
        assert {item[1:] for item, answer in zip(probes, answers)
                if answer} == expected

    def test_batch_leaves_the_facts_unchanged(self, service):
        graph = service.graph
        before = {nt: service.solver.pairs(nt)
                  for nt in service.solver.grammar.nonterminals}
        service.query_batch(_batch_items(graph))
        assert {nt: service.solver.pairs(nt) for nt in before} == before


class TestServedEqualsCold:
    @pytest.mark.parametrize("strategy", ("naive", "delta", "blocked"))
    def test_served_batch_matches_cold_solve_batch(self, strategy):
        """The served lookups answer what a cold batch (one closure plus
        row reads) answers, on every backend and closure strategy."""
        from repro.core.batch import BatchQuery, solve_batch
        from repro.matrices import available_backends

        graph = two_cycles(2, 3)
        probes = _all_probes(graph)
        queries = [BatchQuery("S", sources=frozenset((a,)),
                              targets=frozenset((b,)),
                              semantics="membership")
                   for _start, a, b in probes]
        for backend in available_backends():
            service = QueryService(graph, ANBN, backend=backend,
                                   strategy=strategy)
            cold = solve_batch(graph, ANBN, queries, backend=backend,
                               strategy=strategy)
            assert service.query_batch(probes) == cold, (backend, strategy)
            assert any(cold) and not all(cold)


class TestLinearizability:
    def test_batch_racing_tick_sees_consistent_state(self, jsonl_connect):
        """A tick toggles two correlated facts atomically; batches sent
        by concurrent clients while a client ticks must never observe a
        mix."""
        # Chain 0-a->1-b->2: S relates (0, 2).  The toggle inserts and
        # removes the edge pair that makes (3, 5) derivable too.
        extra = [[3, "a", 4], [4, "b", 5]]
        service = QueryService(
            word_chain(["a", "b"]), ANBN, backend="setmatrix")
        # Register the extra nodes so probes resolve.
        service.tick([("insert", tuple(edge)) for edge in extra])
        service.tick([("delete", tuple(edge)) for edge in extra])

        # Probers read until the toggling is over (at least one probe
        # always runs).
        done = threading.Event()
        violations: list = []
        with ServerThread(service) as server:
            def toggler():
                try:
                    call = jsonl_connect(server.address)
                    for _ in range(100):
                        for op in ("insert", "delete"):
                            assert call({"op": "update", op: extra})["ok"]
                finally:
                    done.set()

            def prober():
                call = jsonl_connect(server.address)
                probes = 0
                while probes == 0 or not done.is_set():
                    probes += 1
                    stable, toggled = call({
                        "op": "batch",
                        "queries": [["S", 0, 2], ["S", 3, 5]],
                    })["result"]
                    # The stable fact must always hold; the toggled fact
                    # is whatever the tick left, but never an
                    # error/mixture.
                    if stable != {"ok": True, "result": True} \
                            or not isinstance(toggled.get("result"), bool):
                        violations.append((stable, toggled))

            threads = [threading.Thread(target=prober) for _ in range(3)]
            threads.append(threading.Thread(target=toggler))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            ticks = jsonl_connect(server.address)({"op": "stats"})
        assert not any(thread.is_alive() for thread in threads)
        assert not violations
        assert ticks["result"]["ticks"] == 202

    def test_batch_cache_invalidated_by_tick(self):
        service = QueryService(word_chain(["a", "b"]), ANBN,
                               backend="setmatrix")
        assert service.query_batch([("S", 0, 2)]) == [True]
        service.tick([("delete", (0, "a", 1))])
        assert service.query_batch([("S", 0, 2)]) == [False]
        service.tick([("insert", (0, "a", 1))])
        assert service.query_batch([("S", 0, 2)]) == [True]
