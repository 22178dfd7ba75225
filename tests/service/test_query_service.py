"""Query service: the relation cache and its invalidation, coalesced
ticks, warm starts, and consistency with from-scratch solves."""

from __future__ import annotations

import random
import threading

import pytest

from repro import QueryService, parse_grammar
from repro.core.matrix_cfpq import solve_matrix_relations
from repro.core.single_path import build_single_path_index
from repro.errors import PathNotFoundError, SemanticsError
from repro.graph.generators import two_cycles
from repro.graph.labeled_graph import LabeledGraph
from repro.grammar.builders import chain_reachability, same_generation_query1
from repro.grammar.cnf import to_cnf
from repro.core.relations import ContextFreeRelations
from repro.grammar.symbols import Nonterminal
from repro.matrices.base import available_backends, get_backend
from repro.service.server import ServerThread

ANBN = parse_grammar("S -> a S b | a b", terminals=["a", "b"])

#: Two *independent* relations in one grammar: S over a-chains, T over
#: b-chains — the probe for per-non-terminal cache invalidation.
TWO_STARTS = parse_grammar("S -> a | a S\nT -> b | b T",
                           terminals=["a", "b"])


def _service(**kwargs):
    return QueryService(two_cycles(2, 3), ANBN, **kwargs)


class TestCaching:
    def test_repeat_is_a_hit(self):
        service = _service()
        first = service.query("S")
        assert service.query("S") == first
        stats = service.stats
        assert (stats["cache_hits"], stats["cache_misses"]) == (1, 1)
        assert stats["cache_hit_rate"] == 0.5

    def test_only_the_whole_relation_is_an_entry(self):
        service = _service(single_path=True)
        service.query("S")
        service.query("S", 0, 0)
        service.query("S", 0, 1)
        service.query("S", 0, 0, semantics="length")
        service.query("S", 0, 0, semantics="single-path")
        assert service.stats["queries"] == 5
        assert service.stats["cache_misses"] == 1
        assert service.stats["cache_entries"] == 1

    def test_a_miss_materializes_only_the_start_symbol(self, monkeypatch):
        """A whole-relation miss reads one row map, the start
        symbol's — not every relation of the grammar."""
        service = QueryService(two_cycles(2, 3), TWO_STARTS)
        read: list = []
        source = ContextFreeRelations._source
        monkeypatch.setattr(
            ContextFreeRelations, "_source",
            lambda relations, nt: read.append(source(relations, nt))
            or read[-1])
        assert service.query("S")
        assert len(service.solver.grammar.nonterminals) > 2
        assert len(read) == 1
        assert read[0] is service.solver._rows[Nonterminal("S")]

    def test_membership_and_relation_queries(self):
        service = _service()
        pairs = service.query("S")
        some = next(iter(pairs))
        assert service.query("S", some[0], some[1]) is True
        assert service.query("S", "ghost", "nodes") is False

    def test_semantics_validation(self):
        service = _service()  # single_path defaults off
        with pytest.raises(SemanticsError):
            service.query("S", 0, None)
        with pytest.raises(SemanticsError):
            service.query("S", 0, 0, semantics="single-path")
        with pytest.raises(SemanticsError):
            service.query("S", 0, 0, semantics="all-path")


class TestInvalidation:
    def test_only_changed_nonterminals_invalidate(self):
        graph = LabeledGraph.from_edges([("u", "a", "v"), ("x", "b", "y")])
        service = QueryService(graph, TWO_STARTS)
        service.query("S")
        service.query("T")
        cached_starts = service.stats["cache_entries"]
        for i in range(500):                    # point reads are no entries
            service.query("ST"[i % 2], "x", i)
        # Insert a b-edge: only T's matrix changes.
        report = service.update(inserts=[("y", "b", "z")])
        assert "S" not in report.changed_nonterminals
        assert report.invalidated_entries <= cached_starts
        assert report.invalidated_entries == 1
        service.query("S")   # survived the tick: a hit
        assert service.stats["cache_hits"] == 1
        assert service.query("T", "x", "z") is True

    def test_no_op_tick_invalidates_nothing(self):
        service = _service()
        service.query("S")
        report = service.update(inserts=[(0, "a", 1)])  # already present
        assert report.facts_added == 0
        assert report.invalidated_entries == 0
        service.query("S")
        assert service.stats["cache_hits"] == 1

    def test_single_path_entries_invalidate_on_refinement(self):
        """A shorter witness refines the length annotation without
        changing the relation — path and length answers must follow."""
        graph = LabeledGraph.from_edges(
            [("s", "a", "m1"), ("m1", "a", "m2"), ("m2", "a", "t")]
        )
        service = QueryService(graph, to_cnf(chain_reachability("a")),
                               single_path=True)
        assert service.query("S", "s", "t", semantics="length") == 3
        service.query("S", "s", "t", semantics="single-path")
        report = service.update(inserts=[("s", "a", "t")])  # shortcut
        # (s, t) was already in R_S — the S matrix changed by length
        # *refinement* only, and that alone must invalidate.
        assert "S" in report.changed_nonterminals
        assert service.query("S", "s", "t", semantics="length") == 1
        assert len(service.query("S", "s", "t",
                                 semantics="single-path")) == 1

    def test_deletion_drops_cached_paths_even_without_cell_deltas(self):
        """Regression: deleting one of two parallel derivations leaves
        every matrix cell (and length) unchanged — DRed re-derives the
        fact identically via the other edge — but a witness path through
        the deleted edge is stale and must not be served again."""
        grammar = parse_grammar("S -> a | b", terminals=["a", "b"])
        graph = LabeledGraph.from_edges([("u", "a", "v"), ("u", "b", "v")])
        service = QueryService(graph, grammar, single_path=True)
        first = service.query("S", "u", "v", semantics="single-path")
        deleted_label = first[0][1]
        report = service.update(deletes=[("u", deleted_label, "v")])
        assert report.facts_removed == 0          # fact survives via twin
        fresh = service.query("S", "u", "v", semantics="single-path")
        assert service.graph.has_edge(fresh[0][0], fresh[0][1], fresh[0][2])
        assert fresh[0][1] != deleted_label

    def test_absent_edge_deletes_skip_the_dred_pass(self):
        service = _service()
        report = service.update(deletes=[("ghost", "a", "edge")])
        assert report.dred_passes == 0
        assert report.deletes_applied == 0
        assert service.solver.stats["edge_removals"] == 0

    def test_deletion_invalidates_and_raises(self):
        service = _service(single_path=True)
        assert service.query("S", 0, 0, semantics="single-path")
        report = service.update(deletes=[(0, "a", 1)])
        assert report.facts_removed > 0
        assert service.query("S", 0, 0, semantics="relational") is False
        with pytest.raises(PathNotFoundError):
            service.query("S", 0, 0, semantics="single-path")


class TestCoalescedTicks:
    def test_mixed_1000_edge_tick_is_one_dred_one_frontier(self):
        """The acceptance demo: a 1000-op interleaved insert/delete tick
        runs as exactly one DRed pass + one insertion pass."""
        grammar = to_cnf(chain_reachability("a"))
        rng = random.Random(11)
        base = [(rng.randrange(120), "a", rng.randrange(120))
                for _ in range(400)]
        service = QueryService(LabeledGraph.from_edges(base), grammar)
        service.query("S")

        ops = []
        for _ in range(1000):
            edge = (rng.randrange(160), "a", rng.randrange(160))
            ops.append((rng.choice(("insert", "delete")), edge))
        report = service.tick(ops)

        assert report.inserts_requested + report.deletes_requested == 1000
        assert report.dred_passes == 1
        assert report.frontier_runs == 1
        stats = service.stats
        assert stats["ticks"] == 1
        assert stats["dred_passes"] == 1
        assert stats["frontier_runs"] == 1
        assert stats["tick_ops_requested"] == 1000
        # Post-tick state is the fixpoint of the final graph.
        scratch = solve_matrix_relations(service.graph, grammar,
                                         normalize=False)
        assert service.solver.relations().same_as(scratch)
        assert service.query("S") == scratch.node_pairs("S")

    def test_last_op_per_edge_wins(self):
        service = _service()
        before = service.query("S")
        report = service.tick([
            ("insert", ("n1", "a", "n2")),
            ("delete", ("n1", "a", "n2")),
            ("insert", ("n1", "a", "n2")),
        ])
        assert report.coalesced_away == 2
        assert report.inserts_applied == 1
        assert report.deletes_applied == 0
        assert service.graph.has_edge("n1", "a", "n2")
        # And the reverse order nets out to a delete.
        report = service.tick([
            ("insert", ("n1", "a", "n2")),
            ("delete", ("n1", "a", "n2")),
        ])
        assert report.deletes_applied == 1
        assert not service.graph.has_edge("n1", "a", "n2")
        assert service.query("S") == before

    @pytest.mark.parametrize("seed", [3, 7, 23])
    def test_interleavings_agree_with_scratch(self, seed):
        grammar = to_cnf(chain_reachability("a"))
        rng = random.Random(seed)
        service = QueryService(LabeledGraph(), grammar, single_path=True)
        for _tick in range(5):
            ops = [
                (rng.choice(("insert", "delete")),
                 (rng.randrange(12), "a", rng.randrange(12)))
                for _ in range(rng.randrange(1, 30))
            ]
            service.tick(ops)
            scratch = solve_matrix_relations(service.graph, grammar,
                                             normalize=False)
            assert service.solver.relations().same_as(scratch)
            fresh = build_single_path_index(service.graph, grammar,
                                            normalize=False)
            for (i, j), entries in fresh.cells.items():
                for nonterminal, length in entries.items():
                    assert service.solver.length_of(
                        nonterminal, service.graph.node_at(i),
                        service.graph.node_at(j)) == length

    def test_bad_op_rejected(self):
        service = _service()
        with pytest.raises(ValueError):
            service.tick([("upsert", (0, "a", 1))])


class TestWarmStart:
    def test_funding_x8_snapshot_first_query_zero_rounds(self, tmp_path):
        """The acceptance demo: `serve --snapshot` on funding×8 answers
        the first query with zero closure rounds run."""
        from repro.core.engine import CFPQEngine
        from repro.datasets.registry import build_graph
        from repro.graph.generators import repeat_graph

        graph = repeat_graph(build_graph("funding"), 8)
        grammar = same_generation_query1()
        engine = CFPQEngine(graph, grammar)
        expected = engine.relational("S")

        path = str(tmp_path / "funding_x8.snapshot")
        assert engine.save_snapshot(path, semantics=("relational",)) > 0

        service = QueryService.from_snapshot(path)
        startup = service.stats["startup"]
        assert startup["warm_start"] is True
        assert startup["closure_iterations"] == 0
        assert service.solver.initial_closure_iterations == 0
        assert service.query("S") == expected
        assert service.stats["snapshot_bytes"] > 0

    def test_service_snapshot_round_trip(self, tmp_path):
        service = _service(single_path=True)
        service.update(inserts=[("x", "a", "y"), ("y", "b", "x")])
        answer = service.query("S")
        length = service.query("S", 0, 0, semantics="length")

        path = str(tmp_path / "service.snapshot")
        size = service.save_snapshot(path)
        assert size == service.stats["snapshot_bytes"]

        warm = QueryService.from_snapshot(path)
        assert warm.single_path is True     # lengths were in the snapshot
        assert warm.stats["startup"]["closure_iterations"] == 0
        assert warm.query("S") == answer
        assert warm.query("S", 0, 0, semantics="length") == length
        # Engines can warm-start from service snapshots too.
        engine = QueryService.from_engine(
            __import__("repro").CFPQEngine.from_snapshot(path)
        )
        assert engine.query("S") == answer

    @pytest.mark.parametrize("backend", ["sparse", "setmatrix"])
    @pytest.mark.parametrize("single_path", [False, True])
    def test_closed_matrices_are_adopted_by_rows(self, backend, single_path,
                                                 tmp_path, monkeypatch):
        """Cold seeding, ``from_engine`` and ``from_snapshot`` read a
        closed matrix through ``row_major()`` only: no per-pair copy."""
        if backend not in available_backends():
            pytest.skip(f"backend {backend!r} is not installed")
        from repro import CFPQEngine

        graph = two_cycles(2, 3)
        expected = solve_matrix_relations(graph, ANBN).node_pairs("S")
        engine = CFPQEngine(graph, ANBN, backend=backend)
        engine.solve()
        if single_path:
            engine.single_path_index()
        path = str(tmp_path / "warm.snapshot")
        QueryService(graph, ANBN, backend=backend,
                     single_path=single_path).save_snapshot(path)

        def refuse(matrix):
            raise AssertionError("nonzero_pairs() read a closed matrix")

        monkeypatch.setattr(type(get_backend(backend).zeros(1)),
                            "nonzero_pairs", refuse)
        services = [
            QueryService(two_cycles(2, 3), ANBN, backend=backend,
                         single_path=single_path),
            QueryService.from_engine(engine, single_path=single_path),
            QueryService.from_snapshot(path, single_path=single_path),
        ]
        for service in services:
            assert service.query("S") == expected
            assert service.solver.stats["total_facts"] == sum(
                len(service.solver.pairs(nonterminal))
                for nonterminal in service.solver.grammar.nonterminals)

    def test_from_engine_reuses_solved_state(self):
        from repro import CFPQEngine

        engine = CFPQEngine(two_cycles(2, 3), ANBN)
        engine.solve()
        service = QueryService.from_engine(engine, single_path=True)
        assert service.stats["startup"]["closure_iterations"] == 0
        assert service.query("S") == engine.relational("S")


#: A DAG with exactly three a-paths s -> t, of lengths 1, 2 and 3.
THREE_PATHS = [
    ("s", "a", "t"),
    ("s", "a", "m1"), ("m1", "a", "t"),
    ("s", "a", "m2"), ("m2", "a", "m3"), ("m3", "a", "t"),
]


class TestTopK:
    def _chain_service(self, **kwargs):
        return QueryService(LabeledGraph.from_edges(THREE_PATHS),
                            to_cnf(chain_reachability("a")), **kwargs)

    def test_best_first_order_and_prefix(self, ranking):
        service = self._chain_service(semiring=ranking)
        best = service.top_k("S", "s", "t", 3)
        assert [len(path) for path in best] == [1, 2, 3]
        assert best[0] == (("s", "a", "t"),)
        assert service.top_k("S", "s", "t", 2) == best[:2]

    def test_pagination_walks_one_stream(self, ranking):
        service = self._chain_service(semiring=ranking)
        pages = []
        cursor, exhausted = 0, False
        while not exhausted:
            page, cursor, exhausted = service.top_k_page(
                "S", "s", "t", 1, cursor=cursor)
            pages.extend(page)
        assert pages == service.top_k("S", "s", "t", 5)
        assert cursor == 3
        # The walk extended ONE cached stream: every page after the
        # first was a stream hit, nothing was re-enumerated.
        stats = service.stats["top_k"]
        assert stats["cached_streams"] == 1
        assert stats["stream_hits"] == stats["queries"] - 1

    def test_distinct_bounds_are_distinct_streams(self, ranking):
        service = self._chain_service(semiring=ranking)
        assert [len(p) for p in service.top_k("S", "s", "t", 3,
                                              max_length=2)] == [1, 2]
        assert [len(p) for p in service.top_k("S", "s", "t", 3)] \
            == [1, 2, 3]
        stats = service.stats["top_k"]
        assert stats["cached_streams"] == 2
        assert stats["stream_hits"] == 0

    def test_insert_invalidates_and_reranks(self, ranking):
        service = QueryService(
            LabeledGraph.from_edges([("s", "a", "m"), ("m", "a", "t")]),
            to_cnf(chain_reachability("a")), semiring=ranking)
        assert service.top_k("S", "s", "t", 2) \
            == [(("s", "a", "m"), ("m", "a", "t"))]
        report = service.update(inserts=[("s", "a", "t")])
        assert report.facts_added >= 1
        assert service.stats["top_k"]["cached_streams"] == 0
        best = service.top_k("S", "s", "t", 2)
        assert best[0] == (("s", "a", "t"),)
        assert len(best) == 2
        assert service.stats["top_k"]["stream_hits"] == 0

    def test_deletion_drops_streams(self, ranking):
        service = self._chain_service(semiring=ranking)
        service.top_k("S", "s", "t", 3)
        service.update(deletes=[("s", "a", "t")])
        assert service.stats["top_k"]["cached_streams"] == 0
        assert [len(p) for p in service.top_k("S", "s", "t", 3)] == [2, 3]

    def test_missing_nodes_exhaust_immediately(self):
        service = self._chain_service()
        assert service.top_k_page("S", "ghost", "t", 2) == ([], 0, True)
        assert service.top_k("S", "s", "nowhere", 2) == []

    def test_validation(self):
        service = self._chain_service()
        with pytest.raises(ValueError):
            service.top_k("S", "s", "t", -1)
        with pytest.raises(ValueError):
            service.top_k_page("S", "s", "t", 1, cursor=-1)
        with pytest.raises(Exception):
            service.top_k("Missing", "s", "t", 1)

    @pytest.mark.parametrize("max_length", [-1, True, 2.5])
    def test_bad_max_length_is_refused_on_every_call(self, max_length):
        """Checked before a k-best stream is made, so a refused bound
        never leaves an empty stream behind for the next request."""
        service = self._chain_service()
        for _ in range(2):
            with pytest.raises(ValueError, match="max_length"):
                service.top_k("S", "s", "t", 2, max_length=max_length)

    def test_semiring_selection(self):
        assert self._chain_service().stats["semiring"] == "length"
        assert self._chain_service(
            semiring="viterbi").stats["semiring"] == "viterbi"
        with pytest.raises(SemanticsError):
            self._chain_service(semiring="tropical-deluxe")

    def test_viterbi_service_agrees_with_length_on_uniform_weights(self):
        """Uniform default weights: most-probable-first coincides with
        shortest-first — the invariant behind the ``ranking`` fixture
        that runs every k-best service test under both semirings."""
        viterbi = self._chain_service(semiring="viterbi")
        assert [len(p) for p in viterbi.top_k("S", "s", "t", 3)] \
            == [1, 2, 3]
        assert viterbi.top_k("S", "s", "t", 3) \
            == self._chain_service().top_k("S", "s", "t", 3)

    def test_snapshot_warm_start_serves_top_k(self, tmp_path, ranking):
        service = self._chain_service(semiring=ranking)
        expected = service.top_k("S", "s", "t", 3)
        path = str(tmp_path / "topk.snapshot")
        service.save_snapshot(path)
        warm = QueryService.from_snapshot(path, semiring=ranking)
        assert warm.stats["startup"]["closure_iterations"] == 0
        assert warm.stats["semiring"] == ranking
        assert warm.top_k("S", "s", "t", 3) == expected


#: Two relations that share no non-terminal: Dyck words over a/b (many
#: derivations per pair) and c-chains (many routes on a layered graph).
PATHS_GRAMMAR = to_cnf(parse_grammar(
    "S -> a S b | a b | S S\nT -> c | c T", terminals=["a", "b", "c"]))


class TestPathViewsUnderTicks:
    """Path answers are views of the solver's live state: after any
    interleaving of ticks every ``single-path`` / ``length`` /
    ``top_k_page`` answer equals a from-scratch build on the current
    graph, and the service constructs no index after its first."""

    NODES = 7

    def _scratch(self, service):
        from repro.core.path_index import AllPathIndex
        from repro.core.single_path import extract_path

        graph = service.graph
        lengths = build_single_path_index(graph, PATHS_GRAMMAR,
                                          normalize=False)
        forest = AllPathIndex.build(graph, PATHS_GRAMMAR)

        def named(path):
            return tuple((graph.node_at(i), label, graph.node_at(j))
                         for i, label, j in path)

        def single_path(start, source, target):
            return named(extract_path(lengths, start, source, target))

        def length(start, source, target):
            return lengths.length_of(lengths.grammar.resolve_nonterminal(
                start), graph.node_id(source), graph.node_id(target))

        def page(start, source, target, k, cursor):
            """(paths, next cursor) — the exhaustion flag is lazy (set
            once the stream has been asked past its end), so not
            compared."""
            ranked = [named(path) for path in forest.top_k(
                start, source, target, cursor + k, max_length=6,
                rank=service.semiring)]
            return ranked[cursor:], max(cursor, len(ranked))

        return single_path, length, page

    def _check_reads(self, service, rng):
        single_path, length, page = self._scratch(service)
        for _ in range(12):
            start = rng.choice(("S", "T"))
            source, target = (rng.randrange(self.NODES) for _ in range(2))
            expected = length(start, source, target)
            assert service.query(start, source, target,
                                 semantics="length") == expected
            if expected is None:
                with pytest.raises(PathNotFoundError):
                    service.query(start, source, target,
                                  semantics="single-path")
            else:
                assert service.query(
                    start, source, target, semantics="single-path",
                ) == single_path(start, source, target)
            cursor = rng.randrange(3)
            assert service.top_k_page(
                start, source, target, 2, cursor=cursor, max_length=6,
            )[:2] == page(start, source, target, 2, cursor)

    @pytest.mark.parametrize("seed", [1, 7, 19, 42])
    def test_reads_equal_scratch_and_nothing_is_rebuilt(self, seed,
                                                        ranking,
                                                        monkeypatch):
        rng = random.Random(seed)
        labels = ("a", "b", "c")
        service = QueryService(
            LabeledGraph.from_edges(
                [(rng.randrange(self.NODES), rng.choice(labels),
                  rng.randrange(self.NODES)) for _ in range(14)],
                nodes=range(self.NODES)),
            PATHS_GRAMMAR, single_path=True, semiring=ranking)
        views = (service._forest, service._single_path_view)
        built = []
        for name in ("all_path_index", "single_path_index"):
            monkeypatch.setattr(service.solver, name,
                                lambda name=name: built.append(name))
        self._check_reads(service, rng)
        for _tick in range(8):
            present = sorted(service.graph.edges())
            fresh = [(rng.randrange(self.NODES), rng.choice(labels),
                      rng.randrange(self.NODES)) for _ in range(3)]
            kind = rng.choice(("insert", "delete", "both", "no-op"))
            inserts = fresh if kind in ("insert", "both") \
                else present[:1] if kind == "no-op" else []
            deletes = rng.sample(present, min(2, len(present))) \
                if kind in ("delete", "both") \
                else [(0, "no-such-label", 1)] if kind == "no-op" else []
            report = service.update(inserts=inserts, deletes=deletes)
            if kind == "no-op":
                assert (report.facts_added, report.facts_removed) == (0, 0)
            self._check_reads(service, rng)
        assert (service._forest, service._single_path_view) == views
        assert built == []

    def test_cursor_continues_across_a_tick_that_spares_its_symbols(
            self, ranking):
        """A k-best stream survives a tick only when nothing it can
        reach changed — and then reads the live rows mid-stream."""
        layered = [(s, "c", m) for s in (0,) for m in (1, 2, 3)] \
            + [(m, "c", 4) for m in (1, 2, 3)] + [(0, "c", 4)] \
            + [(4, "a", 5), (5, "b", 6)]
        service = QueryService(
            LabeledGraph.from_edges(layered, nodes=range(self.NODES)),
            PATHS_GRAMMAR, single_path=True, semiring=ranking)
        first, cursor, exhausted = service.top_k_page("T", 0, 4, 2,
                                                      max_length=6)
        assert [len(path) for path in first] == [1, 2] and not exhausted

        # a/b edges touch S only: T's stream and cursor stay valid.
        service.update(inserts=[(5, "a", 6), (6, "b", 4), (4, "a", 4)])
        _single, _length, page = self._scratch(service)
        assert service.top_k_page(
            "T", 0, 4, 2, cursor=cursor, max_length=6,
        )[:2] == page("T", 0, 4, 2, cursor)
        stats = service.stats["top_k"]
        assert (stats["stream_hits"], stats["cached_streams"]) == (1, 1)

        # A c edge reaches T: the stream is dropped, and the same cursor
        # continues over the re-ranked forest of the new graph.
        service.update(inserts=[(0, "c", 5), (5, "c", 4)])
        assert service.stats["top_k"]["cached_streams"] == 0
        _single, _length, page = self._scratch(service)
        assert service.top_k_page(
            "T", 0, 4, 2, cursor=cursor, max_length=6,
        )[:2] == page("T", 0, 4, 2, cursor)
        assert service.stats["top_k"]["stream_hits"] == 1  # a new stream
        assert ((0, "c", 5), (5, "c", 4)) in \
            service.top_k("T", 0, 4, 6, max_length=6)


def _relation(call, start="S") -> frozenset:
    """A whole relation read over the wire, as a set of node pairs."""
    return frozenset(map(tuple, call({"op": "query",
                                      "start": start})["result"]))


class TestConcurrency:
    """Client threads drive one server; its event loop is the only
    caller of the service."""

    def test_queries_during_ticks_see_consistent_snapshots(
            self, jsonl_connect):
        grammar = to_cnf(chain_reachability("a"))
        service = QueryService(
            LabeledGraph.from_edges([(i, "a", i + 1) for i in range(30)]),
            grammar,
        )
        full = service.query("S")
        cut = frozenset((i, j) for i, j in full
                        if not i <= 15 < j)      # without edge 15-a->16
        errors: list[Exception] = []
        stop = threading.Event()
        with ServerThread(service) as server:
            def reader():
                try:
                    call = jsonl_connect(server.address)
                    while not stop.is_set():
                        member = call({"op": "query", "start": "S",
                                       "source": 0, "target": 30})
                        assert member["result"] in (True, False)
                        # A whole relation is one tick's whole answer.
                        assert _relation(call) in (full, cut)
                except Exception as error:  # pragma: no cover
                    errors.append(error)

            threads = [threading.Thread(target=reader) for _ in range(4)]
            for thread in threads:
                thread.start()
            ticks = jsonl_connect(server.address)
            try:
                for tick in range(10):
                    for op in ("delete", "insert"):
                        assert ticks({"op": "update",
                                      op: [[15, "a", 16]]})["ok"]
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors
            assert ticks({"op": "query", "start": "S", "source": 0,
                          "target": 30})["result"] is True
            assert _relation(ticks) == full
            # No cached relation outlives the tick that changed it.
            ticks({"op": "update", "delete": [[15, "a", 16]]})
            assert _relation(ticks) == cut

    def test_concurrent_path_reads_after_a_tick_build_nothing(
            self, ranking, monkeypatch, jsonl_connect):
        """The single-path index and the forest are views of the
        solver's live state, made with the service: N path reads from
        concurrent clients after a tick share them (and refill the
        forest's dropped memo tables) and construct no index — where
        each tick used to cost one rebuild of both."""
        from repro.core.path_index import AllPathIndex
        from repro.core.single_path import SinglePathIndex, SinglePathView

        service = QueryService(
            LabeledGraph.from_edges([(i, "a", i + 1) for i in range(12)]),
            to_cnf(chain_reachability("a")), single_path=True,
            semiring=ranking)
        service.update(inserts=[(12, "a", 13)])

        builds = {"forest": 0, "single-path": 0}

        def counted(name, build):
            def wrapper(*args, **kwargs):
                builds[name] += 1
                return build(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(AllPathIndex, "__init__",
                            counted("forest", AllPathIndex.__init__))
        for cls in (SinglePathIndex, SinglePathView):
            monkeypatch.setattr(cls, "__init__",
                                counted("single-path", cls.__init__))

        readers = 6
        barrier = threading.Barrier(readers)
        answers: list = []
        errors: list[Exception] = []
        with ServerThread(service) as server:
            def reader(index: int):
                try:
                    call = jsonl_connect(server.address)
                    barrier.wait(timeout=10)
                    # Distinct keys: no reader is served by another's
                    # cached k-best stream.
                    if index % 2:
                        answers.append(len(call({
                            "op": "top_k", "start": "S", "source": 0,
                            "target": 13, "k": 1,
                            "max_length": 20 + index,
                        })["result"]["paths"]))
                    else:
                        answers.append(len(call({
                            "op": "query", "start": "S", "source": index,
                            "target": 13, "semantics": "single-path",
                        })["result"]))
                except Exception as error:  # pragma: no cover
                    errors.append(error)

            threads = [threading.Thread(target=reader, args=(index,))
                       for index in range(readers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors
            assert sorted(answers) == [1, 1, 1, 9, 11, 13]

            # The next tick is seen through the same views.
            call = jsonl_connect(server.address)
            assert call({"op": "update", "insert": [[13, "a", 14]]})["ok"]
            assert len(call({"op": "top_k", "start": "S", "source": 0,
                             "target": 14, "k": 1})["result"]["paths"]) == 1
            assert len(call({"op": "query", "start": "S", "source": 0,
                             "target": 14, "semantics": "single-path",
                             })["result"]) == 14
        assert builds == {"forest": 0, "single-path": 0}
