"""Differential and streaming tests for lazy k-best enumeration.

The oracle is the bounded brute-force walk enumerator of
``test_semiring_differential`` (edge-by-edge CYK membership, no closure
machinery).  Beyond agreement, the suite pins the protocol properties
the serving tier relies on: rank order, the prefix property
(``top_k(k)`` is a prefix of ``top_k(k + 1)``), and the streaming
guard — asking for a few best paths must expand far fewer search states
than the graph's full path population (the enumeration-counter
acceptance criterion).
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
from test_semiring_differential import (  # noqa: E402
    SEEDS,
    brute_force_paths,
    make_case,
)

from repro.core.path_index import AllPathIndex  # noqa: E402
from repro.core.semiring import (  # noqa: E402
    COUNTING_SEMIRING,
    LENGTH_SEMIRING,
    VITERBI_SEMIRING,
    ViterbiSemiring,
)
from repro.errors import SemanticsError  # noqa: E402
from repro.grammar.cfg import CFG  # noqa: E402
from repro.grammar.cnf import to_cnf  # noqa: E402
from repro.graph.labeled_graph import LabeledGraph  # noqa: E402

BOUND = 5


def _parallel_chain(hops: int) -> tuple[LabeledGraph, CFG]:
    """``hops`` layers with two parallel labels per hop: ``2^hops``
    distinct derivation paths end-to-end."""
    grammar = to_cnf(CFG.from_mapping(
        {"S": [["T"], ["T", "S"]], "T": [["a"], ["b"]]},
        terminals=["a", "b"]))
    edges = []
    for hop in range(hops):
        edges += [(hop, "a", hop + 1), (hop, "b", hop + 1)]
    return LabeledGraph.from_edges(edges), grammar


class TestAgainstExhaustiveEnumeration:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_kbest_yields_exactly_the_bounded_path_set(self, seed):
        graph, grammar = make_case(seed)
        index = AllPathIndex.build(graph, grammar)
        checked = 0
        for nonterminal in grammar.nonterminals:
            for i, j in sorted(index.relations.pairs(nonterminal))[:5]:
                expected = brute_force_paths(graph, grammar, nonterminal,
                                             i, j, BOUND)
                got = index.top_k(nonterminal, i, j, len(expected) + 3,
                                  max_length=BOUND)
                assert len(got) == len(set(got)) == len(expected)
                assert set(got) == expected, (seed, nonterminal, i, j)
                lengths = [len(path) for path in got]
                assert lengths == sorted(lengths), "not best-first"
                checked += 1
        if checked == 0:
            pytest.skip("seed produced an empty relation")

    @pytest.mark.parametrize("seed", SEEDS)
    def test_prefix_property(self, seed):
        graph, grammar = make_case(seed)
        index = AllPathIndex.build(graph, grammar)
        for nonterminal in grammar.nonterminals:
            for i, j in sorted(index.relations.pairs(nonterminal))[:5]:
                wider = index.top_k(nonterminal, i, j, 7,
                                    max_length=BOUND)
                for k in range(len(wider) + 1):
                    assert index.top_k(nonterminal, i, j, k,
                                       max_length=BOUND) == wider[:k]

    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_unbounded_kbest_contains_every_bounded_path(self, seed):
        """Without a max_length the enumerator ranges over *all* paths;
        its first ``len(bounded) + slack`` entries must cover every
        bounded-length path of minimal lengths."""
        graph, grammar = make_case(seed)
        index = AllPathIndex.build(graph, grammar)
        for nonterminal in grammar.nonterminals:
            for i, j in sorted(index.relations.pairs(nonterminal))[:3]:
                bounded = brute_force_paths(graph, grammar, nonterminal,
                                            i, j, 2)
                if not bounded:
                    continue
                got = index.top_k(nonterminal, i, j, 64)
                assert bounded <= set(got) or len(got) == 64


class TestStreamingGuard:
    def test_top_k_expands_a_tiny_frontier_of_a_huge_path_set(self):
        # Each hop offers a direct a-edge or a two-edge b-detour:
        # 2^hops end-to-end paths with lengths hops..2*hops, a unique
        # shortest one, and exact lower bounds that keep detour-heavy
        # prefixes parked in the heap.
        hops = 14
        grammar = to_cnf(CFG.from_mapping(
            {"S": [["T"], ["T", "S"]], "T": [["a"], ["b"]]},
            terminals=["a", "b"]))
        edges = []
        for hop in range(hops):
            detour = hops + 1 + hop
            edges += [(hop, "a", hop + 1), (hop, "b", detour),
                      (detour, "b", hop + 1)]
        graph = LabeledGraph.from_edges(
            edges, nodes=list(range(2 * hops + 1)))
        index = AllPathIndex.build(graph, grammar)
        paths = index.top_k("S", 0, hops, 3)
        assert len(paths) == 3
        assert [len(path) for path in paths] == [hops, hops + 1, hops + 1]
        stats = index.kbest_stats
        assert stats["yielded"] == 3
        # The acceptance bar: best-first laziness, not exhaustion.  A
        # materializing implementation would touch >= 2^hops states.
        assert stats["expansions"] < 2 ** hops / 100
        assert stats["expansions"] <= 160

    def test_iterating_further_pays_incrementally(self):
        graph, grammar = _parallel_chain(8)
        index = AllPathIndex.build(graph, grammar)
        iterator = index.iter_k_best("S", 0, 8)
        next(iterator)
        first = index.kbest_stats["expansions"]
        next(iterator)
        second = index.kbest_stats["expansions"]
        assert first > 0
        # One more path costs a bounded number of extra expansions, not
        # a re-enumeration.
        assert second - first <= first + 8


class TestRankingSemirings:
    """k-best ranks by a semiring's own ``identity`` / ``multiply`` /
    ``rank_key``: the length and Viterbi semirings the closures run."""

    def test_viterbi_rank_prefers_probable_over_short(self):
        grammar = to_cnf(CFG.from_mapping(
            {"S": [["T"], ["T", "S"]], "T": [["a"], ["b"]]},
            terminals=["a", "b"]))
        # Direct b-edge 0 -> 2 (length 1, prob 0.1) vs a-a path through
        # node 1 (length 2, prob 0.81).
        graph = LabeledGraph.from_edges(
            [(0, "b", 2), (0, "a", 1), (1, "a", 2)], nodes=[0, 1, 2]
        )
        index = AllPathIndex.build(graph, grammar)
        semiring = ViterbiSemiring(weights={"a": 0.9, "b": 0.1})
        by_probability = index.top_k("S", 0, 2, 2, rank=semiring)
        by_length = index.top_k("S", 0, 2, 2, rank=LENGTH_SEMIRING)
        assert [len(p) for p in by_length] == [1, 2]
        assert [len(p) for p in by_probability] == [2, 1]
        assert by_probability[0] == ((0, "a", 1), (1, "a", 2))

    def test_default_viterbi_rank_matches_length_order_lengths(self):
        """Uniform default weights make most-probable-first coincide
        with shortest-first at the length level (the invariant the
        service suite's length/viterbi parametrization leans on)."""
        graph, grammar = make_case(2)
        index = AllPathIndex.build(graph, grammar)
        for nonterminal in grammar.nonterminals:
            for i, j in sorted(index.relations.pairs(nonterminal))[:4]:
                by_length = index.top_k(nonterminal, i, j, 6,
                                        max_length=BOUND)
                by_viterbi = index.top_k(nonterminal, i, j, 6,
                                         max_length=BOUND,
                                         rank=VITERBI_SEMIRING)
                assert [len(p) for p in by_length] \
                    == [len(p) for p in by_viterbi]

    @pytest.mark.parametrize("best", (
        lambda index, rank: index.top_k("S", 0, 1, 2, rank=rank),
        lambda index, rank: list(itertools.islice(
            index.iter_k_best("S", 0, 1, rank=rank), 2)),
    ), ids=("top_k", "iter_k_best"))
    def test_two_weightings_share_no_memo(self, best):
        """One index ranks under one Viterbi weighting, then under the
        opposite one: each answer is that weighting's own, as from a
        fresh index (the memo tables are per semiring object, and every
        ViterbiSemiring is named ``viterbi``)."""
        graph = LabeledGraph.from_edges([(0, "a", 1), (0, "c", 1)])
        grammar = to_cnf(CFG.from_mapping(
            {"S": [["a"], ["b", "S"], ["c"]]}, terminals=["a", "b", "c"]))
        shared = AllPathIndex.build(graph, grammar)
        for first, second in (("a", "c"), ("c", "a")):
            weighting = ViterbiSemiring({first: 0.9, second: 0.1})
            fresh = best(AllPathIndex.build(graph, grammar), weighting)
            assert fresh == [((0, first, 1),), ((0, second, 1),)]
            assert best(shared, weighting) == fresh

    def test_a_semiring_that_ranks_nothing_is_refused(self):
        graph, grammar = _parallel_chain(1)
        index = AllPathIndex.build(graph, grammar)
        with pytest.raises(SemanticsError, match="'counting'.*rank_key"):
            index.top_k("S", 0, 1, 1, rank=COUNTING_SEMIRING)
        assert index.top_k("S", 0, 1, 1) \
            == index.top_k("S", 0, 1, 1, rank=LENGTH_SEMIRING)
