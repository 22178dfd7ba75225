"""The relational section a ``single-path`` snapshot derives from its
length closure (Theorem 2: the relations are the length matrices'
cells) against the boolean solve it replaces.

* On ``sparse`` the derived payloads are byte-identical to
  ``SparseBackend.tile_payload`` of ``engine.solve()``.
* On every installed backend they decode to the solve's pair sets, and
  the section carries the length closure's own counts.
* The NumPy CSR writer (:mod:`repro.matrices.csr`) equals SciPy's on
  random pair sets and on the degenerate shapes.
"""

from __future__ import annotations

import random

import pytest

from repro import CFPQEngine, parse_grammar
from repro.grammar import get_grammar
from repro.graph.generators import two_cycles
from repro.matrices.base import available_backends
from repro.service.snapshot import (
    build_engine_payload,
    iter_decoded_matrices,
    load_engine_snapshot,
    write_snapshot,
)

needs_sparse = pytest.mark.skipif("sparse" not in available_backends(),
                                  reason="needs SciPy")

ANBN = parse_grammar("S -> a S b | a b", terminals=["a", "b"])
ANBN_EPS = parse_grammar("S -> a S b | eps", terminals=["a", "b"])
#: ``X`` derives only ``c``, which labels no edge: R_X is empty.
ANBN_DEAD = parse_grammar("S -> a S b | a b | X X\nX -> c",
                          terminals=["a", "b", "c"])


def _funding():
    from repro.datasets.registry import build_graph

    return build_graph("funding")


INPUTS = {
    "anbn": (lambda: two_cycles(2, 3), ANBN),
    "anbn-nullable": (lambda: two_cycles(2, 3), ANBN_EPS),
    "dyck1": (lambda: two_cycles(2, 3), get_grammar("dyck1")),
    "dead-nonterminal": (lambda: two_cycles(2, 3), ANBN_DEAD),
    "query1-funding": (_funding, get_grammar("query1")),
}

#: Tile edge 2 on the small graphs; funding's 598 nodes would make that
#: 90 000 tiles, so it runs blocked at a ragged edge of 128.
STRATEGIES = {
    "delta": {},
    "naive": {},
    "blocked": {"tile_size": 2},
}


def _engine(name, strategy, backend):
    make_graph, grammar = INPUTS[name]
    options = dict(STRATEGIES[strategy])
    if name == "query1-funding" and strategy == "blocked":
        options["tile_size"] = 128
    return CFPQEngine(make_graph(), grammar, backend=backend,
                      strategy=strategy, **options)


def _derived(engine) -> dict:
    return build_engine_payload(
        engine, ("relational", "single-path"))["relational"]


def _pair_sets(matrices) -> dict:
    return {nonterminal.name: matrix.to_pair_set()
            for nonterminal, matrix in matrices.items()}


@needs_sparse
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("name", INPUTS)
def test_derived_section_is_the_sparse_solve_byte_for_byte(name, strategy):
    from repro.matrices.sparse import SparseBackend

    engine = _engine(name, strategy, "sparse")
    expected = {
        nonterminal.name: list(SparseBackend().tile_payload(matrix))
        for nonterminal, matrix in engine.solve().matrices.items()
    }
    matrices = _derived(engine)["matrices"]
    assert list(matrices) == sorted(expected)
    assert matrices == expected


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("name", INPUTS)
@pytest.mark.parametrize("backend", available_backends())
def test_derived_section_decodes_to_the_solve(tmp_path, backend, name,
                                              strategy):
    engine = _engine(name, strategy, backend)
    section = _derived(engine)
    assert {payload[0] for payload in section["matrices"].values()} \
        == {backend}
    assert _pair_sets(dict(iter_decoded_matrices(section["matrices"]))) \
        == _pair_sets(engine.solve().matrices)

    index = engine.single_path_index()
    counts = {"iterations": index.iterations,
              "multiplications": index.multiplications}
    assert section["stats"] == counts and index.multiplications > 0
    path = str(tmp_path / "index.snapshot")
    write_snapshot(path, build_engine_payload(
        engine, ("relational", "single-path")))
    warm = load_engine_snapshot(path)
    assert warm.solve().stats.details["snapshot"]["solved_stats"] == counts
    assert warm.relational("S") == engine.relational("S")


def test_single_path_snapshots_run_no_boolean_solve(monkeypatch):
    engine = _engine("anbn", "delta", available_backends()[0])

    def solve(*_args, **_kwargs):
        raise AssertionError("the relational section ran a boolean solve")

    monkeypatch.setattr(engine, "solve", solve)
    assert build_engine_payload(engine, ("all-path", "single-path")) \
        == build_engine_payload(engine, ("relational", "single-path"))


@needs_sparse
class TestCSRWriter:
    def _check(self, shape, pairs):
        import numpy as np
        from scipy import sparse as sp

        from repro.core.semiring import LENGTH_SEMIRING, AnnotatedMatrix
        from repro.matrices.csr import csr_payload, pairs_payload
        from repro.matrices.sparse import SparseBackend

        rows, cols = shape
        scipy_csr = sp.coo_matrix(
            (np.ones(len(pairs), dtype=bool),
             ([i for i, _ in pairs], [j for _, j in pairs])),
            shape=shape).tocsr()
        scipy_csr.sum_duplicates()
        expected = ("sparse", rows, cols,
                    scipy_csr.indptr.astype(np.int64).tobytes(),
                    scipy_csr.indices.astype(np.int64).tobytes())
        assert pairs_payload(shape, pairs) == expected
        rows_export = AnnotatedMatrix(LENGTH_SEMIRING, shape,
                                      {pair: 1 for pair in pairs}).row_major()
        assert csr_payload(shape, *rows_export) == expected
        backend = SparseBackend()
        assert backend.tile_payload(
            backend.from_pairs(rows, pairs, cols=cols)) == expected
        decoded = backend.tile_from_payload(expected)
        assert decoded.shape == shape
        assert decoded.to_pair_set() == frozenset(pairs)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_pair_sets(self, seed):
        rng = random.Random(seed)
        rows, cols = rng.randint(1, 12), rng.randint(1, 12)
        pairs = [(rng.randrange(rows), rng.randrange(cols))
                 for _ in range(rng.randint(0, rows * cols))]
        rng.shuffle(pairs)  # repeats and any order
        self._check((rows, cols), pairs)

    @pytest.mark.parametrize("shape", [(0, 0), (1, 1), (5, 5), (3, 7)])
    def test_empty(self, shape):
        self._check(shape, [])

    def test_one_by_one(self):
        self._check((1, 1), [(0, 0)])
