"""Property test: random grammars × random graphs, all CNF-based solvers.

Complements ``test_cross_implementation`` (fixed grammars) by also
randomizing the *grammar*, including ε-rules, unit rules and long
bodies — the full CNF pipeline runs inside the loop.  Normalization
records the nullable set (``CFG.nullable_diagonal``), so every solver —
including GLL, which consumes the original grammar and answers
ε-queries with reflexive pairs — must now agree *exactly*.

Every case is generated from a ``random.Random`` seeded with a fixed
constant at *call* time and the suite is parametrized over an explicit
seed list, so a run is fully reproducible from the test id — no
hypothesis shrinking, no database, no per-run example sampling.
"""

from __future__ import annotations

import random

import pytest

from repro.baselines.gll import solve_gll
from repro.baselines.hellings import solve_hellings
from repro.core.matrix_cfpq import solve_matrix_relations
from repro.core.naive_closure import solve_naive
from repro.grammar.analysis import nullable_nonterminals
from repro.grammar.cfg import CFG
from repro.grammar.cnf import to_cnf
from repro.grammar.production import Production
from repro.grammar.symbols import Nonterminal, Terminal
from repro.graph.generators import random_graph
from repro.matrices.base import available_backends

_LABELS = ["a", "b"]
_NONTERMINALS = ["S", "A", "B"]
#: Fixed RNG seed constant; each case derives its stream from it.
_SEED_BASE = 0x5EED
SEEDS = tuple(range(40))


def make_random_grammar(rng: random.Random) -> CFG:
    """A small random grammar (possibly with ε-rules, unit rules and
    bodies up to length 3), drawn from *rng*."""
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
    return CFG(productions)


@pytest.mark.parametrize("seed", SEEDS)
def test_cnf_solvers_agree_on_random_grammars(seed):
    rng = random.Random(_SEED_BASE ^ seed)
    grammar = make_random_grammar(rng)
    graph = random_graph(rng.randint(2, 6), rng.randint(1, 15), _LABELS,
                         seed=rng.randint(0, 5000))
    cnf = to_cnf(grammar)

    reference = solve_naive(graph, cnf, normalize=False).relations
    for name, relations in [
        *((backend, solve_matrix_relations(graph, cnf, backend=backend,
                                           normalize=False))
          for backend in available_backends()),
        ("hellings", solve_hellings(graph, cnf, normalize=False)),
        ("gll", solve_gll(graph, grammar)),
    ]:
        for nonterminal in grammar.nonterminals:
            assert relations.pairs(nonterminal) == reference.pairs(nonterminal), (
                f"{name} disagrees on {nonterminal}\n{grammar.to_text()}"
            )


@pytest.mark.parametrize("seed", SEEDS[:25])
def test_gll_agrees_exactly(seed):
    """GLL on the original grammar equals the matrix engine on the CNF
    grammar *exactly*: since normalization records the nullable set
    (``CFG.nullable_diagonal``) the matrix engine seeds the reflexive
    pairs GLL derives from ε-rules, so no modulo-ε restriction is
    needed any more."""
    rng = random.Random(~_SEED_BASE ^ seed)
    grammar = make_random_grammar(rng)
    graph = random_graph(4, 10, _LABELS, seed=rng.randint(0, 5000))
    cnf = to_cnf(grammar)
    assert cnf.nullable_diagonal == nullable_nonterminals(grammar)
    matrix = solve_matrix_relations(graph, cnf, normalize=False)
    gll = solve_gll(graph, grammar)

    for nonterminal in grammar.nonterminals:
        assert set(gll.pairs(nonterminal)) == set(matrix.pairs(nonterminal)), (
            f"{nonterminal}\n{grammar.to_text()}"
        )
