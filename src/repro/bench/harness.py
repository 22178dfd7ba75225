"""Measurement harness for the evaluation reproduction.

One *measurement* = (graph, query grammar, solver) → result count plus
wall-clock milliseconds.  The solver names mirror the paper's columns:

========= ===================================================== =========
name      implementation                                         paper
========= ===================================================== =========
gll       :func:`repro.baselines.gll.solve_gll`                  GLL
hellings  :func:`repro.baselines.hellings.solve_hellings`        (extra)
dense     matrix engine, NumPy dense backend                     dGPU
sparse    matrix engine, SciPy CSR backend                       sCPU/sGPU
setmatrix matrix engine, pure-Python backend                     (extra)
naive     literal set-matrix Algorithm 1                         (extra)
========= ===================================================== =========
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..baselines.gll import solve_gll
from ..baselines.hellings import solve_hellings
from ..core.matrix_cfpq import solve_matrix
from ..core.naive_closure import solve_naive
from ..grammar.cfg import CFG
from ..grammar.cnf import ensure_cnf
from ..grammar.symbols import Nonterminal, as_nonterminal
from ..graph.labeled_graph import LabeledGraph
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer, stopwatch

#: Solver signature: (graph, grammar, start) -> pair count.
Solver = Callable[[LabeledGraph, CFG, Nonterminal], int]


def _run_gll(graph: LabeledGraph, grammar: CFG, start: Nonterminal) -> int:
    relations = solve_gll(graph, grammar, nonterminals=[start])
    return relations.count(start)


def _run_hellings(graph: LabeledGraph, grammar: CFG, start: Nonterminal) -> int:
    return solve_hellings(graph, grammar).count(start)


def _matrix_runner(backend: str) -> Solver:
    def run(graph: LabeledGraph, grammar: CFG, start: Nonterminal) -> int:
        return solve_matrix(graph, grammar, backend=backend).relations.count(start)

    return run


def _run_naive(graph: LabeledGraph, grammar: CFG, start: Nonterminal) -> int:
    return solve_naive(graph, grammar).relations.count(start)


SOLVERS: dict[str, Solver] = {
    "gll": _run_gll,
    "hellings": _run_hellings,
    "dense": _matrix_runner("dense"),
    "sparse": _matrix_runner("sparse"),
    "setmatrix": _matrix_runner("setmatrix"),
    "naive": _run_naive,
}

#: Solver column order used by the table reproduction (paper order:
#: GLL, dGPU→dense, sCPU/sGPU→sparse).
PAPER_SOLVERS: tuple[str, ...] = ("gll", "dense", "sparse")


@dataclass(frozen=True)
class Measurement:
    """One timed solver run."""

    solver: str
    results: int
    milliseconds: float


def measure(solver_name: str, graph: LabeledGraph, grammar: CFG,
            start: Nonterminal | str = "S",
            repeats: int = 1) -> Measurement:
    """Run *solver_name* and report the best-of-*repeats* wall time.

    The grammar is pre-normalized outside the timed region for the
    matrix solvers (the paper times query evaluation, not grammar
    preparation; normalization is query-, not graph-, sized anyway).
    """
    if solver_name not in SOLVERS:
        raise KeyError(
            f"unknown solver {solver_name!r}; known: {', '.join(sorted(SOLVERS))}"
        )
    start_nt = as_nonterminal(start)
    prepared = grammar if solver_name == "gll" else ensure_cnf(grammar)
    solver = SOLVERS[solver_name]

    tracer = get_tracer()
    histogram = get_registry().histogram(
        "repro_bench_measure_seconds",
        "Wall time of individual harness solver runs",
        ("solver",),
    )
    best_ms = float("inf")
    results = -1
    for repeat in range(max(1, repeats)):
        with tracer.span("bench.measure", solver=solver_name,
                         repeat=repeat), stopwatch() as timer:
            results = solver(graph, prepared, start_nt)
        histogram.observe(timer.elapsed, solver=solver_name)
        best_ms = min(best_ms, timer.elapsed * 1000.0)
    return Measurement(solver=solver_name, results=results, milliseconds=best_ms)
