"""repro — Context-Free Path Querying by Matrix Multiplication.

A complete reproduction of Azimov & Grigorev (2018): context-free path
query evaluation under the relational and single-path semantics reduced
to a matrix transitive closure, with four interchangeable boolean
matrix backends (dense / sparse / bitset / setmatrix), one closure
engine with three strategies (semi-naive ``delta`` by default,
``naive`` as the oracle, ``blocked`` for bounded working sets), the
worklist and GLL-style baselines, the paper's evaluation datasets and
the benchmark harness for Tables 1 and 2.

Quickstart::

    from repro import CFPQEngine, parse_grammar
    from repro.graph import two_cycles

    grammar = parse_grammar("S -> a S b | a b", terminals=["a", "b"])
    engine = CFPQEngine(two_cycles(2, 3), grammar)
    print(engine.relational("S"))
    print(engine.single_path("S", 0, 0))
"""

from ._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".core.batch": ("BatchQuery", "solve_batch"),
    ".core.closure": ("available_strategies", "run_closure"),
    ".core.engine": ("CFPQEngine", "cfpq"),
    ".core.incremental": ("IncrementalCFPQ", "IncrementalSinglePathCFPQ"),
    ".core.path_index": ("AllPathIndex",),
    ".core.matrix_cfpq": ("solve_matrix", "solve_matrix_relations"),
    ".core.naive_closure": ("solve_naive",),
    ".core.relations": ("ContextFreeRelations",),
    ".core.semiring": ("LENGTH_SEMIRING", "AnnotatedBackend",
                       "AnnotatedMatrix", "Semiring", "solve_annotated"),
    ".core.single_path": ("build_single_path_index", "extract_path"),
    ".errors": ("ReproError",),
    ".grammar": ("CFG", "Nonterminal", "Production", "Terminal",
                 "parse_grammar", "to_cnf"),
    ".graph": ("LabeledGraph", "load_graph_file", "load_rdf_graph",
               "triples_to_graph"),
    ".obs": ("MetricsRegistry", "Tracer", "configure_tracing",
             "get_registry", "get_tracer", "render_prometheus",
             "summarize_trace"),
    ".regular": ("solve_rpq",),
    ".service": ("QueryService", "load_engine_snapshot",
                 "save_engine_snapshot"),
})

__version__ = "1.1.0"

__all__.append("__version__")
