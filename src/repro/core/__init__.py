"""Core CFPQ algorithms: the paper's contribution."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".closure": ("BlockedStats", "ClosureResult", "STRATEGIES",
                 "available_strategies", "fixpoint_history", "get_strategy",
                 "run_closure"),
    ".conjunctive": ("ConjunctiveGrammar", "ConjunctiveRule", "TerminalRule",
                     "anbncn_grammar", "solve_conjunctive_approx"),
    ".engine": ("SEMANTICS", "CFPQEngine", "cfpq"),
    ".incremental": ("IncrementalCFPQ", "IncrementalSinglePathCFPQ"),
    ".matrix_cfpq": ("MatrixCFPQResult", "MatrixCFPQStats",
                     "initial_boolean_matrices", "solve_matrix",
                     "solve_matrix_relations"),
    ".path_index": ("AllPathIndex", "Path", "PathEdge"),
    ".semiring": ("BOOLEAN_SEMIRING", "LENGTH_SEMIRING", "AnnotatedBackend",
                  "AnnotatedClosureResult", "AnnotatedMatrix",
                  "BooleanSemiring", "LengthSemiring", "Semiring",
                  "initial_annotated_matrices", "solve_annotated"),
    ".naive_closure": ("NaiveClosureResult", "build_initial_matrix",
                       "relations_from_matrix", "solve_naive",
                       "solve_naive_with_history"),
    ".relations": ("ContextFreeRelations",),
    ".single_path": ("SinglePathIndex", "build_single_path_index",
                     "extract_path", "iter_single_paths", "path_is_valid",
                     "path_word"),
    ".transitive_closure": ("boolean_closure_delta",
                            "boolean_closure_incremental",
                            "boolean_closure_naive",
                            "boolean_closure_warshall", "closure_cf",
                            "closure_cf_history", "closure_valiant"),
})
