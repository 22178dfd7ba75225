"""Grammar substrate: symbols, CFGs, parsing, normal forms, recognizers.

Public surface::

    from repro.grammar import (
        Terminal, Nonterminal, EPSILON, Production, CFG,
        parse_grammar, to_cnf, cyk_recognize, derives,
    )
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".analysis": ("derives_any_terminal_string", "generating_nonterminals",
                  "grammar_signature", "nullable_nonterminals",
                  "reachable_symbols", "remove_useless", "unit_pairs"),
    ".builders": ("GRAMMAR_REGISTRY", "chain_reachability", "dyck", "dyck1",
                  "get_grammar", "points_to_grammar", "rna_hairpin_grammar",
                  "same_generation_query1", "same_generation_query1_cnf",
                  "same_generation_query2"),
    ".cfg": ("CFG",),
    ".cnf": ("binarize", "eliminate_epsilon", "eliminate_unit_rules",
             "ensure_cnf", "lift_terminals", "to_cnf"),
    ".parser": ("parse_grammar", "parse_production"),
    ".production": ("Production", "production"),
    ".recognizer": ("EarleyRecognizer", "cyk_recognize", "derives",
                    "language_sample"),
    ".symbols": ("EPSILON", "INVERSE_SUFFIX", "Nonterminal", "Symbol",
                 "Terminal", "fresh_nonterminal", "inverse_label",
                 "is_inverse_label"),
})
