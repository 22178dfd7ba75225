"""Regular path queries: the regular-language sibling of CFPQ."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".automaton": ("NFA", "regex_to_nfa"),
    ".regex": ("Concat", "Label", "Optional_", "Plus", "RegexNode", "Star",
               "Union", "parse_regex", "regex_labels"),
    ".rpq": ("product_adjacency", "rpq_pairs_by_id", "solve_rpq"),
})
