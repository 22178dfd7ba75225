"""Graph substrate: labeled graphs, RDF conversion, generators, IO."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".generators": ("binary_tree", "chain", "cycle", "grid",
                    "paper_example_graph", "random_graph", "repeat_graph",
                    "two_cycles", "word_chain", "worst_case_dyck_graph"),
    ".io": ("dump_graph", "dumps_graph", "load_csv_graph", "load_graph",
            "load_graph_file", "loads_graph", "save_graph_file"),
    ".labeled_graph": ("Edge", "LabeledGraph"),
    ".matrices": ("adjacency_matrices", "boolean_adjacency",
                  "label_pair_sets"),
    ".rdf": ("Triple", "graph_to_triples", "load_rdf_graph",
             "parse_triple_line", "parse_triples", "read_triples",
             "shorten_iri", "triples_to_graph"),
    ".stats": ("GraphStats", "graph_stats"),
})
