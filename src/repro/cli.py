"""Command-line interface: ``repro-cfpq``.

Examples::

    # Relational semantics with a named grammar over an edge-list graph
    repro-cfpq query --graph graph.txt --grammar-name dyck1 --start S

    # A grammar file, sparse backend, JSON output
    repro-cfpq query --graph g.txt --grammar my.cfg --backend sparse --json

    # One witness path (single-path semantics, Section 5)
    repro-cfpq path --graph graph.txt --grammar-name dyck1 --start S \
        --source 0 --target 3

    # The 5 best witness paths, most probable first (lazy k-best)
    repro-cfpq paths --graph graph.txt --grammar-name dyck1 --start S \
        --source 0 --target 3 --top-k 5 --semiring viterbi

    # Batch-incremental maintenance: insert and delete edge files
    repro-cfpq update --graph graph.txt --grammar-name dyck1 --start S \
        --insert new_edges.txt --delete dead_edges.txt --stats

    # Persist a solved index, then serve queries from the warm snapshot
    repro-cfpq snapshot --graph graph.txt --grammar-name dyck1 \
        --output index.snapshot
    repro-cfpq serve --snapshot index.snapshot --port 7411 --stats

    # Reproduce the paper's tables
    repro-cfpq tables table1 --max-triples 700
"""

from __future__ import annotations

import argparse
import json
import sys

from .core.closure import TILE_OPTIONS, available_strategies, closure_settings
from .core.engine import CFPQEngine
from .errors import ReproError, SemanticsError
from .grammar.builders import GRAMMAR_REGISTRY, get_grammar
from .grammar.parser import parse_grammar
from .graph.io import load_graph_file
from .matrices.base import BACKEND_NAMES, backend_installed


def _load_grammar(args: argparse.Namespace):
    if args.grammar_name:
        return get_grammar(args.grammar_name)
    if args.grammar:
        with open(args.grammar, "r", encoding="utf-8") as stream:
            return parse_grammar(stream.read())
    raise SystemExit("one of --grammar or --grammar-name is required")


def _load_graph(args: argparse.Namespace, path: "str | None" = None):
    """The graph at *path* (default ``--graph``), read as RDF triples
    under ``--rdf``."""
    path = path or args.graph
    if args.rdf:
        from .graph.rdf import load_rdf_graph

        return load_rdf_graph(path)
    return load_graph_file(path)


def _positive_int(text: str) -> int:
    """argparse type for sizes: a positive integer, else a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return value


def _backend(name: str) -> str:
    """argparse type for ``--backend``: a bundled backend whose
    dependency is not installed is a usage error (unknown names fall
    through to ``choices``)."""
    if name in BACKEND_NAMES and not backend_installed(name):
        raise argparse.ArgumentTypeError(
            f"backend {name!r} needs NumPy/SciPy, which are not installed "
            "(pip install 'repro-cfpq[backends]')")
    return name


def _memory_budget(text: str) -> "int | None":
    """argparse type for ``--memory-budget``: a malformed size is a
    usage error, not a traceback."""
    from .core.tilestore import parse_memory_budget

    try:
        return parse_memory_budget(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--graph", required=True, help="edge-list graph file")
    parser.add_argument("--rdf", action="store_true",
                        help="treat the graph file as RDF triples "
                             "(adds inverse edges, per the paper)")
    parser.add_argument("--grammar", help="grammar file in the text DSL")
    parser.add_argument("--grammar-name",
                        choices=sorted(GRAMMAR_REGISTRY),
                        help="built-in grammar")
    parser.add_argument("--start", default="S", help="start non-terminal")
    _add_closure_flags(parser)
    _add_tracing(parser)


def _add_closure_flags(parser: argparse.ArgumentParser) -> None:
    """The flags :func:`repro.core.closure.closure_settings` reads."""
    parser.add_argument("--backend", type=_backend, default=None,
                        choices=BACKEND_NAMES,
                        help="matrix backend (default: a served "
                             "snapshot's, else the best installed)")
    parser.add_argument("--strategy", default=None,
                        choices=available_strategies(),
                        help="closure strategy (delta = semi-naive, the "
                             "default unless a served snapshot names "
                             "another; naive = full re-multiplication; "
                             "blocked = frontier-aware tiled products); "
                             "does not apply "
                             "to --semiring counting, whose + is not "
                             "idempotent and always closes by Kleene "
                             "iteration, which refuses the tile flags")
    parser.add_argument("--tile-size", type=_positive_int, default=None,
                        help="tile edge for the blocked strategy "
                             "(default: the largest edge whose 16-tile "
                             "working set fits the budget)")
    parser.add_argument("--memory-budget", type=_memory_budget,
                        default=None,
                        help="resident tile byte budget for the blocked "
                             "strategy, e.g. 65536, '64K', '8M' "
                             "(default: $REPRO_MEMORY_BUDGET or unbounded; "
                             "'0'/'none' disables)")
    parser.add_argument("--spill-dir", default=None,
                        help="directory for spilled tiles (default: a "
                             "private temporary directory; cleaned up on "
                             "success, kept on a crash)")


def _add_tracing(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace-file", default=None, metavar="FILE",
                        help="append structured spans (closure rounds, "
                             "tile groups, WAL appends, requests) to "
                             "this JSONL file; inspect with "
                             "'repro-cfpq trace summarize FILE' "
                             "(default: $REPRO_TRACE_FILE or off)")


def _configure_observability(args: argparse.Namespace) -> None:
    """Apply the tracing flags before the handler does any real work.

    The slow-query log needs live spans even without a trace file, so
    ``--slow-query-ms`` alone turns the tracer on without a sink."""
    trace_file = getattr(args, "trace_file", None)
    slow_ms = getattr(args, "slow_query_ms", None)
    if trace_file:
        from .obs.trace import configure_tracing
        configure_tracing(trace_file=trace_file)
    elif slow_ms is not None:
        from .obs.trace import configure_tracing
        configure_tracing(enabled=True)
    if slow_ms is not None:
        from .service.server import set_slow_query_log
        set_slow_query_log(slow_ms, getattr(args, "slow_query_log", None))


def _tile_options(args: argparse.Namespace) -> dict:
    """The tile flags as closure options (None when not given); the
    closure refuses one given with a strategy that does not read it
    (:func:`repro.core.closure.closure_settings`)."""
    return {name: getattr(args, name) for name in TILE_OPTIONS}


def _stats_payload(engine: CFPQEngine) -> dict:
    """The solver stats of the engine's default (backend, strategy) run,
    as plain JSON (used by ``query --stats``)."""
    stats = engine.solve().stats
    payload = {
        "backend": stats.backend,
        "strategy": stats.strategy,
        "iterations": stats.iterations,
        "multiplications": stats.multiplications,
        "total_entries": stats.total_entries,
        "delta_nnz_per_round": list(stats.delta_nnz_per_round),
    }
    blocked = stats.details.get("blocked")
    if blocked is not None:
        payload["blocked"] = blocked.as_dict()
    round_seconds = stats.details.get("round_seconds")
    if round_seconds is not None:
        payload["round_seconds"] = list(round_seconds)
    return payload


def cmd_query(args: argparse.Namespace) -> int:
    if args.batch:
        return _cmd_query_batch(args)
    if args.semiring:
        return _cmd_query_semiring(args)
    engine = CFPQEngine(_load_graph(args), _load_grammar(args),
                        backend=args.backend, strategy=args.strategy,
                        **_tile_options(args))
    start = engine.grammar.resolve_nonterminal(args.start)
    _print_relation(args, engine.graph, engine.relations().rows(start),
                    {"start": args.start}, f"R_{args.start}",
                    stats=_stats_payload(engine) if args.stats else None)
    return 0


def _print_relation(args: argparse.Namespace, graph, rows, head: dict,
                    title: str, tail: "dict | None" = None,
                    stats: "dict | None" = None) -> None:
    """Print a relation from its integer *rows* (``(i, targets)``) in
    the one pair order (:mod:`repro.core.pair_writer`): a JSON document
    ``{**head, count, pairs, **tail, stats}``, or *title* and one
    ``source -> target`` line per pair."""
    from .core.pair_writer import PairWriter, json_document

    writer = PairWriter(graph)
    keys = writer.keys(rows)
    if args.json:
        document = {**head, "count": len(keys), "pairs": writer.json(keys),
                    **(tail or {})}
        if stats is not None:
            document["stats"] = stats
        print(json_document(document))
        return
    print(f"{title}: {len(keys)} pairs")
    if keys:
        print(writer.text(keys))
    if stats is not None:
        print("stats:")
        print(json.dumps(stats, indent=2))


def _cmd_query_batch(args: argparse.Namespace) -> int:
    """Answer a JSONL file of query specs with **one** closure
    (:func:`repro.core.batch.solve_batch`) instead of one solve per
    line (:func:`repro.graph.request.read_query`; ``start`` defaults to
    ``--start``)."""
    from .core.batch import solve_batch
    from .core.pair_writer import PairWriter, RawJSON, json_document
    from .graph.request import read_query

    graph = _load_graph(args)
    grammar = _load_grammar(args)
    specs, queries = [], []
    with open(args.batch, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                spec = json.loads(line)
            except ValueError as error:
                raise SemanticsError(f"{args.batch} line {number}: "
                                     f"bad JSON: {error}") from None
            if isinstance(spec, dict):
                spec.setdefault("start", args.start)
            specs.append(spec)
            queries.append(read_query(spec, graph, "batch"))
    answers = solve_batch(graph, grammar, queries, backend=args.backend,
                          strategy=args.strategy,
                          **_tile_options(args))
    writer = PairWriter(graph)
    rendered = [writer.json(writer.node_keys(answer))
                if isinstance(answer, frozenset) else json.dumps(answer)
                for answer in answers]
    if args.json:
        print(json_document({"count": len(rendered), "answers": RawJSON(
            "[" + ", ".join(rendered) + "]")}))
    else:
        for spec, answer in zip(specs, rendered):
            print(f"{json.dumps(spec)} -> {answer}")
    return 0


def _cmd_query_semiring(args: argparse.Namespace) -> int:
    """Weighted relational semantics: close the graph under the chosen
    semiring and report each reachable pair's annotation — shortest
    derivation length, best derivation probability, or (saturating)
    derivation count."""
    from .core.pair_writer import PairWriter
    from .core.semiring import get_semiring, solve_annotated
    from .grammar.cnf import ensure_cnf

    graph = _load_graph(args)
    semiring = get_semiring(args.semiring)
    grammar = ensure_cnf(_load_grammar(args))
    start = grammar.resolve_nonterminal(args.start)
    result = solve_annotated(graph, grammar, semiring, normalize=False,
                             strategy=args.strategy,
                             **_tile_options(args))
    rows = PairWriter(graph).cells(*result.matrices[start].columns())
    if args.json:
        print(json.dumps({"start": args.start, "semiring": semiring.name,
                          "count": len(rows), "pairs": rows}))
    else:
        print(f"R_{args.start} under {semiring.name}: {len(rows)} pairs")
        for source, target, value in rows:
            print(f"  {source} -> {target}: {value}")
    return 0


def _path_json(graph, path) -> list:
    """A path as ``[source, label, target]`` triples of node strings."""
    return [[str(graph.node_at(i)), label, str(graph.node_at(j))]
            for i, label, j in path]


def _path_text(graph, path) -> str:
    return " ".join(f"{graph.node_at(i)} -{label}-> {graph.node_at(j)}"
                    for i, label, j in path)


def _engine_and_query(args: argparse.Namespace):
    """The engine of a ``path``/``paths`` command and its query, read
    (:func:`repro.graph.request.read_argv`) before anything is solved."""
    from .graph.request import read_argv

    engine = CFPQEngine(_load_graph(args), _load_grammar(args),
                        backend=args.backend, strategy=args.strategy,
                        **_tile_options(args))
    return engine, read_argv(args, engine.graph)


def cmd_path(args: argparse.Namespace) -> int:
    engine, query = _engine_and_query(args)
    graph = engine.graph
    path = engine.single_path(query.start, *query.ends)
    if args.json:
        print(json.dumps(_path_json(graph, path)))
    else:
        print(f"path of length {len(path)}:")
        for i, label, j in path:
            print(f"  {graph.node_at(i)} -{label}-> {graph.node_at(j)}")
    return 0


def cmd_all_paths(args: argparse.Namespace) -> int:
    """All-path semantics: every path of at most --max-length edges
    (default 8), or the --top-k best by lazy k-best enumeration over the
    witness forest, which needs no bound even on cyclic graphs."""
    engine, query = _engine_and_query(args)
    graph = engine.graph
    if args.top_k is None:
        max_length = query.max_length if query.max_length is not None else 8
        paths = sorted(engine.all_paths(query.start, *query.ends,
                                        max_length=max_length),
                       key=lambda path: (len(path), path))
        title = f"{len(paths)} paths of length <= {max_length}:"
    else:
        from .core.path_index import LengthRank, ViterbiRank

        viterbi = args.semiring == "viterbi"
        start = engine.grammar.resolve_nonterminal(query.start)
        paths = engine.all_path_index().top_k(
            start, *query.ends, query.k, max_length=query.max_length,
            rank=ViterbiRank() if viterbi else LengthRank())
        order = "most probable" if viterbi else "shortest"
        title = f"top {len(paths)} paths ({order} first):"
    if args.json:
        print(json.dumps([_path_json(graph, path) for path in paths]))
        return 0
    print(title)
    for position, path in enumerate(paths, start=1):
        rank = "" if args.top_k is None else f"{position}. "
        print(f"  {rank}[{len(path)}] {_path_text(graph, path)}")
    return 0


def cmd_update(args: argparse.Namespace) -> int:
    """Batch-incremental maintenance: apply insertion/deletion edge
    files to the loaded graph and report the updated relation."""
    from .core.incremental import IncrementalCFPQ
    from .grammar.cnf import ensure_cnf

    if not args.insert and not args.delete:
        raise SystemExit("update requires --insert and/or --delete")
    grammar = ensure_cnf(_load_grammar(args))
    start = grammar.resolve_nonterminal(args.start)
    solver = IncrementalCFPQ(_load_graph(args), grammar,
                             backend=args.backend, strategy=args.strategy,
                             **_tile_options(args))

    def update_edges(path: str):
        # With --rdf the base graph carried the paper's inverse-edge
        # conversion; the update files must be parsed and converted by
        # the same rule or the maintained relation silently diverges
        # from a fresh `query --rdf` on the merged triples.
        return _load_graph(args, path).edges()

    added = removed = 0
    if args.insert:
        added = solver.add_edges(update_edges(args.insert))
    if args.delete:
        removed = solver.remove_edges(update_edges(args.delete))
    _print_relation(args, solver.graph, solver.relations().rows(start),
                    {"start": args.start},
                    f"update: +{added} / -{removed} facts\nR_{args.start}",
                    tail={"facts_added": added, "facts_removed": removed},
                    stats=dict(solver.stats) if args.stats else None)
    return 0


def cmd_snapshot(args: argparse.Namespace) -> int:
    """Solve the requested semantics and persist the index to a
    versioned snapshot file (see ``serve --snapshot``)."""
    from .service.snapshot import save_engine_snapshot

    engine = CFPQEngine(_load_graph(args), _load_grammar(args),
                        backend=args.backend, strategy=args.strategy,
                        **_tile_options(args))
    size = save_engine_snapshot(args.output, engine,
                                semantics=tuple(args.semantics))
    print(f"wrote {args.output}: {size} bytes "
          f"({', '.join(args.semantics)}; backend {engine.backend})")
    return 0


def _parse_replicas(spec: "str | None") -> list:
    """Parse ``host:port,host:port`` into ``[(host, port), ...]``."""
    if not spec:
        return []
    replicas = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        host, _, port = item.rpartition(":")
        if not host or not port.isdigit():
            raise SystemExit(f"bad replica address {item!r}; expected "
                             "HOST:PORT")
        replicas.append((host, int(port)))
    return replicas


def serve_service(args: argparse.Namespace):
    """The service ``serve`` runs for *args*: loaded or solved, and
    wrapped for its replication role (a follower caught up to the end
    of the WAL).  A flag combination that cannot run is refused before
    anything is loaded."""
    from .service.query_service import QueryService
    from .service.replica import check_role, open_role

    check_role(args.role, snapshot=args.snapshot, wal=args.wal,
               replicas=_parse_replicas(args.replicas))
    if not (args.snapshot or args.graph):
        raise SystemExit("serve requires --graph or --snapshot")
    options = _tile_options(args)
    # Judged by the --strategy given (delta when none), before any file
    # is read: a snapshot start would otherwise take the snapshot's.
    closure_settings(args.backend, args.strategy, **options)
    service_kwargs = dict(
        backend=args.backend, strategy=args.strategy,
        single_path=True if args.single_path else None,
        semiring=args.semiring, **options,
    )
    if args.role == "follower":
        # A follower builds its state from the leader's snapshot + WAL;
        # open_role handles loading and catching up.
        service = None
    elif args.snapshot:
        service = QueryService.from_snapshot(args.snapshot,
                                             **service_kwargs)
    else:
        service = QueryService(
            _load_graph(args), _load_grammar(args), backend=args.backend,
            strategy=args.strategy, single_path=args.single_path,
            semiring=args.semiring, **options,
        )
    return open_role(args.role, service, snapshot=args.snapshot,
                     wal=args.wal, fsync=args.wal_fsync, **service_kwargs)


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve JSONL queries/updates over stdio or TCP."""
    from .service.server import serve_stream, serve_tcp

    replicas = _parse_replicas(args.replicas)
    service = serve_service(args)
    metrics_server = None
    if args.metrics_addr:
        from .obs.export import start_metrics_server
        metrics_server = start_metrics_server(args.metrics_addr)
        host, port = metrics_server.address
        print(f"metrics on http://{host}:{port}/metrics",
              file=sys.stderr)
    try:
        if args.port is not None:
            serve_tcp(service, host=args.host, port=args.port,
                      include_stats=args.stats, replicas=replicas)
        else:
            serve_stream(service, sys.stdin, sys.stdout,
                         include_stats=args.stats)
    finally:
        if metrics_server is not None:
            metrics_server.close()
    return 0


def cmd_trace_summarize(args: argparse.Namespace) -> int:
    """Aggregate a JSONL trace file into per-phase wall-time totals."""
    from .obs.summarize import render_summary, summarize_trace

    summary = summarize_trace(args.file)
    if args.json:
        print(json.dumps(summary))
    else:
        print(render_summary(summary))
    return 0


def cmd_tables(args: argparse.Namespace) -> int:
    from .bench.tables import main as tables_main

    forwarded = [args.table]
    if args.max_triples is not None:
        forwarded += ["--max-triples", str(args.max_triples)]
    return tables_main(forwarded)


def cmd_rpq(args: argparse.Namespace) -> int:
    from .regular.rpq import rpq_pairs_by_id

    graph = _load_graph(args)
    pairs = rpq_pairs_by_id(graph, args.regex, backend=args.backend)
    _print_relation(args, graph, ((i, (j,)) for i, j in pairs),
                    {"regex": args.regex}, f"RPQ {args.regex!r}")
    return 0


def cmd_generate_dataset(args: argparse.Namespace) -> int:
    from .datasets.registry import build_graph, dataset_names
    from .graph.io import save_graph_file

    if args.list:
        for name in dataset_names():
            print(name)
        return 0
    graph = build_graph(args.name)
    save_graph_file(graph, args.output)
    print(f"wrote {graph.node_count} nodes / {graph.edge_count} edges "
          f"to {args.output}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    from .graph.stats import graph_stats

    stats = graph_stats(_load_graph(args))
    print(json.dumps(stats.as_dict(), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cfpq",
        description="Context-free path querying by matrix multiplication",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    query = subparsers.add_parser("query", help="relational semantics")
    _add_common(query)
    query.add_argument("--batch", metavar="FILE",
                       help="JSONL file of query specs (start/source(s)/"
                            "target(s)/semantics per line) answered by "
                            "one batched closure")
    query.add_argument("--semiring", default=None,
                       choices=["length", "viterbi", "counting"],
                       help="weighted relational semantics: annotate "
                            "each reachable pair with its shortest "
                            "derivation length, best derivation "
                            "probability, or saturating derivation "
                            "count (default: plain boolean pairs)")
    query.add_argument("--json", action="store_true")
    query.add_argument("--stats", action="store_true",
                       help="print solver stats (iterations, per-round "
                            "frontier sizes, per-tile stats)")
    query.set_defaults(handler=cmd_query)

    path = subparsers.add_parser("path", help="single-path semantics")
    _add_common(path)
    path.add_argument("--source", required=True)
    path.add_argument("--target", required=True)
    path.add_argument("--json", action="store_true")
    path.set_defaults(handler=cmd_path)

    all_paths = subparsers.add_parser(
        "paths", help="bounded all-path semantics"
    )
    _add_common(all_paths)
    all_paths.add_argument("--source", required=True)
    all_paths.add_argument("--target", required=True)
    all_paths.add_argument("--max-length", type=int, default=None,
                           help="path length bound (default 8 for the "
                                "exhaustive listing; with --top-k the "
                                "lazy enumerator needs no bound, so the "
                                "default is none)")
    all_paths.add_argument("--top-k", type=int, default=None,
                           help="stream only the K best paths "
                                "(best-first over the witness forest; "
                                "rank order set by --semiring)")
    all_paths.add_argument("--semiring", default="length",
                           choices=["length", "viterbi"],
                           help="--top-k rank order: shortest first "
                                "(length) or most probable first "
                                "(viterbi)")
    all_paths.add_argument("--json", action="store_true")
    all_paths.set_defaults(handler=cmd_all_paths)

    update = subparsers.add_parser(
        "update",
        help="batch-incremental insert/delete maintenance",
        description="Load the graph, solve once (--strategy and its "
                    "options shape this solve only), then apply the "
                    "--insert edge file through the incremental worklist "
                    "and the --delete edge file through DRed "
                    "delete-and-rederive (insertions run first).",
    )
    _add_common(update)
    update.add_argument("--insert", metavar="FILE",
                        help="edge-list file of edges to insert")
    update.add_argument("--delete", metavar="FILE",
                        help="edge-list file of edges to delete "
                             "(applied after --insert)")
    update.add_argument("--json", action="store_true")
    update.add_argument("--stats", action="store_true",
                        help="print incremental-solver stats (updates "
                             "seen, facts propagated/removed)")
    update.set_defaults(handler=cmd_update)

    snapshot = subparsers.add_parser(
        "snapshot",
        help="solve and persist the index to a snapshot file",
        description="Solve the graph under the grammar for the chosen "
                    "semantics and write a versioned snapshot that "
                    "`serve --snapshot` (and CFPQEngine.from_snapshot) "
                    "warm-start from with zero closure rounds.",
    )
    _add_common(snapshot)
    snapshot.add_argument("--output", default="index.snapshot",
                          help="snapshot file to write")
    snapshot.add_argument("--semantics", nargs="+",
                          choices=["relational", "single-path", "all-path"],
                          default=["relational"],
                          help="index sections to solve and persist "
                               "(default: relational only; annotated "
                               "sections cost their closures once here "
                               "instead of at every process start; "
                               "single-path also yields the relational "
                               "section from the same closure)")
    snapshot.set_defaults(handler=cmd_snapshot)

    serve = subparsers.add_parser(
        "serve",
        help="serve JSONL queries/updates (stdio or TCP)",
        description="Run a query service: one JSON request per input "
                    "line, one JSON response per output line (see "
                    "repro.service.server for the protocol).  Reads "
                    "stdin by default; --port starts a concurrent TCP "
                    "server instead.",
    )
    serve.add_argument("--snapshot",
                       help="warm-start from a snapshot file instead of "
                            "solving --graph")
    serve.add_argument("--graph", help="edge-list graph file (cold start)")
    serve.add_argument("--rdf", action="store_true",
                       help="treat the graph file as RDF triples")
    serve.add_argument("--grammar", help="grammar file in the text DSL")
    serve.add_argument("--grammar-name", choices=sorted(GRAMMAR_REGISTRY),
                       help="built-in grammar")
    _add_closure_flags(serve)
    serve.add_argument("--single-path", action="store_true",
                       help="maintain length annotations so single-path "
                            "and length queries are served")
    serve.add_argument("--semiring", default=None,
                       choices=["length", "viterbi"],
                       help="rank order for top_k ops: shortest first "
                            "(length) or most probable first (viterbi) "
                            "(default: $REPRO_SERVICE_SEMIRING or "
                            "length)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=None,
                       help="serve TCP on this port (0 = ephemeral; the "
                            "bound address is announced on stderr) "
                            "instead of stdio")
    serve.add_argument("--stats", action="store_true",
                       help="attach cache hit rate / tick latency / "
                            "snapshot size to every response")
    serve.add_argument("--role", default="single",
                       choices=["single", "leader", "follower"],
                       help="replication role: 'leader' write-ahead-logs "
                            "every update tick to --wal; 'follower' "
                            "loads --snapshot and replays the leader's "
                            "--wal, serving reads at its replay horizon "
                            "(default: single, no replication)")
    serve.add_argument("--wal", metavar="PATH",
                       help="write-ahead tick log file (required for "
                            "--role leader/follower)")
    serve.add_argument("--wal-fsync", default="batch",
                       choices=["always", "batch", "never"],
                       help="leader WAL durability: fsync every tick, "
                            "every batch (default), or never")
    serve.add_argument("--replicas", metavar="HOST:PORT,...",
                       help="leader-only: fan query ops out round-robin "
                            "to these follower servers; updates stay "
                            "local")
    serve.add_argument("--metrics-addr", metavar="[HOST:]PORT",
                       help="serve the metrics registry in Prometheus "
                            "text format over HTTP at this address "
                            "(GET /metrics); the same text is available "
                            "in-protocol via the 'metrics' op")
    serve.add_argument("--slow-query-ms", type=float, default=None,
                       metavar="MS",
                       help="log any request taking at least MS "
                            "milliseconds, with its full span tree "
                            "(default: off)")
    serve.add_argument("--slow-query-log", default=None, metavar="FILE",
                       help="JSONL file for slow-query records "
                            "(default: the server log)")
    _add_tracing(serve)
    serve.set_defaults(handler=cmd_serve)

    trace = subparsers.add_parser(
        "trace", help="inspect structured trace files",
        description="Tools over the JSONL span traces written by "
                    "--trace-file / $REPRO_TRACE_FILE.",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_sub.add_parser(
        "summarize",
        help="aggregate a trace into per-phase wall-time totals",
    )
    summarize.add_argument("file", help="JSONL trace file")
    summarize.add_argument("--json", action="store_true")
    summarize.set_defaults(handler=cmd_trace_summarize)

    tables = subparsers.add_parser("tables", help="reproduce paper tables")
    tables.add_argument("table", choices=["table1", "table2", "both"])
    tables.add_argument("--max-triples", type=int, default=None)
    tables.set_defaults(handler=cmd_tables)

    rpq = subparsers.add_parser("rpq", help="regular path query")
    rpq.add_argument("--graph", required=True, help="edge-list graph file")
    rpq.add_argument("--rdf", action="store_true",
                     help="treat the graph file as RDF triples")
    rpq.add_argument("--regex", required=True,
                     help="label regex, e.g. 'subClassOf_r+ subClassOf+'")
    rpq.add_argument("--backend", type=_backend, default=None,
                     choices=BACKEND_NAMES,
                     help="matrix backend (default: the best installed)")
    rpq.add_argument("--json", action="store_true")
    rpq.set_defaults(handler=cmd_rpq)

    generate = subparsers.add_parser(
        "generate-dataset", help="materialize an evaluation dataset graph"
    )
    generate.add_argument("name", nargs="?", default="skos")
    generate.add_argument("--output", default="dataset.txt")
    generate.add_argument("--list", action="store_true",
                          help="list dataset names and exit")
    generate.set_defaults(handler=cmd_generate_dataset)

    stats = subparsers.add_parser("stats", help="graph statistics as JSON")
    stats.add_argument("--graph", required=True)
    stats.add_argument("--rdf", action="store_true")
    stats.set_defaults(handler=cmd_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``repro-cfpq`` console script."""
    args = build_parser().parse_args(argv)
    _configure_observability(args)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
