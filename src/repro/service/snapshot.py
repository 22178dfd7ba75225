"""Versioned on-disk snapshots of solved CFPQ indices.

Every process that loads a graph re-pays the closure before it can
answer a single query.  A snapshot persists the *solved* state so a
restart costs O(load) instead of O(solve).  Engines and query services
write one layout, the paper's Section 5 index: ``graph``, ``grammar``
(CNF, with its nullable diagonal), ``backend``, ``strategy``, the
per-non-terminal boolean matrices (``relational``) and, for
single-path, one length per fact (``length``; by Theorem 2 its cells
are the relational facts).  The all-path forest is a view of the
relations (:mod:`repro.core.path_index`), made at load.  Sections
written by older versions are ignored: ``witness``, and a service's
``incremental`` copy of its facts (whose ``lengths`` are read only when
``length`` is absent).

Format
------
A snapshot file is a one-line magic header carrying the format version,
followed by a pickled envelope of **plain containers only** (dicts,
lists, tuples, ints, strings, bytes — never library objects), so old
snapshots survive internal refactors as long as the format version is
understood::

    repro-cfpq-snapshot\\x00<version>\\n
    <pickle of {"library_version": "...", "payload": {...}}>

:func:`read_snapshot` checks the magic and version *before* touching
the pickle (foreign files raise :class:`~repro.errors.SnapshotError`,
unknown versions :class:`~repro.errors.SnapshotVersionError`), and then
unpickles through a restricted loader whose ``find_class`` rejects
every class — plain containers never need one, and a crafted pickle
cannot reach a callable to execute.  The plain-container rule is also
why graph *nodes* must be plain values (ints, strings, tuples...) for a
graph to be snapshottable.

Matrices travel through the same **payload codec** the tile store
spills with (:meth:`repro.matrices.base.MatrixBackend.tile_payload` /
``tile_from_payload``): dense bool buffers, bitset words, CSR index
arrays, or coordinate lists, tagged with the producing backend's
registry key.  One encoder, :func:`encode_relations`, writes the
relational section for engines and services alike, from closed
matrices or live row maps, so one fixpoint is one byte string.
Loading under a *different* backend re-materializes through the codec
and converts via the coordinate round-trip
(:meth:`~repro.matrices.base.MatrixBackend.clone`), so a snapshot saved
with ``sparse`` warm-starts a ``bitset`` engine and vice versa.
Scalar-annotated (length/viterbi) matrices travel as sorted
``[i, j, value]`` cell lists, whichever layout (arrays or dict of
cells) holds them in memory.

Loading decodes every matrix into memory: an engine keeps them
resident, a service adopts each by rows and drops it.  A memory budget
governs closures (the ``blocked`` strategy's tile store), not loads.
Both loaders refuse, with :class:`~repro.errors.SnapshotError`, a
section that does not fit the decoded problem: an edge naming a node id
outside the node list, or a matrix of a non-terminal the grammar lacks
or of a shape other than ``n × n``.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import tempfile
from typing import Hashable

from ..errors import SnapshotError, SnapshotVersionError, UnknownBackendError
from ..grammar.cfg import CFG
from ..grammar.production import Production
from ..grammar.symbols import Nonterminal, Symbol, Terminal
from ..graph.labeled_graph import LabeledGraph
from ..matrices.base import BooleanMatrix, get_backend
from ..core.relations import relation_rows
from ..core.semiring import (
    LENGTH_SEMIRING,
    AnnotatedBackend,
    get_semiring,
)

MAGIC = "repro-cfpq-snapshot"
_HEADER_PREFIX = MAGIC.encode("ascii") + b"\x00"

#: Current snapshot format version.  Bump on any payload layout change;
#: readers refuse versions they do not list in SUPPORTED_VERSIONS.
SNAPSHOT_VERSION = 1
SUPPORTED_VERSIONS: tuple[int, ...] = (1,)

#: Retired backend names -> the backend that now decodes their payloads
#: (the generic coordinate form): the ``backend`` header and payload tags
#: of snapshots saved before the name was dropped.
_RETIRED_BACKENDS = {"pyset": "setmatrix"}


# ----------------------------------------------------------------------
# Envelope I/O
# ----------------------------------------------------------------------

class _PlainUnpickler(pickle.Unpickler):
    """Unpickler for the plain-container envelope: every class lookup
    is refused, so a crafted pickle has no callable to execute."""

    def find_class(self, module: str, name: str):
        raise SnapshotError(
            f"snapshot payload references {module}.{name}; snapshots "
            "hold only plain containers"
        )


class _CanonicalPickler(pickle.Pickler):
    """Memo-free pickler: equal payloads yield equal bytes.

    Ordinary pickling memoizes by object *identity*, so two logically
    equal payloads serialize differently whenever their internal object
    sharing differs (a live service interns strings the unpickled twin
    of its own snapshot does not).  Replication's byte-identical
    convergence guarantee needs ``bytes == f(value)``, so the memo is
    disabled (``fast``); the envelope holds only acyclic plain
    containers, hence no recursion risk."""

    def __init__(self, stream):
        super().__init__(stream, protocol=4)
        self.fast = True


def write_snapshot(path: str, payload: dict) -> int:
    """Write *payload* under the versioned envelope; returns the file
    size in bytes.  The bytes go to a unique temporary file beside
    *path*, fsynced and renamed over it: readers, and concurrent or
    failed saves, see the old file or a whole new one, never a torn one."""
    document = {
        "library_version": _library_version(),
        "payload": payload,
    }
    directory, name = os.path.split(os.path.abspath(path))
    descriptor, temp_path = tempfile.mkstemp(prefix=name + ".",
                                             suffix=".tmp", dir=directory)
    try:
        with os.fdopen(descriptor, "wb") as stream:
            stream.write(_HEADER_PREFIX
                         + str(SNAPSHOT_VERSION).encode("ascii") + b"\n")
            _CanonicalPickler(stream).dump(document)
            stream.flush()
            os.fsync(stream.fileno())
            size = stream.tell()
        os.replace(temp_path, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp_path)
        raise
    return size


def read_snapshot(path: str) -> dict:
    """Read and validate a snapshot; returns the payload.

    The magic header and format version are checked before any byte of
    the body is unpickled, and the body goes through the restricted
    :class:`_PlainUnpickler`."""
    try:
        stream = open(path, "rb")
    except OSError as error:
        raise SnapshotError(f"cannot open snapshot {path!r}: {error}") from error
    with stream:
        header = stream.readline(256)
        if not header.startswith(_HEADER_PREFIX) \
                or not header.endswith(b"\n"):
            raise SnapshotError(f"{path!r} is not a repro-cfpq snapshot")
        version_bytes = header[len(_HEADER_PREFIX):].strip()
        try:
            version = int(version_bytes)
        except ValueError:
            raise SnapshotError(
                f"{path!r}: malformed snapshot version {version_bytes!r}"
            ) from None
        if version not in SUPPORTED_VERSIONS:
            raise SnapshotVersionError(version, SUPPORTED_VERSIONS)
        try:
            document = _PlainUnpickler(stream).load()
        except SnapshotError:
            raise
        except Exception as error:  # truncated / corrupted body
            raise SnapshotError(
                f"{path!r} is not a readable repro-cfpq snapshot: {error}"
            ) from error
    payload = document.get("payload") if isinstance(document, dict) else None
    if not isinstance(payload, dict):
        raise SnapshotError(f"{path!r}: snapshot payload is malformed")
    if "backend" in payload:
        payload["backend"] = _RETIRED_BACKENDS.get(payload["backend"],
                                                   payload["backend"])
    return payload


def _library_version() -> str:
    from .. import __version__

    return __version__


# ----------------------------------------------------------------------
# Graph / grammar codecs
# ----------------------------------------------------------------------

def encode_graph(graph: LabeledGraph) -> dict:
    """Node map (enumeration order) + edges by dense id."""
    return {
        "nodes": list(graph.nodes),
        "edges": [list(edge) for edge in graph.edges_by_id()],
    }


def encode_problem(graph: LabeledGraph, grammar: CFG, backend: str,
                   strategy: str) -> dict:
    """The sections every snapshot opens with: what was solved, and how."""
    return {
        "graph": encode_graph(graph),
        "grammar": encode_grammar(grammar),
        "backend": backend,
        "strategy": strategy,
    }


def decode_problem(payload: dict) -> tuple[LabeledGraph, CFG]:
    """The graph and grammar every loader decodes first, with the
    matrix sections checked against them: a payload without them, or
    with a matrix of a non-terminal the grammar lacks or of a shape
    other than ``n × n``, raises :class:`~repro.errors.SnapshotError`."""
    for section in ("graph", "grammar"):
        if section not in payload:
            raise SnapshotError(f"snapshot has no {section!r} section")
    graph = decode_graph(payload["graph"])
    grammar = decode_grammar(payload["grammar"])
    names = {nonterminal.name for nonterminal in grammar.nonterminals}
    size = [graph.node_count] * 2
    shapes = {
        "relational": {name: matrix[1:3] for name, matrix in payload.get(
            "relational", {}).get("matrices", {}).items()},
        "length": {name: entry["shape"]
                   for name, entry in payload.get("length", {}).items()},
    }
    for section, by_name in shapes.items():
        for name, shape in by_name.items():
            if name not in names:
                raise SnapshotError(f"snapshot {section!r} section names "
                                    f"{name!r}, which its grammar lacks")
            if list(shape) != size:
                raise SnapshotError(
                    f"snapshot {section!r} matrix of {name!r} is "
                    f"{shape[0]}x{shape[1]}; its graph has {size[0]} nodes")
    return graph, grammar


def decode_graph(doc: dict) -> LabeledGraph:
    graph = LabeledGraph()
    nodes: list[Hashable] = list(doc["nodes"])
    for node in nodes:
        graph.add_node(node)
    count = len(nodes)
    for i, label, j in doc["edges"]:
        if not (0 <= i < count and 0 <= j < count):
            raise SnapshotError(f"snapshot edge {[i, label, j]} names a "
                                f"node id outside 0..{count - 1}")
        graph.add_edge(nodes[i], label, nodes[j])
    return graph


def encode_grammar(grammar: CFG) -> dict:
    def sym(symbol: Symbol) -> list:
        if isinstance(symbol, Nonterminal):
            return ["nt", symbol.name]
        return ["t", symbol.label]

    return {
        "productions": [
            [production.head.name, [sym(s) for s in production.body]]
            for production in grammar.productions
        ],
        "nonterminals": sorted(nt.name for nt in grammar.nonterminals),
        "terminals": sorted(t.label for t in grammar.terminals),
        "nullable_diagonal": sorted(
            nt.name for nt in grammar.nullable_diagonal
        ),
    }


def decode_grammar(doc: dict) -> CFG:
    productions = [
        Production(
            Nonterminal(head),
            tuple(
                Nonterminal(value) if kind == "nt" else Terminal(value)
                for kind, value in body
            ),
        )
        for head, body in doc["productions"]
    ]
    return CFG(
        productions,
        extra_nonterminals=[Nonterminal(n) for n in doc.get("nonterminals", ())],
        extra_terminals=[Terminal(t) for t in doc.get("terminals", ())],
        nullable_diagonal=[
            Nonterminal(n) for n in doc.get("nullable_diagonal", ())
        ],
    )


# ----------------------------------------------------------------------
# Boolean matrices (backend payload codec)
# ----------------------------------------------------------------------

def encode_relations(relations, backend: str, size: int) -> dict:
    """Encode ``nonterminal -> R_A`` as *backend* payloads — the one
    writer of every snapshot's relational section.

    Each ``R_A`` is a closed matrix, read by its ``row_major()`` export
    (a length matrix's cells are the relational facts, by Theorem 2), a
    row map ``{i: {j}}`` or an iterable of ``(i, j)`` pairs.  ``sparse``
    payloads are the canonical CSR of :mod:`repro.matrices.csr`, written
    without SciPy; any other backend encodes a matrix built from the
    sorted pairs.  Keys are emitted in sorted-name order:
    non-terminal sets iterate in hash order, which ``PYTHONHASHSEED``
    randomizes per process, and replicated serving asserts leader and
    follower snapshots byte-identical across processes.
    """
    shape = (size, size)

    def pairs(cells) -> list:
        return [(i, j) for i, targets in relation_rows(cells) for j in targets]

    if backend == "sparse":
        from ..matrices.csr import csr_payload, pairs_payload

        def encode(cells) -> tuple:
            if isinstance(cells, BooleanMatrix):
                return csr_payload(shape, *cells.row_major())
            return pairs_payload(shape, pairs(cells))
    else:
        matrices = get_backend(backend)

        def encode(cells) -> tuple:
            return matrices.tile_payload(
                matrices.from_pairs(size, sorted(pairs(cells))))
    return {
        nonterminal.name: list(encode(cells))
        for nonterminal, cells in sorted(relations.items(),
                                         key=lambda item: item[0].name)
    }


def iter_decoded_matrices(doc: dict, backend: "str | None" = None):
    """Stream ``(nonterminal, matrix)`` pairs decoded one at a time
    (``dict(iter_decoded_matrices(doc))`` decodes them all).

    Payloads are decoded by the backend that produced them (its registry
    key is the first payload element); when *backend* names a different
    one the matrix is converted via the coordinate round-trip — the
    cross-backend load path.  A consumer that adopts each matrix and
    drops it keeps at most one decoded matrix live.
    """
    target = get_backend(backend) if backend is not None else None
    for name, payload in doc.items():
        source_name = _RETIRED_BACKENDS.get(payload[0], payload[0])
        try:
            source = get_backend(source_name)
        except UnknownBackendError as error:
            raise SnapshotError(
                f"snapshot matrices were saved with backend "
                f"{source_name!r}, which is not available here "
                f"({error}); re-save the snapshot with an installed "
                "backend"
            ) from error
        matrix = source.tile_from_payload(tuple(payload))
        if target is not None and target.name != source.name:
            matrix = target.clone(matrix)
        yield Nonterminal(name), matrix


# ----------------------------------------------------------------------
# Annotated matrices (length / viterbi payloads)
# ----------------------------------------------------------------------

def encode_annotated_matrices(cells: dict, size: int, semiring) -> dict:
    """Encode ``nonterminal -> (i, j, value)`` cells of ``size × size``
    matrices as sorted ``[i, j, value]`` lists: an engine passes its
    matrices' columns, a service its live lengths.  Values must be
    plain scalars (length, viterbi)."""
    return {
        nonterminal.name: {
            "semiring": semiring.name,
            "shape": [size, size],
            # (i, j) is unique, so the list order never reaches the value.
            "cells": sorted(map(list, triples)),
        }
        for nonterminal, triples in sorted(cells.items(),
                                           key=lambda item: item[0].name)
    }


def decode_annotated_matrices(doc: dict) -> dict[Nonterminal, BooleanMatrix]:
    out: dict[Nonterminal, BooleanMatrix] = {}
    for name, entry in doc.items():
        try:
            semiring = get_semiring(entry["semiring"])
            out[Nonterminal(name)] = AnnotatedBackend(semiring).from_cells(
                tuple(entry["shape"]), entry["cells"])
        except KeyError as error:
            raise SnapshotError(str(error)) from error
        except ValueError as error:
            raise SnapshotError(f"snapshot {name!r} cells: {error}") from error
    return out


# ----------------------------------------------------------------------
# Engine-level save / load
# ----------------------------------------------------------------------

def build_engine_payload(engine, semantics: tuple[str, ...] = (
        "relational", "single-path", "all-path")) -> dict:
    """Snapshot *engine* (solving any missing *semantics* first).  The
    ``all-path`` forest is a view of the relations, so asking for it
    stores the relational section.

    With ``single-path`` one closure serves both sections: by Theorem 2
    the relations are the length matrices' cells, so the relational
    section is encoded from them (:func:`encode_relations`) and carries
    the length closure's counts; no boolean solve runs."""
    payload = encode_problem(engine.graph, engine.grammar, engine.backend,
                             engine.strategy)
    relational = "relational" in semantics or "all-path" in semantics
    if "single-path" in semantics:
        index = engine.single_path_index()
        if relational:
            payload["relational"] = {
                "matrices": encode_relations(
                    index.matrices, engine.backend, engine.graph.node_count),
                "stats": {
                    "iterations": index.iterations,
                    "multiplications": index.multiplications,
                },
            }
        payload["length"] = encode_annotated_matrices(
            {nonterminal: zip(*matrix.columns())
             for nonterminal, matrix in index.matrices.items()},
            engine.graph.node_count, LENGTH_SEMIRING)
    elif relational:
        result = engine.solve()
        payload["relational"] = {
            "matrices": encode_relations(
                result.matrices, engine.backend, engine.graph.node_count),
            "stats": {
                "iterations": result.stats.iterations,
                "multiplications": result.stats.multiplications,
            },
        }
    return payload


def save_engine_snapshot(path: str, engine, semantics: tuple[str, ...] = (
        "relational", "single-path", "all-path")) -> int:
    """Write an engine snapshot; returns the file size in bytes."""
    return write_snapshot(path, build_engine_payload(engine, semantics))


def load_engine_snapshot(path: str, backend: "str | None" = None,
                         strategy: "str | None" = None):
    """Load a warm :class:`~repro.core.engine.CFPQEngine` from *path*.

    Every semantics section the snapshot carries is installed into the
    engine, so the corresponding queries run with **zero** closure
    rounds; missing sections simply solve lazily as usual (the all-path
    forest is a view of the relational solution, so it costs no closure
    either).  The decoded matrices stay resident: they are the engine's
    relations.  *backend* re-materializes them on a different backend
    than the snapshot was saved with.
    """
    from ..core.engine import CFPQEngine
    from ..core.matrix_cfpq import MatrixCFPQResult, MatrixCFPQStats
    from ..core.relations import ContextFreeRelations
    from ..core.single_path import SinglePathIndex

    payload = read_snapshot(path)
    graph, grammar = decode_problem(payload)
    engine = CFPQEngine(graph, grammar,
                        backend=backend or payload.get("backend"),
                        strategy=strategy or payload.get("strategy"))
    backend = engine.backend

    if "relational" in payload:
        matrices = dict(iter_decoded_matrices(
            payload["relational"]["matrices"], backend=backend))
        stats = MatrixCFPQStats(
            iterations=0,
            multiplications=0,
            node_count=graph.node_count,
            nonterminal_count=len(grammar.nonterminals),
            backend=get_backend(backend).name,
            nnz_per_nonterminal={nonterminal.name: matrix.nnz()
                                 for nonterminal, matrix in matrices.items()},
            strategy=engine.strategy,
            details={"snapshot": {
                "warm_start": True,
                "solved_stats": dict(payload["relational"].get("stats", {})),
            }},
        )
        engine.adopt_solution(MatrixCFPQResult(
            matrices=matrices,
            relations=ContextFreeRelations(graph, matrices), stats=stats))
    if "length" in payload:
        engine.adopt_single_path_index(SinglePathIndex(
            graph=graph, grammar=engine.grammar,
            matrices=decode_annotated_matrices(payload["length"])))
    return engine
