"""Exception hierarchy for the :mod:`repro` library.

Every error raised deliberately by the library derives from
:class:`ReproError`, so callers can catch one base class.  Subclasses are
grouped by subsystem (grammar, graph, matrices, engine) and carry enough
context in their message to be actionable without a debugger.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class GrammarError(ReproError):
    """Base class for grammar-related errors."""


class GrammarParseError(GrammarError):
    """Raised when grammar text cannot be parsed.

    Carries the offending line number (1-based) and line text when known.
    """

    def __init__(self, message: str, line_number: int | None = None,
                 line_text: str | None = None):
        self.line_number = line_number
        self.line_text = line_text
        if line_number is not None:
            message = f"line {line_number}: {message}"
            if line_text is not None:
                message = f"{message}\n    {line_text.strip()}"
        super().__init__(message)


class NotInNormalFormError(GrammarError):
    """Raised when an algorithm requiring Chomsky normal form receives a
    grammar that is not in that form."""


class UnknownSymbolError(GrammarError):
    """Raised when a symbol referenced by a query is not part of the grammar."""


class GraphError(ReproError):
    """Base class for graph-related errors."""


class GraphParseError(GraphError):
    """Raised when graph/RDF input text cannot be parsed."""

    def __init__(self, message: str, line_number: int | None = None,
                 line_text: str | None = None):
        self.line_number = line_number
        self.line_text = line_text
        if line_number is not None:
            message = f"line {line_number}: {message}"
            if line_text is not None:
                message = f"{message}\n    {line_text.strip()}"
        super().__init__(message)


class UnknownNodeError(GraphError):
    """Raised when a query references a node absent from the graph."""


class MatrixError(ReproError):
    """Base class for boolean-matrix backend errors."""


class DimensionMismatchError(MatrixError):
    """Raised when two matrices with incompatible shapes are combined."""


class UnknownBackendError(MatrixError):
    """Raised when a backend name is not registered, or its module
    fails to import (*reason* then says why)."""

    def __init__(self, name: str, available: list[str],
                 reason: "str | None" = None):
        self.name = name
        self.available = sorted(available)
        problem = (f"unknown matrix backend {name!r}" if reason is None
                   else f"matrix backend {name!r} failed to load: {reason}")
        super().__init__(
            f"{problem}; available: {', '.join(self.available)}"
        )


class EngineError(ReproError):
    """Base class for query-engine errors."""


class UnknownStrategyError(EngineError):
    """Raised when a closure strategy name is not one of the bundled three."""

    def __init__(self, name: str, available: list[str]):
        self.name = name
        self.available = sorted(available)
        super().__init__(
            f"unknown closure strategy {name!r}; "
            f"available: {', '.join(self.available)}"
        )


class SemanticsError(EngineError, ValueError):
    """Raised when a query is refused as read: an unknown key or semantics,
    a bad field, or endpoints its semantics does not take."""


class PathNotFoundError(EngineError):
    """Raised when path extraction is asked for a pair not in the relation."""


class SettingsError(ReproError, ValueError):
    """Raised when an environment default (:mod:`repro.settings`) is
    malformed; the message names the variable."""


class DatasetError(ReproError):
    """Raised for unknown dataset names or malformed dataset specs."""


class ServiceError(ReproError):
    """Base class for query-service and snapshot-store errors."""


class SnapshotError(ServiceError):
    """Raised when a snapshot file is missing, malformed, or references
    a backend/semiring unavailable in the loading process."""


class ReplicationError(ServiceError):
    """Base class for write-ahead-log and replication errors."""


class WALError(ReplicationError):
    """Raised when a write-ahead tick log cannot be opened, is corrupt
    beyond its recoverable tail, or violates sequence monotonicity."""


class ReadOnlyReplicaError(ReplicationError):
    """Raised when a write operation reaches a read-only follower.

    Followers converge by replaying the leader's tick log; accepting a
    direct write would fork them from the replicated history."""


class SnapshotVersionError(SnapshotError):
    """Raised when a snapshot was written by an incompatible format
    version."""

    def __init__(self, found: object, supported: tuple[int, ...]):
        self.found = found
        self.supported = supported
        super().__init__(
            f"snapshot format version {found!r} is not supported "
            f"(this build reads versions: {', '.join(map(str, supported))}); "
            "re-create the snapshot with the current library"
        )
