"""Environment defaults: the one module that reads ``os.environ``.

Each variable supplies the default of one flag or argument, is read
when that default is needed (never at import), and is parsed by the
same code as the flag.  Unset or blank means the built-in default; a
malformed value is a :class:`~repro.errors.SettingsError` naming the
variable.
"""

from __future__ import annotations

import os

from .errors import SettingsError


def _environ(name: str, parse):
    """``parse`` of ``$name``, or None when it is unset or blank."""
    text = os.environ.get(name, "").strip()
    if not text:
        return None
    try:
        return parse(text)
    except ValueError as error:
        raise SettingsError(f"{name}: {error}") from None


def memory_budget() -> "int | None":
    """``$REPRO_MEMORY_BUDGET``: the blocked closure's resident tile
    byte budget when none is given (``--memory-budget``); None is
    unbounded."""
    from .core.tilestore import parse_memory_budget

    return _environ("REPRO_MEMORY_BUDGET", parse_memory_budget)


def service_semiring() -> str:
    """``$REPRO_SERVICE_SEMIRING``: a query service's ranking semiring
    when none is given (``serve --semiring``); ``length`` when unset."""
    from .service.query_service import check_service_semiring

    return _environ("REPRO_SERVICE_SEMIRING",
                    check_service_semiring) or "length"


def trace_file() -> "str | None":
    """``$REPRO_TRACE_FILE``: the JSONL trace sink of a process whose
    tracing nothing configured (``--trace-file``); None is off."""
    return _environ("REPRO_TRACE_FILE", str)
