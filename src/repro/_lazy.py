"""Lazy package re-exports (PEP 562).

A package ``__init__`` names the public objects its submodules define;
each one is imported, and cached in the package namespace, on first
attribute access.  So ``import repro`` loads no submodule, and a command
pays only for the layers it runs.
"""

from __future__ import annotations

import importlib


def lazy_exports(namespace: dict, exports: dict[str, tuple[str, ...]]):
    """The ``(__getattr__, __dir__, __all__)`` of the package whose
    globals are *namespace*.  *exports* maps a relative submodule name
    (such as ``".engine"``) to the names the package re-exports from
    it; ``__all__`` lists them all, sorted."""
    package = namespace["__name__"]
    origin = {name: module for module, names in exports.items()
              for name in names}

    def __getattr__(name: str):
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__, sorted(origin)
