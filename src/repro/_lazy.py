"""Lazy package exports (PEP 562).

A package keeps public the names it re-exports from modules that its
common paths never run, without importing those modules up front:
:func:`exports` builds the package's ``__getattr__`` and ``__dir__``
from a table ``{submodule: names}``.  The first access to a name
imports its submodule and caches the value in the package namespace,
so later accesses are plain attribute hits.  A name equal to its
submodule's exports the submodule itself.

PEP 562 covers attribute access on the module object only
(``pkg.name``, ``from pkg import name``, ``from pkg import *``).  A
global lookup inside the package's own functions does not reach
``__getattr__``: such a function must import the name it reads.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List, Sequence, Tuple


def exports(
    namespace: dict, table: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for the package whose globals are
    ``namespace``; ``table`` maps a submodule (relative, dotted) to the
    names it exports."""
    package = namespace["__name__"]
    source = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> object:
        module = source.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = importlib.import_module("." + module, package)
        if name != module:
            value = getattr(value, name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(namespace.keys() | source.keys())

    return __getattr__, __dir__
