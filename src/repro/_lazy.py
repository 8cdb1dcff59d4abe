"""Lazy package facades (PEP 562).

Every public package re-exports the names of its leaf modules, so
``from repro.scheduler import find_schedule`` keeps working.  Binding
those names eagerly would make any import of a package load all of
its leaves, and ``import repro`` the whole tree: the batch pool, the
HTTP service, PNML and the code lint pack included.  A facade built
here resolves each name on first access instead, imports only the
leaf module that defines it, and caches the value on the package, so
later lookups are plain attribute reads.

A facade keeps its names visible to static tools by importing them
under ``if TYPE_CHECKING:``; the table given to :func:`lazy_exports`
is what runs.  ``tests/test_lazy_facades.py`` checks that the two
agree with ``__all__``.
"""

from __future__ import annotations

import importlib
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from collections.abc import Callable, Mapping


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The module-level ``__getattr__`` and ``__dir__`` of ``package``.

    ``exports`` maps each leaf module to the space-separated names the
    package re-exports from it; an entry ``alias=name`` binds the
    leaf's ``name`` as ``alias``.  Unknown names raise the standard
    ``AttributeError``.
    """
    owners: dict[str, tuple[str, str]] = {}
    for module, names in exports.items():
        for entry in names.split():
            alias, _, name = entry.partition("=")
            owners[alias] = (module, name or alias)

    def __getattr__(name: str) -> object:
        owner = owners.get(name)
        if owner is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        module, attr = owner
        value = getattr(importlib.import_module(module), attr)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | owners.keys())

    return __getattr__, __dir__
