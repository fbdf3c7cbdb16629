"""Lazy package exports (PEP 562): a package names its public names and
the submodule each lives in, and a name's submodule is imported on the
name's first access, not when the package is.

So ``import repro.x.y`` runs ``repro/__init__``, ``repro/x/__init__`` and
``y`` only, and a static run never loads the dynamic protocol, the
baselines or the process pool for a package's sake. Every package
``__init__`` re-exports through :func:`lazy_exports` (``repro.lint.rules``
is the one that imports eagerly, since importing it registers the rules)::

    __all__ = lazy_exports(__name__, {
        "repro.core.events": ("Event", "EventId"),
        "repro.core.system": ("DaMulticastSystem",),
    })

The table is a literal, so ``tests/test_reachability.py`` reads which
module ``from package import Name`` loads without importing anything.
"""

from __future__ import annotations

import importlib
import sys
from typing import Mapping, Sequence


def lazy_exports(package: str, exports: Mapping[str, Sequence[str]]) -> list[str]:
    """Give package ``package`` (its ``__name__``) a module ``__getattr__``
    that imports ``module`` on the first access of a name in
    ``exports[module]`` and keeps the value in the package's namespace,
    and a ``__dir__`` that lists every exported name. Returns the names,
    in table order, for the package's ``__all__``; any other missing
    attribute is an :class:`AttributeError`."""
    namespace = sys.modules[package].__dict__
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        module = home.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(module), name)
        return value

    namespace["__getattr__"] = __getattr__
    namespace["__dir__"] = lambda: sorted(namespace.keys() | home.keys())
    return list(home)
