"""PEP 562 name tables for the package ``__init__`` modules.

A package ``__init__`` lists which submodule defines each public name
and imports nothing: ``repro.sim.ExecutionPlan`` imports
``repro.sim.plan`` on first access, and ``repro.sim.plan`` (a submodule
that is not a re-exported name) resolves the same way.  So ``import
repro`` costs the package bodies only, and a run imports the modules
it executes.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, Iterable, List, Tuple


def name_table(
    package: str, exports: Dict[str, Iterable[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps a submodule (relative to ``package``) to the names
    it defines that the package re-exports.  A resolved name is stored
    on the package, so ``__getattr__`` runs once per name.
    """
    where = {name: sub for sub, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        if name.startswith("__"):
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        sub = where.get(name)
        if sub is not None:
            value = getattr(importlib.import_module(f"{package}.{sub}"), name)
        else:
            try:
                value = importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        module = sys.modules[package]
        return sorted(set(vars(module)) | set(where) | set(getattr(module, "__all__", ())))

    return list(where), __getattr__, __dir__
