"""Package attributes that resolve on first use (PEP 562).

A package that re-exports names from its modules imports all of them
when it loads, and every process that touches one module pays for the
rest.  :func:`lazy_attributes` gives such a package a module-level
``__getattr__`` and ``__dir__`` instead: a name is imported the first
time it is read, then cached in the package namespace, so later reads
never reach the hook.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Iterable, List, Mapping, Tuple


def lazy_attributes(package: str, exports: Mapping[str, Iterable[str]],
                    submodules: Iterable[str] = (),
                    ) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, names)`` for ``package``.

    ``exports`` maps each submodule, relative to ``package``, to the
    names it provides; each of ``submodules`` is an attribute itself.
    ``names`` lists every attribute the hooks resolve, for ``__all__``.
    """
    origins = {name: f"{package}.{module}"
               for module, names in exports.items() for name in names}
    modules = {name: f"{package}.{name}" for name in submodules}

    def __getattr__(name: str) -> Any:
        if name in modules:
            value = importlib.import_module(modules[name])
        elif name in origins:
            value = getattr(importlib.import_module(origins[name]), name)
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        setattr(sys.modules[package], name, value)
        return value

    names = [*modules, *origins]

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(names))

    return __getattr__, __dir__, names
