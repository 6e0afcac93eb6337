"""PEP 562 lazy package namespaces (DESIGN.md §12, "Cold start").

A package that re-exports names from its submodules would otherwise
import every one of them on ``import repro.<package>.<anything>``; a
lazy namespace imports a submodule only when one of its names is first
read from the package, then binds the value so later reads skip the
hook.  ``from repro import Simulation`` still works, and
``python -m repro serve`` loads only the modules it runs.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, Dict, List, Tuple


def lazy_namespace(
    namespace: dict, exports: Dict[str, Tuple[str, ...]],
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for the package whose
    ``globals()`` is ``namespace``; ``exports`` map each submodule
    (absolute name) to the public names it defines."""
    package = namespace["__name__"]
    owner = {name: module
             for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = owner.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(namespace.keys() | owner.keys())

    return list(owner), __getattr__, __dir__
