"""Lazy package re-exports (PEP 562).

Python runs every parent package's ``__init__`` before a submodule, so a
package that imported its whole public surface would make importing any
one module load the entire library.  Each package instead declares its
public names in one table, grouped by defining module, and hands it to
:func:`lazy_exports`; a name's module is imported the first time the
name is read, and the value is then cached on the package.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """Module ``__getattr__``, ``__dir__`` and ``__all__`` for ``package``.

    ``exports`` maps each defining module to the names the package
    re-exports from it.
    """
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        try:
            module = home[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | home.keys())

    return __getattr__, __dir__, list(home)
