"""Lazy package exports (PEP 562).

A package names its submodules and the public names each one exports in
one table; a name's submodule is imported the first time the name is
read from the package.  An entry point therefore imports only the
modules its call runs — a batch collection never loads the service
(and asyncio behind it), and an OLH-only caller never loads the other
oracles.  Classes still live in their submodules, so pickles and
spawned workers resolve them exactly as before.
"""

from __future__ import annotations

import sys


def lazy_exports(package: str, table: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__, __all__)`` for ``package``'s export table.

    ``table`` maps a submodule name, relative to ``package``, to the
    names it exports.  The first read of a name imports its submodule
    and caches the value in the package's namespace, so later reads
    never reach ``__getattr__``; any other name raises
    :class:`AttributeError` naming the package.
    """
    namespace = vars(sys.modules[package])
    owner = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str):
        module = owner.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        # The builtin __import__, not importlib.import_module: only imports
        # through it show up in `python -X importtime`.
        full = f"{package}.{module}"
        __import__(full)
        value = getattr(sys.modules[full], name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(owner))

    return __getattr__, __dir__, list(owner)
