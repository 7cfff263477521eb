"""Package exports are lazy: an entry point imports only what its call runs.

``repro``, ``repro.core``, ``repro.util``, ``repro.protocol`` and
``repro.heavyhitters`` name their public names in one table each and
import a submodule the first time one of its names is read (PEP 562).
A batch or stream collection therefore never loads the service (and
asyncio, ssl and sockets behind it), the chaos harness or an oracle it
does not build.
"""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import repro

PACKAGES = ["repro", "repro.core", "repro.util", "repro.protocol", "repro.heavyhitters"]
SRC = str(pathlib.Path(repro.__file__).resolve().parents[1])


def test_batch_and_stream_imports_skip_the_service_and_unused_oracles():
    script = """
import sys
from repro.protocol import run_sharded_collection, stream_collection
from repro.core import OptimalLocalHashing
unwanted = ["asyncio", "ssl", "repro.protocol.service", "repro.protocol.chaos",
            "repro.core.hadamard"]
print(",".join(m for m in unwanted if m in sys.modules))
"""
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=120,
    )
    assert out.stdout.strip() == ""


@pytest.mark.parametrize("name", PACKAGES)
def test_every_exported_name_resolves_and_is_listed(name):
    package = importlib.import_module(name)
    listed = dir(package)
    for attr in package.__all__:
        assert getattr(package, attr) is not None
        assert attr in listed
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(package.__all__)


@pytest.mark.parametrize("name", PACKAGES)
def test_unknown_name_raises_attribute_error_naming_the_package(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match=repr(name)):
        package.no_such_name
    with pytest.raises(ImportError):
        exec(f"from {name} import no_such_name", {})
