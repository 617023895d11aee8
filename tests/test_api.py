"""The public API against its users: the benchmark's imports, each module's
``__all__`` and the package's re-exports."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import tunnelwave

SRC = Path(tunnelwave.__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = [m.name for m in pkgutil.iter_modules(tunnelwave.__path__)]


def test_benchmark_modules_import():
    # a name the benchmark imports and the package no longer has fails here,
    # not in a benchmark run.  A child process, since bench/run.py sets
    # thread variables in os.environ at import; -B writes no bytecode under
    # bench/.
    path = [str(SRC), str(BENCH)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    proc = subprocess.run(
        [sys.executable, "-B", "-c", "import inputs, layers, workloads, run"],
        cwd=BENCH,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_is_defined(name):
    module = importlib.import_module(f"tunnelwave.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing


def test_package_reexports_only_names_in_all():
    tree = ast.parse(Path(tunnelwave.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"tunnelwave.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"{node.module}.{alias.name}"
