"""The public API against its users: the benchmark's imports, each module's
``__all__`` and the package's re-exports."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def test_import_loads_no_fft_or_polynomial_module():
    # the Gauss-Legendre and rational-fit tables are literals, so importing
    # the package and its CLI in a fresh process loads neither numpy module
    path = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    code = (
        "import sys, tunnelwave, tunnelwave.cli; "
        "print(sorted(m for m in ('numpy.fft', 'numpy.polynomial') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-B", "-c", code],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_is_defined(name):
    module = importlib.import_module(f"tunnelwave.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing


@pytest.mark.parametrize("name", MODULES)
def test_every_class_and_function_in_all_is_defined_there(name):
    # one home per public name: a module lists what it defines, not what it imports
    module = importlib.import_module(f"tunnelwave.{name}")
    foreign = [
        n for n in getattr(module, "__all__", [])
        if callable(obj := getattr(module, n)) and obj.__module__ != module.__name__
    ]
    assert not foreign


def test_package_reexports_only_names_in_all():
    tree = ast.parse(Path(tunnelwave.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"tunnelwave.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"{node.module}.{alias.name}"


def _args(d):
    return d.packet, d.profile, d.catalog, d.residues


# each entry point at scalar arguments (x = 2L, t = 10 fs), and the type it returns
SCALAR_CALLS = {
    "free_packet": (complex, lambda d, x: tunnelwave.free_packet(d.packet, x, 10.0)),
    "transmitted_packet": (complex, lambda d, x: tunnelwave.transmitted_packet(*_args(d), x, 10.0)),
    "psi_quadrature": (complex, lambda d, x: tunnelwave.psi_quadrature(d.packet, d.profile, x, 10.0)),
    "psi_free_quadrature": (complex, lambda d, x: tunnelwave.psi_free_quadrature(d.packet, x, 10.0)),
    "expansion_t": (complex, lambda d, x: tunnelwave.expansion_t(d.profile, d.packet.k0, *_args(d)[2:])),
    "faddeeva": (complex, lambda d, x: tunnelwave.faddeeva(1.0 + 0.5j)),
    "zeta": (float, lambda d, x: tunnelwave.zeta(*_args(d), 1e5 * x, 4e5)),
}


@pytest.mark.parametrize("name", sorted(SCALAR_CALLS))
def test_scalar_arguments_give_a_python_scalar(sb_data, name):
    kind, call = SCALAR_CALLS[name]
    assert type(call(sb_data, 2.0 * sb_data.profile.length)) is kind


@pytest.mark.parametrize("free", [False, True], ids=["psi_quadrature", "psi_free_quadrature"])
def test_oracle_rejects_an_array_x_before_any_work(sb_data, free, monkeypatch):
    from tunnelwave import oracle

    def no_work(*args, **kwargs):
        raise AssertionError("work done for an array x")

    monkeypatch.setattr(oracle, "_momentum_integral", no_work)
    pk, profile = sb_data.packet, sb_data.profile
    xs = np.array([2.0, 3.0]) * profile.length
    with pytest.raises(ValueError, match="^x must be a scalar"):
        if free:
            tunnelwave.psi_free_quadrature(pk, xs, 10.0)
        else:
            tunnelwave.psi_quadrature(pk, profile, xs, 10.0)
