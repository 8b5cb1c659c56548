"""Every entry point that the benchmark's tracer wraps, every name the benchmark imports, and every name the
package exports still resolves.

``perfbench/tracer.py`` replaces these functions by name only when a traced
benchmark run starts, and ``perfbench/run.py`` and ``perfbench/child.py``
import their ``peermatch`` names only when a run starts, so a renamed or
moved entry point would otherwise surface there alone. This module resolves
the same names without installing the tracer or running the benchmark.
"""

import ast
import importlib
import importlib.util
import math
import sys
from pathlib import Path

import peermatch
from peermatch.harness import SUITE_GP_FIT

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"

# wrapped by Tracer.install directly, outside its SPANS table
INSTALLED_SITES = (
    ("peermatch.backends", "MockBackend", "complete"),
    ("peermatch.backends", "CachingBackend", "complete"),
    ("peermatch.harness", "_TranscriptLog", "sink"),
)


def test_every_wrap_site_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    sites = [
        *((module, owner, attr) for module, owner, attr, _span, _workloads in tracer.SPANS),
        *INSTALLED_SITES,
        *((module, None, attr) for module, attr, _workloads in tracer.COUNTED),
    ]
    assert len(sites) > len(INSTALLED_SITES)
    missing = []
    for module, owner, attr in sites:
        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner, None)
        if not callable(getattr(target, attr, None)):
            missing.append(f"{module}.{owner + '.' if owner else ''}{attr}")
    assert not missing, f"entry points the benchmark's tracer wraps are gone: {missing}"


def test_every_peermatch_name_the_benchmark_imports_resolves():
    imported = [
        (node.module, alias.name)
        for script in ("run.py", "child.py")
        for node in ast.walk(ast.parse((PERFBENCH / script).read_text("utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "peermatch"
        for alias in node.names
    ]
    assert ("peermatch.harness", "SUITE_GP_FIT") in imported
    missing = []
    for module, name in imported:
        target = importlib.import_module(module)
        # a name is an attribute of its module, or a submodule of a package
        submodule = hasattr(target, "__path__") and importlib.util.find_spec(f"{module}.{name}") is not None
        if not (hasattr(target, name) or submodule):
            missing.append(f"{module}.{name}")
    assert not missing, f"names the benchmark imports are gone: {missing}"


def test_the_suite_gp_init_the_benchmark_reads_is_three_positive_floats():
    init = SUITE_GP_FIT.init
    assert isinstance(init, tuple) and len(init) == 3
    assert all(type(v) is float and 0.0 < v < math.inf for v in init), init


def test_every_name_the_package_exports_resolves():
    assert len(peermatch.__all__) == len(set(peermatch.__all__))
    missing = [name for name in peermatch.__all__ if not hasattr(peermatch, name)]
    assert not missing, f"names in peermatch.__all__ that do not resolve: {missing}"
