"""Every entry point that the benchmark's tracer wraps still resolves.

``perfbench/tracer.py`` replaces these functions by name only when a traced
benchmark run starts, so a renamed or moved entry point would otherwise
surface there alone. This module resolves the same names without
installing the tracer.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

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
