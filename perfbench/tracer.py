"""Spans and counters recorded around peermatch's layers from outside the program.

Each public entry point of a layer is replaced, where its caller looks it
up, by a wrapper that records a span (name, start, end, parent) or only
counts calls. Spans stay in memory until the run ends. ``Tracer.metrics``
turns them into the per-layer metrics; ``Tracer.check_entered`` fails when
a wrapped function was never entered on a workload that uses it, so that a
renamed or bypassed entry point does not read as zero.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter
from pathlib import Path

SUITES = frozenset({"suite-mock", "suite-cache"})
ALL = frozenset({"suite-mock", "suite-cache", "profile-mock"})
VARIANTS = ("baseline", "solo", "random-pair", "gp-global", "gp-local", "nn-global", "nn-local")

# (module, owner, attribute, span name, workloads that must enter it).
# ``owner`` is None for a module-level name, else the class holding the method.
SPANS = (
    ("peermatch.cli", None, "run_suite", "harness.suite", SUITES),
    ("peermatch.harness", None, "run_variant", "harness.variant", SUITES),
    ("peermatch.harness", None, "solve_exercise", "protocol.solve", SUITES),
    ("peermatch.cli", None, "solve_exercise", "protocol.solve", {"profile-mock"}),
    ("peermatch.harness", None, "exchange_and_resolve", "protocol.exchange", SUITES),
    ("peermatch.protocol", None, "parse_choice", "protocol.parse_choice", ALL),
    ("peermatch.features", "HashingEmbedder", "embed", "features.embed", SUITES),
    ("peermatch.features", None, "domain_vector", "features.domain_vector", SUITES),
    ("peermatch.pareto", None, "domain_vector", "features.domain_vector", SUITES),
    ("peermatch.harness", None, "build_dataset", "features.build_dataset", SUITES),
    ("peermatch.gp", "GpRegressor", "fit", "gp.fit", SUITES),
    ("peermatch.gp", "FittedGp", "predict", "gp.predict", SUITES),
    ("peermatch.nn", "MlpRegressor", "fit", "nn.fit", SUITES),
    ("peermatch.harness", None, "score_vector", "pareto.front", SUITES),
    ("peermatch.harness", None, "local_candidates", "pareto.front", SUITES),
    ("peermatch.harness", None, "pareto_front", "pareto.front", SUITES),
    ("peermatch.harness", None, "rank_candidates", "pareto.rank", SUITES),
    ("peermatch.harness", "_TranscriptLog", "save", "artifacts.write", SUITES),
    ("peermatch.gp", "FittedGp", "save", "artifacts.write", SUITES),
    ("peermatch.nn", "FittedMlp", "save", "artifacts.write", SUITES),
    ("peermatch.harness", None, "save_front_dumps", "artifacts.write", SUITES),
    ("peermatch.harness", None, "write_category_table_csv", "artifacts.write", SUITES),
    ("peermatch.harness", None, "write_category_table_text", "artifacts.write", SUITES),
    ("peermatch.harness", None, "write_component_table_csv", "artifacts.write", SUITES),
    ("peermatch.harness", None, "write_component_table_text", "artifacts.write", SUITES),
    ("peermatch.corpus", "DifficultyProfile", "save", "artifacts.write", {"profile-mock"}),
    ("peermatch.cli", None, "load_corpus", "corpus.load", {"profile-mock"}),
    ("peermatch.cli", None, "default_synthetic_corpus", "corpus.load", SUITES),
)
# Hashing helpers are only counted: they run hundreds of thousands of times.
# Every module attribute bound to the original function is wrapped.
COUNTED = (
    ("peermatch.hashing", "stable_u64", ALL),
    ("peermatch.hashing", "sha256_hex", SUITES),
)

PER_LAYER = (
    ("backends.mock.calls", "count"), ("backends.mock.unique_calls", "count"), ("backends.mock.ms", "ms"),
    ("backends.cache.hits", "count"), ("backends.cache.misses", "count"), ("backends.cache.ms", "ms"),
    ("protocol.solve.calls", "count"), ("protocol.solve.ms", "ms"),
    ("protocol.exchange.calls", "count"), ("protocol.exchange.ms", "ms"),
    ("protocol.parse_choice.ms", "ms"),
    ("features.embed.calls", "count"), ("features.embed.ms", "ms"),
    ("features.domain_vector.calls", "count"), ("features.build_dataset.ms", "ms"),
    ("hashing.stable_u64.calls", "count"), ("hashing.sha256_hex.calls", "count"),
    ("gp.fit.calls", "count"), ("gp.fit.ms", "ms"), ("gp.predict.calls", "count"), ("gp.predict.ms", "ms"),
    ("nn.fit.ms", "ms"),
    ("pareto.front.ms", "ms"), ("pareto.rank.calls", "count"), ("pareto.rank.ms", "ms"),
    *((f"harness.variant.{v}.ms", "ms") for v in VARIANTS),
    ("harness.self.ms", "ms"),
    ("artifacts.write.ms", "ms"), ("artifacts.files", "count"),
    ("corpus.load.ms", "ms"),
)


class TraceError(RuntimeError):
    """A wrapped entry point is missing or was never entered."""


class Tracer:
    def __init__(self) -> None:
        # One span per index: name, start, end (seconds), parent index or -1.
        # Flat lists of strings, floats and ints leave the garbage collector
        # nothing new to traverse, which keeps tracing overhead down.
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}  # entries per wrap site
        self.calls: dict[str, int] = {}  # entries per counted helper
        self.mock_keys: set[int] = set()
        self.caches: dict[int, object] = {}  # every CachingBackend entered, by id
        self._sites: list[tuple[str, frozenset]] = []

    def _timed(self, name, fn, site: str):
        """Wrap ``fn`` in a span; ``name`` may be a function of the call's arguments."""
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, counts = self._stack, self.counts
        perf = time.perf_counter
        counts.setdefault(site, 0)
        dynamic = callable(name)

        def wrapper(*args, **kwargs):
            counts[site] += 1
            idx = len(names)
            names.append(name(args, kwargs) if dynamic else name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf()
                stack.pop()

        return wrapper

    def _install(self, module: str, owner: str | None, attr: str, make, workloads) -> None:
        mod = importlib.import_module(module)
        target = mod if owner is None else getattr(mod, owner, None)
        site = f"{module}.{owner + '.' if owner else ''}{attr}"
        if target is None or not callable(getattr(target, attr, None)):
            raise TraceError(f"{site} does not exist; update the benchmark's wrap table")
        setattr(target, attr, make(getattr(target, attr), site))
        self._sites.append((site, frozenset(workloads)))

    def install(self) -> None:
        for module, owner, attr, name, workloads in SPANS:
            if name == "harness.variant":
                name = lambda a, kw: f"harness.variant.{(kw.get('cfg') or a[0]).name}"  # noqa: E731
            self._install(module, owner, attr, lambda fn, site, n=name: self._timed(n, fn, site), workloads)
        self._install("peermatch.backends", "MockBackend", "complete", self._wrap_mock, ALL)
        self._install("peermatch.backends", "CachingBackend", "complete", self._wrap_cache, {"suite-cache"})
        self._install("peermatch.harness", "_TranscriptLog", "sink", self._wrap_sink, SUITES)
        for module, attr, workloads in COUNTED:
            original = getattr(importlib.import_module(module), attr)
            wrapped = self._counted(f"hashing.{attr}", original)
            for name, mod in list(sys.modules.items()):
                if name.startswith("peermatch") and getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapped)
            self._sites.append((f"hashing.{attr}", frozenset(workloads)))

    def _counted(self, key: str, fn):
        calls = self.calls
        calls[key] = 0

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap_mock(self, fn, site):
        timed = self._timed("backends.mock", fn, site)
        keys = self.mock_keys

        def complete(backend, prompt, params):
            # 64-bit hashes of (prompt, frozen decode params): a collision among
            # 1e5 distinct calls has odds below 1e-9
            keys.add(hash((prompt, params)))
            return timed(backend, prompt, params)

        return complete

    def _wrap_cache(self, fn, site):
        timed = self._timed("backends.cache", fn, site)
        caches = self.caches

        def complete(backend, prompt, params):
            caches[id(backend)] = backend  # it keeps its own hits and misses
            return timed(backend, prompt, params)

        return complete

    def _wrap_sink(self, fn, site):
        """Transcript JSON encoding runs in the sink the harness hands the protocol."""
        def sink(log, *args, **kwargs):
            return self._timed("harness.transcript", fn(log, *args, **kwargs), site)

        return sink

    def check_entered(self, workload: str) -> None:
        missing = sorted(site for site, workloads in self._sites
                         if workload in workloads and not (self.counts.get(site) or self.calls.get(site)))
        if missing:
            raise TraceError(f"{workload}: wrapped entry point(s) never entered: {missing}")

    def metrics(self, artifact_files: int) -> dict[str, float]:
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        n = len(names)
        duration = [ends[i] - starts[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if parents[i] >= 0:
                child[parents[i]] += duration[i]
        total: Counter = Counter()
        calls: Counter = Counter(names)
        self_time: Counter = Counter()
        for i, name in enumerate(names):
            self_time[name] += duration[i] - child[i]
            p = parents[i]
            while p >= 0 and names[p] != name:
                p = parents[p]
            if p < 0:  # outermost span of its name
                total[name] += duration[i]
        ms = lambda name: 1e3 * total[name]  # noqa: E731
        out = {
            "backends.mock.calls": calls["backends.mock"],
            "backends.mock.unique_calls": len(self.mock_keys),
            "backends.mock.ms": ms("backends.mock"),
            "backends.cache.hits": sum(c.hits for c in self.caches.values()),
            "backends.cache.misses": sum(c.misses for c in self.caches.values()),
            "backends.cache.ms": 1e3 * self_time["backends.cache"],
            "protocol.solve.calls": calls["protocol.solve"],
            "protocol.solve.ms": ms("protocol.solve"),
            "protocol.exchange.calls": calls["protocol.exchange"],
            "protocol.exchange.ms": ms("protocol.exchange"),
            "protocol.parse_choice.ms": ms("protocol.parse_choice"),
            "features.embed.calls": calls["features.embed"],
            "features.embed.ms": ms("features.embed"),
            "features.domain_vector.calls": calls["features.domain_vector"],
            "features.build_dataset.ms": ms("features.build_dataset"),
            "hashing.stable_u64.calls": self.calls.get("hashing.stable_u64", 0),
            "hashing.sha256_hex.calls": self.calls.get("hashing.sha256_hex", 0),
            "gp.fit.calls": calls["gp.fit"],
            "gp.fit.ms": ms("gp.fit"),
            "gp.predict.calls": calls["gp.predict"],
            "gp.predict.ms": ms("gp.predict"),
            "nn.fit.ms": ms("nn.fit"),
            "pareto.front.ms": ms("pareto.front"),
            "pareto.rank.calls": calls["pareto.rank"],
            "pareto.rank.ms": ms("pareto.rank"),
            **{f"harness.variant.{v}.ms": ms(f"harness.variant.{v}") for v in VARIANTS},
            "harness.self.ms": 1e3 * sum(t for name, t in self_time.items() if name.startswith("harness.")),
            "artifacts.write.ms": ms("artifacts.write"),
            "artifacts.files": artifact_files,
            "corpus.load.ms": ms("corpus.load"),
        }
        if set(out) != {name for name, _ in PER_LAYER}:
            raise TraceError("per-layer metric table and computed metrics disagree")
        return out

    def save(self, path: Path) -> None:
        """Spans as JSON lines: name, start and end in seconds, parent index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for span in zip(self.names, self.starts, self.ends, self.parents):
                f.write(json.dumps(span) + "\n")
