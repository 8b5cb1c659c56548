"""One measured invocation of the peermatch CLI, in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED OUT [--trace] [--setup-only]

The parent starts this file with ``src`` on PYTHONPATH and the BLAS thread
variables pinned. Set-up is everything before the CLI runs: interpreter
start, importing ``peermatch`` (with numpy and scipy) and building the
command line; ``setup_cpu_s`` is the CPU time of the process up to that
point. ``run_wall_s``, ``run_user_s`` and ``run_sys_s`` are the wall, user
and system time of ``peermatch.cli.main`` alone. ``setup_s`` and ``run_s``
are ``setup_cpu_s`` and ``run_user_s`` scaled to the reference host speed
by ``calibrate.SpeedSampler``, which runs from the child's start to the end
of the run. The last line of standard output is a JSON report. Exit code 3
means the tracer failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

PROFILE_REPEATS = 800
WORKLOADS = ("suite-mock", "suite-cache", "profile-mock")


def command_line(workload: str, seed: int, out: str) -> list[str]:
    if workload in ("suite-mock", "suite-cache"):
        backend = workload.split("-")[1]
        return ["suite", "--seed", str(seed), "--backend", backend, "--out", out]
    if workload == "profile-mock":
        return ["profile", "fixture", "--repeats", str(PROFILE_REPEATS), "--seed", str(seed),
                "--backend", "mock", "--out", out]
    raise ValueError(f"unknown workload {workload!r}")


def count_paid_calls() -> list[int]:
    """Count the calls that reach ``MockBackend.complete``, the stand-in for a
    paid live endpoint; the one-element list holds the running count."""
    from peermatch.backends import MockBackend

    complete, paid = MockBackend.complete, [0]

    def counted(backend, prompt, params):
        paid[0] += 1
        return complete(backend, prompt, params)

    MockBackend.complete = counted
    return paid


def main(argv: list[str]) -> int:
    workload, seed, out = argv[0], int(argv[1]), argv[2]
    trace, setup_only = "--trace" in argv, "--setup-only" in argv

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from calibrate import SpeedSampler

    sampler = SpeedSampler()
    sampler.start()
    from peermatch import cli

    args = command_line(workload, seed, out)
    setup_cpu_s = time.thread_time()
    setup_s, setup_units = sampler.scaled(setup_cpu_s, (0, 0.0))
    report = {"setup_s": setup_s, "setup_cpu_s": setup_cpu_s, "setup_units": setup_units}
    if setup_only:
        sampler.stop()
        print(json.dumps(report))
        return 0

    paid = count_paid_calls()
    tracer = None
    if trace:
        from tracer import TraceError, Tracer

        tracer = Tracer()
        try:
            tracer.install()
        except TraceError as exc:
            print(f"trace: {exc}", file=sys.stderr)
            return 3

    with contextlib.redirect_stdout(io.StringIO()):
        mark = sampler.mark()
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        code = cli.main(args)
        run_wall_s = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
    run_user_s = after.ru_utime - before.ru_utime
    run_s, run_units = sampler.scaled(run_user_s, mark)
    sampler.stop()

    report.update({
        "run_s": run_s,
        "run_wall_s": run_wall_s,
        "run_user_s": run_user_s,
        "run_sys_s": after.ru_stime - before.ru_stime,
        "run_units": run_units,
        "unit_ms": 1e3 * sum(sampler.units[mark[0]:]) / run_units,
        "exit": code,
        "paid_calls": paid[0],
        "rss_kb": after.ru_maxrss,
    })
    if tracer is not None:
        try:
            tracer.check_entered(workload)
        except TraceError as exc:
            print(f"trace: {exc}", file=sys.stderr)
            return 3
        out_dir = Path(out)
        files = sum(1 for p in out_dir.rglob("*") if p.is_file() and p.relative_to(out_dir).parts[0] != "cache")
        report["layers"] = tracer.metrics(files)
        tracer.save(out_dir.parent / f"{out_dir.name}-spans.jsonl")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
