"""Layered benchmark of the peermatch pipeline, run through ``peermatch.cli``.

    python3 perfbench/run.py --workload suite-mock --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. Every measured child runs single-threaded, with the BLAS thread
variables pinned to 1. One run repeats whole CLI invocations of the
workload, each in a fresh interpreter, until ``--seconds`` have passed,
checks every output, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the per-layer
ones, from traced invocations alternated with untraced ones. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads, here and in every child
    os.environ[_var] = "1"

import checks  # noqa: E402
from child import WORKLOADS, PROFILE_REPEATS  # noqa: E402
from tracer import PER_LAYER, VARIANTS  # noqa: E402

HERE = Path(__file__).resolve().parent
# Set-up is sampled at least this often per run, spread over the run.
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 120


class ChildFailed(RuntimeError):
    pass


def spawn(env: dict, workload: str, seed: int, out: Path, *flags: str) -> tuple[float, dict]:
    """Run child.py once; returns (set-up seconds, its report)."""
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), str(out), *flags]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"{workload} did not finish within {CHILD_TIMEOUT_S} s")
    if proc.returncode == 3:
        sys.stderr.write(stderr)
        raise SystemExit(3)
    if proc.returncode != 0:
        raise ChildFailed(f"{workload} exited with {proc.returncode}: {stderr.strip()[-2000:]}")
    report = json.loads(stdout.strip().splitlines()[-1])
    if report.get("exit", 0) != 0:
        raise ChildFailed(f"peermatch {workload} returned {report['exit']}: {stderr.strip()[-2000:]}")
    return report["setup_s"], report


def suite_inputs(src: Path) -> tuple[checks.SuiteInputs, tuple[float, float, float]]:
    """The cohort, corpus and training split the CLI's default suite runs on, and its GP init."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from peermatch.harness import DEFAULT_TRAIN_DOMAINS, SUITE_GP_FIT, default_synthetic_corpus
    from peermatch.personas import default_cohort

    inputs = checks.SuiteInputs(
        learners=tuple(sorted(default_cohort())),
        items={e.id: checks.Item(e.stem, len(e.options), e.domain, e.category)
               for e in default_synthetic_corpus()},
        train_domains=frozenset(DEFAULT_TRAIN_DOMAINS),
    )
    return inputs, SUITE_GP_FIT.init


class Run:
    """The state of one benchmark run: its inputs, checks and samples."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.work = root / ".perfbench" / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.outputs: list[Path] = []
        src = root / "src"
        self.env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)  # cached bytecode keeps set-up steady
        self.fixture = src / "peermatch" / "data" / "cmmlu_fixture"
        self.ops = len(VARIANTS) if workload.startswith("suite") else len(checks.fixture_ids(self.fixture))
        if workload.startswith("suite"):
            self.inputs, self.gp_init = suite_inputs(src)
        self.reference: Path | None = None
        self.digest: str | None = None
        self.answers = 0
        self.paid = None
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.setup: list[float] = []
        self.samples: dict[bool, list[dict]] = {False: [], True: []}

    def prepare(self) -> None:
        """Untimed: compile and cache imports; for suite-cache, the mock reference output."""
        spawn(self.env, self.workload, self.seed, self.work / "setup", "--setup-only")
        if self.workload == "suite-cache":
            self.reference = self.work / "ref"
            spawn(self.env, "suite-mock", self.seed, self.reference)
            try:
                checks.check_suite(self.reference, self.inputs, self.gp_init)
            except checks.CheckFailed as exc:
                self.errors.append(f"check failed: reference {exc}")

    def probe_setup(self) -> None:
        setup, _ = spawn(self.env, self.workload, self.seed, self.work / "setup", "--setup-only")
        self.setup.append(setup)

    def iterate(self, traced: bool, probe: bool) -> None:
        """One whole invocation into a new, empty output directory, then its checks.

        Earlier writes are flushed to disk first, so that their write-back
        does not overlap the timed region. Earlier outputs are removed only
        when the run ends (``clean``): deleting a tree of thousands of cache
        files slows the file creations that follow it.
        """
        os.sync()
        if probe:
            self.probe_setup()
        out = self.work / f"out-{len(self.outputs)}"
        self.outputs.append(out)
        self.attempted += self.ops
        try:
            setup, report = spawn(self.env, self.workload, self.seed, out, *(["--trace"] if traced else []))
        except ChildFailed as exc:
            self.failed += self.ops
            self.errors.append(str(exc))
            return
        self.setup.append(setup)
        report["out_bytes"] = checks.tree_bytes(out)
        self.samples[traced].append(report)
        try:
            self.check(out, report)
        except checks.CheckFailed as exc:
            self.errors.append(f"check failed: {exc}")

    def check(self, out: Path, report: dict) -> None:
        if self.digest is None:
            self.paid = report["paid_calls"]
            if self.workload == "profile-mock":
                self.answers = checks.check_profile(out, self.fixture, PROFILE_REPEATS)
            else:
                self.answers = checks.check_suite(out, self.inputs, self.gp_init)
                results = json.loads((out / "results.json").read_text("utf-8"))
                names = tuple(v["config"]["name"] for v in results["variants"])
                if names != VARIANTS:  # one operation per variant
                    raise checks.CheckFailed(f"{out}: variants {names}, expected {VARIANTS}")
            if self.reference is not None:
                checks.check_cache_against_mock(out, self.reference, report["paid_calls"])
            self.digest = checks.tree_digest(out)
        elif checks.tree_digest(out) != self.digest or report["paid_calls"] != self.paid:
            raise checks.CheckFailed(f"{out}: output or paid calls differ from this run's first invocation")

    def clean(self) -> None:
        """Untimed: keep only the last invocation's output."""
        for out in self.outputs[:-1]:
            shutil.rmtree(out, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "peermatch" / "cli.py").is_file():
        print(f"perfbench: no peermatch sources under {root / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    run = Run(root, args.workload, args.seed)
    run.prepare()

    start = time.perf_counter()
    while True:
        if args.trace:
            run.iterate(traced=False, probe=False)
            run.iterate(traced=True, probe=False)
        else:
            run.iterate(traced=False, probe=True)
        if time.perf_counter() - start >= args.seconds:
            break
    while not args.trace and len(run.setup) < SETUP_SAMPLES:
        run.probe_setup()
    run.clean()

    for message in run.errors:
        print(f"perfbench: {message}", file=sys.stderr)
    plain, traced = run.samples[False], run.samples[True]
    if not plain or (args.trace and not traced):
        print("perfbench: no invocation succeeded", file=sys.stderr)
        return 1
    run_s = median(r["run_s"] for r in plain)
    if args.trace:
        layers = {name: median(r["layers"][name] for r in traced) for name, _ in PER_LAYER}
        layers["trace.overhead_s"] = median(r["run_s"] for r in traced) - run_s
        units = dict(PER_LAYER, **{"trace.overhead_s": "s"})
        metrics = {name: {"value": value, "unit": units[name]} for name, value in layers.items()}
    else:
        metrics = {
            "setup_s": {"value": median(run.setup), "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "answers_per_s": {"value": run.answers / run_s, "unit": "1/s"},
            "paid_calls": {"value": run.paid, "unit": "count"},
            "peak_rss_mb": {"value": median(r["rss_kb"] * 1024 / 1e6 for r in plain), "unit": "MB"},
            "out_mb": {"value": median(r["out_bytes"] / 1e6 for r in plain), "unit": "MB"},
        }
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "threads": {v: run.env[v] for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "invocations": {"untraced": len(plain), "traced": len(traced)},
        "run_s": [r["run_s"] for r in plain],
        "run_wall_s": [r["run_wall_s"] for r in plain],
        "run_sys_s": [r["run_sys_s"] for r in plain],
        "unit_ms": [r["unit_ms"] for r in plain],
        "run_units": [r["run_units"] for r in plain],
        "traced_run_s": [r["run_s"] for r in traced],
        "setup_s": run.setup,
        "graded_answers": run.answers,
    }))
    print(json.dumps({
        "correct": not any(e.startswith("check failed") for e in run.errors),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
