"""Scale CPU time to a reference host speed, sampled while the program runs.

The benchmark runs on a few cores of a shared host. Wall time there counts
the time other processes and the hypervisor take the core (steal), and the
core itself runs up to three times slower in phases that change within a
second, the same for set-up, the suites and the profile. So each measured
child takes its own CPU time, which leaves out steal, and samples the speed
of the core throughout: every ``INTERVAL_S`` of its CPU time a profiling
timer runs a small fixed unit of work in the child's own thread and times
it. A stretch of the child's CPU time, less the units inside it, is scaled
by the mean of ``REFERENCE_S / unit seconds`` over the units inside it: the
figure is the time the stretch would take on a host that runs the unit in
``REFERENCE_S`` and gives it the core alone.

The unit depends on nothing in ``peermatch``, so a change to the program
cannot move it. Its mix follows the program's: interpreted string
formatting, SHA-256, regex and JSON as in the mock backend and the artifact
writers, and a small Cholesky factorisation as in the GP fit. Units are
timed with the thread's CPU clock: while a process CPU timer is armed,
Linux reads the process clock only at scheduler ticks.
"""

from __future__ import annotations

import hashlib
import json
import re
import signal
import time

import numpy as np

# Set so that the scaled times match the user CPU times measured at a quiet
# time on the host the reference figures were taken on (Intel Xeon, 2 vCPUs,
# one BLAS thread); a constant, so it scales parent and change alike.
REFERENCE_S = 0.00125
INTERVAL_S = 0.02

_ANSWER = re.compile(r"Answer:\s*([A-D])")
_X = np.random.default_rng(0).standard_normal((96, 12))
_K = _X @ _X.T + 96.0 * np.eye(96)


def unit() -> int:
    acc = 0
    for i in range(300):
        stem = f"Q{i}: which option holds for case {i % 37}? A) a{i} B) b C) c D) d"
        key = hashlib.sha256(stem.encode("utf-8")).hexdigest()
        reply = f"Reasoning about {stem[:20]} ... Answer: {'ABCD'[int(key[0], 16) % 4]}"
        record = {"id": i, "key": key, "answer": _ANSWER.search(reply).group(1)}
        acc += len(json.dumps(record, sort_keys=True))
    np.linalg.cholesky(_K)
    return acc


class SpeedSampler:
    """Times ``unit`` every ``INTERVAL_S`` of process CPU time (SIGPROF)."""

    def __init__(self) -> None:
        self.units: list[float] = []  # thread CPU seconds of each unit
        self.spent = 0.0

    def sample(self, *_signal) -> None:
        start = time.thread_time()
        unit()
        took = time.thread_time() - start
        self.units.append(took)
        self.spent += took

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    def mark(self) -> tuple[int, float]:
        return len(self.units), self.spent

    def scaled(self, cpu_s: float, since: tuple[int, float]) -> tuple[float, int]:
        """``cpu_s`` seconds of CPU time since the ``mark`` ``since``, less
        the units inside it, at the reference speed; and the number of units
        the speed rests on. One more unit is timed here, so that a short
        stretch has one."""
        count, spent = since
        own = cpu_s - (self.spent - spent)
        self.sample()
        speeds = [REFERENCE_S / took for took in self.units[count:]]
        return own * sum(speeds) / len(speeds), len(speeds)
