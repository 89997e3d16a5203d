"""How fast the machine runs Python while the benchmark measures.

On a shared machine the same computation can take 40% longer from one
second to the next, because other tenants load the same cores. While a
worker runs, run.py, which otherwise only waits for it, runs a tiny fixed
pure-Python probe on a background thread at 50 Hz. Before each probe the
thread moves itself to the CPU that the worker (or, for a CLI call, the
worker's child) last ran on, read from /proc: the two CPUs of a VM slow
down independently, and a probe on the other CPU barely tracked the
worker. Each probe is stamped with perf_counter(), a clock that all
processes of the machine share. A time the worker measured from t0 to t1 is
rescaled by NOMINAL_S / (median probe time between t0 and t1). A reported
second is therefore a nominal second: a second of a machine on which one
probe takes NOMINAL_S, about what it takes on a quiet 2-core machine. A
change in the program moves it; a change in the neighbours' load mostly
does not. The raw seconds are kept in the full record.

The probe runs in a process the program cannot reach: no shared
interpreter, lock or heap. It shares the CPU's time with the worker, so it
preempts the worker for about 2% of its time. A program that keeps more than
one core busy would compete with the probe, though, so run.py compares each
worker's CPU time with its wall time and does not rescale a run in which a
worker used more than MULTI_CORE_RATIO cores.

The probe never calls the program. It mixes big-integer and fraction
arithmetic, as the program does; a small-integer loop alone tracked the
program's slowdowns less well.
"""

from __future__ import annotations

import gc
import os
import statistics
import threading
from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.0004
INTERVAL_S = 0.02
MIN_SAMPLES = 15
MULTI_CORE_RATIO = 1.2

_BIG = 3 ** 1500
_MOD = _BIG - 12345


def probe() -> float:
    # a collection started by the probe's allocations would time this
    # process's garbage, so the probe never starts one
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        acc = 1
        for i in range(40):
            acc = (acc * _BIG + i) % _MOD
        f = Fraction(1, 3)
        for i in range(1, 60):
            f += Fraction(i, 7 * i + 1)
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def running_cpu(pid: int) -> int | None:
    """The CPU that pid's youngest, deepest descendant (pid itself if it has
    no children) last ran on; None if /proc cannot tell."""
    try:
        while True:
            with open(f"/proc/{pid}/task/{pid}/children") as fh:
                kids = fh.read().split()
            if not kids:
                break
            pid = int(kids[-1])
        with open(f"/proc/{pid}/stat") as fh:
            # the fields after "pid (comm)" start at field 3; 39 is the CPU
            return int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


class Sampler:
    """Runs the probe on a background thread between `with` entry and exit,
    while `pid` names a process to follow. A sample is (perf_counter() at
    the probe's start, probe seconds)."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.pid: int | None = None
        self.samples: list[tuple[float, float]] = []
        self.followed = 0       # samples taken on the followed process's CPU
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _loop(self) -> None:
        allowed = os.sched_getaffinity(0)
        while not self._stop.wait(self.interval):
            pid = self.pid
            if pid is None:
                continue
            cpu = running_cpu(pid)
            # affinity is per thread on Linux: only this thread moves
            os.sched_setaffinity(0, {cpu} if cpu in allowed else allowed)
            t = perf_counter()
            self.samples.append((t, probe()))
            self.followed += cpu in allowed

    def __enter__(self) -> "Sampler":
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def between(self, t0: float, t1: float) -> list[float]:
        """Probe times taken from t0 to t1; for a span too short to hold
        MIN_SAMPLES of them, the MIN_SAMPLES taken nearest to its middle."""
        inside = [d for t, d in self.samples if t0 <= t <= t1]
        if len(inside) >= MIN_SAMPLES:
            return inside
        mid = (t0 + t1) / 2
        nearest = sorted(self.samples, key=lambda s: abs(s[0] - mid))
        return [d for _t, d in nearest[:MIN_SAMPLES]]


def factor(samples: list[float]) -> float:
    """Multiply a raw time by this to express it at the nominal speed. The
    median ignores the rare probe that a page fault or a preemption hit."""
    return NOMINAL_S / statistics.median(samples)
