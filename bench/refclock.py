"""Reference-speed clock: each operation's CPU time, scaled by the host speed measured while it ran.

The benchmark runs on shared virtual machines. When other tenants are busy,
the host slows this one down in two ways, for seconds to minutes at a time:
it runs the vCPU slower (1.3x to 2.3x, depending on the code), and it stops
running it at all for part of the time (steal). Raw wall times of the same
code on ten seeds then spread by 20-35% between the first and the third
quartile, past any bound that could catch a regression.

Two measures take the host out again:

* Time is process CPU time (the program and any child it waits for), not
  wall time. The guest kernel accounts stolen time as steal, not as the
  task's run time, so CPU time leaves it out. The program does no blocking
  I/O worth the name (inputs and outputs sit in the page cache), so on an
  idle host its CPU time is its wall time.
* Every timed operation also samples the host's speed. A fixed probe (string
  splitting, int parsing, dict and set building and set intersections: the
  kind of work topiccf's parsers and recommenders do) runs before the
  operation, after it, and every ``INTERVAL_S`` of CPU time during it from a
  SIGPROF handler. The probe runs twice per sample and only the second,
  cache-warm pass is timed, so the program's own cache footprint does not
  change the probe's time. The probes' CPU time is subtracted from the
  operation's. Then

      ref_s = cpu_s * mean(PROBE_NOMINAL_S / probe_s over the samples)

  is the operation's time on this host at its nominal speed: the same work
  reads the same ``ref_s`` in a fast or a slow phase, and more work reads more.

Sampling costs about 3% of an operation, and that time is removed. The raw
wall and CPU times are printed as well.
"""
from __future__ import annotations

import gc
import resource
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

# About the warm probe's CPU time on the 2-vCPU Xeon machine the baselines in
# STEADINESS.md come from, in a fast phase. Only ratios to it matter: it sets
# the unit of ref_s, and the parent and the change use the same value.
PROBE_NOMINAL_S = 0.00064
INTERVAL_S = 0.05

_LINES = [f"{i % 61}::{(i * 37) % 3706}::{i % 5 + 1}::{956703932 + i}" for i in range(200)]


def _probe_work() -> int:
    rated: dict[int, set[int]] = {}
    for line in _LINES:
        user, item, _rating, _ts = line.split("::")
        rated.setdefault(int(user), set()).add(int(item))
    overlap = 0
    for a in rated.values():
        for b in rated.values():
            overlap += len(a & b)
    return overlap


def _cpu_s() -> float:
    """CPU seconds of this process and of the children it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


@dataclass
class Timing:
    wall_s: float  # wall time, probes excluded
    cpu_s: float   # CPU time, probes excluded
    ref_s: float   # cpu_s at the host's nominal speed

    def __add__(self, other: "Timing") -> "Timing":
        return Timing(self.wall_s + other.wall_s, self.cpu_s + other.cpu_s,
                      self.ref_s + other.ref_s)


class RefClock:
    def __init__(self):
        self._speeds: list[float] = []
        self._probe_wall = 0.0
        self._probe_cpu = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        # The probe's allocations must not trigger a collection of the
        # program's heap: that would time the program, not the host.
        collecting = gc.isenabled()
        gc.disable()
        wall, cpu = time.perf_counter(), time.thread_time()
        _probe_work()
        warm = time.thread_time()
        _probe_work()
        end = time.thread_time()
        self._probe_wall += time.perf_counter() - wall
        self._probe_cpu += end - cpu
        if collecting:
            gc.enable()
        self._speeds.append(PROBE_NOMINAL_S / (end - warm))

    @contextmanager
    def measure(self, sample: bool = True):
        """Time the body; the Timing is filled in when it ends.

        ``sample=False`` probes only before and after: for a body that waits
        on a child process, whose CPU time the handler cannot sample.
        """
        timing = Timing(0.0, 0.0, 0.0)
        self._speeds = []
        self._sample()
        self._probe_wall = self._probe_cpu = 0.0
        previous = None
        if sample:
            previous = signal.signal(signal.SIGPROF, self._sample)
            signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        wall, cpu = time.perf_counter(), _cpu_s()
        try:
            yield timing
        finally:
            if sample:
                signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            timing.wall_s = time.perf_counter() - wall - self._probe_wall
            timing.cpu_s = _cpu_s() - cpu - self._probe_cpu
            if sample:
                signal.signal(signal.SIGPROF, previous)
            self._sample()
            timing.ref_s = timing.cpu_s * statistics.fmean(self._speeds)


CLOCK = RefClock()
