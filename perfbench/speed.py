"""Machine-speed probe: gated times in reference-speed seconds.

On a shared host the same work takes up to 1.8x the CPU time while other
tenants load the machine, and such periods last minutes, longer than a
run, so neither medians nor best-of within a run remove them.  A
:class:`SpeedProbe` thread therefore times a fixed pure-Python kernel
every few milliseconds while the work runs, and :meth:`SpeedProbe.scale`
multiplies the work's CPU time by ``REFERENCE_S / mean probe time``: the
result is the CPU time the work would have taken at the speed where the
kernel takes ``REFERENCE_S``.  The kernel uses only the standard
library, so a change to the program under test cannot move it, and it
does the same kind of interpreter work as the allocator (small objects,
dicts, sets, sorting, string formatting), so it slows down with the work
when the host does.
"""

from __future__ import annotations

import gc
import os
import threading
import time

#: CPU seconds one probe takes on an unloaded 2-vCPU Intel Xeon VM.
#: Only ratios against it matter: a gated time reads "seconds at the
#: speed where a probe takes this long".
REFERENCE_S = 0.45e-3
#: Kernel runs per probe; the probe is their median.
_REPEATS = 3
#: How much faster than the probe's, in log scale, the allocator's CPU
#: time grows when the host slows down.  Fitted between sets of runs on
#: that VM whose mean probe differed by 30-45%: 1.2 (specfp-rv2) and
#: 1.35 (dsa-op).  Suite generation follows the probe as it is (1.0), and
#: so, on average, does the serve-zipf fleet (0.6-1.3 from set to set).
WORK_ELASTICITY = 1.25


class _Node:
    __slots__ = ("id", "succ", "weight")

    def __init__(self, ident: int):
        self.id = ident
        self.succ: list[_Node] = []
        self.weight = 0


def kernel(size: int = 48) -> int:
    """A fixed amount of interpreter work; returns a checksum."""
    nodes = [_Node(i) for i in range(size)]
    for i, node in enumerate(nodes):
        node.succ.append(nodes[(i * 7 + 3) % size])
        node.succ.append(nodes[(i * 13 + 5) % size])
    live: dict[int, frozenset] = {}
    for _ in range(3):
        for node in nodes:
            seen = set()
            for succ in node.succ:
                seen.add(succ.id)
                seen.update(live.get(succ.id, ()))
            live[node.id] = frozenset(sorted(seen)[:8])
            node.weight += len(seen)
    text = " ".join(f"%v{node.id}:{node.weight}" for node in nodes)
    return len(text.split())


def probe() -> float:
    """One speed sample: the median CPU time of a few kernel runs.

    The garbage collector is off meanwhile: a collection would traverse
    the work's heap, not measure the machine.
    """
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(_REPEATS):
            started = time.thread_time()
            kernel()
            times.append(time.thread_time() - started)
    finally:
        if enabled:
            gc.enable()
    times.sort()
    return times[len(times) // 2]


class SpeedProbe:
    """Threads that sample the machine's speed while the work runs.

    Use it as a context manager around the measured work.  One probe
    thread runs on each CPU the process may use, pinned to it, since a
    neighbour may slow one vCPU and not the other.  Samples are taken
    every ``every_s`` wall seconds, so they spread evenly over the work,
    long units included.  The probe threads' CPU time is in
    :attr:`cpu_s`, for callers that time the work with a process-wide
    clock.  ``pin=True`` confines the process to one CPU for the probe's
    lifetime, so that a single-threaded work and its one probe thread
    share the CPU whose speed they measure.
    """

    def __init__(self, every_s: float = 0.02, pin: bool = False):
        self.every_s = every_s
        self.pin = pin
        self.samples: list[float] = []
        self._cpu: dict[int, float] = {}
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._affinity: set[int] | None = None

    def _loop(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})  # this thread only
        while not self._stop.wait(self.every_s):
            self.samples.append(probe())
            self._cpu[cpu] = time.thread_time()

    def __enter__(self) -> "SpeedProbe":
        cpus = os.sched_getaffinity(0)
        if self.pin:
            self._affinity = cpus
            cpus = {min(cpus)}
            os.sched_setaffinity(0, cpus)
        for cpu in sorted(cpus):
            thread = threading.Thread(target=self._loop, args=(cpu,),
                                      name=f"speed-probe-{cpu}", daemon=True)
            thread.start()
            self._threads.append(thread)
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()
        if self._affinity is not None:
            os.sched_setaffinity(0, self._affinity)

    @property
    def cpu_s(self) -> float:
        """CPU seconds the probe threads have used so far."""
        return sum(self._cpu.values())

    def mark(self) -> int:
        """A point to measure from: the number of samples so far."""
        return len(self.samples)

    def slowdown(self, since: int = 0) -> float:
        """Mean probe since *since* over ``REFERENCE_S``: above 1 while
        the host runs slower than the reference."""
        window = self.samples[since:] or [probe()]
        return sum(window) / len(window) / REFERENCE_S

    def scale(self, seconds: float, since: int, elasticity: float = 1.0) -> float:
        """*seconds* of work done since the mark *since*, at reference speed.

        *elasticity* is how many times faster (in log scale) the work's
        CPU time grows than the probe's when the host slows down: 1 for
        work that slows as the kernel does.
        """
        return seconds / self.slowdown(since) ** elasticity
