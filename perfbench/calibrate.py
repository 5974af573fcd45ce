"""Host-speed calibration.

On a shared host the speed of the same unchanged op drifts by up to 40%
over minutes, with the load other tenants put on the machine's caches and
memory.  The benchmark therefore reports its times against a fixed
pure-Python reference pass, run now and then between the ops it
measures, scaled to a host on which that pass takes ``NOMINAL_PASS_S``:

    reported seconds = measured seconds / pass seconds * NOMINAL_PASS_S

where the pass seconds are, for an op, the median of the passes run
between units of ops within ``WINDOW_S`` of its start, and for a set-up,
the pass run in the same fresh process right after it.  Scaling each op
by the passes near it follows the host's speed through the run.

The pass does to memory what ozk's store does: it builds 150,000 small
linked objects while the cyclic collector runs over them, walks them and
looks them up through a dict, so its working set is larger than the
CPU's caches, and host contention for caches and memory slows it as it
slows the workloads.  Over eight minutes of 8-queens ops
on a shared 2-vCPU VM, with a pass before each op, the ops' medians over
15-second windows spread by (q3 - q1) / median = 0.17; divided by the
passes' medians over the same windows, by 0.07.

A pass runs in the benchmark's own process, on the CPU and at the moment
of the work it scales; a pass in a child process, which the kernel may
place on another CPU, tracked the ops less well.  A change to ozk must
not move the pass, so the pass imports nothing from ozk, runs only
between units, after the last unit's objects have been dropped and
collected (a pass in the middle of a long REPL session ran a third
faster, on memory the session had freed), and freezes every object that
exists when it starts, so that its collections walk only its own
objects and never what ozk holds.  A change to ozk then moves the
reported times by the same factor on any host, while a slower host moves
both and leaves them.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

# One pass took about this long on a 2-vCPU Intel Xeon VM (CPython 3.11)
# when the host was quiet.  Reported times are seconds on a host as fast
# as that one.
NOMINAL_PASS_S = 0.25

# An op is scaled by the passes that started within this many seconds
# of its own start: the host's speed holds for a few seconds at a time,
# and one pass alone is a noisy measure of it.
WINDOW_S = 4.0

OBJECTS = 150_000


class _Obj:
    __slots__ = ("key", "prev", "val")

    def __init__(self, key, prev, val):
        self.key = key
        self.prev = prev
        self.val = val


def reference_pass() -> int:
    """The fixed reference work; returns a checksum."""
    live = []
    prev = None
    for i in range(OBJECTS):
        prev = _Obj(i, prev, {"k": i} if i % 8 == 0 else (i, i))
        live.append(prev)
    total = 0
    for obj in live:
        total += obj.key
        if obj.prev is not None:
            total += obj.prev.key
    index = {}
    for i in range(0, OBJECTS, 3):
        index[("v", i)] = live[i]
    for i in range(0, OBJECTS, 3):
        total += index[("v", i)].key
    return total


def pass_seconds() -> float:
    """Seconds of one reference pass on this host, now."""
    gc.collect()
    gc.freeze()
    try:
        t0 = perf_counter()
        reference_pass()
        return perf_counter() - t0
    finally:
        gc.unfreeze()


def pass_near(passes: list, t: float) -> float:
    """The median seconds of the ``passes`` (start time, seconds) that
    started within ``WINDOW_S`` of ``t``, or of the nearest one."""
    near = [s for at, s in passes if abs(at - t) <= WINDOW_S]
    if not near:
        near = [min(passes, key=lambda p: abs(p[0] - t))[1]]
    return statistics.median(near)


def scale(seconds: float, pass_s: float) -> float:
    """``seconds`` measured while a pass took ``pass_s``, as seconds on
    the nominal host."""
    return seconds / pass_s * NOMINAL_PASS_S
