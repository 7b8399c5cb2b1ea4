"""Machine-speed probe: expresses measured wall time at a reference speed.

The benchmark runs on shared machines whose speed changes by up to half,
both from one second to the next and over minutes, as neighbours load
the cores, caches and memory. Timed ops alone cannot tell that drift from a change in the
program. So while ops are timed, a ``SpeedMeter`` times a short probe
every ``INTERVAL_S`` seconds, from a ``SIGALRM`` handler on the
benchmark's own thread. An op's wall time, less the time its probes
took, is multiplied by ``REF_S / mean(probes)`` over the probes taken
from ``PAD_S`` before it to ``PAD_S`` after it: seconds at the speed the
probe had on the reference machine. The machine flips between a fast and
a slow state, often several times a second; the mean probe time, unlike
the median, follows the share of time spent in each.

The probe runs no code of the program under test, so a change to the
program moves the reported times exactly as it moves the measured ones.
It builds and walks a tree of small Python objects and then runs small
NumPy operations, the mix of allocation, attribute access and NumPy
calls the simulator itself makes. Of the kernels tried (a tight integer
loop, dictionary and array churn, and this one) it tracked the drift of
compile ops best, and of simulated runs about as well as the others.
The garbage collector is off while it runs, so the size of the
program's heap cannot change the probe's time.
"""

import bisect
import gc
import signal
import statistics
import time

import numpy as np

# The probe's mean time on the reference machine (2-core x86-64 VM).
REF_S = 0.0075
_TREE_DEPTH = 12
_WALKS = 3
_VECTOR_STEPS = 800
# About 2-4% of the timed wall goes to probes at this interval.
INTERVAL_S = 0.25
# An op's speed is the mean probe within this margin of it, so even a
# short op is judged by several probes.
PAD_S = 0.5


class _Node:
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        self.op = op
        self.left = left
        self.right = right


def _build(depth):
    if depth == 0:
        return _Node("leaf", 1.5, None)
    return _Node("add" if depth % 2 else "mul", _build(depth - 1), _build(depth - 1))


def _walk(node):
    if node.op == "leaf":
        return node.left
    left = _walk(node.left)
    right = _walk(node.right)
    return left + right if node.op == "add" else left * right * 0.5


def probe():
    """Seconds one probe takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        tree = _build(_TREE_DEPTH)
        for _ in range(_WALKS):
            _walk(tree)
        v = np.arange(64.0)
        for _ in range(_VECTOR_STEPS):
            v = np.sqrt(v * v + 1.0)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedMeter:
    """Probe samples on a timeline. ``with meter:`` samples every
    INTERVAL_S seconds until the block ends; ``sample()`` takes one
    more at any time."""

    def __init__(self):
        self._times = []  # when each sample ended (perf_counter)
        self._values = []  # seconds each probe took
        self.paused_s = 0.0  # total time spent probing
        self._busy = False
        self._previous = None

    def sample(self):
        if self._busy:
            return
        self._busy = True
        try:
            start = time.perf_counter()
            value = probe()
            end = time.perf_counter()
            self._times.append(end)
            self._values.append(value)
            self.paused_s += end - start
        finally:
            self._busy = False

    def _on_alarm(self, _signum, _frame):
        self.sample()

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def factor(self, start, end):
        """Multiplier from wall seconds measured in ``[start, end]`` to
        seconds at the reference speed. It uses the samples taken within
        PAD_S of that interval, and at least the nearest one on each
        side, so it needs a sample before ``start`` and one after
        ``end``."""
        times = self._times
        lo = min(bisect.bisect_left(times, start - PAD_S), bisect.bisect_left(times, start) - 1)
        hi = max(bisect.bisect_right(times, end + PAD_S), bisect.bisect_right(times, end) + 1)
        if lo < 0 or hi > len(times):
            raise ValueError("no speed sample on both sides of the interval")
        return REF_S / statistics.fmean(self._values[lo:hi])

    def setup_factor(self):
        """Multiplier for time measured before any timed pass: from the
        mean of every sample so far."""
        return REF_S / statistics.fmean(self._values)
