"""Reference kernel: a fixed piece of work timed all through a run to follow
the speed of the core the benchmark runs on.

On a machine whose cores are shared with other tenants, each core's speed
drifts by more than half within seconds, and CPU time drifts with wall
time, so it is the core that slows. The kernel mixes the three kinds of
work the program's hot loops are made of, in about equal time: fancy
indexing with reductions and scalar crossings, many small elementwise array
operations, and plain interpreter work. ``SpeedSampler`` times it in a
background thread on the same core as the measured work; each measured
interval is scaled by the median kernel time inside it.
"""
import bisect
import statistics
import threading
import time

import numpy as np

# The kernel's CPU time on the machine the README's figures come from, in
# its faster state; scaled rates and set-up times are given for that speed.
NOMINAL_S = 0.010
# Pause between two timings of the kernel.
PERIOD_S = 0.25

_rng = np.random.default_rng(12345)
_VECTOR = _rng.random(126)
_PICK = _rng.integers(0, 126, size=64)


def kernel() -> float:
    acc = 0.0
    for _ in range(1200):
        acc += float((_VECTOR[_PICK] * 0.5).sum())
    y = np.ones(126)
    for _ in range(1200):
        y = np.minimum(y + 0.5, 3.0) * 0.9
    count = 0
    for i in range(40000):
        count += (i * 7) % 3
    return acc + float(y[0]) + count


class SpeedSampler:
    """Times the kernel every ``PERIOD_S`` seconds in a background thread.

    The kernel is timed in thread CPU time, so the time it waits for the
    interpreter lock or for the core while the measured work runs does not
    count. The thread takes 4-6% of the core, alike in every run.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (end time, kernel CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-sampler", daemon=True)

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        while not self._stop.wait(PERIOD_S):
            start = time.thread_time()
            kernel()
            self.samples.append((time.perf_counter(), time.thread_time() - start))

    def factor(self, start: float, end: float) -> float:
        """Median kernel time over [start, end] (the nearest sample if none
        fell inside), relative to the nominal time."""
        samples = list(self.samples)
        if not samples:
            return 1.0
        ends = [t for t, _ in samples]
        lo, hi = bisect.bisect_left(ends, start), bisect.bisect_right(ends, end)
        if lo < hi:
            return statistics.median(s for _, s in samples[lo:hi]) / NOMINAL_S
        middle = 0.5 * (start + end)
        near = min(samples[max(lo - 1, 0):lo + 1], key=lambda ts: abs(ts[0] - middle))
        return near[1] / NOMINAL_S
