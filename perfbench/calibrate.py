"""Machine-speed calibration for the benchmark's timings.

The shared 2-vCPU virtual machine this benchmark was tuned on changes speed
by up to 2x within a second, in CPU time as much as in wall time, because
other tenants load the same cores.  A fixed pure-Python kernel, shaped like
the library's inner loops (small tuples of ints, sums, comparisons), is timed
every SAMPLE_EVERY_S of wall time from a SIGALRM handler, during ops as well
as between them, and the handler's own time is taken out of the op it
interrupted.  Op wall times are then scaled by NOMINAL_KERNEL_S over the mean
kernel time around them: the result reads as wall time on a machine that runs
the kernel in NOMINAL_KERNEL_S, and most of the other tenants' noise cancels
out.  The kernel never calls perron, so no change to the package can move it.
"""

import gc
import signal
import time

NOMINAL_KERNEL_S = 1.0e-3
SAMPLE_EVERY_S = 0.025


def _kernel():
    acc = 0
    v = (3, 1, 4, 1)
    for i in range(400):
        w = tuple(x + i for x in v)
        acc += sum(w) if all(a <= b for a, b in zip(v, w)) else min(w)
    return acc


def probe():
    """Seconds the kernel takes now, with the garbage collector paused so the
    size of the caller's heap cannot change the reading."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        _kernel()
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Context manager that probes the machine's speed on a wall-clock timer.

    `samples` holds the kernel times in order; `spent` is the wall time the
    handler has used, which a caller subtracts from an interval it times."""

    def __init__(self, every=SAMPLE_EVERY_S):
        self.every = every
        self.samples = [probe()]
        self.spent = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame):
        t = time.perf_counter()
        self.samples.append(probe())
        self.spent += time.perf_counter() - t

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def stop(self):
        """Stop the timer and take one last sample."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(probe())

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()
        return False

    def factor(self, first, last):
        """Scale for ops timed between samples[first] and samples[last]:
        nominal over the mean of those samples (clipped to the ones taken)."""
        chosen = self.samples[max(first, 0):last + 1]
        return NOMINAL_KERNEL_S * len(chosen) / sum(chosen)
