"""Machine-speed calibration for the untraced iterations.

The benchmark's host is a shared virtual machine whose speed drifts: the
same fixed Python loop runs up to 40% slower for tens of milliseconds to
minutes at a time, and the drift is what made raw wall times of the same
code spread by 20-30% between runs.  A `Calibrator` cancels most of it.
While a workload runs, a wall-clock timer (SIGALRM) interrupts it every
INTERVAL_S seconds and times one pass of a fixed reference kernel, which
does no gforest work and so does not change when the program does.  The
passes are kept out of the workload's clock (`clock()`).

A pass of length p says the machine ran at speed NOMINAL_S / p of the
nominal speed just then.  Since the passes are spread evenly in time, the
mean of these speeds over a stretch is how much more work the nominal
machine would have done in it; `factor()` is that mean over the whole
run (trimmed of the extreme 10% at each end, which are passes cut into by
other processes), and `factor_at(t)` the mean over the NEAREST passes
around time t, for an operation much shorter than the run.  A time
multiplied by its factor is in *reference seconds*: the time the work
would take on a machine that runs the kernel in NOMINAL_S.  The mean,
not the median, is the right average: when the speed flips between two
levels within a run, the median picks one of them.

A regression in gforest shows in full, since the reference kernel does
not change; only the speed of the machine divides out.
"""

import bisect
import gc
import signal
import statistics
from time import perf_counter

# Sampled this often in wall time, so drift is tracked at this resolution.
INTERVAL_S = 0.1
# Length of one pass of the reference kernel (about 10 ms).
REFERENCE_LOOPS = 15000
# Passes around an operation that give its local factor (about 0.6 s).
NEAREST = 6
# A pass on the 2-CPU virtual machine the benchmark was written on
# (Python 3.11.7), typical of quiet and busy phases.  Only a fixed unit:
# parent and child commits are compared with the same constant.
NOMINAL_S = 0.010
# Share of the speeds dropped at each end before averaging.
TRIM = 0.1

_BIG = 3**300
_MASK = (1 << 200) - 1


def reference_kernel(table: dict) -> int:
    """Fixed pure-Python work of the kinds gforest does: dict updates with
    small-int keys, products of a few-hundred-bit ints.

    `table` is reused from pass to pass and holds ints only, so a pass
    allocates no object the garbage collector tracks and does not move the
    workload's collections.
    """
    get = table.get
    x = 1
    acc = 0
    for i in range(REFERENCE_LOOPS):
        key = (i * 7919) & 1023
        table[key] = (get(key, 0) + i) & 0xFFFF
        acc += _BIG * (i | 1)
        x = (x * 1103515245 + 12345) & _MASK
        acc ^= x & 255
    return acc + len(table)


class Calibrator:
    """Times the reference kernel every INTERVAL_S while started."""

    def __init__(self):
        self.samples = []  # length of each reference pass
        self.times = []  # perf_counter() at the middle of each pass
        self.paused = 0.0  # wall time spent in reference passes
        self._table = dict.fromkeys(range(1024), 0)

    def sample(self, *_signal_args):
        start = perf_counter()
        # Allocation in the kernel must not trigger a collection of the
        # workload's heap, which would charge the workload's garbage to
        # the reference pass.
        was_enabled = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        reference_kernel(self._table)
        t1 = perf_counter()
        self.samples.append(t1 - t0)
        self.times.append((t0 + t1) / 2)
        if was_enabled:
            gc.enable()
        self.paused += perf_counter() - start

    def start(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def clock(self) -> float:
        """perf_counter() without the time spent in reference passes."""
        return perf_counter() - self.paused

    def factor(self) -> float:
        return _trimmed_mean_speed(self.samples)

    def factor_at(self, t: float) -> float:
        """The factor from the NEAREST passes around perf_counter() time t."""
        i = bisect.bisect(self.times, t)
        lo = max(0, min(i - NEAREST // 2, len(self.samples) - NEAREST))
        return _trimmed_mean_speed(self.samples[lo : lo + NEAREST])


def _trimmed_mean_speed(passes) -> float:
    speeds = sorted(NOMINAL_S / p for p in passes)
    cut = int(len(speeds) * TRIM)
    return statistics.fmean(speeds[cut : len(speeds) - cut])
