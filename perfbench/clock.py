"""Machine-speed reference for the timings the benchmark reports.

The 2-vCPU virtual machine this benchmark was tuned on runs the same Python
code at speeds up to several times apart, switching every few seconds to a
minute with no load of its own, so a whole run can sit in a slow or a fast
state.  Every timed job (and every set-up) is therefore bracketed by two
calls of `probe()`, a fixed slice of interpreter work shaped like the
library's (small objects, operator dispatch, a math call), and reported
times are converted to what they would be when the probe takes REFERENCE_S:

    reported = measured * (REFERENCE_S / mean(probe before, probe after)) ** exponent

A CLI call is partly process start, dynamic loading and file reads, which
the slow state slows less than interpreter work, so cli-batch applies the
probe's ratio with exponent 0.5.  Fitting log(unconverted jobs/s) against
log(probe) over three independent sets of cli-batch runs gave slopes of
-0.50, -0.53 and -0.54; at exponent 1, slow-state runs read up to 20% fast.

Unconverted times are printed next to the reported ones.  A change to the
program moves the measured time and not the probe, so it shows in full.
"""

import math
import time

# About the probe's time on that VM (Intel Xeon, Python 3.11) in its fast state.
REFERENCE_S = 4.0e-4


class _Dual:
    __slots__ = ("v", "d")

    def __init__(self, v, d):
        self.v = v
        self.d = d

    def __add__(self, o):
        return _Dual(self.v + o.v, self.d + o.d)

    def __mul__(self, o):
        return _Dual(self.v * o.v, self.v * o.d + self.d * o.v)


def _once():
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(500):
        x = _Dual(i * 0.01, 1.0)
        y = x * x + x
        acc += math.sin(y.v)
    return time.perf_counter() - t0


def probe():
    """Seconds for the reference slice: the fastest of three, to drop spikes."""
    return min(_once(), _once(), _once())


def normalized(seconds, probe_s, exponent=1.0):
    return seconds * (REFERENCE_S / probe_s) ** exponent
