"""Machine-speed calibration of job timings.

The benchmark shares a few cores of a host with other tenants, and the
speed at which those cores run pure Python moves by a third from one
second to the next.  A job's wall time alone measures that as much as it
measures the program.  So while a timed job runs, an interval timer
interrupts it every INTERVAL_S and times a fixed piece of pure-Python
work, the probe.  The probe uses none of g2points: slotted objects with
arithmetic dunders over integers modulo 7^40, and list building, the
kinds of operation the program's p-adic and polynomial layers perform.

Job timings are then reported in reference seconds, the time the job
would have taken on a machine on which one probe takes REFERENCE_S:

    reference seconds = measured seconds * REFERENCE_S / probe seconds

with the probe seconds a trimmed mean of the samples taken during that
job.  The probes' own time is subtracted from the job's time first.

Set-up, the start of a fresh interpreter up to a parsed job, is too
short to probe and is mostly interpreter start, unmarshalling and module
execution, which follow the machine's speed less than the probe does.
So each set-up process is timed next to a reference process: a fresh
interpreter that imports a fixed set of standard-library modules and
none of g2points.  Set-up is reported as

    reference seconds = median set-up seconds * REFERENCE_PROCESS_S
                        / median reference-process seconds
"""

import gc
import signal
import statistics
import time

INTERVAL_S = 0.05
# a probe's typical duration inside a job on a 2-core x86-64 host with
# Python 3.11, so that reference seconds read close to wall seconds there
REFERENCE_S = 450e-6
# share of samples dropped at each end before averaging: a sample that
# the scheduler preempts reads many times too long
TRIM = 0.2

# the reference process, and its typical time from spawn to its "ready"
# line on the host named at REFERENCE_S
REFERENCE_PROCESS = ("import argparse, dataclasses, decimal, fractions, json, "
                     "random, statistics, typing; print('ready', flush=True)")
REFERENCE_PROCESS_S = 0.068

_MOD = 7 ** 40


class _Residue:
    __slots__ = ("value", "prec")

    def __init__(self, value, prec):
        self.value = value
        self.prec = prec

    def __add__(self, other):
        return _Residue((self.value + other.value) % _MOD,
                        min(self.prec, other.prec))

    def __mul__(self, other):
        return _Residue(self.value * other.value % _MOD,
                        min(self.prec, other.prec))


def _work():
    x, y, acc = _Residue(3, 40), _Residue(1234567, 40), _Residue(0, 40)
    row = []
    for _ in range(150):
        acc = acc + x * y
        x = x + acc
        row.append(acc)
    [[(i * j) % 31 for j in range(8)] for i in range(8)]


def probe():
    """Time one piece of reference work: (wall seconds, CPU seconds)."""
    # with the collector off, the probe's cost does not depend on the
    # size of the job's heap; its objects are freed by reference count
    was_enabled = gc.isenabled()
    gc.disable()
    t0, c0 = time.perf_counter(), time.process_time()
    _work()
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if was_enabled:
        gc.enable()
    return wall, cpu


class Calibration:
    """Probe samples taken between start() and stop()."""

    def __init__(self):
        self.samples = []
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        wall, cpu = probe()
        self.samples.append(wall)
        self.wall_s += wall
        self.cpu_s += cpu

    def start(self):
        probe()  # warm the probe's code before the first timed sample
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            # a job shorter than one interval: probe once after it
            self.samples.append(probe()[0])

    def speed(self) -> float:
        """REFERENCE_S over the trimmed mean probe time."""
        s = sorted(self.samples)
        k = int(len(s) * TRIM)
        return REFERENCE_S / statistics.fmean(s[k:len(s) - k])
