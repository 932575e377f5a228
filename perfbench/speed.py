"""Machine-speed sampling for the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed changes from
one second to the next: when a neighbour loads the same physical core, every
instruction takes longer, and a job's time rises by up to 1.7 times with no
change in the program. So a job also measures that speed, and `run.py`
reports its times at a fixed reference speed.

`Sampler` runs a tick kernel of about 2 ms every INTERVAL seconds from a
SIGALRM handler, in the job's own thread and so on the CPU the job is running
on at that moment. The time between two ticks is weighted by REFERENCE[kind] /
(tick time) around it, which gives the time the same work takes at the
reference speed; the ticks' own time is left out of both the raw and the
scaled time. The import of wickworks is sampled the same way, with the
pure-Python kernel every IMPORT_INTERVAL seconds.

Each kernel does the kind of work that dominates its workload (small FFTs, a
BLAS matrix product, pure-Python dictionary and tuple work, which is also
most of an import), because
contention slows these by different factors. No kernel calls wickworks, so a
change to the program never moves the speed, and the FFT lengths and matrix
shapes are ones wickworks does not use, so a tick warms no cache the program
could reuse.
"""

from __future__ import annotations

import signal
import time

INTERVAL = 0.1  # seconds between ticks in a job; ticks cost about 2% of it
IMPORT_INTERVAL = 0.02  # the import takes about 0.2 s

# About the seconds one tick takes on the reference machine (the 2-vCPU Xeon
# VM of NOTES.md in its fast state). They fix only the unit of the scaled
# times; the comparison between two commits does not depend on them.
REFERENCE = {"fft": 0.0020, "blas": 0.0020, "python": 0.0020}


def _python():
    seen: dict = {}
    for i in range(4000):
        key = tuple(sorted(((i * 7) % 13, (i * 3) % 11, i % 5)))
        seen[key] = seen.get(key, 0) + 1


def make_kernel(kind: str):
    """The tick kernel of `kind`. The pure-Python one imports nothing, so it
    can sample the import of numpy and wickworks."""
    if kind == "python":
        return _python
    import numpy as np

    rng = np.random.default_rng(0)
    if kind == "fft":
        cube = rng.standard_normal((22, 22, 22))
        rfftn, irfftn = np.fft.rfftn, np.fft.irfftn  # bound now, before any tracer wraps them

        def fft():
            for _ in range(8):
                irfftn(rfftn(cube) * 0.5, cube.shape, axes=(0, 1, 2))

        return fft
    mat, vec = rng.standard_normal((400, 300)), rng.standard_normal((300, 200))

    def blas():
        mat @ vec
        mat @ vec

    return blas


class Sampler:
    """Context manager that samples the speed while the work inside it runs.

    After the block, `raw_s` is its duration without the ticks, `scaled_s`
    the same work at the reference speed, `speed` their ratio and
    `first_speed` the speed ratio of the first tick.
    """

    def __init__(self, kind: str, interval: float = INTERVAL):
        self.kind = kind
        self.interval = interval
        self.kernel = make_kernel(kind)
        self.ticks: list[tuple[float, float]] = []  # (start, end) of each tick

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self.kernel()
        self.ticks.append((t0, time.perf_counter()))

    def __enter__(self):
        self.kernel()  # warm up outside the timed block
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        self.start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.end = time.perf_counter()
        signal.signal(signal.SIGALRM, self._old)
        if not self.ticks:  # shorter than one interval: one tick after the block
            self._on_alarm(None, None)
            self.ticks[-1] = (self.end, self.end + self.ticks[-1][1] - self.ticks[-1][0])
        ref = REFERENCE[self.kind]
        speeds = [ref / (t1 - t0) for t0, t1 in self.ticks]
        self.raw_s = self.scaled_s = 0.0
        prev_end, prev_speed = self.start, speeds[0]
        for (t0, t1), speed in zip(self.ticks, speeds):
            gap = max(0.0, min(t0, self.end) - prev_end)
            self.raw_s += gap
            self.scaled_s += gap * (prev_speed + speed) / 2
            prev_end, prev_speed = t1, speed
        tail = max(0.0, self.end - prev_end)
        self.raw_s += tail
        self.scaled_s += tail * prev_speed
        self.speed = self.scaled_s / self.raw_s if self.raw_s else 1.0
        self.first_speed = speeds[0]
        return False
