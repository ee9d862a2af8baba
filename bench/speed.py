"""Core-speed sampling, so that timings hold still on a shared machine.

On the 2-core machine this benchmark was written on, the speed of each
core changed from moment to moment (another tenant sharing the physical
core, presumably): a fixed computation took 1.0x to 1.85x its fastest
time, in stretches of one to ten seconds, and the two cores varied
independently. Raw times of a pass then spread 12-23% across runs.

``SpeedSampler`` pins the benchmark to one core and starts a sampler
process on the same core. Five times a second the sampler runs a fixed
computation of the kinds vielab does (a LAPACK eigensolve, an FFT and
Hankel functions; about 5 ms) and records the CPU time it took, which
grows with the core's slowdown but not with time spent waiting for the
benchmark to yield the core. An interval's wall time is then scaled by
``REFERENCE_CPU_S`` over the mean sample inside it: it reads as seconds
at the core's full speed. Across ten seeds this brought the spread of
each workload's ``wall_s`` to 2-3%.

Import this module only after the BLAS thread count is pinned.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

#: CPU time of the sampler's computation at the core's full speed on
#: that machine (its minimum over 400 runs).
REFERENCE_CPU_S = 0.005

SAMPLE_INTERVAL_S = 0.2

# stops by itself once the benchmark is gone, even if that was killed
_SAMPLER = f"""
import os, sys, time
import numpy as np, scipy.fft as sfft, scipy.special as sp
parent = os.getppid()
rng = np.random.default_rng(0)
matrix = rng.standard_normal((60, 60)) + 0j
field = rng.standard_normal((64, 64)) + 0j
x = np.linspace(0.1, 50.0, 4000)
with open(sys.argv[1], "w") as out:
    while os.getppid() == parent:
        start, cpu = time.monotonic(), time.thread_time()
        np.linalg.eig(matrix)
        sfft.ifftn(sfft.fftn(field))
        sp.hankel1(0, x)
        cpu = time.thread_time() - cpu
        out.write(f"{{(start + time.monotonic()) / 2!r}} {{cpu!r}}\\n")
        out.flush()
        time.sleep({SAMPLE_INTERVAL_S})
"""


class SpeedSampler:
    """Pins this process to one core and samples that core's speed.

    Use as a context manager; the sampler process is stopped and waited
    for on exit.
    """

    def __init__(self, workdir: Path):
        self.path = workdir / "speed-samples.txt"
        self.core = max(os.sched_getaffinity(0))
        self._proc = None

    def __enter__(self) -> "SpeedSampler":
        os.sched_setaffinity(0, {self.core})
        self._proc = subprocess.Popen([sys.executable, "-c", _SAMPLER, str(self.path)])
        deadline = time.monotonic() + 60.0
        while len(self._samples()) < 2:
            if self._proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("the speed sampler did not start")
            time.sleep(0.05)
        return self

    def __exit__(self, *exc) -> None:
        self._proc.terminate()
        self._proc.wait(timeout=60)

    def _samples(self) -> np.ndarray:
        if not self.path.exists():
            return np.empty((0, 2))
        lines = self.path.read_text().split("\n")[:-1]  # the last may be partial
        return np.array([line.split() for line in lines], dtype=float).reshape(-1, 2)

    def scaled(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` of work done between monotonic ``start`` and ``end``,
        at the core's full speed."""
        if self._proc.poll() is not None:
            raise RuntimeError("the speed sampler stopped")
        samples = self._samples()
        inside = (samples[:, 0] >= start) & (samples[:, 0] <= end)
        if inside.sum() < 2:  # short interval: the nearest samples
            inside = np.argsort(np.abs(samples[:, 0] - 0.5 * (start + end)))[:2]
        return seconds * REFERENCE_CPU_S / float(np.mean(samples[inside, 1]))
