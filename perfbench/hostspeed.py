"""Times on a shared host, scaled to a core of fixed speed.

On a shared virtual machine the speed of a core switches between levels up to
1.75x apart that hold for a second to a minute (measured on a 2-vCPU KVM
guest, Xeon Sapphire Rapids; the two vCPUs switch independently).  A wall time
measured there says as much about the neighbours as about the program, and
two sets of runs of the same code differed by a third.

So the benchmark pins itself and every child to one CPU and runs a fixed
calibration loop on it between short slices of the measured work: between
input cycles in-process, and every ``SLICE_S`` of a child process, which is
stopped while the loop runs.  Each slice's wall time is scaled by
``REF_S / c``, where ``c`` is the mean of the calibration times before and
after the slice: the result is the time the slice would take on a core that
runs the calibration loop in ``REF_S`` (1 ms, about the fast level of the host
above).  The loop is a fixed mix of interpreted complex arithmetic and
small-array numpy calls, the two kinds of work the program does, and it is
not part of the program, so a change to the program moves the scaled times
as it moves the wall times.  Calibration and stopped time are left out of
both.

Set-up is mostly process start and imports, which the loop tracks less well
(a fast level sped imports up by about 1.5x where it sped the loop up by
1.8x).  Each set-up sample is a fresh process instead, scaled by
``REF_START_S`` over the mean wall time of a reference process, a fresh
interpreter that imports numpy, run just before and just after it.
"""

from __future__ import annotations

import cmath
import os
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

REF_S = 1e-3
SLICE_S = 0.1
_VEC = np.linspace(0.0, 1.0, 64) + 0.1j
REF_START_ARGV = [sys.executable, "-c", "import numpy"]
REF_START_S = 0.1


def pin_to_one_cpu():
    """Keep this process and its children on the lowest CPU allowed."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _loop():
    acc = 0j
    z = 0.3 + 0.1j
    table = {}
    for i in range(1000):
        z = z * z * 0.5 + 0.1j + cmath.exp(-abs(z))
        table[i & 63] = z
        acc += table.get((i * 7) & 63, 0j)
    for _ in range(75):
        acc += (np.exp(_VEC) * _VEC.conj() + np.sqrt(_VEC)).sum()
    return acc


def calibrate(repeats=3):
    """Seconds one calibration loop takes now (median of ``repeats``)."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class ScaledClock:
    """Sums the wall time and the scaled time of measured slices.

    Call ``add`` right after each slice; it calibrates, so the time it takes
    is never inside a slice.
    """

    def __init__(self):
        self.wall_s = 0.0
        self.scaled_s = 0.0
        self._before = calibrate()

    def add(self, wall_s):
        """Record one slice; return the factor that scaled it."""
        after = calibrate()
        factor = 2.0 * REF_S / (self._before + after)
        self._before = after
        self.wall_s += wall_s
        self.scaled_s += wall_s * factor
        return factor


def run_child(argv, clock, timeout, sliced=True, **popen_kw):
    """Run ``argv`` to its end and add its wall time to ``clock``.

    With ``sliced``, the child is stopped every ``SLICE_S`` while ``clock``
    calibrates; without, it is calibrated only before and after (for a child
    that times itself).  On a timeout or any error the child is killed and
    reaped.  Returns the ``CompletedProcess`` and the child's scaled time.
    """
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            **popen_kw)
    scaled = 0.0
    elapsed = 0.0
    try:
        while True:
            t0 = time.perf_counter()
            try:
                out, err = proc.communicate(timeout=SLICE_S if sliced else timeout)
                finished = True
            except subprocess.TimeoutExpired:
                finished = False
            wall = time.perf_counter() - t0
            elapsed += wall
            if not finished:
                if elapsed > timeout:
                    raise subprocess.TimeoutExpired(argv, timeout)
                proc.send_signal(signal.SIGSTOP)
            scaled += wall * clock.add(wall)
            if finished:
                return subprocess.CompletedProcess(argv, proc.returncode, out, err), scaled
            proc.send_signal(signal.SIGCONT)
    except BaseException:
        proc.kill()  # SIGKILL ends a stopped process too
        proc.communicate()
        raise


def _process_wall(argv, timeout, **run_kw):
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, timeout=timeout, **run_kw)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited {proc.returncode}: {proc.stderr.decode()[-500:]}")
    return wall


def start_times(argv, repeats, timeout, **run_kw):
    """Wall times of ``repeats`` fresh runs of ``argv``, one at a time, and
    the same scaled by the reference process run between them."""
    walls, scaled = [], []
    ref_before = _process_wall(REF_START_ARGV, timeout, **run_kw)
    for _ in range(repeats):
        wall = _process_wall(argv, timeout, **run_kw)
        ref_after = _process_wall(REF_START_ARGV, timeout, **run_kw)
        walls.append(wall)
        scaled.append(wall * 2.0 * REF_START_S / (ref_before + ref_after))
        ref_before = ref_after
    return walls, scaled
