"""Machine-speed calibration for the benchmark's timings.

The benchmark's host shares its CPUs with other machines, and the same
code runs up to twice as fast in some minutes as in others.  ``calibrate()``
times a fixed loop that uses no ``repro`` code.  The loop formats and parses
floats, runs a numpy scatter and takes a SHA-256.  The workload times it
between commands (on ``append-feed`` after each round's appends and after
its verify), and every command time is scaled to the reference speed by the
calibrations on either side of it.
A change to the program moves the scaled times as much as the raw ones.

The loop runs in the workload's interpreter, right after a command, so it
sees the same core and cache state the commands do (a separate helper
process was tried and tracked the commands' speed far worse).  So that
nothing the program leaves behind can slow the loop and divide itself out
of its own figures, the workload runs a full garbage collection first and
fails the run if a command left a thread running.
"""

from __future__ import annotations

import hashlib
import statistics
import time

import numpy as np

#: What ``calibrate()`` takes at the reference machine speed.
REFERENCE_CALIBRATION_S = 0.05

_ROWS = np.random.default_rng(0).normal(size=(2000, 4)).tolist()


def calibrate() -> float:
    """Seconds the fixed calibration loop takes now."""
    started = time.perf_counter()
    for _ in range(3):
        text = "\n".join(",".join(map(repr, row)) for row in _ROWS)
        parsed = np.array(text.replace("\n", ",").split(","), dtype=float)
        np.bincount(np.abs(parsed * 100).astype(np.int64) % 4096, weights=parsed)
        hashlib.sha256(text.encode("ascii") * 20).hexdigest()
    return time.perf_counter() - started


def speed_scale(*calibrations: float) -> float:
    """Factor taking a time measured between ``calibrations`` to the reference speed."""
    return REFERENCE_CALIBRATION_S / statistics.mean(calibrations)
