"""The host's speed, measured next to every timed sample.

On a shared virtual machine the same code runs up to about 1.8x slower
while neighbours load the host, in phases of seconds to minutes, so raw wall
times of one program differ by that much between runs a minute apart.  A
fixed pure-Python loop slows down in step with the program.  run.py times
the loop before and after each sample and scales the sample by
``REFERENCE_S`` over the mean of the two loop times.  The result is the
sample's wall time at the reference speed; NOTES.md shows how much steadier
it is than the raw time.
"""

from __future__ import annotations

import time

LOOP_ITERATIONS = 150_000
REFERENCE_S = 0.010
"""Loop time at the reference speed: a quiet core of the 2-vCPU Intel Xeon
KVM guest this benchmark was written on, where the loop takes 10-15 ms."""


def calibration_s() -> float:
    """Wall seconds of the fixed loop, run now."""
    start = time.perf_counter()
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i
    return time.perf_counter() - start


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """A sample's wall time scaled to the reference speed by the loops around it."""
    return seconds * REFERENCE_S * 2.0 / (before + after)
