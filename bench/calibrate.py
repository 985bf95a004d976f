"""A fixed reference kernel that measures how fast the host runs right now.

A shared host's speed can swing by up to 1.7x for seconds to minutes
(other load on the same cores).  Workers time this kernel every CALIBRATE_EVERY_S of op
time, and run.py scales each measured time by REFERENCE_S / (kernel time
around it): times are reported as they would read on a host where the
kernel takes REFERENCE_S.  The kernel does the kinds of work plint does
(small tuples, Fractions, dicts, sorting, mpf arithmetic) and uses no
plint code, so a change to plint cannot move it.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

from mpmath import mp, mpf

REFERENCE_S = 0.005
CALIBRATE_EVERY_S = 0.25


def _kernel() -> None:
    acc: dict = {}
    for i in range(1, 400):
        key = ((i % 13, i % 7), (i % 5,))
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 11 + 1, i)
    sorted(acc.items())
    # below every precision plint works at, so mpmath's cached constants
    # are never warmed for plint
    with mp.workdps(25):
        total = mpf(0)
        for i in range(1, 300):
            total += mp.log(mpf(i)) / i


def kernel_s() -> float:
    """Seconds for one run of the kernel, with the collector off so that
    the size of the caller's heap does not weigh on it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
