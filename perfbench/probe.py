"""A probe of the host's current speed, and times converted by it.

The host gives each pass a share of a CPU whose speed drifts by up to 2x
over minutes, in the program and in this probe alike (process CPU time
drifts with wall time, so it is the speed of the CPU, not waiting).  A time
taken next to probes is converted to reference seconds: the seconds it would
have taken had the probe run in REF_NOMINAL_S.  A change to the program moves
the converted time as it moves the wall time; a change in the host's speed
moves it far less.
"""

from __future__ import annotations

import statistics
import time

REF_ROUNDS = 12_000
REF_NOMINAL_S = 0.004  # about what one probe takes on the host the README measured


def probe() -> float:
    """Seconds taken by a fixed pure-Python loop of dict and integer work."""
    start = time.perf_counter()
    table, acc = {}, 0
    for i in range(REF_ROUNDS):
        k = (i * 7919) % 1009
        table[k] = table.get(k, 0) + i
        acc = (acc * 31 + k) % 1_000_003
    return time.perf_counter() - start


def to_ref(seconds: float, probes) -> float:
    """`seconds` in reference seconds, at the median speed of `probes`."""
    return seconds * REF_NOMINAL_S / statistics.median(probes)
