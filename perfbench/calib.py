"""Machine-speed reference for the timed metrics.

The benchmark host's speed drifts by up to a factor of two over seconds to
minutes (shared vCPUs), which no averaging inside one run removes.  So the
worker runs a fixed reference kernel, part of the benchmark and never of
the program, between operations, and scales each operation's wall time by
REF_MS over the kernel's local median time.  The result is in ref_ms:
milliseconds on a machine where the kernel takes REF_MS.  A change to
trisect moves these numbers; a change in machine speed mostly does not.
Raw wall times are printed alongside.
"""

import statistics
import time
from typing import List

REF_MS = 0.5
EVERY_S = 0.025  # one kernel run per 25 ms of operation time
WINDOW = 8       # an operation's kernel median spans the 2 * WINDOW runs around it


def reference_kernel() -> int:
    """About 0.5 ms of the work trisect does: row operations on lists of
    ints, big-integer arithmetic, set and dict traffic, small strings."""
    rows = [[(i * 7919 + j * 104729) % 97 - 48 for j in range(20)] for i in range(20)]
    for t in range(19):
        p = rows[t][t] or 1
        for i in range(t + 1, 20):
            q = rows[i][t] // p
            rows[i] = [a - q * b for a, b in zip(rows[i], rows[t])]
    big = 3 ** 400
    acc = 0
    for k in range(1, 120):
        acc ^= (big * k) % 1000000007
    seen = set()
    names = {}
    for i in range(600):
        seen.add((i * 31) % 97)
        names[i] = f"{i}/{i % 7}"
    return acc + len(seen) + len("".join(names.values())) + rows[19][19]


class Calibrator:
    """Runs the kernel once per EVERY_S of operation time."""

    def __init__(self):
        self.runs: List[float] = []
        self.pending = 0.0
        self.run()

    def run(self) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        self.runs.append(time.perf_counter() - t0)
        self.pending = 0.0

    def mark(self, op_seconds: float) -> int:
        """Call after each operation, outside its timing; returns the
        operation's position among the kernel runs."""
        self.pending += op_seconds
        pos = len(self.runs)
        if self.pending >= EVERY_S:
            self.run()
        return pos

    def scaled(self, seconds: List[float], marks: List[int]) -> List[float]:
        """Wall times in ref seconds: each scaled by REF_MS over the median
        kernel time around it."""
        factor = {}
        out = []
        for s, pos in zip(seconds, marks):
            if pos not in factor:
                window = self.runs[max(0, pos - WINDOW):pos + WINDOW]
                factor[pos] = REF_MS / 1000 / statistics.median(window)
            out.append(s * factor[pos])
        return out
