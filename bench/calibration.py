"""Calibration of times to the machine's current speed.

On a shared machine, the speed a process gets changes in steps that last
from seconds to minutes (slowdowns of 10 to 100 % were seen on a 2-vCPU
cloud VM), so raw times of the same work drift between runs far more than
the regressions the benchmark has to catch.  The slowdown stretches a fixed
piece of pure-Python work by the same factor as tdtc's own (its ratio to
tdtc operations stayed within about 2 % through a 1.5x slowdown), so each
measured time is divided by the reference work's time measured next to it
and multiplied by ``REF_S``: a calibrated time reads as seconds at the
speed where the reference work takes ``REF_S``.
"""

from __future__ import annotations

import time

# the reference work's median time on an unloaded 2.1 GHz x86-64 VM under
# CPython 3.11; a constant, so calibrated times stay comparable across commits
REF_S = 0.0036
# how often a repetition measures the reference between operations
REF_EVERY_S = 0.25


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b


def reference_s() -> float:
    """Time a fixed piece of pure-Python work in the style of tdtc's: small
    objects, frozensets, tuples, sorting and dict building.  (Of the kernels
    tried, this one tracked tdtc operations best through slowdowns; a kernel
    of integer bit operations alone over-corrected by about 5 %.)"""
    start = time.perf_counter()
    rows = []
    seen: set[int] = set()
    for i in range(2500):
        p = _Pair(i, i * 7 % 101)
        members = frozenset((p.a % 13, p.b % 17, (p.a ^ p.b) & 31))
        seen |= members
        rows.append((p.b, tuple(sorted(members))))
    rows.sort()
    dict(rows)
    return time.perf_counter() - start


def op_factors(n_ops: int, refs: list[list]) -> list[float]:
    """Each operation's calibration factor: ``REF_S`` over the mean of the
    reference times measured just before and just after it.

    ``refs`` holds [index of the last operation before the measurement,
    seconds], in order, starting before the first operation (index -1) and
    ending after the last.
    """
    out = []
    k = 0
    for i in range(n_ops):
        while refs[k + 1][0] < i:
            k += 1
        out.append(REF_S * 2 / (refs[k][1] + refs[k + 1][1]))
    return out
