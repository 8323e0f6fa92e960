"""A fixed reference computation that measures the host's current speed.

The benchmark shares its CPUs with other virtual machines, and their
load changes how fast the same Python code runs by up to about 1.7x
over seconds to minutes.  Every timed figure is therefore scaled by a
reference computation measured beside it:

    scaled = measured * REFERENCE_S / reference_now

where reference_now is the time the reference computation takes at
that moment and REFERENCE_S is its time on an idle host.  The reference
is exact Fraction work of the same character as biorth's (a moment
matrix from running products, then Gaussian elimination) but shares no
code with it, so a change to biorth moves the scaled figures and a
change in host load does not.

It cannot cancel a change to interpreter-wide state that biorth might
make (the garbage collector's settings, say), since that would speed up
the reference too.
"""
from __future__ import annotations

import time
from fractions import Fraction

# Seconds one reference computation takes on an idle host (the fastest
# of many samples on a 2-vCPU machine, Python 3.11).  A fixed constant:
# it only sets the scale of the reported figures.
REFERENCE_S = 0.0035

_MU = [Fraction(k + 1, k % 5 + 2) for k in range(12)]


def _reference():
    quads = [(1 + n, 1, 1, 3 + n) for n in range(len(_MU))]
    rows = []
    for mu in _MU:
        row, m = [], Fraction(1)
        for alpha, beta, gamma, delta in quads:
            row.append(m)
            m = m * (alpha + mu * beta) / (gamma + mu * delta)
        rows.append(row)
    n = len(rows)
    for c in range(n):
        pivot = rows[c][c]
        for r in range(c + 1, n):
            factor = rows[r][c] / pivot
            for j in range(c, n):
                rows[r][j] -= factor * rows[c][j]
    return rows[-1][-1]


def reference_seconds() -> float:
    """Time of one reference computation now."""
    start = time.perf_counter()
    _reference()
    return time.perf_counter() - start
