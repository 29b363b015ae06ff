"""Scaling of measured times to a reference CPU speed.

The benchmark runs on shared machines whose CPU speed drifts by a third
within minutes, while the relative cost of two pieces of Python code stays
put.  So a fixed chunk of pure-Python work of the engine's kind (a sparse
polynomial product over Fraction, written here and not taken from the
engine) is timed next to every measured operation, and each time is scaled
by REFERENCE_CHUNK_S / (local chunk time).  A reference machine is one on
which the chunk takes REFERENCE_CHUNK_S.  An engine change moves the scaled
times exactly as it moves the raw ones; a slower or faster moment of the
machine moves neither.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REFERENCE_CHUNK_S = 0.004
WINDOW = 1          # chunks on each side that set the speed at one operation

_A = {(i, j, k): Fraction(i + 2 * j - k, 1 + k)
      for i in range(4) for j in range(4) for k in range(3) if i + 2 * j - k}
_B = {(i, j, 0): Fraction(3 * i - j + 1, 2 + j)
      for i in range(5) for j in range(3) if 3 * i - j + 1}


def chunk() -> float:
    """Seconds taken by one fixed product of two sparse polynomials."""
    t0 = time.perf_counter()
    out: dict[tuple[int, ...], Fraction] = {}
    for ea, ca in _A.items():
        for eb, cb in _B.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(e, Fraction(0)) + ca * cb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return time.perf_counter() - t0


def scale(times: list[float | None], chunks: list[float]) -> list[float | None]:
    """Each time (None stays None) scaled by the reference chunk time over
    the median chunk time within WINDOW positions of it."""
    out = []
    for i, t in enumerate(times):
        near = chunks[max(0, i - WINDOW):i + WINDOW + 1]
        out.append(None if t is None else t * REFERENCE_CHUNK_S / statistics.median(near))
    return out
