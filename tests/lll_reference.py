"""The LLL loop as it was before its skip bookkeeping, kept as a test oracle.

It rounds every Gram-Schmidt ratio on every pass, and holds R as rows
(R[i][j]) of Python floats over Z and of Python complex over a ring, where
reduction._lll holds columns.  Each step is written out here in that row
layout, in the same IEEE operations as the library: the ratio and its
rounding (_round_half_down over Z, _quantize_pair over a ring), the
size-reduction update row by row, the Lovasz test (squares taken as
products), and at a swap the column exchange across every row, the
rotation of rows j-1 and j as a*x + b*y with the entries of _rotation, and
the phase fix, which multiplies both rows by conj(rii / |rii|) whatever
rii is.  The start and each refactor take R from its own copy of the numpy
QR helpers (_phase_normalize, _r_positive).  It runs on B as given, where
the library loop first scales B by a power of two, so every comparison
also checks that scaling.  Nothing under src/ imports it; tests/test_lll_reference.py checks that the
library loop returns the same (ua, ub, swaps, size_reductions, events,
potential_ratios, stalled).
"""

from __future__ import annotations

import math

import numpy as np

from alglat.reduction import (
    REFACTOR_EVERY,
    STALL_RATIO,
    _embed_coords,
    _identity_coords,
    _sub_multiple,
)
from alglat.rings import RingSpec, _quantize_pair


def _round_half_down(x: float) -> int:
    """Nearest integer, ties toward the smaller integer."""
    return math.ceil(x - 0.5)


def _phase_normalize(R: np.ndarray, rows) -> None:
    """Rescale the given rows of R so its diagonal there is real-positive."""
    for i in rows:
        rii = R[i, i]
        mag = abs(rii)
        if mag == 0.0:
            continue
        R[i, :] *= np.conj(rii / mag)


def _r_positive(B: np.ndarray) -> np.ndarray:
    """R factor of the QR decomposition of a real or complex matrix, with a
    real-positive diagonal."""
    R = np.linalg.qr(B, mode="r")
    _phase_normalize(R, range(B.shape[0]))
    return R


def _rotation(r_above, r_below) -> tuple:
    """The unitary 2x2 rotation sending [r_above; r_below] to [s; 0], s > 0,
    as a pair of rows, in the arithmetic of the inputs."""
    s = math.hypot(abs(r_above), abs(r_below))
    return (r_above.conjugate() / s, r_below.conjugate() / s), (-r_below / s, r_above / s)


def _swap(R: list, j: int, zero) -> None:
    """Swap columns j-1 and j of R, rows of Python scalars, and restore its
    triangle: rotate rows j-1 and j from column j-1 on, set R[j][j-1] to
    zero, and multiply those row tails by conj(rii / |rii|)."""
    (m00, m01), (m10, m11) = _rotation(R[j - 1][j], R[j][j])
    for row in R:
        row[j - 1], row[j] = row[j], row[j - 1]
    top, bottom = R[j - 1], R[j]
    for c in range(j - 1, len(R)):
        x, y = top[c], bottom[c]
        top[c] = m00 * x + m01 * y
        bottom[c] = m10 * x + m11 * y
    bottom[j - 1] = zero
    for i, row in ((j - 1, top), (j, bottom)):
        rii = row[i]
        mag = abs(rii)
        if mag != 0.0:
            phase = (rii / mag).conjugate()
            row[j - 1 :] = [phase * v for v in row[j - 1 :]]


def _lll(B: np.ndarray, delta: float, ring: RingSpec | None):
    """LLL-reduce the columns of B over ring, or over Z when ring is None.

    Size reduction rounds each Gram-Schmidt ratio to the nearest ring
    element (the nearest integer over Z, ties toward the smaller one); a
    swap restores triangularity with _swap, a Givens rotation when B is
    real.  R is recomputed from B @ U every REFACTOR_EVERY swaps.  The loop
    ends when the Lovasz condition holds everywhere, or after 3n
    consecutive swaps that each leave the potential within STALL_RATIO of
    where it was.

    Returns (ua, ub, swaps, size_reductions, events, potential_ratios,
    stalled), with U = ua + xi*ub as in _sub_multiple (ub stays zero over Z).
    """
    n = B.shape[1]
    real = ring is None
    xi = 0.0 if real else ring.xi
    zero = 0.0 if real else 0j
    R = _r_positive(B).tolist()
    ua, ub = _identity_coords(n)

    swaps = size_reductions = 0
    events: list[str] = []
    pot_ratios: list[float] = []
    stalled = False
    stall_run = 0

    j = 1
    while j < n:
        for k in range(j - 1, -1, -1):
            mu = R[k][j] / R[k][k]
            if real:
                ca, cb = _round_half_down(mu), 0
            else:
                ca, cb = _quantize_pair(mu, ring)
            if ca or cb:
                c = ca + cb * xi
                for row in R[: k + 1]:
                    row[j] -= c * row[k]
                _sub_multiple(ua, ub, j, k, ca, cb, ring)
                size_reductions += 1
                events.append(f"size_reduction:{j}")
        diag2 = abs(R[j - 1][j - 1]) * abs(R[j - 1][j - 1])
        next2 = abs(R[j][j]) * abs(R[j][j]) + abs(R[j - 1][j]) * abs(R[j - 1][j])
        if delta * diag2 > next2:
            ratio = next2 / diag2
            pot_ratios.append(ratio)
            ua[j - 1], ua[j] = ua[j], ua[j - 1]
            ub[j - 1], ub[j] = ub[j], ub[j - 1]
            _swap(R, j, zero)
            swaps += 1
            events.append(f"swap:{j}")
            if swaps % REFACTOR_EVERY == 0:
                R = _r_positive(B @ _embed_coords(ua, ub, xi)).tolist()
            if ratio >= STALL_RATIO:
                stall_run += 1
                if stall_run >= 3 * n:
                    stalled = True
                    break
            else:
                stall_run = 0
            j = max(j - 1, 1)
        else:
            j += 1
    return ua, ub, swaps, size_reductions, events, pot_ratios, stalled
