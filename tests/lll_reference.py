"""The LLL loop as it was before its skip bookkeeping, kept as a test oracle.

Over Z this is a verbatim copy of reduction._lll and of the helpers it then
used (_round_half_down, _phase_normalize, _r_positive), from before the loop
learned to skip Gram-Schmidt ratios that cannot have changed.  Over a ring
it is the same loop on the library's arithmetic: R as rows of Python
complex, the ratio, the size-reduction update and the Lovasz test as Python
complex operations, and reduction._swap_complex at a swap.  Nothing under
src/ imports it; tests/test_lll_reference.py checks that the library loop
returns the same (ua, ub, swaps, size_reductions, events, potential_ratios,
stalled).
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
    _swap_complex,
    quaternion_rotation,
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


def _lll(B: np.ndarray, delta: float, ring: RingSpec | None):
    """LLL-reduce the columns of B over ring, or over Z when ring is None.

    Size reduction rounds each Gram-Schmidt ratio to the nearest ring
    element (the nearest integer over Z, ties toward the smaller one); a
    swap restores triangularity with quaternion_rotation, a Givens rotation
    when B is real.  R is recomputed from B @ U every REFACTOR_EVERY swaps.
    The loop ends when the Lovasz condition holds everywhere, or after 3n
    consecutive swaps that each leave the potential within STALL_RATIO of
    where it was.

    Returns (ua, ub, swaps, size_reductions, events, potential_ratios,
    stalled), with U = ua + xi*ub as in _sub_multiple (ub stays zero over Z).
    """
    if ring is not None:
        return _lll_rows(B, delta, ring)
    n = B.shape[1]
    xi = 0.0 if ring is None else ring.xi
    R = _r_positive(B)
    ua, ub = _identity_coords(n)

    swaps = size_reductions = 0
    events: list[str] = []
    pot_ratios: list[float] = []
    stalled = False
    stall_run = 0

    j = 1
    while j < n:
        for k in range(j - 1, -1, -1):
            mu = R[k, j] / R[k, k]
            if ring is None:
                ca, cb = _round_half_down(mu), 0
            else:
                ca, cb = _quantize_pair(complex(mu), ring)
            if ca or cb:
                R[: k + 1, j] -= (ca + cb * xi) * R[: k + 1, k]
                _sub_multiple(ua, ub, j, k, ca, cb, ring)
                size_reductions += 1
                events.append(f"size_reduction:{j}")
        if delta * abs(R[j - 1, j - 1]) ** 2 > abs(R[j, j]) ** 2 + abs(R[j - 1, j]) ** 2:
            ratio = (abs(R[j - 1, j]) ** 2 + abs(R[j, j]) ** 2) / abs(R[j - 1, j - 1]) ** 2
            pot_ratios.append(ratio)
            M = quaternion_rotation(R[j - 1, j], R[j, j])
            R[:, [j - 1, j]] = R[:, [j, j - 1]]
            ua[j - 1], ua[j] = ua[j], ua[j - 1]
            ub[j - 1], ub[j] = ub[j], ub[j - 1]
            R[j - 1 : j + 1, :] = M @ R[j - 1 : j + 1, :]
            R[j, j - 1] = 0.0
            _phase_normalize(R, (j - 1, j))
            swaps += 1
            events.append(f"swap:{j}")
            if swaps % REFACTOR_EVERY == 0:
                R = _r_positive(B @ _embed_coords(ua, ub, xi))
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


def _lll_rows(B: np.ndarray, delta: float, ring: RingSpec):
    """_lll over a ring, with R held as rows of Python complex."""
    n = B.shape[1]
    xi = ring.xi
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
            ca, cb = _quantize_pair(R[k][j] / R[k][k], ring)
            if ca or cb:
                c = ca + cb * xi
                for row in R[: k + 1]:
                    row[j] -= c * row[k]
                _sub_multiple(ua, ub, j, k, ca, cb, ring)
                size_reductions += 1
                events.append(f"size_reduction:{j}")
        if delta * abs(R[j - 1][j - 1]) ** 2 > abs(R[j][j]) ** 2 + abs(R[j - 1][j]) ** 2:
            ratio = (abs(R[j][j]) ** 2 + abs(R[j - 1][j]) ** 2) / abs(R[j - 1][j - 1]) ** 2
            pot_ratios.append(ratio)
            ua[j - 1], ua[j] = ua[j], ua[j - 1]
            ub[j - 1], ub[j] = ub[j], ub[j - 1]
            _swap_complex(R, j, R[j - 1][j], R[j][j])
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
