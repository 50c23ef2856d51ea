"""The enumeration kernel as it was on numpy scalars, kept as a test oracle.

This is a verbatim copy of svp._enum_shortest from before the kernel moved
to Python lists and ints.  Nothing under src/ imports it;
tests/test_enum_reference.py checks that the library kernel returns the same
status, best levels, best squared norm and node count, and its collect mode
lists the points of oracles.successive_minima_2d_reference.
"""

from __future__ import annotations

import math

import numpy as np


def _enum_shortest(R, best2, mode, budget, x_init, collect):
    """Depth-first Schnorr-Euchner enumeration of the shortest nonzero vector.

    R: upper triangular with positive diagonal, m = 2 * (ring rank).
    mode: 0 no symmetry pruning, 1 sign symmetry, 2 four/six-fold symmetry.
    Level 2j holds the integer part of ring coordinate j, level 2j+1 the xi
    part; levels are decided from m-1 downward.  While every coordinate
    decided so far is zero, the current pair is restricted to one canonical
    sector of the unit-group action.

    With collect set, the radius stays at best2 and every nonzero point with
    squared norm below it is recorded instead (one per unit orbit when
    mode > 0), under the same pruning and node budget.

    Returns (status, best_x, best_norm2, nodes, points); status 1 = budget
    exceeded; points holds (squared norm, x) pairs in collect mode.
    """
    m = R.shape[0]
    x = np.zeros(m, dtype=np.int64)
    best_x = x_init.copy()
    center = np.zeros(m)
    pdist = np.zeros(m)  # squared contribution of levels above i
    step = np.zeros(m, dtype=np.int64)
    constrained = np.zeros(m, dtype=np.uint8)
    nzsuf = np.zeros(m, dtype=np.int64)  # nonzero count at levels > i
    nodes = 0
    points = []

    def init_level(i):
        lo_active = False
        lo = 0
        if mode > 0:
            if i % 2 == 1:  # xi-part of pair i//2
                if nzsuf[i] == 0:
                    lo_active = True
                    lo = 0
            else:  # integer part; its xi-part sits at level i+1
                pair_suffix_zero = nzsuf[i + 1] == 0 if i + 1 < m else True
                if pair_suffix_zero:
                    if x[i + 1] == 0:
                        lo_active = True
                        lo = 0
                    elif mode == 2:
                        lo_active = True
                        lo = 1
        if lo_active:
            constrained[i] = 1
            x[i] = lo
        else:
            constrained[i] = 0
            x0 = math.floor(center[i] + 0.5)
            x[i] = x0
            step[i] = 1 if center[i] >= x0 else -1

    def advance(i):
        if constrained[i]:
            x[i] += 1
        else:
            x[i] += step[i]
            step[i] = -step[i] - (1 if step[i] > 0 else -1)

    i = m - 1
    center[i] = 0.0
    nzsuf[i] = 0
    init_level(i)
    cur_best2 = best2
    while True:
        nodes += 1
        if nodes > budget:
            return 1, best_x, cur_best2, nodes, points
        y = R[i, i] * (x[i] - center[i])
        d = pdist[i] + y * y
        if d < cur_best2:
            if i == 0:
                if nzsuf[0] + (1 if x[0] != 0 else 0) > 0:
                    if collect:
                        points.append((d, x.copy()))
                    else:
                        cur_best2 = d
                        best_x[:] = x
                advance(0)
            else:
                nzsuf[i - 1] = nzsuf[i] + (1 if x[i] != 0 else 0)
                pdist[i - 1] = d
                i -= 1
                acc = 0.0
                for k in range(i + 1, m):
                    acc += R[i, k] * x[k]
                center[i] = -acc / R[i, i]
                init_level(i)
        else:
            # ascending-from-bound levels are only monotone past the center
            if constrained[i] and x[i] < center[i]:
                advance(i)
                continue
            i += 1
            if i == m:
                return 0, best_x, cur_best2, nodes, points
            advance(i)
