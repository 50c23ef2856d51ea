"""Exact shortest-vector oracle via depth-first sphere decoding.

The complex basis is reduced over its ring first (a lattice-preserving
preprocessing step), then embedded into R^(2n) with the two real coordinates
of each ring coefficient kept adjacent, so the enumeration can exploit the
unit group: only one representative per orbit under multiplication by units
is visited (a quarter of the points for the Gaussian integers, a sixth for
the Eisenstein integers, half elsewhere).  One Schnorr-Euchner zig-zag
kernel serves both the shortest-vector search and the collection of every
point within a fixed radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattices import ComplexBasis, coeff_to_complex, embed
from .reduction import ReductionReport, _quiet, _r_positive, alll_reduce
from .rings import RingElem, RingSpec, units

__all__ = [
    "SvpResult",
    "EnumerationBudgetError",
    "shortest_vector",
    "successive_minima_2d",
]

MAX_RANK = 8
#: delta of the ALLL reduction that preprocesses an enumeration
PREPROCESS_DELTA = 0.99
DEFAULT_NODE_BUDGET = 10**8


class EnumerationBudgetError(RuntimeError):
    """An enumeration visited more than its budget of nodes.

    budget is the max_nodes the caller set; nodes is the count visited when
    the search stopped (budget + 1).
    """

    def __init__(self, budget: int, nodes: int, partial_radius: float):
        super().__init__(
            f"enumeration budget of {budget} nodes exceeded after {nodes} nodes; "
            f"best radius so far {partial_radius:.6g}"
        )
        self.budget = budget
        self.nodes = nodes
        self.partial_radius = partial_radius


@dataclass(frozen=True)
class SvpResult:
    coefficient: tuple
    norm: float
    enumerated_nodes: int

    @property
    def norm_squared(self) -> float:
        return self.norm**2


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


def _enumeration_r(basis: ComplexBasis) -> np.ndarray:
    """R factor of the embedding with the two real columns of each ring
    coordinate adjacent: embed's columns in the order [0, n, 1, n+1, ...]."""
    pair_order = np.arange(2 * basis.n).reshape(2, basis.n).T.ravel()
    return np.ascontiguousarray(_r_positive(embed(basis)[:, pair_order]))


def _coeff_from_levels(x, ring: RingSpec) -> tuple:
    """Ring coefficients from enumeration levels (2j integer part, 2j+1 xi part)."""
    return tuple(ring.elem(int(x[2 * j]), int(x[2 * j + 1])) for j in range(len(x) // 2))


def _symmetry_mode(ring: RingSpec, use_symmetry: bool) -> int:
    if not use_symmetry:
        return 0
    return 2 if len(units(ring)) > 2 else 1


def _in_canonical_sector(e: RingElem, n_units: int) -> bool:
    if e.b == 0:
        return e.a > 0
    if e.b < 0:
        return False
    return True if n_units == 2 else e.a >= 1


def canonicalize_by_unit(coeff, ring: RingSpec):
    """Scale by the unit that puts the first nonzero entry in the canonical sector."""
    us = units(ring)
    first = next((e for e in coeff if not e.is_zero()), None)
    if first is None:
        return tuple(coeff)
    for u in us:
        if _in_canonical_sector(u * first, len(us)):
            return tuple(u * e for e in coeff)
    return tuple(coeff)


def _svp(rep: ReductionReport, use_symmetry: bool = True, max_nodes: int = DEFAULT_NODE_BUDGET):
    """Shortest nonzero vector from the PREPROCESS_DELTA ALLL report of a
    basis: (unit-canonical coefficient in that basis's coordinates, enumerated
    nodes)."""
    reduced = rep.reduced
    ring = reduced.ring
    n = reduced.n
    if n > MAX_RANK:
        raise ValueError(f"rank {n} exceeds the enumeration limit of {MAX_RANK}")
    coeff, nodes = (ring.one,), 0
    if n > 1:
        R = _enumeration_r(reduced)
        col_norms2 = np.sum(np.abs(reduced.matrix) ** 2, axis=0)
        jmin = int(np.argmin(col_norms2))
        x_init = np.zeros(2 * n, dtype=np.int64)
        x_init[2 * jmin] = 1
        best2 = float(col_norms2[jmin]) * (1.0 + 1e-9)

        mode = _symmetry_mode(ring, use_symmetry)
        status, xbest, _, nodes, _ = _enum_shortest(R, best2, mode, max_nodes, x_init, False)
        if status == 1:
            raise EnumerationBudgetError(max_nodes, nodes, math.sqrt(best2))
        coeff = _coeff_from_levels(xbest, ring)
    return canonicalize_by_unit(rep.transform @ coeff, ring), int(nodes)


def shortest_vector(
    basis: ComplexBasis,
    use_symmetry: bool = True,
    max_nodes: int = DEFAULT_NODE_BUDGET,
) -> SvpResult:
    """Globally shortest nonzero lattice vector, as a ring coefficient vector.

    The basis is ALLL-reduced first, which supplies the initial enumeration
    radius, so the search only has to certify (or beat) the reduced first
    vector.  The returned coefficient is the canonical representative of its
    unit orbit.
    """
    with _quiet():
        rep = alll_reduce(basis, delta=PREPROCESS_DELTA)
    coeff, nodes = _svp(rep, use_symmetry, max_nodes)
    norm = float(np.linalg.norm(basis.matrix @ coeff_to_complex(coeff)))
    return SvpResult(coeff, norm, nodes)


def successive_minima_2d(basis: ComplexBasis, max_nodes: int = DEFAULT_NODE_BUDGET):
    """First two successive minima of a rank-2 lattice with witness vectors.

    One ALLL reduction and one enumeration: every vector up to the longer
    reduced basis vector (always an upper bound for lambda2) is listed by
    norm; lambda1 is the first, and lambda2 the first later one whose
    coefficient pair is ring-independent of it.  The enumeration raises
    EnumerationBudgetError past max_nodes nodes.
    """
    if basis.n != 2:
        raise ValueError("successive_minima_2d needs a rank-2 basis")
    ring = basis.ring
    with _quiet():
        rep = alll_reduce(basis, delta=PREPROCESS_DELTA)
    R = _enumeration_r(rep.reduced)
    radius2 = float(max(np.sum(np.abs(rep.reduced.matrix) ** 2, axis=0)))

    mode = _symmetry_mode(ring, True)
    x_none = np.zeros(4, dtype=np.int64)
    for _ in range(6):
        status, _, _, nodes, points = _enum_shortest(
            R, radius2 * (1 + 1e-9), mode, max_nodes, x_none, True
        )
        if status == 1:
            raise EnumerationBudgetError(max_nodes, nodes, math.sqrt(radius2))
        # stable sort: of equal norms, the first listed is shortest_vector's
        # choice.  U is unimodular, so independence is tested before applying it.
        coeffs = (_coeff_from_levels(x, ring) for _, x in sorted(points, key=lambda p: p[0]))
        first = next(coeffs)
        second = next((c for c in coeffs if not (first[0] * c[1] - first[1] * c[0]).is_zero()), None)
        if second is not None:
            c1, c2 = (canonicalize_by_unit(rep.transform @ c, ring) for c in (first, second))
            l1, l2 = (float(np.linalg.norm(basis.matrix @ coeff_to_complex(c))) for c in (c1, c2))
            return l1, l2, (c1, c2)
        radius2 *= 1.5
    raise RuntimeError("no independent second minimum found; basis may be degenerate")
