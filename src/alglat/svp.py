"""Exact shortest-vector oracle via depth-first sphere decoding.

The complex basis is reduced over its ring first (a lattice-preserving
preprocessing step), then embedded into R^(2n) with the two real coordinates
of each ring coefficient kept adjacent, so the enumeration can exploit the
unit group: only one representative per orbit under multiplication by units
is visited (a quarter of the points for the Gaussian integers, a sixth for
the Eisenstein integers, half elsewhere).  One Schnorr-Euchner zig-zag
kernel serves both the shortest-vector search and the collection of every
point within a fixed radius.

The kernel runs on Python lists of floats and ints (R.tolist()): each of its
steps is one IEEE product, sum or division, or a floor, which Python rounds
exactly as numpy scalars do, at about a quarter of their cost per node.  The
winning levels map back to the original basis's coordinates through the
reduction's integer transform coordinates on (a, b) pairs; shortest_vector
builds the RingElem coefficient once, at the edge, and the CF designs keep
the pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattices import (
    ComplexBasis,
    _in_range,
    _pow2_normalized,
    _times_pow2,
    coeff_to_complex,
    embed,
)
from .reduction import ReductionReport, _quiet, _r_positive, _square, alll_reduce
from .rings import RingSpec, _pair_mul, units

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
    the search stopped (budget + 1); partial_radius is the shortest norm
    found by then (the fixed radius of a collecting search).
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
        return _square(self.norm)


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
    exceeded; points holds (squared norm, x) pairs in collect mode.  The
    levels best_x and x are lists of Python ints; R may be a numpy array,
    the kernel reads it as R.tolist().
    """
    m = len(R)
    R = R.tolist()
    x = [0] * m
    best_x = [int(v) for v in x_init]
    center = [0.0] * m
    pdist = [0.0] * m  # squared contribution of levels above i
    step = [0] * m
    constrained = [False] * m
    nzsuf = [0] * m  # nonzero count at levels > i
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
        constrained[i] = lo_active
        if lo_active:
            x[i] = lo
        else:
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
    init_level(i)
    cur_best2 = best2
    while True:
        nodes += 1
        if nodes > budget:
            return 1, best_x, cur_best2, nodes, points
        Ri = R[i]
        y = Ri[i] * (x[i] - center[i])
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
                Ri = R[i]
                acc = 0.0
                for k in range(i + 1, m):
                    acc += Ri[k] * x[k]
                center[i] = -acc / Ri[i]
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
    return _r_positive(embed(basis)[:, pair_order])


def _enumeration_frame(reduced: ComplexBasis) -> tuple:
    """(R, squared column norms, e) of a reduced basis for the enumeration.
    When a squared column norm is out of the normal float range, both are
    taken of the basis scaled by 2**-e (_pow2_normalized), so the search and
    its nodes do not depend on the scale; otherwise e = 0."""
    m, e = reduced.matrix, 0
    with np.errstate(over="ignore", under="ignore"):
        col_norms2 = np.sum(np.abs(m) ** 2, axis=0)
    if not all(_in_range(x) for x in col_norms2):
        m, e = _pow2_normalized(m)
        reduced = ComplexBasis._derived(m, reduced.ring)
        col_norms2 = np.sum(np.abs(m) ** 2, axis=0)
    return _enumeration_r(reduced), col_norms2, e


def _norm(basis: ComplexBasis, coeff) -> float:
    """||B c||, rescaled by a power of two when its square is out of the
    normal float range, so it is inf or 0 only when it is out of range
    itself."""
    v = basis.matrix @ coeff_to_complex(coeff)
    with np.errstate(over="ignore", under="ignore"):
        norm = float(np.linalg.norm(v))
        if not _in_range(norm * norm):
            v, e = _pow2_normalized(v)
            norm = _times_pow2(float(np.linalg.norm(v)), e)
    return norm


def _symmetry_mode(ring: RingSpec, use_symmetry: bool) -> int:
    if not use_symmetry:
        return 0
    return 2 if len(units(ring)) > 2 else 1


def _level_pairs(x) -> list:
    """Ring coordinates (a, b) from enumeration levels: level 2j holds the
    integer part of coordinate j, level 2j+1 its xi part."""
    return [(int(x[2 * j]), int(x[2 * j + 1])) for j in range(len(x) // 2)]


def _in_canonical_sector(a: int, b: int, n_units: int) -> bool:
    if b == 0:
        return a > 0
    if b < 0:
        return False
    return True if n_units == 2 else a >= 1


def _map_back(rep: ReductionReport, c: list) -> tuple:
    """The coefficient U @ c in the original basis's coordinates, scaled by
    the unit that puts its first nonzero entry in the canonical sector.

    U is the reduction's transform, read as its integer coordinates
    rep.coords, and c a list of (a, b) pairs; the result is a tuple of
    (a, b) pairs too.
    """
    ring = rep.reduced.ring
    s, t = ring.minpoly_coeffs
    ua, ub = rep.coords
    v = []
    for i in range(len(ua)):
        a = b = 0
        for j, q in enumerate(c):
            pa, pb = _pair_mul((ua[j][i], ub[j][i]), q, s, t)
            a, b = a + pa, b + pb
        v.append((a, b))
    first = next((p for p in v if p != (0, 0)), None)
    if first is not None:
        us = [(u.a, u.b) for u in units(ring)]
        for u in us:
            if _in_canonical_sector(*_pair_mul(u, first, s, t), len(us)):
                v = [_pair_mul(u, p, s, t) for p in v]
                break
    return tuple(v)


def _elems(ring: RingSpec, pairs) -> tuple:
    """The RingElem coefficient of a tuple of (a, b) pairs."""
    return tuple(ring.elem(a, b) for a, b in pairs)


def _svp(rep: ReductionReport, use_symmetry: bool = True, max_nodes: int = DEFAULT_NODE_BUDGET):
    """Shortest nonzero vector from the PREPROCESS_DELTA ALLL report of a
    basis: (unit-canonical coefficient in that basis's coordinates as a
    tuple of (a, b) pairs, enumerated nodes)."""
    reduced = rep.reduced
    ring = reduced.ring
    n = reduced.n
    if n > MAX_RANK:
        raise ValueError(f"rank {n} exceeds the enumeration limit of {MAX_RANK}")
    xbest, nodes = [1, 0], 0
    if n > 1:
        R, col_norms2, e = _enumeration_frame(reduced)
        jmin = int(np.argmin(col_norms2))
        x_init = [0] * (2 * n)
        x_init[2 * jmin] = 1
        best2 = float(col_norms2[jmin]) * (1.0 + 1e-9)

        mode = _symmetry_mode(ring, use_symmetry)
        status, xbest, reached2, nodes, _ = _enum_shortest(R, best2, mode, max_nodes, x_init, False)
        if status == 1:
            raise EnumerationBudgetError(max_nodes, nodes, _times_pow2(math.sqrt(reached2), e))
    return _map_back(rep, _level_pairs(xbest)), int(nodes)


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
    pairs, nodes = _svp(rep, use_symmetry, max_nodes)
    coeff = _elems(basis.ring, pairs)
    return SvpResult(coeff, _norm(basis, coeff), nodes)


def successive_minima_2d(basis: ComplexBasis, max_nodes: int = DEFAULT_NODE_BUDGET):
    """First two successive minima of a rank-2 lattice with witness vectors.

    One ALLL reduction and one enumeration: every vector up to the longer
    reduced basis vector (an upper bound for lambda2; a 1e-9 margin lists
    both reduced vectors) is listed by norm; lambda1 is the first, and
    lambda2 the first later one whose coefficient pair is ring-independent
    of it.  The enumeration raises EnumerationBudgetError past max_nodes.
    """
    if basis.n != 2:
        raise ValueError("successive_minima_2d needs a rank-2 basis")
    ring = basis.ring
    with _quiet():
        rep = alll_reduce(basis, delta=PREPROCESS_DELTA)
    R, col_norms2, e = _enumeration_frame(rep.reduced)
    radius2 = float(max(col_norms2))
    status, _, _, nodes, points = _enum_shortest(
        R, radius2 * (1 + 1e-9), _symmetry_mode(ring, True), max_nodes, [0] * 4, True
    )
    if status == 1:
        raise EnumerationBudgetError(max_nodes, nodes, _times_pow2(math.sqrt(radius2), e))
    # stable sort: of equal norms, the first listed is shortest_vector's
    # choice.  U is unimodular, so independence is tested before applying it.
    s, t = ring.minpoly_coeffs
    coeffs = (_level_pairs(x) for _, x in sorted(points, key=lambda p: p[0]))
    first = next(coeffs, None)
    second = next(
        (c for c in coeffs if _pair_mul(first[0], c[1], s, t) != _pair_mul(first[1], c[0], s, t)),
        None,
    )
    if second is None:
        raise RuntimeError("no independent second minimum found; basis may be degenerate")
    c1, c2 = (_elems(ring, _map_back(rep, c)) for c in (first, second))
    return _norm(basis, c1), _norm(basis, c2), (c1, c2)
