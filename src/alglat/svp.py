"""Exact shortest-vector oracle via depth-first sphere decoding.

The complex basis is reduced over its ring first (a lattice-preserving
preprocessing step), then embedded into R^(2n) with the two real coordinates
of each ring coefficient kept adjacent, so the enumeration can exploit the
unit group: only one representative per orbit under multiplication by units
is visited (a quarter of the points for the Gaussian integers, a sixth for
the Eisenstein integers, half elsewhere).  One Schnorr-Euchner zig-zag
search serves every enumeration: the shortest vector, and the rank-2
second minimum as the shortest vector ring-independent of the first, a
search that skips the zero top pair when the first minimum's top pair is
zero.

The shortest vector has one entry, _svp, which takes a list of ALLL
reports of one ring and rank: one enumeration frame for the stack of their
reduced bases (none at rank 1), then one search per report.
shortest_vector calls it on a list of one, and the CF svp design on the
reports of a trial's relays.

The kernel runs on Python lists of floats and ints (R.tolist()): each of its
steps is one IEEE product, sum or division, or a floor, which Python rounds
exactly as numpy scalars do, at about a quarter of their cost per node.  The
winning levels map back to the original basis's coordinates through the
reduction's integer transform coordinates on (a, b) pairs; shortest_vector
and successive_minima_2d build the RingElem coefficients once, at the edge,
and the CF designs keep the pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattices import (
    ComplexBasis,
    _embed,
    _pow2_normalized,
    _times_pow2,
    coeff_to_complex,
)
from .reduction import _quiet, _r_positive, _square, alll_reduce
from .rings import RingSpec, _pair_det, _pair_mul, units

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
    the search stopped (budget + 1); partial_radius is the radius the
    stopping search had shrunk to by then.
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


def _enum_shortest(R, best2, mode, budget, x_init, accept=None, nonzero_top=False):
    """Depth-first Schnorr-Euchner enumeration of the shortest nonzero vector.

    R: upper triangular with positive diagonal, m = 2 * (ring rank).
    mode: 0 no symmetry pruning, 1 sign symmetry, 2 four/six-fold symmetry.
    Level 2j holds the integer part of ring coordinate j, level 2j+1 the xi
    part; levels are decided from m-1 downward.  While every coordinate
    decided so far is zero, the current pair is restricted to one canonical
    sector of the unit-group action.

    With accept given, a nonzero leaf x within the radius counts only if
    accept(x) is true.  Each leaf that counts shrinks the radius to its
    squared norm, so of equal norms the first visited stays.  With
    nonzero_top (mode > 0 only), the top pair is never zero: level m-2
    starts at 1 where level m-1 is 0, which drops only the subtree of a
    zero top pair and visits the rest in the same order.

    Returns (status, best_x, best_norm2, nodes); status 1 = budget
    exceeded.  The levels best_x and x are lists of Python ints; R may be a
    numpy array, the kernel reads it as R.tolist().
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
    top_lo = 1 if nonzero_top else 0

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
                        lo = top_lo if i == m - 2 else 0
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
            return 1, best_x, cur_best2, nodes
        Ri = R[i]
        y = Ri[i] * (x[i] - center[i])
        d = pdist[i] + y * y
        if d < cur_best2:
            if i == 0:
                if nzsuf[0] + (1 if x[0] != 0 else 0) > 0 and (accept is None or accept(x)):
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
            # a constrained level starts at its bound, at or past its center
            # (0, or -Re(xi) * x[i+1] <= 0 < 1), so ascending only moves it
            # further out: the level is done, as an unconstrained one is
            i += 1
            if i == m:
                return 0, best_x, cur_best2, nodes
            advance(i)


def _enumeration_r(B: np.ndarray, xi: complex) -> np.ndarray:
    """R factor of the embedding of each matrix of a complex (..., n, n)
    stack B over the ring of xi, with the two real columns of each ring
    coordinate adjacent: embed's columns in the order [0, n, 1, n+1, ...]."""
    n = B.shape[-1]
    pair_order = np.arange(2 * n).reshape(2, n).T.ravel()
    return _r_positive(_embed(B, xi)[..., pair_order])


def _enumeration_frame(reduced: np.ndarray, xi: complex) -> tuple:
    """(R, squared column norms, e) of each matrix of an (N, n, n) stack of
    reduced bases over the ring of xi, for the enumeration: two stacks of
    N and a list of N ints.  R and the norms are taken of each basis scaled by
    the power of two 2**-e that normalizes it (_pow2_normalized), so the
    search and its nodes do not depend on the scale and no square
    overflows or underflows."""
    m, e = _pow2_normalized(reduced)
    col_norms2 = np.sum(np.abs(m) ** 2, axis=-2)
    return _enumeration_r(m, xi), col_norms2, e


def _norm(basis: ComplexBasis, coeff) -> float:
    """||B c||, taken of B c scaled by the power of two 2**-e that
    normalizes it (_pow2_normalized) and scaled back by 2**e in Python
    floats, so it is inf or 0 only when it is out of range itself."""
    v, e = _pow2_normalized(basis.matrix @ coeff_to_complex(coeff))
    return _times_pow2(float(np.linalg.norm(v)), e)


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


def _map_back(coords, ring: RingSpec, c: list) -> tuple:
    """The coefficient U @ c in the original basis's coordinates, scaled by
    the unit that puts its first nonzero entry in the canonical sector.

    U is a reduction's transform, given as its integer coordinates
    coords = (ua, ub) (ReductionReport.coords), and c a list of (a, b)
    pairs; the result is a tuple of (a, b) pairs too.
    """
    s, t = ring.minpoly_coeffs
    ua, ub = coords
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


def _check_rank(n: int) -> None:
    """Refuse a rank the enumeration does not run at."""
    if n > MAX_RANK:
        raise ValueError(f"rank {n} exceeds the enumeration limit of {MAX_RANK}")


def _search(
    frame, ring: RingSpec, use_symmetry: bool, max_nodes: int, accept=None, nonzero_top=False
) -> tuple:
    """The shortest nonzero vector that accept counts (all if it is None)
    of one reduced basis, from its enumeration frame (R, squared column
    norms, e), one entry of _enumeration_frame's stacks, or None at rank 1:
    (its reduced coordinates as a list of (a, b) pairs, enumerated nodes).
    With nonzero_top (and use_symmetry), only vectors whose top reduced
    pair is nonzero count (_enum_shortest).  The radius starts just above
    the shortest reduced column that counts."""
    x, nodes = [1, 0], 0
    if frame is not None:
        R, col_norms2, e = frame
        norms2 = col_norms2.tolist()
        for j in sorted(range(len(norms2)), key=norms2.__getitem__):
            x = [0] * len(R)
            x[2 * j] = 1
            if (accept is None or accept(x)) and (x[-2] or not nonzero_top):
                break
        best2 = norms2[j] * (1.0 + 1e-9)
        mode = _symmetry_mode(ring, use_symmetry)
        status, x, reached2, nodes = _enum_shortest(R, best2, mode, max_nodes, x, accept, nonzero_top)
        if status == 1:
            raise EnumerationBudgetError(max_nodes, nodes, _times_pow2(math.sqrt(reached2), e))
    return _level_pairs(x), int(nodes)


def _svp(reps: list, use_symmetry: bool = True, max_nodes: int = DEFAULT_NODE_BUDGET) -> list:
    """Shortest nonzero vector of each basis from its PREPROCESS_DELTA ALLL
    report, for a list of reports of one ring and rank: per report, (the
    unit-canonical coefficient in that basis's coordinates as a tuple of
    (a, b) pairs, enumerated nodes).  One enumeration frame serves the
    stack of reduced bases (none at rank 1), then _search runs on each
    basis and its result is mapped back through that reduction's
    transform.  Each report gets what it gets alone."""
    reduced = reps[0].reduced
    ring = reduced.ring
    _check_rank(reduced.n)
    frames = [None] * len(reps)
    if reduced.n > 1:
        frames = zip(*_enumeration_frame(np.stack([rep.reduced.matrix for rep in reps]), ring.xi))
    out = []
    for rep, frame in zip(reps, frames):
        pairs, nodes = _search(frame, ring, use_symmetry, max_nodes)
        out.append((_map_back(rep.coords, ring, pairs), nodes))
    return out


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
    ((pairs, nodes),) = _svp([rep], use_symmetry, max_nodes)
    coeff = _elems(basis.ring, pairs)
    return SvpResult(coeff, _norm(basis, coeff), nodes)


def successive_minima_2d(basis: ComplexBasis, max_nodes: int = DEFAULT_NODE_BUDGET):
    """First two successive minima of a rank-2 lattice with witness vectors.

    One ALLL reduction and two searches (_search) on its enumeration frame:
    the first finds lambda1 as shortest_vector does, the second the shortest
    vector ring-independent of that witness.  In reduced coordinates, a
    witness (c, 0) makes a point independent exactly when its top pair is
    nonzero (det = c * x2), so that search only skips the zero top pair
    (nonzero_top) and tests no leaf; a witness with a nonzero top pair has
    each leaf tested.  Of equal norms, the first visited is the witness.
    max_nodes bounds both searches together; past it they raise
    EnumerationBudgetError.
    """
    if basis.n != 2:
        raise ValueError("successive_minima_2d needs a rank-2 basis")
    ring = basis.ring
    with _quiet():
        rep = alll_reduce(basis, delta=PREPROCESS_DELTA)
    frame = [f[0] for f in _enumeration_frame(rep.reduced.matrix[None], ring.xi)]
    first, nodes = _search(frame, ring, True, max_nodes)

    def independent(x):  # on reduced coordinates: U is unimodular
        return _pair_det((first, _level_pairs(x)), ring) != (0, 0)

    top_zero = first[-1] == (0, 0)
    accept = None if top_zero else independent
    try:
        second, _ = _search(frame, ring, True, max_nodes - nodes, accept, top_zero)
    except EnumerationBudgetError as err:
        raise EnumerationBudgetError(max_nodes, max_nodes + 1, err.partial_radius) from None
    c1, c2 = (_elems(ring, _map_back(rep.coords, ring, c)) for c in (first, second))
    return _norm(basis, c1), _norm(basis, c2), (c1, c2)
