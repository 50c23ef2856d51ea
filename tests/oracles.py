"""Test-side references and input generators that the library does not call.

Each is an independent construction that tests compare library results
against (the geometric covering radius, the ring rules and the embedding
by their closed forms in the ring's type, the RingElem determinant and
product, the adjugate inverse, the exact entries by nearest-point search,
the exact norms as a loop, Minkowski's bounds, the MAC rate floor, the
computation rate one vector at a time, the rate denominator in exact
rationals, one relay's design alone, the rank-2 successive minima from a
list of every point, the trial generators as numpy spawns them) or a
generator of test inputs (random unimodular matrices and CN(0,1) bases).
Nothing under src/ imports this module."""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

import numpy as np

import enum_reference
from alglat.cf import STRATEGY_ALIASES, Channel, _embed_pairs, _rates, cf_basis
from alglat.lattices import _EXACT_TOL, ComplexBasis, RingMatrix, _times_pow2, embed
from alglat.reduction import _quiet, alll_reduce, real_lll, reduction_epsilon
from alglat.svp import (
    DEFAULT_NODE_BUDGET,
    PREPROCESS_DELTA,
    EnumerationBudgetError,
    _elems,
    _enumeration_frame,
    _level_pairs,
    _map_back,
    _norm,
    _svp,
    _symmetry_mode,
)
from alglat.rings import RingElem, RingKind, RingSpec, _pair_det, _quantize_pair, quantize, units

#: Hermite's constants for real lattices of dimension 2, 4, 6, 8.  Only the
#: dimension-4 value is forced by the quality bounds here; the others are the
#: standard tabulated constants.
HERMITE_CONSTANTS = {
    2: 2.0 / math.sqrt(3.0),
    4: math.sqrt(2.0),
    6: (64.0 / 3.0) ** (1.0 / 6.0),
    8: 2.0,
}


def hermite_constant_2n(n: int) -> float | None:
    """gamma_{2n} for complex rank n, or None when outside the table."""
    return HERMITE_CONSTANTS.get(2 * n)


def random_basis(ring: RingSpec, n: int, rng) -> ComplexBasis:
    """A basis with i.i.d. CN(0,1) entries."""
    m = math.sqrt(0.5) * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return ComplexBasis(m, ring)


# ---------------------------------------------------------------------------
# rings


def covering_radius_geometric(ring: RingSpec) -> float:
    """Covering radius computed from the Voronoi geometry of the embedded ring.

    Type I: half-diagonal of the rectangular cell spanned by 1 and sqrt(-d).
    Type II: circumradius of the triangle (0, 1, xi), whose circumcenter is the
    deep hole of the triangular-ish cell.  Serves as an independent check of
    the closed forms in :attr:`RingSpec.covering_radius`.
    """
    root = math.sqrt(ring.d)
    if ring.kind is RingKind.TYPE_I:
        return math.hypot(0.5, root / 2.0)
    v1 = complex(1.0, 0.0)
    v2 = ring.xi
    a = abs(v1)
    b = abs(v2)
    c = abs(v2 - v1)
    area = abs(v1.real * v2.imag - v1.imag * v2.real) / 2.0
    return a * b * c / (4.0 * area)


def norm_euclidean_sup_distance(ring: RingSpec, grid: int = 400) -> float:
    """Numeric sup of |x - Q(x)| over a grid covering a fundamental cell.

    The ring is norm-Euclidean iff this sup is < 1.
    """
    root = math.sqrt(ring.d)
    height = root if ring.kind is RingKind.TYPE_I else root / 2.0
    worst = 0.0
    for i in range(grid + 1):
        re = i / grid
        for j in range(grid + 1):
            im = height * j / grid
            x = complex(re, im)
            dist = abs(x - quantize(x, ring).embed())
            if dist > worst:
                worst = dist
    return worst


def kind_reference(d: int) -> RingKind:
    """The type of the ring of d: type II exactly when -d = 1 (mod 4)."""
    return RingKind.TYPE_II if (-d) % 4 == 1 else RingKind.TYPE_I


def ring_rules_reference(d: int) -> tuple:
    """(kind, det_phi, norm_form) of the ring of d, each by its closed form
    in the ring's type rather than derived from xi."""
    root = math.sqrt(d)
    if kind_reference(d) is RingKind.TYPE_I:
        return RingKind.TYPE_I, root, (0, d)
    return RingKind.TYPE_II, root / 2.0, (1, (1 + d) // 4)


def conj_reference(d: int, a: int, b: int) -> tuple:
    """(a, b) coordinates of conj(a + b*xi) in the ring of d: conj(xi) is
    -xi for type I and 1 - xi for type II."""
    if kind_reference(d) is RingKind.TYPE_I:
        return a, -b
    return a + b, -b


def embed_reference(basis: ComplexBasis) -> np.ndarray:
    """The real generator matrix [Re B, Re(xi B); Im B, Im(xi B)], with the
    xi-columns written out in closed form for each ring type."""
    B = basis.matrix
    re, im = B.real, B.imag
    root = math.sqrt(basis.ring.d)
    if kind_reference(basis.ring.d) is RingKind.TYPE_I:
        top = np.hstack([re, -root * im])
        bot = np.hstack([im, root * re])
    else:
        top = np.hstack([re, 0.5 * re - (root / 2.0) * im])
        bot = np.hstack([im, 0.5 * im + (root / 2.0) * re])
    return np.vstack([top, bot])


# ---------------------------------------------------------------------------
# exact matrices over the ring


def identity_matrix(n: int, ring: RingSpec) -> RingMatrix:
    return RingMatrix(
        tuple(tuple(ring.elem(1 if i == j else 0) for j in range(n)) for i in range(n)),
        ring,
    )


def ring_det_reference(m: RingMatrix) -> RingElem:
    """Bareiss fraction-free elimination on RingElem entries; all divisions
    are exact in the ring.  The library's determinant before it ran on
    (a, b) pairs (rings._pair_det), kept as its independent reference."""
    n = m.n
    ring = m.ring
    a = [list(row) for row in m.entries]
    sign = 1
    prev = ring.one
    for k in range(n - 1):
        if a[k][k].is_zero():
            pivot_row = next(
                (i for i in range(k + 1, n) if not a[i][k].is_zero()), None
            )
            if pivot_row is None:
                return ring.zero
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = num.divide_exact(prev)
            a[i][k] = ring.zero
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return det if sign == 1 else -det


def matmul_reference(x: RingMatrix, y: RingMatrix) -> RingMatrix:
    """x @ y as a triple loop of RingElem products and sums."""
    n = x.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = x.ring.zero
            for k in range(n):
                acc = acc + x.entries[i][k] * y.entries[k][j]
            row.append(acc)
        rows.append(tuple(row))
    return RingMatrix(tuple(rows), x.ring)


def minor(m: RingMatrix, drop_row: int, drop_col: int) -> RingMatrix:
    """m without one row and one column; the 1x1 matrix [1] when m is 1x1."""
    rows = [
        tuple(m.entries[i][j] for j in range(m.n) if j != drop_col)
        for i in range(m.n)
        if i != drop_row
    ]
    if not rows:
        return RingMatrix(((m.ring.one,),), m.ring)
    return RingMatrix(tuple(rows), m.ring)


def inverse_unimodular(m: RingMatrix) -> RingMatrix:
    """Exact inverse adj(m) / det(m), valid when the determinant is a unit."""
    d = m.det()
    if d.norm() != 1:
        raise ValueError("matrix is not unimodular")
    # det is a unit so dividing is multiplying by d^-1, and d^-1 = conj(d)
    # when Nr(d) = 1
    dinv = d.conj()
    rows = []
    for i in range(m.n):
        row = []
        for j in range(m.n):
            sign = 1 if (i + j) % 2 == 0 else -1
            row.append(minor(m, j, i).det() * dinv * sign)
        rows.append(tuple(row))
    return RingMatrix(tuple(rows), m.ring)


def random_unimodular(ring: RingSpec, n: int, rng, ops: int = 12) -> RingMatrix:
    """Random unimodular matrix from elementary column operations."""
    cols = [list(col) for col in identity_matrix(n, ring).columns()]
    us = units(ring)
    for _ in range(ops):
        kind = rng.integers(0, 3)
        j = int(rng.integers(0, n))
        if kind == 0 and n > 1:
            k = int(rng.integers(0, n - 1))
            k = k if k < j else k + 1
            c = ring.elem(int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
            cols[j] = [cols[j][i] + c * cols[k][i] for i in range(n)]
        elif kind == 1:
            u = us[int(rng.integers(0, len(us)))]
            cols[j] = [u * cols[j][i] for i in range(n)]
        else:
            k = int(rng.integers(0, n))
            cols[j], cols[k] = cols[k], cols[j]
    return RingMatrix.from_columns([tuple(c) for c in cols], ring)


def exact_pairs_reference(basis: ComplexBasis) -> list | None:
    """ComplexBasis._exact_pairs as it was before it decoded entries in closed
    form: the body is a verbatim copy (with self renamed basis) that asks the
    nearest-point quantizer for each entry's ring element, then applies the
    same _EXACT_TOL test."""
    xi = basis.ring.xi
    tol = _EXACT_TOL * min(1.0, float(np.max(np.abs(basis.matrix))))
    rows = []
    for entries in basis.matrix.tolist():
        row = []
        for z in entries:
            a, b = _quantize_pair(z, basis.ring)
            if abs(z - (complex(a) + b * xi)) > tol:
                return None
            row.append((a, b))
        rows.append(row)
    return rows


def exact_norms_squared_loop(basis: ComplexBasis, ua, ub) -> list | None:
    """Column norms of basis @ U as exact integers when the input has exact
    ring entries: reduction._exact_norms_squared as it was before its object
    array products, four generator sums per entry."""
    exact = basis._exact_pairs()
    if exact is None:
        return None
    s, t = basis.ring.minpoly_coeffs
    p, q = basis.ring.norm_form
    rows = [([a for a, _ in row], [b for _, b in row]) for row in exact]
    norms = []
    for a2, b2 in zip(ua, ub):
        total = 0
        for a1, b1 in rows:
            # (a1 + b1 xi)(a2 + b2 xi) = a1 a2 + t b1 b2 + (a1 b2 + b1 a2 + s b1 b2) xi
            bb = sum(x * y for x, y in zip(b1, b2))
            a = sum(x * y for x, y in zip(a1, a2)) + t * bb
            b = sum(x * y for x, y in zip(a1, b2)) + sum(x * y for x, y in zip(b1, a2)) + s * bb
            total += a * a + p * a * b + q * b * b
        norms.append(total)
    return norms


# ---------------------------------------------------------------------------
# lattice and rate bounds


def minkowski_check(basis: ComplexBasis, minima) -> dict:
    """Check the first/second-minimum bounds against the gamma table.

    Returns a report dict; for n > 4 the bounds are skipped (no exact
    gamma_{2n} in the table) with a warning entry.
    """
    n = basis.n
    gamma = hermite_constant_2n(n)
    report: dict = {"n": n, "gamma_2n": gamma, "skipped": gamma is None}
    if gamma is None:
        warnings.warn(f"no tabulated Hermite constant for dimension {2 * n}; bounds skipped")
        return report
    absdet = abs(np.linalg.det(basis.matrix))
    d_phi = basis.ring.det_phi
    first_bound = gamma * d_phi * absdet ** (2.0 / n)
    report["first_ok"] = minima[0] ** 2 <= first_bound + 1e-9
    report["first_lhs"] = minima[0] ** 2
    report["first_bound"] = first_bound
    prod_sq = float(np.prod([m**2 for m in minima]))
    # pad the product bound when fewer than n minima are supplied
    k = len(minima)
    second_bound = gamma**n * d_phi**n * absdet**2
    if k < n:
        # lambda_j >= lambda_1 for the missing terms would only weaken the
        # left side, so check the partial product against the full bound
        report["partial"] = True
    report["second_ok"] = prod_sq <= second_bound + 1e-9
    report["second_lhs"] = prod_sq
    report["second_bound"] = second_bound
    report["ok"] = bool(report["first_ok"] and report["second_ok"])
    return report


def mac_rate_floor(ring: RingSpec, ch: Channel, delta: float = 0.99) -> float:
    """Lower bound on the best rate: the per-user MAC capacity share minus the
    ring- and reduction-dependent constant."""
    n = ch.n
    eps = reduction_epsilon(ring, delta)
    gamma = hermite_constant_2n(n)
    if gamma is None or eps <= 0:
        raise ValueError("no bound available for this ring/dimension")
    cap = max(0.0, math.log2(1.0 + ch.p * float(np.linalg.norm(ch.h)) ** 2)) / n
    penalty = max(0.0, math.log2(eps ** (-(n - 1)) * gamma * ring.det_phi))
    return cap - penalty


def rate_reference(ch: Channel, a: np.ndarray) -> float:
    """log2+(1 / ||B a||^2) of one complex vector a on the channel's basis B."""
    y = ch._basis @ a
    den = float(np.real(y.conj() @ y))
    if den <= 0:
        raise ValueError(f"rate denominator must be positive, got {den}")
    return max(0.0, math.log2(1.0 / den))


def design_relays_reference(ch: Channel, ring: RingSpec, strategies, delta: float = 0.99) -> dict:
    """One relay designed alone, strategy by strategy, as design_relays did
    before a trial's relays were designed as one stack: {strategy: (pairs,
    rates, swaps, first_norm)}, sorted by descending rate.

    It reduces cf_basis(ch, ring) with one alll_reduce per distinct delta
    (PREPROCESS_DELTA for svp), runs real LLL on its 2-D embedding
    (real_lll) and the enumeration on the ALLL report (_svp on a list of
    one), rates each strategy's candidates in a _rates pass of their own on
    the channel's basis, and takes first_norm as ||B a|| of the best
    candidate, a 2-D matrix-vector product.
    """
    basis = cf_basis(ch, ring)
    n = ch.n
    reductions = {}

    def reduced_at(dl: float):
        if dl not in reductions:
            with _quiet():
                reductions[dl] = alll_reduce(basis, delta=dl)
        return reductions[dl]

    parts = {}
    for c in dict.fromkeys(STRATEGY_ALIASES.get(s, s) for s in strategies):
        swaps = 0
        if c == "alll":
            rep = reduced_at(delta)
            cands = [tuple(zip(a, b)) for a, b in zip(*rep.coords)]
            swaps = rep.swaps
        elif c == "rlll":
            _, T, swaps = real_lll(embed(basis), delta)
            cands = [tuple(zip(col[:n], col[n:])) for col in T.T.tolist()]
        else:
            cands = [_svp([reduced_at(PREPROCESS_DELTA)])[0][0]]
        U = _embed_pairs(cands, ring.xi)
        rates = _rates(ch._basis, U)[0]
        order = sorted(range(len(cands)), key=lambda i: -rates[i])
        first_norm = float(np.linalg.norm(basis.matrix @ U[order[0]]))
        parts[c] = [cands[i] for i in order], [rates[i] for i in order], swaps, first_norm
    return {s: parts[STRATEGY_ALIASES.get(s, s)] for s in strategies}


def rate_denominator_exact(h, p: float, a) -> Fraction:
    """(||a||^2 + P sum_{i<j} |h_i a_j - h_j a_i|^2) / (1 + P ||h||^2), the
    rate denominator a^H (I + P h h^H)^-1 a by Sherman-Morrison and the
    Lagrange identity, in exact rationals: each float of h, p and the complex
    vector a is taken as the rational it is."""
    hs = [(Fraction(z.real), Fraction(z.imag)) for z in map(complex, h)]
    As = [(Fraction(z.real), Fraction(z.imag)) for z in map(complex, a)]
    P = Fraction(p)
    cross = Fraction(0)
    for i in range(len(hs)):
        for j in range(i + 1, len(hs)):
            (hr, hi), (ar, ai) = hs[i], As[j]
            (gr, gi), (br, bi) = hs[j], As[i]
            re = hr * ar - hi * ai - (gr * br - gi * bi)
            im = hr * ai + hi * ar - (gr * bi + gi * br)
            cross += re * re + im * im
    a2 = sum(x * x + y * y for x, y in As)
    h2 = sum(x * x + y * y for x, y in hs)
    return (a2 + P * cross) / (1 + P * h2)


def successive_minima_2d_reference(basis: ComplexBasis, max_nodes: int = DEFAULT_NODE_BUDGET):
    """svp.successive_minima_2d as it was when it listed every point: one
    ALLL reduction and one enumeration in the collect mode of
    tests/enum_reference.py.  Every vector up to the longer reduced basis
    vector (an upper bound for lambda2; a 1e-9 margin lists both reduced
    vectors) is listed by norm; lambda1 is the first, and lambda2 the first
    later one whose coefficient pair is ring-independent of it."""
    if basis.n != 2:
        raise ValueError("successive_minima_2d needs a rank-2 basis")
    ring = basis.ring
    with _quiet():
        rep = alll_reduce(basis, delta=PREPROCESS_DELTA)
    R, col_norms2, e = (f[0] for f in _enumeration_frame(rep.reduced.matrix[None], ring.xi))
    radius2 = float(max(col_norms2))
    status, _, _, nodes, points = enum_reference._enum_shortest(
        R, radius2 * (1 + 1e-9), _symmetry_mode(ring, True), max_nodes, np.zeros(4, np.int64), True
    )
    if status == 1:
        raise EnumerationBudgetError(max_nodes, nodes, _times_pow2(math.sqrt(radius2), e))
    # stable sort: of equal norms, the first listed is shortest_vector's
    # choice.  U is unimodular, so independence is tested before applying it.
    coeffs = (_level_pairs(x) for _, x in sorted(points, key=lambda p: p[0]))
    first = next(coeffs, None)
    second = next((c for c in coeffs if _pair_det((first, c), ring) != (0, 0)), None)
    if second is None:
        raise RuntimeError("no independent second minimum found; basis may be degenerate")
    c1, c2 = (_elems(ring, _map_back(rep.coords, ring, c)) for c in (first, second))
    return _norm(basis, c1), _norm(basis, c2), (c1, c2)


# ---------------------------------------------------------------------------
# experiments


def trial_rng_reference(seed: int, index: int) -> np.random.Generator:
    """Generator of trial `index`: child `index` of SeedSequence(seed)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
