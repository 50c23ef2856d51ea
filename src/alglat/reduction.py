"""Basis reduction: algebraic Gauss, and one LLL loop for algebraic and real LLL.

The algebraic algorithms quantize Gram-Schmidt coefficients to the ring and
keep the unimodular transform exact, as two integer coordinate arrays
U = A + xi*B.  Gauss reduction updates them as lists of Python ints; the
LLL loop holds each column of A and of B packed into one Python int
(Kronecker substitution), so its transform update is a few big-int products
whatever the rank, and it unpacks them to lists at each refactor and at its
return.  Only the R factor is maintained incrementally: its structure is
restored after each column swap by a 2x2 unitary rotation (the matrix form
of a quaternion), and it is recomputed from the input basis and the exact
transform every REFACTOR_EVERY swaps.

There is one LLL loop, _lll.  alll_reduce runs it over the basis's ring;
real_lll runs it over Z (covering radius 1/2), where the nearest ring element
is the nearest integer, xi is 0, R stays real and the rotation is a Givens
rotation.  real_lll returns matrix @ T, the rule alll_reduce follows too:
the reduced basis is the input times the exact transform.

The loop skips a Gram-Schmidt ratio R[k, j] / R[k, k] that rounded to 0 when
neither row k nor column j of R has been written since; it would read the
same two floats again, so every output is bit for bit that of rounding
every ratio on every pass.

The loop holds R by columns, as lists of Python floats over Z and of
Python complex over a ring, so between refactors it makes no numpy call in
either field.  The ratio and its rounding, the size-reduction update (one
list comprehension over the head of a column), the Lovasz test and the
swap (two column references exchanged, the rotation entries applied as
m00*x + m01*y, the phase fix) are Python arithmetic, at a fraction of a
numpy scalar's cost, and round the same whatever numpy's SIMD dispatch or
BLAS kernel.  Over Z a BLAS matmul would round the rotation with fused
multiply-adds (19574 of 20000 random 2x2 @ 2x8 products differ from
a*x + b*y), and Python's complex division and multiply do not round as
numpy's SIMD loops do (about 43% of random pairs differ), so the loop
agrees with a numpy R up to the last bits, and where a ratio sits on a
rounding tie may take the other nearest element.  The refactor is numpy's
QR of B @ U in both fields.

A ReductionReport keeps the transform as the loop's integer coordinates,
as lists.
Its RingMatrix transform, its event strings and alll_reduce's quality-bound
checks are built on their first read, so wall_time covers the reduction
only and callers that never read them (the CF designs, the SVP oracle)
never pay for them.  The checks keep their verdicts when the basis is
rescaled: a determinant, norm or norm product outside the normal float
range is taken of the basis scaled by a power of two, and the tolerance is
relative.  The loop itself runs on the basis scaled so when the squares of
its R would leave the float range.
"""

from __future__ import annotations

import contextvars
import functools
import math
import struct
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .lattices import (
    MAX_CONDITION,
    ComplexBasis,
    RingMatrix,
    _finite,
    _in_range,
    _pow2_normalized,
    _times_pow2,
    orthogonality_defect,
)
from .rings import RingSpec, _quantize_pairs, _quantizer, quantize  # noqa: F401  (perfbench traces and checks alglat.reduction.quantize)

__all__ = [
    "BoundCheck",
    "ReductionReport",
    "NonEuclideanRingWarning",
    "gauss_reduce",
    "alll_reduce",
    "real_lll",
    "quaternion_rotation",
    "potential",
    "decoding_radius",
    "decoding_radius_bound",
]

GAUSS_ITER_FACTOR = 64
REFACTOR_EVERY = 100
#: bits per entry of the transform columns that _lll packs into one int each,
#: at the start of a call; _lll widens them before an entry could reach
#: 2**(_PACK_WIDTH - 1)
_PACK_WIDTH = 64
STALL_RATIO = 1.0 - 1e-12
#: the range of |R_jj| in which _lll runs on B as given, and of the column
#: norms with which _gauss_batch does: squares stay far inside the normal
#: float range
_R_LOW, _R_HIGH = 2.0**-256, 2.0**256


class NonEuclideanRingWarning(UserWarning):
    """Reduction over a ring whose quality guarantees do not apply."""


#: True inside _quiet(); per thread and task, unlike a warnings filter
_QUIET = contextvars.ContextVar("alglat_quiet_non_euclidean", default=False)


@contextmanager
def _quiet():
    """Silence NonEuclideanRingWarning for reductions run in this context only."""
    token = _QUIET.set(True)
    try:
        yield
    finally:
        _QUIET.reset(token)


def _warn_non_euclidean(warns: list, message: str) -> None:
    """Record message in a report; warn the reduction's caller unless _quiet()."""
    warns.append(message)
    if not _QUIET.get():
        warnings.warn(message, NonEuclideanRingWarning, stacklevel=3)


@dataclass
class BoundCheck:
    name: str
    lhs: float
    rhs: float
    passed: bool
    skipped: bool = False
    note: str = ""

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "passed": self.passed,
            "skipped": self.skipped,
            "slack": self.slack,
            "note": self.note,
        }


#: the default of a _BuiltOnRead field: not given, so built on first read
_UNBUILT = object()


class _BuiltOnRead:
    """A dataclass field that, when the constructor is not given it (its
    default, _UNBUILT), is built by build(instance) on its first read and
    then kept, None included.  A value the constructor is given is kept as
    it is."""

    def __init__(self, build):
        self.build = build

    def __set_name__(self, owner, name):
        self.key = f"_{name}_value"

    def __get__(self, obj, owner=None):
        if obj is None:
            return _UNBUILT  # the field's default
        value = obj.__dict__.get(self.key, _UNBUILT)
        if value is _UNBUILT:
            value = obj.__dict__[self.key] = self.build(obj)
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.key] = value


@dataclass
class ReductionReport:
    """A reduction's output.  The transform is kept as integer coordinates,
    coords = (ua, ub): column j of U is ua[j] + xi*ub[j], entry i of it
    ua[j][i] + xi*ub[j][i] (Python ints).  The exact RingMatrix transform,
    the event strings, the exact squared norms and the quality-bound checks
    are built on their first read and then kept, so callers that read only
    the coordinates, the counts or the reduced basis (the CF designs, the
    SVP oracle) never build them.  transform, events and norms_squared_exact
    stay constructor fields: a value given there is kept instead."""

    reduced: ComplexBasis
    coords: tuple
    swaps: int
    size_reductions: int
    delta: float | None
    warnings: list = field(default_factory=list)
    #: the exact unimodular transform, a RingMatrix built from coords
    transform: RingMatrix | None = _BuiltOnRead(
        lambda rep: _coords_matrix(*rep.coords, rep.reduced.ring)
    )
    #: "size_reduction:j" and "swap:j" for each step of an LLL run in order
    #: ("size_reduction" and "swap" for Gauss)
    events: list | None = _BuiltOnRead(lambda rep: _event_strings(rep._steps))
    potential_ratios: list = field(default_factory=list)
    #: squared column norms of the reduced basis as exact integers when the
    #: input has exact ring entries, else None
    norms_squared_exact: list | None = _BuiltOnRead(
        lambda rep: _exact_norms_squared(rep._input, *rep.coords)
    )
    stalled: bool = False
    wall_time: float = 0.0
    #: (kind, column) of each step in order; column is None for Gauss,
    #: whose events name the kind alone
    _steps: list = field(default_factory=list, repr=False)
    #: the input basis, which norms_squared_exact and bound_checks read
    _input: ComplexBasis | None = field(default=None, repr=False, compare=False)
    #: lambda1 given to alll_reduce, which bound_checks reads
    _lambda1: float | None = field(default=None, repr=False, compare=False)

    @cached_property
    def bound_checks(self) -> dict:
        """The quality-bound checks by name, computed on first read and then
        cached; {} for a Gauss report (delta None)."""
        if self.delta is None:
            return {}
        return _quality_checks(self._input, self, lambda1=self._lambda1)

    @property
    def norms(self) -> list[float]:
        """Column norms of the reduced basis.  When a squared norm is out of
        the normal float range, the norms are taken of the basis scaled by a
        power of two and scaled back, so a norm is inf or 0 only when it is
        out of the float range itself."""
        m = self.reduced.matrix
        with np.errstate(over="ignore", under="ignore"):
            norms = np.linalg.norm(m, axis=0)
            if not all(_in_range(x * x) for x in norms):
                m, e = _pow2_normalized(m)
                norms = _times_pow2(np.linalg.norm(m, axis=0), e)
        return [float(x) for x in norms]

    def bounds_ok(self) -> bool:
        return all(c.passed or c.skipped for c in self.bound_checks.values())

    def verify(self) -> None:
        """Re-check the transform against the input basis: it must be
        unimodular, and the reduced basis may drift from input @ transform by
        at most 1e-8 * ||input||.  Both matrices are scaled by the power of
        two 2**-e that normalizes the input, so no norm overflows or
        underflows and the verdict does not depend on the scale.  Raises
        RuntimeError when either check fails."""
        if not self.transform.is_unimodular():
            raise RuntimeError("reduction produced a non-unimodular transform")
        m, e = _pow2_normalized(self._input.matrix)
        applied = m @ self.transform.to_complex()
        err = float(np.linalg.norm(applied - _times_pow2(self.reduced.matrix, -e)))
        if err > 1e-8 * np.linalg.norm(m):
            raise RuntimeError(
                f"reduced basis drifted from basis*transform by {_times_pow2(err, e):.3g}"
            )

    def as_dict(self) -> dict:
        return {
            "norms": self.norms,
            "norms_squared": [_square(x) for x in self.norms],
            "norms_squared_exact": self.norms_squared_exact,
            "swaps": self.swaps,
            "size_reductions": self.size_reductions,
            "delta": self.delta,
            "events": self.events,
            "warnings": self.warnings,
            "stalled": self.stalled,
            "bound_checks": {k: v.as_dict() for k, v in self.bound_checks.items()},
            "wall_time_s": self.wall_time,
        }


def _event_strings(steps) -> list[str]:
    """The event strings of (kind, column) steps: "kind:column", or the kind
    alone where the column is None."""
    return [kind if col is None else f"{kind}:{col}" for kind, col in steps]


def _square(x: float) -> float:
    """x**2, or inf where that overflows (a Python float power raises)."""
    try:
        return x**2
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# the exact transform as integer coordinates: column j of U is
# ua[j] + xi * ub[j], with ua[j][i], ub[j][i] Python ints


def _identity_coords(n: int):
    ua = [[0] * n for _ in range(n)]
    for j in range(n):
        ua[j][j] = 1
    return ua, [[0] * n for _ in range(n)]


def _sub_multiple(ua, ub, j: int, k: int, ca: int, cb: int, ring: RingSpec | None) -> None:
    """Column j of U -= (ca + cb*xi) * column k, using xi^2 = s*xi + t.
    ring is None over Z, where cb is 0 and ub stays all zero, so ub is
    left alone."""
    if cb == 0:
        ua[j] = [x - ca * y for x, y in zip(ua[j], ua[k])]
        if ring is not None:
            ub[j] = [x - ca * y for x, y in zip(ub[j], ub[k])]
        return
    s, t = ring.minpoly_coeffs
    tb, sb = t * cb, ca + s * cb
    ua[j] = [x - ca * y - tb * z for x, y, z in zip(ua[j], ua[k], ub[k])]
    ub[j] = [x - sb * z - cb * y for x, y, z in zip(ub[j], ua[k], ub[k])]


# The LLL loop packs each column of ua and ub into one int (Kronecker
# substitution): entry i is digit i, at bit w*i, and every digit has
# magnitude below 2**(w-1).  A column update is then a few big-int products
# and sums, whatever n is.


def _pack(digits, w: int) -> int:
    """The int whose signed base-2**w digits are digits, least first."""
    return sum(x << (w * i) for i, x in enumerate(digits))


@functools.cache
def _digit_offset(n: int, w: int) -> int:
    """_pack of n digits 2**(w-1)."""
    return _pack([1 << (w - 1)] * n, w)


def _unpack(p: int, n: int, w: int) -> list[int]:
    """The n digits of p = _pack(digits, w), each of magnitude below
    2**(w-1), as a list of Python ints.

    Adding 2**(w-1) to every digit makes each one an ordinary base-2**w
    digit of p + offset, in [0, 2**w); flipping the top bit of each again
    (xor offset) leaves its w-bit two's complement, which struct reads
    directly when w is 64."""
    off = _digit_offset(n, w)
    p = (p + off) ^ off
    if w == 64:
        return list(struct.unpack(f"<{n}q", p.to_bytes(8 * n, "little")))
    half, mask = 1 << (w - 1), (1 << w) - 1
    return [(((p >> (w * i)) & mask) ^ half) - half for i in range(n)]


def _unpack_columns(PA, PB, n: int, w: int) -> tuple:
    """(ua, ub, bound): the packed columns unpacked, and the largest |entry|
    of each column of U."""
    ua = [_unpack(p, n, w) for p in PA]
    ub = [_unpack(p, n, w) for p in PB]
    return ua, ub, [max(map(abs, a + b)) for a, b in zip(ua, ub)]


def _embed_coords(ua, ub, xi) -> np.ndarray:
    """U as a numpy matrix with entries a + b*xi: complex for a complex xi,
    real for xi = 0.0 (the integer transform of real LLL)."""
    n = len(ua)
    return np.array([[ua[j][i] + ub[j][i] * xi for j in range(n)] for i in range(n)])


def _coords_matrix(ua, ub, ring: RingSpec) -> RingMatrix:
    n = len(ua)
    return RingMatrix.from_int_rows(
        [[(ua[j][i], ub[j][i]) for j in range(n)] for i in range(n)], ring
    )


def _exact_norms_squared(basis: ComplexBasis, ua, ub) -> list | None:
    """Column norms of basis @ U as exact integers when the input has exact
    ring entries: products of object arrays of Python ints, which do not
    overflow."""
    exact = basis._exact_pairs()
    if exact is None:
        return None
    s, t = basis.ring.minpoly_coeffs
    p, q = basis.ring.norm_form
    a1, b1 = np.moveaxis(np.array(exact, dtype=object), 2, 0)
    a2, b2 = np.array(ua, dtype=object).T, np.array(ub, dtype=object).T
    # (a1 + b1 xi)(a2 + b2 xi) = a1 a2 + t b1 b2 + (a1 b2 + b1 a2 + s b1 b2) xi
    bb = b1 @ b2
    a = a1 @ a2 + t * bb
    b = a1 @ b2 + b1 @ a2 + s * bb
    return (a * a + p * a * b + q * b * b).sum(axis=0).tolist()


# ---------------------------------------------------------------------------
# Gauss reduction in two dimensions


def _gauss_batch(M: np.ndarray, ring: RingSpec):
    """Gauss-reduce a stack of rank-2 bases, each exactly as it would be alone.

    M is an (N, 2, 2) complex stack whose columns are basis vectors, each
    basis already validated (lattices._independent).  Each gets its own
    GAUSS_ITER_FACTOR budget; only the trials still swapping stay active.

    Returns (reduced, log): the (N, 2, 2) stack of reduced bases, and per
    iteration (rows, ca, cb, swapped): the active trials, the element
    ca + cb*xi subtracted from their second column times the first, and
    whether they then swapped.  The first entry orders the input columns by
    norm, with ca = cb = 0.

    A basis with a squared column norm outside [_R_LOW**2, _R_HIGH**2] (inf,
    0 and subnormal norms among them), where a later square could leave the
    float range, is reduced as the basis scaled by the power of two of
    _pow2_normalized, the same lattice up to scale, and its reduced columns
    are scaled back.  The scaling commutes with every step, so its log is
    that of the basis as given; a stack with no such basis takes the path
    unchanged.
    """
    n0, n1 = _column_norms2(M)
    outside = np.flatnonzero(
        ~((np.minimum(n0, n1) >= _R_LOW**2) & (np.maximum(n0, n1) <= _R_HIGH**2))
    )
    exps = []
    if outside.size:
        M = M.copy()
        for t in outside:
            M[t], e = _pow2_normalized(M[t])
            exps.append(e)
        n0, n1 = _column_norms2(M)
    b0, b1 = M[:, :, 0], M[:, :, 1]
    rows = np.arange(len(M))
    swap = n0 > n1
    zeros = np.zeros(len(M), dtype=np.int64)
    log = [(rows, zeros, zeros, swap)]
    # b0, b1: the columns of the active trials, in their current order
    b0, b1 = np.where(swap[:, None], b1, b0), np.where(swap[:, None], b0, b1)
    reduced = np.empty_like(M)
    xi = ring.xi
    for _ in range(2 * GAUSS_ITER_FACTOR):
        n0 = np.vecdot(b0, b0).real
        ca, cb = _quantize_pairs(np.vecdot(b0, b1) / n0, ring)
        red = np.flatnonzero(ca | cb)
        if red.size:
            b1[red] = b1[red] - (ca[red] + cb[red] * xi)[:, None] * b0[red]
        swap = ~(np.vecdot(b1, b1).real >= n0)
        log.append((rows, ca, cb, swap))
        done = ~swap
        if done.any():
            reduced[rows[done], :, 0], reduced[rows[done], :, 1] = b0[done], b1[done]
            rows, b0, b1 = rows[swap], b0[swap], b1[swap]
        if rows.size == 0:
            break
        b0, b1 = b1, b0
    else:
        raise RuntimeError("gauss reduction exceeded its iteration budget")
    for t, e in zip(outside, exps):
        reduced[t] = _times_pow2(reduced[t], e)
    return reduced, log


def _column_norms2(M: np.ndarray) -> tuple:
    """The squared norms of the two columns of each basis in the stack M;
    inf, 0 or NaN where they leave the float range."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        return np.vecdot(M[:, :, 0], M[:, :, 0]).real, np.vecdot(M[:, :, 1], M[:, :, 1]).real


def _trial_steps(log, t: int) -> list:
    """(ca, cb, swapped) of trial t at each _gauss_batch iteration it took."""
    steps = []
    for rows, ca, cb, swapped in log:
        k = np.searchsorted(rows, t)
        if k == rows.size or rows[k] != t:
            break
        steps.append((int(ca[k]), int(cb[k]), bool(swapped[k])))
    return steps


def gauss_reduce(basis: ComplexBasis) -> ReductionReport:
    """Reduce a rank-2 basis so that ||b1|| <= ||b2|| and the Gram-Schmidt
    coefficient of the pair quantizes to zero.

    For norm-Euclidean rings the output norms are exactly the two successive
    minima of the lattice; other rings get a warning flag instead.  This is
    _gauss_batch on a stack of one, with its step log replayed into the
    exact transform.
    """
    t0 = time.perf_counter()
    if basis.n != 2:
        raise ValueError("gauss reduction needs a rank-2 basis")
    ring = basis.ring
    reduced, log = _gauss_batch(basis.matrix[None], ring)
    warns = []
    if not ring.euclidean:
        _warn_non_euclidean(warns, f"ring d={ring.d} is not norm-Euclidean; minima not guaranteed")

    ua, ub = _identity_coords(2)
    steps: list[tuple[str, None]] = []
    swaps = size_reductions = 0
    for ca, cb, swapped in _trial_steps(log, 0):
        if ca or cb:
            _sub_multiple(ua, ub, 1, 0, ca, cb, ring)
            size_reductions += 1
            steps.append(("size_reduction", None))
        if swapped:
            ua.reverse()
            ub.reverse()
            swaps += 1
            steps.append(("swap", None))

    return ReductionReport(
        reduced=ComplexBasis._derived(reduced[0], ring),
        coords=(ua, ub),
        swaps=swaps,
        size_reductions=size_reductions,
        delta=None,
        warnings=warns,
        _steps=steps,
        _input=basis,
        wall_time=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# QR helpers


def quaternion_rotation(r_above: complex, r_below: complex) -> np.ndarray:
    """Unitary 2x2 rotation sending [r_above; r_below] to [s; 0], s > 0.

    This is the matrix form of the quaternion whose complex pair is
    (conj(r_above)/s, -r_below/s); it restores triangularity after a column
    swap without refactoring.  The matrix keeps the dtype of its inputs, so
    a real pair gives the real Givens rotation.
    """
    return np.array(_rotation(r_above, r_below))


def _rotation(r_above, r_below) -> tuple:
    """The rows of quaternion_rotation as a pair of pairs, computed in the
    arithmetic of the inputs: Python floats or complex stay Python scalars."""
    s = math.hypot(abs(r_above), abs(r_below))
    if s == 0.0:
        raise ValueError("cannot rotate a zero column segment")
    return (r_above.conjugate() / s, r_below.conjugate() / s), (-r_below / s, r_above / s)


def _phase_normalize(R: np.ndarray, rows) -> None:
    """Rescale the given rows of R so its diagonal there is real-positive.

    A real row is negated when its diagonal is negative: that is the
    complex rule's multiplication by conj(rii / |rii|) = -1.0 or 1.0, bit
    for bit, without the division and the scaling.
    """
    if R.dtype.kind == "f":
        for i in rows:
            if R[i, i] < 0.0:
                R[i, :] *= -1.0
        return
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


def potential(R: np.ndarray) -> float:
    """prod_j |R_jj|^(2(n-j+1)); strictly decreases at every LLL swap."""
    n = R.shape[0]
    diag = np.abs(np.diag(R))
    return float(np.prod(diag ** (2 * (n - np.arange(n)))))


def decoding_radius(R: np.ndarray, k: int) -> float:
    """Half the smallest |R_jj| over the leading k columns."""
    if not 1 <= k <= R.shape[0]:
        raise ValueError(f"k must be in [1, {R.shape[0]}]")
    return 0.5 * float(np.min(np.abs(np.diag(R)[:k])))


def _unit_ball_volume(dim: int) -> float:
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)


def decoding_radius_bound(ring: RingSpec, n: int, k: int, lambda1: float, eps: float) -> float:
    """Lower bound on the decoding radius of size reduction in round k+1."""
    v2n = _unit_ball_volume(2 * n)
    return 0.25 * lambda1 * v2n ** (1.0 / (2 * n)) / ring.det_phi * eps ** ((k * k - k) / 4.0)


# ---------------------------------------------------------------------------
# The LLL loop, over a ring or over Z


def _lll(B: np.ndarray, delta: float, ring: RingSpec | None):
    """LLL-reduce the columns of B over ring, or over Z when ring is None.

    Size reduction rounds each Gram-Schmidt ratio to the nearest ring
    element (the nearest integer over Z, ties toward the smaller one); a
    swap restores triangularity with quaternion_rotation, a Givens rotation
    when B is real.  R is recomputed from B @ U every REFACTOR_EVERY swaps.
    The loop ends when the Lovasz condition holds everywhere, or after 3n
    consecutive swaps that each leave the potential within STALL_RATIO of
    where it was.

    The skip: version[k] counts the writes to row k of R (the rotation of
    rows j-1 and j at a swap, every row at a refactor), and zero_at[j][k] is
    the version of row k when column j's ratio there last rounded to 0; it
    moves with column j when it swaps.  Size-reducing column j at row k
    writes its rows 0..k, so every ratio below k is evaluated again.

    R is held by columns, C[j][i] = R[i, j], as Python floats over Z and
    Python complex over a ring (R.T.tolist() of each QR), so between
    refactors the loop makes no numpy call.  Size reduction is one list
    comprehension over the head of column j, and a swap exchanges two
    column references, then rotates entries j-1 and j of columns j-1..n-1
    with _rotation's entries, zeroes the sub-diagonal entry and multiplies
    those rows by conj(rii / |rii|) where rii is not real-positive (over Z,
    a negation).  The two fields differ only in the rounding of a ratio
    (math.ceil, or the ring's _quantizer, bound once per call); everything
    else (the skip bookkeeping, the size-reduction update, the Lovasz test,
    the swap, the stall rule, the refactor cadence, the transform and the
    events) is one control flow.

    The transform U = ua + xi*ub is held packed: PA[j] = _pack(ua[j], w)
    and PB[j] = _pack(ub[j], w), so a size reduction updates column j with
    at most four big-int products over a ring (with xi^2 = s*xi + t) and
    one over Z, whatever n is, and a swap exchanges references.  bound[j]
    is at least every |entry| of column j, and
    before each update the loop checks that the updated bound stays below
    2**(w-1), within which _unpack reads the digits back exactly.  When it
    would not, every column is unpacked at w and its bound restarts from its
    largest entry; if the update still does not fit, the columns are
    repacked at w doubled until it does.  w starts at _PACK_WIDTH, and the
    columns are unpacked to lists at each refactor and at the return.

    The Lovasz test squares entries of R, which overflow or underflow far
    from scale 1.  So when the diagonal of R leaves [_R_LOW, _R_HIGH], the
    loop runs on B scaled by a power of two (_pow2_normalized), the same
    lattice up to scale, whose transform reduces B too; a basis in that
    range takes the unscaled path.

    Raises ValueError when the diagonal of R is zero or spans more than
    MAX_CONDITION (a lower bound on the condition number of B).

    Returns (ua, ub, swaps, size_reductions, steps, potential_ratios,
    stalled), with ua and ub lists of columns of Python ints as in
    _sub_multiple (ub stays zero over Z), and steps the ("size_reduction"
    or "swap", j) pairs of the run in order, which _event_strings formats.
    """
    n = B.shape[1]
    real = ring is None
    xi = 0.0 if real else ring.xi
    zero = 0.0 if real else 0j
    quant = None if real else _quantizer(ring)
    s, t = (0, 0) if real else ring.minpoly_coeffs
    R = _r_positive(B)
    diag = np.abs(np.diagonal(R))
    low, high = diag.min(), diag.max()
    if not _R_LOW <= low <= high <= _R_HIGH:
        B = _pow2_normalized(B)[0]
        R = _r_positive(B)
        diag = np.abs(np.diagonal(R))
        low, high = diag.min(), diag.max()
    if not 0.0 < high <= low * MAX_CONDITION:
        raise ValueError("basis columns are numerically dependent")
    C = R.T.tolist()
    w = _PACK_WIDTH
    limit = 1 << (w - 1)
    PA = [1 << (w * i) for i in range(n)]
    PB = [0] * n
    bound = [1] * n

    swaps = size_reductions = 0
    steps: list[tuple[str, int]] = []
    pot_ratios: list[float] = []
    stalled = False
    stall_run = 0
    version = [0] * n
    zero_at = [[-1] * n for _ in range(n)]

    j = 1
    while j < n:
        col, seen = C[j], zero_at[j]
        written = False  # whether column j was size-reduced in this pass
        for k in range(j - 1, -1, -1):
            if not written and seen[k] == version[k]:
                continue
            ck = C[k]
            if real:
                ca, cb = math.ceil(col[k] / ck[k] - 0.5), 0
            else:
                ca, cb = quant(col[k] / ck[k])
            if ca or cb:
                c = ca + cb * xi
                col[: k + 1] = [x - c * y for x, y in zip(col, ck[: k + 1])]
                # column j of U -= (ca + cb*xi) * column k, as _sub_multiple,
                # once its bound is known to stay below limit = 2**(w-1)
                if cb:
                    tb, sb = t * cb, ca + s * cb
                    grow = max(abs(ca) + abs(tb), abs(cb) + abs(sb))
                else:
                    grow = abs(ca)
                new_bound = bound[j] + grow * bound[k]
                if new_bound >= limit:
                    # unpack at w, exact while every bound is below limit,
                    # and bound each column by its largest entry again;
                    # widen only if the update still reaches limit
                    ua, ub, bound = _unpack_columns(PA, PB, n, w)
                    new_bound = bound[j] + grow * bound[k]
                    if new_bound >= limit:
                        while new_bound >= 1 << (w - 1):
                            w *= 2
                        limit = 1 << (w - 1)
                        PA, PB = [_pack(a, w) for a in ua], [_pack(b, w) for b in ub]
                bound[j] = new_bound
                if cb:
                    pa, pb = PA[k], PB[k]
                    PA[j] -= ca * pa + tb * pb
                    PB[j] -= cb * pa + sb * pb
                else:
                    PA[j] -= ca * PA[k]
                    if not real:
                        PB[j] -= ca * PB[k]
                size_reductions += 1
                steps.append(("size_reduction", j))
                seen[k] = -1
                written = True
            else:
                seen[k] = version[k]
        r_above, r_below = col[j - 1], col[j]
        r_diag2 = abs(C[j - 1][j - 1]) ** 2
        r_next2 = abs(r_below) ** 2 + abs(r_above) ** 2
        if delta * r_diag2 > r_next2:
            ratio = r_next2 / r_diag2
            pot_ratios.append(ratio)
            PA[j - 1], PA[j] = PA[j], PA[j - 1]
            PB[j - 1], PB[j] = PB[j], PB[j - 1]
            bound[j - 1], bound[j] = bound[j], bound[j - 1]
            zero_at[j - 1], zero_at[j] = zero_at[j], zero_at[j - 1]
            C[j - 1], C[j] = col, C[j - 1]
            (m00, m01), (m10, m11) = _rotation(r_above, r_below)
            tail = C[j - 1 :]
            for v in tail:
                x, y = v[j - 1], v[j]
                v[j - 1] = m00 * x + m01 * y
                v[j] = m10 * x + m11 * y
            col[j] = zero  # col is column j-1 now; this is its sub-diagonal
            for i in (j - 1, j):
                rii = C[i][i]
                mag = abs(rii)
                if rii != mag:  # else rii is real-positive or zero: no fix
                    phase = (rii / mag).conjugate()
                    for v in tail:
                        v[i] *= phase
            version[j - 1] += 1
            version[j] += 1
            swaps += 1
            steps.append(("swap", j))
            if swaps % REFACTOR_EVERY == 0:
                ua, ub, bound = _unpack_columns(PA, PB, n, w)
                C = _r_positive(B @ _embed_coords(ua, ub, xi)).T.tolist()
                version = [v + 1 for v in version]
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
    ua, ub = [_unpack(p, n, w) for p in PA], [_unpack(p, n, w) for p in PB]
    return ua, ub, swaps, size_reductions, steps, pot_ratios, stalled


def alll_reduce(
    basis: ComplexBasis,
    delta: float = 0.99,
    lambda1: float | None = None,
) -> ReductionReport:
    """Algebraic LLL reduction of a complex basis over its ring.

    The output satisfies the ring size-reduction condition (all off-diagonal
    Gram-Schmidt ratios quantize to zero) and the Lovasz condition with
    parameter delta.  Quality bounds are evaluated with eps = delta - rho^2
    where rho is the covering radius of the ring; for non-Euclidean rings
    eps <= 0 and the bound checks are skipped with a warning.  delta must be
    in (0, 1] on every ring, and above rho^2 on a Euclidean one.
    """
    t0 = time.perf_counter()
    ring = basis.ring
    rho2 = ring.covering_radius**2
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    warns: list[str] = []
    if ring.euclidean:
        if delta <= rho2:
            raise ValueError(
                f"delta={delta} <= rho^2={rho2:.4f} for d={ring.d}: the swap "
                "potential argument needs delta > rho^2"
            )
    else:
        _warn_non_euclidean(
            warns,
            f"ring d={ring.d} is not norm-Euclidean (rho^2={rho2:.3f} >= 1); "
            "reduction proceeds without quality guarantees",
        )

    B = np.array(basis.matrix, dtype=complex)
    ua, ub, swaps, size_reductions, steps, pot_ratios, stalled = _lll(B, delta, ring)
    if stalled:
        warns.append("terminated after repeated swaps with no potential progress")

    reduced = ComplexBasis._derived(B @ _embed_coords(ua, ub, ring.xi), ring)
    return ReductionReport(
        reduced=reduced,
        coords=(ua, ub),
        swaps=swaps,
        size_reductions=size_reductions,
        delta=delta,
        warnings=warns,
        potential_ratios=pot_ratios,
        stalled=stalled,
        wall_time=time.perf_counter() - t0,
        _steps=steps,
        _input=basis,
        _lambda1=lambda1,
    )


def reduction_epsilon(ring: RingSpec, delta: float) -> float:
    """eps = delta - rho^2, capped at 1.

    A value <= 0 (every non-Euclidean ring) is returned as is: it means the
    quality bounds do not apply, and callers skip them.
    """
    eps = delta - ring.covering_radius**2
    return min(eps, 1.0)


def _quality_checks(basis: ComplexBasis, report: ReductionReport, lambda1=None) -> dict:
    ring = basis.ring
    n = basis.n
    checks: dict[str, BoundCheck] = {}
    eps = reduction_epsilon(ring, report.delta)
    first = report.norms[0]
    if eps <= 0.0:
        for name in ("first_vs_det", "first_vs_lambda1", "od_bound", "decoding_radius"):
            checks[name] = BoundCheck(
                name, 0.0, 0.0, passed=True, skipped=True,
                note="eps <= 0 for this ring; no quality guarantee",
            )
        return checks

    # |det B| out of the normal range is taken of B scaled by 2^-e, and the
    # bound, homogeneous of degree 1 in B, scaled back by 2^e
    with np.errstate(over="ignore", under="ignore"):
        absdet = abs(np.linalg.det(basis.matrix))
    e = 0
    if not _in_range(absdet):
        m, e = _pow2_normalized(basis.matrix)
        absdet = abs(np.linalg.det(m))
    rhs = eps ** (-(n - 1) / 4.0) * absdet ** (1.0 / n)
    checks["first_vs_det"] = _mk_check("first_vs_det", first, _times_pow2(rhs, e))
    od = orthogonality_defect(report.reduced)
    rho2 = ring.covering_radius**2
    prod = 1.0
    for jj in range(1, n + 1):
        geo = sum(eps ** (-t) for t in range(1, jj))
        prod *= math.sqrt(1.0 + rho2 * geo)
    checks["od_bound"] = _mk_check("od_bound", od, ring.det_phi ** (-n) * prod)
    if lambda1 is not None:
        checks["first_vs_lambda1"] = _mk_check(
            "first_vs_lambda1", first, eps ** (-(n - 1) / 2.0) * lambda1
        )
        Rred = _r_positive(report.reduced.matrix)
        radius = float(decoding_radius(Rred, n))
        floor = float(decoding_radius_bound(ring, n, n, lambda1, eps))
        checks["decoding_radius"] = _mk_check("decoding_radius", floor, radius)
    return checks


def _mk_check(name: str, lhs: float, rhs: float, tol: float = 1e-9) -> BoundCheck:
    """lhs <= rhs up to a relative tol, which keeps the verdict of a
    rescaled basis."""
    lhs, rhs = float(lhs), float(rhs)
    return BoundCheck(name, lhs, rhs, passed=bool(lhs <= rhs * (1.0 + tol)))


# ---------------------------------------------------------------------------
# real LLL on embedded bases: the LLL loop over Z


def _lll_z(matrix, delta: float) -> tuple:
    """_lll over Z on a real square matrix: (B, ua, swaps), with B the matrix
    as a float array and column j of the integer transform ua[j], a list of
    Python ints.  real_lll and the rlll relay design both run it."""
    if not 0.25 < delta <= 1.0:
        raise ValueError(f"delta must be in (0.25, 1], got {delta}")
    B = np.array(matrix, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1] or B.size == 0:
        raise ValueError(f"basis must be square and non-empty, got shape {B.shape}")
    ua, _, swaps, *_ = _lll(_finite(B), delta, None)
    return B, ua, swaps


def real_lll(matrix: np.ndarray, delta: float = 0.99):
    """LLL-reduce the columns of a real matrix; returns (reduced, T, swaps).

    T is the integer unimodular transform as an object array of Python ints,
    and reduced = matrix @ T (computed in floats).  This is _lll over Z
    (_lll_z).  At delta < 1 every swap cuts the potential by at least delta;
    at delta = 1 the loop ends by the same stall rule as alll_reduce.  A
    non-finite or numerically dependent matrix raises ValueError, as in
    ComplexBasis.
    """
    B, ua, swaps = _lll_z(matrix, delta)
    m = B.shape[0]
    T = np.array([[ua[j][i] for j in range(m)] for i in range(m)], dtype=object)
    return B @ T.astype(float), T, swaps
