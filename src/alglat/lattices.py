"""Complex algebraic lattice bases and exact matrices over the ring.

A rank-n lattice over Z[xi] is spanned by the columns of a complex n x n
basis matrix.  Embedding into R^(2n) stacks real parts over imaginary parts
of each column of B and of xi*B, with xi read from the ring rather than
from its type; coefficient vectors a + b*xi split into [a-block; b-block].
Exact entries are decoded in closed form, without the quantizer.  RingMatrix
holds RingElem entries; its determinant and product run on their (a, b)
pairs (rings._pair_det, rings._pair_matmul).  Random unimodular matrices,
the exact inverse and the Minkowski-bound check are test oracles, in
tests/oracles.py.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .rings import RingElem, RingSpec, _pair_det, _pair_matmul, parse_ring

__all__ = [
    "ComplexBasis",
    "RingMatrix",
    "embed",
    "coeff_to_complex",
    "volume",
    "orthogonality_defect",
    "hermite_factor",
    "basis_to_json",
    "basis_from_json",
]

MAX_CONDITION = 1e12
#: largest distance from the ring at which an entry still reads as exact
_EXACT_TOL = 1e-9

def _finite(m: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("basis contains non-finite entries")
    return m


def _cond(m: np.ndarray):
    """The 2-norm condition number of a square matrix or of each in a stack.

    A 2x2 with rows r1, r2 is done in closed form: with F = ||A||_F^2 =
    s1^2 + s2^2 and D = |det A| = s1*s2, cond = s1/s2 =
    (F + sqrt((F - 2D)(F + 2D))) / (2D).  The discriminant is taken as
    (|r1|^2 - |r2|^2)^2 + 4|r1 . r2^H|^2, equal to it (both are
    tr(AA^H)^2 - 4 det(AA^H)), which does not cancel near cond = 1.  cond
    does not change with scale, so it is taken of each matrix scaled by the
    power of two that puts its largest entry in [0.5, 1) (or near it, below
    2**-1021), where no square overflows.  A zero matrix gives 0/0 = NaN and
    a singular one inf.  Other ranks take np.linalg.cond (an SVD)."""
    if m.shape[-2:] != (2, 2):
        return np.linalg.cond(m)
    e = np.frexp(np.abs(m).max(axis=(-2, -1)))[1]
    a = m * np.ldexp(1.0, -np.maximum(e, -1021))[..., None, None]
    r1, r2 = a[..., 0, :], a[..., 1, :]
    n1, n2 = np.vecdot(r1, r1).real, np.vecdot(r2, r2).real
    disc = (n1 - n2) ** 2 + 4 * np.abs(np.vecdot(r1, r2)) ** 2
    D = np.abs(a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0])
    with np.errstate(divide="ignore", invalid="ignore"):
        return (n1 + n2 + np.sqrt(disc)) / (2 * D)


def _independent(m: np.ndarray) -> np.ndarray:
    """m, a basis or a stack of bases, once each is finite and has condition
    number (_cond) at most MAX_CONDITION; a NaN condition refuses too."""
    if not np.all(_cond(_finite(m)) <= MAX_CONDITION):
        raise ValueError("basis columns are numerically dependent")
    return m


@dataclass(frozen=True)
class ComplexBasis:
    """Column basis of a rank-n algebraic lattice over a ring Z[xi]."""

    matrix: np.ndarray
    ring: RingSpec

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex, order="C")
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError(f"basis must be square and non-empty, got shape {m.shape}")
        _independent(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _derived(cls, matrix: np.ndarray, ring: RingSpec) -> "ComplexBasis":
        """Basis of a lattice already validated: a validated basis times an
        exact unimodular transform.  Only the entries are checked to be
        finite; independence carries over, so the cond check is skipped."""
        m = _finite(np.array(matrix, dtype=complex, order="C"))
        m.setflags(write=False)
        basis = object.__new__(cls)
        object.__setattr__(basis, "matrix", m)
        object.__setattr__(basis, "ring", ring)
        return basis

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def exact_entries(self) -> "RingMatrix | None":
        """Recover exact ring entries when every entry is a ring element, to
        within _EXACT_TOL, scaled down for a basis whose entries are all below 1."""
        rows = self._exact_pairs()
        return None if rows is None else RingMatrix.from_int_rows(rows, self.ring)

    def _exact_pairs(self) -> list | None:
        """Rows of (a, b) coordinates of the entries, or None if any entry is
        farther from the ring than _EXACT_TOL.  When every entry is below 1,
        the tolerance is scaled by the largest entry magnitude, so a
        scaled-down float basis never reads as the zero matrix; it is never
        widened.  An entry z decodes as b = round(Im z / Im xi), then
        a = round(Re z - b Re xi); ring elements are at least 1 apart, so
        this is the one element within the tolerance, if there is one.  An
        entry whose Im z / Im xi overflows to inf is not exact."""
        xi = self.ring.xi
        tol = _EXACT_TOL * min(1.0, float(np.max(np.abs(self.matrix))))
        rows = []
        for entries in self.matrix.tolist():
            row = []
            for z in entries:
                y = z.imag / xi.imag
                if not math.isfinite(y):
                    return None
                b = round(y)
                a = round(z.real - b * xi.real)
                if abs(z - (complex(a) + b * xi)) > tol:
                    return None
                row.append((a, b))
            rows.append(row)
        return rows


def coeff_to_complex(coeff) -> np.ndarray:
    """Embed a vector of ring elements into C^n."""
    return np.array([e.embed() for e in coeff], dtype=complex)


def embed(basis: ComplexBasis) -> np.ndarray:
    """2n x 2n real generator matrix: columns are the embeddings of b_j and xi*b_j.

    Block layout [a-columns | b-columns] matches coefficient splitting
    x = x_a + xi*x_b: for any ring vector x,
    stack(B x) = embed(B) @ [x_a; x_b].
    """
    return _embed(basis.matrix, basis.ring.xi)


def _embed(B: np.ndarray, xi: complex) -> np.ndarray:
    """embed of each n x n matrix of a complex (..., n, n) stack B over the
    ring of xi: elementwise real arithmetic, so each matrix of a stack gets
    the bits it gets alone."""
    re, im = B.real, B.imag
    xr, xs = xi.real, xi.imag
    # a zero xr term is left out: adding it would turn some -0.0 into 0.0,
    # and the sign of a zero pivot steers the Householder steps of a QR
    top = np.concatenate([re, xr * re - xs * im if xr else -xs * im], axis=-1)
    bot = np.concatenate([im, xr * im + xs * re if xr else xs * re], axis=-1)
    return np.concatenate([top, bot], axis=-2)


def volume(basis: ComplexBasis) -> float:
    """Volume of the embedded 2n-dimensional lattice: |det B|^2 * det(Phi)^n.

    It scales as the 2n-th power of B, so it leaves the float range (inf, or
    0 and subnormal) long before B does; hermite_factor rescales then."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        return abs(np.linalg.det(basis.matrix)) ** 2 * basis.ring.det_phi**basis.n


def _in_range(x: float) -> bool:
    """Whether |x| is a finite, normal float: not 0, subnormal, inf or NaN."""
    return sys.float_info.min <= abs(x) < math.inf


def _times_pow2(x, k: int):
    """x * 2**k, in two exact steps so that 2**k itself need not be a float.
    Exact unless the result overflows or underflows."""
    h = k // 2
    return x * 2.0**h * 2.0 ** (k - h)


def _pow2_normalized(m: np.ndarray) -> tuple:
    """(m * 2**-e, e), with e the exponent that puts the largest entry
    magnitude of m in [0.5, 1).  On an (N, r, c) stack each matrix gets its
    own e, returned as a list of N ints, and is scaled in the same two
    exact steps as _times_pow2.  Scaling by a power of two commutes with
    IEEE arithmetic away from overflow and underflow."""
    if m.ndim > 2:
        e = [math.frexp(x)[1] for x in np.abs(m).max(axis=(-2, -1)).tolist()]
        f = np.array([(2.0 ** (-k // 2), 2.0 ** (-k - -k // 2)) for k in e])
        return m * f[:, 0, None, None] * f[:, 1, None, None], e
    e = math.frexp(float(np.max(np.abs(m))))[1]
    return _times_pow2(m, -e), e


def orthogonality_defect(basis: ComplexBasis) -> float:
    """prod ||b_j|| / (det(Phi)^n |det B|); >= det(Phi)^-n by Hadamard.

    The denominator uses |det B| to first power (the complex Hadamard
    normalization); the embedded real volume would square it and break the
    det(Phi)^-n lower bound.  The defect does not depend on the scale of B:
    when the norm product or |det B| is out of the normal float range, both
    are taken of B scaled by a power of two (_pow2_normalized).
    """
    m = basis.matrix
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        prod = float(np.prod(np.linalg.norm(m, axis=0)))
        absdet = abs(np.linalg.det(m))
    if not (_in_range(prod) and _in_range(absdet)):
        m = _pow2_normalized(m)[0]
        prod = float(np.prod(np.linalg.norm(m, axis=0)))
        absdet = abs(np.linalg.det(m))
    return prod / (basis.ring.det_phi**basis.n * absdet)


def hermite_factor(basis: ComplexBasis, lambda1: float) -> float:
    """lambda1^2 / Vol^(1/n); at most gamma_{2n} for any rank-n lattice.

    The factor does not depend on the scale of B: when the volume is out of
    the normal float range, B and lambda1 are scaled by the same power of two
    (_pow2_normalized) first."""
    vol = volume(basis)
    if not _in_range(vol):
        m, e = _pow2_normalized(basis.matrix)
        basis, lambda1 = ComplexBasis._derived(m, basis.ring), _times_pow2(lambda1, -e)
        vol = volume(basis)
    return lambda1**2 / vol ** (1.0 / basis.n)


# ---------------------------------------------------------------------------
# exact matrices over the ring


@dataclass(frozen=True)
class RingMatrix:
    """Square matrix with entries in Z[xi]; determinant computed exactly."""

    entries: tuple
    ring: RingSpec

    def __post_init__(self):
        rows = tuple(map(tuple, self.entries))
        if not rows or any(len(row) != len(rows) for row in rows):
            raise ValueError(f"ring matrix must be square and non-empty, got {len(rows)} rows")
        if any(e.ring != self.ring for row in rows for e in row):
            raise ValueError("entry from a different ring")
        object.__setattr__(self, "entries", rows)

    @classmethod
    def from_int_rows(cls, rows, ring: RingSpec) -> "RingMatrix":
        """Build from rows of (a, b) integer pairs."""
        return cls(tuple(tuple(ring.elem(a, b) for a, b in row) for row in rows), ring)

    @property
    def n(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def column(self, j: int) -> tuple:
        return tuple(self.entries[i][j] for i in range(self.n))

    def columns(self) -> list:
        return [self.column(j) for j in range(self.n)]

    @classmethod
    def from_columns(cls, cols, ring: RingSpec) -> "RingMatrix":
        if any(len(col) != len(cols) for col in cols):
            raise ValueError("ring matrix must be square")
        return cls(tuple(zip(*cols)), ring)

    def _pairs(self) -> list:
        """The entries as rows of (a, b) pairs, the exact kernel's input."""
        return [[(e.a, e.b) for e in row] for row in self.entries]

    def __matmul__(self, other):
        if not isinstance(other, RingMatrix):
            return NotImplemented
        if other.ring != self.ring:
            raise ValueError("mixed rings")
        x, y = (np.moveaxis(np.array(m._pairs(), dtype=object), 2, 0) for m in (self, other))
        a, b = _pair_matmul(x, y, *self.ring.minpoly_coeffs)
        rows = [list(zip(ra, rb)) for ra, rb in zip(a.tolist(), b.tolist())]
        return RingMatrix.from_int_rows(rows, self.ring)

    def to_complex(self) -> np.ndarray:
        return np.array([[e.embed() for e in row] for row in self.entries], dtype=complex)

    def det(self) -> RingElem:
        return self.ring.elem(*_pair_det(self._pairs(), self.ring))

    def is_unimodular(self) -> bool:
        return self.det().norm() == 1


# ---------------------------------------------------------------------------
# JSON basis files


def basis_to_json(basis: ComplexBasis) -> str:
    cols = [
        [[float(basis.matrix[i, j].real), float(basis.matrix[i, j].imag)] for i in range(basis.n)]
        for j in range(basis.n)
    ]
    return json.dumps(
        {"ring": f"d={basis.ring.d}", "n": basis.n, "columns": cols},
        sort_keys=True,
    )


def _complex_pair(pair) -> complex:
    """complex(re, im) of a JSON [re, im] pair.  Raises TypeError for
    anything else, a JSON boolean (a Python bool is an int) included, and
    OverflowError for an integer beyond the float range; the file parsers
    report both as malformed."""
    if not (isinstance(pair, list) and len(pair) == 2) or any(type(v) is bool for v in pair):
        raise TypeError(f"expected an [re, im] pair, got {pair!r:.40}")
    return complex(*pair)


def basis_from_json(text: str) -> ComplexBasis:
    data = json.loads(text)
    try:
        ring = parse_ring(data["ring"])
        n = data["n"]
        if type(n) is not int:  # a float would truncate, and bool is an int
            raise TypeError(f"'n' must be an integer, got {n!r}")
        cols = data["columns"]
        if len(cols) != n or any(len(c) != n for c in cols):
            raise ValueError(f"basis file claims n={n} but columns disagree")
        m = np.empty((n, n), dtype=complex)
        for j, col in enumerate(cols):
            for i, pair in enumerate(col):
                m[i, j] = _complex_pair(pair)
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed basis file: {exc}") from exc
    return ComplexBasis(m, ring)
