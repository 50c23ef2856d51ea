"""Complex algebraic lattice bases and exact unimodularity machinery.

A rank-n lattice over Z[xi] is spanned by the columns of a complex n x n
basis matrix.  Embedding into R^(2n) stacks real parts over imaginary parts
of each column; coefficient vectors a + b*xi split into [a-block; b-block].
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .rings import RingElem, RingKind, RingSpec, _quantize_pair, parse_ring, units

__all__ = [
    "ComplexBasis",
    "RingMatrix",
    "embed",
    "fold_real_column",
    "embed_vector",
    "coeff_to_complex",
    "volume",
    "orthogonality_defect",
    "hermite_factor",
    "is_unimodular",
    "minkowski_check",
    "hermite_constant_2n",
    "basis_to_json",
    "basis_from_json",
    "random_unimodular",
]

MAX_CONDITION = 1e12
#: largest distance from the ring at which an entry still reads as exact
_EXACT_TOL = 1e-9

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


def _finite(m: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("basis contains non-finite entries")
    return m


def _independent(m: np.ndarray) -> np.ndarray:
    """m, a basis or a stack of bases, once each is finite and has
    condition number at most MAX_CONDITION."""
    if np.any(np.linalg.cond(_finite(m)) > MAX_CONDITION):
        raise ValueError("basis columns are numerically dependent")
    return m


@dataclass(frozen=True)
class ComplexBasis:
    """Column basis of a rank-n algebraic lattice over a ring Z[xi]."""

    matrix: np.ndarray
    ring: RingSpec

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError(f"basis must be square and non-empty, got shape {m.shape}")
        _independent(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _derived(cls, matrix: np.ndarray, ring: RingSpec) -> "ComplexBasis":
        """Basis of a lattice already validated: a validated basis times an
        exact unimodular transform.  Only the entries are checked to be
        finite; independence carries over, so the SVD of the cond check is
        skipped."""
        m = _finite(np.array(matrix, dtype=complex))
        m.setflags(write=False)
        basis = object.__new__(cls)
        object.__setattr__(basis, "matrix", m)
        object.__setattr__(basis, "ring", ring)
        return basis

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def column(self, j: int) -> np.ndarray:
        return np.array(self.matrix[:, j])

    def column_norms(self) -> np.ndarray:
        return np.linalg.norm(self.matrix, axis=0)

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
        widened."""
        xi = self.ring.xi
        tol = _EXACT_TOL * min(1.0, float(np.max(np.abs(self.matrix))))
        rows = []
        for i in range(self.n):
            row = []
            for j in range(self.n):
                z = complex(self.matrix[i, j])
                a, b = _quantize_pair(z, self.ring)
                if abs(z - (complex(a) + b * xi)) > tol:
                    return None
                row.append((a, b))
            rows.append(row)
        return rows


def embed_vector(v: np.ndarray) -> np.ndarray:
    """Stack real parts over imaginary parts of a complex vector."""
    v = np.asarray(v, dtype=complex)
    return np.concatenate([v.real, v.imag])


def coeff_to_complex(coeff) -> np.ndarray:
    """Embed a vector of ring elements into C^n."""
    return np.array([e.embed() for e in coeff], dtype=complex)


def embed(basis: ComplexBasis) -> np.ndarray:
    """2n x 2n real generator matrix: columns are the embeddings of b_j and xi*b_j.

    Block layout [a-columns | b-columns] matches coefficient splitting
    x = x_a + xi*x_b: for any ring vector x,
    stack(B x) = embed(B) @ [x_a; x_b].
    """
    B = basis.matrix
    re, im = B.real, B.imag
    root = math.sqrt(basis.ring.d)
    if basis.ring.kind is RingKind.TYPE_I:
        top = np.hstack([re, -root * im])
        bot = np.hstack([im, root * re])
    else:
        top = np.hstack([re, 0.5 * re - (root / 2.0) * im])
        bot = np.hstack([im, 0.5 * im + (root / 2.0) * re])
    return np.vstack([top, bot])


def fold_real_column(col, ring: RingSpec) -> tuple:
    """Ring coefficient vector x_a + xi*x_b from integer block coordinates
    [x_a; x_b], the inverse of the embed layout."""
    n = len(col) // 2
    return tuple(ring.elem(int(col[j]), int(col[j + n])) for j in range(n))


def volume(basis: ComplexBasis) -> float:
    """Volume of the embedded 2n-dimensional lattice: |det B|^2 * det(Phi)^n."""
    return abs(np.linalg.det(basis.matrix)) ** 2 * basis.ring.det_phi**basis.n


def orthogonality_defect(basis: ComplexBasis) -> float:
    """prod ||b_j|| / (det(Phi)^n |det B|); >= det(Phi)^-n by Hadamard.

    The denominator uses |det B| to first power (the complex Hadamard
    normalization); the embedded real volume would square it and break the
    det(Phi)^-n lower bound.
    """
    prod = float(np.prod(np.linalg.norm(basis.matrix, axis=0)))
    return prod / (basis.ring.det_phi**basis.n * abs(np.linalg.det(basis.matrix)))


def hermite_factor(basis: ComplexBasis, lambda1: float) -> float:
    """lambda1^2 / Vol^(1/n); at most gamma_{2n} for any rank-n lattice."""
    return lambda1**2 / volume(basis) ** (1.0 / basis.n)


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


# ---------------------------------------------------------------------------
# exact matrices over the ring


@dataclass(frozen=True)
class RingMatrix:
    """Square matrix with entries in Z[xi]; determinant computed exactly."""

    entries: tuple
    ring: RingSpec

    def __post_init__(self):
        n = len(self.entries)
        rows = []
        for row in self.entries:
            if len(row) != n:
                raise ValueError("ring matrix must be square")
            for e in row:
                if e.ring != self.ring:
                    raise ValueError("entry from a different ring")
            rows.append(tuple(row))
        object.__setattr__(self, "entries", tuple(rows))

    @classmethod
    def identity(cls, n: int, ring: RingSpec) -> "RingMatrix":
        return cls(
            tuple(
                tuple(ring.elem(1 if i == j else 0) for j in range(n))
                for i in range(n)
            ),
            ring,
        )

    @classmethod
    def from_int_rows(cls, rows, ring: RingSpec) -> "RingMatrix":
        """Build from rows of (a, b) integer pairs."""
        return cls(
            tuple(tuple(ring.elem(a, b) for (a, b) in row) for row in rows),
            ring,
        )

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
        n = len(cols)
        return cls(
            tuple(tuple(cols[j][i] for j in range(n)) for i in range(n)), ring
        )

    def __matmul__(self, other):
        if isinstance(other, RingMatrix):
            if other.ring != self.ring:
                raise ValueError("mixed rings")
            n = self.n
            rows = []
            for i in range(n):
                row = []
                for j in range(n):
                    acc = self.ring.zero
                    for k in range(n):
                        acc = acc + self.entries[i][k] * other.entries[k][j]
                    row.append(acc)
                rows.append(tuple(row))
            return RingMatrix(tuple(rows), self.ring)
        # vector of ring elements
        n = self.n
        return tuple(
            sum(
                (self.entries[i][k] * other[k] for k in range(n)),
                start=self.ring.zero,
            )
            for i in range(n)
        )

    def to_complex(self) -> np.ndarray:
        return np.array(
            [[e.embed() for e in row] for row in self.entries], dtype=complex
        )

    def det(self) -> RingElem:
        return _ring_det(self)

    def is_unimodular(self) -> bool:
        return self.det().norm() == 1

    def inverse_unimodular(self) -> "RingMatrix":
        """Exact inverse, valid when the determinant is a unit."""
        d = self.det()
        if d.norm() != 1:
            raise ValueError("matrix is not unimodular")
        # adj(U) / det(U); det is a unit so dividing is multiplying by d^-1,
        # and d^-1 = conj(d) when Nr(d) = 1
        dinv = d.conj()
        n = self.n
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                minor = _ring_det(self._minor(j, i))
                sign = 1 if (i + j) % 2 == 0 else -1
                row.append(minor * dinv * sign)
            rows.append(tuple(row))
        return RingMatrix(tuple(rows), self.ring)

    def _minor(self, drop_row: int, drop_col: int) -> "RingMatrix":
        rows = []
        for i in range(self.n):
            if i == drop_row:
                continue
            rows.append(
                tuple(
                    self.entries[i][j] for j in range(self.n) if j != drop_col
                )
            )
        if not rows:
            return RingMatrix(((self.ring.one,),), self.ring)
        return RingMatrix(tuple(rows), self.ring)


def _ring_det(m: RingMatrix) -> RingElem:
    """Bareiss fraction-free elimination; all divisions are exact in the ring."""
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


def is_unimodular(entries, ring: RingSpec) -> bool:
    """True iff the ring matrix has unit determinant (exact arithmetic)."""
    if isinstance(entries, RingMatrix):
        return entries.is_unimodular()
    return RingMatrix(tuple(tuple(row) for row in entries), ring).is_unimodular()


def random_unimodular(ring: RingSpec, n: int, rng, ops: int = 12) -> RingMatrix:
    """Random unimodular matrix from elementary column operations."""
    cols = [list(col) for col in RingMatrix.identity(n, ring).columns()]
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


def basis_from_json(text: str) -> ComplexBasis:
    data = json.loads(text)
    try:
        ring = parse_ring(data["ring"])
        n = int(data["n"])
        cols = data["columns"]
        if len(cols) != n or any(len(c) != n for c in cols):
            raise ValueError(f"basis file claims n={n} but columns disagree")
        m = np.empty((n, n), dtype=complex)
        for j, col in enumerate(cols):
            for i, (re, im) in enumerate(col):
                m[i, j] = complex(re, im)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed basis file: {exc}") from exc
    return ComplexBasis(m, ring)
