"""Exact arithmetic in rings of imaginary quadratic integers Z[xi].

For a square-free d > 0 the ring of integers of Q(sqrt(-d)) is Z[xi] with
xi = sqrt(-d) when -d = 2, 3 (mod 4) ("type I") and xi = (1 + sqrt(-d))/2
when -d = 1 (mod 4) ("type II").  Elements are stored as integer pairs
(a, b) meaning a + b*xi, so all ring arithmetic is exact.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RingKind",
    "RingSpec",
    "RingElem",
    "FieldMorphism",
    "ring_new",
    "parse_ring",
    "units",
    "quantize",
    "covering_radius_geometric",
    "norm_euclidean_sup_distance",
    "morphism_new",
]

#: the imaginary quadratic rings whose algebraic norm is a Euclidean function
NORM_EUCLIDEAN_D = frozenset({1, 2, 3, 7, 11})

RING_ALIASES = {"gaussian": 1, "eisenstein": 3}


class RingKind(enum.Enum):
    TYPE_I = "I"
    TYPE_II = "II"


def _is_squarefree(d: int) -> bool:
    if d % 4 == 0:
        return False
    k = 3
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        k += 2
    return True


@dataclass(frozen=True)
class RingSpec:
    """An imaginary quadratic integer ring Z[xi], identified by square-free d."""

    d: int
    kind: RingKind

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"d must be a positive integer, got {self.d}")
        if not _is_squarefree(self.d):
            raise ValueError(f"d must be square-free, got {self.d}")
        expected = RingKind.TYPE_II if (-self.d) % 4 == 1 else RingKind.TYPE_I
        if self.kind != expected:
            raise ValueError(
                f"d={self.d} has -d = {(-self.d) % 4} (mod 4) and must be {expected}"
            )

    # -- derived constants ------------------------------------------------

    @functools.cached_property
    def xi(self) -> complex:
        """Embedding of the generator xi into C."""
        root = math.sqrt(self.d)
        if self.kind is RingKind.TYPE_I:
            return complex(0.0, root)
        return complex(0.5, root / 2.0)

    @property
    def phi(self):
        """2x2 real generator matrix of Z[xi] embedded in R^2 (columns 1, xi)."""
        root = math.sqrt(self.d)
        if self.kind is RingKind.TYPE_I:
            return np.array([[1.0, 0.0], [0.0, root]])
        return np.array([[1.0, 0.5], [0.0, root / 2.0]])

    @property
    def det_phi(self) -> float:
        root = math.sqrt(self.d)
        return root if self.kind is RingKind.TYPE_I else root / 2.0

    @property
    def covering_radius(self) -> float:
        """Maximum distance from a complex number to the nearest ring element."""
        if self.kind is RingKind.TYPE_I:
            return math.sqrt(1.0 + self.d) / 2.0
        return (self.d + 1) / (4.0 * math.sqrt(self.d))

    @property
    def euclidean(self) -> bool:
        return self.d in NORM_EUCLIDEAN_D

    @property
    def minpoly_coeffs(self) -> tuple[int, int]:
        """(s, t) such that xi^2 = s*xi + t with integer s, t."""
        if self.kind is RingKind.TYPE_I:
            return 0, -self.d
        return 1, -((1 + self.d) // 4)

    @property
    def norm_form(self) -> tuple[int, int]:
        """(p, q) such that Nr(a + b*xi) = a^2 + p*a*b + q*b^2."""
        if self.kind is RingKind.TYPE_I:
            return 0, self.d
        return 1, (1 + self.d) // 4

    # -- element constructors ---------------------------------------------

    def elem(self, a: int, b: int = 0) -> "RingElem":
        return RingElem(int(a), int(b), self)

    @property
    def zero(self) -> "RingElem":
        return self.elem(0, 0)

    @property
    def one(self) -> "RingElem":
        return self.elem(1, 0)

    def units(self) -> tuple["RingElem", ...]:
        return units(self)

    def __str__(self):
        return f"d={self.d}"

    def __repr__(self):
        return f"RingSpec(d={self.d}, kind={self.kind.value})"


def ring_new(d: int) -> RingSpec:
    """Build the ring of integers of Q(sqrt(-d)); RingSpec rejects d < 1 and
    non-square-free d."""
    d = int(d)
    kind = RingKind.TYPE_II if (-d) % 4 == 1 else RingKind.TYPE_I
    return RingSpec(d, kind)


def parse_ring(text: str) -> RingSpec:
    """Parse a ring spec string: "d=<int>", "gaussian" or "eisenstein"."""
    if not isinstance(text, str):
        raise ValueError(f"ring spec must be a string, got {text!r}")
    s = text.strip().lower()
    if s in RING_ALIASES:
        return ring_new(RING_ALIASES[s])
    if s.startswith("d="):
        try:
            return ring_new(int(s[2:]))
        except ValueError as exc:
            raise ValueError(f"bad ring spec {text!r}: {exc}") from exc
    raise ValueError(f"bad ring spec {text!r}; expected 'd=<int>', 'gaussian' or 'eisenstein'")


@dataclass(frozen=True)
class RingElem:
    """Element a + b*xi of a ring Z[xi], with exact integer coordinates."""

    a: int
    b: int
    ring: RingSpec

    def _check_same_ring(self, other: "RingElem"):
        if other.ring != self.ring:
            raise ValueError(f"mixed rings: {self.ring} vs {other.ring}")

    def __add__(self, other):
        if isinstance(other, int):
            return RingElem(self.a + other, self.b, self.ring)
        self._check_same_ring(other)
        return RingElem(self.a + other.a, self.b + other.b, self.ring)

    def __sub__(self, other):
        if isinstance(other, int):
            return RingElem(self.a - other, self.b, self.ring)
        self._check_same_ring(other)
        return RingElem(self.a - other.a, self.b - other.b, self.ring)

    def __neg__(self):
        return RingElem(-self.a, -self.b, self.ring)

    def __mul__(self, other):
        if isinstance(other, int):
            return RingElem(self.a * other, self.b * other, self.ring)
        self._check_same_ring(other)
        s, t = self.ring.minpoly_coeffs
        # (a1 + b1 xi)(a2 + b2 xi) with xi^2 = s xi + t
        bb = self.b * other.b
        return RingElem(
            self.a * other.a + t * bb,
            self.a * other.b + self.b * other.a + s * bb,
            self.ring,
        )

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return (-self) + other

    def conj(self) -> "RingElem":
        """Complex conjugate, which stays in the ring."""
        if self.ring.kind is RingKind.TYPE_I:
            return RingElem(self.a, -self.b, self.ring)
        # conj(xi) = 1 - xi for type II
        return RingElem(self.a + self.b, -self.b, self.ring)

    def norm(self) -> int:
        """Algebraic norm Nr(a + b*xi) = |a + b*xi|^2, a non-negative integer."""
        p, q = self.ring.norm_form
        return self.a * self.a + p * self.a * self.b + q * self.b * self.b

    def embed(self) -> complex:
        return complex(self.a) + self.b * self.ring.xi

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __bool__(self):
        return not self.is_zero()

    def is_unit(self) -> bool:
        return self.norm() == 1

    def divide_exact(self, other: "RingElem") -> "RingElem":
        """Exact division; raises if other does not divide self in the ring."""
        self._check_same_ring(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero ring element")
        num = self * other.conj()
        den = other.norm()
        if num.a % den or num.b % den:
            raise ValueError(f"{other} does not divide {self} exactly")
        return RingElem(num.a // den, num.b // den, self.ring)

    def __str__(self):
        return f"{self.a}{self.b:+d}*xi"

    def __repr__(self):
        return f"RingElem({self.a}, {self.b}, d={self.ring.d})"


@functools.cache
def units(ring: RingSpec) -> tuple[RingElem, ...]:
    """All elements of norm 1.  Cardinality 4 for d=1, 6 for d=3, else 2.

    Found once per ring by a search of the box |a|, |b| <= 2.
    """
    found = []
    for a in range(-2, 3):
        for b in range(-2, 3):
            e = ring.elem(a, b)
            if e.norm() == 1:
                found.append(e)
    return tuple(sorted(found, key=lambda e: (e.a, e.b)))


#: |x|^2 below which 0 is the unique nearest ring element.  Every nonzero
#: element has norm >= 1, so |x| < 1/2 puts 0 strictly nearest; the margin
#: keeps that gap far above the rounding of the float distances compared in
#: the full search, so both paths agree.
ZERO_RADIUS2 = 0.25 - 1e-9


def _quantize_pair(x: complex, ring: RingSpec) -> tuple[int, int]:
    """Coordinates (a, b) of the ring element nearest to the Python complex x.

    Type I rings round componentwise on the rectangular lattice; type II rings
    take the better of the rectangular lattice Z[sqrt(-d)] and its half-shifted
    coset.  Exact distance ties prefer the lexicographically smaller (a, b).
    """
    re, im = x.real, x.imag
    if re * re + im * im < ZERO_RADIUS2:
        return 0, 0
    if not (math.isfinite(re) and math.isfinite(im)):
        raise ValueError(f"cannot quantize non-finite value {x}")
    y = im / math.sqrt(ring.d)
    u, v = math.floor(re), math.floor(y)
    if ring.kind is RingKind.TYPE_I:
        cands = [(p, q) for p in (u, u + 1) for q in (v, v + 1)]
    else:
        # rectangular points p + q*sqrt(-d) correspond to (a, b) = (p - q, 2q);
        # coset points (p + 1/2) + (q + 1/2)*sqrt(-d) to (a, b) = (p - q, 2q + 1)
        cands = [(p - q, 2 * q) for p in (u, u + 1) for q in (v, v + 1)]
        u, v = math.floor(re - 0.5), math.floor(y - 0.5)
        cands += [(p - q, 2 * q + 1) for p in (u, u + 1) for q in (v, v + 1)]
    xi = ring.xi
    _, a, b = min((abs(x - (complex(a) + b * xi)) ** 2, a, b) for a, b in cands)
    return a, b


def _quantize_pairs(x, ring: RingSpec) -> tuple:
    """_quantize_pair over a complex array: int64 arrays (a, b), equal to
    _quantize_pair entry by entry.  Entries inside the zero radius are 0."""
    x = np.asarray(x, dtype=complex)
    a = np.zeros(x.shape, dtype=np.int64)
    b = np.zeros(x.shape, dtype=np.int64)
    re, im = x.real, x.imag
    for k in np.flatnonzero(~(re * re + im * im < ZERO_RADIUS2)).tolist():
        a.flat[k], b.flat[k] = _quantize_pair(complex(x.flat[k]), ring)
    return a, b


def quantize(x: complex, ring: RingSpec) -> RingElem:
    """Nearest ring element to x in Euclidean distance.

    Exact distance ties prefer the lexicographically smaller (a, b); see
    _quantize_pair for the candidate search.
    """
    a, b = _quantize_pair(complex(x), ring)
    return RingElem(a, b, ring)


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


@dataclass(frozen=True)
class FieldMorphism:
    """Ring homomorphism f: Z[xi] -> F_p given by quotienting a prime of norm p.

    f(a + b*xi) = (a + b*xi_image) mod p, where xi_image is the root of xi's
    minimal polynomial mod p with f(modulus) = 0.
    """

    ring: RingSpec
    modulus: RingElem
    p: int
    xi_image: int

    def apply(self, x: RingElem) -> int:
        if x.ring != self.ring:
            raise ValueError("element from a different ring")
        return (x.a + x.b * self.xi_image) % self.p

    def __str__(self):
        return f"Z[xi](d={self.ring.d}) -> F_{self.p}, xi -> {self.xi_image}"


def _is_prime(n: int) -> bool:
    """Primality by trial division up to isqrt(n)."""
    return n > 1 and all(n % k for k in range(2, math.isqrt(n) + 1))


def morphism_new(ring: RingSpec, modulus: RingElem) -> FieldMorphism:
    """Build the quotient morphism Z[xi] -> F_p for a modulus a + b*xi of
    prime norm p.

    f(modulus) = 0 forces xi -> -a/b (mod p), a root of xi's minimal
    polynomial since b^2 * minpoly(-a/b) = Nr(modulus).  b is invertible:
    p | b would give Nr = a^2 (mod p), so p | a and p^2 | Nr = p.
    """
    if modulus.ring != ring:
        raise ValueError("modulus from a different ring")
    p = modulus.norm()
    if not _is_prime(p):
        raise ValueError(f"modulus norm {p} is not prime")
    return FieldMorphism(ring, modulus, p, -modulus.a * pow(modulus.b, -1, p) % p)
