"""Exact arithmetic in rings of imaginary quadratic integers Z[xi].

For a square-free d > 0 the ring of integers of Q(sqrt(-d)) is Z[xi] with
xi = sqrt(-d) when -d = 2, 3 (mod 4) ("type I") and xi = (1 + sqrt(-d))/2
when -d = 1 (mod 4) ("type II").  A ring is its d: RingSpec decides the type
once, and only xi, its minimal polynomial xi^2 = s*xi + t, the covering
radius and the quantizer read it; every other ring rule follows from xi and
(s, t).  Elements are integer pairs (a, b) meaning a + b*xi, so all ring
arithmetic is exact: _pair_mul is their one product, _pair_matmul the one
matrix product and _pair_det the one determinant.  The library builds a
RingElem only where a public name returns one.  The module also
holds the nearest-element quantizer (used by the reductions and quantize;
exact basis entries are decoded in closed form in lattices), the unit groups
and the quotient maps Z[xi] -> F_p; the geometric covering-radius and
Euclidean-set references that tests compare against live in tests/oracles.py.

Both searches on user input are bounded: d is square-free-checked by trial
division only up to d = 2**42, and a modulus norm is tested by deterministic
Miller-Rabin, exact below _MR_LIMIT (about 3.3e24); larger values are
refused with ValueError.

Each ring's quantizer is built once (_quantizer).  It rounds each coordinate
of the rectangular lattice (and of its half-shifted coset for type II), the
nearest-point decoder of Conway and Sloane for Z^2 and A_2, where that
provably keeps the nearest candidate: a type I point then is the rounded
pair, and a type II point the nearer of the two frames' points by the float
distance and tie-break of the full 4- or 8-candidate search.  Every other
input takes that full search, so the results are its own bit for bit.
The array quantizer (_quantize_pairs, which batched Gauss reduction uses)
makes the same decision in numpy wherever it provably equals the scalar
one: y, floor, the fraction and the margin test are the same single IEEE
operations in numpy as in Python, so a coordinate with one candidate gets
the same integer; a type II entry compares its two frames' candidates only
where their float distances differ by far more than the few ulp by which
numpy's and Python's hypot and squaring can part.  Every other entry goes to
the scalar quantizer, as do all entries of an array with at most _ARRAY_MIN
outside the zero radius, where the scalar loop is the cheaper one.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
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
    "morphism_new",
]

#: the imaginary quadratic rings whose algebraic norm is a Euclidean function
NORM_EUCLIDEAN_D = frozenset({1, 2, 3, 7, 11})

RING_ALIASES = {"gaussian": 1, "eisenstein": 3}


class RingKind(enum.Enum):
    TYPE_I = "I"
    TYPE_II = "II"


#: largest d a RingSpec accepts: square-freeness is decided by trial
#: division up to sqrt(d), which takes about 0.3 s at this limit
_SQUAREFREE_LIMIT = 2**42


def _is_squarefree(d: int) -> bool:
    """Whether no square k^2 > 1 divides d, by trial division; refuses d
    above _SQUAREFREE_LIMIT."""
    if d > _SQUAREFREE_LIMIT:
        raise ValueError(f"d above {_SQUAREFREE_LIMIT} is not supported, got {d}")
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

    def __post_init__(self):
        # a float would build a ring of a truncated or non-integral d, and a
        # bool would print as d=True
        object.__setattr__(self, "d", int(operator.index(self.d)))
        if self.d < 1:
            raise ValueError(f"d must be a positive integer, got {self.d}")
        if not _is_squarefree(self.d):
            raise ValueError(f"d must be square-free, got {self.d}")

    # -- derived constants ------------------------------------------------

    @functools.cached_property
    def kind(self) -> RingKind:
        """Type II when -d = 1 (mod 4), else type I; cached, as the
        quantizer reads it on every call."""
        return RingKind.TYPE_II if (-self.d) % 4 == 1 else RingKind.TYPE_I

    @functools.cached_property
    def xi(self) -> complex:
        """Embedding of the generator xi into C."""
        root = math.sqrt(self.d)
        if self.kind is RingKind.TYPE_I:
            return complex(0.0, root)
        return complex(0.5, root / 2.0)

    @property
    def det_phi(self) -> float:
        """Determinant of the embedding of Z[xi] into R^2: Im xi."""
        return self.xi.imag

    @property
    def covering_radius(self) -> float:
        """Maximum distance from a complex number to the nearest ring element."""
        if self.kind is RingKind.TYPE_I:
            return math.sqrt(1.0 + self.d) / 2.0
        return (self.d + 1) / (4.0 * math.sqrt(self.d))

    @property
    def euclidean(self) -> bool:
        return self.d in NORM_EUCLIDEAN_D

    @functools.cached_property
    def minpoly_coeffs(self) -> tuple[int, int]:
        """(s, t) such that xi^2 = s*xi + t with integer s, t; cached, as
        ring size reduction reads it on every step."""
        if self.kind is RingKind.TYPE_I:
            return 0, -self.d
        return 1, -((1 + self.d) // 4)

    @functools.cached_property
    def norm_form(self) -> tuple[int, int]:
        """(p, q) such that Nr(a + b*xi) = a^2 + p*a*b + q*b^2: (s, -t), as
        xi + conj(xi) = s and xi * conj(xi) = -t."""
        s, t = self.minpoly_coeffs
        return s, -t

    # -- element constructors ---------------------------------------------

    def elem(self, a: int, b: int = 0) -> "RingElem":
        """a + b*xi; a coordinate operator.index refuses raises TypeError."""
        return RingElem(int(operator.index(a)), int(operator.index(b)), self)

    @property
    def zero(self) -> "RingElem":
        return self.elem(0, 0)

    @property
    def one(self) -> "RingElem":
        return self.elem(1, 0)

    def __str__(self):
        return f"d={self.d}"

    def __repr__(self):
        return f"RingSpec(d={self.d}, kind={self.kind.value})"


def ring_new(d: int) -> RingSpec:
    """Build the ring of integers of Q(sqrt(-d)); RingSpec rejects a d that
    operator.index refuses (a float), d < 1, non-square-free d and d above
    its supported limit."""
    return RingSpec(d)


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


def _pair_mul(p, q, s: int, t: int) -> tuple:
    """(a1 + b1*xi)(a2 + b2*xi) as an (a, b) pair, with xi^2 = s*xi + t."""
    (a1, b1), (a2, b2) = p, q
    bb = b1 * b2
    return a1 * a2 + t * bb, a1 * b2 + b1 * a2 + s * bb


def _pair_matmul(x, y, s: int, t: int) -> tuple:
    """(A1 + xi*B1) @ (A2 + xi*B2) for x = (A1, B1), y = (A2, B2), object
    arrays of Python ints, as an (A, B) pair; _pair_mul entrywise."""
    (a1, b1), (a2, b2) = x, y
    bb = b1 @ b2
    return a1 @ a2 + t * bb, a1 @ b2 + b1 @ a2 + s * bb


def _pair_det(rows, ring: RingSpec) -> tuple:
    """Determinant of the square matrix with these rows of (a, b) pairs, as
    an (a, b) pair, by Bareiss elimination (Math. Comp. 22, 1968).  Its
    divisions by the previous pivot are exact: a product with the pivot's
    conjugate ca + cb*xi, then integer division by its norm."""
    s, t = ring.minpoly_coeffs
    p, q = ring.norm_form
    m = [list(row) for row in rows]
    n, sign, ca, cb, norm = len(m), 1, 1, 0, 1
    for k in range(n - 1):
        if m[k][k] == (0, 0):
            i = next((i for i in range(k + 1, n) if m[i][k] != (0, 0)), None)
            if i is None:
                return 0, 0
            m[k], m[i], sign = m[i], m[k], -sign
        head = m[k]
        pa, pb = head[k]
        for row in m[k + 1 :]:
            xa, xb = row[k]
            for j in range(k + 1, n):
                (ya, yb), (za, zb) = row[j], head[j]
                # row[j] * pivot - row[k] * head[j], then times ca + cb*xi
                bb = yb * pb - xb * zb
                a = ya * pa - xa * za + t * bb
                b = ya * pb + yb * pa - xa * zb - xb * za + s * bb
                bb = b * cb
                row[j] = (a * ca + t * bb) // norm, (a * cb + b * ca + s * bb) // norm
        ca, cb, norm = pa + s * pb, -pb, pa * pa + p * pa * pb + q * pb * pb
    a, b = m[-1][-1]
    return (a, b) if sign == 1 else (-a, -b)


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
        a, b = _pair_mul((self.a, self.b), (other.a, other.b), *self.ring.minpoly_coeffs)
        return RingElem(a, b, self.ring)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return (-self) + other

    def conj(self) -> "RingElem":
        """Complex conjugate, which stays in the ring: conj(xi) = s - xi."""
        s, _ = self.ring.minpoly_coeffs
        return RingElem(self.a + s * self.b, -self.b, self.ring)

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


#: a coordinate rounds to one candidate integer when its fractional part is
#: farther than _ROUND_MARGIN from 1/2 and |re|, |im / sqrt(d)| and d are all
#: below _ROUND_BOUND; otherwise both neighbours stay candidates
_ROUND_MARGIN = 2.0**-16
_ROUND_BOUND = 2.0**20


@functools.cache
def _quantizer(ring: RingSpec):
    """The nearest-element quantizer of ring, built once per ring: a function
    x -> (a, b) for a Python complex x, which _quantize_pair calls.  sqrt(d),
    xi, the ring kind and the rounding bound are its locals.

    Each frame's coordinates, re and y = im/sqrt(d) (re - 1/2 and y - 1/2 in
    the coset for type II), round to one candidate integer when |re|, |y| and
    d are below _ROUND_BOUND and the coordinate is farther than _ROUND_MARGIN
    from a half-integer.  When every frame coordinate does, the result comes
    directly: the rounded pair for type I, the nearer of the two frames'
    points by float distance and the (dist, a, b) tie-break for type II.
    Every other x goes to _full_search, which scores all 4 or 8 candidates.
    """
    root, xi = math.sqrt(ring.d), ring.xi
    type1 = ring.kind is RingKind.TYPE_I
    # no coordinate rounds to one candidate when d is not below the bound
    bound = _ROUND_BOUND if ring.d < _ROUND_BOUND else 0.0
    floor, isfinite, margin = math.floor, math.isfinite, _ROUND_MARGIN

    def quantize_pair(x: complex) -> tuple[int, int]:
        re, im = x.real, x.imag
        if re * re + im * im < ZERO_RADIUS2:
            return 0, 0
        if not (isfinite(re) and isfinite(im)):
            raise ValueError(f"cannot quantize non-finite value {x}")
        y = im / root
        if abs(re) < bound and abs(y) < bound:
            u, v = floor(re), floor(y)
            f, g = re - u, y - v
            if abs(f - 0.5) > margin and abs(g - 0.5) > margin:
                p = u if f < 0.5 else u + 1
                q = v if g < 0.5 else v + 1
                if type1:
                    return p, q
                t, w = re - 0.5, y - 0.5
                u, v = floor(t), floor(w)
                f, g = t - u, w - v
                if abs(f - 0.5) > margin and abs(g - 0.5) > margin:
                    # the rectangular point p + q*sqrt(-d) is (p - q, 2q), the
                    # coset point (r + 1/2) + (s + 1/2)*sqrt(-d) is (r - s, 2s + 1)
                    r = u if f < 0.5 else u + 1
                    s = v if g < 0.5 else v + 1
                    a0, b0, a1, b1 = p - q, 2 * q, r - s, 2 * s + 1
                    d0 = abs(x - (complex(a0) + b0 * xi)) ** 2
                    d1 = abs(x - (complex(a1) + b1 * xi)) ** 2
                    if d1 < d0 or (d1 == d0 and (a1, b1) < (a0, b0)):
                        return a1, b1
                    return a0, b0
        return _full_search(x, re, y, xi, type1)

    return quantize_pair


def _full_search(x: complex, re: float, y: float, xi: complex, type1: bool) -> tuple[int, int]:
    """The nearest of all 4 (type I) or 8 (type II) candidates floor(t) and
    floor(t) + 1 of each frame coordinate, by float distance, exact ties to
    the smaller (a, b): the search of tests/quantize_reference.py."""
    u, v = math.floor(re), math.floor(y)
    if type1:
        cands = [(p, q) for p in (u, u + 1) for q in (v, v + 1)]
    else:
        # rectangular points p + q*sqrt(-d) correspond to (a, b) = (p - q, 2q);
        # coset points (p + 1/2) + (q + 1/2)*sqrt(-d) to (a, b) = (p - q, 2q + 1)
        cands = [(p - q, 2 * q) for p in (u, u + 1) for q in (v, v + 1)]
        u, v = math.floor(re - 0.5), math.floor(y - 0.5)
        cands += [(p - q, 2 * q + 1) for p in (u, u + 1) for q in (v, v + 1)]
    _, a, b = min((abs(x - (complex(a) + b * xi)) ** 2, a, b) for a, b in cands)
    return a, b


def _quantize_pair(x: complex, ring: RingSpec) -> tuple[int, int]:
    """Coordinates (a, b) of the ring element nearest to the Python complex x:
    _quantizer(ring)(x), the one scalar quantizer.

    Type I rings round componentwise on the rectangular lattice; type II rings
    take the better of the rectangular lattice Z[sqrt(-d)] and its half-shifted
    coset.  Exact distance ties prefer the lexicographically smaller (a, b).

    Rounding a frame coordinate t to one candidate drops the farther of
    floor(t) and floor(t) + 1, and the result is that of scoring all 4 or 8
    candidates bit for bit, because a dropped candidate is strictly farther in
    float distance than the kept one that shares its other coordinate.  Along
    re the two share the float im - Im(b*xi), re - Re(a + b*xi) is exact, and
    their exact squared distances differ by at least 2*margin = 2**-15, while
    hypot and squaring at |re|, |y|, d < 2**20 are off by a few ulp of values
    below 2**21, about 2**-32.  Along y the gap is at least 2*d*margin, and the
    rounding of y and of b*xi adds at most about d*2**-31.  d is bounded as
    well: near d = 2**40 a squared distance's ulp exceeds 2*margin and ties
    appear.
    """
    return _quantizer(ring)(x)


#: relative gap between the rectangular and coset squared distances above
#: which numpy's order of the two is Python's: hypot and squaring in either
#: are off by a few ulp, about 2**-50 relative
_FRAME_GAP = 2.0**-30


#: live entries up to which _quantize_pairs loops over _quantize_pair: a
#: scalar call costs about 1 (type I) to 2 (type II) us, the array path
#: about 20 to 45 us whatever the size
_ARRAY_MIN = 8


def _quantize_pairs(x, ring: RingSpec) -> tuple:
    """_quantize_pair over a complex array: int64 arrays (a, b), equal to
    _quantize_pair entry by entry.  Entries inside the zero radius are 0.
    Above _ARRAY_MIN entries outside it, _round_frames decides in numpy the
    entries where numpy provably rounds as Python does; every other entry
    goes to _quantize_pair."""
    x = np.asarray(x, dtype=complex)
    re, im = x.real, x.imag
    live = ~(re * re + im * im < ZERO_RADIUS2)
    a = np.zeros(x.shape, dtype=np.int64)
    b = np.zeros(x.shape, dtype=np.int64)
    if np.count_nonzero(live) > _ARRAY_MIN:
        one, ka, kb = _round_frames(x, live, ring)
        a[one], b[one] = ka, kb
        live &= ~one
    for k in np.flatnonzero(live).tolist():
        a.flat[k], b.flat[k] = _quantize_pair(complex(x.flat[k]), ring)
    return a, b


def _round_frames(x: np.ndarray, live: np.ndarray, ring: RingSpec) -> tuple:
    """(one, a, b): the live entries of x decided in numpy, as a mask, and
    their coordinates, each equal to _quantize_pair's.

    y, the safe mask and the floor, fraction and margin test are the same
    single IEEE operations in numpy as in _quantizer's function, so a
    coordinate with one candidate gets the scalar one exactly.  A type I
    entry with one candidate per coordinate is that candidate.  A type II
    entry with one candidate per frame is the nearer of the two where their
    squared distances differ by more than _FRAME_GAP relative, so numpy
    orders them as Python does."""
    finite = np.isfinite(x)  # a non-finite entry is never inside the zero radius
    if not finite.all():
        bad = complex(x[~finite][0])
        raise ValueError(f"cannot quantize non-finite value {bad}")
    re, y = x.real, x.imag / math.sqrt(ring.d)
    type1 = ring.kind is RingKind.TYPE_I
    # rows: the re coordinates, then the y coordinates, of the rectangular
    # frame and, for type II, of the coset (re - 1/2, y - 1/2)
    t = np.array((re, y) if type1 else (re, re - 0.5, y, y - 0.5))
    u = np.floor(t)
    f = t - u
    one = (np.abs(f - 0.5) > _ROUND_MARGIN).all(axis=0)
    one &= live & (np.abs(re) < _ROUND_BOUND) & (np.abs(y) < _ROUND_BOUND)
    if ring.d >= _ROUND_BOUND:
        one[...] = False
    p, q = (u[:, one] + (f[:, one] >= 0.5)).astype(np.int64).reshape(2, len(t) // 2, -1)
    if type1:
        return one, p[0], q[0]
    # rectangular points p + q*sqrt(-d) are (a, b) = (p - q, 2q); coset
    # points (p + 1/2) + (q + 1/2)*sqrt(-d) are (p - q, 2q + 1)
    a, b = p - q, 2 * q
    b[1] += 1
    dist = np.abs(x[one] - (a + b * ring.xi)) ** 2
    sure = np.abs(dist[0] - dist[1]) > _FRAME_GAP * dist.max(axis=0)
    pick = (dist[1] < dist[0])[sure].astype(np.int64)
    cols = np.flatnonzero(sure)
    one[one] = sure
    return one, a[pick, cols], b[pick, cols]


def quantize(x: complex, ring: RingSpec) -> RingElem:
    """Nearest ring element to x in Euclidean distance.

    Exact distance ties prefer the lexicographically smaller (a, b); see
    _quantize_pair for the candidate search.
    """
    a, b = _quantize_pair(complex(x), ring)
    return RingElem(a, b, ring)


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


#: the first 13 primes.  A strong probable prime to all of them is prime
#: below _MR_LIMIT, the least strong pseudoprime to all 13 (Sorenson and
#: Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 86,
#: 2017); the first 12 alone fail at 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on _MR_BASES; refuses n >= _MR_LIMIT,
    where those bases no longer decide."""
    if n >= _MR_LIMIT:
        raise ValueError(f"cannot decide whether {n} >= {_MR_LIMIT} is prime")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for a in _MR_BASES:
        x = pow(a, odd, n)
        if x in (1, n - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


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
