"""Compute-and-forward: channel lattices, rates, and coefficient design.

A relay observing y = sum_l h_l x_l + z decodes an integer combination with
ring coefficients a; the achievable computation rate is
log2+(1 / a^H (I + P h h^H)^-1 a).  Squared lengths in the lattice spanned by
a basis B with B^H B = (I + P h h^H)^-1 equal that quadratic form, so short
vectors are high-rate coefficients and lattice reduction designs whole
unimodular coefficient matrices at once.  Unimodularity guarantees the mapped
matrix is invertible over the finite field used by the code space.

The strategies of one relay share their per-channel work (design_relays):
the Gram matrix I + P h h^H and its inverse, the channel basis, and one ALLL
reduction per distinct delta.  The svp design enumerates from the ALLL
reduction at 0.99, whatever delta the alll design uses.  The channel basis
is validated in closed form: its condition number is sqrt(1 + P ||h||^2)
for n >= 2 and 1 for n = 1, so no SVD runs.

The designs run on the reductions' integer coordinates.  Each candidate
coefficient vector is a tuple of (a, b) pairs, and a design's candidates
get their rates in one stacked pass over the C-contiguous (k, n) complex
array U of their embeddings (_rates); computation_rate is the stack of one.
RelayDesign builds its RingElem vectors and its RingMatrix on first read.

One elimination over F_p (_eliminate_mod_p) gives the rank and determinant
of a matrix given as rows of (a, b) pairs; rank_mod_p maps its RingMatrix
entries to pairs first, and transmission_rate and the experiments score the
designs' pairs directly.  The MAC rate floor and the per-vector rate
that tests hold the designs to are in tests/oracles.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattices import MAX_CONDITION, ComplexBasis, RingMatrix, coeff_to_complex, embed
from .reduction import _lll_z, _quiet, alll_reduce
from .rings import FieldMorphism, RingSpec, morphism_new
from .svp import PREPROCESS_DELTA, _elems, _svp

__all__ = [
    "Channel",
    "RelayDesign",
    "NetworkDesign",
    "STRATEGIES",
    "STRATEGY_ALIASES",
    "cf_basis",
    "computation_rate",
    "design_relay",
    "design_relays",
    "transmission_rate",
    "rank_mod_p",
    "default_morphism",
    "random_channel",
    "db_to_linear",
]

#: accepted strategy names; best_single is an alias of svp
STRATEGIES = ("alll", "rlll", "svp", "best_single")
#: the strategy whose design each alias runs
STRATEGY_ALIASES = {"best_single": "svp"}


def db_to_linear(p_db: float) -> float:
    try:
        return 10.0 ** (p_db / 10.0)
    except OverflowError:
        raise ValueError(f"SNR of {p_db} dB overflows a float") from None


@dataclass(frozen=True)
class Channel:
    """Complex channel vector of one relay with linear-scale SNR P."""

    h: np.ndarray
    p: float

    def __post_init__(self):
        h = np.array(self.h, dtype=complex)
        if h.ndim != 1:
            raise ValueError("channel must be a vector")
        if not np.all(np.isfinite(h.view(float))):
            raise ValueError("channel has non-finite entries")
        if not (self.p > 0 and math.isfinite(self.p)):
            raise ValueError(f"SNR must be positive and finite, got {self.p}")
        h.setflags(write=False)
        object.__setattr__(self, "h", h)

    @classmethod
    def from_db(cls, h, p_db: float) -> "Channel":
        return cls(np.array(h, dtype=complex), db_to_linear(p_db))

    @property
    def n(self) -> int:
        return self.h.shape[0]

    def gram(self) -> np.ndarray:
        """I + P h h^H, built once per channel and returned read-only."""
        return self._gram

    @cached_property
    def _gram(self) -> np.ndarray:
        h = self.h[:, None]
        g = np.eye(self.n) + self.p * (h @ h.conj().T)
        g.setflags(write=False)
        return g

    @cached_property
    def _gram_inv(self) -> np.ndarray:
        """(I + P h h^H)^-1, the matrix of every rate denominator (_rates)."""
        return np.linalg.inv(self._gram)


def random_channel(n: int, p_linear: float, rng) -> Channel:
    """Circularly-symmetric complex Gaussian channel, unit total variance."""
    h = math.sqrt(0.5) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return Channel(h, p_linear)


def _basis_condition(ch: Channel) -> float:
    """cond(B) of the channel basis B in closed form.  B^H B = M^-1 and M =
    I + P h h^H has the eigenvalue 1 + P ||h||^2 once and 1 n - 1 times, so
    cond(B) = sqrt(1 + P ||h||^2) for n >= 2 and 1 for n = 1."""
    if ch.n == 1:
        return 1.0
    return math.sqrt(1.0 + ch.p * float(np.vdot(ch.h, ch.h).real))


def cf_basis(ch: Channel, ring: RingSpec) -> ComplexBasis:
    """Basis B with B^H B = (I + P h h^H)^-1, so ||B a||^2 is the rate denominator.

    B is validated by its closed-form condition number (_basis_condition)
    against MAX_CONDITION, the limit ComplexBasis applies, and built with
    ComplexBasis._derived, which checks only that its entries are finite.
    """
    if ch.n == 0:
        raise ValueError("basis must be square and non-empty, got shape (0, 0)")
    M = ch.gram()
    L = np.linalg.cholesky(M)
    B = np.linalg.inv(L)  # lower triangular inverse; B^H B = M^-1
    if not _basis_condition(ch) <= MAX_CONDITION:
        raise ValueError("basis columns are numerically dependent")
    return ComplexBasis._derived(B, ring)


def _embed_pairs(vectors, xi: complex) -> np.ndarray:
    """The C-contiguous (k, n) complex array of k vectors of n (a, b) pairs,
    each entry a + b*xi as RingElem.embed computes it."""
    return np.array([[complex(a) + b * xi for a, b in v] for v in vectors], dtype=complex)


def _rates(ch: Channel, U: np.ndarray) -> list[float]:
    """log2+(1 / u^H M^-1 u) for each row u of a C-contiguous (k, n) complex
    array U, on the cached M^-1, in one stacked pass.

    The stacked M^-1 @ U[..., None] and np.vecdot equal the per-vector
    a.conj() @ (M^-1 @ a) bit for bit; the 2-D M^-1 @ U.T and a transposed,
    non-contiguous U do not.
    """
    dens = np.vecdot(U, (ch._gram_inv @ U[..., None])[..., 0]).real.tolist()
    rates = []
    for den in dens:
        if den <= 0:
            raise ValueError(f"rate denominator must be positive, got {den}")
        rates.append(max(0.0, math.log2(1.0 / den)))
    return rates


def computation_rate(ch: Channel, coeff) -> float:
    """log2+(1 / a^H (I + P h h^H)^-1 a) in bits, for a ring coefficient vector."""
    a = coeff_to_complex(coeff)
    if not np.any(a):
        raise ValueError("coefficient vector must be nonzero")
    return _rates(ch, a[None])[0]


def _rows(cols) -> tuple:
    """The rows of the square matrix with the given columns."""
    return tuple(zip(*cols))


@dataclass
class RelayDesign:
    """One relay's candidate coefficient vectors, sorted by descending rate.

    pairs holds the candidates as tuples of (a, b) pairs, entry i of a
    vector being a + b*xi.  vectors (tuples of RingElem), best_vector and
    matrix (the unimodular RingMatrix whose columns are the vectors, for
    the alll design; None for the others) are built from them on first read.
    """

    channel: Channel
    ring: RingSpec
    strategy: str
    pairs: list
    rates: list
    swaps: int
    first_norm: float

    @property
    def best_rate(self) -> float:
        return self.rates[0]

    @property
    def has_matrix(self) -> bool:
        """Whether the candidates form a unimodular matrix (the alll design)."""
        return self.strategy == "alll"

    @cached_property
    def vectors(self) -> list:
        return [_elems(self.ring, v) for v in self.pairs]

    @property
    def best_vector(self):
        return self.vectors[0]

    @cached_property
    def matrix(self) -> RingMatrix | None:
        if not self.has_matrix:
            return None
        return RingMatrix.from_int_rows(_rows(self.pairs), self.ring)


@dataclass
class NetworkDesign:
    matrices: list
    chosen_index: int
    rate: float
    field_rank_ok: bool
    det_commutes: bool


def design_relays(
    ch: Channel,
    ring: RingSpec,
    strategies,
    delta: float = 0.99,
) -> dict[str, RelayDesign]:
    """Design one relay for each requested strategy, keyed by strategy name.

    The strategies share the channel's cached Gram inverse, the
    validated basis from cf_basis and one alll_reduce per distinct delta.
    alll / rlll return every transform column sorted by descending rate (for
    alll the columns form a unimodular ring matrix, reduced at delta); svp
    and its alias best_single return the single highest-rate coefficient,
    enumerated from the ALLL reduction at 0.99 whatever delta is, as in
    shortest_vector.
    """
    for s in strategies:
        if s not in STRATEGIES:
            raise ValueError(f"unknown strategy {s!r}; expected one of {STRATEGIES}")
    basis = cf_basis(ch, ring)
    n = ch.n
    reductions = {}

    def reduced_at(dl: float):
        if dl not in reductions:
            with _quiet():
                reductions[dl] = alll_reduce(basis, delta=dl)
        return reductions[dl]

    # per canonical strategy: (pairs, rates, swaps, first_norm), sorted by
    # descending rate
    parts = {}
    for c in dict.fromkeys(STRATEGY_ALIASES.get(s, s) for s in strategies):
        swaps = 0
        if c == "alll":
            rep = reduced_at(delta)
            cands = [tuple(zip(a, b)) for a, b in zip(*rep.coords)]
            swaps = rep.swaps
        elif c == "rlll":
            # column j of the transform is [x_a; x_b] in the embed layout
            _, ua, swaps = _lll_z(embed(basis), delta)
            cands = [tuple(zip(col[:n], col[n:])) for col in ua]
        else:  # svp: the single best equation
            cands = [_svp(reduced_at(PREPROCESS_DELTA))[0]]
        U = _embed_pairs(cands, ring.xi)
        rates = _rates(ch, U)
        order = sorted(range(len(cands)), key=lambda i: -rates[i])
        first_norm = float(np.linalg.norm(basis.matrix @ U[order[0]]))
        parts[c] = [cands[i] for i in order], [rates[i] for i in order], swaps, first_norm
    designs = {}
    for s in strategies:
        pairs, rates, swaps, first_norm = parts[STRATEGY_ALIASES.get(s, s)]
        designs[s] = RelayDesign(ch, ring, s, list(pairs), list(rates), swaps, first_norm)
    return designs


def design_relay(
    ch: Channel,
    ring: RingSpec,
    strategy: str = "alll",
    delta: float = 0.99,
) -> RelayDesign:
    """Design candidate coefficient vectors for one relay with one strategy.

    This is design_relays(ch, ring, (strategy,), delta)[strategy]: svp and
    best_single enumerate from the ALLL reduction at 0.99 whatever delta is.
    """
    return design_relays(ch, ring, (strategy,), delta)[strategy]


def _eliminate_mod_p(rows, morphism: FieldMorphism) -> tuple[int, int]:
    """Forward elimination over F_p of a square matrix given as rows of
    (a, b) pairs, each entry mapped to (a + b*f(xi)) mod p: (rank, det)."""
    p, image = morphism.p, morphism.xi_image
    a = [[(ea + eb * image) % p for ea, eb in row] for row in rows]
    n = len(a)
    rank = 0
    det = 1
    for col in range(n):
        pivot = next((r for r in range(rank, n) if a[r][col]), None)
        if pivot is None:
            det = 0
            continue
        if pivot != rank:
            a[rank], a[pivot] = a[pivot], a[rank]
            det = -det
        det = det * a[rank][col] % p
        inv = pow(a[rank][col], -1, p)
        for r in range(rank + 1, n):
            f = a[r][col] * inv % p
            if f:
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank, det % p


def rank_mod_p(matrix: RingMatrix, morphism: FieldMorphism) -> int:
    """Rank of the entrywise-mapped matrix over F_p."""
    if matrix.ring != morphism.ring:
        raise ValueError("element from a different ring")
    return _eliminate_mod_p([[(e.a, e.b) for e in row] for row in matrix.entries], morphism)[0]


def default_morphism(ring: RingSpec) -> FieldMorphism:
    """Stock quotient map: F_5 for the Gaussian integers, F_7 for Eisenstein."""
    if ring.d in (1, 3):
        return morphism_new(ring, ring.elem(2, 1))
    raise ValueError(
        f"no default morphism for d={ring.d}; supply a modulus of prime norm"
    )


def _candidate_rows(designs) -> list:
    """Candidate coefficient matrices of one network as rows of (a, b)
    pairs, column l for relay l.

    There must be one design per channel dimension.  Designs with a matrix
    (alll) offer their unimodular matrices; designs without one (rlll, svp)
    are single-equation designs and offer the stack of their best vectors.
    """
    if len(designs) != designs[0].channel.n:
        raise ValueError(f"need one relay design per channel dimension, got {len(designs)}")
    if all(d.has_matrix for d in designs):
        return [_rows(d.pairs) for d in designs]
    if any(d.has_matrix for d in designs):
        raise ValueError("mixed candidate kinds; use one strategy per network")
    return [_rows([d.pairs[0] for d in designs])]


def transmission_rate(designs: list, morphism: FieldMorphism) -> NetworkDesign:
    """Pick the candidate coefficient matrix with the best min-over-relays rate.

    Candidates (_candidate_rows) that are rank-deficient over F_p are
    discarded; for unimodular candidates this never happens, and the
    determinant-morphism commutation f(det A) = det f(A) is checked on the
    chosen matrix.
    """
    if not designs:
        raise ValueError("need at least one relay design")
    n = designs[0].channel.n
    if any(d.channel.n != n for d in designs):
        raise ValueError("relay designs have mismatched sizes")

    ring = designs[0].ring
    if morphism.ring != ring:
        raise ValueError("element from a different ring")
    rows = _candidate_rows(designs)
    candidates = [RingMatrix.from_int_rows(r, ring) for r in rows]
    rates = [
        min(computation_rate(designs[l].channel, cand.column(l)) for l in range(n))
        for cand in candidates
    ]
    # (rank, det) over F_p of each candidate, from one elimination each
    field = [_eliminate_mod_p(r, morphism) for r in rows]

    usable = [i for i in range(len(candidates)) if field[i][0] == n]
    if not usable:
        raise ValueError("every candidate matrix is rank-deficient over F_p")
    chosen = max(usable, key=lambda i: rates[i])
    commutes = morphism.apply(candidates[chosen].det()) == field[chosen][1]
    return NetworkDesign(candidates, chosen, rates[chosen], True, commutes)
