"""Compute-and-forward: channel lattices, rates, and coefficient design.

A relay observing y = sum_l h_l x_l + z decodes an integer combination with
ring coefficients a; the achievable computation rate is
log2+(1 / a^H (I + P h h^H)^-1 a).  Squared lengths in the lattice spanned by
a basis B with B^H B = (I + P h h^H)^-1 equal that quadratic form, so short
vectors are high-rate coefficients and lattice reduction designs whole
unimodular coefficient matrices at once.  Unimodularity guarantees the mapped
matrix is invertible over the finite field used by the code space.

The strategies of one relay share their per-channel work (design_relays):
the Gram matrix I + P h h^H and its inverse, the validated channel basis, and
one ALLL reduction per distinct delta.  The svp design enumerates from the
ALLL reduction at 0.99, whatever delta the alll design uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattices import (
    ComplexBasis,
    RingMatrix,
    coeff_to_complex,
    embed,
    fold_real_column,
    hermite_constant_2n,
)
from .reduction import _quiet, alll_reduce, real_lll, reduction_epsilon
from .rings import FieldMorphism, RingSpec, morphism_new
from .svp import PREPROCESS_DELTA, _svp

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
    "det_mod_p",
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
        """(I + P h h^H)^-1, the matrix of every rate denominator (_rate)."""
        return np.linalg.inv(self._gram)


def random_channel(n: int, p_linear: float, rng) -> Channel:
    """Circularly-symmetric complex Gaussian channel, unit total variance."""
    h = math.sqrt(0.5) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return Channel(h, p_linear)


def cf_basis(ch: Channel, ring: RingSpec) -> ComplexBasis:
    """Basis B with B^H B = (I + P h h^H)^-1, so ||B a||^2 is the rate denominator."""
    M = ch.gram()
    L = np.linalg.cholesky(M)
    B = np.linalg.inv(L)  # lower triangular inverse; B^H B = M^-1
    return ComplexBasis(B, ring)


def _rate(ch: Channel, a: np.ndarray) -> float:
    """log2+(1 / a^H M^-1 a) of a complex vector a on the cached M^-1."""
    den = float(np.real(a.conj() @ (ch._gram_inv @ a)))
    if den <= 0:
        raise ValueError(f"rate denominator must be positive, got {den}")
    return max(0.0, math.log2(1.0 / den))


def computation_rate(ch: Channel, coeff) -> float:
    """log2+(1 / a^H (I + P h h^H)^-1 a) in bits, for a ring coefficient vector."""
    a = coeff_to_complex(coeff)
    if not np.any(a):
        raise ValueError("coefficient vector must be nonzero")
    return _rate(ch, a)


@dataclass
class RelayDesign:
    """One relay's candidate coefficient vectors, sorted by descending rate."""

    channel: Channel
    ring: RingSpec
    strategy: str
    vectors: list
    rates: list
    matrix: RingMatrix | None
    swaps: int
    first_norm: float

    @property
    def best_rate(self) -> float:
        return self.rates[0]

    @property
    def best_vector(self):
        return self.vectors[0]


@dataclass
class NetworkDesign:
    matrices: list
    chosen_index: int
    rate: float
    field_rank_ok: bool
    det_commutes: bool

    @property
    def chosen_matrix(self) -> RingMatrix:
        return self.matrices[self.chosen_index]


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
    reductions = {}

    def reduced_at(dl: float):
        if dl not in reductions:
            with _quiet():
                reductions[dl] = alll_reduce(basis, delta=dl)
        return reductions[dl]

    def ranked(cols):
        """Columns and their rates, sorted by descending rate."""
        rates = [_rate(ch, coeff_to_complex(c)) for c in cols]
        order = sorted(range(len(cols)), key=lambda i: -rates[i])
        return [cols[i] for i in order], [rates[i] for i in order]

    # per canonical strategy: (vectors, rates, matrix, swaps, first_norm)
    parts = {}
    for c in dict.fromkeys(STRATEGY_ALIASES.get(s, s) for s in strategies):
        matrix, swaps = None, 0
        if c == "alll":
            rep = reduced_at(delta)
            vectors, rates = ranked(rep.transform.columns())
            matrix, swaps = RingMatrix.from_columns(vectors, ring), rep.swaps
        elif c == "rlll":
            _, T, swaps = real_lll(embed(basis), delta=delta)
            vectors, rates = ranked([fold_real_column(T[:, j], ring) for j in range(T.shape[1])])
        else:  # svp: the single best equation
            vectors, rates = ranked([_svp(reduced_at(PREPROCESS_DELTA))[0]])
        first_norm = float(np.linalg.norm(basis.matrix @ coeff_to_complex(vectors[0])))
        parts[c] = vectors, rates, matrix, swaps, first_norm
    designs = {}
    for s in strategies:
        vectors, rates, matrix, swaps, first_norm = parts[STRATEGY_ALIASES.get(s, s)]
        designs[s] = RelayDesign(ch, ring, s, list(vectors), list(rates), matrix, swaps, first_norm)
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


def _eliminate_mod_p(matrix: RingMatrix, morphism: FieldMorphism) -> tuple[int, int]:
    """Forward elimination of the entrywise-mapped matrix over F_p: (rank, det)."""
    p = morphism.p
    a = [[morphism.apply(e) for e in row] for row in matrix.entries]
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
    return _eliminate_mod_p(matrix, morphism)[0]


def det_mod_p(matrix: RingMatrix, morphism: FieldMorphism) -> int:
    """Determinant of the mapped matrix over F_p."""
    return _eliminate_mod_p(matrix, morphism)[1]


def default_morphism(ring: RingSpec) -> FieldMorphism:
    """Stock quotient map: F_5 for the Gaussian integers, F_7 for Eisenstein."""
    if ring.d in (1, 3):
        return morphism_new(ring, ring.elem(2, 1))
    raise ValueError(
        f"no default morphism for d={ring.d}; supply a modulus of prime norm"
    )


def _candidate_matrices(designs) -> list:
    """Candidate coefficient matrices of one network, column l for relay l.

    There must be one design per channel dimension.  Designs with a matrix
    (alll) offer their unimodular matrices; designs without one (rlll, svp)
    are single-equation designs and offer the stack of their best vectors.
    """
    if len(designs) != designs[0].channel.n:
        raise ValueError(f"need one relay design per channel dimension, got {len(designs)}")
    if all(d.matrix is not None for d in designs):
        return [d.matrix for d in designs]
    if any(d.matrix is not None for d in designs):
        raise ValueError("mixed candidate kinds; use one strategy per network")
    return [RingMatrix.from_columns([d.best_vector for d in designs], designs[0].ring)]


def transmission_rate(designs: list, morphism: FieldMorphism) -> NetworkDesign:
    """Pick the candidate coefficient matrix with the best min-over-relays rate.

    Candidates (_candidate_matrices) that are rank-deficient over F_p are
    discarded; for unimodular candidates this never happens, and the
    determinant-morphism commutation f(det A) = det f(A) is checked on the
    chosen matrix.
    """
    if not designs:
        raise ValueError("need at least one relay design")
    n = designs[0].channel.n
    if any(d.channel.n != n for d in designs):
        raise ValueError("relay designs have mismatched sizes")

    candidates = _candidate_matrices(designs)
    rates = [
        min(computation_rate(designs[l].channel, cand.column(l)) for l in range(n))
        for cand in candidates
    ]
    # (rank, det) over F_p of each candidate, from one elimination each
    field = [_eliminate_mod_p(cand, morphism) for cand in candidates]

    usable = [i for i in range(len(candidates)) if field[i][0] == n]
    if not usable:
        raise ValueError("every candidate matrix is rank-deficient over F_p")
    chosen = max(usable, key=lambda i: rates[i])
    commutes = morphism.apply(candidates[chosen].det()) == field[chosen][1]
    return NetworkDesign(candidates, chosen, rates[chosen], True, commutes)


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
