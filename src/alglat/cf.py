"""Compute-and-forward: channel lattices, rates, and coefficient design.

A relay observing y = sum_l h_l x_l + z decodes an integer combination with
ring coefficients a; the achievable computation rate is
log2+(1 / a^H (I + P h h^H)^-1 a).  Squared lengths in the lattice spanned by
a basis B with B^H B = (I + P h h^H)^-1 equal that quadratic form, so short
vectors are high-rate coefficients and lattice reduction designs whole
unimodular coefficient matrices at once.  Unimodularity guarantees the mapped
matrix is invertible over the finite field used by the code space.

The channel basis B is the inverse Cholesky factor of the rank-one update
I + P h h^H in closed form (_bases, and Channel._basis, its stack of one):
no entry cancels, and every rate denominator is ||B a||^2.  The strategies
of one relay share B and one ALLL reduction per distinct delta.  The svp
design enumerates from the ALLL reduction at 0.99, whatever delta the alll
design uses.  cf_basis validates B in closed form: its condition number is
sqrt(1 + P ||h||^2) for n >= 2 and 1 for n = 1, so no SVD runs.

The relays of one network trial are designed as one stack (_design_stack;
design_relays is its stack of one): their bases and one rate pass run once
on the (N, n, n) stack, the rlll design is one call of the LLL over Z
(reduction._lll) on the stack of their embeddings, and the svp design one
call of the enumeration (svp._svp) on the list of their ALLL reports; each
of those searches owns its frame, its rank-1 rule and its map back.  Only
the ALLL reductions run per relay.  Each step gives every relay the bits it
gets alone.

The designs run on the reductions' integer coordinates.  Each candidate
coefficient vector is a tuple of (a, b) pairs, and every candidate of a
stack gets its rate in one stacked pass over the C-contiguous (k, n)
complex array U of their embeddings, each row on its own relay's basis
(_rates); computation_rate is the stack of one.  RelayDesign builds its
RingElem vectors and its RingMatrix on first read.

One elimination over F_p (_eliminate_mod_p) gives the rank and determinant
of a matrix given as rows of (a, b) pairs; rank_mod_p reads its RingMatrix
as pairs first, and transmission_rate and the experiments score the
designs' pairs directly.  transmission_rate rates column l of all its
candidates in one _rates pass per relay.  No rate reads 0.0 from an
overflow: Channel refuses a P ||h||^2 that overflows, and _rates a
denominator that is not > 0.  The MAC rate floor and the per-vector
rate that tests hold the designs to are in tests/oracles.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattices import MAX_CONDITION, ComplexBasis, RingMatrix, _embed, coeff_to_complex
from .reduction import _check_alll_delta, _check_z_delta, _lll, _quiet, alll_reduce
from .rings import FieldMorphism, RingSpec, morphism_new
from .svp import PREPROCESS_DELTA, _check_rank, _elems, _svp

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
        if not math.isfinite(self.p * float(np.vdot(h, h).real)):
            raise ValueError("SNR times channel energy P ||h||^2 overflows a float")
        h.setflags(write=False)
        object.__setattr__(self, "h", h)

    @classmethod
    def from_db(cls, h, p_db: float) -> "Channel":
        return cls(np.array(h, dtype=complex), db_to_linear(p_db))

    @property
    def n(self) -> int:
        return self.h.shape[0]

    @cached_property
    def _basis(self) -> np.ndarray:
        """B = L^-1 for the Cholesky factor L of M = I + P h h^H, read-only:
        _bases on the stack of this one channel."""
        return _bases(self.h[None], np.array([self.p]))[0]


def _bases(H: np.ndarray, P: np.ndarray) -> np.ndarray:
    """The channel bases of an (N, n) stack H of channel vectors with SNRs
    P, as a read-only (N, n, n) stack, in closed form (Gill, Golub, Murray
    & Saunders, Math. Comp. 1974): for each channel, with v = sqrt(P) h and
    s_i = sqrt(1 + sum_{k<=i} |v_k|^2), B_ii = s_{i-1} / s_i and B_ij =
    -v_i conj(v_j) / (s_{i-1} s_i) for j < i.  Every step is elementwise
    along the last axes, so each basis of a stack has the bits it has
    alone (Channel._basis, the stack of one)."""
    v = np.sqrt(P)[:, None] * H
    ones = np.ones((len(H), 1))
    s = np.sqrt(np.cumsum(np.concatenate((ones, v.real * v.real + v.imag * v.imag), axis=1), axis=1))
    outer = v[:, :, None] * v.conj()[:, None, :]
    B = np.tril(-outer / (s[:, :-1] * s[:, 1:])[:, :, None], -1)
    diag = np.arange(H.shape[1])
    B[:, diag, diag] = s[:, :-1] / s[:, 1:]
    B.setflags(write=False)
    return B


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


def _check_basis(ch: Channel) -> None:
    """Refuse a channel whose basis cf_basis refuses: an empty one, or one
    whose closed-form condition number (_basis_condition) exceeds
    MAX_CONDITION, the limit ComplexBasis applies."""
    if ch.n == 0:
        raise ValueError("basis must be square and non-empty, got shape (0, 0)")
    if not _basis_condition(ch) <= MAX_CONDITION:
        raise ValueError("basis columns are numerically dependent")


def cf_basis(ch: Channel, ring: RingSpec) -> ComplexBasis:
    """Basis B with B^H B = (I + P h h^H)^-1, so ||B a||^2 is the rate denominator.

    B is Channel._basis, validated by its closed-form condition number
    (_check_basis); ComplexBasis._derived checks only that its entries are
    finite.
    """
    _check_basis(ch)
    return ComplexBasis._derived(ch._basis, ring)


def _embed_pairs(vectors, xi: complex) -> np.ndarray:
    """The C-contiguous (k, n) complex array of k vectors of n (a, b) pairs,
    each entry a + b*xi as RingElem.embed computes it."""
    return np.array([[complex(a) + b * xi for a, b in v] for v in vectors], dtype=complex)


def _rates(B: np.ndarray, U: np.ndarray) -> tuple:
    """(log2+(1 / ||B u||^2) for each row u of a C-contiguous (k, n) complex
    array U, the images y = B u as a (k, n) array) in one stacked pass.  B
    is one channel basis, or a (k, n, n) stack holding the basis of each
    row's channel.

    The stacked B @ U[..., None] and np.vecdot equal the per-vector
    y = B @ a, y.conj() @ y bit for bit, whether B is one basis or a
    stack; the 2-D B @ U.T and a transposed, non-contiguous U do not.  A
    denominator not > 0, NaN too, is refused.
    """
    y = (B @ U[..., None])[..., 0]
    dens = np.vecdot(y, y).real.tolist()
    rates = []
    for den in dens:
        if not den > 0:
            raise ValueError(f"rate denominator must be positive, got {den}")
        rates.append(max(0.0, math.log2(1.0 / den)))
    return rates, y


def computation_rate(ch: Channel, coeff) -> float:
    """log2+(1 / a^H (I + P h h^H)^-1 a) in bits, for a ring coefficient vector."""
    a = coeff_to_complex(coeff)
    if len(a) != ch.n:
        raise ValueError(f"coefficient vector has length {len(a)}, channel has {ch.n}")
    if not np.any(a):
        raise ValueError("coefficient vector must be nonzero")
    return _rates(ch._basis, a[None])[0][0]


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


def _strategy_names(strategies) -> tuple:
    """The requested strategy names as a tuple, each one in STRATEGIES.  A
    bare string is refused: iterating it would read one name per letter."""
    if isinstance(strategies, str):
        raise TypeError(f"strategies must be a collection of names, not the string {strategies!r}")
    names = tuple(strategies)
    for s in names:
        if s not in STRATEGIES:
            raise ValueError(f"unknown strategy {s!r}; expected one of {STRATEGIES}")
    return names


def _design_stack(channels, ring: RingSpec, strategies, delta: float = 0.99) -> list:
    """design_relays for every channel of a list of channels of one size, as
    one stack: one {strategy: RelayDesign} dict per channel, each equal bit
    for bit to what design_relays gives that channel alone.

    Every refusal comes before any reduction runs: the names, each
    channel's closed-form guard (_check_basis), then each strategy's delta
    range, or the enumeration rank for svp.  Then the steps run in this
    order, each numpy step once on the (N, n, n) stack:

    - the channel bases (_bases), each cached on its channel;
    - per basis, one alll_reduce per distinct delta (delta for alll,
      PREPROCESS_DELTA for svp), under _quiet(): the ALLL work stays a
      public reduction with its report, which tracers of the library read;
    - for rlll, LLL over Z on the stack of the bases' embeddings (_lll);
      column j of each transform is [x_a; x_b] in the embed layout;
    - for svp, the enumeration on the stack of ALLL reports at
      PREPROCESS_DELTA, with the default node budget (_svp);
    - one _rates pass over every candidate of every channel and strategy,
      each row rated on its own channel's basis, whose images y give each
      design's first_norm, the norm of its best candidate's image.
    """
    names = _strategy_names(strategies)
    for ch in channels:
        _check_basis(ch)
    kinds = tuple(dict.fromkeys(STRATEGY_ALIASES.get(s, s) for s in names))
    if not channels or not kinds:
        return [{} for _ in channels]
    n = channels[0].n
    for c in kinds:
        if c == "alll":
            _check_alll_delta(ring, delta)
        elif c == "rlll":
            _check_z_delta(delta)
        else:
            _check_rank(n)
    xi = ring.xi
    Bs = _bases(np.stack([ch.h for ch in channels]), np.array([ch.p for ch in channels]))
    for ch, B in zip(channels, Bs):
        ch.__dict__.setdefault("_basis", B)
    # per channel: {kind: (candidates as tuples of (a, b) pairs, swaps)}
    parts = [{} for _ in channels]

    # per channel: {delta: its ALLL report}
    deltas = dict.fromkeys(delta if c == "alll" else PREPROCESS_DELTA for c in kinds if c != "rlll")
    with _quiet():
        reps = [{dl: alll_reduce(ComplexBasis._derived(B, ring), dl) for dl in deltas} for B in Bs]
    if "alll" in kinds:
        for part, rep in zip(parts, reps):
            part["alll"] = [tuple(zip(a, b)) for a, b in zip(*rep[delta].coords)], rep[delta].swaps
    if "rlll" in kinds:
        for part, (ua, _, swaps, *_) in zip(parts, _lll(_embed(Bs, xi), delta, None)):
            part["rlll"] = [tuple(zip(col[:n], col[n:])) for col in ua], swaps
    if "svp" in kinds:
        for part, (pairs, _) in zip(parts, _svp([rep[PREPROCESS_DELTA] for rep in reps])):
            part["svp"] = [pairs], 0

    rows, owner = [], []
    for i, part in enumerate(parts):
        for cands, _ in part.values():
            rows += cands
            owner += [i] * len(cands)
    rates, y = _rates(Bs[owner], _embed_pairs(rows, xi))
    out, at = [], 0
    for ch, part in zip(channels, parts):
        # per kind: (pairs, rates, swaps, first_norm), sorted by descending rate
        sorted_parts = {}
        for c, (cands, swaps) in part.items():
            k = len(cands)
            r = rates[at : at + k]
            order = sorted(range(k), key=lambda i: -r[i])
            first_norm = float(np.linalg.norm(y[at + order[0]]))
            sorted_parts[c] = [cands[i] for i in order], [r[i] for i in order], swaps, first_norm
            at += k
        designs = {}
        for s in names:
            pairs, r, swaps, first_norm = sorted_parts[STRATEGY_ALIASES.get(s, s)]
            designs[s] = RelayDesign(ch, ring, s, list(pairs), list(r), swaps, first_norm)
        out.append(designs)
    return out


def design_relays(
    ch: Channel,
    ring: RingSpec,
    strategies,
    delta: float = 0.99,
) -> dict[str, RelayDesign]:
    """Design one relay for each requested strategy, keyed by strategy name:
    _design_stack on the stack of this one channel.

    The strategies share the channel's cached basis, validated as cf_basis
    validates it, and one ALLL reduction per distinct delta.
    alll / rlll return every transform column sorted by descending rate (for
    alll the columns form a unimodular ring matrix, reduced at delta); svp
    and its alias best_single return the single highest-rate coefficient,
    enumerated from the ALLL reduction at 0.99 whatever delta is, as in
    shortest_vector.  The reductions run under _quiet(), so no
    NonEuclideanRingWarning reaches the caller.
    """
    return _design_stack([ch], ring, strategies, delta)[0]


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
    return _eliminate_mod_p(matrix._pairs(), morphism)[0]


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

    Each relay l rates column l of every candidate in one _rates pass, equal
    bit for bit to rating each column alone.  Candidates (_candidate_rows)
    that are rank-deficient over F_p are discarded; for unimodular candidates
    this never happens, and the determinant-morphism commutation
    f(det A) = det f(A) is checked on the chosen matrix.
    """
    if not designs:
        raise ValueError("need at least one relay design")
    n = designs[0].channel.n
    if any(d.channel.n != n for d in designs):
        raise ValueError("relay designs have mismatched sizes")
    ring = designs[0].ring
    if any(d.ring != ring for d in designs):
        raise ValueError("relay designs over different rings")
    if morphism.ring != ring:
        raise ValueError("element from a different ring")
    rows = _candidate_rows(designs)
    candidates = [RingMatrix.from_int_rows(r, ring) for r in rows]
    relay_rates = [
        _rates(
            designs[l].channel._basis,
            _embed_pairs([[row[l] for row in r] for r in rows], ring.xi),
        )[0]
        for l in range(n)
    ]
    rates = [min(column) for column in zip(*relay_rates)]
    # (rank, det) over F_p of each candidate, from one elimination each
    field = [_eliminate_mod_p(r, morphism) for r in rows]

    usable = [i for i in range(len(candidates)) if field[i][0] == n]
    if not usable:
        raise ValueError("every candidate matrix is rank-deficient over F_p")
    chosen = max(usable, key=lambda i: rates[i])
    commutes = morphism.apply(candidates[chosen].det()) == field[chosen][1]
    return NetworkDesign(candidates, chosen, rates[chosen], True, commutes)
