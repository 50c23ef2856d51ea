"""Seeded Monte-Carlo harnesses with deterministic CSV output.

Every experiment draws trial k from child k of SeedSequence(seed), so results
are bit-identical however the trials are scheduled.  The children's seed
words are derived in bulk (_child_words), equal to numpy's bit for bit, and
each trial still gets its own PCG64 generator.  Complex Gaussian channels use
two independent N(0, 1/2) components per entry.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np

from .cf import (
    _candidate_rows,
    _design_stack,
    _eliminate_mod_p,
    _strategy_names,
    db_to_linear,
    default_morphism,
    design_relay,
    random_channel,
)
from .lattices import ComplexBasis, _independent, volume
from .reduction import _gauss_batch
from .rings import FieldMorphism, RingSpec, _count, _pair_det, morphism_new
from .svp import shortest_vector

__all__ = [
    "hermite_cdf",
    "hermite_cdf_rows",
    "cf_experiment",
    "dof_slope",
    "rank_failure_probability",
    "rank_failure_rows",
    "write_csv",
    "HERMITE_CSV_HEADER",
    "CF_CSV_HEADER",
    "RANK_CSV_HEADER",
]

HERMITE_CSV_HEADER = ["ring", "index", "hermite_factor"]
CF_CSV_HEADER = [
    "strategy",
    "snr_db",
    "trials",
    "mean_rate",
    "std_rate",
    "mean_swaps",
    "mean_first_norm",
    "p_rank_fail_ring",
    "p_rank_fail_field",
]
RANK_CSV_HEADER = ["strategy", "snr_db", "trials", "p_rank_fail_ring", "p_rank_fail_field"]


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return format(x, ".10g")
    return str(x)


def write_csv(rows, header, out) -> None:
    """Write rows with a fixed float format so equal inputs give equal bytes."""
    close = False
    if isinstance(out, (str, bytes)):
        out = open(out, "w", newline="")
        close = True
    try:
        w = csv.writer(out, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])
    finally:
        if close:
            out.close()


# SeedSequence's hash constants (numpy/random/bit_generator.pyx, fixed by
# NEP 19); all arithmetic is mod 2**32
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
#: children whose seed words are derived at once; memory does not grow with
#: the number of trials
_BLOCK = 4096
#: the most trials one harness call draws, over all its points (rings or SNR
#: values): 1000 times criterion 7's 10 000 per ring; a count far beyond it,
#: such as a config's "trials": 10**400, would run without end
_MAX_DRAWS = 10**7
#: the most relays of a network trial; each relay hears all n transmitters,
#: so one trial draws n**2 channel gains and designs n rank-n lattices
_MAX_RELAYS = 64


@functools.cache
def _hash_consts(init: int, mult: int, first: int, count: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k in [first, first + count)."""
    c = np.array(
        [init * pow(mult, k, 1 << 32) & _MASK32 for k in range(first, first + count)], np.uint32
    )
    c.flags.writeable = False
    return c


def _entropy_words(entropy) -> int:
    """Number of uint32 words numpy makes of a SeedSequence's (validated)
    entropy: an int, or a sequence of them, each at least one word."""
    if isinstance(entropy, (int, np.integer)):
        return max(1, -(-int(entropy).bit_length() // 32))
    return sum(_entropy_words(e) for e in entropy)


def _child_words(root: np.random.SeedSequence, first: int, count: int) -> np.ndarray:
    """(count, 4) uint64 rows: row i equals
    SeedSequence(root.entropy, spawn_key=(first + i,)).generate_state(4, np.uint64).

    root.pool is the mixed entropy that every child shares; each child folds
    its spawn words (least significant first) into it with the hash
    constants that follow the entropy's, then hashes the pool into 8 words.
    The block may not cross a multiple of 2**32, so only the lowest spawn
    word varies in it."""
    low = first & _MASK32
    if low + count > 1 << 32:
        raise ValueError(f"a block of {count} children at {first} crosses a multiple of 2**32")
    words = [np.arange(low, low + count, dtype=np.uint32)[:, None]]
    high = first >> 32
    while high:
        words.append(np.uint32(high & _MASK32))
        high >>= 32
    # hashmix steps taken by the entropy: pool fill, cross mix, extra words
    step = _POOL_SIZE * _POOL_SIZE + _POOL_SIZE * max(0, _entropy_words(root.entropy) - _POOL_SIZE)
    pool = root.pool
    for w in words:
        c = _hash_consts(_INIT_A, _MULT_A, step, _POOL_SIZE + 1)
        step += _POOL_SIZE
        h = (w ^ c[:-1]) * c[1:]
        h ^= h >> 16
        pool = pool * _MIX_MULT_L - h * _MIX_MULT_R
        pool ^= pool >> 16
    c = _hash_consts(_INIT_B, _MULT_B, 0, 2 * _POOL_SIZE + 1)
    state = (np.concatenate((pool, pool), axis=-1) ^ c[:-1]) * c[1:]
    state ^= state >> 16
    return state.view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _words_type() -> type:
    """The seed sequence that hands PCG64 one precomputed row of _child_words.
    Defined on first use, so that importing alglat does not import
    numpy.random."""

    class Words(np.random.bit_generator.ISeedSequence):
        __slots__ = ("_row",)

        def __init__(self, row: np.ndarray):
            self._row = row

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64:
                raise RuntimeError(
                    f"PCG64 asked for generate_state({n_words}, {dtype}); the trial "
                    "seed words are derived for (4, np.uint64) only"
                )
            return self._row

    return Words


def _trials(seed: int, points: int, trials: int):
    """(point, trial, generator) in index order, where a point is a ring or an
    SNR value; trial (point, trial) draws from child point * trials + trial
    of SeedSequence(seed), as default_rng(SeedSequence(seed, spawn_key=(k,)))
    would, so its draws depend only on the seed and its own index.

    Raises ValueError on the call, before any draw, when points * trials is
    above _MAX_DRAWS, and numpy's error for a seed it refuses."""
    if points * trials > _MAX_DRAWS:
        raise ValueError(f"points x trials must be at most {_MAX_DRAWS}, got {points} x {trials}")
    return _draws(np.random.SeedSequence(seed), points, trials)


def _draws(root: np.random.SeedSequence, points: int, trials: int):
    """The generators of _trials, derived from root block by block."""
    words = _words_type()
    total = points * trials
    # blocks start at multiples of _BLOCK, which divides 2**32
    for first in range(0, total, _BLOCK):
        rows = _child_words(root, first, min(_BLOCK, total - first))
        for index, row in enumerate(rows, first):
            point, trial = divmod(index, trials)
            yield point, trial, np.random.Generator(np.random.PCG64(words(row)))


# ---------------------------------------------------------------------------
# Hermite factor CDF


def hermite_cdf(rings, trials: int, seed: int) -> dict:
    """Sorted Hermite factors of random rank-2 lattices, one array per ring.

    Bases have i.i.d. CN(0,1) entries, and each ring's stack of them is
    checked once (lattices._independent); lambda1 comes from Gauss reduction
    on norm-Euclidean rings, all of a ring's trials reduced as one stack, and
    from the enumeration oracle otherwise.  A ring may appear only once.
    """
    trials = _count("trials", trials)
    if trials < 100:
        raise ValueError(f"need at least 100 trials for a meaningful CDF, got {trials}")
    rings = list(rings)
    if len(set(rings)) < len(rings):
        raise ValueError("each ring may appear only once; a repeat would overwrite its trials")
    generators = _trials(seed, len(rings), trials)  # refuses a huge count before np.empty
    # one 8-draw call per trial gives the real parts, then the imaginary
    # parts, exactly as two 4-draw calls do
    parts = np.empty((len(rings), trials, 2, 2, 2))
    for ri, t, rng in generators:
        rng.standard_normal(out=parts[ri, t])
    draws = math.sqrt(0.5) * (parts[:, :, 0] + 1j * parts[:, :, 1])
    out = {}
    for ring, bases in zip(rings, draws):
        _independent(bases)
        if ring.euclidean:
            reduced, _ = _gauss_batch(bases, ring)
            lam1 = np.linalg.norm(reduced, axis=1)[:, 0].tolist()
            dets = np.linalg.det(reduced).tolist()
            det_phi2 = ring.det_phi**2
            # lam1**2 / sqrt(volume) on Python floats: array ** 2 and np.abs
            # round differently from libm pow and scalar abs, while Python's
            # abs and ** 2 give the bits of numpy's scalar ones
            vals = np.array(
                [l1**2 / math.sqrt(abs(det) ** 2 * det_phi2) for l1, det in zip(lam1, dets)]
            )
        else:
            vals = np.empty(trials)
            for t in range(trials):
                basis = ComplexBasis._derived(bases[t], ring)
                vals[t] = shortest_vector(basis).norm ** 2 / math.sqrt(volume(basis))
        vals.sort()
        out[ring] = vals
    return out


def hermite_cdf_rows(rings, trials: int, seed: int):
    data = hermite_cdf(rings, trials, seed)
    rows = []
    for ring, vals in data.items():
        for i, v in enumerate(vals):
            rows.append([f"d={ring.d}", i, float(v)])
    return rows


# ---------------------------------------------------------------------------
# compute-and-forward experiment


@dataclass
class _Acc:
    rates: list
    swaps: list
    norms: list
    ring_fail: int = 0
    field_fail: int = 0


def _resolve_morphism(ring: RingSpec, modulus):
    if modulus is not None:
        return morphism_new(ring, ring.elem(*modulus))
    try:
        return default_morphism(ring)
    except ValueError:
        return None


def _rank_failures(rows, ring: RingSpec, morphism: FieldMorphism | None) -> tuple[bool, bool]:
    """Whether the matrix A with these rows of (a, b) pairs is singular over
    the ring and over F_p; a ring-singular matrix counts as a field failure
    too.  Full rank over F_p proves f(det A) = det f(A) != 0, so the exact
    det runs only when F_p cannot tell."""
    if morphism is not None and _eliminate_mod_p(rows, morphism)[0] == len(rows):
        return False, False
    if _pair_det(rows, ring) == (0, 0):
        return True, True
    return False, morphism is not None


def _network_trials(ring, n, p_linear_list, trials, strategies, seed, morphism) -> dict:
    """The network-trial loop: an _Acc per (strategy, point index).

    Each trial draws one n-relay network and replays its channels for every
    strategy, so the comparison is paired; _design_stack designs the trial's
    n relays once for all strategies, as one stack, and each distinct
    candidate matrix is scored once, on its rows of (a, b) pairs.
    """
    trials, n = _count("trials", trials), _count("n", n, _MAX_RELAYS)
    if not p_linear_list:
        raise ValueError("need at least one SNR point")
    strategies = _strategy_names(strategies)
    if not strategies:
        raise ValueError("need at least one strategy")
    if len(set(strategies)) < len(strategies):
        raise ValueError("each strategy may appear only once; a repeat would share its counts")
    if morphism is not None and morphism.ring != ring:
        raise ValueError("morphism from a different ring")
    acc = {(s, pi): _Acc([], [], []) for s in strategies for pi in range(len(p_linear_list))}
    for pi, _, rng in _trials(seed, len(p_linear_list), trials):
        chans = [random_channel(n, p_linear_list[pi], rng) for _ in range(n)]
        relays = _design_stack(chans, ring, strategies)
        scored = {}
        for s in strategies:
            designs = [r[s] for r in relays]
            A = _candidate_rows(designs)[0]
            if A not in scored:
                scored[A] = _rank_failures(A, ring, morphism)
            ring_fail, field_fail = scored[A]
            a = acc[(s, pi)]
            a.rates.extend(d.best_rate for d in designs)
            a.swaps.extend(d.swaps for d in designs)
            a.norms.extend(d.first_norm for d in designs)
            a.ring_fail += ring_fail
            a.field_fail += field_fail
    return acc


def _mean(values) -> float:
    """float(np.mean(values)) as np.mean computes it, a float64 np.add.reduce
    over the count, without its dispatch."""
    return float(np.add.reduce(values, dtype=float) / len(values))


def cf_experiment(
    ring: RingSpec,
    n: int,
    snr_db_list,
    trials: int,
    strategies,
    seed: int,
    modulus=None,
):
    """Network trials per (strategy, SNR): rates, swap counts, rank failures.

    The same channels are replayed for every strategy, so the columns are
    paired.  Rank failure is scored on a unimodular matrix for alll, with or
    without a field map, and on the stack of per-relay best equations
    otherwise; field-rank columns are empty when the ring has no default
    morphism and none is supplied.  Both lists must be non-empty, and a
    strategy may appear only once.
    """
    trials = _count("trials", trials)
    morphism = _resolve_morphism(ring, modulus)
    snr_db_list = list(snr_db_list)
    acc = _network_trials(
        ring, n, [db_to_linear(p) for p in snr_db_list], trials, strategies, seed, morphism
    )
    rows = []
    for s in strategies:
        for pi, p_db in enumerate(snr_db_list):
            a = acc[(s, pi)]
            rows.append(
                [
                    s,
                    float(p_db),
                    trials,
                    _mean(a.rates),
                    float(np.std(a.rates)),
                    _mean(a.swaps),
                    _mean(a.norms),
                    a.ring_fail / trials,
                    (a.field_fail / trials) if morphism is not None else None,
                ]
            )
    return rows


# ---------------------------------------------------------------------------
# rank failure and degrees of freedom


def rank_failure_probability(
    ring: RingSpec,
    morphism: FieldMorphism,
    n: int,
    p_linear: float,
    trials: int,
    strategy: str = "best_single",
    seed: int = 0,
):
    """Fractions of trials whose coefficient matrix is singular over the ring
    and over F_p: the rank columns of cf_experiment's loop at one linear SNR.

    best_single stacks each relay's single best equation; the unimodular
    (alll) scheme picks a whole unimodular matrix and never fails.
    """
    a = _network_trials(ring, n, [p_linear], trials, [strategy], seed, morphism)[(strategy, 0)]
    return a.ring_fail / trials, a.field_fail / trials


def rank_failure_rows(ring, morphism, n, snr_db, trials, strategy, seed):
    trials = _count("trials", trials)
    p_ring, p_field = rank_failure_probability(
        ring, morphism, n, db_to_linear(snr_db), trials, strategy, seed
    )
    return [[strategy, float(snr_db), trials, p_ring, p_field]]


def dof_slope(
    ring: RingSpec,
    n: int,
    strategy: str,
    p_grid_db,
    channels_per_point: int = 200,
    seed: int = 0,
) -> float:
    """Least-squares slope of the mean computation rate vs log2(1 + P)."""
    channels_per_point = _count("channels_per_point", channels_per_point)
    n = _count("n", n, _MAX_RELAYS)
    p_grid_db = list(p_grid_db)
    if len(p_grid_db) < 2 or max(p_grid_db) - min(p_grid_db) < 30:
        raise ValueError("the SNR grid must span at least 30 dB")
    p_lin = [db_to_linear(p) for p in p_grid_db]
    sums = [0.0] * len(p_lin)
    for pi, _, rng in _trials(seed, len(p_lin), channels_per_point):
        sums[pi] += design_relay(random_channel(n, p_lin[pi], rng), ring, strategy).best_rate
    means = [acc / channels_per_point for acc in sums]
    slope = np.polyfit([math.log2(1.0 + p) for p in p_lin], means, 1)[0]
    return float(slope)
