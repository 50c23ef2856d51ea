"""Seeded Monte-Carlo harnesses with deterministic CSV output.

Every experiment draws trial k from child k of SeedSequence(seed), so results
are bit-identical however the trials are scheduled.  Complex Gaussian
channels use two independent N(0, 1/2) components per entry.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .cf import (
    _candidate_matrices,
    db_to_linear,
    default_morphism,
    design_relay,
    design_relays,
    rank_mod_p,
    random_channel,
)
from .lattices import ComplexBasis, RingMatrix, _independent, volume
from .reduction import _gauss_batch
from .rings import FieldMorphism, RingSpec, morphism_new
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


def _trial_rng(seed: int, index: int) -> np.random.Generator:
    """Generator of trial `index`: child `index` of SeedSequence(seed)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def _trials(seed: int, points: int, trials: int):
    """(point, trial, generator) in index order, where a point is a ring or an
    SNR value; trial (point, trial) draws from _trial_rng(seed, point * trials
    + trial), so its draws depend only on the seed and its own index."""
    for point in range(points):
        for trial in range(trials):
            yield point, trial, _trial_rng(seed, point * trials + trial)


# ---------------------------------------------------------------------------
# Hermite factor CDF


def hermite_cdf(rings, trials: int, seed: int) -> dict:
    """Sorted Hermite factors of random rank-2 lattices, one array per ring.

    Bases have i.i.d. CN(0,1) entries; lambda1 comes from Gauss reduction on
    norm-Euclidean rings, all of a ring's trials reduced as one stack, and
    from the enumeration oracle otherwise.  A ring may appear only once.
    """
    if trials < 100:
        raise ValueError(f"need at least 100 trials for a meaningful CDF, got {trials}")
    rings = list(rings)
    if len(set(rings)) < len(rings):
        raise ValueError("each ring may appear only once; a repeat would overwrite its trials")
    draws = np.empty((len(rings), trials, 2, 2), dtype=complex)
    for ri, t, rng in _trials(seed, len(rings), trials):
        draws[ri, t] = math.sqrt(0.5) * (
            rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        )
    out = {}
    for ring, bases in zip(rings, draws):
        vals = np.empty(trials)
        if ring.euclidean:
            reduced, _ = _gauss_batch(_independent(bases), ring)
            lam1 = np.linalg.norm(reduced, axis=1)[:, 0].tolist()
            dets = np.linalg.det(reduced)
            det_phi2 = ring.det_phi**2
            for t in range(trials):
                # lam1**2 / sqrt(volume) in scalars: array ** 2 and np.abs
                # round differently from libm pow and scalar abs
                vals[t] = lam1[t] ** 2 / math.sqrt(abs(dets[t]) ** 2 * det_phi2)
        else:
            for t in range(trials):
                basis = ComplexBasis(bases[t], ring)
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


def _rank_failures(A: RingMatrix, morphism: FieldMorphism | None) -> tuple[bool, bool]:
    """Whether A is singular over the ring and over F_p; a ring-singular
    matrix counts as a field failure too.  Full rank over F_p proves
    f(det A) = det f(A) != 0, so the exact det runs only when F_p cannot tell."""
    if morphism is not None and rank_mod_p(A, morphism) == A.n:
        return False, False
    if A.det().is_zero():
        return True, True
    return False, morphism is not None


def _network_trials(ring, n, p_linear_list, trials, strategies, seed, morphism) -> dict:
    """The network-trial loop: an _Acc per (strategy, point index).

    Each trial draws one n-relay network and replays its channels for every
    strategy, so the comparison is paired; design_relays designs each relay
    once for all strategies, and each distinct candidate matrix is scored once.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not p_linear_list:
        raise ValueError("need at least one SNR point")
    if not strategies:
        raise ValueError("need at least one strategy")
    if len(set(strategies)) < len(strategies):
        raise ValueError("each strategy may appear only once; a repeat would share its counts")
    acc = {(s, pi): _Acc([], [], []) for s in strategies for pi in range(len(p_linear_list))}
    for pi, _, rng in _trials(seed, len(p_linear_list), trials):
        chans = [random_channel(n, p_linear_list[pi], rng) for _ in range(n)]
        relays = [design_relays(ch, ring, strategies) for ch in chans]
        scored = {}
        for s in strategies:
            designs = [r[s] for r in relays]
            A = _candidate_matrices(designs)[0]
            if A not in scored:
                scored[A] = _rank_failures(A, morphism)
            ring_fail, field_fail = scored[A]
            a = acc[(s, pi)]
            a.rates.extend(d.best_rate for d in designs)
            a.swaps.extend(d.swaps for d in designs)
            a.norms.extend(d.first_norm for d in designs)
            a.ring_fail += ring_fail
            a.field_fail += field_fail
    return acc


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
                    float(np.mean(a.rates)),
                    float(np.std(a.rates)),
                    float(np.mean(a.swaps)),
                    float(np.mean(a.norms)),
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
    if channels_per_point < 1:
        raise ValueError(f"channels_per_point must be >= 1, got {channels_per_point}")
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
