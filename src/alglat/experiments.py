"""Seeded Monte-Carlo harnesses with deterministic CSV output.

Every experiment draws trial k from child k of SeedSequence(seed), so results
are bit-identical however the trials are scheduled.  Complex Gaussian
channels use two independent N(0, 1/2) components per entry.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .cf import (
    STRATEGIES,
    STRATEGY_ALIASES,
    db_to_linear,
    default_morphism,
    design_relay,
    design_relays,
    rank_mod_p,
    random_channel,
)
from .lattices import ComplexBasis, RingMatrix, volume
from .reduction import NonEuclideanRingWarning, _gauss_batch
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
    """Generator of trial `index`: child `index` of SeedSequence(seed).

    Harnesses number their trials (point, trial) -> point * trials + trial,
    where a point is a ring or an SNR value, so each trial's draws depend only
    on the seed and its own index.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


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
    out = {}
    for ri, ring in enumerate(rings):
        bases = np.empty((trials, 2, 2), dtype=complex)
        for t in range(trials):
            rng = _trial_rng(seed, ri * trials + t)
            bases[t] = math.sqrt(0.5) * (
                rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            )
        vals = np.empty(trials)
        if ring.euclidean:
            reduced, _ = _gauss_batch(bases, ring)
            lam1 = np.linalg.norm(reduced, axis=1)[:, 0].tolist()
            dets = np.linalg.det(reduced)
            det_phi2 = ring.det_phi**2
            for t in range(trials):
                # lam1**2 / sqrt(volume) in scalars: array ** 2 and np.abs
                # round differently from libm pow and scalar abs
                vals[t] = lam1[t] ** 2 / math.sqrt(abs(dets[t]) ** 2 * det_phi2)
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NonEuclideanRingWarning)
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
    fail_trials: int = 0


def _resolve_morphism(ring: RingSpec, modulus):
    if modulus is not None:
        return morphism_new(ring, ring.elem(*modulus))
    try:
        return default_morphism(ring)
    except ValueError:
        return None


def _rank_failures(designs, morphism: FieldMorphism | None) -> tuple[bool, bool]:
    """Whether one network's coefficient matrix is singular over the ring and
    over F_p.

    For alll designs the matrix is the first relay's unimodular transform
    (every alll candidate is unimodular, so the choice does not matter).  For
    the other strategies it is the stack of per-relay best equations.  A
    ring-singular matrix counts as a field failure too.
    """
    if designs[0].strategy == "alll":
        A = designs[0].matrix
    else:
        A = RingMatrix.from_columns([d.best_vector for d in designs], designs[0].ring)
    if A.det().is_zero():
        return True, True
    return False, morphism is not None and rank_mod_p(A, morphism) < len(designs)


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

    Each trial draws one n-relay network; the same channels are replayed for
    every strategy so the comparison columns are paired.  Each relay is
    designed once per trial for all canonical strategies (design_relays), and
    a strategy and its aliases share one design.  Rank failure uses a
    unimodular candidate matrix for the alll strategy, with or without a
    field morphism, and the stack of per-relay best equations otherwise;
    field-rank columns are empty when the ring has no default morphism and
    none is supplied.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    for s in strategies:
        if s not in STRATEGIES:
            raise ValueError(f"unknown strategy {s!r}")
    morphism = _resolve_morphism(ring, modulus)
    canonical = tuple(dict.fromkeys(STRATEGY_ALIASES.get(s, s) for s in strategies))
    snr_db_list = list(snr_db_list)
    acc = {(s, pi): _Acc([], [], []) for s in strategies for pi in range(len(snr_db_list))}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonEuclideanRingWarning)
        for pi, p_db in enumerate(snr_db_list):
            p_lin = db_to_linear(p_db)
            for t in range(trials):
                rng = _trial_rng(seed, pi * trials + t)
                chans = [random_channel(n, p_lin, rng) for _ in range(n)]
                relays = [design_relays(ch, ring, canonical) for ch in chans]
                outcomes = {}
                for c in canonical:
                    designs = [r[c] for r in relays]
                    outcomes[c] = designs, _rank_failures(designs, morphism)
                for s in strategies:
                    designs, (ring_fail, field_fail) = outcomes[STRATEGY_ALIASES.get(s, s)]
                    a = acc[(s, pi)]
                    a.rates.extend(d.best_rate for d in designs)
                    a.swaps.extend(d.swaps for d in designs)
                    a.norms.extend(d.first_norm for d in designs)
                    a.fail_trials += 1
                    a.ring_fail += ring_fail
                    a.field_fail += field_fail
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
                    a.ring_fail / a.fail_trials,
                    (a.field_fail / a.fail_trials) if morphism is not None else None,
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
    """Fractions of trials whose stacked coefficient matrix is singular over
    the ring and over F_p, respectively.

    best_single stacks each relay's single best equation; the unimodular
    (alll) scheme picks a whole unimodular matrix and never fails.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    ring_fail = 0
    field_fail = 0
    for t in range(trials):
        rng = _trial_rng(seed, t)
        designs = [
            design_relay(random_channel(n, p_linear, rng), ring, strategy)
            for _ in range(n)
        ]
        fails = _rank_failures(designs, morphism)
        ring_fail += fails[0]
        field_fail += fails[1]
    return ring_fail / trials, field_fail / trials


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
    p_grid_db = list(p_grid_db)
    if len(p_grid_db) < 2 or max(p_grid_db) - min(p_grid_db) < 30:
        raise ValueError("the SNR grid must span at least 30 dB")
    means = []
    xs = []
    for pi, p_db in enumerate(p_grid_db):
        p_lin = db_to_linear(p_db)
        acc = 0.0
        for t in range(channels_per_point):
            rng = _trial_rng(seed, pi * channels_per_point + t)
            acc += design_relay(random_channel(n, p_lin, rng), ring, strategy).best_rate
        means.append(acc / channels_per_point)
        xs.append(math.log2(1.0 + p_lin))
    slope = np.polyfit(xs, means, 1)[0]
    return float(slope)
