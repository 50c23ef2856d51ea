"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines.  The random-instance corpora are seeded and shared between the
criteria that quote them.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from alglat.cf import (
    Channel,
    cf_basis,
    db_to_linear,
    default_morphism,
    design_relay,
    rank_mod_p,
    transmission_rate,
)
from alglat.experiments import hermite_cdf, rank_failure_probability
from alglat.lattices import ComplexBasis, RingMatrix, embed
from alglat.reduction import (
    _r_positive,
    alll_reduce,
    gauss_reduce,
    quaternion_rotation,
    real_lll,
    reduction_epsilon,
)
from alglat.rings import quantize, ring_new
from alglat.svp import shortest_vector, successive_minima_2d
from oracles import covering_radius_geometric, random_basis

EUCLIDEAN_D = (1, 2, 3, 7, 11)
DELTA = 0.99

RING1 = ring_new(1)
RING3 = ring_new(3)
RING5 = ring_new(5)


def eisenstein_golden_basis():
    w = RING3.xi
    return ComplexBasis(np.array([[4 + w, 1 + 4 * w], [-1 + 5 * w, 1 + 2 * w]]), RING3)


def noneuclid_golden_basis():
    xi = RING5.xi
    return ComplexBasis(np.array([[2 + 3 * xi, 8 + xi], [2 + xi, 2 + 0 * xi]]), RING5)


@pytest.fixture(scope="module", autouse=True)
def warm_enumerator():
    # compile/warm the enumeration kernel so measured runtimes are algorithmic
    shortest_vector(ComplexBasis(np.eye(2, dtype=complex), RING1))


def test_criterion_01_golden_euclidean_example():
    t0 = time.perf_counter()
    B = eisenstein_golden_basis()
    rep = gauss_reduce(B)
    assert rep.norms_squared_exact == [16, 28]
    assert rep.norms[0] ** 2 == pytest.approx(16.0, abs=1e-6)
    assert rep.norms[1] ** 2 == pytest.approx(28.0, abs=1e-6)
    reduced, _, _ = real_lll(embed(B), delta=1.0)
    norms_sq = [float(np.dot(reduced[:, j], reduced[:, j])) for j in range(4)]
    assert norms_sq == pytest.approx([16.0, 16.0, 31.0, 28.0], abs=1e-6)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1: golden Euclidean example (16/28; rLLL 16,16,31,28) "
          f"in {elapsed:.3f}s: PASS")


def test_criterion_02_golden_noneuclidean_example():
    t0 = time.perf_counter()
    B = noneuclid_golden_basis()
    rep = gauss_reduce(B)
    assert rep.norms_squared_exact == [58, 61]
    res = shortest_vector(B)
    assert res.norm_squared == pytest.approx(20.0, abs=1e-6)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"ACCEPTANCE 2: non-Euclidean example (Gauss 58/61 vs oracle 20) "
          f"in {elapsed:.3f}s: PASS")


def test_criterion_03_gauss_optimality():
    t0 = time.perf_counter()
    trials = 500
    for d in EUCLIDEAN_D:
        ring = ring_new(d)
        rng = np.random.default_rng(1000 + d)
        for _ in range(trials):
            B = random_basis(ring, 2, rng)
            rep = gauss_reduce(B)
            l1, l2, _ = successive_minima_2d(B)
            assert abs(rep.norms[0] - l1) < 1e-7
            assert abs(rep.norms[1] - l2) < 1e-7
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"ACCEPTANCE 3: Gauss = successive minima on {trials}x{len(EUCLIDEAN_D)} "
          f"bases in {elapsed:.1f}s: PASS")


@dataclass
class CorpusRecord:
    d: int
    n: int
    swaps: int
    ratios: list
    size_ok: bool
    lovasz_ok: bool
    unimodular: bool
    bound17_ok: bool
    bound19_ok: bool
    bound18_ok: bool | None


@pytest.fixture(scope="module")
def alll_corpus():
    """500 CN(0,1) instances per Euclidean ring and n in {2,4,8} at delta=0.99."""
    records = []
    t0 = time.perf_counter()
    oracle_time = 0.0
    for d in EUCLIDEAN_D:
        ring = ring_new(d)
        for n in (2, 4, 8):
            rng = np.random.default_rng(31_000 + 100 * d + n)
            for _ in range(500):
                B = random_basis(ring, n, rng)
                lam1 = None
                if n <= 4:
                    ts = time.perf_counter()
                    lam1 = shortest_vector(B).norm
                    oracle_time += time.perf_counter() - ts
                rep = alll_reduce(B, DELTA, lambda1=lam1)
                R = _r_positive(rep.reduced.matrix)
                size_ok = all(
                    quantize(R[j, k] / R[j, j], ring).is_zero()
                    for j in range(n)
                    for k in range(j + 1, n)
                )
                lovasz_ok = all(
                    DELTA * abs(R[j - 1, j - 1]) ** 2
                    <= abs(R[j, j]) ** 2 + abs(R[j - 1, j]) ** 2 + 1e-9
                    for j in range(1, n)
                )
                records.append(
                    CorpusRecord(
                        d=d,
                        n=n,
                        swaps=rep.swaps,
                        ratios=rep.potential_ratios,
                        size_ok=size_ok,
                        lovasz_ok=lovasz_ok,
                        unimodular=rep.transform.is_unimodular(),
                        bound17_ok=rep.bound_checks["first_vs_det"].passed,
                        bound19_ok=rep.bound_checks["od_bound"].passed,
                        bound18_ok=(
                            rep.bound_checks["first_vs_lambda1"].passed
                            if lam1 is not None
                            else None
                        ),
                    )
                )
    elapsed = time.perf_counter() - t0
    return records, elapsed - oracle_time, oracle_time


def test_criterion_04_alll_contract(alll_corpus):
    records, alll_time, _ = alll_corpus
    assert len(records) == 500 * len(EUCLIDEAN_D) * 3
    assert all(r.size_ok for r in records)
    assert all(r.lovasz_ok for r in records)
    assert all(r.unimodular for r in records)
    assert all(all(rt < DELTA for rt in r.ratios) for r in records)
    assert alll_time < 300.0
    print(f"ACCEPTANCE 4: ALLL contract on {len(records)} instances "
          f"in {alll_time:.1f}s: PASS")


def test_criterion_05_quality_bounds(alll_corpus):
    records, _, oracle_time = alll_corpus
    assert all(r.bound17_ok for r in records)
    assert all(r.bound19_ok for r in records)
    small = [r for r in records if r.n <= 4]
    assert all(r.bound18_ok for r in small)
    # the same first-vector bound holds on a high-SNR rank-8 channel lattice,
    # certified by a 16-dimensional enumeration
    rng = np.random.default_rng(777)
    h = math.sqrt(0.5) * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
    B = cf_basis(Channel(h, db_to_linear(40.0)), RING3)
    lam1 = shortest_vector(B).norm
    rep = alll_reduce(B, DELTA, lambda1=lam1)
    eps = reduction_epsilon(RING3, DELTA)
    assert rep.norms[0] <= eps ** (-3.5) * lam1 * (1 + 1e-9)
    print(f"ACCEPTANCE 5: first-vector and defect bounds on all instances "
          f"(+{len(small)} oracle certificates, {oracle_time:.1f}s oracle time): PASS")


def test_criterion_06_covering_radii_and_euclidean_set():
    checked = 0
    for d in range(1, 51):
        try:
            ring = ring_new(d)
        except ValueError:
            continue
        checked += 1
        assert abs(ring.covering_radius - covering_radius_geometric(ring)) < 1e-12
        assert (ring.covering_radius < 1) == (d in EUCLIDEAN_D)
    print(f"ACCEPTANCE 6: covering radii match geometry for {checked} rings, "
          f"rho<1 exactly on d in {set(EUCLIDEAN_D)}: PASS")


def test_criterion_07_hermite_cdf():
    t0 = time.perf_counter()
    rings = [ring_new(d) for d in EUCLIDEAN_D]
    data = hermite_cdf(rings, trials=10_000, seed=400)
    for ring, vals in data.items():
        assert vals.max() <= math.sqrt(2) + 1e-9
    by_phi = sorted(data, key=lambda r: r.det_phi)
    means = [float(data[r].mean()) for r in by_phi]
    # smaller det(Phi) (denser ring) gives the larger mean factor
    assert all(means[i] > means[i + 1] for i in range(len(means) - 1))
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"ACCEPTANCE 7: 10^4-trial Hermite factors <= sqrt(2), ring means "
          f"monotone in det(Phi) {[round(m, 3) for m in means]} in {elapsed:.1f}s: PASS")


def test_criterion_08_rate_ordering_and_degradation():
    t0 = time.perf_counter()
    grid_db = (0.0, 10.0, 20.0, 30.0, 40.0)
    trials = 200

    # rank 8: the best-of-strategies rate is an oracle proxy
    eps3 = reduction_epsilon(RING3, DELTA)
    rng = np.random.default_rng(88)
    for p_db in grid_db:
        p = db_to_linear(p_db)
        for _ in range(trials // len(grid_db)):
            h = math.sqrt(0.5) * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
            ch = Channel(h, p)
            r_alll = design_relay(ch, RING3, "alll").best_rate
            r_rlll = design_relay(ch, RING3, "rlll").best_rate
            proxy = max(r_alll, r_rlll)
            assert proxy >= r_alll - 1e-9
            assert r_alll >= proxy - 7 * math.log2(1 / eps3) - 1e-9

    # rank 4: the true enumeration oracle
    eps1 = reduction_epsilon(RING1, DELTA)
    rng = np.random.default_rng(89)
    for p_db in grid_db:
        p = db_to_linear(p_db)
        for _ in range(trials // len(grid_db)):
            h = math.sqrt(0.5) * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
            ch = Channel(h, p)
            r_svp = design_relay(ch, RING1, "svp").best_rate
            r_alll = design_relay(ch, RING1, "alll").best_rate
            assert r_svp >= r_alll - 1e-9
            assert r_alll >= r_svp - 3 * math.log2(1 / eps1) - 1e-9

    # non-Euclidean degradation at high SNR
    rng = np.random.default_rng(90)
    n_alll = n_rlll = 0.0
    for _ in range(trials):
        h = math.sqrt(0.5) * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
        ch = Channel(h, db_to_linear(40.0))
        n_alll += design_relay(ch, RING5, "alll").first_norm
        n_rlll += design_relay(ch, RING5, "rlll").first_norm
    assert n_alll > n_rlll
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE 8: rate ordering (proxy/oracle >= ALLL >= bound) and "
          f"d=5@40dB degradation ({n_alll / trials:.4f} > {n_rlll / trials:.4f}) "
          f"in {elapsed:.1f}s: PASS")


def test_criterion_09_dof_slopes():
    from alglat.experiments import dof_slope

    t0 = time.perf_counter()
    grid = [10, 20, 30, 40, 50, 60]
    slopes = {}
    for n in (2, 4):
        for d in (1, 3):
            s = dof_slope(ring_new(d), n, "alll", grid, channels_per_point=200, seed=90 + n + d)
            slopes[(n, d)] = s
            assert abs(s - 1.0 / n) <= 0.1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    printable = {k: round(v, 3) for k, v in slopes.items()}
    print(f"ACCEPTANCE 9: DoF slopes within 0.1 of 1/n: {printable} "
          f"in {elapsed:.1f}s: PASS")


def test_criterion_10_rank_guarantees():
    t0 = time.perf_counter()
    mor = default_morphism(RING1)
    p25 = db_to_linear(25.0)

    pr_u, pf_u = rank_failure_probability(RING1, mor, 2, p25, 10_000, "alll", seed=41)
    assert (pr_u, pf_u) == (0.0, 0.0)

    pr_b, pf_b = rank_failure_probability(RING1, mor, 2, p25, 10_000, "best_single", seed=42)
    assert pf_b > 0.1

    # the published two-relay instance
    h1 = Channel.from_db([-0.4001 + 1.0937j, -0.9278 + 1.8151j], 25.0)
    h2 = Channel.from_db([-0.3779 + 0.2307j, -1.5736 - 0.3939j], 25.0)
    A1 = RingMatrix.from_int_rows([[(2, 2), (-1, 0)], [(3, 4), (-2, 0)]], RING1)
    A2 = RingMatrix.from_int_rows([[(-1, 1), (1, 0)], [(-5, 0), (3, 3)]], RING1)
    assert A1.is_unimodular() and A2.is_unimodular()
    assert rank_mod_p(A1, mor) == 2 and rank_mod_p(A2, mor) == 2
    stack = RingMatrix.from_columns([A1.column(0), A2.column(0)], RING1)
    assert rank_mod_p(stack, mor) == 1
    designs = [design_relay(h1, RING1, "best_single"), design_relay(h2, RING1, "best_single")]
    ours = RingMatrix.from_columns([d.best_vector for d in designs], RING1)
    assert not ours.det().is_zero()
    assert rank_mod_p(ours, mor) < 2
    full = [design_relay(h1, RING1, "alll"), design_relay(h2, RING1, "alll")]
    nd = transmission_rate(full, mor)
    assert nd.field_rank_ok
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE 10: unimodular failures (0,0) exact; best-single field "
          f"failure {pf_b:.4f} > 0.1; worked example reproduced in {elapsed:.1f}s: PASS")


def test_criterion_11_rotation_unitarity():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10_000):
        a = complex(rng.standard_normal(), rng.standard_normal())
        b = complex(rng.standard_normal(), rng.standard_normal())
        M = quaternion_rotation(a, b)
        worst = max(worst, float(np.linalg.norm(M.conj().T @ M - np.eye(2))))
        out = M @ np.array([a, b])
        assert abs(out[1]) < 1e-12
    assert worst < 1e-12
    print(f"ACCEPTANCE 11: rotation unitarity on 10^4 pairs "
          f"(worst defect {worst:.2e}): PASS")


def test_criterion_12_swap_count_bound(alll_corpus):
    records, _, _ = alll_corpus
    log_inv_delta = math.log(1.0 / DELTA)
    for r in records:
        drop = -sum(math.log(x) for x in r.ratios)
        assert r.swaps <= 2 * drop / log_inv_delta + r.n - 1 + 1e-6
    print(f"ACCEPTANCE 12: swap counts within the potential budget on "
          f"{len(records)} instances: PASS")
