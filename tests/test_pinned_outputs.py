"""Byte-level pins of CLI outputs recorded with alglat 0.1.0.

Refactors of the reduction, enumeration and compute-and-forward layers must
leave these exact: the cf-experiment CSV (floats in its .10g format), the
integer parts of reduce/svp on the golden rank-2 bases, every field of
the alll_reduce and gauss_reduce reports on float and exact-entry bases,
cf_experiment rows, every field of design_relay's designs, the
transforms and swap counts of real_lll on embedded channel bases, the
hermite-cdf CSV together with the raw bits of the Hermite factors behind it,
the rank-failure CSV, rank_failure_probability for every strategy, and the
bits of dof_slope.
"""

import hashlib
import io
import json

import numpy as np
import pytest

from alglat.cf import (
    STRATEGIES,
    cf_basis,
    db_to_linear,
    default_morphism,
    design_relay,
    random_channel,
)
from alglat.cli import main
from alglat.experiments import (
    CF_CSV_HEADER,
    cf_experiment,
    dof_slope,
    hermite_cdf,
    rank_failure_probability,
    write_csv,
)
from alglat.lattices import ComplexBasis, basis_to_json, embed
from alglat.reduction import alll_reduce, gauss_reduce, real_lll
from alglat.rings import ring_new

pytestmark = pytest.mark.pins

CF_CSV_SHA256 = {
    1: "787d24a246a6ec9026e82d5fcffa234351a34570bffabe10b6faf586a0e71a86",
    3: "12710d520ddd38732af3921cde2ee05dd1e971bc1064495bcde797b5345bc307",
}

GOLDEN = {
    3: {
        "rlll": [[-1, 1, 1, 0], [1, -1, 0, 0], [0, -1, -1, 0], [0, 1, 1, 1]],
        "alll": [[[-1, 0], [0, 0]], [[1, 0], [1, 0]]],
        "svp": ([[1, 0], [-1, 0]], 11),
    },
    5: {
        "rlll": [[-1, 2, -1, -2], [2, 1, -1, 3], [1, 1, -1, 1], [0, -1, 1, 0]],
        "alll": [[[1, 0], [-1, 0]], [[0, 0], [1, 0]]],
        "svp": ([[-1, 1], [2, 0]], 28),
    },
}


def golden_basis(d):
    ring = ring_new(d)
    xi = ring.xi
    if d == 3:
        m = [[4 + xi, 1 + 4 * xi], [-1 + 5 * xi, 1 + 2 * xi]]
    else:
        m = [[2 + 3 * xi, 8 + xi], [2 + xi, 2 + 0 * xi]]
    return ComplexBasis(np.array(m), ring)


def pin_rng(*words) -> np.random.Generator:
    """default_rng of the seed list words.  numpy's SeedSequence drops
    trailing zero words, so a list ending in 0 would draw the stream of the
    shorter list: no pin seed ends in one."""
    assert words[-1] != 0, words
    return np.random.default_rng(list(words))


def run_cli(tmp_path, argv):
    out = tmp_path / "out"
    main(argv + ["--out", str(out)])
    return out.read_bytes()


@pytest.mark.parametrize("d", sorted(CF_CSV_SHA256))
def test_cf_experiment_csv_bytes(tmp_path, d):
    cfg = {
        "ring": f"d={d}",
        "n": 2,
        "snr_db": [0, 20, 40],
        "trials": 10,
        "strategies": ["alll", "rlll", "svp", "best_single"],
        "seed": 42,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    data = run_cli(tmp_path, ["cf-experiment", "--config", str(path)])
    assert hashlib.sha256(data).hexdigest() == CF_CSV_SHA256[d]


@pytest.mark.parametrize("d", sorted(GOLDEN))
def test_golden_integer_outputs(tmp_path, d):
    path = tmp_path / "basis.json"
    path.write_text(basis_to_json(golden_basis(d)))
    for alg in ("rlll", "alll"):
        report = json.loads(run_cli(tmp_path, ["reduce", "--basis", str(path), "--algorithm", alg]))
        assert report["transform"] == GOLDEN[d][alg]
    res = json.loads(run_cli(tmp_path, ["svp", "--basis", str(path)]))
    assert (res["coefficient"], res["enumerated_nodes"]) == GOLDEN[d]["svp"]


# ---------------------------------------------------------------------------
# full reduction reports

REPORT_SHA256 = {
    "alll": {
        1: "b557e0b1a2fcd3baa11e97ff9e1a8011e389b4a1927a7b04557c017194879b9a",
        3: "c74c9f761226773cd0811cc8d70466dfd82e54922b38aaca03a74523d4e85e87",
        5: "904ad5692d0633203b3d2c9618fa14f4e6f76c1d3293eda9447ff4a397780913",
    },
    "gauss": {
        1: "1c3dce70d840ce31731a47016e7f790bf3c7f14e15b05bb2d38ca09868f9f9d5",
        3: "48ba9f8a2aab871f680ed4a44e7d891c0f4ee20a01539bd181124a266c311d98",
        5: "f2966cc0613985cd42d3bdad7a32b6a8dbf825c01d341e2ef0af35e834785c79",
    },
}

#: bases per rank in the alll pin; each comes as a float and an exact-entry draw
ALLL_COUNTS = {2: 8, 4: 6, 8: 4, 16: 2}
GAUSS_COUNT = 50


def pin_bases(d, n, count):
    """(float CN(0,1) basis, exact basis with coordinates in [-3, 3]) pairs."""
    xi = ring_new(d).xi
    for k in range(count):
        # the recorded reports drew k = 0 as [d, n]: the same stream
        rng = pin_rng(d, n, k) if k else pin_rng(d, n)
        z = np.sqrt(0.5) * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        while True:
            m = rng.integers(-3, 4, size=(n, n)) + xi * rng.integers(-3, 4, size=(n, n))
            if np.linalg.matrix_rank(m) == n:
                break
        yield z
        yield m


def report_digest(rep) -> str:
    """sha256 over every output field of a ReductionReport except wall time."""
    checks = sorted(
        (k, repr(c.lhs), repr(c.rhs), c.passed, c.skipped) for k, c in rep.bound_checks.items()
    )
    fields = [
        rep.reduced.matrix.tobytes().hex(),
        repr([[(e.a, e.b) for e in row] for row in rep.transform.entries]),
        repr(rep.events),
        repr([repr(float(r)) for r in rep.potential_ratios]),
        repr((rep.swaps, rep.size_reductions, rep.norms_squared_exact, rep.stalled)),
        repr(checks),
    ]
    return hashlib.sha256("\n".join(fields).encode()).hexdigest()


@pytest.mark.parametrize("d", sorted(REPORT_SHA256["alll"]))
def test_alll_reports(d):
    ring = ring_new(d)
    h = hashlib.sha256()
    for n, count in ALLL_COUNTS.items():
        for m in pin_bases(d, n, count):
            basis = ComplexBasis(m, ring)
            lambda1 = 0.5 * float(np.min(np.linalg.norm(m, axis=0)))
            h.update(report_digest(alll_reduce(basis, lambda1=lambda1)).encode())
    assert h.hexdigest() == REPORT_SHA256["alll"][d]


@pytest.mark.parametrize("d", sorted(REPORT_SHA256["gauss"]))
def test_gauss_reports(d):
    ring = ring_new(d)
    h = hashlib.sha256()
    for m in pin_bases(d, 2, GAUSS_COUNT):
        h.update(report_digest(gauss_reduce(ComplexBasis(m, ring))).encode())
    assert h.hexdigest() == REPORT_SHA256["gauss"][d]


# ---------------------------------------------------------------------------
# compute-and-forward designs and experiment rows

CF_ROWS_SHA256 = {
    (1, 4): "50b3babcd7459ad87f2e93240caed62def8723389bcd3902961169e09db510da",
    (5, 3): "6f39411fcbf915390b231688471ae882b5362c1dd4c21a221048220b45b57e56",
}

DESIGN_SHA256 = {
    (1, 0.6): "4c302e19fec92bb190515663b242b8f11f188ecfd9d5277ad5320e94d95f876b",
    (1, 0.99): "26dd40d0f1c0045c376688d5388a1a653c2bcea94b41fa7f359670ac8ed532bd",
    (3, 0.6): "3b66eaa52f319d8d9f5a7797d6cccb641bba5fd0df09fc97f317d250a65895cd",
    (3, 0.99): "4d66c6f39a4323d0c721e5ef584461311026b5be56421e6c526cf39e95999202",
    (5, 0.6): "6f0a957b0a01ab1900a3e698f7466068f7b5fd1ce89a3828aa62fdb9bc1b0414",
    (5, 0.99): "08b3794d46179531cb695bb52c75fa41d80049d4b6e26b1d5438c43c6e7b1f06",
}


@pytest.mark.parametrize("d, n", sorted(CF_ROWS_SHA256))
def test_cf_experiment_rows(d, n):
    """The benchmark's cf-network shape (d=1, four relays) and a
    non-Euclidean ring with no field map (d=5)."""
    rows = cf_experiment(ring_new(d), n, (10, 30, 50), 5, STRATEGIES, 2024)
    out = io.StringIO()
    write_csv(rows, CF_CSV_HEADER, out)
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == CF_ROWS_SHA256[(d, n)]


def design_digest(design) -> str:
    """Every output field of a RelayDesign."""
    matrix = None if design.matrix is None else [[(e.a, e.b) for e in row] for row in design.matrix.entries]
    fields = [
        design.strategy,
        repr([[(e.a, e.b) for e in v] for v in design.vectors]),
        repr([repr(float(r)) for r in design.rates]),
        repr(matrix),
        repr(design.swaps),
        repr(float(design.first_norm)),
    ]
    return "\n".join(fields)


#: last seed word of each pin family that draws channels: the families draw
#: distinct channels, and no seed list ends in a zero word
DESIGN_FAMILY, REAL_LLL_FAMILY = 1, 2


def design_channels(d):
    """The channels of the relay-design pin over d: rank 1 to 4 at 0 to 50 dB."""
    for n in (1, 2, 3, 4):
        for k in range(6):
            yield random_channel(n, db_to_linear(10.0 * k), pin_rng(d, n, k, DESIGN_FAMILY))


@pytest.mark.parametrize("d, delta", sorted(DESIGN_SHA256))
def test_relay_designs(d, delta):
    """design_relay for every strategy on channels of rank 1 to 4; the svp
    design does not depend on delta."""
    ring = ring_new(d)
    h = hashlib.sha256()
    for ch in design_channels(d):
        for s in STRATEGIES:
            h.update(design_digest(design_relay(ch, ring, s, delta)).encode())
    assert h.hexdigest() == DESIGN_SHA256[(d, delta)]


# ---------------------------------------------------------------------------
# real LLL on embedded bases

REAL_LLL_SHA256 = {
    1: "6e1c17e6d5cff4d4abb0dfa7f5af773255203e97e0599c9fd16983550727a855",
    2: "93aa3eb75128867dfee36b518b42cfc67dbafe701891229f91507e5c6627418b",
    3: "3dbbedf74347b170f757a1b8a2f6b054f538f3850e16df814bba0429677c098c",
    5: "6b2892ce028070828033064cb81bdeec28c24b73eb60b3b8087032ae0483f581",
    7: "c1b0399e703660e2778c37208f94fdef031e6520596a0c254da0b36685339069",
    "golden": "d3e77dbc289f63f2e3713379f8e9ced5bc4906961b44dabad18abec80126df5d",
}


def real_lll_channels(d):
    """The channels of the real-LLL pin over d: rank 1 to 4 at SNR 10^0 ..
    10^5, three each."""
    for n in (1, 2, 3, 4):
        for p in range(6):
            for k in range(3):
                yield random_channel(n, 10.0**p, pin_rng(d, n, p, k, REAL_LLL_FAMILY))


def real_lll_digest(matrix, delta) -> str:
    _, T, swaps = real_lll(matrix, delta)
    return repr(([[int(v) for v in row] for row in T], swaps))


@pytest.mark.parametrize("case", list(REAL_LLL_SHA256))
def test_real_lll_transforms(case):
    """(T, swaps) of real_lll on embedded channel bases of rank 1 to 4 at
    SNR 10^0 .. 10^5, and on both golden bases at delta 0.99 and 1."""
    h = hashlib.sha256()
    if case == "golden":
        for d in sorted(GOLDEN):
            for delta in (0.99, 1.0):
                h.update(real_lll_digest(embed(golden_basis(d)), delta).encode())
    else:
        ring = ring_new(case)
        for ch in real_lll_channels(case):
            matrix = embed(cf_basis(ch, ring))
            for delta in (0.6, 0.75, 0.99):
                h.update(real_lll_digest(matrix, delta).encode())
    assert h.hexdigest() == REAL_LLL_SHA256[case]


def test_channel_pins_draw_distinct_channels():
    """No channel of the relay-design pin repeats one of the real-LLL pin,
    nor any other of either pin.  With seeds [d, n, k] and [d, n, p, k],
    each real-LLL draw with k = 0 repeated the design channel with k = p."""
    seen = [
        ch.h.tobytes()
        for d in sorted({d for d, _ in DESIGN_SHA256})
        for ch in design_channels(d)
    ]
    seen += [ch.h.tobytes() for d in REAL_LLL_SHA256 if d != "golden" for ch in real_lll_channels(d)]
    assert len(seen) == len(set(seen)) == 3 * 24 + 5 * 72


# ---------------------------------------------------------------------------
# Hermite factor CDF

HERMITE_D = (1, 2, 3, 5, 7, 11)
HERMITE_TRIALS, HERMITE_SEED = 300, 7
HERMITE_CSV_SHA256 = "8ee536bdb7de56051d1d0ae0aed60ee91645a0bb3993228ad207788bcd74ee07"
HERMITE_BITS_SHA256 = "7e20bf7654c6d89bd2e6bd274a019bd294f4bf5a3bf51ca83b783940a0446afb"


def test_hermite_cdf_csv_bytes(tmp_path):
    argv = ["hermite-cdf"]
    for d in HERMITE_D:
        argv += ["--ring", f"d={d}"]
    argv += ["--trials", str(HERMITE_TRIALS), "--seed", str(HERMITE_SEED)]
    assert hashlib.sha256(run_cli(tmp_path, argv)).hexdigest() == HERMITE_CSV_SHA256


def test_hermite_cdf_raw_bits():
    """The CSV's .10g format hides the last bits; this pins every float."""
    data = hermite_cdf([ring_new(d) for d in HERMITE_D], HERMITE_TRIALS, HERMITE_SEED)
    h = hashlib.sha256()
    for vals in data.values():
        h.update(vals.tobytes())
    assert h.hexdigest() == HERMITE_BITS_SHA256


# ---------------------------------------------------------------------------
# rank failure and degrees of freedom

RANK_CSV_SHA256 = {
    1: "9e5916c8a9307e81b1a61c95ab19000deee9b2a3c4a544c739daac39dc4b2e1d",
    3: "6aa3b1c6f13695454c9f0a749efe855c487b6a855e45f718cde4589ab12170eb",
}

#: repr of (p_rank_fail_ring, p_rank_fail_field) at 20 dB, 150 trials, seed 42;
#: svp and best_single stack the same best vectors as rlll on these draws
RANK_FAILURE_REPR = {
    (1, 2): {
        "alll": "(0.0, 0.0)",
        "rlll": "(0.04, 0.19333333333333333)",
        "svp": "(0.04, 0.19333333333333333)",
        "best_single": "(0.04, 0.19333333333333333)",
    },
    (1, 3): {
        "alll": "(0.0, 0.0)",
        "rlll": "(0.006666666666666667, 0.2)",
        "svp": "(0.006666666666666667, 0.2)",
        "best_single": "(0.006666666666666667, 0.2)",
    },
    (3, 2): {
        "alll": "(0.0, 0.0)",
        "rlll": "(0.02666666666666667, 0.11333333333333333)",
        "svp": "(0.02666666666666667, 0.11333333333333333)",
        "best_single": "(0.02666666666666667, 0.11333333333333333)",
    },
    (3, 3): {
        "alll": "(0.0, 0.0)",
        "rlll": "(0.02, 0.12)",
        "svp": "(0.02, 0.12)",
        "best_single": "(0.02, 0.12)",
    },
}

#: repr of dof_slope for three relays on the grid (0, 20, 40) dB, 20 channels
#: per point, seed 9
DOF_SLOPE_REPR = {
    (1, "alll"): "0.35234225061976326",
    (1, "svp"): "0.3523049859011413",
    (1, "rlll"): "0.3523049859011413",
    (3, "alll"): "0.3462373713573189",
    (3, "svp"): "0.346237371357319",
    (3, "rlll"): "0.3462373713573192",
    (5, "alll"): "0.15362540442777983",
}


@pytest.mark.parametrize("d", sorted(RANK_CSV_SHA256))
def test_rank_failure_csv_bytes(tmp_path, d):
    """d=1 with its default F_5 map, d=3 with the modulus 2 + xi given."""
    argv = ["rank-failure", "--ring", f"d={d}", "--n", "2", "--snr-db", "25"]
    argv += ["--trials", "200", "--seed", "42"]
    if d == 3:
        argv += ["--modulus", "2,1"]
    assert hashlib.sha256(run_cli(tmp_path, argv)).hexdigest() == RANK_CSV_SHA256[d]


@pytest.mark.parametrize("d, n", sorted(RANK_FAILURE_REPR))
def test_rank_failure_probabilities(d, n):
    ring = ring_new(d)
    mor = default_morphism(ring)
    got = {
        s: repr(rank_failure_probability(ring, mor, n, db_to_linear(20.0), 150, s, seed=42))
        for s in STRATEGIES
    }
    assert got == RANK_FAILURE_REPR[(d, n)]


@pytest.mark.parametrize("d, strategy", sorted(DOF_SLOPE_REPR))
def test_dof_slope_bits(d, strategy):
    slope = dof_slope(ring_new(d), 3, strategy, [0, 20, 40], channels_per_point=20, seed=9)
    assert repr(slope) == DOF_SLOPE_REPR[(d, strategy)]
