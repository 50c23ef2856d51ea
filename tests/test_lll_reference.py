"""reduction._lll against the loop it replaced (tests/lll_reference.py).

The library loop skips Gram-Schmidt ratios that cannot have changed since
they last rounded to 0, and holds R by columns of Python floats (over Z) or
Python complex (over a ring); its whole output (ua, ub, swaps,
size_reductions, events, potential_ratios, stalled) must equal the
reference's bit for bit, while it rounds fewer ratios.  The reference holds
R by rows in both fields and writes out its own size reduction, rotation
and phase fix in that layout, so each field checks the column layout
against an independent row layout in the same Python arithmetic.  The
library loop returns its events as (kind, column) steps, which reports
format on first read; they are compared formatted.  The library loop also
holds each column of the transform packed into one int, where the reference
updates lists with _sub_multiple; the tests at the end run it where those
packed columns must be repacked wider.  A property checks that the library
loop gives the same output, bit for bit, on B scaled by any power of two.
"""

import math
import types
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import lll_reference
from alglat import reduction
from alglat.cf import Channel, cf_basis
from alglat.lattices import ComplexBasis, embed
from alglat.rings import ring_new
from oracles import random_unimodular

pytestmark = pytest.mark.pins

RINGS = [None] + [ring_new(d) for d in (1, 2, 3, 5, 7)]
DELTAS = (0.75, 0.99, 1.0)


def ring_id(ring):
    return "Z" if ring is None else f"d={ring.d}"


def cn_basis(ring, n, rng):
    """CN(0,1) entries; standard normal ones over Z."""
    if ring is None:
        return rng.standard_normal((n, n))
    return math.sqrt(0.5) * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def cf_shape_basis(ring, n, rng):
    """The compute-and-forward lattice of one relay hearing n transmitters
    at 10, 30 or 50 dB; real LLL reduces its real embedding of rank 2n."""
    h = math.sqrt(0.5) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    ch = Channel.from_db(h, float(rng.choice([10.0, 30.0, 50.0])))
    basis = cf_basis(ch, ring_new(1) if ring is None else ring)
    return embed(basis) if ring is None else np.array(basis.matrix, dtype=complex)


def run_lll(B, delta, ring):
    """reduction._lll with its steps formatted as the reference's events."""
    got = reduction._lll(B[None], delta, ring)[0]
    return got[:4] + (reduction._event_strings(got[4]),) + got[5:]


def assert_same_run(B, delta, ring):
    got = run_lll(B, delta, ring)
    want = lll_reference._lll(B, delta, ring)
    assert got == want
    assert [r.hex() for r in got[5]] == [r.hex() for r in want[5]]
    return got


@pytest.mark.parametrize("delta", DELTAS)
@pytest.mark.parametrize("ring", RINGS, ids=ring_id)
def test_same_output_as_reference(ring, delta):
    rng = np.random.default_rng([int(delta * 100), 0 if ring is None else ring.d])
    swaps = 0
    for n in range(2, 9):
        for make in (cn_basis, cf_shape_basis) * 3:
            swaps += assert_same_run(make(ring, n, rng), delta, ring)[2]
    assert swaps > 0


def scrambled_rank16():
    ring = ring_new(3)
    rng = np.random.default_rng(16)
    n = 16
    base = np.eye(n) + 0.1 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return base @ random_unimodular(ring, n, rng, ops=240).to_complex(), ring


def embedded_rank16():
    """The real embedding of scrambled_rank16(), of rank 32, over Z."""
    B, ring = scrambled_rank16()
    return embed(ComplexBasis(B, ring)), None


def test_same_output_across_refactors():
    """A scrambled rank-16 basis swaps past REFACTOR_EVERY, so R is
    recomputed mid-run."""
    B, ring = scrambled_rank16()
    assert assert_same_run(B, 0.99, ring)[2] > reduction.REFACTOR_EVERY


def test_same_output_across_refactors_over_z():
    """Real LLL past REFACTOR_EVERY: each refactor turns R into Python float
    columns (rows in the reference) again."""
    B, ring = embedded_rank16()
    assert assert_same_run(B, 0.99, ring)[2] > reduction.REFACTOR_EVERY


def shift_every_refactor(monkeypatch):
    """Add R[0, 0] to the rest of row 0 of every refactored R, in both
    loops: that moves every ratio of row 0 by 1."""

    def shifted(r_positive):
        calls = []

        def wrapped(B):
            R = r_positive(B)
            if calls:
                R[0, 1:] += R[0, 0]
            calls.append(None)
            return R

        return wrapped

    monkeypatch.setattr(reduction, "_r_positive", shifted(reduction._r_positive))
    monkeypatch.setattr(lll_reference, "_r_positive", shifted(lll_reference._r_positive))


def test_refactor_voids_every_skip(monkeypatch):
    """A refactor rewrites all of R, so no ratio may be skipped after it.
    Each refactored R here gets R[0, 0] added to the rest of row 0, which
    moves every ratio of row 0 by 1: both loops must see and undo that."""
    shift_every_refactor(monkeypatch)
    B, ring = scrambled_rank16()
    assert assert_same_run(B, 0.99, ring)[2] > reduction.REFACTOR_EVERY


def test_refactor_voids_every_skip_over_z(monkeypatch):
    """The same over Z, where the shift is made on the numpy R before either
    loop turns it into Python floats."""
    shift_every_refactor(monkeypatch)
    B, ring = embedded_rank16()
    assert assert_same_run(B, 0.99, ring)[2] > reduction.REFACTOR_EVERY


def test_same_output_when_stalled():
    """Two embedded columns of equal norm: at delta = 1 the loop ends by the
    stall rule.  The entry is the channel basis of h = 0.1 + 0.1j at 20 dB
    as LAPACK's inverse Cholesky factor gave it; the closed form gives one
    ulp more, and then nothing stalls."""
    entry = float.fromhex("0x1.279a74590331cp-1")
    B = embed(ComplexBasis(np.array([[entry]], dtype=complex), ring_new(3)))
    assert assert_same_run(B, 1.0, None)[6]


@pytest.mark.parametrize("ring", [None, ring_new(1)], ids=ring_id)
def test_fewer_ratio_evaluations(ring, monkeypatch):
    """The loop must round fewer ratios than the reference on the same run,
    so the skip cannot silently disappear."""
    calls = {"new": 0, "reference": 0}

    def counting(name, inner):
        def wrapped(*args):
            calls[name] += 1
            return inner(*args)

        return wrapped

    if ring is None:
        # over Z the rounding is math.ceil(mu - 0.5), inline in the loop
        ceil = counting("new", math.ceil)
        monkeypatch.setattr(reduction, "math", types.SimpleNamespace(**{**vars(math), "ceil": ceil}))
        monkeypatch.setattr(
            lll_reference, "_round_half_down", counting("reference", lll_reference._round_half_down)
        )
    else:
        # the loop binds its ring's quantizer once per call: count what it returns
        quantizer = reduction._quantizer
        monkeypatch.setattr(reduction, "_quantizer", lambda r: counting("new", quantizer(r)))
        monkeypatch.setattr(
            lll_reference, "_quantize_pair", counting("reference", lll_reference._quantize_pair)
        )
    B = cf_shape_basis(ring, 4, np.random.default_rng(1001))
    got = run_lll(B, 0.99, ring)
    assert got == lll_reference._lll(B, 0.99, ring)
    assert got[2] > 0
    assert 0 < calls["new"] < calls["reference"]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(DELTAS),
    st.sampled_from(("cn", "cf")),
    st.integers(2, 12),
    st.integers(0, 2**32 - 1),
)
def test_same_output_over_z(delta, shape, n, seed):
    """Real LLL on Python float columns equals the row-major reference, on
    standard normal bases of rank n <= 12 and on cf-shape embeddings of
    rank 2 * (n // 2)."""
    rng = np.random.default_rng(seed)
    B = cn_basis(None, n, rng) if shape == "cn" else cf_shape_basis(None, n // 2, rng)
    assert_same_run(B, delta, None)


def exact_basis(ring, n, rng):
    """A full-rank basis with coordinates in [-3, 3]; integers over Z."""
    while True:
        m = rng.integers(-3, 4, size=(n, n)).astype(float)
        if ring is not None:
            m = m + ring.xi * rng.integers(-3, 4, size=(n, n))
        if np.linalg.matrix_rank(m) == n:
            return m


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([None] + [ring_new(d) for d in (1, 2, 3, 5, 7, 11)]),
    st.sampled_from((cn_basis, exact_basis)),
    st.integers(2, 8),
    st.integers(0, 2**32 - 1),
    st.integers(-1000, 1000),
)
@example(None, cn_basis, 7, 7, -2)
@example(ring_new(3), exact_basis, 5, 3, -2)
def test_lll_is_scale_invariant(ring, make, n, seed, k):
    """_lll(B * 2^k) is _lll(B) bit for bit: the same transform, counts,
    steps, potential ratios and stall flag, with no overflow or underflow on
    the way, wherever 2^k B is exact.  The examples gave other potential
    ratios while the Lovasz test squared with x ** 2 (libm pow)."""
    B = make(ring, n, np.random.default_rng(seed))
    scaled = B * 2.0**k
    assume(np.array_equal(scaled * 2.0**-k, B))
    base = reduction._lll(B[None], 0.99, ring)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = reduction._lll(scaled[None], 0.99, ring)[0]
    assert got[:5] + got[6:] == base[:5] + base[6:]
    assert [r.hex() for r in got[5]] == [r.hex() for r in base[5]]


# ---------------------------------------------------------------------------
# the packed transform: _lll holds each column of U as one int


@pytest.mark.parametrize("ring", [None, ring_new(1)], ids=ring_id)
def test_entry_past_pack_width(ring):
    """A ratio of 2**70 makes an entry of U that no 64-bit digit holds: the
    loop widens before that update, and returns the entry exactly."""
    B = np.array([[1.0, 2.0**70], [0.0, 1.0]], dtype=float if ring is None else complex)
    got = assert_same_run(B, 0.99, ring)
    assert got[0] == [[1, 0], [-(2**70), 1]]


@pytest.mark.parametrize("width", [2, 5])
def test_same_output_at_narrow_pack_width(width, monkeypatch):
    """With the packed digits only a few bits wide, the loop retightens its
    bounds and widens the columns many times; the reference corpus (ring
    and Z runs, and the scrambled rank-16 basis past REFACTOR_EVERY in both
    fields) must still give the reference's output."""
    monkeypatch.setattr(reduction, "_PACK_WIDTH", width)
    unpacked_at = []  # the width of each unpack of every column: a refactor or a bound
    unpack = reduction._unpack_columns

    def recording(PA, PB, n, w):
        unpacked_at.append(w)
        return unpack(PA, PB, n, w)

    monkeypatch.setattr(reduction, "_unpack_columns", recording)
    rng = np.random.default_rng(width)
    for ring in RINGS:
        for n in range(2, 9):
            for make in (cn_basis, cf_shape_basis):
                assert_same_run(make(ring, n, rng), 0.99, ring)
    for B, ring in (scrambled_rank16(), embedded_rank16()):
        assert assert_same_run(B, 0.99, ring)[2] > reduction.REFACTOR_EVERY
    # widened at least three times past the start, and unpacked far more
    # often than the 78 refactors of the two rank-16 runs
    assert len(set(unpacked_at)) >= 4 and len(unpacked_at) > 300
