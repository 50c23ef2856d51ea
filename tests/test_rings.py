import dataclasses
import functools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import alglat
from alglat import reduction, rings
from alglat.rings import (
    ZERO_RADIUS2,
    RingKind,
    RingSpec,
    _is_prime,
    _pair_mul,
    _quantize_pair,
    _quantize_pairs,
    _quantizer,
    morphism_new,
    parse_ring,
    quantize,
    ring_new,
    units,
)
import quantize_reference
from oracles import (
    conj_reference,
    covering_radius_geometric,
    norm_euclidean_sup_distance,
    ring_rules_reference,
)

EUCLIDEAN_D = (1, 2, 3, 7, 11)
SAMPLE_D = (1, 2, 3, 5, 6, 7, 11, 13, 15)


def exhaustive_nearest(x, ring, bound=8):
    """Independent quantizer oracle: search every (a, b) in a box."""
    return min(
        (ring.elem(a, b) for a in range(-bound, bound + 1) for b in range(-bound, bound + 1)),
        key=lambda e: (abs(x - e.embed()) ** 2, e.a, e.b),
    )


class TestRingNew:
    def test_gaussian(self):
        r = ring_new(1)
        assert r.kind is RingKind.TYPE_I
        assert r.xi == 1j
        assert r.det_phi == pytest.approx(1.0)
        assert r.euclidean

    def test_eisenstein(self):
        r = ring_new(3)
        assert r.kind is RingKind.TYPE_II
        assert r.xi == pytest.approx(0.5 + 1j * math.sqrt(3) / 2)
        assert r.det_phi == pytest.approx(math.sqrt(3) / 2)
        assert r.euclidean

    def test_d5_type_and_flag(self):
        r = ring_new(5)
        assert r.kind is RingKind.TYPE_I  # -5 = 3 (mod 4)
        assert not r.euclidean

    @pytest.mark.parametrize("bad", [4, 8, 9, 12, 18, 0, -3])
    def test_rejections(self, bad):
        with pytest.raises(ValueError):
            ring_new(bad)

    def test_parse(self):
        assert parse_ring("gaussian").d == 1
        assert parse_ring("eisenstein").d == 3
        assert parse_ring("d=11").d == 11
        with pytest.raises(ValueError):
            parse_ring("d=4")
        with pytest.raises(ValueError):
            parse_ring("quartz")


#: every square-free d up to 500, and three large d (the last above the
#: quantizer's rounding bound)
RULES_D = tuple(d for d in range(1, 501) if sympy.ntheory.factor_.core(d) == d) + (
    10007, 1048583, 2**40 + 1,
)


class TestRingIsItsD:
    def test_single_field(self):
        assert [f.name for f in dataclasses.fields(RingSpec)] == ["d"]
        assert RingSpec(1) == ring_new(1) and hash(RingSpec(3)) == hash(ring_new(3))
        assert RingSpec(5) != ring_new(7)
        with pytest.raises(TypeError):
            RingSpec(1, RingKind.TYPE_I)

    def test_derived_rules_match_closed_forms(self):
        """kind, det_phi, norm_form and conj, derived from d, xi and the
        minimal polynomial, equal their closed forms in the ring's type."""
        rng = random.Random(17)
        for d in RULES_D:
            ring = ring_new(d)
            assert (ring.kind, ring.det_phi, ring.norm_form) == ring_rules_reference(d), d
            for a, b in [(0, 1), (1, 0), (-3, 7)] + [
                (rng.randint(-10**9, 10**9), rng.randint(-10**9, 10**9)) for _ in range(10)
            ]:
                c = ring.elem(a, b).conj()
                assert (c.a, c.b) == conj_reference(d, a, b), (d, a, b)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(SAMPLE_D + (10007, 1048583)),
    st.lists(st.integers(-(2**20), 2**20), min_size=4, max_size=4),
)
def test_pair_mul_is_the_ring_and_the_complex_product(d, coords):
    ring = ring_new(d)
    a1, b1, a2, b2 = coords
    x, y = ring.elem(a1, b1), ring.elem(a2, b2)
    a, b = _pair_mul((a1, b1), (a2, b2), *ring.minpoly_coeffs)
    assert (a, b) == ((x * y).a, (x * y).b)
    scale = abs(x.embed()) * abs(y.embed())
    assert abs(ring.elem(a, b).embed() - x.embed() * y.embed()) <= 1e-12 * max(scale, 1.0)


class TestArithmetic:
    def test_difference_of_squares_d2(self):
        ring = ring_new(2)
        prod = (ring.elem(1, 1)) * (ring.elem(1, -1))
        assert (prod.a, prod.b) == (3, 0)  # xi^2 = -2

    def test_omega_squared(self):
        ring = ring_new(3)
        w2 = ring.elem(0, 1) * ring.elem(0, 1)
        assert (w2.a, w2.b) == (-1, 1)  # omega^2 = omega - 1

    def test_i_squared(self):
        ring = ring_new(1)
        sq = ring.elem(0, 1) * ring.elem(0, 1)
        assert (sq.a, sq.b) == (-1, 0)

    def test_elem_refuses_non_integral_coordinates(self):
        """elem(1.5, 2.7) was truncated to 1 + 2*xi."""
        ring = ring_new(1)
        for a, b in ((1.5, 2.7), (1, 2.0), (np.float64(1.0), 0), ("1", 0)):
            with pytest.raises(TypeError):
                ring.elem(a, b)
        e = ring.elem(np.int64(-3), np.int32(2))
        assert (e.a, e.b) == (-3, 2) and type(e.a) is int and type(e.b) is int

    def test_ring_refuses_a_non_integral_d(self):
        """ring_new(2.7) was truncated to d = 2, RingSpec(2.5) built xi =
        1.58j, and RingSpec(True) printed as d=True."""
        for d in (2.7, 2.5, 1.0, np.float64(3.0), "5"):
            with pytest.raises(TypeError):
                ring_new(d)
            with pytest.raises(TypeError):
                RingSpec(d)
        for d in (5, np.int64(5), np.int32(5), np.uint8(5)):
            for ring in (ring_new(d), RingSpec(d)):
                assert type(ring.d) is int and ring == ring_new(5) and str(ring) == "d=5"
        assert str(RingSpec(True)) == "d=1"

    @pytest.mark.parametrize("d", SAMPLE_D)
    def test_norm_multiplicative(self, d):
        ring = ring_new(d)
        rng = np.random.default_rng(d)
        for _ in range(300):
            x = ring.elem(*rng.integers(-50, 51, size=2))
            y = ring.elem(*rng.integers(-50, 51, size=2))
            assert (x * y).norm() == x.norm() * y.norm()
            assert x.norm() >= 0
            assert (x.norm() == 0) == x.is_zero()

    @pytest.mark.parametrize("d", SAMPLE_D)
    def test_embedding_respects_ops(self, d):
        ring = ring_new(d)
        rng = np.random.default_rng(d + 100)
        for _ in range(200):
            x = ring.elem(*rng.integers(-20, 21, size=2))
            y = ring.elem(*rng.integers(-20, 21, size=2))
            assert (x * y).embed() == pytest.approx(x.embed() * y.embed(), abs=1e-9)
            assert (x + y).embed() == pytest.approx(x.embed() + y.embed(), abs=1e-12)
            assert x.conj().embed() == pytest.approx(x.embed().conjugate(), abs=1e-12)
            assert x.norm() == pytest.approx(abs(x.embed()) ** 2, rel=1e-12, abs=1e-9)

    def test_arbitrary_precision(self):
        ring = ring_new(3)
        big = 10**30
        x = ring.elem(big, -big)
        prod = x * x
        assert prod.norm() == x.norm() ** 2  # no overflow, exact

    def test_exact_division(self):
        ring = ring_new(1)
        x = ring.elem(2, 1) * ring.elem(-3, 4)
        assert x.divide_exact(ring.elem(2, 1)) == ring.elem(-3, 4)
        with pytest.raises(ValueError):
            ring.elem(1, 1).divide_exact(ring.elem(2, 1))
        with pytest.raises(ZeroDivisionError):
            ring.elem(1, 0).divide_exact(ring.zero)

    def test_mixed_ring_rejected(self):
        with pytest.raises(ValueError):
            ring_new(1).elem(1, 0) * ring_new(2).elem(1, 0)


class TestUnits:
    def test_gaussian_units(self):
        us = units(ring_new(1))
        assert {(u.a, u.b) for u in us} == {(1, 0), (-1, 0), (0, 1), (0, -1)}

    def test_eisenstein_units(self):
        assert len(units(ring_new(3))) == 6

    @pytest.mark.parametrize("d", (2, 5, 7, 11, 13))
    def test_generic_units(self, d):
        ring = ring_new(d)
        # oracle: enumerate all elements of norm 1 in a wide box
        oracle = {
            (a, b)
            for a in range(-10, 11)
            for b in range(-10, 11)
            if ring.elem(a, b).norm() == 1
        }
        assert {(u.a, u.b) for u in units(ring)} == oracle == {(1, 0), (-1, 0)}

    @pytest.mark.parametrize("d", SAMPLE_D)
    def test_cached_per_ring(self, d):
        ring = ring_new(d)
        us = units(ring)
        assert units(ring) is us
        oracle = sorted(
            (a, b) for a in range(-10, 11) for b in range(-10, 11) if ring.elem(a, b).norm() == 1
        )
        assert [(u.a, u.b) for u in us] == oracle


class TestQuantize:
    def test_examples_match_exhaustive_oracle(self):
        ring2 = ring_new(2)
        q = quantize(0.4 + 1.0j, ring2)
        assert q == exhaustive_nearest(0.4 + 1.0j, ring2, bound=3)
        assert (q.a, q.b) == (0, 1)

        ring3 = ring_new(3)
        q = quantize(0.6 + 0.8j, ring3)
        assert q == exhaustive_nearest(0.6 + 0.8j, ring3, bound=3)
        assert (q.a, q.b) == (0, 1)

    @pytest.mark.parametrize("d", SAMPLE_D)
    def test_zero(self, d):
        q = quantize(0j, ring_new(d))
        assert (q.a, q.b) == (0, 0)

    def test_nonfinite_rejected(self):
        ring = ring_new(1)
        for bad in (complex("nan"), complex("inf"), complex(0, math.inf)):
            with pytest.raises(ValueError):
                quantize(bad, ring)

    @pytest.mark.parametrize("d", EUCLIDEAN_D + (5, 6))
    def test_optimality(self, d):
        """Nearest over a radius-3 neighborhood of the returned point."""
        ring = ring_new(d)
        rng = np.random.default_rng(d)
        for _ in range(10_000):
            x = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            q = quantize(x, ring)
            dq = abs(x - q.embed())
            for da in range(-3, 4):
                for db in range(-3, 4):
                    other = ring.elem(q.a + da, q.b + db)
                    assert dq <= abs(x - other.embed()) + 1e-12

    @pytest.mark.parametrize("d", SAMPLE_D)
    def test_residue_bounds(self, d):
        ring = ring_new(d)
        rng = np.random.default_rng(2 * d + 1)
        root = math.sqrt(d)
        for _ in range(5000):
            x = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            r = x - quantize(x, ring).embed()
            assert abs(r.real) <= 0.5 + 1e-12
            if ring.kind is RingKind.TYPE_I:
                assert abs(r.imag) <= root / 2 + 1e-12
            else:
                assert abs(r.imag) <= (1 / root) * (-abs(r.real) + (1 + d) / 4) + 1e-9

    @pytest.mark.parametrize("d", EUCLIDEAN_D)
    def test_max_residue_approaches_covering_radius(self, d):
        ring = ring_new(d)
        rng = np.random.default_rng(d + 7)
        rho = ring.covering_radius
        worst = 0.0
        for _ in range(100_000):
            x = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            worst = max(worst, abs(x - quantize(x, ring).embed()))
        assert worst <= rho + 1e-9
        assert worst >= 0.99 * rho

    def test_tie_prefers_lexicographically_smaller(self):
        ring = ring_new(1)
        q = quantize(0.5 + 0.0j, ring)  # equidistant from 0 and 1
        assert (q.a, q.b) == (0, 0)
        q = quantize(0.5 + 0.5j, ring)  # four-way tie
        assert (q.a, q.b) == (0, 0)


def _circle_points():
    """Points on, just inside and just outside |x| = 1/2 and the zero cut-off."""
    radius = st.sampled_from([0.5, math.sqrt(ZERO_RADIUS2)])
    factor = st.sampled_from([1.0, 1 - 1e-15, 1 + 1e-15, 1 - 1e-9, 1 + 1e-9, 1 - 1e-6, 1 + 1e-6])
    angle = st.floats(0.0, 2 * math.pi)
    return st.builds(
        lambda r, f, t: complex(r * f * math.cos(t), r * f * math.sin(t)), radius, factor, angle
    )


def _half_lattice_points(ring):
    """(a + b*xi)/2 and its neighbours a float step away: ties of the quantizer."""
    half = st.builds(
        lambda a, b: (complex(a) + b * ring.xi) / 2, st.integers(-6, 6), st.integers(-6, 6)
    )
    nudge = st.sampled_from([0j, 1e-15, -1e-15, 1e-15j, -1e-15j])
    return st.builds(lambda x, e: x + e, half, nudge)


@st.composite
def _ring_and_point(draw):
    ring = ring_new(draw(st.sampled_from(SAMPLE_D)))
    # |a|, |b| <= 5 for these points on every ring in SAMPLE_D, inside the oracle's box
    generic = st.builds(complex, st.floats(-3, 3), st.floats(-3, 3))
    x = draw(st.one_of(generic, _circle_points(), _half_lattice_points(ring)))
    return ring, x


@settings(max_examples=1500, deadline=None)
@given(_ring_and_point())
@example((ring_new(1), 0.5 + 0j))
@example((ring_new(1), 0.5 + 0.5j))
@example((ring_new(2), ring_new(2).xi / 2))
@example((ring_new(3), ring_new(3).xi / 2))
@example((ring_new(7), (1 + ring_new(7).xi) / 2))
def test_quantize_pair_matches_exhaustive_search(ring_point):
    ring, x = ring_point
    e = exhaustive_nearest(x, ring)
    assert _quantize_pair(x, ring) == (e.a, e.b)


@pytest.mark.parametrize("bad", [complex("nan"), complex("inf"), complex(0, math.inf)])
def test_quantize_pairs_rejects_nonfinite(bad):
    """On the scalar loop (few entries outside the zero radius) and on the
    array path alike."""
    with pytest.raises(ValueError, match="non-finite"):
        _quantize_pairs(np.array([0.3 + 2j, bad, 0.1j]), ring_new(3))
    for d in (1, 3):
        with pytest.raises(ValueError, match="non-finite"):
            _quantize_pairs(np.array([0.3 + 2j] * 20 + [bad, 0.1j]), ring_new(d))


#: rings of the reference property: SAMPLE_D, two large square-free d (type II)
#: and one (type I) above the quantizer's rounding bound on d
REFERENCE_RINGS = tuple(ring_new(d) for d in SAMPLE_D + (1019, 10007, 2**40 + 1))
#: the quantizer's rounding margin, written out so that the points below stay
#: put when the library's constant changes
MARGIN = 2.0**-16


@st.composite
def _reference_point(draw, ring):
    """A point where the rounding quantizer could part from the full search:
    coordinates at k + 1/2 and k + 1/2 +- (MARGIN +- a few ulp) in the
    rectangular or the coset frame, magnitudes from 2**-3 to 2**44 across the
    2**20 bound, and half-lattice ties nudged by one ulp."""
    root = math.sqrt(ring.d)

    def near_half():
        k = draw(st.one_of(*(st.integers(-(2**e), 2**e) for e in (3, 21, 44))))
        t = k + 0.5 + draw(st.sampled_from((-MARGIN, 0.0, MARGIN)))
        t += draw(st.integers(-4, 4)) * math.ulp(t)
        return t + draw(st.sampled_from((0.0, 0.5)))  # the coset frame is t - 1/2

    def scaled():
        r, angle = 2.0 ** draw(st.floats(-3, 40)), draw(st.floats(0, 2 * math.pi))
        return r * math.cos(angle), r * math.sin(angle) / root

    def free():
        return draw(st.floats(-8, 8)) if draw(st.booleans()) else scaled()[0]

    def tie():
        a = draw(st.one_of(st.integers(-8, 8), st.integers(-(2**21), 2**21)))
        x = (complex(a) + draw(st.integers(-16, 16)) * ring.xi) / 2
        step = st.sampled_from((-1, 0, 1))
        return x.real + draw(step) * math.ulp(x.real), (x.imag + draw(step) * math.ulp(x.imag)) / root

    kind = draw(st.sampled_from(("margin", "mixed", "scaled", "tie")))
    if kind == "margin":
        re, y = near_half(), near_half()
    elif kind == "mixed":
        re, y = (near_half(), free()) if draw(st.booleans()) else (free(), near_half())
    else:
        re, y = scaled() if kind == "scaled" else tie()
    return complex(re, y * root)


@st.composite
def _reference_case(draw):
    ring = draw(st.sampled_from(REFERENCE_RINGS))
    return ring, draw(_reference_point(ring))


#: relative nudges of a frame tie: none, a few ulp, across the array
#: quantizer's 2**-30 gap, and beyond it
FRAME_NUDGES = (0.0, 2.0**-52, -(2.0**-52), 2.0**-31, -(2.0**-31), 2.0**-29, -(2.0**-29), 2.0**-20)


def _frame_tie(ring, p, q, sx, sy, t, nudge):
    """A point on the bisector of the rectangular point p + q*sqrt(-d) and its
    coset neighbour (p + sx/2) + (q + sy/2)*sqrt(-d) (sx, sy = +-1), t along
    it from their midpoint, scaled by 1 + nudge: the two frames' candidates
    tie or nearly tie for a type II ring."""
    root = math.sqrt(ring.d)
    mid = complex(p + sx / 4, (q + sy / 4) * root)
    along = complex(-sy * root, sx) / math.hypot(root, 1.0)
    return (mid + t * along) * (1 + nudge)


def _frame_ties(ring):
    one = st.sampled_from((-1, 1))
    return st.builds(
        functools.partial(_frame_tie, ring),
        st.integers(-64, 64), st.integers(-64, 64), one, one,
        st.floats(-0.2, 0.2), st.sampled_from(FRAME_NUDGES),
    )


@st.composite
def _point_list(draw, ring):
    """Points of the scalar quantizer's properties: generic, around |x| = 1/2
    and the zero cut-off, nudged half-lattice ties, the reference cases
    (|re| or |y| up to 2**44) and near-ties of the two type II frames."""
    generic = st.builds(complex, st.floats(-3, 3), st.floats(-3, 3))
    point = st.one_of(
        generic, _circle_points(), _half_lattice_points(ring),
        _reference_point(ring), _frame_ties(ring),
    )
    return draw(st.lists(point, min_size=12, max_size=60))


@pytest.mark.parametrize("d", [ring.d for ring in REFERENCE_RINGS])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_quantize_pairs_matches_quantize_pair(d, data):
    ring = ring_new(d)
    xs = data.draw(_point_list(ring))
    a, b = _quantize_pairs(np.array(xs), ring)
    assert a.dtype == b.dtype == np.int64
    assert list(zip(a.tolist(), b.tolist())) == [_quantize_pair(x, ring) for x in xs]
    grid = np.array(xs[: len(xs) // 2 * 2]).reshape(2, -1)  # any shape, entry by entry
    a, b = _quantize_pairs(grid, ring)
    assert a.shape == grid.shape
    assert list(zip(a.ravel().tolist(), b.ravel().tolist())) == [
        _quantize_pair(x, ring) for x in grid.ravel().tolist()
    ]


def _sweep_points(ring, count):
    """count points, seeded by d, in four equal families: CN(0,1) scaled by
    2**U(-3, 44); near-half coordinates (MARGIN and a few ulp off k + 1/2,
    rectangular or coset frame) at the same magnitudes; half-lattice ties
    nudged by one ulp; and type II frame near-ties (_frame_tie)."""
    rng = np.random.default_rng(ring.d)
    root = math.sqrt(ring.d)
    k = count // 4
    sign = lambda: rng.choice((-1.0, 1.0), k)  # noqa: E731

    def near_half():
        t = sign() * np.floor(2.0 ** rng.uniform(-3, 44, k)) + 0.5
        t += sign() * MARGIN * rng.choice((0.0, 1.0, 2.0, 33.0), k)
        return t + rng.integers(-4, 5, k) * np.spacing(np.abs(t)) + rng.choice((0.0, 0.5), k)

    generic = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) * 2.0 ** rng.uniform(-3, 44, k)
    halves = near_half() + 1j * near_half() * root
    ties = (rng.integers(-64, 65, k) + rng.integers(-64, 65, k) * ring.xi) / 2
    ties += sign() * np.spacing(np.abs(ties.real)) + 1j * sign() * np.spacing(np.abs(ties.imag))
    frames = [
        _frame_tie(ring, p, q, sx, sy, t, nudge)
        for p, q, sx, sy, t, nudge in zip(
            rng.integers(-64, 65, k).tolist(), rng.integers(-64, 65, k).tolist(),
            sign().tolist(), sign().tolist(), rng.uniform(-0.2, 0.2, k).tolist(),
            rng.choice(FRAME_NUDGES, k).tolist(),
        )
    ]
    return np.concatenate((generic, halves, ties, frames))


@pytest.mark.parametrize("ring", REFERENCE_RINGS, ids=lambda r: f"d={r.d}")
def test_quantize_pairs_sweep(ring):
    """10**5 seeded points per ring, bit for bit against _quantize_pair."""
    x = _sweep_points(ring, 100_000)
    a, b = _quantize_pairs(x, ring)
    want = [_quantize_pair(z, ring) for z in x.tolist()]
    assert list(zip(a.tolist(), b.tolist())) == want


@pytest.mark.parametrize("d", EUCLIDEAN_D)
def test_quantize_pairs_rarely_falls_back(d, monkeypatch):
    """A work-count guard: on CN(0,1) rank-2 stacks run through the batched
    Gauss loop, at most 1% of the entries outside the zero radius reach the
    scalar _quantize_pair."""
    live, fallback = [], []
    scalar, array = rings._quantize_pair, rings._quantize_pairs

    def counted_array(x, ring):
        live.append(np.count_nonzero(~(x.real * x.real + x.imag * x.imag < ZERO_RADIUS2)))
        return array(x, ring)

    monkeypatch.setattr(rings, "_quantize_pair", lambda x, r: fallback.append(1) or scalar(x, r))
    monkeypatch.setattr(reduction, "_quantize_pairs", counted_array)
    rng = np.random.default_rng(d)
    M = math.sqrt(0.5) * (rng.standard_normal((2000, 2, 2)) + 1j * rng.standard_normal((2000, 2, 2)))
    reduction._gauss_batch(M, ring_new(d))
    assert sum(live) > 2000
    assert len(fallback) <= 0.01 * sum(live)


@settings(max_examples=2000, deadline=None)
@given(_reference_case())
@example((ring_new(5), complex(math.nextafter(0.5, 1), math.sqrt(5) / 2)))  # a nudged tie
@example((ring_new(2), complex(-2.559511699922293, -17720725912434.35)))  # |y| ~ 2**43
@example((ring_new(2**40 + 1), complex(0.5000152587890626, 524272.0000002384)))  # d > 2**20
# midpoints of a rectangular and a coset point, every frame coordinate 1/4
# from a half-integer: the direct two-point compare decides, and where the
# float distances tie, by the (dist, a, b) rule
@example((ring_new(3), complex(0.25, math.sqrt(3) / 4)))  # 0 and xi: tie, b
@example((ring_new(3), complex(0.25, -math.sqrt(3) / 4)))  # 0 and 1 - xi: tie, a
@example((ring_new(3), complex(0.75, math.sqrt(3) / 4)))  # 1 and xi: tie, a
@example((ring_new(7), complex(-0.25, 0.75 * math.sqrt(7))))  # -1 + 2xi and -1 + xi: tie, b
@example((ring_new(15), complex(1.25, -0.25 * math.sqrt(15))))  # 1 and 2 - xi: tie, a
@example((ring_new(1019), complex(4.75, -6.75 * math.sqrt(1019))))  # a near-tie
def test_quantize_pair_matches_full_search(ring_point):
    """Rounding drops only candidates that the 4- or 8-candidate search of
    tests/quantize_reference.py would not pick, so both give the same (a, b)."""
    ring, x = ring_point
    assert _quantize_pair(x, ring) == quantize_reference._quantize_pair(x, ring)


@pytest.mark.parametrize("d", (1, 3, 10007))
def test_quantizer_is_built_once_per_ring(d):
    """Equal rings share one quantizer, as they share units."""
    assert _quantizer(ring_new(d)) is _quantizer(ring_new(d))
    assert _quantizer(ring_new(d))(2.6 + 0.1j) == _quantize_pair(2.6 + 0.1j, ring_new(d))


@pytest.mark.parametrize("ring", REFERENCE_RINGS, ids=lambda r: f"d={r.d}")
def test_quantize_pair_matches_full_search_sweep(ring):
    """The families of the property above, seeded and denser: a wrong drop
    shows on few points (a few in a thousand near-half ones at |y| ~ 2**42,
    say), more than the property's examples reliably reach."""
    rnd = random.Random(ring.d)
    root = math.sqrt(ring.d)

    def near_half():
        k = rnd.choice((-1, 1)) * math.floor(2.0 ** rnd.uniform(-3, 44))
        t = k + 0.5 + rnd.choice((-1, 1)) * MARGIN * rnd.choice((0.0, 1.0, rnd.uniform(1, 64)))
        return t + rnd.randint(-4, 4) * math.ulp(t) + rnd.choice((0.0, 0.5))

    for _ in range(4000):
        re, y = near_half(), near_half()
        if rnd.random() < 0.5:
            re, y = (rnd.uniform(-8, 8), y) if rnd.random() < 0.5 else (re, rnd.uniform(-8, 8))
        x = complex(re, y * root)
        if rnd.random() < 0.25:  # a half-lattice tie nudged by one ulp
            x = (rnd.randint(-64, 64) + rnd.randint(-64, 64) * ring.xi) / 2
            x += complex(rnd.choice((-1, 1)) * math.ulp(x.real), rnd.choice((-1, 1)) * math.ulp(x.imag))
        assert _quantize_pair(x, ring) == quantize_reference._quantize_pair(x, ring), x


@pytest.mark.parametrize("bad", [complex("nan"), complex("inf"), complex(math.inf, math.nan)])
@pytest.mark.parametrize("d", (1, 3, 10007))
def test_quantize_pair_rejects_nonfinite(bad, d):
    for quantizer in (_quantize_pair, quantize_reference._quantize_pair):
        with pytest.raises(ValueError, match="non-finite"):
            quantizer(bad, ring_new(d))


class TestCoveringRadius:
    def test_closed_forms(self):
        assert ring_new(1).covering_radius == pytest.approx(math.sqrt(2) / 2)
        assert ring_new(3).covering_radius == pytest.approx(1 / math.sqrt(3))
        r11 = ring_new(11).covering_radius
        assert r11 == pytest.approx(12 / (4 * math.sqrt(11)))
        assert r11 < 1

    def test_geometric_matches_closed_form_d_le_50(self):
        for d in range(1, 51):
            try:
                ring = ring_new(d)
            except ValueError:
                continue
            assert abs(ring.covering_radius - covering_radius_geometric(ring)) < 1e-12

    def test_rho_below_one_exactly_on_euclidean_set(self):
        for d in range(1, 51):
            try:
                ring = ring_new(d)
            except ValueError:
                continue
            assert (ring.covering_radius < 1) == (d in EUCLIDEAN_D)
            assert ring.euclidean == (d in EUCLIDEAN_D)

    @pytest.mark.parametrize("d", range(1, 16))
    def test_euclidean_flag_matches_numeric_test(self, d):
        """Grid sup of quantization distance is < 1 exactly for Euclidean rings."""
        try:
            ring = ring_new(d)
        except ValueError:
            pytest.skip("not square-free")
        sup = norm_euclidean_sup_distance(ring, grid=160)
        if ring.euclidean:
            assert sup < 1.0
        else:
            # the grid slightly underestimates the true sup; margin is ample
            assert sup > 1.0 - 5e-3
            assert ring.covering_radius >= 1.0


class TestMorphism:
    def test_gaussian_f5(self):
        ring = ring_new(1)
        mor = morphism_new(ring, ring.elem(2, 1))
        assert mor.p == 5
        assert mor.xi_image == 3
        assert mor.apply(ring.elem(2, 1)) == 0
        assert mor.apply(ring.one) == 1
        assert (mor.apply(ring.elem(0, 1)) ** 2) % 5 == 4  # a square root of -1

    def test_homomorphism_brute_force(self):
        ring = ring_new(1)
        mor = morphism_new(ring, ring.elem(2, 1))
        elems = [ring.elem(a, b) for a in range(-10, 11) for b in range(-10, 11)]
        rng = np.random.default_rng(0)
        idx = rng.integers(0, len(elems), size=(2000, 2))
        for i, j in idx:
            x, y = elems[i], elems[j]
            assert mor.apply(x * y) == (mor.apply(x) * mor.apply(y)) % 5
            assert mor.apply(x + y) == (mor.apply(x) + mor.apply(y)) % 5

    @pytest.mark.parametrize(
        "d,mod", [(1, (2, 1)), (1, (1, 1)), (3, (2, 1)), (2, (0, 1)), (5, (0, 1))]
    )
    def test_properties_random(self, d, mod):
        ring = ring_new(d)
        mor = morphism_new(ring, ring.elem(*mod))
        p = mor.p
        rng = np.random.default_rng(d)
        for _ in range(10_000):
            x = ring.elem(*rng.integers(-30, 31, size=2))
            y = ring.elem(*rng.integers(-30, 31, size=2))
            assert mor.apply(x * y) == (mor.apply(x) * mor.apply(y)) % p
            assert mor.apply(x + y) == (mor.apply(x) + mor.apply(y)) % p
        assert mor.apply(ring.one) == 1
        for u in units(ring):
            fu = mor.apply(u)
            assert math.gcd(fu, p) == 1  # maps to an invertible element

    def test_apply_refuses_an_element_of_another_ring(self):
        mor = morphism_new(ring_new(1), ring_new(1).elem(2, 1))
        with pytest.raises(ValueError, match="element from a different ring"):
            mor.apply(ring_new(3).one)

    def test_modulus_from_another_ring_rejected(self):
        with pytest.raises(ValueError, match="modulus from a different ring"):
            morphism_new(ring_new(1), ring_new(3).elem(2, 1))

    def test_composite_norm_rejected(self):
        ring = ring_new(1)
        with pytest.raises(ValueError):
            morphism_new(ring, ring.elem(3, 0))  # norm 9

    def test_no_annihilating_root_rejected(self):
        ring = ring_new(1)
        with pytest.raises(ValueError):
            morphism_new(ring, ring.elem(3, 1))  # norm 10, composite


def test_is_prime_matches_sympy():
    for n in [*range(200_001), 2**31 - 1, 10**9 + 7, 561, 1105, 1729]:
        assert _is_prime(n) == sympy.isprime(n), n


#: the least strong pseudoprimes to the first 12 and to the first 13 primes
PSI12 = 318665857834031151167461
PSI13 = 3317044064679887385961981


@pytest.mark.parametrize(
    "n, prime",
    [
        (10**18 + 9, True),  # the norm of 10^9 + 3i, the modulus 1000000000,3
        (2047, False),
        (1373653, False),
        (25326001, False),
        (3215031751, False),
        (PSI12, False),
        (PSI13 - 2, sympy.isprime(PSI13 - 2)),
    ],
)
def test_is_prime_on_strong_pseudoprimes(n, prime):
    assert _is_prime(n) is prime and sympy.isprime(n) is prime


def test_is_prime_refuses_past_its_bases():
    """PSI13 is a strong pseudoprime to all 13 bases, so from there on the
    test cannot decide and says so."""
    for n in (PSI13, PSI13 + 2, 10**30):
        with pytest.raises(ValueError, match="prime"):
            _is_prime(n)


def test_squarefree_check_has_a_limit():
    """Trial division up to sqrt(d) would run for hours on d = 10^30 + 1;
    d above the limit is refused at once, square-free or not."""
    assert ring_new(2**40 + 1).d == 2**40 + 1
    for d in (2**42 + 1, 10**30 + 1):
        with pytest.raises(ValueError, match="not supported"):
            ring_new(d)
    with pytest.raises(ValueError, match="not supported"):
        parse_ring("d=1000000000000000000000000000001")


def _xi_image_by_root_scan(ring, modulus, p):
    """The minimal-polynomial root mod p that annihilates the modulus, found
    by scanning every residue."""
    s, t = ring.minpoly_coeffs
    r = np.arange(p, dtype=np.int64)
    roots = r[(r * r - s * r - t) % p == 0]
    good = roots[(modulus.a + modulus.b * roots) % p == 0]
    return int(good.min())


@pytest.mark.parametrize("d", (1, 2, 3, 5, 6, 7, 10, 11, 13, 15, 19, 23, 31, 43))
def test_xi_image_is_the_scanned_root(d):
    ring = ring_new(d)
    checked = 0
    for a in range(-25, 26):
        for b in range(-25, 26):
            modulus = ring.elem(a, b)
            p = modulus.norm()
            if not sympy.isprime(p):
                with pytest.raises(ValueError, match="not prime"):
                    morphism_new(ring, modulus)
                continue
            assert morphism_new(ring, modulus).xi_image == _xi_image_by_root_scan(ring, modulus, p)
            checked += 1
    assert checked > 0


def test_import_leaves_sympy_unloaded():
    src = str(Path(alglat.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, alglat; print('sympy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "False"
