import functools
import itertools
import math
import warnings

import numpy as np
import pytest

from alglat import reduction, svp
from alglat.lattices import ComplexBasis, coeff_to_complex
from alglat.reduction import NonEuclideanRingWarning, alll_reduce
from alglat.rings import ring_new, units
from alglat.svp import (
    EnumerationBudgetError,
    shortest_vector,
    successive_minima_2d,
)
from oracles import minkowski_check, random_basis

RING1 = ring_new(1)
RING3 = ring_new(3)
RING5 = ring_new(5)


@functools.cache
def _box_coords(box: int, n: int) -> np.ndarray:
    """Every nonzero integer vector (a_1, b_1, ..., a_n, b_n) in [-box, box],
    one per column."""
    coords = np.array(list(itertools.product(range(-box, box + 1), repeat=2 * n))).T
    return coords[:, coords.any(axis=0)]


def brute_force_lambda1(basis, box=6):
    """Independent oracle: scan every coefficient vector in a box, as one
    block of columns a_j + b_j*xi and one matrix product."""
    coords = _box_coords(box, basis.n)
    block = coords[0::2] + coords[1::2] * basis.ring.xi
    return float(np.linalg.norm(basis.matrix @ block, axis=0).min())


class TestShortestVector:
    def test_identity_gaussian(self):
        B = ComplexBasis(np.eye(2, dtype=complex), RING1)
        res = shortest_vector(B)
        assert res.norm == pytest.approx(1.0)
        # canonical representative of a unit multiple of a standard column
        coords = [(e.a, e.b) for e in res.coefficient]
        assert coords in ([(1, 0), (0, 0)], [(0, 0), (1, 0)])

    def test_eisenstein_golden(self):
        w = RING3.xi
        B = ComplexBasis(np.array([[4 + w, 1 + 4 * w], [-1 + 5 * w, 1 + 2 * w]]), RING3)
        res = shortest_vector(B)
        assert res.norm_squared == pytest.approx(16.0, abs=1e-6)

    def test_noneuclidean_golden(self):
        xi = RING5.xi
        B = ComplexBasis(np.array([[2 + 3 * xi, 8 + xi], [2 + xi, 2 + 0 * xi]]), RING5)
        res = shortest_vector(B)
        assert res.norm_squared == pytest.approx(20.0, abs=1e-6)

    @pytest.mark.parametrize("d", (1, 2, 3, 5, 7, 11))
    def test_matches_brute_force(self, d):
        ring = ring_new(d)
        rng = np.random.default_rng(d + 31)
        for _ in range(15):
            B = random_basis(ring, 2, rng)
            res = shortest_vector(B)
            assert res.norm == pytest.approx(brute_force_lambda1(B), abs=1e-7)
            assert res.norm == pytest.approx(
                np.linalg.norm(B.matrix @ coeff_to_complex(res.coefficient)), abs=1e-9
            )

    @pytest.mark.parametrize("d", (1, 2, 3, 7, 11))
    def test_unit_symmetry_pruning_equivalent(self, d):
        """Pruned enumeration finds the same norm as the unpruned one."""
        ring = ring_new(d)
        rng = np.random.default_rng(d + 5)
        for _ in range(100):
            B = random_basis(ring, 2, rng)
            pruned = shortest_vector(B, use_symmetry=True)
            full = shortest_vector(B, use_symmetry=False)
            assert pruned.norm == pytest.approx(full.norm, abs=1e-9)
            assert pruned.enumerated_nodes <= full.enumerated_nodes

    def test_canonical_representative(self):
        rng = np.random.default_rng(2)
        for d in (1, 3, 2):
            ring = ring_new(d)
            for _ in range(20):
                B = random_basis(ring, 2, rng)
                res = shortest_vector(B)
                first = next(e for e in res.coefficient if not e.is_zero())
                if first.b == 0:
                    assert first.a > 0
                else:
                    assert first.b > 0
                    if len(units(ring)) > 2:
                        assert first.a >= 1

    def test_oracle_never_beaten_by_reduction(self):
        rng = np.random.default_rng(4)
        for d in (1, 3, 5):
            ring = ring_new(d)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NonEuclideanRingWarning)
                for _ in range(20):
                    B = random_basis(ring, 3, rng)
                    lam1 = shortest_vector(B).norm
                    rep = alll_reduce(B, 0.99)
                    assert lam1 <= min(rep.norms) + 1e-9

    def test_minkowski_consistency(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            B = random_basis(RING1, 2, rng)
            l1, l2, _ = successive_minima_2d(B)
            rep = minkowski_check(B, [l1, l2])
            assert rep["ok"]

    def test_rank_cap(self):
        B = ComplexBasis(np.eye(9, dtype=complex), RING1)
        with pytest.raises(ValueError):
            shortest_vector(B)

    def test_budget_error(self):
        rng = np.random.default_rng(8)
        B = random_basis(RING1, 4, rng)
        with pytest.raises(EnumerationBudgetError):
            shortest_vector(B, max_nodes=3)

    def test_budget_error_reports_the_radius_reached(self):
        """The error carries the best radius the search found before it
        stopped, not the reduced basis vector it started from."""
        rng = np.random.default_rng(7)
        B = random_basis(RING1, 6, rng)
        full = shortest_vector(B)
        start = float(np.min(np.linalg.norm(alll_reduce(B).reduced.matrix, axis=0)))
        with pytest.raises(EnumerationBudgetError) as err:
            shortest_vector(B, max_nodes=full.enumerated_nodes - 1)
        assert err.value.partial_radius == pytest.approx(full.norm, rel=1e-9)
        assert full.norm < start * (1 - 1e-3)

    def test_rank_one(self):
        B = ComplexBasis(np.array([[0.5 + 0.5j]]), RING1)
        res = shortest_vector(B)
        assert res.norm == pytest.approx(abs(0.5 + 0.5j))
        assert (res.coefficient[0].a, res.coefficient[0].b) == (1, 0)


class TestSuccessiveMinima:
    def test_eisenstein_golden(self):
        w = RING3.xi
        B = ComplexBasis(np.array([[4 + w, 1 + 4 * w], [-1 + 5 * w, 1 + 2 * w]]), RING3)
        l1, l2, (v1, v2) = successive_minima_2d(B)
        assert l1 == pytest.approx(4.0, abs=1e-9)
        assert l2 == pytest.approx(math.sqrt(28), abs=1e-9)
        cross = v1[0] * v2[1] - v1[1] * v2[0]
        assert not cross.is_zero()

    def test_identity(self):
        for ring in (RING1, RING3, RING5):
            B = ComplexBasis(np.eye(2, dtype=complex), ring)
            l1, l2, _ = successive_minima_2d(B)
            assert (l1, l2) == (pytest.approx(1.0), pytest.approx(1.0))

    def test_diag_1_3(self):
        B = ComplexBasis(np.diag([1.0, 3.0]).astype(complex), RING1)
        l1, l2, _ = successive_minima_2d(B)
        # oracle: exhaustive enumeration within radius 4
        pts = []
        for a1 in range(-4, 5):
            for b1 in range(-4, 5):
                for a2 in range(-2, 3):
                    for b2 in range(-2, 3):
                        if a1 == b1 == a2 == b2 == 0:
                            continue
                        v = B.matrix @ np.array([a1 + 1j * b1, a2 + 1j * b2])
                        pts.append((np.linalg.norm(v), (a1, b1, a2, b2)))
        pts.sort()
        assert l1 == pytest.approx(pts[0][0], abs=1e-9)
        # second minimum from the oracle list: shortest point with a nonzero
        # second coordinate pair (the first minimum lives on the first axis)
        l2_oracle = next(norm for norm, c in pts if c[2:] != (0, 0))
        assert l2 == pytest.approx(l2_oracle, abs=1e-9)
        assert (l1, l2) == (pytest.approx(1.0), pytest.approx(3.0))

    def test_ordering_and_independence(self):
        rng = np.random.default_rng(10)
        for d in (1, 3, 5):
            ring = ring_new(d)
            for _ in range(25):
                B = random_basis(ring, 2, rng)
                l1, l2, (v1, v2) = successive_minima_2d(B)
                assert l1 <= l2 + 1e-12
                assert not (v1[0] * v2[1] - v1[1] * v2[0]).is_zero()

    def test_one_reduction_one_enumeration(self, monkeypatch):
        """The oracle runs neither Gauss nor shortest_vector, so acceptance
        criterion 3 compares Gauss with an independent computation.  It
        reaches the kernel only through _search: one search for lambda1,
        one for lambda2."""

        def forbidden(*args, **kwargs):
            raise AssertionError("the minima oracle must not call this")

        monkeypatch.setattr(reduction, "gauss_reduce", forbidden)
        monkeypatch.setattr(reduction, "_gauss_batch", forbidden)
        monkeypatch.setattr(svp, "shortest_vector", forbidden)
        calls = []
        for name in ("alll_reduce", "_search", "_enum_shortest"):
            def counted(*args, _f=getattr(svp, name), _name=name, **kwargs):
                calls.append(_name)
                return _f(*args, **kwargs)

            monkeypatch.setattr(svp, name, counted)
        w = RING3.xi
        B = ComplexBasis(np.array([[4 + w, 1 + 4 * w], [-1 + 5 * w, 1 + 2 * w]]), RING3)
        l1, l2, _ = successive_minima_2d(B)
        assert calls == ["alll_reduce"] + ["_search", "_enum_shortest"] * 2
        assert (l1**2, l2**2) == (pytest.approx(16.0), pytest.approx(28.0))

        # the same calls on CN(0,1), exact and nearly dependent bases,
        # non-Euclidean rings included
        rng = np.random.default_rng(16)
        for d in (1, 2, 3, 5, 6, 15):
            ring = ring_new(d)
            for kind in ("cn", "exact", "skewed"):
                for _ in range(8):
                    if kind == "cn":
                        B = random_basis(ring, 2, rng)
                    elif kind == "exact":
                        a, b = rng.integers(-9, 10, size=(2, 2, 2))
                        B = ComplexBasis(a + b * ring.xi, ring)
                    else:
                        b1 = random_basis(ring, 2, rng).matrix[:, 0]
                        u = complex(rng.integers(-3, 4)) + int(rng.integers(-3, 4)) * ring.xi
                        noise = random_basis(ring, 2, rng).matrix[:, 0]
                        b2 = u * b1 + rng.choice([0.3, 0.1, 0.03]) * noise
                        B = ComplexBasis(np.column_stack([b1, b2]), ring)
                    calls.clear()
                    l1, l2, (v1, v2) = successive_minima_2d(B)
                    assert calls == ["alll_reduce"] + ["_search", "_enum_shortest"] * 2, (d, kind)
                    assert l1 <= l2 + 1e-12
                    assert not (v1[0] * v2[1] - v1[1] * v2[0]).is_zero()

    def test_nearly_dependent_basis_within_a_small_budget(self):
        """b2 = (1 + 3 xi) b1 + 1e-3 noise over d = 5, with lambda2/lambda1 =
        1143: the lambda2 search tested every ring multiple of the lambda1
        witness and ran past 10^4 nodes (4.8 s with the default budget).
        Skipping the witness's zero top pair ends it in a few nodes."""
        rng = np.random.default_rng(3)
        b1, noise = math.sqrt(0.5) * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        B = ComplexBasis(np.column_stack([b1, (1 + 3 * RING5.xi) * b1 + 1e-3 * noise]), RING5)
        l1, l2, (v1, v2) = successive_minima_2d(B, max_nodes=10**4)
        assert l2 / l1 > 1000
        assert l1 == shortest_vector(B).norm
        assert [(e.a, e.b) for e in v1] == [(1, 3), (-1, 0)]
        assert [(e.a, e.b) for e in v2] == [(-4303, 2452), (-706, -334)]
        assert not (v1[0] * v2[1] - v1[1] * v2[0]).is_zero()

    def test_rank_validation(self):
        B = ComplexBasis(np.eye(3, dtype=complex), RING1)
        with pytest.raises(ValueError):
            successive_minima_2d(B)

    def test_node_budget_covers_second_minimum(self):
        # enough nodes to certify lambda1 are too few to list every point up
        # to the second reduced vector, so the budget must stop that search
        B = ComplexBasis(np.diag([1.0, 3.0]).astype(complex), RING1)
        nodes = shortest_vector(B).enumerated_nodes
        with pytest.raises(EnumerationBudgetError):
            successive_minima_2d(B, max_nodes=nodes)

    def test_budget_error_reports_the_budget(self):
        w = RING3.xi
        B = ComplexBasis(np.array([[4 + w, 1 + 4 * w], [-1 + 5 * w, 1 + 2 * w]]), RING3)
        with pytest.raises(EnumerationBudgetError, match="budget of 11 nodes") as err:
            successive_minima_2d(B, max_nodes=11)
        assert (err.value.budget, err.value.nodes) == (11, 12)


@pytest.mark.parametrize("k", (515, -515))
def test_shortest_vector_at_extreme_scale(k):
    """The initial radius squared the column norms and overflowed to inf at
    2^515 (12 nodes instead of 15, norm inf); at 2^-515 the squares were
    subnormal and the search visited 13 nodes."""
    rng = np.random.default_rng(4)
    m = math.sqrt(0.5) * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    base = shortest_vector(ComplexBasis(m, RING1))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = shortest_vector(ComplexBasis(m * 2.0**k, RING1))
    assert base.enumerated_nodes == res.enumerated_nodes == 15
    assert res.coefficient == base.coefficient
    assert res.norm == base.norm * 2.0**k
    assert res.norm_squared == (math.inf if k > 0 else pytest.approx(base.norm_squared * 4.0**k))


@pytest.mark.parametrize("k", (515, -515))
def test_successive_minima_at_extreme_scale(k):
    """The listing radius squared the column norms: at 2^515 it overflowed
    to inf, and no independent second minimum was found."""
    rng = np.random.default_rng(4)
    m = math.sqrt(0.5) * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    l1, l2, vecs = successive_minima_2d(ComplexBasis(m, RING1))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        s1, s2, svecs = successive_minima_2d(ComplexBasis(m * 2.0**k, RING1))
    assert (s1, s2, svecs) == (l1 * 2.0**k, l2 * 2.0**k, vecs)
