import itertools
import math
import warnings

import numpy as np
import pytest

from alglat import reduction, svp
from alglat.lattices import ComplexBasis, coeff_to_complex, minkowski_check
from alglat.reduction import NonEuclideanRingWarning, alll_reduce
from alglat.rings import ring_new, units
from alglat.svp import (
    EnumerationBudgetError,
    shortest_vector,
    successive_minima_2d,
)

RING1 = ring_new(1)
RING3 = ring_new(3)
RING5 = ring_new(5)


def random_basis(ring, n, rng):
    m = math.sqrt(0.5) * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return ComplexBasis(m, ring)


def brute_force_lambda1(basis, box=6):
    """Independent oracle: scan every coefficient vector in a box."""
    ring = basis.ring
    best = math.inf
    rng_box = range(-box, box + 1)
    for coords in itertools.product(rng_box, repeat=2 * basis.n):
        if not any(coords):
            continue
        coeff = tuple(
            ring.elem(coords[2 * j], coords[2 * j + 1]) for j in range(basis.n)
        )
        best = min(best, float(np.linalg.norm(basis.matrix @ coeff_to_complex(coeff))))
    return best


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
        criterion 3 compares Gauss with an independent computation."""

        def forbidden(*args, **kwargs):
            raise AssertionError("the minima oracle must not call this")

        monkeypatch.setattr(reduction, "gauss_reduce", forbidden)
        monkeypatch.setattr(reduction, "_gauss_batch", forbidden)
        monkeypatch.setattr(svp, "shortest_vector", forbidden)
        calls = []
        for name in ("alll_reduce", "_enum_shortest"):
            def counted(*args, _f=getattr(svp, name), _name=name, **kwargs):
                calls.append(_name)
                return _f(*args, **kwargs)

            monkeypatch.setattr(svp, name, counted)
        w = RING3.xi
        B = ComplexBasis(np.array([[4 + w, 1 + 4 * w], [-1 + 5 * w, 1 + 2 * w]]), RING3)
        l1, l2, _ = successive_minima_2d(B)
        assert calls == ["alll_reduce", "_enum_shortest"]
        assert (l1**2, l2**2) == (pytest.approx(16.0), pytest.approx(28.0))

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
