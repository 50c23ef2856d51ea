import dataclasses
import math
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alglat.cf import Channel, cf_basis, design_relay
from alglat.lattices import MAX_CONDITION, ComplexBasis, RingMatrix, _independent, embed
from alglat import lattices, reduction
from alglat.reduction import (
    NonEuclideanRingWarning,
    alll_reduce,
    decoding_radius,
    decoding_radius_bound,
    gauss_reduce,
    potential,
    quaternion_rotation,
    real_lll,
    reduction_epsilon,
)
from alglat.reduction import _gauss_batch, _r_positive, _trial_steps
from alglat.rings import RingElem, quantize, ring_new
from alglat.svp import shortest_vector, successive_minima_2d
from oracles import exact_norms_squared_loop, identity_matrix
from test_lll_reference import cf_shape_basis, scrambled_rank16

RING1 = ring_new(1)
RING3 = ring_new(3)
RING5 = ring_new(5)
EUCLIDEAN_D = (1, 2, 3, 7, 11)


def eisenstein_golden_basis():
    w = RING3.xi
    return np.array([4 + w, -1 + 5 * w]), np.array([1 + 4 * w, 1 + 2 * w])


def noneuclidean_golden_basis():
    xi = RING5.xi
    return np.array([2 + 3 * xi, 2 + xi]), np.array([8 + xi, 2 + 0 * xi])


def random_basis(ring, n, rng):
    m = math.sqrt(0.5) * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return ComplexBasis(m, ring)


def assert_transform_valid(basis, report):
    assert report.transform.is_unimodular()
    np.testing.assert_allclose(
        basis.matrix @ report.transform.to_complex(),
        report.reduced.matrix,
        rtol=1e-8,
        atol=1e-10,
    )


def assert_alll_conditions(report):
    """Re-factorize the output from scratch and check both defining conditions."""
    ring = report.reduced.ring
    R = _r_positive(report.reduced.matrix)
    n = report.reduced.n
    for j in range(n):
        for k in range(j + 1, n):
            assert quantize(R[j, k] / R[j, j], ring).is_zero()
    for j in range(1, n):
        assert (
            report.delta * abs(R[j - 1, j - 1]) ** 2
            <= abs(R[j, j]) ** 2 + abs(R[j - 1, j]) ** 2 + 1e-9
        )
    # Siegel's rephrasing of the swap condition
    for j in range(1, n):
        mu2 = abs(R[j - 1, j] / R[j - 1, j - 1]) ** 2
        assert (report.delta - mu2) * abs(R[j - 1, j - 1]) ** 2 <= abs(R[j, j]) ** 2 + 1e-9


class TestGauss:
    def test_eisenstein_golden(self):
        B = ComplexBasis(np.column_stack(eisenstein_golden_basis()), RING3)
        rep = gauss_reduce(B)
        assert rep.norms_squared_exact == [16, 28]
        assert rep.events == ["swap", "size_reduction", "swap"]
        assert rep.swaps == 2 and rep.size_reductions == 1
        assert not rep.warnings
        assert_transform_valid(B, rep)
        # the pair's Gram-Schmidt ratio quantizes to zero on exit
        c0, c1 = rep.reduced.matrix[:, 0], rep.reduced.matrix[:, 1]
        mu = np.vdot(c0, c1) / np.vdot(c0, c0)
        assert quantize(mu, RING3).is_zero()

    def test_noneuclidean_golden(self):
        B = ComplexBasis(np.column_stack(noneuclidean_golden_basis()), RING5)
        with pytest.warns(NonEuclideanRingWarning) as rec:
            rep = gauss_reduce(B)
        assert [w.filename for w in rec] == [__file__]  # names the caller
        assert rep.norms_squared_exact == [58, 61]
        assert rep.events == ["size_reduction"]
        assert rep.warnings
        # the oracle finds a strictly shorter vector: reduction is not optimal here
        assert shortest_vector(B).norm_squared == pytest.approx(20.0, abs=1e-6)

    def test_already_reduced_pair_unchanged(self):
        b1 = np.array([1.0 + 0j, 0.0 + 0j])
        b2 = np.array([0.0 + 0j, 2.0 + 0j])
        rep = gauss_reduce(ComplexBasis(np.column_stack([b1, b2]), RING1))
        assert rep.swaps == 0 and rep.size_reductions == 0
        np.testing.assert_allclose(rep.reduced.matrix, np.column_stack([b1, b2]))

    def test_rank_other_than_two_rejected(self):
        with pytest.raises(ValueError, match="rank-2"):
            gauss_reduce(ComplexBasis(np.eye(3, dtype=complex), RING1))

    def test_dependent_inputs_rejected(self):
        v = np.array([1.0 + 1j, 2.0 - 1j])
        with pytest.raises(ValueError):
            gauss_reduce(ComplexBasis(np.column_stack([v, 3 * v]), RING1))

    @pytest.mark.parametrize("d", EUCLIDEAN_D)
    def test_matches_successive_minima(self, d):
        """Reduced norms equal the oracle's minima on Euclidean rings."""
        ring = ring_new(d)
        rng = np.random.default_rng(d)
        for _ in range(60):
            B = random_basis(ring, 2, rng)
            rep = gauss_reduce(B)
            l1, l2, _ = successive_minima_2d(B)
            assert rep.norms[0] == pytest.approx(l1, abs=1e-7)
            assert rep.norms[1] == pytest.approx(l2, abs=1e-7)
            assert_transform_valid(B, rep)


def gauss_stack(ring, kinds, seed):
    """(N, 2, 2) stack: a CN(0,1) basis for each False in kinds and an
    exact-entry basis with coordinates in [-3, 3] for each True."""
    rng = np.random.default_rng(seed)
    stack = []
    for exact in kinds:
        while exact:
            m = rng.integers(-3, 4, size=(2, 2)) + ring.xi * rng.integers(-3, 4, size=(2, 2))
            if abs(np.linalg.det(m)) > 0.5:
                break
        else:
            m = random_basis(ring, 2, rng).matrix
        stack.append(m)
    return np.array(stack)


class TestGaussBatch:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(EUCLIDEAN_D),
        st.lists(st.booleans(), min_size=1, max_size=24),
        st.integers(0, 2**32 - 1),
    )
    def test_each_trial_as_alone(self, d, kinds, seed):
        """Reduced bytes and step log of every trial match the stack of one."""
        ring = ring_new(d)
        M = gauss_stack(ring, kinds, seed)
        reduced, log = _gauss_batch(M, ring)
        for t in range(len(M)):
            alone, log1 = _gauss_batch(M[t : t + 1], ring)
            assert reduced[t].tobytes() == alone[0].tobytes()
            assert _trial_steps(log, t) == _trial_steps(log1, 0)

    def test_matches_gauss_reduce(self):
        ring = ring_new(7)
        M = gauss_stack(ring, [False, True] * 10, 5)
        reduced, log = _gauss_batch(M, ring)
        for t, m in enumerate(M):
            rep = gauss_reduce(ComplexBasis(m, ring))
            assert reduced[t].tobytes() == rep.reduced.matrix.tobytes()
            steps = _trial_steps(log, t)
            assert rep.swaps == sum(sw for _, _, sw in steps)
            assert rep.size_reductions == sum(bool(a or b) for a, b, _ in steps)

    def test_out_of_range_trials_run_scaled(self):
        """Trials whose squared norms overflow or underflow are reduced at a
        power-of-two scale and scaled back: each equals its scale-1 run times
        the scale, bit for bit, with the same steps, and the in-range trials
        of the stack are untouched."""
        M = gauss_stack(RING1, [False, True] * 3, 4)
        base, base_log = _gauss_batch(M, RING1)
        scales = np.array([1.0, 2.0**600, 2.0**-600, 1.0, 2.0**1000, 2.0**-1000])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            reduced, log = _gauss_batch(M * scales[:, None, None], RING1)
        for t, scale in enumerate(scales):
            assert reduced[t].tobytes() == (base[t] * scale).tobytes()
            assert _trial_steps(log, t) == _trial_steps(base_log, t)

    def test_budget_error(self, monkeypatch):
        monkeypatch.setattr(reduction, "GAUSS_ITER_FACTOR", 0)
        M = gauss_stack(RING1, [False, True, False], 1)
        with pytest.raises(RuntimeError, match="iteration budget"):
            _gauss_batch(M, RING1)
        with pytest.raises(RuntimeError, match="iteration budget"):
            gauss_reduce(ComplexBasis(M[0], RING1))

    def test_validation(self):
        """_gauss_batch validates nothing; its callers check each stack with
        _independent, as hermite_cdf does."""
        M = gauss_stack(RING1, [False, False], 2)
        assert _independent(M) is M
        M[1, :, 1] = 2 * M[1, :, 0]
        with pytest.raises(ValueError, match="numerically dependent"):
            _independent(M)
        M[1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            _independent(M)


class TestTinyFloatBasis:
    """A CN(0,1) basis times 1e-10 is a float lattice, not the zero matrix."""

    def basis(self, n):
        rng = np.random.default_rng(3)
        m = math.sqrt(0.5) * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        return ComplexBasis(1e-10 * m, RING1)

    def test_exact_entries_none(self):
        assert self.basis(3).exact_entries() is None

    def test_gauss_norms_not_exact(self):
        assert gauss_reduce(self.basis(2)).norms_squared_exact is None

    def test_alll_norms_not_exact(self):
        assert alll_reduce(self.basis(3)).norms_squared_exact is None

    def test_scaled_exact_basis_still_exact(self):
        b1, b2 = eisenstein_golden_basis()
        B = ComplexBasis(1e6 * np.column_stack([b1, b2]), RING3)
        E = B.exact_entries()
        assert (E[0, 0].a, E[0, 0].b) == (4_000_000, 1_000_000)

    def test_large_entry_does_not_widen_tolerance(self):
        B = ComplexBasis(np.array([[1e6, 1e-4], [0, 1]], dtype=complex), RING1)
        assert B.exact_entries() is None
        assert gauss_reduce(B).norms_squared_exact is None
        assert alll_reduce(B).norms_squared_exact is None


@pytest.mark.parametrize("d", (1, 2, 3, 5, 7))
@pytest.mark.parametrize("n", (1, 2, 5, 16))
def test_exact_norms_match_the_loop(d, n):
    """The object-array product equals the generator-sum loop exactly, on
    transforms whose entries reach 2**70, beyond int64."""
    ring = ring_new(d)
    rng = np.random.default_rng(10 * d + n)
    a, b = rng.integers(-3, 4, size=(2, n, n))
    while np.linalg.matrix_rank(a + b * ring.xi) < n:
        a, b = rng.integers(-3, 4, size=(2, n, n))
    basis = ComplexBasis(a + b * ring.xi, ring)
    big = [[int(v) << 40 for v in row] for row in rng.integers(-(2**30), 2**30, size=(2 * n, n))]
    ua, ub = big[:n], big[n:]
    got = reduction._exact_norms_squared(basis, ua, ub)
    assert got == exact_norms_squared_loop(basis, ua, ub)
    assert all(type(v) is int for v in got) and max(got) > 2**130
    assert reduction._exact_norms_squared(TestTinyFloatBasis().basis(n), ua, ub) is None


class TestAlll:
    def test_identity_noop(self):
        B = ComplexBasis(np.eye(2, dtype=complex), RING1)
        rep = alll_reduce(B, 0.99)
        assert rep.swaps == 0
        assert rep.transform.entries == identity_matrix(2, RING1).entries
        np.testing.assert_allclose(rep.reduced.matrix, np.eye(2))

    def test_golden_first_vector_matches_gauss(self):
        b1, b2 = eisenstein_golden_basis()
        B = ComplexBasis(np.column_stack([b1, b2]), RING3)
        rep = alll_reduce(B, 0.99)
        assert rep.norms_squared_exact[0] == 16
        assert_alll_conditions(rep)

    @pytest.mark.parametrize("d", EUCLIDEAN_D)
    def test_agrees_with_gauss_in_rank2(self, d):
        ring = ring_new(d)
        rng = np.random.default_rng(100 + d)
        for _ in range(40):
            B = random_basis(ring, 2, rng)
            ra = alll_reduce(B, 0.99)
            rg = gauss_reduce(B)
            assert ra.norms[0] == pytest.approx(rg.norms[0], rel=1e-7)

    @pytest.mark.parametrize("d", EUCLIDEAN_D)
    @pytest.mark.parametrize("n", (2, 4, 8))
    def test_postconditions_random(self, d, n):
        ring = ring_new(d)
        rng = np.random.default_rng(d * 10 + n)
        for _ in range(15):
            B = random_basis(ring, n, rng)
            rep = alll_reduce(B, 0.99)
            assert_transform_valid(B, rep)
            assert_alll_conditions(rep)
            assert all(r < 0.99 for r in rep.potential_ratios)
            for check in rep.bound_checks.values():
                assert check.passed or check.skipped

    def test_swap_count_bound(self):
        rng = np.random.default_rng(8)
        delta = 0.99
        for _ in range(30):
            B = random_basis(RING3, 6, rng)
            rep = alll_reduce(B, delta)
            if rep.potential_ratios:
                log_drop = -sum(math.log(r) for r in rep.potential_ratios)
                bound = 2 * log_drop / math.log(1 / delta) + B.n - 1
                assert rep.swaps <= bound + 1e-6

    def test_potential_strictly_decreasing(self):
        rng = np.random.default_rng(9)
        B = random_basis(RING1, 6, rng)
        rep = alll_reduce(B, 0.99)
        assert rep.swaps > 0
        assert all(r < 0.99 for r in rep.potential_ratios)

    def test_delta_validation(self):
        B = ComplexBasis(np.eye(2, dtype=complex), ring_new(2))
        with pytest.raises(ValueError):
            alll_reduce(B, 0.5)  # rho^2 = 3/4 for d=2
        with pytest.raises(ValueError):
            alll_reduce(B, 1.2)

    @pytest.mark.parametrize("d", (1, 5))
    @pytest.mark.parametrize("delta", (math.nan, math.inf, -math.inf, 0.0, -1.0))
    def test_meaningless_delta_rejected(self, d, delta):
        """A NaN delta made no swap and NaN bound checks, and on a
        non-Euclidean ring delta <= 0 ran as if valid."""
        B = random_basis(ring_new(d), 3, np.random.default_rng(0))
        with pytest.raises(ValueError, match="delta must be in"):
            alll_reduce(B, delta)

    def test_noneuclidean_warns_but_runs(self):
        rng = np.random.default_rng(10)
        B = random_basis(RING5, 4, rng)
        with pytest.warns(NonEuclideanRingWarning) as rec:
            rep = alll_reduce(B, 0.99)
        assert [w.filename for w in rec] == [__file__]  # names the caller
        assert rep.warnings
        assert all(c.skipped for c in rep.bound_checks.values())
        assert_transform_valid(B, rep)

    def test_quiet_scope_records_but_does_not_warn(self):
        B = random_basis(RING5, 2, np.random.default_rng(11))
        with warnings.catch_warnings():
            warnings.simplefilter("error", NonEuclideanRingWarning)
            with reduction._quiet():
                rep = alll_reduce(B, 0.99)
                g = gauss_reduce(B)
            assert not reduction._QUIET.get()
        assert rep.warnings and g.warnings

    def test_quality_bounds_with_oracle(self):
        rng = np.random.default_rng(11)
        eps = reduction_epsilon(RING1, 0.99)
        for _ in range(10):
            B = random_basis(RING1, 4, rng)
            lam1 = shortest_vector(B).norm
            rep = alll_reduce(B, 0.99, lambda1=lam1)
            c = rep.bound_checks["first_vs_lambda1"]
            assert c.passed
            assert rep.norms[0] <= eps ** (-1.5) * lam1 * (1 + 1e-9)
            assert rep.bound_checks["decoding_radius"].passed

    def test_scrambled_basis_crosses_refactor_threshold(self):
        """A heavily scrambled basis forces >100 swaps, exercising the
        periodic QR refactorization; the transform must stay exact."""
        from oracles import random_unimodular

        rng = np.random.default_rng(1)
        n = 8
        base = np.eye(n, dtype=complex) + 0.1 * (
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        )
        U = random_unimodular(RING3, n, rng, ops=120)
        B = ComplexBasis(base @ U.to_complex(), RING3)
        rep = alll_reduce(B, 0.99)
        assert rep.swaps > 100
        assert_transform_valid(B, rep)
        assert_alll_conditions(rep)

    def test_large_entry_basis(self):
        # scale invariance sanity: reduction copes with badly scaled inputs
        rng = np.random.default_rng(12)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m[:, 0] *= 1e4
        m[:, 3] *= 1e-3
        rep = alll_reduce(ComplexBasis(m, RING1), 0.99)
        assert_transform_valid(ComplexBasis(m, RING1), rep)
        assert_alll_conditions(rep)


class TestDerivedBases:
    """A reduced basis is the validated input times an exact unimodular
    transform, so only the input pays for the independence (cond) check."""

    @pytest.fixture
    def cond_calls(self, monkeypatch):
        calls = []
        independent = lattices._independent

        def counting(m):
            calls.append(m.shape)
            return independent(m)

        monkeypatch.setattr(lattices, "_independent", counting)
        return calls

    @pytest.mark.parametrize("d", (1, 3, 5))
    def test_gauss_reduce_runs_cond_once(self, cond_calls, d):
        rng = np.random.default_rng(d)
        for _ in range(20):
            m = random_basis(ring_new(d), 2, rng).matrix
            cond_calls.clear()
            gauss_reduce(ComplexBasis(m, ring_new(d)))
            assert len(cond_calls) == 1

    @pytest.mark.parametrize("d", (1, 3, 5))
    def test_alll_reduce_runs_cond_once(self, cond_calls, d):
        rng = np.random.default_rng(d)
        for n in (2, 4, 8):
            m = random_basis(ring_new(d), n, rng).matrix
            cond_calls.clear()
            alll_reduce(ComplexBasis(m, ring_new(d)), 0.99)
            assert len(cond_calls) == 1

    def test_derived_basis_keeps_the_finite_check(self):
        with pytest.raises(ValueError, match="non-finite"):
            ComplexBasis._derived(np.array([[1.0, np.nan], [0.0, 1.0]]), RING1)
        b = ComplexBasis._derived(np.eye(2), RING1)
        assert b.matrix.dtype == complex and not b.matrix.flags.writeable


class TestQuaternionRotation:
    def test_identity_case(self):
        np.testing.assert_allclose(quaternion_rotation(1.0, 0.0), np.eye(2))

    def test_swap_case(self):
        M = quaternion_rotation(0.0, 1.0)
        np.testing.assert_allclose(M, [[0, 1], [-1, 0]])
        np.testing.assert_allclose(M @ [0, 1], [1, 0])

    def test_three_four_five(self):
        M = quaternion_rotation(3.0, 4.0)
        out = M @ np.array([3.0, 4.0])
        assert out[0] == pytest.approx(5.0)
        assert abs(out[1]) < 1e-12

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            quaternion_rotation(0.0, 0.0)

    def test_unitarity_random(self):
        rng = np.random.default_rng(13)
        for _ in range(2000):
            a = complex(rng.standard_normal(), rng.standard_normal())
            b = complex(rng.standard_normal(), rng.standard_normal())
            M = quaternion_rotation(a, b)
            np.testing.assert_allclose(M.conj().T @ M, np.eye(2), atol=1e-12)
            out = M @ np.array([a, b])
            assert abs(out[1]) < 1e-12
            assert out[0].real == pytest.approx(math.hypot(abs(a), abs(b)))


class TestRealLll:
    def test_eisenstein_golden_delta_one(self):
        b1, b2 = eisenstein_golden_basis()
        B = ComplexBasis(np.column_stack([b1, b2]), RING3)
        reduced, T, _ = real_lll(embed(B), delta=1.0)
        norms_sq = [float(np.dot(reduced[:, j], reduced[:, j])) for j in range(4)]
        assert norms_sq == pytest.approx([16, 16, 31, 28], abs=1e-6)
        assert round(abs(float(np.linalg.det(np.array(T, dtype=float))))) == 1

    def test_noneuclidean_golden(self):
        b1, b2 = noneuclidean_golden_basis()
        B = ComplexBasis(np.column_stack([b1, b2]), RING5)
        reduced, _, _ = real_lll(embed(B), delta=1.0)
        norms_sq = [float(np.dot(reduced[:, j], reduced[:, j])) for j in range(4)]
        assert norms_sq == pytest.approx([20, 30, 26, 39], abs=1e-6)

    def test_identity_unchanged(self):
        reduced, T, swaps = real_lll(np.eye(4), delta=0.99)
        np.testing.assert_allclose(reduced, np.eye(4))
        assert swaps == 0

    def test_transform_consistency(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            G = rng.standard_normal((6, 6))
            reduced, T, _ = real_lll(G, delta=0.99)
            np.testing.assert_allclose(G @ np.array(T, dtype=float), reduced, atol=1e-8)
            assert round(abs(float(np.linalg.det(np.array(T, dtype=float))))) == 1

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            real_lll(np.eye(2), delta=0.2)

    @pytest.mark.parametrize(
        "matrix, says",
        [
            ([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]], "numerically dependent"),
            ([[1.0, 2.0], [2.0, 4.0]], "numerically dependent"),
            (np.zeros((3, 3)), "numerically dependent"),
            ([[1.0, math.nan], [0.0, 1.0]], "non-finite"),
            ([[math.inf, 0.0], [0.0, 1.0]], "non-finite"),
            (np.zeros((0, 0)), "non-empty"),
        ],
        ids=["rank-2-of-3", "rank-1-of-2", "zero", "nan", "inf", "empty"],
    )
    def test_invalid_basis_rejected(self, matrix, says):
        """These returned a 'reduced' basis with a zero column, or failed
        with 'cannot convert float NaN to integer'."""
        with pytest.raises(ValueError, match=says):
            real_lll(matrix)

    def test_dependence_test_is_on_the_diagonal_of_r(self):
        """A basis ComplexBasis accepts is accepted here too: max/min of
        |R_ii| is a lower bound on the condition number."""
        B = np.diag([1.0, 1e-11])
        assert np.linalg.cond(B) <= MAX_CONDITION
        assert real_lll(B)[2] == 1
        with pytest.raises(ValueError, match="numerically dependent"):
            real_lll(np.diag([1.0, 1e-13]))


class TestPotentialAndRadius:
    def test_potential_identity(self):
        assert potential(np.eye(2)) == pytest.approx(1.0)

    def test_potential_diag(self):
        assert potential(np.diag([2.0, 1.0])) == pytest.approx(16.0)

    def test_decoding_radius_identity(self):
        assert decoding_radius(np.eye(2), 2) == pytest.approx(0.5)

    def test_decoding_radius_diag(self):
        assert decoding_radius(np.diag([3.0, 2.0]), 2) == pytest.approx(1.0)

    def test_decoding_radius_k_validation(self):
        with pytest.raises(ValueError):
            decoding_radius(np.eye(2), 3)

    def test_radius_bound_with_oracle(self):
        rng = np.random.default_rng(15)
        eps = reduction_epsilon(RING1, 0.99)
        for _ in range(10):
            B = random_basis(RING1, 4, rng)
            lam1 = shortest_vector(B).norm
            rep = alll_reduce(B, 0.99)
            R = _r_positive(rep.reduced.matrix)
            for k in range(2, 5):
                assert decoding_radius(R, k) >= decoding_radius_bound(
                    RING1, 4, k, lam1, eps
                ) - 1e-9


# ---------------------------------------------------------------------------
# real LLL is the LLL loop over Z


def assert_exactly_unimodular(T):
    """Integer det(T) is +-1, by exact elimination over Z (= Z[i] with b = 0)."""
    det = RingMatrix.from_int_rows([[(int(v), 0) for v in row] for row in T], RING1).det()
    assert det.b == 0 and abs(det.a) == 1


def test_real_lll_delta_one_ends_on_equal_norm_columns():
    """The embedded rank-1 basis has two columns of equal norm; at delta = 1
    the stall rule ends the loop after at most 3m = 6 swaps."""
    ch = Channel.from_db([0.1 + 0.1j], 20)
    assert design_relay(ch, RING3, "rlll", delta=1.0).swaps <= 6
    _, T, swaps = real_lll(embed(cf_basis(ch, RING3)), delta=1.0)
    assert swaps <= 6
    assert_exactly_unimodular(T)


@st.composite
def real_bases(draw):
    m = draw(st.integers(2, 10))
    k = draw(st.integers(-40, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    delta = draw(st.sampled_from([0.6, 0.99]))
    return np.random.default_rng(seed).standard_normal((m, m)) * 2.0**k, delta


@settings(max_examples=150, deadline=None)
@given(real_bases())
def test_real_lll_properties(case):
    matrix, delta = case
    reduced, T, _ = real_lll(matrix, delta)
    assert np.array_equal(reduced, matrix @ T.astype(float))
    assert_exactly_unimodular(T)
    R = _r_positive(reduced)
    m = R.shape[0]
    for j in range(m):
        for k in range(j):
            assert abs(R[k, j] / R[k, k]) <= 0.5 + 1e-9
    for j in range(1, m):
        assert delta * R[j - 1, j - 1] ** 2 <= (R[j, j] ** 2 + R[j - 1, j] ** 2) * (1 + 1e-9)


@st.composite
def ring_bases(draw):
    ring = ring_new(draw(st.sampled_from(EUCLIDEAN_D)))
    n = draw(st.integers(2, 10))
    k = draw(st.integers(-40, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    delta = draw(st.sampled_from([0.99, 1.0]))
    return random_basis(ring, n, np.random.default_rng(seed)).matrix * 2.0**k, ring, delta


def assert_ring_lll_properties(matrix, ring, delta):
    """An exactly unimodular transform, reduced == matrix @ U bit for bit,
    and a fresh QR of the output that is size-reduced (every ratio quantizes
    to 0) and satisfies Lovasz up to a relative 1e-9; returns the report."""
    rep = alll_reduce(ComplexBasis(matrix, ring), delta)
    assert rep.transform.is_unimodular()
    assert np.array_equal(rep.reduced.matrix, matrix @ rep.transform.to_complex())
    R = _r_positive(rep.reduced.matrix)
    n = R.shape[0]
    for j in range(n):
        for k in range(j):
            assert quantize(R[k, j] / R[k, k], ring).is_zero()
    for j in range(1, n):
        lhs = delta * abs(R[j - 1, j - 1]) ** 2
        assert lhs <= (abs(R[j, j]) ** 2 + abs(R[j - 1, j]) ** 2) * (1 + 1e-9)
    return rep


@settings(max_examples=150, deadline=None)
@given(ring_bases())
def test_ring_lll_properties(case):
    """The twin of test_real_lll_properties for the loop over a ring, whose
    R is held as Python complex columns."""
    assert_ring_lll_properties(*case)


@pytest.mark.parametrize("delta", (0.99, 1.0))
def test_ring_lll_properties_across_refactors(delta):
    """A scrambled rank-16 basis swaps past REFACTOR_EVERY, so R is
    recomputed from B @ U and turned into Python complex columns mid-run."""
    matrix, ring = scrambled_rank16()
    assert assert_ring_lll_properties(matrix, ring, delta).swaps > reduction.REFACTOR_EVERY


class CountingModule:
    """A module stand-in that appends the name of every call made through
    it, or through its submodules, to calls."""

    def __init__(self, module, calls):
        self._module, self._calls = module, calls

    def __getattr__(self, name):
        value = getattr(self._module, name)
        if isinstance(value, types.ModuleType):
            return CountingModule(value, self._calls)
        if not callable(value):
            return value

        def counted(*args, **kwargs):
            self._calls.append(name)
            return value(*args, **kwargs)

        return counted


@pytest.mark.parametrize("ring", [None, RING1], ids=["Z", "d=1"])
def test_lll_numpy_calls_do_not_grow_with_swaps(ring, monkeypatch):
    """Between refactors _lll makes no numpy call in either field: a
    cf-shape basis that swaps tens of times, fewer than REFACTOR_EVERY,
    makes the same calls through reduction.np as the identity, which does
    not swap."""

    def numpy_calls(B):
        calls = []
        monkeypatch.setattr(reduction, "np", CountingModule(np, calls))
        swaps = reduction._lll(B, 0.99, ring)[2]
        monkeypatch.setattr(reduction, "np", np)
        return calls, swaps

    B = cf_shape_basis(ring, 4 if ring is None else 8, np.random.default_rng(3))
    assert B.shape == (8, 8)
    calls, swaps = numpy_calls(B)
    assert 10 <= swaps < reduction.REFACTOR_EVERY
    assert calls
    assert numpy_calls(np.eye(8, dtype=B.dtype)) == (calls, 0)


# ---------------------------------------------------------------------------
# bound checks: scale-safe, and computed on first read


def defect1_basis():
    """The 4x4 CN(0,1) basis of default_rng(0), over d = 1."""
    rng = np.random.default_rng(0)
    return math.sqrt(0.5) * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))


def test_bound_checks_at_scale_one():
    checks = alll_reduce(ComplexBasis(defect1_basis(), RING1), 0.99).bound_checks
    assert (checks["first_vs_det"].lhs, checks["first_vs_det"].rhs) == (
        pytest.approx(1.178, abs=1e-3),
        pytest.approx(1.801, abs=1e-3),
    )
    assert (checks["od_bound"].lhs, checks["od_bound"].rhs) == (
        pytest.approx(1.697, abs=1e-3),
        pytest.approx(8.321, abs=1e-3),
    )


SCALES = {"1e80": 1e80, "1e150": 1e150, "2^500": 2.0**500, "1e-150": 1e-150, "2^-500": 2.0**-500}


@pytest.mark.parametrize("scale", SCALES.values(), ids=SCALES.keys())
def test_bound_checks_survive_rescaling(scale):
    """|det B| and the norm product overflowed or underflowed here: od_bound
    read NaN and failed, and first_vs_det had a right-hand side of inf or 0."""
    m = defect1_basis()
    base = alll_reduce(ComplexBasis(m, RING1), 0.99).bound_checks
    rep = alll_reduce(ComplexBasis(m * scale, RING1), 0.99)
    checks = rep.bound_checks
    assert rep.bounds_ok()
    # first_vs_det is homogeneous of degree 1 in B, od_bound of degree 0
    for side in ("lhs", "rhs"):
        got = getattr(checks["first_vs_det"], side) / scale
        assert got == pytest.approx(getattr(base["first_vs_det"], side), rel=1e-12)
    assert checks["od_bound"].lhs == pytest.approx(base["od_bound"].lhs, rel=1e-12)
    assert checks["od_bound"].rhs == base["od_bound"].rhs


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(EUCLIDEAN_D),
    st.integers(2, 5),
    st.integers(0, 2**32 - 1),
    st.integers(-1000, 1000),
)
def test_bound_check_verdicts_are_scale_invariant(d, n, seed, k):
    """Scaling B and lambda1 by 2^k keeps every verdict, and the ratio
    lhs / rhs of every check, which is free of the scale."""
    ring = ring_new(d)
    m = random_basis(ring, n, np.random.default_rng(seed)).matrix
    lambda1 = 0.5 * float(np.min(np.linalg.norm(m, axis=0)))
    scale = 2.0**k
    base = alll_reduce(ComplexBasis(m, ring), 0.99, lambda1=lambda1).bound_checks
    scaled = alll_reduce(ComplexBasis(m * scale, ring), 0.99, lambda1=lambda1 * scale).bound_checks
    assert scaled.keys() == base.keys()
    for name, c in base.items():
        assert scaled[name].passed == c.passed
        assert scaled[name].lhs / scaled[name].rhs == pytest.approx(c.lhs / c.rhs, rel=1e-9)


def scale_case_basis(seed, n):
    rng = np.random.default_rng(seed)
    return math.sqrt(0.5) * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


@pytest.mark.parametrize("k", (515, 530, -530, -560))
def test_alll_reduces_at_extreme_scales(k):
    """The Lovasz test squares R: at these scales the squares overflowed to
    inf or underflowed to 0, and ALLL stopped swapping (0 swaps instead of
    9), so its output broke the Lovasz condition."""
    m = scale_case_basis(4, 4)
    base = alll_reduce(ComplexBasis(m, RING1), 0.99)
    scale = 2.0**k
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = alll_reduce(ComplexBasis(m * scale, RING1), 0.99)
        norms = rep.norms
    assert base.swaps == rep.swaps == 9
    assert rep.transform == base.transform
    assert [x / scale for x in norms] == pytest.approx(base.norms, rel=1e-12)
    unscaled = ComplexBasis(rep.reduced.matrix / scale, RING1)
    assert_alll_conditions(dataclasses.replace(rep, reduced=unscaled))


@pytest.mark.parametrize("k", (600, -600))
def test_gauss_reduces_at_extreme_scales(k):
    """The squared norms overflowed or underflowed here, the quantizer got
    NaN, and gauss_reduce raised "cannot quantize non-finite value"."""
    m = np.array([[1, 5.3 + 0.2j], [0.2, 2 - 0.4j]])
    base = gauss_reduce(ComplexBasis(m, RING1))
    scale = 2.0**k
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = gauss_reduce(ComplexBasis(m * scale, RING1))
        norms = rep.norms
    assert rep.transform == base.transform
    assert (rep.swaps, rep.size_reductions) == (base.swaps, base.size_reductions)
    assert [x / scale for x in norms] == base.norms


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(EUCLIDEAN_D), st.integers(0, 2**32 - 1), st.integers(-1000, 1000))
def test_gauss_reduce_is_scale_invariant(d, seed, k):
    """Scaling a rank-2 basis by 2^k keeps the transform and the steps, and
    scales the norms, as it does for alll_reduce."""
    ring = ring_new(d)
    m = random_basis(ring, 2, np.random.default_rng(seed)).matrix
    base = gauss_reduce(ComplexBasis(m, ring))
    rep = gauss_reduce(ComplexBasis(m * 2.0**k, ring))
    assert rep.transform == base.transform
    assert rep.events == base.events
    assert [x / 2.0**k for x in rep.norms] == pytest.approx(base.norms, rel=1e-12)


def test_real_lll_at_extreme_scale():
    """The Lovasz test squared a Python float here and raised OverflowError."""
    m = np.random.default_rng(5).standard_normal((6, 6))
    _, T, swaps = real_lll(m * 2.0**515)
    _, T0, swaps0 = real_lll(m)
    assert swaps == swaps0 and np.array_equal(T, T0)


def test_report_norms_at_extreme_scale():
    """norms squared through np.linalg.norm and read inf above about
    1.3e154, so first_vs_det and first_vs_lambda1 failed with lhs inf."""
    m = scale_case_basis(4, 3)
    lambda1 = 0.5 * float(np.min(np.linalg.norm(m, axis=0)))
    base = alll_reduce(ComplexBasis(m, RING1), 0.99, lambda1=lambda1)
    scale = 2.0**520
    rep = alll_reduce(ComplexBasis(m * scale, RING1), 0.99, lambda1=lambda1 * scale)
    assert [x / scale for x in rep.norms] == pytest.approx(base.norms, rel=1e-12)
    assert rep.bounds_ok() and base.bounds_ok()
    for name in ("first_vs_det", "first_vs_lambda1"):
        got, want = rep.bound_checks[name], base.bound_checks[name]
        assert got.lhs / got.rhs == pytest.approx(want.lhs / want.rhs, rel=1e-12)
    assert math.isinf(rep.as_dict()["norms_squared"][0])


def test_bound_checks_run_on_first_read_only(monkeypatch):
    """The CF designs and the SVP oracle never read the checks, so they
    never compute them; a report computes them once."""
    calls = []
    quality_checks = reduction._quality_checks

    def counted(*args, **kwargs):
        calls.append(None)
        return quality_checks(*args, **kwargs)

    monkeypatch.setattr(reduction, "_quality_checks", counted)
    ch = Channel.from_db([0.3 + 1.1j, -0.8 + 0.2j, 0.5 - 0.4j], 30)
    for strategy in ("alll", "rlll", "svp"):
        design_relay(ch, RING1, strategy)
    B = random_basis(RING1, 2, np.random.default_rng(12))
    shortest_vector(B)
    successive_minima_2d(B)
    assert calls == []

    rep = alll_reduce(B, 0.99)
    assert calls == []
    checks = rep.bound_checks
    assert len(calls) == 1 and set(checks) == {"first_vs_det", "od_bound"}
    assert rep.bound_checks is checks and rep.bounds_ok()
    assert len(calls) == 1
    assert gauss_reduce(B).bound_checks == {}
    assert len(calls) == 1


@pytest.mark.parametrize("reduce", (gauss_reduce, alll_reduce))
def test_transform_and_events_are_built_on_read_or_kept_when_given(reduce, monkeypatch):
    """A report holds the transform as integer coordinates and builds the
    RingMatrix (and the event strings) when first read; both stay
    constructor fields, and a value given there is kept."""
    basis = ComplexBasis(np.column_stack(eisenstein_golden_basis()), RING3)
    built = []
    init = RingElem.__init__
    monkeypatch.setattr(RingElem, "__init__", lambda self, *a: built.append(1) or init(self, *a))
    rep = reduce(basis)
    ua, ub = rep.coords
    assert built == []
    assert rep.transform == RingMatrix.from_int_rows(
        [[(ua[j][i], ub[j][i]) for j in range(2)] for i in range(2)], RING3
    )
    assert rep.events and all(e.split(":")[0] in ("size_reduction", "swap") for e in rep.events)
    assert rep.events.count("swap") + sum(e.startswith("swap:") for e in rep.events) == rep.swaps
    other = identity_matrix(2, RING3)
    given = dataclasses.replace(rep, transform=other, events=["swap"])
    assert (given.transform, given.events, given.coords) == (other, ["swap"], rep.coords)


@pytest.mark.parametrize("reduce", (gauss_reduce, alll_reduce))
def test_exact_norms_are_built_on_read_or_kept_when_given(reduce, monkeypatch):
    """norms_squared_exact is built from the input basis on its first read and
    kept, None included (a float basis decodes once); a value given to the
    constructor or to dataclasses.replace, None too, is kept."""
    calls = []
    pairs = ComplexBasis._exact_pairs
    monkeypatch.setattr(ComplexBasis, "_exact_pairs", lambda b: calls.append(1) or pairs(b))
    exact = reduce(ComplexBasis(np.column_stack(eisenstein_golden_basis()), RING3))
    floats = reduce(TestTinyFloatBasis().basis(2))
    assert calls == []
    assert exact.norms_squared_exact == [16, 28] == exact.as_dict()["norms_squared_exact"]
    assert floats.norms_squared_exact is None and floats.norms_squared_exact is None
    assert len(calls) == 2
    assert dataclasses.replace(exact, norms_squared_exact=None).norms_squared_exact is None
    assert dataclasses.replace(floats, norms_squared_exact=[1, 2]).norms_squared_exact == [1, 2]
    assert dataclasses.replace(exact, swaps=7).norms_squared_exact == [16, 28]
    assert len(calls) == 2


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((2, 5, 8, 64, 128)), st.integers(1, 64), st.data())
def test_pack_round_trip(w, n, data):
    """_unpack reads back every digit list _pack packs, for digits up to
    +-(2**(w-1) - 1)."""
    top = (1 << (w - 1)) - 1
    edge = st.sampled_from((-top, -1, 0, 1, top))
    digits = data.draw(st.lists(st.integers(-top, top) | edge, min_size=n, max_size=n))
    got = reduction._unpack(reduction._pack(digits, w), n, w)
    assert type(got) is list and got == digits
