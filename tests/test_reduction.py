import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alglat.cf import Channel, cf_basis, design_relay
from alglat.lattices import ComplexBasis, RingMatrix, _independent, embed
from alglat import reduction
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
from alglat.rings import quantize, ring_new
from alglat.svp import shortest_vector, successive_minima_2d

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


class TestAlll:
    def test_identity_noop(self):
        B = ComplexBasis(np.eye(2, dtype=complex), RING1)
        rep = alll_reduce(B, 0.99)
        assert rep.swaps == 0
        assert rep.transform.entries == type(rep.transform).identity(2, RING1).entries
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
        from alglat.lattices import random_unimodular

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
    transform, so only the input pays for the cond (SVD) check."""

    @pytest.fixture
    def cond_calls(self, monkeypatch):
        calls = []
        cond = np.linalg.cond

        def counting(m, *args):
            calls.append(m.shape)
            return cond(m, *args)

        monkeypatch.setattr(np.linalg, "cond", counting)
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
