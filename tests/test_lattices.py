import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alglat import lattices
from alglat.lattices import (
    MAX_CONDITION,
    ComplexBasis,
    RingMatrix,
    _cond,
    _independent,
    basis_from_json,
    basis_to_json,
    coeff_to_complex,
    embed,
    hermite_factor,
    orthogonality_defect,
    volume,
)
from alglat.rings import ring_new
from alglat.reduction import _r_positive, real_lll
from alglat.svp import _enumeration_r
from oracles import (
    embed_reference,
    exact_pairs_reference,
    identity_matrix,
    inverse_unimodular,
    matmul_reference,
    minkowski_check,
    minor,
    random_basis,
    random_unimodular,
    ring_det_reference,
)
from test_rings import SAMPLE_D

RING1 = ring_new(1)
RING2 = ring_new(2)
RING3 = ring_new(3)


def random_elem_vector(ring, n, rng, lo=-5, hi=6):
    return tuple(ring.elem(*rng.integers(lo, hi, size=2)) for _ in range(n))


class TestEmbed:
    def test_scalar_one_d2(self):
        B = ComplexBasis(np.array([[1.0 + 0j]]), RING2)
        np.testing.assert_allclose(embed(B), [[1, 0], [0, math.sqrt(2)]], atol=1e-15)

    def test_scalar_one_d3(self):
        B = ComplexBasis(np.array([[1.0 + 0j]]), RING3)
        np.testing.assert_allclose(embed(B), [[1, 0.5], [0, math.sqrt(3) / 2]], atol=1e-15)

    def test_scalar_i_d1(self):
        B = ComplexBasis(np.array([[1j]]), RING1)
        np.testing.assert_allclose(embed(B), [[0, -1], [1, 0]], atol=1e-15)

    @pytest.mark.parametrize("d", (1, 2, 3, 5, 7, 11))
    def test_coefficient_identity(self, d):
        """stack(B x) equals the real generator applied to [x_a; x_b]."""
        ring = ring_new(d)
        rng = np.random.default_rng(d)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            B = random_basis(ring, n, rng)
            x = random_elem_vector(ring, n, rng)
            v = B.matrix @ coeff_to_complex(x)
            lhs = np.concatenate([v.real, v.imag])
            coords = np.array([e.a for e in x] + [e.b for e in x], dtype=float)
            rhs = embed(B) @ coords
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    @pytest.mark.parametrize("d", (1, 3))
    def test_isometry(self, d):
        ring = ring_new(d)
        rng = np.random.default_rng(d + 40)
        for _ in range(1000):
            n = int(rng.integers(1, 4))
            B = random_basis(ring, n, rng)
            x = random_elem_vector(ring, n, rng)
            v = B.matrix @ coeff_to_complex(x)
            coords = np.array([e.a for e in x] + [e.b for e in x], dtype=float)
            assert np.linalg.norm(v) == pytest.approx(
                np.linalg.norm(embed(B) @ coords), rel=1e-9, abs=1e-12
            )

    def test_real_volume_identity(self):
        rng = np.random.default_rng(5)
        for d in (1, 2, 3, 7):
            ring = ring_new(d)
            for _ in range(20):
                B = random_basis(ring, int(rng.integers(1, 5)), rng)
                det_embed = abs(np.linalg.det(embed(B)))
                assert det_embed == pytest.approx(volume(B), rel=1e-9)


def _embed_cases(d, rng):
    """Bases over the ring of d: CN(0,1), exact ring entries, and exact
    entries with some real or imaginary parts zero."""
    ring = ring_new(d)
    for n in (1, 2, 3, 4):
        yield random_basis(ring, n, rng)
        for zeros in (False, True):
            while True:
                a, b = rng.integers(-4, 5, (2, n, n))
                m = a + b * ring.xi
                if zeros:
                    m = np.where(rng.random((n, n)) < 0.3, m.real + 0j, m)
                    m = np.where(rng.random((n, n)) < 0.3, 1j * m.imag, m)
                if np.linalg.cond(m) < 1e6:
                    break
            yield ComplexBasis(m, ring)


@pytest.mark.parametrize("d", (1, 2, 3, 5, 6, 7))
def test_embed_reads_xi_as_the_closed_forms_did(d):
    """embed, which forms the xi-columns from xi, equals the closed forms
    in the ring's type bit for bit, signs of zeros included, and so do the
    real LLL transform and the enumeration R factor built on it.  Exact
    type I bases need the zero signs: there the xi-column is orthogonal to
    the 1-column, so QR meets pivots of +0.0 or -0.0."""
    rng = np.random.default_rng(100 + d)
    pair_order = lambda n: np.arange(2 * n).reshape(2, n).T.ravel()  # noqa: E731
    for _ in range(8):
        for B in _embed_cases(d, rng):
            want = embed_reference(B)
            assert embed(B).tobytes() == want.tobytes()
            T = real_lll(embed(B))[1]
            assert np.array_equal(T, real_lll(want)[1])
            assert np.array_equal(_enumeration_r(B.matrix, B.ring.xi), _r_positive(want[:, pair_order(B.n)]))


class TestVolumeAndDefect:
    def test_volume_identity_gaussian(self):
        B = ComplexBasis(np.eye(2, dtype=complex), RING1)
        assert volume(B) == pytest.approx(1.0)

    def test_volume_identity_eisenstein(self):
        B = ComplexBasis(np.eye(2, dtype=complex), RING3)
        assert volume(B) == pytest.approx(0.75)

    def test_volume_diag(self):
        B = ComplexBasis(np.diag([2.0, 1.0]).astype(complex), RING1)
        assert volume(B) == pytest.approx(4.0)

    def test_od_identity(self):
        assert orthogonality_defect(ComplexBasis(np.eye(2, dtype=complex), RING1)) == pytest.approx(1.0)

    def test_od_identity_eisenstein(self):
        assert orthogonality_defect(ComplexBasis(np.eye(2, dtype=complex), RING3)) == pytest.approx(4.0 / 3.0)

    @pytest.mark.parametrize("d", (1, 2, 3, 7, 11))
    def test_od_lower_bound(self, d):
        ring = ring_new(d)
        rng = np.random.default_rng(d + 9)
        floor = ring.det_phi ** -2
        for _ in range(500):
            B = random_basis(ring, 2, rng)
            assert orthogonality_defect(B) >= floor * (1 - 1e-9)

    def test_od_lower_bound_scales_with_det(self):
        # the bound must survive |det B| far from 1
        B = ComplexBasis(np.diag([5.0, 4.0]).astype(complex), RING1)
        assert orthogonality_defect(B) >= 1.0 - 1e-12


class TestHermiteFactor:
    def test_identity(self):
        B = ComplexBasis(np.eye(2, dtype=complex), RING1)
        assert hermite_factor(B, 1.0) == pytest.approx(1.0)

    def test_identity_eisenstein(self):
        B = ComplexBasis(np.eye(2, dtype=complex), RING3)
        assert hermite_factor(B, 1.0) == pytest.approx(0.75 ** -0.5)

    def test_gamma4_bound_random(self):
        from alglat.svp import shortest_vector

        rng = np.random.default_rng(17)
        for d in (1, 3):
            ring = ring_new(d)
            for _ in range(40):
                B = random_basis(ring, 2, rng)
                lam1 = shortest_vector(B).norm
                assert hermite_factor(B, lam1) <= math.sqrt(2) + 1e-9


class TestUnimodular:
    def test_paper_network_matrices(self):
        A1 = RingMatrix.from_int_rows([[(2, 2), (-1, 0)], [(3, 4), (-2, 0)]], RING1)
        A2 = RingMatrix.from_int_rows([[(-1, 1), (1, 0)], [(-5, 0), (3, 3)]], RING1)
        assert A1.det() == RING1.elem(-1)
        assert A2.det() == RING1.elem(-1)
        assert A1.is_unimodular()
        assert A2.is_unimodular()

    def test_diag_2_1_not_unimodular(self):
        D = RingMatrix.from_int_rows([[(2, 0), (0, 0)], [(0, 0), (1, 0)]], RING1)
        assert not D.is_unimodular()
        assert D.det().norm() == 4

    @pytest.mark.parametrize("d", (1, 2, 3, 7, 11))
    @pytest.mark.parametrize("n", (2, 3, 4, 5))
    def test_det_multiplicative(self, d, n):
        ring = ring_new(d)
        rng = np.random.default_rng(10 * d + n)
        for _ in range(10):
            U = random_unimodular(ring, n, rng)
            V = random_unimodular(ring, n, rng)
            assert (U @ V).det() == U.det() * V.det()
            assert U.is_unimodular() and V.is_unimodular()

    def test_bareiss_matches_cofactor(self):
        # compare the elimination, the only determinant path, against
        # expansion by minors; n = 4 first keeps its original draws
        ring = ring_new(3)
        rng = np.random.default_rng(77)

        def cofactor_det(M):
            if M.n == 1:
                return M[0, 0]
            acc = ring.zero
            for j in range(M.n):
                term = M[0, j] * cofactor_det(minor(M, 0, j))
                acc = acc + term if j % 2 == 0 else acc - term
            return acc

        for n in (4, 1, 2, 3):
            for _ in range(20):
                M = RingMatrix.from_int_rows(
                    [
                        [tuple(rng.integers(-4, 5, size=2)) for _ in range(n)]
                        for _ in range(n)
                    ],
                    ring,
                )
                assert M.det() == cofactor_det(M)

    def test_singular_det_zero(self):
        ring = ring_new(1)
        row = [(1, 2), (3, -1), (0, 4)]
        M = RingMatrix.from_int_rows([row, row, [(1, 0), (0, 0), (0, 1)]], ring)
        assert M.det().is_zero()

    def test_from_columns_refuses_non_square(self):
        """Two columns of length 3 became a 2x2 matrix; columns of length
        1 raised IndexError."""
        for length in (3, 1):
            col = (RING1.one,) * length
            with pytest.raises(ValueError, match="must be square"):
                RingMatrix.from_columns([col, col], RING1)

    def test_from_int_rows_refuses_non_integral_coordinates(self):
        """[[(1.5, 0)]] was read as [[1]], of determinant 1."""
        with pytest.raises(TypeError):
            RingMatrix.from_int_rows([[(1.5, 0)]], RING1)

    def test_inverse_unimodular(self):
        rng = np.random.default_rng(3)
        for d in (1, 3):
            ring = ring_new(d)
            U = random_unimodular(ring, 3, rng)
            I = U @ inverse_unimodular(U)
            assert I.entries == identity_matrix(3, ring).entries


class TestBasisEquivalence:
    @pytest.mark.parametrize("d", (1, 3, 5))
    def test_unimodular_transform_preserves_lattice(self, d):
        ring = ring_new(d)
        rng = np.random.default_rng(d + 21)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            B = random_basis(ring, n, rng)
            U = random_unimodular(ring, n, rng)
            BU = ComplexBasis(B.matrix @ U.to_complex(), ring)
            assert volume(BU) == pytest.approx(volume(B), rel=1e-7)
            # mutual membership: columns of BU are B times exact ring vectors
            Uinv = inverse_unimodular(U)
            for j in range(n):
                x = U.column(j)
                np.testing.assert_allclose(
                    B.matrix @ coeff_to_complex(x), BU.matrix[:, j], atol=1e-8
                )
                y = Uinv.column(j)
                np.testing.assert_allclose(
                    BU.matrix @ coeff_to_complex(y), B.matrix[:, j], atol=1e-8
                )


class TestMinkowski:
    def test_identity_gaussian(self):
        B = ComplexBasis(np.eye(2, dtype=complex), RING1)
        rep = minkowski_check(B, [1.0, 1.0])
        assert rep["ok"] and not rep["skipped"]
        assert rep["first_bound"] == pytest.approx(math.sqrt(2))

    def test_rank_one(self):
        B = ComplexBasis(np.array([[1.0 + 0j]]), RING1)
        rep = minkowski_check(B, [1.0])
        assert rep["ok"]
        assert rep["gamma_2n"] == pytest.approx(2 / math.sqrt(3))

    def test_eisenstein_golden_lattice(self):
        w = RING3.xi
        B = ComplexBasis(np.array([[4 + w, 1 + 4 * w], [-1 + 5 * w, 1 + 2 * w]]), RING3)
        rep = minkowski_check(B, [4.0, math.sqrt(28)])
        assert rep["ok"]

    def test_large_rank_skipped(self):
        B = ComplexBasis(np.eye(5, dtype=complex), RING1)
        with pytest.warns(UserWarning):
            rep = minkowski_check(B, [1.0] * 5)
        assert rep["skipped"]


class TestValidationAndJson:
    def test_dependent_columns_rejected(self):
        m = np.array([[1.0, 2.0], [1.0, 2.0]], dtype=complex)
        with pytest.raises(ValueError):
            ComplexBasis(m, RING1)

    def test_nonfinite_rejected(self):
        m = np.array([[1.0, 0.0], [0.0, np.inf]], dtype=complex)
        with pytest.raises(ValueError):
            ComplexBasis(m, RING1)

    def test_column_major_matrix_accepted(self):
        """A transposed or column-permuted complex array is column-major; the
        finiteness check read it as float pairs and raised ValueError."""
        m = np.array([[1.0, 2j], [3.0, 4.0]])
        for cm in (m.T, m[:, [1, 0]]):
            assert np.array_equal(ComplexBasis(cm, RING1).matrix, cm)

    @pytest.mark.parametrize("shape", ((2, 3), (0, 0), (2,)))
    def test_non_square_or_empty_basis_rejected(self, shape):
        with pytest.raises(ValueError, match="basis must be square and non-empty"):
            ComplexBasis(np.ones(shape, dtype=complex), RING1)

    def test_empty_ring_matrix_rejected(self):
        with pytest.raises(ValueError, match="square and non-empty"):
            RingMatrix.from_int_rows([], RING1)

    def test_ring_matrix_entry_from_another_ring_rejected(self):
        with pytest.raises(ValueError, match="entry from a different ring"):
            RingMatrix(((RING1.one, RING1.zero), (RING3.zero, RING1.one)), RING1)

    def test_ring_matrix_product_across_rings_rejected(self):
        with pytest.raises(ValueError, match="mixed rings"):
            identity_matrix(2, RING1) @ identity_matrix(2, RING3)

    def test_json_round_trip(self):
        rng = np.random.default_rng(1)
        B = random_basis(RING3, 3, rng)
        B2 = basis_from_json(basis_to_json(B))
        assert B2.ring == B.ring
        np.testing.assert_allclose(B2.matrix, B.matrix)

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            basis_from_json('{"ring": "d=3", "n": 2, "columns": [[[1,0]]]}')
        with pytest.raises(ValueError):
            basis_from_json('{"n": 2}')

    def test_exact_entries_of_huge_entry(self):
        """Over d = 3, Im xi < 1 and Im z / Im xi overflows to inf, which
        rounding raised OverflowError on; the entry is simply not exact.
        Over d = 1 the same entry is the ring element 1.6e308 * xi."""
        m = np.array([[1.6e308j]])
        B = ComplexBasis(m, RING3)
        assert B._exact_pairs() is None and B.exact_entries() is None
        assert ComplexBasis(m, RING1)._exact_pairs() == [[(0, int(1.6e308))]]

    def test_ring_matrix_times_a_vector_is_a_type_error(self):
        """RingMatrix @ RingMatrix is the one product; a tuple of ring
        elements is not an operand."""
        eye = identity_matrix(2, RING1)
        assert eye @ eye == eye
        with pytest.raises(TypeError):
            eye @ (RING1.one, RING1.zero)

    def test_exact_entries_detection(self):
        w = RING3.xi
        B = ComplexBasis(np.array([[4 + w, 1 + 4 * w], [-1 + 5 * w, 1 + 2 * w]]), RING3)
        E = B.exact_entries()
        assert E is not None
        assert (E[0, 0].a, E[0, 0].b) == (4, 1)
        B2 = ComplexBasis(B.matrix + 0.01, RING3)
        assert B2.exact_entries() is None


@st.composite
def ring_matrix_pairs(draw):
    """Two n x n matrices over one ring, n = 1..6.  The first is drawn
    as is, with a zero leading pivot, or singular: one row a ring multiple
    of another (for n = 1, the zero entry)."""
    ring = ring_new(draw(st.sampled_from((1, 2, 3, 5, 6, 7, 11, 15))))
    n = draw(st.integers(1, 6))
    coord = st.integers(-4, 4)
    rows = st.lists(st.lists(st.tuples(coord, coord), min_size=n, max_size=n), min_size=n, max_size=n)
    x, y = draw(rows), draw(rows)
    shape = draw(st.sampled_from(("drawn", "zero_pivot", "singular")))
    if shape == "zero_pivot" or (shape == "singular" and n == 1):
        x[0][0] = (0, 0)
    elif shape == "singular":
        i, j = draw(st.permutations(range(n)))[:2]
        c = ring.elem(*draw(st.tuples(coord, coord)))
        x[i] = [(p.a, p.b) for p in (c * ring.elem(*e) for e in x[j])]
    return RingMatrix.from_int_rows(x, ring), RingMatrix.from_int_rows(y, ring), shape


@settings(max_examples=400, deadline=None)
@given(ring_matrix_pairs())
def test_det_and_product_equal_the_ring_element_oracles(case):
    """The pair Bareiss and the pair product give the RingElem Bareiss's
    determinant and the RingElem triple loop's product."""
    x, y, shape = case
    det = x.det()
    assert det == ring_det_reference(x)
    if shape == "singular":
        assert det.is_zero()
    assert x @ y == matmul_reference(x, y)


@pytest.mark.parametrize("k", (-1000, -500, 500, 1000))
def test_orthogonality_defect_is_scale_free(k):
    """At these scales the norm product or |det B| leaves the float range,
    which made the defect NaN; the volume leaves it too, which made the
    Hermite factor 0 or inf (with lambda1 scaled alike, here 2**k)."""
    rng = np.random.default_rng(0)
    m = np.sqrt(0.5) * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    want = orthogonality_defect(ComplexBasis(m, RING1))
    assert orthogonality_defect(ComplexBasis(m * 2.0**k, RING1)) == pytest.approx(want, rel=1e-12)
    want = hermite_factor(ComplexBasis(m, RING1), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = hermite_factor(ComplexBasis(m * 2.0**k, RING1), 2.0**k)
    assert got == pytest.approx(want, rel=1e-12)


#: the sampled rings plus two large d, where Im xi is far from 1; above
#: 2**20 the quantizer also leaves its rounding shortcut
DECODE_D = SAMPLE_D + (10007, 1048583)


@st.composite
def _decode_case(draw):
    """A finite basis of exact ring entries with coordinates up to 2**30,
    then left exact, moved off the ring by 1e-15 to 1e-7, scaled by 2**-1 to
    2**-39, or shifted by xi/2 in one entry; or a float basis."""
    ring = ring_new(draw(st.sampled_from(DECODE_D)))
    n = draw(st.integers(1, 4))
    coord = st.one_of(st.integers(-8, 8), st.integers(-(2**30), 2**30))
    pairs = draw(st.lists(st.tuples(coord, coord), min_size=n * n, max_size=n * n))
    m = np.array([complex(a) + b * ring.xi for a, b in pairs]).reshape(n, n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["exact", "near", "scaled", "half", "float"]))
    if kind == "near":
        eps = draw(st.sampled_from([1e-15, 1e-12, 1e-10, 5e-10, 1e-9, 2e-9, 1e-8, 1e-7]))
        m = m + eps * np.exp(2j * np.pi * rng.random((n, n)))
    elif kind == "scaled":
        m = m * 2.0 ** -draw(st.integers(1, 39))
    elif kind == "half":
        m[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] += ring.xi / 2
    elif kind == "float":
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m = g * 2.0 ** draw(st.integers(-40, 30))
    # _exact_pairs does not need independent columns, so skip the cond check
    return ComplexBasis._derived(m, ring)


@settings(max_examples=600, deadline=None)
@given(_decode_case())
@example(ComplexBasis(np.array([[0.5 + 0j]]), RING1))
@example(ComplexBasis(np.array([[RING3.xi / 2]]), RING3))
def test_exact_pairs_decode_matches_quantizer_search(basis):
    """The closed-form decode returns the rows (or None) of the
    nearest-point search it replaced."""
    assert basis._exact_pairs() == exact_pairs_reference(basis)


def _unitary(alpha, beta, gamma, theta):
    """A 2x2 unitary: a phase times an SU(2) rotation."""
    c, s = math.cos(theta), math.sin(theta)
    u = np.array([[c * np.exp(1j * beta), -s * np.exp(-1j * gamma)],
                  [s * np.exp(1j * gamma), c * np.exp(-1j * beta)]])
    return np.exp(1j * alpha) * u


@st.composite
def _conditioned_2x2(draw, log10_cond):
    """U diag(1, 10**-c) V^H with c drawn from log10_cond, random unitaries
    U, V, and a power-of-two scale k in [-600, 600]: (matrix at scale 1, k)."""
    angle = st.floats(0, 2 * math.pi)
    u = _unitary(*(draw(angle) for _ in range(4)))
    v = _unitary(*(draw(angle) for _ in range(4)))
    s = np.diag([1.0, 10.0 ** -draw(log10_cond)])
    return u @ s @ v.conj().T, draw(st.integers(-600, 600))


@settings(max_examples=400, deadline=None)
@given(_conditioned_2x2(st.floats(0, 3)))
def test_closed_form_cond_matches_svd(case):
    """Within 1e-9 relative of np.linalg.cond for cond <= 1e3, at any scale:
    the closed form scales each matrix by a power of two first, so 2**k
    changes no bit of it."""
    m, k = case
    got = _cond(m * 2.0**k)
    assert got == _cond(m)
    assert got == pytest.approx(np.linalg.cond(m), rel=1e-9)


@settings(max_examples=400, deadline=None)
@given(_conditioned_2x2(st.floats(9, 15)))
def test_closed_form_verdict_matches_svd(case):
    """Outside a 1e-3 relative band around MAX_CONDITION, _independent refuses
    exactly the matrices whose SVD condition number exceeds it, at any
    scale, alone and in a stack."""
    m, k = case
    svd = np.linalg.cond(m)
    if abs(svd / MAX_CONDITION - 1) < 1e-3:
        return
    scaled = m * 2.0**k
    for a in (scaled, np.stack([np.eye(2, dtype=complex), scaled])):
        if svd <= MAX_CONDITION:
            assert _independent(a) is a
        else:
            with pytest.raises(ValueError, match="numerically dependent"):
                _independent(a)


def test_closed_form_cond_edge_cases(monkeypatch):
    """Zero (0/0) and singular (inf) matrices refuse; a 2x2 never runs an
    SVD, while other ranks keep np.linalg.cond."""
    calls = []
    cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda m, *a: calls.append(m.shape) or cond(m, *a))
    tiny = 2.0**-1074 * np.array([[1, 0], [0, 1]], dtype=complex)  # subnormal entries
    assert _cond(tiny) == 1.0 and _independent(tiny) is tiny
    huge = 1.7e308 * np.array([[1, 1j], [1j, 1]], dtype=complex)
    assert _cond(huge) == pytest.approx(cond(huge / 1.7e308), rel=1e-12)
    for bad in (np.zeros((2, 2), dtype=complex), np.array([[1, 2], [2, 4]], dtype=complex)):
        assert not _cond(bad) <= MAX_CONDITION
        with pytest.raises(ValueError, match="numerically dependent"):
            ComplexBasis(bad, RING1)
    assert calls == []
    ComplexBasis(np.eye(3, dtype=complex), RING1)
    assert calls == [(3, 3)]
