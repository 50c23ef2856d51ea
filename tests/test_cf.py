import math
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from alglat import cf, experiments, lattices, reduction, svp
from alglat.cf import (
    STRATEGIES,
    Channel,
    cf_basis,
    computation_rate,
    db_to_linear,
    default_morphism,
    design_relay,
    design_relays,
    rank_mod_p,
    random_channel,
    transmission_rate,
)
from alglat.experiments import (
    _BLOCK,
    _child_words,
    _rank_failures,
    _trials,
    _words_type,
    cf_experiment,
    dof_slope,
    hermite_cdf,
    rank_failure_probability,
)
from alglat.lattices import (
    MAX_CONDITION,
    ComplexBasis,
    RingMatrix,
    coeff_to_complex,
    embed,
    volume,
)
from alglat.reduction import NonEuclideanRingWarning, alll_reduce, gauss_reduce, real_lll
from alglat.reduction import reduction_epsilon
from alglat.rings import RingElem, morphism_new, ring_new, units
from alglat.svp import shortest_vector
from oracles import (
    identity_matrix,
    mac_rate_floor,
    random_basis,
    random_unimodular,
    rate_denominator_exact,
    rate_reference,
    trial_rng_reference,
)
from test_rings import SAMPLE_D

RING1 = ring_new(1)
RING3 = ring_new(3)

H1 = Channel.from_db([-0.4001 + 1.0937j, -0.9278 + 1.8151j], 25.0)
H2 = Channel.from_db([-0.3779 + 0.2307j, -1.5736 - 0.3939j], 25.0)
A1_PAPER = RingMatrix.from_int_rows([[(2, 2), (-1, 0)], [(3, 4), (-2, 0)]], RING1)
A2_PAPER = RingMatrix.from_int_rows([[(-1, 1), (1, 0)], [(-5, 0), (3, 3)]], RING1)


def gram(ch: Channel) -> np.ndarray:
    """M = I + P h h^H, built inline: its LAPACK inverse and Cholesky factor
    are the tests' independent reference for the closed-form channel basis."""
    return np.eye(ch.n) + ch.p * np.outer(ch.h, ch.h.conj())


class TestChannelAndBasis:
    def test_validation(self):
        with pytest.raises(ValueError):
            Channel(np.array([1.0 + 0j]), -1.0)
        with pytest.raises(ValueError):
            Channel(np.array([np.inf + 0j]), 1.0)

    def test_two_dimensional_channel_rejected(self):
        with pytest.raises(ValueError, match="channel must be a vector"):
            Channel(np.ones((2, 2), dtype=complex), 1.0)

    def test_zero_channel_gives_identity_gram(self):
        ch = Channel(np.zeros(2, dtype=complex), 10.0)
        B = cf_basis(ch, RING1)
        np.testing.assert_allclose(B.matrix.conj().T @ B.matrix, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(B.matrix, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("h, p", (([1e200, 1], 1e200), ([1e155, 1e155], 1.0)))
    def test_overflowing_energy_rejected(self, h, p):
        """P ||h||^2 beyond the float range overflowed the Gram matrix, and
        every computation rate read 0.0."""
        with pytest.raises(ValueError, match="overflows a float"):
            Channel(h, p)

    def test_scalar_case(self):
        ch = Channel(np.array([1.0 + 0j]), 3.0)
        B = cf_basis(ch, RING1)
        assert abs(B.matrix[0, 0]) == pytest.approx(0.5)

    def test_gram_identity_random(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            ch = random_channel(n, db_to_linear(rng.uniform(0, 35)), rng)
            B = cf_basis(ch, RING1)
            Minv = np.linalg.inv(gram(ch))
            np.testing.assert_allclose(
                B.matrix.conj().T @ B.matrix, Minv, rtol=1e-8, atol=1e-10
            )
            a = tuple(RING1.elem(*rng.integers(-4, 5, size=2)) for _ in range(n))
            if all(e.is_zero() for e in a):
                continue
            ac = coeff_to_complex(a)
            assert np.linalg.norm(B.matrix @ ac) ** 2 == pytest.approx(
                float(np.real(ac.conj() @ Minv @ ac)), rel=1e-8
            )


class TestComputationRate:
    def test_zero_channel(self):
        ch = Channel(np.zeros(2, dtype=complex), 10.0)
        assert computation_rate(ch, (RING1.one, RING1.zero)) == 0.0

    def test_scalar(self):
        ch = Channel(np.array([1.0 + 0j]), 3.0)
        assert computation_rate(ch, (RING1.one,)) == pytest.approx(2.0)

    def test_zero_coefficient_rejected(self):
        ch = Channel(np.array([1.0 + 0j]), 3.0)
        with pytest.raises(ValueError):
            computation_rate(ch, (RING1.zero,))

    def test_nan_denominator_rejected(self):
        """A NaN denominator passed the den <= 0 test, and max(0.0, NaN)
        read as rate 0.0."""
        ch = Channel(np.array([1.0, 1.0]), 3.0)
        ch.__dict__["_basis"] = np.full((2, 2), np.nan)
        with pytest.raises(ValueError, match="must be positive, got nan"):
            computation_rate(ch, (RING1.one, RING1.zero))

    def test_rate_matches_basis_length(self):
        """log2+(1/a^H M^-1 a) equals -log2 ||B a||^2 through the basis."""
        B = cf_basis(H1, RING1)
        a = A1_PAPER.column(0)
        direct = computation_rate(H1, a)
        via_basis = -math.log2(np.linalg.norm(B.matrix @ coeff_to_complex(a)) ** 2)
        assert direct == pytest.approx(via_basis, abs=1e-6)


class TestDesignRelay:
    def test_worked_example_rate_equivalent(self):
        d = design_relay(H1, RING1, "alll")
        assert d.matrix.is_unimodular()
        # rate-equivalent to the published matrix (literal equality not required)
        assert d.best_rate == pytest.approx(
            computation_rate(H1, A1_PAPER.column(0)), abs=1e-6
        )
        assert d.rates == sorted(d.rates, reverse=True)

    def test_zero_channel_identity(self):
        ch = Channel(np.zeros(2, dtype=complex), 5.0)
        d = design_relay(ch, RING1, "alll")
        assert d.matrix.entries == identity_matrix(2, RING1).entries

    @pytest.mark.parametrize("strategy", ("alll", "rlll", "svp", "best_single"))
    def test_strategies_run(self, strategy):
        rng = np.random.default_rng(1)
        ch = random_channel(3, db_to_linear(20), rng)
        d = design_relay(ch, RING1, strategy)
        assert d.best_rate >= 0
        assert any(not e.is_zero() for e in d.best_vector)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            design_relay(H1, RING1, "bkz")

    def test_alll_always_unimodular(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            n = int(rng.integers(1, 5))
            ch = random_channel(n, db_to_linear(rng.uniform(0, 40)), rng)
            d = design_relay(ch, RING1, "alll")
            assert d.matrix.is_unimodular()

    def test_svp_dominates_alll(self):
        rng = np.random.default_rng(3)
        eps = reduction_epsilon(RING1, 0.99)
        for _ in range(40):
            n = int(rng.integers(2, 5))
            ch = random_channel(n, db_to_linear(rng.uniform(5, 35)), rng)
            r_svp = design_relay(ch, RING1, "svp").best_rate
            r_alll = design_relay(ch, RING1, "alll").best_rate
            assert r_svp >= r_alll - 1e-9
            assert r_svp <= r_alll + (n - 1) * math.log2(1 / eps) + 1e-9

    def test_mac_floor(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            n = int(rng.integers(2, 5))
            ch = random_channel(n, db_to_linear(rng.uniform(5, 35)), rng)
            r_svp = design_relay(ch, RING1, "svp").best_rate
            assert r_svp >= mac_rate_floor(RING1, ch) - 1e-9


class TestFiniteField:
    def test_rank_identity(self):
        mor = default_morphism(RING1)
        I = identity_matrix(3, RING1)
        assert rank_mod_p(I, mor) == 3

    def test_rank_drops_on_modulus_multiple(self):
        mor = default_morphism(RING1)
        A = RingMatrix.from_int_rows([[(2, 1), (0, 0)], [(0, 0), (1, 0)]], RING1)
        assert rank_mod_p(A, mor) == 1

    def test_unimodular_always_full_rank(self):
        mor = default_morphism(RING1)
        rng = np.random.default_rng(5)
        for _ in range(300):
            U = random_unimodular(RING1, 3, rng)
            assert rank_mod_p(U, mor) == 3

    def test_det_morphism_commutes(self):
        for ring, mod in ((RING1, (2, 1)), (RING3, (2, 1))):
            mor = morphism_new(ring, ring.elem(*mod))
            rng = np.random.default_rng(6)
            for _ in range(1000):
                A = RingMatrix.from_int_rows(
                    [
                        [tuple(rng.integers(-6, 7, size=2)) for _ in range(3)]
                        for _ in range(3)
                    ],
                    ring,
                )
                assert mor.apply(A.det()) == cf._eliminate_mod_p(A._pairs(), mor)[1]

    def test_default_morphisms(self):
        assert default_morphism(RING1).p == 5
        assert default_morphism(RING3).p == 7
        with pytest.raises(ValueError):
            default_morphism(ring_new(5))


class TestTransmissionRate:
    def test_worked_example_published_matrices(self):
        mor = default_morphism(RING1)
        assert rank_mod_p(A1_PAPER, mor) == 2
        assert rank_mod_p(A2_PAPER, mor) == 2
        stack = RingMatrix.from_columns([A1_PAPER.column(0), A2_PAPER.column(0)], RING1)
        assert rank_mod_p(stack, mor) == 1  # first equations alone cannot be inverted
        assert not stack.det().is_zero()  # yet the stack is nonsingular over the ring

    def test_worked_example_pipeline(self):
        mor = default_morphism(RING1)
        designs = [design_relay(H1, RING1, "alll"), design_relay(H2, RING1, "alll")]
        nd = transmission_rate(designs, mor)
        assert nd.field_rank_ok
        assert nd.det_commutes
        assert nd.matrices[nd.chosen_index].is_unimodular()
        assert nd.rate > 0

    def test_best_single_stack_of_worked_example_fails_over_field(self):
        mor = default_morphism(RING1)
        designs = [design_relay(H1, RING1, "best_single"), design_relay(H2, RING1, "best_single")]
        stack = RingMatrix.from_columns([d.best_vector for d in designs], RING1)
        assert not stack.det().is_zero()
        assert rank_mod_p(stack, mor) < 2

    def test_single_relay_network(self):
        mor = default_morphism(RING1)
        ch = Channel(np.array([1.0 + 0j]), 3.0)
        d = design_relay(ch, RING1, "alll")
        nd = transmission_rate([d], mor)
        assert nd.rate == pytest.approx(d.best_rate)

    def test_random_networks_never_fail(self):
        mor = default_morphism(RING1)
        rng = np.random.default_rng(7)
        for _ in range(200):
            chans = [random_channel(2, db_to_linear(rng.uniform(5, 30)), rng) for _ in range(2)]
            designs = [design_relay(c, RING1, "alll") for c in chans]
            nd = transmission_rate(designs, mor)
            assert nd.field_rank_ok and nd.det_commutes

    def test_rlll_designs_are_single_equation_designs(self):
        # rlll designs carry no matrix; they used to be rejected as "mixed
        # candidate kinds" because they hold more than one vector
        mor = default_morphism(RING1)
        rng = np.random.default_rng(0)
        chans = [random_channel(2, 100.0, rng) for _ in range(2)]
        designs = [design_relay(c, RING1, "rlll") for c in chans]
        nd = transmission_rate(designs, mor)
        stack = RingMatrix.from_columns([d.best_vector for d in designs], RING1)
        assert [m.entries for m in nd.matrices] == [stack.entries]
        assert nd.rate == min(computation_rate(c, stack.column(l)) for l, c in enumerate(chans))
        assert nd.det_commutes

    def test_mixed_strategies_rejected(self):
        mor = default_morphism(RING1)
        designs = [design_relay(H1, RING1, "alll"), design_relay(H2, RING1, "rlll")]
        with pytest.raises(ValueError, match="mixed candidate kinds"):
            transmission_rate(designs, mor)

    @pytest.mark.parametrize("relays", (1, 3))
    def test_relay_count_must_match_dimension(self, relays):
        """One alll design per channel dimension: with fewer the rate loop
        indexed past the designs, with more it left the extra relays'
        channels out of the rate while offering their matrices."""
        mor = default_morphism(RING1)
        designs = [design_relay(h, RING1, "alll") for h in (H1, H2, H1)[:relays]]
        with pytest.raises(ValueError, match="one relay design per channel dimension"):
            transmission_rate(designs, mor)

    def test_mismatched_sizes_rejected(self):
        mor = default_morphism(RING1)
        rng = np.random.default_rng(8)
        d2 = design_relay(random_channel(2, 10.0, rng), RING1, "alll")
        d3 = design_relay(random_channel(3, 10.0, rng), RING1, "alll")
        with pytest.raises(ValueError):
            transmission_rate([d2, d3], mor)

    def test_no_designs_rejected(self):
        with pytest.raises(ValueError, match="at least one relay design"):
            transmission_rate([], default_morphism(RING1))

    def test_designs_over_different_rings_rejected(self):
        """Every design's pairs were read in the first design's ring: a
        d = 1 design with a d = 3 one gave rate 0.9377."""
        designs = [design_relay(H1, RING1, "alll"), design_relay(H2, RING3, "alll")]
        with pytest.raises(ValueError, match="relay designs over different rings"):
            transmission_rate(designs, default_morphism(RING1))

    def test_morphism_from_another_ring_rejected(self):
        designs = [design_relay(H1, RING1, "alll"), design_relay(H2, RING1, "alll")]
        with pytest.raises(ValueError, match="different ring"):
            transmission_rate(designs, default_morphism(RING3))

    def test_all_candidates_singular_over_the_field_rejected(self):
        """Two relays hearing the same channel stack the same best vector
        twice: the only candidate has rank 1 over F_5."""
        designs = [design_relay(H1, RING1, "svp"), design_relay(H1, RING1, "svp")]
        with pytest.raises(ValueError, match="every candidate matrix is rank-deficient"):
            transmission_rate(designs, default_morphism(RING1))


class TestExperimentOps:
    def test_dof_scalar_capacity_scaling(self):
        slope = dof_slope(RING1, 1, "svp", [10, 20, 30, 40, 50, 60], channels_per_point=60, seed=1)
        assert slope == pytest.approx(1.0, abs=0.1)

    def test_dof_examples_reduced_scale(self):
        s2 = dof_slope(RING1, 2, "svp", [10, 20, 30, 40, 50, 60], channels_per_point=60, seed=2)
        assert 0.4 <= s2 <= 0.6
        s4 = dof_slope(RING3, 4, "alll", [10, 20, 30, 40, 50, 60], channels_per_point=60, seed=3)
        assert 0.2 <= s4 <= 0.3

    def test_dof_grid_validation(self):
        with pytest.raises(ValueError):
            dof_slope(RING1, 2, "alll", [10, 20], channels_per_point=10, seed=0)

    @pytest.mark.parametrize("channels", (0, -3))
    def test_dof_channels_per_point_validation(self, channels):
        with pytest.raises(ValueError, match="channels_per_point must be >= 1"):
            dof_slope(RING1, 2, "alll", [0, 40], channels_per_point=channels, seed=0)

    @pytest.mark.parametrize("n, says", [(0, "n must be >= 1"), (65, "n must be at most 64")])
    def test_dof_relay_count_validation(self, n, says, monkeypatch):
        """n is refused before the first channel is drawn; a large n would
        build an n x n channel basis per channel."""
        drawn = []
        monkeypatch.setattr(experiments, "random_channel", lambda *args: drawn.append(args))
        with pytest.raises(ValueError, match=says):
            dof_slope(RING1, n, "alll", [0, 40], channels_per_point=2, seed=0)
        assert drawn == []

    def test_experiment_refuses_a_non_integral_modulus(self):
        """modulus=(1.5, 2) was truncated to 1 + 2*xi."""
        with pytest.raises(TypeError):
            cf_experiment(RING1, 2, [10], 2, ["alll"], 0, modulus=(1.5, 2))

    def test_harness_counts_are_integers(self, monkeypatch):
        """cf_experiment wrote its trials argument into every row as given:
        True ran one trial and wrote True, and np.int64(2) was written as
        np.int64(2).  Each count is taken through operator.index, and a
        bool or a float is refused before the first channel is drawn."""
        (row,) = cf_experiment(RING1, 2, [10], np.int64(2), ["alll"], 0)
        assert type(row[2]) is int and row[2] == 2
        assert row == cf_experiment(RING1, 2, [10], 2, ["alll"], 0)[0]
        (row,) = experiments.rank_failure_rows(
            RING1, default_morphism(RING1), 2, 10.0, np.int64(2), "alll", 0
        )
        assert type(row[2]) is int
        drawn = []
        monkeypatch.setattr(experiments, "random_channel", lambda *args: drawn.append(args))
        for call in (
            lambda: cf_experiment(RING1, 2, [10], True, ["alll"], 0),
            lambda: cf_experiment(RING1, 2, [10], 2.0, ["alll"], 0),
            lambda: cf_experiment(RING1, True, [10], 2, ["alll"], 0),
            lambda: rank_failure_probability(RING1, default_morphism(RING1), 2, 10.0, True),
            lambda: dof_slope(RING1, 2, "alll", [0, 40], channels_per_point=True, seed=0),
            lambda: dof_slope(RING1, 2.0, "alll", [0, 40], channels_per_point=2, seed=0),
            lambda: hermite_cdf([RING1], 100.0, 0),
        ):
            with pytest.raises(TypeError):
                call()
        assert drawn == []

    def test_network_loop_rejects_no_relays(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            cf_experiment(RING1, 0, [10], 2, ["alll"], 0)
        with pytest.raises(ValueError, match="n must be >= 1"):
            rank_failure_probability(RING1, default_morphism(RING1), 0, 10.0, 2)

    @pytest.mark.parametrize(
        "snr_db, strategies, says",
        [
            ([25.0], ["best_single", "best_single"], "only once"),
            ([25.0], ["alll", "svp", "alll"], "only once"),
            ([], ["alll"], "at least one SNR point"),
            ([25.0], [], "at least one strategy"),
        ],
        ids=["repeat", "repeat-apart", "no-snr", "no-strategy"],
    )
    def test_network_loop_rejects_repeated_or_empty_lists(self, snr_db, strategies, says):
        """A repeated strategy would share one accumulator and double its
        failure counts and rows; an empty list would give a header-only table."""
        with pytest.raises(ValueError, match=says):
            cf_experiment(RING1, 2, snr_db, 60, strategies, 3)

    def test_rank_failure_unimodular_zero(self):
        mor = default_morphism(RING1)
        pr, pf = rank_failure_probability(
            RING1, mor, 2, db_to_linear(20.0), 200, "alll", seed=4
        )
        assert (pr, pf) == (0.0, 0.0)

    def test_rank_failure_best_single_positive(self):
        mor = default_morphism(RING1)
        pr, pf = rank_failure_probability(
            RING1, mor, 2, db_to_linear(25.0), 1500, "best_single", seed=5
        )
        assert pf > 0.1
        assert pr < pf

    def test_cf_experiment_alll_never_fails_without_morphism(self):
        # d=5 has no default field map; the alll row is scored on a unimodular
        # matrix all the same, not on the stack of best vectors
        rows = cf_experiment(ring_new(5), 2, [10, 30], 5, ["alll", "best_single"], 3)
        assert [r[7] for r in rows if r[0] == "alll"] == [0.0, 0.0]
        assert all(r[8] is None for r in rows)

    def test_equal_candidates_scored_once(self, monkeypatch):
        # svp and best_single design the same stack, so each trial scores it once
        calls = []

        def counting(rows, mor):
            calls.append(rows)
            return cf._eliminate_mod_p(rows, mor)

        monkeypatch.setattr(experiments, "_eliminate_mod_p", counting)
        cf_experiment(ring_new(1), 2, [20], 5, ["svp", "best_single"], 0)
        assert len(calls) == 5

    def test_rank_failure_trials_validation(self):
        mor = default_morphism(RING1)
        with pytest.raises(ValueError):
            rank_failure_probability(RING1, mor, 2, 10.0, 0, "best_single", seed=0)

    def test_rank_failure_morphism_from_another_ring(self):
        """Rank failures are scored on (a, b) pairs, which carry no ring, so
        a morphism of another ring is refused before any trial runs."""
        with pytest.raises(ValueError, match="morphism from a different ring"):
            rank_failure_probability(RING1, default_morphism(RING3), 2, 10.0, 3, "alll", seed=0)
        with pytest.raises(ValueError, match="different ring"):
            rank_mod_p(A1_PAPER, default_morphism(RING3))


@pytest.mark.parametrize("d", (1, 3))
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_rank_failure_is_cf_experiment_rank_columns(d, strategy):
    ring = ring_new(d)
    snr_db, trials, seed = 25.0, 40, 13
    (row,) = cf_experiment(ring, 2, [snr_db], trials, [strategy], seed)
    p = db_to_linear(snr_db)
    got = rank_failure_probability(ring, default_morphism(ring), 2, p, trials, strategy, seed)
    assert got == (row[7], row[8])


def test_harnesses_emit_no_non_euclidean_warning():
    """The reductions inside the harnesses silence their own warnings on a
    non-Euclidean ring; the harnesses add no filter of their own."""
    ring = ring_new(5)
    mor = morphism_new(ring, ring.elem(3, 2))  # norm 29
    with warnings.catch_warnings():
        warnings.simplefilter("error", NonEuclideanRingWarning)
        cf_experiment(ring, 2, [10, 30], 3, STRATEGIES, 5)
        rank_failure_probability(ring, mor, 2, db_to_linear(25.0), 3, "best_single", 5)
        dof_slope(ring, 2, "alll", [0, 30], channels_per_point=3, seed=5)
        hermite_cdf([ring], 100, 5)


class TestTrialSeeding:
    """Each trial draws only from its own child generator, so trials computed
    one at a time, in any order, reproduce the harness exactly."""

    def test_hermite_cdf_trials_are_independent(self):
        """Trial by trial through gauss_reduce, in reverse, against the
        stacked reduction of each Euclidean ring."""
        rings, trials, seed = [ring_new(d) for d in (1, 2, 3, 5, 7, 11)], 100, 11
        data = hermite_cdf(rings, trials, seed)
        for ri, ring in enumerate(rings):
            vals = []
            for t in reversed(range(trials)):
                rng = trial_rng_reference(seed, ri * trials + t)
                m = math.sqrt(0.5) * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
                if ring.euclidean:
                    rep = gauss_reduce(ComplexBasis(m, ring))
                    basis, lam1 = rep.reduced, rep.norms[0]
                else:
                    basis = ComplexBasis(m, ring)
                    lam1 = shortest_vector(basis).norm
                vals.append(lam1**2 / math.sqrt(volume(basis)))
            assert np.array_equal(np.sort(vals), data[ring])

    def test_rank_failure_trials_are_independent(self):
        mor = default_morphism(RING1)
        p, trials, seed = db_to_linear(25.0), 80, 12
        pr, pf = rank_failure_probability(RING1, mor, 2, p, trials, "best_single", seed)
        ring_fail = field_fail = 0
        for t in reversed(range(trials)):
            rng = trial_rng_reference(seed, t)
            vecs = [design_relay(random_channel(2, p, rng), RING1, "svp").best_vector for _ in range(2)]
            A = RingMatrix.from_columns(vecs, RING1)
            singular = A.det().is_zero()
            ring_fail += singular
            field_fail += singular or rank_mod_p(A, mor) < 2
        assert field_fail > 0
        assert (pr, pf) == (ring_fail / trials, field_fail / trials)


#: seeds of 1 to 7 uint32 words, numpy integers and bools among them
SEEDS = st.one_of(
    st.integers(0, 2**200),
    st.integers(0, 2**63 - 1).map(np.int64),
    st.just(True),
)


class TestBulkSeedWords:
    """The trial generators' seed words are derived in bulk and equal numpy's
    per-child SeedSequence bit for bit."""

    @given(
        SEEDS,
        st.one_of(st.integers(0, 5000), st.integers(2**32 - 40, 2**32 + 40), st.integers(0, 2**70)),
        st.integers(1, 40),
    )
    @settings(max_examples=150, deadline=None)
    def test_child_words_equal_numpy_children(self, seed, first, count):
        # a block may not cross a multiple of 2**32
        count = min(count, 2**32 - (first & 0xFFFFFFFF))
        words = _child_words(np.random.SeedSequence(seed), first, count)
        assert words.shape == (count, 4) and words.dtype == np.uint64
        for i, row in enumerate(words):
            ref = np.random.SeedSequence(seed, spawn_key=(first + i,)).generate_state(4, np.uint64)
            assert np.array_equal(row, ref)

    def test_child_words_at_the_two_word_boundary(self):
        """Index 2**32 is the first with a two-word spawn key."""
        for seed in (0, 5, 2**130 + 1, [3, 2**40]):
            root = np.random.SeedSequence(seed)
            for first, count in ((2**32 - 2, 2), (2**32, 3), (2**64 - 1, 1), (2**64, 2)):
                for i, row in enumerate(_child_words(root, first, count)):
                    ref = np.random.SeedSequence(seed, spawn_key=(first + i,))
                    assert np.array_equal(row, ref.generate_state(4, np.uint64))
            with pytest.raises(ValueError, match="crosses a multiple of 2"):
                _child_words(root, 2**32 - 2, 3)

    @given(SEEDS, st.integers(1, 3), st.integers(1, 30))
    @settings(max_examples=60, deadline=None)
    def test_trials_draw_as_the_reference(self, seed, points, trials):
        got = list(_trials(seed, points, trials))
        assert [(p, t) for p, t, _ in got] == [(p, t) for p in range(points) for t in range(trials)]
        for p, t, rng in got:
            ref = trial_rng_reference(seed, p * trials + t)
            assert np.array_equal(rng.standard_normal(5), ref.standard_normal(5))
            assert np.array_equal(rng.integers(0, 2**62, 3), ref.integers(0, 2**62, 3))

    def test_trials_derive_in_bounded_blocks(self, monkeypatch):
        calls = []

        def recorded(root, first, count):
            calls.append((first, count))
            return _child_words(root, first, count)

        monkeypatch.setattr(experiments, "_child_words", recorded)
        assert sum(1 for _ in _trials(3, 3, 3000)) == 9000
        assert calls == [(0, _BLOCK), (_BLOCK, _BLOCK), (2 * _BLOCK, 9000 - 2 * _BLOCK)]

    @pytest.mark.parametrize(
        "seed, error, says",
        [(-1, ValueError, "expected non-negative integer"), (1.5, TypeError, "expects int")],
    )
    def test_bad_seeds_raise_numpys_errors(self, seed, error, says):
        with pytest.raises(error, match=says):
            next(_trials(seed, 1, 1))
        with pytest.raises(error, match=says):
            hermite_cdf([RING1], 100, seed)

    def test_words_refuse_other_requests(self):
        row = _child_words(np.random.SeedSequence(1), 0, 1)[0]
        words = _words_type()(row)
        assert words.generate_state(4, np.uint64) is row
        for n_words, dtype in ((4, np.uint32), (2, np.uint64), (8, np.uint64)):
            with pytest.raises(RuntimeError, match="generate_state"):
                words.generate_state(n_words, dtype)

    def test_hermite_cdf_builds_one_seed_sequence(self, monkeypatch):
        """A work-count guard: the children are derived from one root, not
        hashed one SeedSequence per trial."""
        built = []
        real = np.random.SeedSequence

        def counted(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", counted)
        hermite_cdf([ring_new(1), ring_new(3)], 100, 17)
        assert len(built) == 1


class TestHermiteValidation:
    """hermite_cdf checks each ring's stack of draws once, on every ring."""

    def test_each_stack_is_checked_once(self, monkeypatch):
        calls = []
        independent = lattices._independent

        def counted(m):
            calls.append(m.shape)
            return independent(m)

        monkeypatch.setattr(lattices, "_independent", counted)
        monkeypatch.setattr(experiments, "_independent", counted)
        hermite_cdf([ring_new(5), ring_new(3)], 100, 7)
        assert calls == [(100, 2, 2), (100, 2, 2)]

    @pytest.mark.parametrize("d", (3, 5))
    def test_dependent_draw_is_refused(self, monkeypatch, d):
        trials = experiments._trials

        class Dependent:
            def standard_normal(self, out):
                out[...] = 1.0  # equal columns

        def one_dependent(seed, points, count):
            for point, trial, rng in trials(seed, points, count):
                yield point, trial, (Dependent() if trial == 42 else rng)

        monkeypatch.setattr(experiments, "_trials", one_dependent)
        with pytest.raises(ValueError, match="numerically dependent"):
            hermite_cdf([ring_new(d)], 100, 7)


class TestBestSingleAlias:
    def test_design_equals_svp(self):
        rng = np.random.default_rng(21)
        for ring in (RING1, RING3):
            for _ in range(10):
                ch = random_channel(3, db_to_linear(20.0), rng)
                a = design_relay(ch, ring, "best_single")
                b = design_relay(ch, ring, "svp")
                assert (a.vectors, a.rates) == (b.vectors, b.rates)

    def test_experiment_rows_equal_svp(self):
        rows = cf_experiment(RING1, 2, [10.0, 30.0], 5, ["svp", "best_single"], seed=3)
        by_name = {}
        for r in rows:
            by_name.setdefault(r[0], []).append(r[1:])
        assert by_name["best_single"] == by_name["svp"]


@st.composite
def ring_matrices(draw):
    ring = ring_new(draw(st.sampled_from((1, 3))))
    n = draw(st.integers(1, 4))
    coord = st.integers(-3, 3)
    row = st.lists(st.tuples(coord, coord), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    return RingMatrix.from_int_rows(rows, ring)


@settings(max_examples=300, deadline=None)
@given(ring_matrices(), st.booleans())
def test_rank_failures_rule(A, with_morphism):
    """F_p first, the exact determinant only when F_p cannot decide: the
    same verdicts as the determinant and the F_p rank together."""
    det_zero = A.det().is_zero()
    if with_morphism:
        mor = default_morphism(A.ring)
        expected = (det_zero, det_zero or rank_mod_p(A, mor) < A.n)
    else:
        mor, expected = None, (det_zero, det_zero)
    assert _rank_failures(A._pairs(), A.ring, mor) == expected


def test_exact_layer_makes_no_ring_element_arithmetic(monkeypatch):
    """verify() on an n = 8 report, transmission_rate and _rank_failures
    run the exact kernel on (a, b) pairs: no RingElem product or exact
    division."""
    rep = alll_reduce(random_basis(RING1, 8, np.random.default_rng(4)))
    designs = [design_relay(H1, RING1, "alll"), design_relay(H2, RING1, "alll")]
    calls = []
    for name in ("__mul__", "__rmul__", "divide_exact"):
        method = getattr(RingElem, name)
        monkeypatch.setattr(RingElem, name, lambda *a, f=method: calls.append(1) or f(*a))
    rep.verify()
    assert transmission_rate(designs, default_morphism(RING1)).det_commutes
    stack = RingMatrix.from_columns([A1_PAPER.column(0), A2_PAPER.column(0)], RING1)._pairs()
    assert _rank_failures(stack, RING1, default_morphism(RING1)) == (False, True)
    assert _rank_failures(A1_PAPER._pairs(), RING1, None) == (False, False)
    assert calls == []


@settings(max_examples=300, deadline=None)
@given(ring_matrices())
def test_field_elimination_properties(A):
    mor = default_morphism(A.ring)
    det = cf._eliminate_mod_p(A._pairs(), mor)[1]
    rank = rank_mod_p(A, mor)
    assert det == mor.apply(A.det())
    assert (rank == A.n) == (det != 0)
    assert rank == rank_mod_p(RingMatrix.from_columns(A.entries, A.ring), mor)


# ---------------------------------------------------------------------------
# one relay, every strategy, shared per-channel work


@st.composite
def relay_cases(draw):
    ring = ring_new(draw(st.sampled_from((1, 2, 3, 5, 7))))
    n = draw(st.integers(1, 4))
    snr_db = draw(st.floats(0.0, 50.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_channel(n, db_to_linear(snr_db), rng), ring, draw(st.sampled_from((0.6, 0.99)))


def _columns(matrix):
    return sorted(repr(c) for c in matrix.columns())


@settings(max_examples=200, deadline=None)
@given(relay_cases())
def test_design_relays_match_the_primitives(case):
    ch, ring, delta = case
    basis = cf_basis(ch, ring)
    strategies = STRATEGIES
    try:
        rep = alll_reduce(basis, delta)
    except ValueError:  # delta <= rho^2 on this ring: the alll design refuses too
        with pytest.raises(ValueError):
            design_relays(ch, ring, strategies, delta)
        rep, strategies = None, ("rlll", "svp", "best_single")
    designs = design_relays(ch, ring, strategies, delta)
    sv = shortest_vector(basis)
    for s in ("svp", "best_single"):
        assert (designs[s].best_vector, designs[s].first_norm) == (sv.coefficient, sv.norm)
        assert designs[s].strategy == s
    assert designs["rlll"].swaps == real_lll(embed(basis), delta)[2]
    if rep is not None:
        assert _columns(designs["alll"].matrix) == _columns(rep.transform)
        assert designs["alll"].swaps == rep.swaps


class TestDesignRelays:
    def test_rank_limit(self):
        ch = random_channel(9, db_to_linear(20.0), np.random.default_rng(5))
        with pytest.raises(ValueError, match="enumeration limit"):
            design_relays(ch, RING1, ("svp",))
        assert design_relays(ch, RING1, ("alll",))["alll"].matrix.is_unimodular()

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy 'bkz'"):
            design_relays(H1, RING1, ("alll", "bkz"))

    def test_empty_channel_rejected(self):
        with pytest.raises(ValueError, match="basis must be square and non-empty"):
            design_relays(Channel([], 1.0), RING1, ("alll",))

    def test_no_strategies_give_no_designs(self):
        assert design_relays(H1, RING1, ()) == {}

    @pytest.mark.parametrize("delta, calls", [(0.99, 1), (0.6, 2)])
    def test_one_reduction_per_delta(self, monkeypatch, delta, calls):
        seen = []

        def counting(basis, delta=0.99, lambda1=None):
            seen.append(delta)
            return alll_reduce(basis, delta, lambda1)

        monkeypatch.setattr(cf, "alll_reduce", counting)
        ch = random_channel(4, db_to_linear(30.0), np.random.default_rng(6))
        design_relays(ch, RING1, STRATEGIES, delta)
        assert len(seen) == calls and set(seen) == {delta, 0.99}

    @pytest.mark.parametrize("d", (1, 3, 5))
    @pytest.mark.parametrize("n", (1, 2, 3, 4))
    def test_rates_are_computation_rates(self, d, n):
        """The stacked design rates and computation_rate, the stack of one,
        both equal the per-vector reference bit for bit."""
        rng = np.random.default_rng(100 * d + n)
        for snr_db in (10.0, 30.0, 50.0):
            ch = random_channel(n, db_to_linear(snr_db), rng)
            for s, design in design_relays(ch, ring_new(d), STRATEGIES).items():
                want = [rate_reference(ch, coeff_to_complex(v)) for v in design.vectors]
                assert want == design.rates, s
                assert [computation_rate(ch, v) for v in design.vectors] == want, s

    def test_quiet_reductions_keep_other_threads_filters(self, monkeypatch):
        """design_relays silences its reductions in its own context only: a
        filter another thread adds while a design runs outlives the design."""
        entered, release = threading.Event(), threading.Event()

        def blocking(basis, delta=0.99, lambda1=None):
            entered.set()
            release.wait(30)
            return alll_reduce(basis, delta, lambda1)

        class Sentinel(UserWarning):
            pass

        monkeypatch.setattr(cf, "alll_reduce", blocking)
        ch = random_channel(3, db_to_linear(20.0), np.random.default_rng(9))
        out = {}
        worker = threading.Thread(
            target=lambda: out.update(design_relays(ch, ring_new(5), ("alll", "svp")))
        )
        with warnings.catch_warnings():
            worker.start()
            try:
                assert entered.wait(30)
                warnings.simplefilter("error", Sentinel)
            finally:
                release.set()
                worker.join(30)
            assert sorted(out) == ["alll", "svp"]
            assert any(f[2] is Sentinel for f in warnings.filters)

    def test_design_relay_is_the_one_strategy_call(self):
        ch = random_channel(3, db_to_linear(25.0), np.random.default_rng(7))
        both = design_relays(ch, RING3, STRATEGIES, 0.6)
        for s in STRATEGIES:
            assert design_relay(ch, RING3, s, 0.6) == both[s]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from((1, 2, 3, 7)),
    st.integers(1, 8),
    st.floats(0.0, 60.0),
    st.integers(0, 2**32 - 1),
)
def test_stacked_rates_equal_the_reference(d, n, snr_db, seed):
    """Every candidate of every design gets, from the one stacked pass, the
    rate the per-vector ||B a||^2 gives it, bit for bit."""
    ch = random_channel(n, db_to_linear(snr_db), np.random.default_rng(seed))
    for s, design in design_relays(ch, ring_new(d), STRATEGIES).items():
        want = [rate_reference(ch, coeff_to_complex(v)) for v in design.vectors]
        assert [r.hex() for r in design.rates] == [r.hex() for r in want], s


def exact_rate(ch: Channel, a: np.ndarray) -> float:
    """log2+(1 / den) of the exact denominator, from its integer numerator
    and denominator."""
    den = rate_denominator_exact(ch.h, ch.p, a)
    return max(0.0, math.log2(den.denominator) - math.log2(den.numerator))


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from((1, 2, 3, 7)),
    st.integers(1, 8),
    st.floats(0.0, 300.0),
    st.integers(0, 2**32 - 1),
)
def test_rates_match_the_exact_oracle(d, n, snr_db, seed):
    """Rates of random nonzero coefficient vectors, and of every design
    candidate wherever cf_basis accepts the channel, lie within
    8 n 2^-52 sqrt(1 + P ||h||^2) / ln 2 + 1e-12 bits of the rate of the
    exact rational denominator, up to 300 dB.  The LAPACK inverse lost it:
    a relative error of 0.76 at 150 dB, and no finite rate at 200 dB."""
    ring = ring_new(d)
    rng = np.random.default_rng(seed)
    ch = random_channel(n, db_to_linear(snr_db), rng)
    tol = 8 * n * 2.0**-52 * math.sqrt(1.0 + ch.p * float(np.vdot(ch.h, ch.h).real)) / math.log(2)
    tol += 1e-12
    vectors = []
    while len(vectors) < 4:
        v = tuple(ring.elem(*rng.integers(-5, 6, size=2)) for _ in range(n))
        if any(not e.is_zero() for e in v):
            vectors.append((v, computation_rate(ch, v)))
    try:
        designs = design_relays(ch, ring, STRATEGIES)
    except ValueError as exc:
        assert "numerically dependent" in str(exc)
        designs = {}
    for design in designs.values():
        vectors += zip(design.vectors, design.rates)
    for v, rate in vectors:
        assert abs(rate - exact_rate(ch, coeff_to_complex(v))) <= tol, (v, rate)


class TestHighSnr:
    """The closed-form basis designs and rates at every SNR below the
    MAX_CONDITION guard.  With the LAPACK Cholesky and inverses, 97, 172 and
    173 of these 200 designs failed at 160, 180 and 200 dB."""

    def test_overflow_scale_channel_rates_one_bit(self):
        """P ||h||^2 = 2e303: the exact denominator is (1 + 1e303) / (1 +
        2e303), so a = (1, 0) rates 1 bit; the LAPACK inverse gave 954 bits."""
        ch = Channel([1e150, 1e150], 1e3)
        assert computation_rate(ch, (RING1.one, RING1.zero)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("snr_db", (160.0, 180.0, 200.0))
    @pytest.mark.parametrize("n", (2, 4))
    def test_designs_succeed(self, n, snr_db):
        rng = np.random.default_rng([n, int(snr_db)])
        for _ in range(100):
            ch = random_channel(n, db_to_linear(snr_db), rng)
            designs = design_relays(ch, RING1, STRATEGIES)
            assert designs["alll"].matrix.is_unimodular()
            assert all(math.isfinite(r) for d in designs.values() for r in d.rates)

    def test_only_the_documented_refusal_at_250_db(self):
        refused = 0
        for n in (2, 4):
            rng = np.random.default_rng([n, 250])
            for _ in range(100):
                ch = random_channel(n, db_to_linear(250.0), rng)
                try:
                    design_relays(ch, RING1, STRATEGIES)
                except ValueError as exc:
                    assert "numerically dependent" in str(exc)
                    refused += 1
        assert refused > 0


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.floats(0.0, 60.0), st.integers(0, 2**32 - 1))
def test_closed_form_basis_condition(n, snr_db, seed):
    """cf_basis validates B by cond(B) = sqrt(1 + P ||h||^2) (1 for n = 1),
    which agrees with the SVD condition number of B.  B is the inverse of
    the Cholesky factor L of M: LAPACK's L^-1 agrees with it to within its
    own error, about eps cond(M), up to 60 dB."""
    ch = random_channel(n, db_to_linear(snr_db), np.random.default_rng(seed))
    B = cf_basis(ch, RING1).matrix
    assert cf._basis_condition(ch) == pytest.approx(np.linalg.cond(B), rel=1e-9)
    M = gram(ch)
    reference = np.linalg.inv(np.linalg.cholesky(M))
    np.testing.assert_allclose(B, reference, rtol=0, atol=1e-14 * M.trace().real)


class TestBasisRefusal:
    """Above P ||h||^2 = MAX_CONDITION^2 = 1e24 the channel basis is refused
    as numerically dependent, as ComplexBasis's SVD check refuses it."""

    def test_closed_form_exceeds_the_limit(self):
        # at this SNR the Cholesky factorization of a random M already fails
        # in cf_basis, so the condition is checked directly
        ch = random_channel(4, db_to_linear(250.0), np.random.default_rng(12))
        assert ch.p * float(np.linalg.norm(ch.h)) ** 2 > 1e24
        assert cf._basis_condition(ch) > MAX_CONDITION

    def test_refused_where_cholesky_succeeds(self):
        # M is diagonal here, so its Cholesky factor is exact
        ch = Channel(np.array([1.0, 0.0]), 1e30)
        B = np.linalg.inv(np.linalg.cholesky(gram(ch)))
        for build in (lambda: cf_basis(ch, RING1), lambda: ComplexBasis(B, RING1)):
            with pytest.raises(ValueError, match="numerically dependent"):
                build()

    def test_rank_one_is_never_refused(self):
        ch = Channel(np.array([1.0]), 1e30)
        assert cf._basis_condition(ch) == 1.0
        assert cf_basis(ch, RING1).matrix[0, 0] == pytest.approx(1e-15)


class TestLazyExactObjects:
    """Designs and reports keep integer coordinates; their RingElem and
    RingMatrix objects are built only when read."""

    def test_reading_counts_builds_no_ring_elements(self, monkeypatch):
        units(RING1)  # cached per ring: built once, before the count
        built = []
        init = RingElem.__init__
        monkeypatch.setattr(RingElem, "__init__", lambda self, *a: built.append(1) or init(self, *a))
        designs = design_relays(H1, RING1, STRATEGIES)
        rep = alll_reduce(cf_basis(H1, RING1))
        read = [(d.best_rate, d.swaps, d.first_norm) for d in designs.values()]
        assert read[0] == (designs["alll"].rates[0], 3, designs["alll"].first_norm)
        assert rep.swaps == 3
        assert built == []

    def test_reading_designs_decodes_no_exact_entries(self, monkeypatch):
        """Channel bases are float: their exact squared norms (a decode of
        every entry) are never read by a design, so never computed."""
        calls = []
        pairs = ComplexBasis._exact_pairs
        monkeypatch.setattr(ComplexBasis, "_exact_pairs", lambda b: calls.append(1) or pairs(b))
        designs = design_relays(H1, RING1, STRATEGIES)
        [(d.best_rate, d.swaps, d.first_norm) for d in designs.values()]
        assert calls == []

    def test_read_objects_keep_their_values(self):
        designs = design_relays(H1, RING1, STRATEGIES)
        rep = alll_reduce(cf_basis(H1, RING1))
        assert designs["alll"].matrix == A1_PAPER == rep.transform
        assert designs["alll"].vectors == [A1_PAPER.column(0), A1_PAPER.column(1)]
        for s in ("svp", "best_single", "rlll"):
            assert designs[s].matrix is None
        for s in ("svp", "best_single"):
            assert designs[s].vectors == [designs[s].best_vector] == [A1_PAPER.column(0)]
        assert [[(e.a, e.b) for e in v] for v in designs["rlll"].vectors] == [
            [(2, -2), (4, -3)], [(-2, -2), (-3, -4)], [(-1, 0), (-2, 0)], [(0, 1), (0, 2)]
        ]
        assert rep.events == ["size_reduction:1", "swap:1"] * 3


# ---------------------------------------------------------------------------
# a trial's relays designed as one stack


def _design_fields(design) -> tuple:
    """A design's pairs, rate bits, swaps and first_norm bits."""
    return (
        design.pairs,
        [r.hex() for r in design.rates],
        design.swaps,
        design.first_norm.hex(),
    )


def _reference_fields(part) -> tuple:
    pairs, rates, swaps, first_norm = part
    return pairs, [r.hex() for r in rates], swaps, first_norm.hex()


@st.composite
def stack_cases(draw):
    """A ring, a stack of 1-4 channels of one size, a delta the ring's
    alll and rlll designs accept, and a non-empty strategy list.  Over
    d = 5 the SNR stays at most 50 dB: above it one svp design can
    enumerate for seconds (ROADMAP known defect 5)."""
    ring = ring_new(draw(st.sampled_from((1, 2, 3, 5, 7, 11))))
    n = draw(st.integers(1, 5))
    snr_db = draw(st.floats(0.0, 50.0 if ring.d == 5 else 100.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    channels = [random_channel(n, db_to_linear(snr_db), rng) for _ in range(draw(st.integers(1, 4)))]
    low = max(0.25, ring.covering_radius**2 if ring.euclidean else 0.0)
    delta = draw(st.sampled_from((0.99, 1.0)) | st.floats(low, 1.0, exclude_min=True))
    strategies = draw(st.lists(st.sampled_from(STRATEGIES), min_size=1, max_size=4, unique=True))
    return ring, channels, delta, strategies


@settings(max_examples=150, deadline=None)
@given(stack_cases())
def test_design_stack_equals_each_relay_alone(case):
    """Every channel of a stack gets, in pairs, rate bits, swaps and
    first_norm bits, what the per-relay reference design gives it alone."""
    ring, channels, delta, strategies = case
    stacked = cf._design_stack(channels, ring, strategies, delta)
    assert len(stacked) == len(channels)
    for ch, designs in zip(channels, stacked):
        alone = Channel(ch.h, ch.p)  # its own basis cache
        want = oracles.design_relays_reference(alone, ring, strategies, delta)
        assert list(designs) == list(want)
        for s, design in designs.items():
            assert design.channel is ch and design.strategy == s
            assert _design_fields(design) == _reference_fields(want[s]), s


def test_design_stack_fills_each_basis_cache():
    channels = [random_channel(3, db_to_linear(30.0), np.random.default_rng(k)) for k in (1, 2)]
    cf._design_stack(channels, RING1, ("rlll",))
    for ch in channels:
        B = ch.__dict__["_basis"]
        assert not B.flags.writeable
        assert B.tobytes() == Channel(ch.h, ch.p)._basis.tobytes()


class TestStackBitFacts:
    """The facts that let a stack give each relay its bits alone.  They hold
    on the BLAS kernel they were measured on; pytest -m pins re-runs them
    under another."""

    pytestmark = pytest.mark.pins

    @pytest.mark.parametrize("kind", (float, complex))
    def test_stacked_r_positive(self, kind):
        rng = np.random.default_rng(41 if kind is float else 42)
        for m in range(1, 17):
            B = rng.standard_normal((5, m, m))
            if kind is complex:
                B = B + 1j * rng.standard_normal((5, m, m))
            R = reduction._r_positive(B)
            for Bi, Ri in zip(B, R):
                assert Ri.tobytes() == reduction._r_positive(Bi).tobytes(), m

    @pytest.mark.parametrize("n", range(1, 9))
    def test_stacked_bases(self, n):
        rng = np.random.default_rng([n, 43])
        for snr_db in (0.0, 20.0, 60.0, 100.0, 160.0, 240.0, 300.0):
            channels = [random_channel(n, db_to_linear(snr_db), rng) for _ in range(6)]
            H = np.stack([ch.h for ch in channels])
            P = np.array([ch.p for ch in channels])
            for ch, B in zip(channels, cf._bases(H, P)):
                assert B.tobytes() == ch._basis.tobytes(), snr_db

    @pytest.mark.parametrize("d", (1, 3, 5))
    def test_owner_rate_pass(self, d):
        """One pass over the candidates of every relay, each row on its
        relay's basis (B[owner]), equals each relay's own pass."""
        ring = ring_new(d)
        rng = np.random.default_rng([d, 44])
        for n in (1, 2, 4, 8):
            channels = [random_channel(n, db_to_linear(40.0), rng) for _ in range(4)]
            Us = [_embed_pairs_of(ring, nonzero_coords(rng, n)) for _ in channels]
            Bs = np.stack([ch._basis for ch in channels])
            owner = [i for i, U in enumerate(Us) for _ in U]
            rates, y = cf._rates(Bs[owner], np.concatenate(Us))
            at = 0
            for ch, U in zip(channels, Us):
                alone, y_alone = cf._rates(ch._basis, U)
                k = len(U)
                assert [r.hex() for r in rates[at : at + k]] == [r.hex() for r in alone]
                assert y[at : at + k].tobytes() == y_alone.tobytes()
                for row, u in zip(y[at : at + k], U):
                    assert np.linalg.norm(row).hex() == np.linalg.norm(ch._basis @ u).hex()
                at += k

    @pytest.mark.parametrize("d", (1, 2, 3, 5, 7))
    def test_stacked_frames(self, d):
        """The LLL frame and the enumeration frame of a stack, and the
        embedding of a stack, give each basis its bits alone."""
        ring = ring_new(d)
        rng = np.random.default_rng([d, 45])
        for n in range(1, 9):
            B = random_basis_stack(rng, 4, n)
            Bn, C = reduction._lll_frame(B)
            R, norms2, e = svp._enumeration_frame(B, ring.xi)
            for i, Bi in enumerate(B):
                (Bn1,), (C1,) = reduction._lll_frame(Bi[None])
                assert Bn[i].tobytes() == Bn1.tobytes() and C[i] == C1
                R1, norms1, (e1,) = svp._enumeration_frame(Bi[None], ring.xi)
                assert R[i].tobytes() == R1[0].tobytes()
                assert norms2[i].tobytes() == norms1[0].tobytes() and e[i] == e1
                assert lattices._embed(B, ring.xi)[i].tobytes() == embed(
                    ComplexBasis._derived(Bi, ring)
                ).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((None, 1, 2, 3, 5, 7)),
    st.integers(1, 8),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
)
def test_lll_stack_equals_each_matrix_alone(d, n, count, seed):
    """reduction._lll on an (N, m, m) stack gives each matrix the outputs
    (transform, counts, steps, potential-ratio bits, stall flag) of its
    stack of one: over Z on the embeddings of a stack (the rlll design's
    input), and over each ring on the stack itself."""
    ring = ring_new(1 if d is None else d)
    B = random_basis_stack(np.random.default_rng(seed), count, n)
    if d is None:
        ring, B = None, lattices._embed(B, ring.xi)
    stacked = reduction._lll(B, 0.99, ring)
    assert len(stacked) == count
    for Bi, got in zip(B, stacked):
        (alone,) = reduction._lll(Bi[None], 0.99, ring)
        assert got == alone
        assert [r.hex() for r in got[5]] == [r.hex() for r in alone[5]]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((1, 2, 3, 5, 7)), st.integers(1, 5), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_svp_stack_equals_each_report_alone(d, n, count, seed):
    """svp._svp on a list of ALLL reports of one ring and rank gives each
    report the coefficient pairs and node count of its list of one."""
    ring = ring_new(d)
    B = random_basis_stack(np.random.default_rng(seed), count, n)
    with reduction._quiet():
        reps = [alll_reduce(ComplexBasis(Bi, ring), svp.PREPROCESS_DELTA) for Bi in B]
    stacked = svp._svp(reps)
    assert len(stacked) == count
    for rep, got in zip(reps, stacked):
        assert [got] == svp._svp([rep])


def nonzero_coords(rng, n: int) -> np.ndarray:
    """A (k, n, 2) integer array of 1-8 nonzero vectors of (a, b) pairs."""
    coords = rng.integers(-4, 5, (int(rng.integers(1, 9)), n, 2))
    coords[:, 0, 0] = rng.integers(1, 5, len(coords))
    return coords


def _embed_pairs_of(ring, coords) -> np.ndarray:
    """The (k, n) complex array of a (k, n, 2) integer array of (a, b) pairs."""
    return cf._embed_pairs([[(int(a), int(b)) for a, b in v] for v in coords], ring.xi)


#: coordinates around 2^53, 2^63 and 2^64, where int-to-float rounding shows
BIG_COORDS = (2**53 + 1, -(2**53 + 3), 2**63 - 1, -(2**63), 2**64 + 2**12 + 1, 3**45)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SAMPLE_D), st.integers(1, 6), st.integers(1, 8), st.data())
def test_embed_pairs_equals_each_entry_alone(d, k, n, data):
    """_embed_pairs, one float array of the pairs and one stacked a + b*xi,
    gives each entry the bits of complex(a) + b * xi (RingElem.embed), on
    every ring and with coordinates past 2^53."""
    xi = ring_new(d).xi
    coord = st.integers(-4, 4) | st.integers(-(2**70), 2**70) | st.sampled_from(BIG_COORDS)
    pairs = st.lists(st.tuples(coord, coord), min_size=n, max_size=n)
    vectors = data.draw(st.lists(pairs, min_size=k, max_size=k))
    got = cf._embed_pairs(vectors, xi)
    want = np.array([[complex(a) + b * xi for a, b in v] for v in vectors], dtype=complex)
    assert got.shape == (k, n) and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


def random_basis_stack(rng, count: int, n: int) -> np.ndarray:
    """A (count, n, n) stack of CN(0,1) matrices, scaled apart by powers of
    two so each matrix of the stack normalizes by its own exponent."""
    B = math.sqrt(0.5) * (rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n)))
    return B * np.ldexp(1.0, rng.integers(-40, 40, count))[:, None, None]


class TestStackRefusals:
    """Each refusal keeps its message on the stack path, and comes before
    any reduction runs."""

    @staticmethod
    def count_qr(monkeypatch) -> list:
        calls = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: calls.append(1) or qr(*a, **k))
        return calls

    def test_guard_refuses_a_later_relay(self, monkeypatch):
        rng = np.random.default_rng(46)
        good = random_channel(3, db_to_linear(30.0), rng)
        bad = random_channel(3, db_to_linear(250.0), rng)
        assert cf._basis_condition(bad) > MAX_CONDITION
        calls = self.count_qr(monkeypatch)
        for channels in ([good, bad], [good, good, bad]):
            with pytest.raises(ValueError, match="basis columns are numerically dependent"):
                cf._design_stack(channels, RING1, STRATEGIES)
        assert calls == []

    def test_delta_at_most_rho2_on_a_euclidean_ring(self, monkeypatch):
        ring = ring_new(2)
        channels = [random_channel(2, db_to_linear(20.0), np.random.default_rng(k)) for k in (1, 2)]
        calls = self.count_qr(monkeypatch)
        with pytest.raises(ValueError, match=r"delta=0\.7 <= rho\^2=0\.7500 for d=2"):
            cf._design_stack(channels, ring, ("rlll", "alll"), 0.7)
        assert calls == []
        assert sorted(cf._design_stack(channels, ring, ("rlll", "svp"), 0.7)[1]) == ["rlll", "svp"]

    @pytest.mark.parametrize("delta", (0.25, 0.2, 1.5))
    def test_rlll_delta_range(self, monkeypatch, delta):
        channels = [random_channel(2, db_to_linear(20.0), np.random.default_rng(k)) for k in (3, 4)]
        calls = self.count_qr(monkeypatch)
        with pytest.raises(ValueError, match=r"delta must be in \(0\.25, 1\]"):
            cf._design_stack(channels, RING1, ("rlll",), delta)
        with pytest.raises(ValueError, match=r"delta must be in \(0\.25, 1\]"):
            design_relays(channels[0], RING1, ("rlll",), delta)
        assert calls == []

    @pytest.mark.parametrize("strategy", ("svp", "best_single"))
    def test_rank_limit_before_any_reduction(self, monkeypatch, strategy):
        """Relay 0's ALLL and real LLL ran before the rank was refused."""
        ch = random_channel(9, db_to_linear(20.0), np.random.default_rng(5))
        calls = self.count_qr(monkeypatch)
        with pytest.raises(ValueError, match="rank 9 exceeds the enumeration limit of 8"):
            design_relays(ch, RING1, ("alll", "rlll", strategy))
        assert calls == []
        with pytest.raises(ValueError, match="enumeration limit"):
            cf._design_stack([ch, ch], RING1, (strategy,))
        assert calls == []


class TestUnclearErrors:
    def test_strategies_as_one_string_refused(self):
        """A bare string was read one letter at a time: "unknown strategy
        'a'" from design_relays and "each strategy may appear only once"
        from cf_experiment."""
        with pytest.raises(TypeError, match="not the string 'alll'"):
            design_relays(H1, RING1, "alll")
        with pytest.raises(TypeError, match="not the string 'alll'"):
            cf_experiment(RING1, 2, [10.0], 2, "alll", 0)

    @pytest.mark.parametrize("k", (1, 3))
    def test_coefficient_of_the_wrong_length_refused(self, k):
        """numpy's matmul core-dimension error was all a caller saw."""
        coeff = (RING1.one,) * k
        with pytest.raises(ValueError, match=f"coefficient vector has length {k}, channel has 2"):
            computation_rate(H1, coeff)
