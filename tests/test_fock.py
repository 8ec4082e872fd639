"""Tests for the truncated Fock-space oracle."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from tmsvphase import fock, phases
from tmsvphase.cli import circle_distance
from tmsvphase.errors import (
    CutoffExceededError,
    CutoffMismatchError,
)
from tmsvphase.fock import (
    DiagonalFockState,
    FullTwoModeOperator,
    bogoliubov_residual,
    cutoff_for,
    dynamical_integral,
    energy_expectation,
    entropy_numeric,
    evolve,
    geometric_phase_numeric,
    lowering_operators,
    overlap_numeric,
    rotation_conjugation_check,
    schmidt_state,
    squeeze_by_exponentiation,
    two_mode_squeeze_operator,
)
from tmsvphase.phases import TAU, HamiltonianParams

# Frozen to 16+ digits with mpmath (40-digit working precision).
SCHMIDT_C0 = 0.6480542736638854    # 1 / cosh 1
SCHMIDT_C1 = -0.4935543475645731   # -tanh 1 / cosh 1
INV_COSH_2 = 0.2658022288340797
ENERGY_R1 = 2.7621956910836314     # 2 sinh^2 1
DELTA_QUARTER = 2.1694234227214296
GAMMA_QUARTER = 1.6438204297532917
GAMMA_CYCLE_REDUCED = 4.789016767412264
ENTROPY_HALF = 0.6594529591680367
TOTAL_PHASE_QUARTER = -0.5256029929681379

H_UNIT = HamiltonianParams(1.0, 0.0)


def _tail_by_summation(r, N, terms=4000):
    """Brute-force tail mass sum_{n>N} tanh^{2n} r / cosh^2 r."""
    n = np.arange(N + 1, N + 1 + terms)
    return float(np.sum(np.tanh(r) ** (2 * n) / np.cosh(r) ** 2))


class TestCutoffForTolerance:
    """Cutoffs for a dropped probability mass, the ``mass`` observable."""

    def test_vacuum_needs_nothing(self):
        assert cutoff_for("mass", 0.0, 1e-12) == 0

    def test_unit_squeeze_frozen(self):
        assert cutoff_for("mass", 1.0, 1e-12) == 50

    def test_frozen_secondary_points(self):
        assert cutoff_for("mass", 0.5, 1e-8) == 11
        assert cutoff_for("mass", 1.0, 1e-8) == 33

    @pytest.mark.parametrize("r,tol", [(1.0, 1e-12), (0.5, 1e-8), (1.7, 1e-10)])
    def test_minimality_against_summed_tail(self, r, tol):
        N = cutoff_for("mass", r, tol)
        assert _tail_by_summation(r, N) <= tol
        if N > 0:
            assert _tail_by_summation(r, N - 1) > tol

    def test_smaller_squeeze_needs_smaller_cutoff(self):
        assert cutoff_for("mass", 0.5, 1e-8) < cutoff_for("mass", 1.0, 1e-8)

    def test_cutoff_exceeded(self):
        with pytest.raises(CutoffExceededError):
            cutoff_for("mass", 1.0, 1e-12, max_cutoff=2)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            cutoff_for("mass", 1.0, 0.0)


OBSERVABLES = ("mass", "energy", "phase", "entropy", "expm")


def _energy_tail_by_summation(r, wt, N, terms=6000):
    """Brute-force energy-integral tail Omega t sum_{n>N} 2n |c_n|^2."""
    n = np.arange(N + 1, N + 1 + terms)
    return wt * float(np.sum(2.0 * n * np.tanh(r) ** (2 * n) / np.cosh(r) ** 2))


def _predicted_tail(observable, r, wt, N):
    """The closed-form tails cutoff_for documents, written out independently."""
    x = math.tanh(r) ** 2
    m = x ** (N + 1)
    # Omega t last, as in cutoff_for: a subnormal Omega t must not underflow
    # the product before the other factors are in.
    energy = 2.0 * m * ((N + 1) * (1.0 - x) + x) / (1.0 - x) * wt
    return {
        "mass": m,
        "energy": energy,
        "phase": energy + math.cosh(2.0 * r) * m,
        "entropy": m * (1.0 - math.log(m)) / (1.0 - m) if m > 0.0 else 0.0,
        "expm": math.tanh(r) ** (N + 1) / math.cosh(r),
    }[observable]


def _observed_error(observable, r, wt, N, accuracy):
    """Oracle error against the closed form, and the scale its rounding has."""
    if observable == "mass":
        state = schmidt_state(r, 0.3, N)
        overlap = overlap_numeric(state, evolve(state, H_UNIT, wt))
        return abs(overlap - phases.overlap_analytic(r, 1.0, wt)), 1.0
    if observable == "energy":
        exact = 2.0 * wt * math.sinh(r) ** 2
        got = dynamical_integral(r, 0.3, H_UNIT, wt, steps=2, accuracy=accuracy)
        return abs(got - exact), exact
    if observable == "phase":
        breakdown = phases.geometric_phase(r, 1.0, wt)
        got = geometric_phase_numeric(r, 0.3, H_UNIT, wt, accuracy=accuracy, steps=2)
        scale = breakdown.dynamical_term_delta + 1.0
        return circle_distance(got, breakdown.geometric_phase), scale
    if observable == "entropy":
        exact = phases.entropy_from_squeeze(r)
        return abs(entropy_numeric(schmidt_state(r, 0.3, N)) - exact), exact
    brute = squeeze_by_exponentiation(r, 0.3, N)
    return float(np.abs(brute.coeffs - schmidt_state(r, 0.3, N).coeffs).max()), 1.0


class TestCutoffFor:
    def test_mass_cutoff_at_double_squeeze(self):
        assert cutoff_for("mass", 2.0, 1e-12) == 377

    def test_expm_cutoff_at_double_squeeze(self):
        assert cutoff_for("expm", 2.0, 1e-11) == 655

    @pytest.mark.parametrize("observable", OBSERVABLES)
    def test_tanh_rounding_to_one_is_a_resource_error(self, observable):
        assert math.tanh(19.5) == 1.0
        with pytest.raises(CutoffExceededError):
            cutoff_for(observable, 19.5, 1e-9, t=1.0)

    @pytest.mark.parametrize("r,wt,accuracy", [(0.5, 0.7, 1e-8), (2.0, 62.83, 1e-9)])
    def test_energy_minimal_against_summed_tail(self, r, wt, accuracy):
        N = cutoff_for("energy", r, accuracy, t=wt)
        assert _energy_tail_by_summation(r, wt, N) <= accuracy
        assert _energy_tail_by_summation(r, wt, N - 1) > accuracy

    def test_phase_cutoff_grows_with_evolution_time(self):
        short = cutoff_for("phase", 2.0, 1e-9, t=0.1)
        long = cutoff_for("phase", 2.0, 1e-9, t=62.83)
        assert cutoff_for("mass", 2.0, 1e-9) <= short < long

    @settings(deadline=None)
    @given(
        r=st.floats(0.05, 2.5),
        wt=st.floats(0.0, 20 * math.pi),
        observable=st.sampled_from(OBSERVABLES),
        accuracy=st.sampled_from([1e-6, 1e-9]),
    )
    @example(r=0.0546875, wt=0.0, observable="entropy", accuracy=1e-9)
    @example(r=1.0, wt=5e-324, observable="energy", accuracy=1e-6)
    def test_observed_error_within_predicted_tail(self, r, wt, observable, accuracy):
        if observable == "expm":
            accuracy = 1e-2  # an eigendecomposition of a few hundred rows at most
        N = cutoff_for(observable, r, accuracy, t=wt)
        predicted = _predicted_tail(observable, r, wt, N)
        observed, scale = _observed_error(observable, r, wt, N, accuracy)
        assert predicted <= accuracy
        assert observed <= predicted + 64 * np.finfo(float).eps * scale


class TestSchmidtState:
    def test_vacuum(self):
        state = schmidt_state(0.0, 0.9, 5)
        assert state.coeffs[0] == 1.0
        assert np.all(state.coeffs[1:] == 0.0)

    def test_unit_squeeze_leading_coefficients(self):
        state = schmidt_state(1.0, 0.0, 10)
        assert abs(state.coeffs[0] - SCHMIDT_C0) < 1e-15
        assert abs(state.coeffs[1] - SCHMIDT_C1) < 1e-15

    def test_coefficient_phases(self):
        # arg c_n = n (2 phi + pi) mod 2 pi for positive r
        phi = 0.37
        state = schmidt_state(0.8, phi, 12)
        for n in range(1, 13):
            expected = (n * (2 * phi + math.pi)) % TAU
            assert circle_distance(float(np.angle(state.coeffs[n])), expected) < 1e-12

    def test_norm_defect_matches_tail(self):
        N = 30
        state = schmidt_state(1.0, 0.0, N)
        assert abs((1.0 - state.squared_norm()) - math.tanh(1.0) ** (2 * (N + 1))) < 1e-14


class TestStateValidation:
    def test_rejects_over_normalized(self):
        with pytest.raises(ValueError):
            DiagonalFockState(cutoff=1, coeffs=[1.0, 0.5])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            DiagonalFockState(cutoff=3, coeffs=[1.0, 0.0])

    def test_coeffs_are_immutable(self):
        state = schmidt_state(0.5, 0.0, 4)
        with pytest.raises(ValueError):
            state.coeffs[0] = 0.0

    def test_policy_validation(self):
        for accuracy in (2.0, 1.0, -1e-9, float("nan")):
            with pytest.raises(ValueError):
                cutoff_for("mass", 1.0, accuracy)
        with pytest.raises(ValueError):
            cutoff_for("norm", 1.0, 1e-9)
        with pytest.raises(ValueError):
            cutoff_for("mass", 1.0, 1e-9, max_cutoff=-1)


class TestSqueezeByExponentiation:
    def test_zero_squeeze_is_vacuum(self):
        state = squeeze_by_exponentiation(0.0, 0.4, 8)
        assert abs(state.coeffs[0] - 1.0) < 1e-15
        assert np.abs(state.coeffs[1:]).max() < 1e-15

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
    def test_matches_schmidt_at_accuracy_cutoff(self, r):
        N = cutoff_for("expm", r, 1e-11)
        brute = squeeze_by_exponentiation(r, 0.3, N)
        closed = schmidt_state(r, 0.3, N)
        assert np.abs(brute.coeffs - closed.coeffs).max() < 1e-10

    def test_truncation_error_tracks_first_dropped_amplitude(self):
        # At the mass-based cutoff the agreement is limited by the first
        # dropped amplitude, not by the (much smaller) dropped mass.
        r, N = 1.0, 60
        brute = squeeze_by_exponentiation(r, 0.0, N)
        closed = schmidt_state(r, 0.0, N)
        gap = np.abs(brute.coeffs - closed.coeffs).max()
        amplitude = math.tanh(r) ** (N + 1) / math.cosh(r)
        assert gap < 2.0 * amplitude
        assert gap > 0.1 * amplitude

    @pytest.mark.parametrize("r,N", [(1.0, 91), (2.0, 377)])
    def test_matches_pade_expm(self, r, N):
        # scipy's scaling-and-squaring expm as an independent reference for
        # the eigendecomposition, at the same truncation.
        reference = expm(fock._diagonal_generator(r, 0.3, N))[:, 0]
        brute = squeeze_by_exponentiation(r, 0.3, N)
        assert np.abs(brute.coeffs - reference).max() <= 1e-13

    def test_result_is_normalized(self):
        # anti-Hermitian truncated generator: exactly unitary evolution
        state = squeeze_by_exponentiation(1.2, 0.1, 80)
        assert abs(state.squared_norm() - 1.0) < 1e-12
        assert state.squared_norm() >= 1.0 - math.tanh(1.2) ** 162

    def test_cutoff_exceeded(self):
        with pytest.raises(CutoffExceededError):
            squeeze_by_exponentiation(1.0, 0.0, 100, max_cutoff=50)


class TestEvolve:
    def test_zero_time_is_identity(self):
        state = schmidt_state(0.9, 0.2, 20)
        evolved = evolve(state, H_UNIT, 0.0)
        assert np.array_equal(evolved.coeffs, state.coeffs)

    def test_full_cycle_returns_state(self):
        state = schmidt_state(1.0, 0.4, 50)
        evolved = evolve(state, H_UNIT, TAU)
        assert np.abs(evolved.coeffs - state.coeffs).max() < 1e-14

    def test_epsilon_cancels_exactly(self):
        state = schmidt_state(1.0, 0.4, 50)
        without = evolve(state, HamiltonianParams(1.0, 0.0), 2.3)
        with_mod = evolve(state, HamiltonianParams(1.0, 0.37), 2.3)
        assert np.array_equal(without.coeffs, with_mod.coeffs)

    @pytest.mark.parametrize("r,phi,wt", [(0.3, 0.0, 0.7), (1.0, 1.1, 3.1), (2.0, 0.5, TAU)])
    def test_reparameterization_identity(self, r, phi, wt):
        omega = 1.3
        N = cutoff_for("mass", r, 1e-12)
        evolved = evolve(schmidt_state(r, phi, N), HamiltonianParams(omega), wt / omega)
        target = schmidt_state(r, phi - wt, N)
        assert np.abs(evolved.coeffs - target.coeffs).max() < 1e-14

    def test_norm_conserved_per_component(self):
        state = schmidt_state(1.5, 0.8, 100)
        evolved = evolve(state, H_UNIT, 7.9)
        np.testing.assert_allclose(
            np.abs(evolved.coeffs), np.abs(state.coeffs), rtol=1e-15, atol=0.0
        )


class TestOverlapNumeric:
    def test_self_overlap_is_squared_norm(self):
        state = schmidt_state(1.0, 0.3, 50)
        got = overlap_numeric(state, state)
        assert abs(got.imag) < 1e-16
        assert 1.0 - 1e-12 <= got.real <= 1.0

    def test_half_period_frozen(self):
        N = cutoff_for("mass", 1.0, 1e-12)
        initial = schmidt_state(1.0, 0.0, N)
        got = overlap_numeric(initial, evolve(initial, H_UNIT, math.pi / 2))
        assert abs(got - INV_COSH_2) < 1e-12

    def test_quarter_period_argument(self):
        N = cutoff_for("mass", 1.0, 1e-12)
        initial = schmidt_state(1.0, 0.0, N)
        got = overlap_numeric(initial, evolve(initial, H_UNIT, math.pi / 4))
        assert abs(np.angle(got) - TOTAL_PHASE_QUARTER) < 1e-12

    def test_cutoff_mismatch(self):
        with pytest.raises(CutoffMismatchError):
            overlap_numeric(schmidt_state(1.0, 0.0, 10), schmidt_state(1.0, 0.0, 11))

    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
    @pytest.mark.parametrize("r", [0.4, 1.0, 1.8])
    def test_agreement_scales_with_tolerance(self, r, tol):
        # the truncation tail bounds the overlap error at any tolerance
        N = cutoff_for("mass", r, tol)
        initial = schmidt_state(r, 0.2, N)
        for wt in (0.6, 2.4, 5.1):
            numeric = overlap_numeric(initial, evolve(initial, H_UNIT, wt))
            analytic = phases.overlap_analytic(r, 1.0, wt)
            assert abs(numeric - analytic) <= 10.0 * tol

    def test_cyclic_overlap_equals_squared_norm(self):
        # at Omega t = 2 pi the evolved state coincides with the initial one,
        # so the overlap collapses to the squared norm (zero total phase)
        for r in (0.5, 1.0, 2.0):
            state = schmidt_state(r, 0.3, cutoff_for("mass", r, 1e-12))
            got = overlap_numeric(state, evolve(state, H_UNIT, TAU))
            assert abs(got - state.squared_norm()) < 1e-12


class TestEnergyExpectation:
    def test_vacuum(self):
        assert energy_expectation(schmidt_state(0.0, 0.0, 5), H_UNIT) == 0.0

    def test_unit_squeeze_frozen(self):
        state = schmidt_state(1.0, 0.0, cutoff_for("mass", 1.0, 1e-12))
        got = energy_expectation(state, H_UNIT)
        assert abs(got - ENERGY_R1) < 1e-9

    def test_tail_bound(self):
        # closed form minus truncated sum is the dropped-tail energy
        for r, N in ((0.5, 40), (1.0, 80)):
            state = schmidt_state(r, 0.0, N)
            deficit = 2.0 * math.sinh(r) ** 2 - energy_expectation(state, H_UNIT)
            n = np.arange(N + 1, N + 3000)
            tail = float(np.sum(2.0 * n * np.tanh(r) ** (2 * n) / np.cosh(r) ** 2))
            assert 0.0 <= deficit <= tail * (1.0 + 1e-9) + 1e-15

    def test_independent_of_phi_and_time(self):
        N = 50
        base = energy_expectation(schmidt_state(1.0, 0.0, N), H_UNIT)
        rotated = energy_expectation(schmidt_state(1.0, 1.1, N), H_UNIT)
        evolved = energy_expectation(
            evolve(schmidt_state(1.0, 0.0, N), H_UNIT, 5.3), H_UNIT
        )
        assert abs(base - rotated) < 1e-12
        assert abs(base - evolved) < 1e-12


def _energy_integral_by_loop(initial, h, t, steps, shift):
    """Reference for the array trapezoid: one evolved state per tau."""
    taus = np.linspace(0.0, t, steps + 1)
    values = np.array(
        [energy_expectation(evolve(initial, h, tau, shift), h, shift) for tau in taus]
    )
    return float(np.trapezoid(values, taus))


class TestDynamicalIntegral:
    def test_vacuum(self):
        assert dynamical_integral(0.0, 0.0, H_UNIT, 3.0, steps=5) == 0.0

    def test_quarter_period_frozen(self):
        got = dynamical_integral(1.0, 0.0, H_UNIT, math.pi / 4, steps=16)
        assert abs(got - DELTA_QUARTER) < 1e-9

    def test_step_count_irrelevant(self):
        results = [
            dynamical_integral(1.0, 0.2, H_UNIT, 1.8, steps=s) for s in (1, 7, 1000)
        ]
        assert max(results) - min(results) < 1e-12

    def test_epsilon_cancels_bit_for_bit(self):
        base = dynamical_integral(1.0, 0.2, HamiltonianParams(1.0, 0.0), 1.8, steps=9)
        for eps in (0.37, -0.9):
            got = dynamical_integral(1.0, 0.2, HamiltonianParams(1.0, eps), 1.8, steps=9)
            assert got == base

    def test_matches_formula_at_tight_tolerance(self):
        for r in (0.1, 0.5, 1.0, 1.5, 2.0):
            for wt in (0.3, math.pi / 4, TAU):
                got = dynamical_integral(r, 0.1, H_UNIT, wt, steps=3, accuracy=1e-11)
                assert abs(got - 2.0 * wt * math.sinh(r) ** 2) < 1e-10

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            dynamical_integral(1.0, 0.0, H_UNIT, 1.0, steps=0)

    @pytest.mark.parametrize("steps", [1, 4, 200])
    @pytest.mark.parametrize("shift", [0.0, -2.3])
    @pytest.mark.parametrize("h", [H_UNIT, HamiltonianParams(1.3, 0.9)])
    @pytest.mark.parametrize("r,t", [(0.5, 0.7), (2.0, 48.3)])
    def test_array_equals_per_tau_loop_bit_for_bit(self, r, t, h, shift, steps):
        initial = schmidt_state(r, 0.4, cutoff_for("mass", r, 1e-12))
        got = fock._energy_integral(initial, h, t, steps, shift)
        assert got == _energy_integral_by_loop(initial, h, t, steps, shift)


class TestGeometricPhaseNumeric:
    def test_vacuum(self):
        assert geometric_phase_numeric(0.0, 0.0, H_UNIT, 4.2) == 0.0

    def test_builds_one_state(self, monkeypatch):
        builds = []

        def counting(*args):
            builds.append(args)
            return schmidt_state(*args)

        monkeypatch.setattr(fock, "schmidt_state", counting)
        geometric_phase_numeric(1.0, 0.2, H_UNIT, 1.3)
        assert len(builds) == 1

    def test_quarter_period(self):
        got = geometric_phase_numeric(1.0, 0.0, H_UNIT, math.pi / 4)
        assert circle_distance(got, GAMMA_QUARTER) < 1e-8

    def test_full_cycle(self):
        got = geometric_phase_numeric(1.0, 0.0, H_UNIT, TAU, accuracy=1e-10)
        assert circle_distance(got, GAMMA_CYCLE_REDUCED) < 1e-9

    def test_agrees_with_analytic_on_grid(self):
        for r in (0.1, 0.5, 1.0, 1.5, 2.0):
            for wt in np.linspace(0.0, TAU, 21):
                numeric = geometric_phase_numeric(r, 0.4, H_UNIT, float(wt), steps=4)
                analytic = phases.geometric_phase(r, 1.0, float(wt)).geometric_phase
                assert circle_distance(numeric, analytic) < 1e-8

    def test_gauge_invariance(self):
        for r in (0.5, 1.0, 1.5):
            for wt in (math.pi / 4, 1.7, TAU):
                reference = geometric_phase_numeric(r, 0.2, H_UNIT, wt)
                for shift in (-2.0, 0.7, 5.0):
                    shifted = geometric_phase_numeric(
                        r, 0.2, H_UNIT, wt, energy_shift=shift
                    )
                    assert circle_distance(shifted, reference) < 1e-10

    def test_gauge_shift_moves_both_terms_oppositely(self):
        # shift c changes arg overlap by -ct and the integral by +ct
        r, t, c = 0.8, 1.3, 0.9
        N = cutoff_for("mass", r, 1e-12)
        initial = schmidt_state(r, 0.0, N)
        plain = overlap_numeric(initial, evolve(initial, H_UNIT, t))
        shifted = overlap_numeric(initial, evolve(initial, H_UNIT, t, energy_shift=c))
        assert circle_distance(
            float(np.angle(shifted)), float(np.angle(plain)) - c * t
        ) < 1e-12
        d_plain = dynamical_integral(r, 0.0, H_UNIT, t, steps=4)
        d_shift = dynamical_integral(r, 0.0, H_UNIT, t, steps=4, energy_shift=c)
        assert abs((d_shift - d_plain) - c * t) < 1e-12


class TestEntropyNumeric:
    def test_vacuum(self):
        assert entropy_numeric(schmidt_state(0.0, 0.0, 4)) == 0.0

    def test_half_squeeze_frozen(self):
        state = schmidt_state(0.5, 0.0, cutoff_for("mass", 0.5, 1e-12))
        assert abs(entropy_numeric(state) - ENTROPY_HALF) < 1e-10

    @pytest.mark.parametrize("r", [0.1, 0.5, 1.0, 1.5, 2.0])
    def test_agrees_with_closed_form(self, r):
        state = schmidt_state(r, 0.7, cutoff_for("mass", r, 1e-12))
        assert abs(entropy_numeric(state) - phases.entropy_from_squeeze(r)) < 1e-10

    def test_independent_of_phase_angle(self):
        N = 60
        a = entropy_numeric(schmidt_state(1.0, 0.0, N))
        b = entropy_numeric(schmidt_state(1.0, 1.1, N))
        assert abs(a - b) < 1e-12

    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
    def test_bias_scales_with_tolerance(self, tol):
        for r in (0.5, 1.0, 1.5):
            state = schmidt_state(r, 0.0, cutoff_for("entropy", r, tol))
            gap = abs(entropy_numeric(state) - phases.entropy_from_squeeze(r))
            assert gap <= 100.0 * tol


class TestLadderOperators:
    def test_matrix_element_placement(self):
        N = 4
        a_plus, a_minus = lowering_operators(N)
        dim = N + 1
        # <(1,2)| a+ |(2,2)> = sqrt(2), row-major index n+*(N+1)+n-
        assert a_plus[1 * dim + 2, 2 * dim + 2] == pytest.approx(math.sqrt(2.0))
        # <(2,1)| a- |(2,2)> = sqrt(2)
        assert a_minus[2 * dim + 1, 2 * dim + 2] == pytest.approx(math.sqrt(2.0))

    def test_commutators_on_interior_block(self):
        N = 12
        a_plus, a_minus = lowering_operators(N)
        dim = (N + 1) ** 2
        n_plus = np.repeat(np.arange(N + 1), N + 1)
        n_minus = np.tile(np.arange(N + 1), N + 1)
        for a_op, occ in ((a_plus, n_plus), (a_minus, n_minus)):
            comm = a_op @ a_op.conj().T - a_op.conj().T @ a_op
            keep = occ <= N - 1
            block = comm[np.ix_(keep, keep)] - np.eye(int(keep.sum()))
            # sqrt(n)^2 is within one ulp of n, never exactly equal for all n
            assert np.abs(block).max() < 1e-13

    def test_modes_commute(self):
        a_plus, a_minus = lowering_operators(6)
        assert np.abs(a_plus @ a_minus - a_minus @ a_plus).max() == 0.0


class TestTwoModeSqueezeOperator:
    def test_matrix_size(self):
        op = two_mode_squeeze_operator(1.0, 0.0, 12)
        assert op.matrix.shape == (169, 169)

    def test_vacuum_column_is_schmidt_state(self):
        N = 12
        op = two_mode_squeeze_operator(1.0, 0.3, N)
        column = op.matrix[:, 0].reshape(N + 1, N + 1)
        closed = schmidt_state(1.0, 0.3, N).coeffs
        assert np.abs(np.diagonal(column) - closed).max() < 1e-14
        off_diagonal = column - np.diag(np.diagonal(column))
        assert np.abs(off_diagonal).max() == 0.0

    def test_matches_generator_exponential_deep_inside(self):
        # Cross-validation of the normal-ordered factorization against a
        # plain expm of the truncated generator, on entries far enough from
        # the cutoff that the expm route is itself trustworthy.
        r, eta, N = 0.3, 0.45, 16
        a_plus, a_minus = lowering_operators(N)
        generator = r * (
            a_plus @ a_minus * np.exp(-2j * eta)
            - a_plus.conj().T @ a_minus.conj().T * np.exp(2j * eta)
        )
        brute = expm(generator)
        factored = two_mode_squeeze_operator(r, eta, N).matrix
        n_plus = np.repeat(np.arange(N + 1), N + 1)
        n_minus = np.tile(np.arange(N + 1), N + 1)
        deep = (n_plus <= 2) & (n_minus <= 2)
        assert np.abs((brute - factored)[np.ix_(deep, deep)]).max() < 1e-10

    def test_full_space_cutoff_cap(self):
        with pytest.raises(CutoffExceededError):
            two_mode_squeeze_operator(1.0, 0.0, 33)

    def test_operator_shape_validation(self):
        with pytest.raises(ValueError):
            FullTwoModeOperator(cutoff=2, matrix=np.eye(4))


class TestBogoliubovResidual:
    def test_zero_squeeze(self):
        assert bogoliubov_residual(0.0, 0.3, N=10, margin=2) < 1e-15

    @pytest.mark.parametrize("r", [0.25, 0.5, 1.0])
    @pytest.mark.parametrize("eta", [0.0, 0.3, 1.1])
    def test_contract_at_spec_point(self, r, eta):
        assert bogoliubov_residual(r, eta, N=12, margin=4) <= 1e-6

    def test_residual_grows_as_margin_shrinks(self):
        at_edge = bogoliubov_residual(1.0, 0.3, N=12, margin=0)
        protected = bogoliubov_residual(1.0, 0.3, N=12, margin=4)
        assert at_edge > 1e-2
        assert protected < 1e-10
        assert at_edge > protected

    def test_wrong_identity_would_be_caught(self):
        # Same computation with a corrupted coefficient must light up: the
        # residual measures the identity, not just numerical noise.
        r, eta, N, margin = 0.8, 0.3, 12, 4
        squeeze = two_mode_squeeze_operator(r, eta, N).matrix
        a_plus, a_minus = lowering_operators(N)
        n_plus = np.repeat(np.arange(N + 1), N + 1)
        n_minus = np.tile(np.arange(N + 1), N + 1)
        keep = (n_plus <= N - margin) & (n_minus <= N - margin)
        wrong_rhs = a_plus * math.cosh(r) - a_minus.conj().T * (
            np.exp(2j * eta) * math.sinh(r) * 1.01
        )
        defect = a_plus @ squeeze - squeeze @ wrong_rhs
        assert np.abs(defect[np.ix_(keep, keep)]).max() > 1e-3

    def test_margin_validation(self):
        with pytest.raises(ValueError):
            bogoliubov_residual(0.5, 0.0, N=10, margin=11)


class TestRotationConjugation:
    def test_zero_angle_is_exact(self):
        res = rotation_conjugation_check(0.5, 0.2, 0.0, 0.0, N=10)
        assert res.rotation == 0.0
        assert res.modulation == 0.0

    def test_contract_at_spec_point(self):
        res = rotation_conjugation_check(0.5, 0.2, 0.9, 0.37, N=12, margin=4)
        assert res.rotation <= 1e-6
        assert res.modulation <= 1e-6

    @pytest.mark.parametrize("eps_t", [0.1, 0.9, 2.7])
    def test_modulation_invariance_for_any_angle(self, eps_t):
        res = rotation_conjugation_check(0.5, 0.2, 0.9, eps_t, N=12, margin=4)
        assert res.modulation <= 1e-12

    def test_rotation_angle_sweep(self):
        for theta in (0.4, 1.3, 2.9):
            res = rotation_conjugation_check(0.8, 0.6, theta, 0.5, N=12, margin=4)
            assert res.rotation <= 1e-12
