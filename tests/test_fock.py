"""Tests for the truncated Fock-space oracle."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from tmsvphase import cli, fock, phases, su11
from tmsvphase.cli import circle_distance
from tmsvphase.errors import CutoffExceededError
from tmsvphase.fock import (
    DEFAULT_MAX_CUTOFF,
    FULL_SPACE_MAX_CUTOFF,
    DiagonalFockState,
    SectorBlockOperator,
    bogoliubov_residual,
    cutoff_for,
    dynamical_integral,
    entropy_numeric,
    evolve,
    geometric_phase_numeric,
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
        overlap = _inner_product(state, evolve(state, H_UNIT, wt))
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

    @pytest.mark.parametrize("observable", OBSERVABLES)
    def test_max_cutoff_beyond_int64(self, observable):
        # The bisection's bracket is bounded, so no int64 needs to hold max_cutoff.
        unbounded = cutoff_for(observable, 2.0, 1e-9, t=1.0, max_cutoff=10**20)
        assert unbounded == cutoff_for(observable, 2.0, 1e-9, t=1.0)

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


def _bisected_cutoffs(observable, pairs, accuracy):
    """Per row, the smallest N in [0, DEFAULT_MAX_CUTOFF] whose documented
    tail (``_predicted_tail``) is within ``accuracy``, by bisection."""
    cutoffs = []
    for r, wt in pairs:
        lo, hi = -1, DEFAULT_MAX_CUTOFF
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if _predicted_tail(observable, abs(r), abs(wt), mid) <= accuracy:
                hi = mid
            else:
                lo = mid
        cutoffs.append(hi)
    return cutoffs


class TestCutoffGrids:
    """``fock._cutoffs`` over sweep-sized grids equals a row-by-row bisection."""

    @pytest.mark.parametrize("observable", OBSERVABLES)
    def test_r_sweep_grid(self, observable):
        # 10^4 rows to r = 1 at Omega t = 1, a new r (and tail) on every row.
        rs = np.linspace(0.0, 1.0, 10_000)
        got = fock._cutoffs(observable, rs, np.ones(rs.size), 1e-9, DEFAULT_MAX_CUTOFF).tolist()
        assert got == _bisected_cutoffs(observable, [(r, 1.0) for r in rs.tolist()], 1e-9)

    def test_omega_t_sweep_grid(self):
        # The benchmark sweep's grid: r = 2, 10^4 rows over [0, 2 pi], 73 cutoffs.
        wts = np.linspace(0.0, TAU, 10_000)
        got = fock._cutoffs("phase", np.full(wts.size, 2.0), wts, 1e-9, DEFAULT_MAX_CUTOFF).tolist()
        assert got == _bisected_cutoffs("phase", [(2.0, wt) for wt in wts.tolist()], 1e-9)
        assert len(set(got)) == 73

    @settings(deadline=None, max_examples=40)
    @given(
        observable=st.sampled_from(OBSERVABLES),
        r=st.floats(0.0, 2.0),
        r_span=st.sampled_from([0.0, 0.3, 0.5]),
        wt=st.floats(0.0, 20 * math.pi),
        sign=st.sampled_from([1.0, -1.0]),
        points=st.integers(1, 2600),
        seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    )
    @example(observable="phase", r=2.0, r_span=0.0, wt=TAU, sign=1.0, points=2600, seed=None)
    @example(observable="energy", r=0.0, r_span=0.5, wt=TAU, sign=-1.0, points=2600, seed=7)
    def test_equals_cutoff_for_row_by_row(self, observable, r, r_span, wt, sign, points, seed):
        # Sorted grids over r and Omega t, which hold N between rows, or the
        # same rows shuffled (seed not None), across chunks of _CHUNK_ROWS.
        rs = np.linspace(r, r + r_span, points)
        wts = sign * np.linspace(0.0, wt, points)
        if seed is not None:
            rng = np.random.default_rng(seed)
            rs, wts = rs[rng.permutation(points)], wts[rng.permutation(points)]
        got = fock._cutoffs(observable, rs, wts, 1e-9, DEFAULT_MAX_CUTOFF).tolist()
        rows = zip(rs.tolist(), wts.tolist())
        assert got == [cutoff_for(observable, r_i, 1e-9, t=wt_i) for r_i, wt_i in rows]

    @pytest.mark.parametrize("observable,r", [
        ("mass", 0.6), ("energy", 0.45), ("phase", 0.45), ("entropy", 0.45), ("expm", 0.3),
    ])
    def test_closed_bracket_keeps_its_cutoff(self, observable, r):
        # From the bracket (-1, 5], r = 0 closes at N = 0 a step before the
        # row that needs N = 5, and keeps N = 0 while that row bisects on.
        got = fock._cutoffs(observable, np.array([0.0, r]), np.ones(2), 1e-3, 5).tolist()
        assert got == [cutoff_for(observable, r_i, 1e-3, t=1.0) for r_i in (0.0, r)] == [0, 5]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_omega_t_mid_chunk_is_named_as_alone(self, bad):
        # Row 1500 lies inside the second chunk of _CHUNK_ROWS = 1024 rows.
        wts = np.linspace(0.0, TAU, 3000)
        wts[1500] = bad
        with pytest.raises(ValueError) as alone:
            cutoff_for("phase", 1.0, 1e-9, t=bad)
        assert str(alone.value) == f"t must be finite, got {bad!r}"
        with pytest.raises(ValueError) as grid:
            fock._cutoffs("phase", np.full(wts.size, 1.0), wts, 1e-9, DEFAULT_MAX_CUTOFF)
        assert str(grid.value) == str(alone.value)
        # Through the oracle, Omega t = 2 t overflows to inf on that row alone.
        ts = wts / 2.0
        ts[1500] = 1e308 if bad == math.inf else bad / 2.0
        with pytest.raises(ValueError) as oracle:
            geometric_phase_numeric(1.0, 0.3, HamiltonianParams(2.0, 0.0), ts, accuracy=1e-9)
        assert str(oracle.value) == str(alone.value)

    @pytest.mark.parametrize("r_bad,error", [
        (math.nan, "squeeze factor r must be finite, got nan"),
        (19.5, "tanh r rounds to 1 at r=19.5: no cutoff is enough"),
        (3.5, None),  # needs a cutoff above 4096: the error cutoff_for raises alone
    ])
    @pytest.mark.parametrize("row", [1499, 1500])
    def test_rows_before_a_non_finite_omega_t_raise_first(self, r_bad, error, row):
        # A bad r on an earlier row, or on the non-finite row itself, is
        # named before that row's Omega t, as row-by-row evaluation names it;
        # a row needing more than max_cutoff is named after its own Omega t.
        rs, wts = np.full(3000, 1.0), np.linspace(0.0, TAU, 3000)
        rs[row], wts[1500] = r_bad, math.nan
        if error is None:
            with pytest.raises((ValueError, CutoffExceededError)) as alone:
                cutoff_for("phase", r_bad, 1e-9, t=wts[row])
            error = str(alone.value)
        with pytest.raises((ValueError, CutoffExceededError)) as caught:
            fock._cutoffs("phase", rs, wts, 1e-9, DEFAULT_MAX_CUTOFF)
        assert str(caught.value) == error


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
            DiagonalFockState([1.0, 0.5])

    def test_rejects_wrong_length(self):
        # The length is the cutoff, so only a 2-D or an empty array is wrong.
        for coeffs in ([[1.0, 0.0]], []):
            with pytest.raises(ValueError):
                DiagonalFockState(coeffs)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            DiagonalFockState([0.5, float("nan")])

    def test_cutoff_is_the_length(self):
        assert DiagonalFockState([1.0]).cutoff == 0
        assert schmidt_state(0.5, 0.0, 7).cutoff == 7
        with pytest.raises(AttributeError):
            schmidt_state(0.5, 0.0, 7).cutoff = 3

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


def _diagonal_generator(r, phi, N):
    """The squeeze generator on span{|n>|n>}: tridiagonal, anti-Hermitian.

    r (a+ a- e^{-2i phi} - a+^dag a-^dag e^{2i phi}) takes component n to
    n - 1 with weight r e^{-2i phi} n and component n - 1 to n with weight
    -r e^{2i phi} n.
    """
    n = np.arange(1, N + 1, dtype=np.float64)
    return np.diag(r * np.exp(-2j * phi) * n, 1) + np.diag(-r * np.exp(2j * phi) * n, -1)


def _eigh_squeeze(r, phi, N):
    """exp(G)|0> from a dense eigh of the whole real tridiagonal T.

    The route squeeze_by_exponentiation took before it factored T's
    even-to-odd block: with D = diag(theta^n), theta = -i e^{2i phi}, and
    T = V diag(w) V^T, exp(G)|0> = D V diag(e^{-iw}) V^T |0>.
    """
    off_diagonal = r * np.arange(1, N + 1, dtype=np.float64)
    w, v = np.linalg.eigh(np.diag(off_diagonal, 1) + np.diag(off_diagonal, -1))
    rotated = np.exp(-1j * w) * v[0]
    theta = -1j * np.exp(2j * phi)
    return theta ** np.arange(N + 1) * (v @ rotated.real + 1j * (v @ rotated.imag))


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

    @pytest.mark.parametrize("r,N", [(1.0, 91), (2.0, 377), (2.0, 655)])
    def test_matches_pade_expm(self, r, N):
        # scipy's scaling-and-squaring expm of the complex generator as an
        # independent reference for the SVD of the even-to-odd block, at the
        # same truncation.
        reference = expm(_diagonal_generator(r, 0.3, N))[:, 0]
        brute = squeeze_by_exponentiation(r, 0.3, N)
        assert np.abs(brute.coeffs - reference).max() <= 1e-13

    @given(
        r=st.floats(-3.0, 3.0),
        phi=st.floats(allow_nan=False, allow_infinity=False),
        N=st.integers(0, 200),
    )
    @example(r=1.0, phi=0.3, N=0)
    @example(r=-1.0, phi=0.3, N=1)
    @example(r=2.5, phi=-1.2, N=2)
    @example(r=0.0, phi=0.7, N=7)
    @example(r=0.0, phi=0.7, N=8)
    @example(r=1.0, phi=1e308, N=3)
    @settings(deadline=None, max_examples=60)
    def test_matches_dense_eigh_and_pade_expm(self, r, phi, N):
        # Both parities of N: for even N the block is one column wider than
        # tall, and its null vector must come back with cos 0 = 1.
        brute = squeeze_by_exponentiation(r, phi, N).coeffs
        if math.isinf(2.0 * phi):
            # Both references form e^{2i phi}, NaN once 2 phi overflows; the
            # state's moduli do not depend on phi.
            assert np.isfinite(brute).all()
            assert abs(np.linalg.norm(brute) - 1.0) <= 1e-12
            moduli = np.abs(squeeze_by_exponentiation(r, 0.0, N).coeffs)
            assert np.abs(np.abs(brute) - moduli).max() <= 1e-13
            return
        assert np.abs(brute - _eigh_squeeze(r, phi, N)).max() <= 1e-13
        assert np.abs(brute - expm(_diagonal_generator(r, phi, N))[:, 0]).max() <= 1e-13

    @pytest.mark.parametrize("phi", [0.0, 0.3, -2.2, 40.0])
    def test_matches_complex_eigendecomposition(self, phi):
        # The generator diagonalized as the complex Hermitian iG directly.
        w, v = np.linalg.eigh(1j * _diagonal_generator(1.5, phi, 120))
        reference = v @ (np.exp(-1j * w) * v[0].conj())
        brute = squeeze_by_exponentiation(1.5, phi, 120)
        assert np.abs(brute.coeffs - reference).max() <= 1e-13

    def test_result_is_normalized(self):
        # anti-Hermitian truncated generator: exactly unitary evolution
        state = squeeze_by_exponentiation(1.2, 0.1, 80)
        assert abs(state.squared_norm() - 1.0) < 1e-12
        assert state.squared_norm() >= 1.0 - math.tanh(1.2) ** 162

    def test_cutoff_exceeded(self):
        with pytest.raises(CutoffExceededError):
            squeeze_by_exponentiation(1.0, 0.0, DEFAULT_MAX_CUTOFF + 1)


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


def _phase_table(energies, taus, shift):
    """e^{-i tau (E_n + shift)} as ``evolve`` forms it: the outer product of
    the two tables of ``fock._phases``, cut to N + 1 entries."""
    hi, lo = fock._phases(energies, taus, shift)
    table = hi[..., :, None] * lo[..., None, :]
    return table.reshape(*hi.shape[:-1], -1)[..., : energies.size]


class TestPhases:
    """``fock._phases``, the square-root tables every evolution takes its phases from."""

    @settings(deadline=None, max_examples=80)
    @given(
        N=st.integers(0, 4096),
        tau=st.floats(0.0, 20 * math.pi),
        shift=st.sampled_from([0.0, -2.3, 5.0]),
        omega=st.floats(0.5, 2.0),
    )
    @example(N=4096, tau=20 * math.pi, shift=5.0, omega=2.0)
    def test_matches_literal_exponential(self, N, tau, shift, omega):
        # With u = eps / 2, each route's exponent is within 3 u tau (E_N + |s|)
        # of the exact tau (2 Omega n + s): the literal one rounds E_n, E_n + s
        # and the product, the table rounds E_{qP} and its product, and E_p,
        # E_p + s and their product.  Each libm exponential adds at most 2 u,
        # and the table's complex product sqrt(5) u, so the two differ by at
        # most 6 u tau (E_N + |s|) + (6 + sqrt(5)) u <= 5 eps (1 + tau (E_N + |s|)).
        # Over 300 random draws the largest ratio to eps (1 + tau (E_N + |s|))
        # was 1.74.
        energies = fock._energies(HamiltonianParams(omega, 0.3 * omega), N)
        got = _phase_table(energies, np.array(tau), shift)
        want = np.exp(-1j * (energies + shift) * tau)
        bound = 5 * np.finfo(float).eps * (1.0 + tau * (energies[-1] + abs(shift)))
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= bound

    def test_shape_follows_the_taus(self):
        energies = fock._energies(H_UNIT, 10)
        taus = np.linspace(0.0, 1.0, 6).reshape(2, 3)
        hi, lo = fock._phases(energies, taus, 0.7)
        assert (hi.shape, lo.shape) == ((2, 3, 3), (2, 3, 4))
        got = _phase_table(energies, taus, 0.7)
        assert got.shape == (2, 3, 11)
        for index in np.ndindex(taus.shape):
            assert got[index].tolist() == _phase_table(energies, taus[index], 0.7).tolist()
        state = DiagonalFockState(np.full(11, 0.3))
        assert evolve(state, H_UNIT, 0.9, 0.7).coeffs.tolist() == (
            state.coeffs * _phase_table(energies, np.array(0.9), 0.7)
        ).tolist()


class TestMoments:
    """``fock._moments``, the contraction of the phase tables against |c_n|^2 tables."""

    @settings(deadline=None, max_examples=80)
    @given(
        N=st.integers(0, 4096),
        tau=st.floats(0.0, 20 * math.pi),
        shift=st.sampled_from([0.0, -2.3, 5.0]),
        omega=st.floats(0.5, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(N=0, tau=1.0, shift=5.0, omega=1.0, seed=0)
    @example(N=4096, tau=20 * math.pi, shift=5.0, omega=2.0, seed=1)
    def test_matches_literal_evolution(self, N, tau, shift, omega, seed):
        # Both routes sum |c_n|^2 phi_n, phi_n = hi_q lo_p, in two orders.
        # With u = eps / 2, the literal overlap rounds phi_n and c_n phi_n
        # (sqrt(5) u each, complex products) and adds N + 1 complex terms
        # (sqrt(2) gamma_{N+3}, Higham's bound for a complex inner product);
        # the contraction rounds |c_n|^2 (5 u: hypot, then the square), adds
        # P real-times-complex terms per q (sqrt(2) gamma_P) and Q complex
        # terms (sqrt(2) gamma_{Q+2}).  As |hi|, |lo| <= 1 + 2 u and
        # P + Q <= N + 2, the two differ by at most
        # (2 sqrt(5) + 5 + sqrt(2) (2N + 7)) u <= 10 (N + 1) eps sum |c_n|^2.
        # An energy sums E_n |c_n|^2 |phi_n|^2 >= 0: the literal route rounds
        # c_n phi_n as above, its modulus and square and the product with
        # E_n ((4 sqrt(5) + 6) u), then adds N + 1 terms (gamma_N); the
        # contraction rounds |c_n|^2, E_n |c_n|^2, |lo_p|^2, |hi_q|^2 and two
        # products (18 u), then adds P and Q terms.  So they differ by at
        # most (4 sqrt(5) + 24 + 2N) u <= 17 (N + 1) eps sum E_n |c_n|^2, the
        # norms (E_n = 1) likewise, and adding the shift costs each route
        # u |E + shift|.  Over 400 random draws, N in [0, 4096], the largest
        # gaps were 1.5 (overlap), 2.0 (norm) and 1.2 (energy) (N + 1) eps
        # times the sum, all at N <= 1.
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal(N + 1) + 1j * rng.standard_normal(N + 1)
        state = DiagonalFockState(coeffs / (np.linalg.norm(coeffs) * (1.0 + 1e-15)))
        h = HamiltonianParams(omega, 0.3 * omega)
        energies = fock._energies(h, N)
        evolved = evolve(state, h, tau, shift).coeffs
        values, norm, overlap = _state_moments(state, h, [tau], shift)
        eps, mass = np.finfo(float).eps, np.abs(state.coeffs) ** 2
        energy, evolved_energy = (float(np.sum(energies * m)) for m in (mass, abs(evolved) ** 2))
        slack = 17 * (N + 1) * eps * energy
        assert abs(overlap - np.vdot(state.coeffs, evolved)) <= 10 * (N + 1) * eps * mass.sum()
        assert abs(norm - np.sum(abs(evolved) ** 2)) <= 17 * (N + 1) * eps * mass.sum()
        assert abs(values[0] - (energy + shift)) <= slack + eps * abs(energy + shift)
        assert abs(values[1] - (evolved_energy + shift)) <= slack + eps * abs(evolved_energy + shift)


def _grid_overlaps(r, phi, N, ts):
    """<psi(0)|psi(t)> under H_UNIT for each t, from the grid path at cutoff N."""
    ts = np.asarray(ts, dtype=np.float64)
    _, overlaps = fock._energy_integrals(
        np.full(ts.size, r), phi, H_UNIT, ts, [N] * ts.size, 1, 0.0
    )
    return [complex(overlap) for overlap in overlaps]


class TestOverlapNumeric:
    """The overlaps the grid path returns, the only oracle overlap there is."""

    def test_self_overlap_is_squared_norm(self):
        (got,) = _grid_overlaps(1.0, 0.3, 50, [0.0])
        assert abs(got.imag) < 1e-16
        assert 1.0 - 1e-12 <= got.real <= 1.0

    def test_half_period_frozen(self):
        N = cutoff_for("mass", 1.0, 1e-12)
        (got,) = _grid_overlaps(1.0, 0.0, N, [math.pi / 2])
        assert abs(got - INV_COSH_2) < 1e-12

    def test_quarter_period_argument(self):
        N = cutoff_for("mass", 1.0, 1e-12)
        (got,) = _grid_overlaps(1.0, 0.0, N, [math.pi / 4])
        assert abs(np.angle(got) - TOTAL_PHASE_QUARTER) < 1e-12

    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
    @pytest.mark.parametrize("r", [0.4, 1.0, 1.8])
    def test_agreement_scales_with_tolerance(self, r, tol):
        # the truncation tail bounds the overlap error at any tolerance
        N = cutoff_for("mass", r, tol)
        grid = (0.6, 2.4, 5.1)
        for wt, numeric in zip(grid, _grid_overlaps(r, 0.2, N, grid)):
            analytic = phases.overlap_analytic(r, 1.0, wt)
            assert abs(numeric - analytic) <= 10.0 * tol

    @pytest.mark.parametrize("N", [0, 1, 2, 3, 7, 64, 655, 4095])
    def test_block_overlaps_equal_per_row_vdot(self, N):
        # A block contracts its rows' tables by one matrix product and one
        # dot per row, as the per-state helper does for a lone row.  40 rows
        # fill one block up to N = 655 and seven blocks at N = 4095.
        state = schmidt_state(1.5, 0.4, N)
        ts = np.linspace(0.0, 2.0 * TAU, 40)
        want = [_state_moments(state, H_UNIT, [t], 0.0)[2] for t in ts.tolist()]
        assert np.array(_grid_overlaps(1.5, 0.4, N, ts)).tobytes() == np.array(want).tobytes()

    def test_cyclic_overlap_equals_squared_norm(self):
        # at Omega t = 2 pi the evolved state coincides with the initial one,
        # so the overlap collapses to the squared norm (zero total phase)
        for r in (0.5, 1.0, 2.0):
            state = schmidt_state(r, 0.3, cutoff_for("mass", r, 1e-12))
            (got,) = _grid_overlaps(r, 0.3, state.cutoff, [TAU])
            assert abs(got - state.squared_norm()) < 1e-12


class TestEnergyExpectation:
    """The per-state energy reference the grid quadrature is checked against."""

    def test_vacuum(self):
        assert _expected_energy(schmidt_state(0.0, 0.0, 5), H_UNIT) == 0.0

    def test_unit_squeeze_frozen(self):
        state = schmidt_state(1.0, 0.0, cutoff_for("mass", 1.0, 1e-12))
        got = _expected_energy(state, H_UNIT)
        assert abs(got - ENERGY_R1) < 1e-9

    def test_tail_bound(self):
        # closed form minus truncated sum is the dropped-tail energy
        for r, N in ((0.5, 40), (1.0, 80)):
            state = schmidt_state(r, 0.0, N)
            deficit = 2.0 * math.sinh(r) ** 2 - _expected_energy(state, H_UNIT)
            n = np.arange(N + 1, N + 3000)
            tail = float(np.sum(2.0 * n * np.tanh(r) ** (2 * n) / np.cosh(r) ** 2))
            assert 0.0 <= deficit <= tail * (1.0 + 1e-9) + 1e-15

    def test_independent_of_phi_and_time(self):
        N = 50
        base = _expected_energy(schmidt_state(1.0, 0.0, N), H_UNIT)
        rotated = _expected_energy(schmidt_state(1.0, 1.1, N), H_UNIT)
        evolved = _expected_energy(
            evolve(schmidt_state(1.0, 0.0, N), H_UNIT, 5.3), H_UNIT
        )
        assert abs(base - rotated) < 1e-12
        assert abs(base - evolved) < 1e-12


def _inner_product(a, b):
    """Per-state reference overlap: sum conj(a_n) b_n."""
    return complex(np.vdot(a.coeffs, b.coeffs))


def _expected_energy(state, h, shift=0.0):
    """Per-state reference <H> = sum [Omega(n+n) + epsilon(n-n)] |c_n|^2 + shift.

    The shift counts once, as for a normalized state, so the truncation
    tail does not leak into gauge-invariance checks.
    """
    energies = fock._energies(h, state.cutoff)
    return float(np.sum(energies * np.abs(state.coeffs) ** 2)) + shift


def _state_moments(state, h, taus, shift):
    """``fock._moments`` of one state at ``taus`` (tau_1 ..): its energies at
    0 and each tau, and its squared norm and overlap at the last tau.

    It is the helper the grid contracts each block with, so a grid row must
    repeat it bit for bit; ``TestMoments`` holds it to the literal
    np.vdot(c, evolve(c)) and sum E |evolve(c)|^2.
    """
    values, norms, overlaps = fock._moments(
        state.coeffs[None], fock._energies(h, state.cutoff), np.array([taus], dtype=float), shift
    )
    return values[0], float(norms[0]), complex(overlaps[0])


def _energy_integral_by_loop(initial, h, t, steps, shift):
    """Reference for the array trapezoid: one helper call per tau."""
    taus = np.linspace(0.0, t, steps + 1)
    calls = [_state_moments(initial, h, [tau], shift)[0] for tau in taus[1:]]
    values = [calls[0][0]] + [values[-1] for values in calls]
    return float(np.trapezoid(values, taus))


def _energy_integral_per_point(initial, h, t, steps, shift):
    """Reference for the grid quadrature: one point's taus in one helper call."""
    taus = np.linspace(0.0, t, steps + 1)
    values, _, _ = _state_moments(initial, h, taus[1:], shift)
    return float(np.trapezoid(values, taus))


def _geometric_phase_per_point(r, phi, h, t, accuracy, shift, steps):
    """Reference for the grid oracle: its own cutoff, state and helper calls."""
    N = cutoff_for("phase", r, accuracy, t=h.Omega * t)
    initial = schmidt_state(r, phi, N)
    _, _, overlap = _state_moments(initial, h, [t], shift)
    total = math.atan2(overlap.imag, overlap.real)
    delta = _energy_integral_per_point(initial, h, t, steps, shift)
    gamma = (total + delta) % (2.0 * math.pi)
    return 0.0 if gamma >= 2.0 * math.pi else gamma


@st.composite
def _t_grids(draw):
    """1-60 times, ascending, descending, shuffled or with repeats."""
    ts = draw(st.lists(st.floats(0.0, TAU), min_size=1, max_size=60))
    order = draw(st.sampled_from(["ascending", "descending", "shuffled", "repeated"]))
    if order == "ascending":
        return sorted(ts)
    if order == "descending":
        return sorted(ts, reverse=True)
    if order == "shuffled":
        return draw(st.permutations(ts))
    return [t for t in ts for _ in (0, 1)][:60]


@st.composite
def _rt_rows(draw):
    """1-40 rows of (r, t): r drawn from a few values, so states repeat, in
    ascending, shuffled or pairwise repeated order; t one float for every
    row or a grid of its own."""
    pool = draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=5))
    rs = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    order = draw(st.sampled_from(["ascending", "shuffled", "repeated"]))
    if order == "ascending":
        rs = sorted(rs)
    elif order == "repeated":
        rs = [r for r in rs for _ in (0, 1)][:40]
    if draw(st.booleans()):
        return rs, draw(st.floats(0.0, TAU))
    return rs, draw(st.lists(st.floats(0.0, TAU), min_size=len(rs), max_size=len(rs)))


def _per_row(rs, t):
    """The (r, t) of each row, t repeated when it is one float."""
    return list(zip(rs, t if isinstance(t, list) else [t] * len(rs)))


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
        (got,), _ = fock._energy_integrals(
            np.array([r]), 0.4, h, np.array([t]), [initial.cutoff], steps, shift
        )
        assert got == _energy_integral_by_loop(initial, h, t, steps, shift)

    @settings(deadline=None, max_examples=40)
    @given(
        r=st.floats(0.0, 2.0),
        omega=st.floats(0.5, 2.0),
        eps_frac=st.floats(-0.9, 0.9),
        shift=st.sampled_from([0.0, -2.3]),
        steps=st.sampled_from([1, 7, 200]),
        ts=_t_grids(),
    )
    def test_grid_equals_per_point_bit_for_bit(self, r, omega, eps_frac, shift, steps, ts):
        h = HamiltonianParams(omega, eps_frac * omega)
        got = dynamical_integral(r, 0.2, h, np.array(ts), steps, energy_shift=shift)
        want = []
        for t in ts:
            N = cutoff_for("energy", r, 1e-10, t=h.Omega * t)
            want.append(_energy_integral_per_point(schmidt_state(r, 0.2, N), h, t, steps, shift))
        assert got.tolist() == want
        scalar = dynamical_integral(r, 0.2, h, ts[0], steps, energy_shift=shift)
        assert isinstance(scalar, float) and scalar == want[0]

    @settings(deadline=None, max_examples=40)
    @given(
        rows=_rt_rows(),
        omega=st.floats(0.5, 2.0),
        eps_frac=st.floats(-0.9, 0.9),
        shift=st.sampled_from([0.0, -2.3]),
        steps=st.sampled_from([1, 7, 200]),
    )
    def test_r_rows_equal_lone_calls_bit_for_bit(self, rows, omega, eps_frac, shift, steps):
        rs, t = rows
        h = HamiltonianParams(omega, eps_frac * omega)
        route = dict(energy_shift=shift, accuracy=1e-10)
        got = dynamical_integral(np.array(rs), 0.2, h, np.asarray(t), steps, **route)
        pairs = _per_row(rs, t)
        assert got.tolist() == [dynamical_integral(r, 0.2, h, t, steps, **route) for r, t in pairs]
        _, _, cutoffs = fock._evolution(
            "energy", np.array(rs), 0.2, h, np.array([t for _, t in pairs]), steps=steps,
            max_cutoff=fock.DEFAULT_MAX_CUTOFF, **route,
        )
        assert cutoffs.tolist() == [cutoff_for("energy", r, 1e-10, t=h.Omega * t) for r, t in pairs]

    def test_grid_shapes(self):
        assert dynamical_integral(1.0, 0.0, H_UNIT, np.array([]), 4).shape == (0,)
        with pytest.raises(ValueError):
            dynamical_integral(1.0, 0.0, H_UNIT, np.ones((2, 2)), 4)
        with pytest.raises(ValueError, match="nonnegative"):
            dynamical_integral(1.0, 0.0, H_UNIT, [0.5, -0.1], 4)
        assert dynamical_integral([0.5, 1.0], 0.0, H_UNIT, 1.0, 4).shape == (2,)
        with pytest.raises(ValueError):
            dynamical_integral(np.ones((2, 2)), 0.0, H_UNIT, 1.0, 4)
        with pytest.raises(ValueError):
            dynamical_integral([0.5, 1.0, 1.5], 0.0, H_UNIT, [0.5, 1.0], 4)


class TestGeometricPhaseNumeric:
    def test_vacuum(self):
        assert geometric_phase_numeric(0.0, 0.0, H_UNIT, 4.2) == 0.0

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
        plain = _inner_product(initial, evolve(initial, H_UNIT, t))
        shifted = _inner_product(initial, evolve(initial, H_UNIT, t, energy_shift=c))
        assert circle_distance(
            float(np.angle(shifted)), float(np.angle(plain)) - c * t
        ) < 1e-12
        d_plain = dynamical_integral(r, 0.0, H_UNIT, t, steps=4)
        d_shift = dynamical_integral(r, 0.0, H_UNIT, t, steps=4, energy_shift=c)
        assert abs((d_shift - d_plain) - c * t) < 1e-12


class TestEvolution:
    """``fock._evolution``, the one route to every quantity over time."""

    @pytest.mark.parametrize("observable", ["mass", "energy", "phase"])
    def test_rows_keep_their_cutoff_and_per_state_overlap(self, observable):
        h = HamiltonianParams(1.3, 0.4)
        ts = np.linspace(0.0, 3 * TAU, 40)
        route = dict(accuracy=1e-9, max_cutoff=4096, energy_shift=0.7)
        _, overlaps, cutoffs = fock._evolution(observable, 1.2, 0.3, h, ts, steps=1, **route)
        assert cutoffs.tolist() == [cutoff_for(observable, 1.2, 1e-9, t=h.Omega * t) for t in ts]
        for t, N, overlap in zip(ts, cutoffs, overlaps):
            initial = schmidt_state(1.2, 0.3, N)
            assert overlap == _state_moments(initial, h, [t], 0.7)[2]
        # The last tau is t itself, so the step count cannot move an overlap.
        _, finer, _ = fock._evolution(observable, 1.2, 0.3, h, ts, steps=16, **route)
        assert finer.tolist() == overlaps.tolist()


class TestGeometricPhaseGrid:
    """A grid of t gives, row for row and bit for bit, the per-point values."""

    @settings(deadline=None, max_examples=60)
    @given(
        r=st.floats(0.05, 2.5),
        phi=st.floats(-math.pi, math.pi),
        omega=st.floats(0.5, 2.0),
        eps_frac=st.floats(-0.9, 0.9),
        shift=st.sampled_from([0.0, -2.0, 5.0]),
        steps=st.sampled_from([1, 4, 7, 16, 200]),
        ts=_t_grids(),
    )
    def test_equals_per_point_bit_for_bit(self, r, phi, omega, eps_frac, shift, steps, ts):
        h = HamiltonianParams(omega, eps_frac * omega)
        real_cutoffs = fock._cutoffs
        seen = []

        def spy(*args):
            seen.append(real_cutoffs(*args))
            return seen[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fock, "_cutoffs", spy)
            got = geometric_phase_numeric(
                r, phi, h, np.array(ts), accuracy=1e-9, energy_shift=shift, steps=steps
            )
        want = [_geometric_phase_per_point(r, phi, h, t, 1e-9, shift, steps) for t in ts]
        assert got.tolist() == want
        assert [cutoffs.tolist() for cutoffs in seen] == [
            [cutoff_for("phase", r, 1e-9, t=h.Omega * t) for t in ts]
        ]
        scalar = geometric_phase_numeric(
            r, phi, h, ts[0], accuracy=1e-9, energy_shift=shift, steps=steps
        )
        assert scalar == want[0]

    @settings(deadline=None, max_examples=60)
    @given(
        rows=_rt_rows(),
        phi=st.floats(-math.pi, math.pi),
        omega=st.floats(0.5, 2.0),
        eps_frac=st.floats(-0.9, 0.9),
        shift=st.sampled_from([0.0, -2.0, 5.0]),
        steps=st.sampled_from([1, 4, 16]),
    )
    def test_r_rows_equal_lone_calls_bit_for_bit(self, rows, phi, omega, eps_frac, shift, steps):
        rs, t = rows
        h = HamiltonianParams(omega, eps_frac * omega)
        route = dict(accuracy=1e-9, energy_shift=shift, steps=steps)
        real_cutoffs = fock._cutoffs
        seen = []

        def spy(*args):
            seen.append(real_cutoffs(*args))
            return seen[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fock, "_cutoffs", spy)
            got = geometric_phase_numeric(np.array(rs), phi, h, np.asarray(t), **route)
        pairs = _per_row(rs, t)
        assert got.tolist() == [geometric_phase_numeric(r, phi, h, t, **route) for r, t in pairs]
        assert [cutoffs.tolist() for cutoffs in seen] == [
            [cutoff_for("phase", r, 1e-9, t=h.Omega * t) for r, t in pairs]
        ]

    def test_r_sweep_equals_per_point(self):
        # One r per row, across cutoffs from 0 to several hundred.
        rs = np.linspace(0.0, 2.5, 120)
        got = geometric_phase_numeric(rs, 0.7, H_UNIT, 1.3, accuracy=1e-9, steps=4)
        want = [_geometric_phase_per_point(r, 0.7, H_UNIT, 1.3, 1e-9, 0.0, 4) for r in rs]
        assert got.tolist() == want

    @pytest.mark.parametrize("r,steps", [(2.0, 4), (0.5, 16), (0.3, 7), (1.0, 1)])
    def test_sweep_grid_equals_per_point(self, r, steps):
        # (0.5, 16) packs about 11 rows of 17 taus into a block, where a 2-D
        # trapezoid would move the last bit of most rows.
        h = HamiltonianParams(1.0, 0.3)
        ts = np.linspace(0.0, TAU, 200)
        got = geometric_phase_numeric(r, 0.7, h, ts, accuracy=1e-9, steps=steps)
        want = [_geometric_phase_per_point(r, 0.7, h, t, 1e-9, 0.0, steps) for t in ts]
        assert got.tolist() == want

    def test_one_step_sweep_within_cond_eps_of_sixteen_steps(self):
        # A sweep evolves each row once, to t.  Over the 500-point golden
        # omega_t grid it moves no gamma_numeric by more than rounding of
        # the inputs could: cond eps, cond being the sweep gate's.
        r, h = 2.0, HamiltonianParams(1.0, 0.3)
        spec = cli.SweepSpec("omega_t", 0.0, TAU, 500, {"r": r, "phi": 0.7, "epsilon": 0.3})
        headers, rows = cli.sweep_rows(spec)
        wts = np.array([row[0] for row in rows])
        want = geometric_phase_numeric(r, 0.7, h, wts / h.Omega, accuracy=1e-9, steps=16)
        column = headers.index("gamma_numeric")
        for wt, row, value in zip(wts.tolist(), rows, want.tolist()):
            cond = 2.0 * wt * (math.sinh(r) ** 2 + r * math.sinh(2.0 * r)) + 1.0
            assert circle_distance(row[column], value) <= cond * np.finfo(float).eps, wt

    def test_zero_and_subnormal_times_share_a_block(self):
        ts = np.array([0.0, 5e-324, 1e-320, 0.3, 2.9, -0.0])
        got = geometric_phase_numeric(0.4, 0.1, H_UNIT, ts, steps=16)
        want = [_geometric_phase_per_point(0.4, 0.1, H_UNIT, t, 1e-10, 0.0, 16) for t in ts]
        assert got.tolist() == want

    def test_shapes(self):
        assert isinstance(geometric_phase_numeric(1.0, 0.0, H_UNIT, 1.3), float)
        grid = geometric_phase_numeric(1.0, 0.0, H_UNIT, [1.3, 0.2])
        assert isinstance(grid, np.ndarray) and grid.shape == (2,)
        assert geometric_phase_numeric(1.0, 0.0, H_UNIT, np.array([])).shape == (0,)
        with pytest.raises(ValueError):
            geometric_phase_numeric(1.0, 0.0, H_UNIT, np.ones((2, 2)))

    def test_rejects_a_negative_time_anywhere(self):
        with pytest.raises(ValueError, match="nonnegative"):
            geometric_phase_numeric(1.0, 0.0, H_UNIT, [0.5, -0.1, 2.0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_evolution_is_rejected(self):
        # The shifted phase overflows; each row's evolved state is checked.
        with pytest.raises(ValueError, match="finite"):
            geometric_phase_numeric(0.0, 0.0, H_UNIT, [1.0, 1e308], energy_shift=5.0)
        with pytest.raises(ValueError, match="finite"):
            geometric_phase_numeric(0.0, 0.0, H_UNIT, 1e308, energy_shift=5.0)


class TestParallelBlocks:
    """Rows evolved side by side in blocks: the first block to fail, in plan order, raises."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_later_block_surfaces(self, monkeypatch):
        monkeypatch.setattr(fock, "_BLOCK_ELEMENTS", 1)
        with pytest.raises(ValueError, match="^coefficients must be finite$"):
            geometric_phase_numeric(
                0.0, 0.0, H_UNIT, [1.0] * 7 + [1e308], energy_shift=5.0
            )

    def test_first_over_normalized_block_in_plan_order_surfaces(self, monkeypatch):
        # At r = ln 3, 1 / cosh^2 r = 0.36 and tanh r = 0.8; with |e^{2i phi}|
        # made 1.25 every |c_n|^2 is 0.36, so prefixes of length 1 and 2 hold
        # 0.36 and 0.72 and lengths 3 and 4 hold 1.08 and 1.44.  Each row is
        # its own block, so the first failure in plan order is a cutoff-2 row.
        monkeypatch.setattr(fock, "_BLOCK_ELEMENTS", 1)
        monkeypatch.setattr(fock, "_exp2i", lambda phi: 1.25 * su11._exp2i(phi))
        ts = np.linspace(0.1, 1.0, 12)
        with pytest.raises(ValueError, match=r"over-normalized: \|psi\|\^2 = 1\.08"):
            fock._energy_integrals(
                np.full(12, math.log(3.0)), 0.0, H_UNIT, ts, [3, 2, 1, 0] * 3, 4, 0.0
            )


def _block_plan(monkeypatch, rs, ts):
    """(rows, N, whether its rows differ in r) of each block, in plan order,
    of one ``geometric_phase_numeric`` call over rows (rs, ts), and its result."""
    real, blocks = fock._moments, []

    def spy(coeffs, energies, taus, shift, spare=None):
        blocks.append((taus.shape[0], energies.size - 1, coeffs.shape[0] > 1))
        return real(coeffs, energies, taus, shift, spare)

    with monkeypatch.context() as mp:
        mp.setattr(fock, "_moments", spy)
        gammas = geometric_phase_numeric(rs, 0.3, HamiltonianParams(1.0, 0.2), ts,
                                         accuracy=1e-9, steps=1)
    return blocks, gammas


class TestBlockPlan:
    """Blocks fill up to _BLOCK_ELEMENTS entries as ``fock._row_entries`` counts them."""

    @staticmethod
    def check_filled(blocks):
        for i, (rows, N, several) in enumerate(blocks):
            capacity = max(1, fock._BLOCK_ELEMENTS // fock._row_entries(N, 1, several))
            assert rows <= capacity
            # A block that leaves rows of its cutoff to the next one is full.
            if i + 1 < len(blocks) and blocks[i + 1][1] == N:
                assert rows == capacity

    def test_omega_t_grid_runs_about_one_block_per_cutoff(self, monkeypatch):
        # The benchmark sweep's grid, 73 cutoffs from N = 327 to 399 with up
        # to 656 rows each: blocks of up to 614 rows (40 entries a row at
        # N = 399), not the 203 blocks of at most 66 rows of N + 1 entries.
        blocks, _ = _block_plan(monkeypatch, 2.0, np.linspace(0.0, TAU, 10_000))
        self.check_filled(blocks)
        assert sum(rows for rows, _, _ in blocks) == 10_000
        assert not any(several for _, _, several in blocks)
        assert len({N for _, N, _ in blocks}) == 73
        assert len(blocks) == 74

    def test_r_grid_blocks_count_powers_and_weight_tables(self, monkeypatch):
        # About 500 rows per cutoff near N = 45, each row its own r: blocks
        # count a power row and two weight tables per row, so they hold no
        # more rows than N + 1 entries a row would allow.
        rs = np.linspace(0.9, 1.0, 3000)
        blocks, gammas = _block_plan(monkeypatch, rs, 1.0)
        self.check_filled(blocks)
        assert all(several or rows == 1 for rows, _, several in blocks)
        assert all(rows <= fock._BLOCK_ELEMENTS // (N + 1) for rows, N, _ in blocks)
        assert len(blocks) == 24
        monkeypatch.setattr(fock, "_BLOCK_ELEMENTS", 1)
        assert _block_plan(monkeypatch, rs, 1.0)[1].tolist() == gammas.tolist()


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


# ---------------------------------------------------------------------------
# Dense reference on the (N+1)^2-dimensional product basis, row-major in
# (n+, n-): the Kronecker construction the sector blocks replaced.


def _lowering_operators(N):
    """Dense a+ and a- with entries sqrt(n) from integers cast once to float."""
    steps = np.sqrt(np.arange(1, N + 1, dtype=np.int64).astype(np.float64))
    a = np.diag(steps, 1).astype(np.complex128)
    eye = np.eye(N + 1, dtype=np.complex128)
    return np.kron(a, eye), np.kron(eye, a)


def _occupations(N):
    n = np.arange(N + 1)
    return np.repeat(n, N + 1), np.tile(n, N + 1)


def _interior(N, margin):
    n_plus, n_minus = _occupations(N)
    return (n_plus <= N - margin) & (n_minus <= N - margin)


def _dense_squeeze_factors(r, eta, N):
    """The normal-ordered factors of S, each by its terminating Taylor sum."""
    a_plus, a_minus = _lowering_operators(N)
    k_minus = a_plus @ a_minus
    k_plus = k_minus.conj().T
    tanh_r = math.tanh(r)

    def nilpotent_exp(mat):
        out = np.eye(mat.shape[0], dtype=np.complex128)
        term = out
        for k in range(1, N + 1):
            term = term @ mat / k
            out = out + term
        return out

    ascend = nilpotent_exp(-tanh_r * np.exp(2j * eta) * k_plus)
    n_plus, n_minus = _occupations(N)
    middle = np.diag(np.cosh(r) ** -(n_plus + n_minus + 1.0)).astype(np.complex128)
    descend = nilpotent_exp(tanh_r * np.exp(-2j * eta) * k_minus)
    return ascend, middle, descend


def _dense_squeeze(r, eta, N):
    ascend, middle, descend = _dense_squeeze_factors(r, eta, N)
    return ascend @ middle @ descend


def _dense_bogoliubov_residual(r, eta, N, margin):
    """The residual, and the largest kept entry of |a| |S| + |S| |rhs|.

    |S| is the sum of the magnitudes of the terms that make up each entry
    of S, so the second value scales the rounding of the first.
    """
    ascend, middle, descend = _dense_squeeze_factors(r, eta, N)
    squeeze = ascend @ middle @ descend
    magnitude = np.abs(ascend) @ np.abs(middle) @ np.abs(descend)
    a_plus, a_minus = _lowering_operators(N)
    keep = np.ix_(_interior(N, margin), _interior(N, margin))
    phase = np.exp(2j * eta)
    worst = scale = 0.0
    for a_op, partner in ((a_plus, a_minus), (a_minus, a_plus)):
        rhs = a_op * math.cosh(r) - partner.conj().T * (phase * math.sinh(r))
        defect = a_op @ squeeze - squeeze @ rhs
        worst = max(worst, float(np.abs(defect[keep]).max()))
        bound = np.abs(a_op) @ magnitude + magnitude @ np.abs(rhs)
        scale = max(scale, float(bound[keep].max()))
    return worst, scale


def _dense_rotation_check(r, phi, theta, epsilon_t, N, margin):
    squeeze = _dense_squeeze(r, phi, N)
    n_plus, n_minus = _occupations(N)
    keep = _interior(N, margin)

    def defect(diag_phase, target):
        conjugated = diag_phase[:, None] * squeeze * diag_phase.conj()[None, :]
        return float(np.abs((conjugated - target)[np.ix_(keep, keep)]).max())

    return (
        defect(np.exp(-1j * theta * (n_plus + n_minus)), _dense_squeeze(r, phi - theta, N)),
        defect(np.exp(-1j * epsilon_t * (n_plus - n_minus)), squeeze),
    )


def _slots(N, d):
    """(n+, n-) of the states of sector d, in the order of its block."""
    n_plus = np.arange(max(d, 0), N + 1 + min(d, 0))
    return n_plus, n_plus - d


def _assemble(op):
    """Scatter the sector blocks of ``op`` into the dense product-basis matrix."""
    N = op.cutoff
    dense = np.zeros(((N + 1) ** 2, (N + 1) ** 2), dtype=np.complex128)
    for d in range(-N, N + 1):
        n_plus, n_minus = _slots(N, d)
        index = n_plus * (N + 1) + n_minus
        dense[np.ix_(index, index)] = op.block(d)
    return dense


def _ladder_block(N, d, which):
    """A sector block of one ladder; None where its sectors leave the cutoff.

    ``which`` names the map: a+ or a-^dag from sector d down to d - 1, a+^dag
    or a- from sector d - 1 up to d.
    """
    if not (-N < d <= N):
        return None
    a_plus, a_minus_dag = fock._ladders(N)
    rows, cols = _slots(N, d - 1)[0], _slots(N, d)[0]
    a_plus, a_minus_dag = (
        ladder[np.ix_(rows, cols)] for ladder in (a_plus, a_minus_dag[d + N - 1])
    )
    return {"a+": a_plus, "a-dag": a_minus_dag, "a+dag": a_plus.T, "a-": a_minus_dag.T}[which]


def _round_trip(N, d, last, first):
    """``last`` after ``first``, both on the sector pair (d - 1, d); 0 if absent."""
    if _ladder_block(N, d, last) is None:
        return 0.0
    return _ladder_block(N, d, last) @ _ladder_block(N, d, first)


class TestLadderOperators:
    """The sector ladders a+, a-^dag and their transposes."""

    def test_matrix_element_placement(self):
        N = 4
        # <(1,2)| a+ |(2,2)> = sqrt(2): slot 2 of sector 0 to slot 1 of sector -1
        assert _ladder_block(N, 0, "a+")[1, 2] == pytest.approx(math.sqrt(2.0))
        # <(2,1)| a- |(2,2)> = sqrt(2): slot 2 of sector 0 to slot 1 of sector 1
        assert _ladder_block(N, 1, "a-")[1, 2] == pytest.approx(math.sqrt(2.0))

    def test_commutators_on_interior_block(self):
        N = 12
        for d in range(-N, N + 1):
            n_plus, n_minus = _slots(N, d)
            # a+ lowers d and a- raises it, so each product a a^dag or
            # a^dag a passes through one neighbouring sector.
            comm_plus = _round_trip(N, d + 1, "a+", "a+dag") - _round_trip(N, d, "a+dag", "a+")
            comm_minus = _round_trip(N, d, "a-", "a-dag") - _round_trip(N, d + 1, "a-dag", "a-")
            for comm, occ in ((comm_plus, n_plus), (comm_minus, n_minus)):
                keep = occ <= N - 1
                block = comm[np.ix_(keep, keep)] - np.eye(int(keep.sum()))
                # sqrt(n)^2 is within one ulp of n, never exactly equal for all n
                assert np.abs(block).max(initial=0.0) < 1e-13

    def test_modes_commute(self):
        N = 6
        for d in range(-N, N + 1):
            defect = _round_trip(N, d + 1, "a+", "a-") - _round_trip(N, d, "a-", "a+")
            assert np.abs(defect).max() == 0.0


class TestTwoModeSqueezeOperator:
    def test_matrix_size(self):
        op = two_mode_squeeze_operator(1.0, 0.0, 12)
        assert op.stack.shape == (25, 13, 13)
        sizes = [op.block(d).shape for d in range(-12, 13)]
        assert sizes == [(13 - abs(d), 13 - abs(d)) for d in range(-12, 13)]
        assert sum(size for size, _ in sizes) == 169

    def test_vacuum_column_is_schmidt_state(self):
        N = 12
        op = two_mode_squeeze_operator(1.0, 0.3, N)
        column = _assemble(op)[:, 0].reshape(N + 1, N + 1)
        closed = schmidt_state(1.0, 0.3, N).coeffs
        assert np.abs(np.diagonal(column) - closed).max() < 1e-14
        off_diagonal = column - np.diag(np.diagonal(column))
        assert np.abs(off_diagonal).max() == 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_vacuum_column_at_overflowing_angle(self):
        # 2 eta overflows for eta = 1e308; both routes still form e^{2i eta}.
        N = 12
        column = _assemble(two_mode_squeeze_operator(1.0, 1e308, N))[:, 0]
        closed = schmidt_state(1.0, 1e308, N).coeffs
        assert np.abs(column.reshape(N + 1, N + 1).diagonal() - closed).max() < 1e-14

    def test_matches_generator_exponential_deep_inside(self):
        # Cross-validation of the normal-ordered factorization against a
        # plain expm of the truncated generator, on entries far enough from
        # the cutoff that the expm route is itself trustworthy.
        r, eta, N = 0.3, 0.45, 16
        a_plus, a_minus = _lowering_operators(N)
        generator = r * (
            a_plus @ a_minus * np.exp(-2j * eta)
            - a_plus.conj().T @ a_minus.conj().T * np.exp(2j * eta)
        )
        brute = expm(generator)
        factored = _assemble(two_mode_squeeze_operator(r, eta, N))
        n_plus, n_minus = _occupations(N)
        deep = (n_plus <= 2) & (n_minus <= 2)
        assert np.abs((brute - factored)[np.ix_(deep, deep)]).max() < 1e-10

    def test_full_space_cutoff_cap(self):
        with pytest.raises(CutoffExceededError):
            two_mode_squeeze_operator(1.0, 0.0, FULL_SPACE_MAX_CUTOFF + 1)

    def test_largest_cutoff_builds(self):
        op = two_mode_squeeze_operator(1.0, 0.3, FULL_SPACE_MAX_CUTOFF)
        assert op.cutoff == FULL_SPACE_MAX_CUTOFF
        assert np.isfinite(op.stack).all()
        # The vacuum column is still the Schmidt state at the cap.
        closed = schmidt_state(1.0, 0.3, FULL_SPACE_MAX_CUTOFF).coeffs
        assert np.abs(op.block(0)[:, 0] - closed).max() < 1e-14

    def test_operator_shape_validation(self):
        for shape in ((4, 4), (4, 2, 2), (3, 2, 3), (1, 0, 0)):
            with pytest.raises(ValueError):
                SectorBlockOperator(np.zeros(shape))
        assert SectorBlockOperator(np.zeros((1, 1, 1))).cutoff == 0
        stack = np.arange(12.0).reshape(3, 2, 2)
        op = SectorBlockOperator(stack)
        assert op.cutoff == 1
        assert op.block(0).tolist() == [[4.0, 5.0], [6.0, 7.0]]
        assert op.block(-1).tolist() == [[0.0]]  # |0>|1>: n+ = 0
        assert op.block(1).tolist() == [[11.0]]  # |1>|0>: n+ = 1
        assert not op.stack.flags.writeable
        with pytest.raises(IndexError):
            op.block(2)

    @settings(deadline=None, max_examples=60)
    @given(
        r=st.floats(-2.0, 2.0),
        eta=st.floats(-math.pi, math.pi),
        N=st.integers(0, 16),
    )
    @example(r=1.0, eta=0.45, N=16)
    def test_blocks_equal_dense_reference(self, r, eta, N):
        # Entry (a, b) sums min(a, b) + 1 alternating terms, which cancel to
        # about 1e-12 of the largest at r = 1, N = 16 in either route, so
        # each entry is held to 1e-14 of the sum of its terms' magnitudes.
        ascend, middle, descend = _dense_squeeze_factors(r, eta, N)
        reference = ascend @ middle @ descend
        magnitude = np.abs(ascend) @ np.abs(middle) @ np.abs(descend)
        blocks = _assemble(two_mode_squeeze_operator(r, eta, N))
        # Below 1e-300 the two routes underflow in different places.
        assert np.all(np.abs(blocks - reference) <= 1e-14 * magnitude + 1e-300)


class TestBogoliubovResidual:
    def test_zero_squeeze(self):
        assert bogoliubov_residual(0.0, 0.3, N=10, margin=2) < 1e-15

    # 1e308: 2 eta overflows, yet e^{2i eta} is formed without a warning.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("r", [0.25, 0.5, 1.0])
    @pytest.mark.parametrize("eta", [0.0, 0.3, 1.1, 1e308])
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
        squeeze = two_mode_squeeze_operator(r, eta, N).stack
        kept = fock._kept_slots(N, margin)
        a_plus, a_minus_dag = fock._ladders(N)
        wrong_rhs = a_plus * math.cosh(r) - a_minus_dag * (
            np.exp(2j * eta) * math.sinh(r) * 1.01
        )
        defect = a_plus @ squeeze[1:] - squeeze[:-1] @ wrong_rhs
        assert fock._max_kept(defect, kept[:-1], kept[1:]) > 1e-3

    def test_margin_validation(self):
        with pytest.raises(ValueError):
            bogoliubov_residual(0.5, 0.0, N=10, margin=11)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("r", [-20.0, -13.5, -4.0, 0.5, 1.0, 7.25, 16.0, 19.5, 20.0])
    def test_holds_up_to_r_max_at_the_cap(self, r):
        # Above the cap the diagonal factor overflows at large |r| (nan at
        # N = 48, r = 20) and the alternating sums lose their digits (a
        # residual of 41 at N = 64, r = 1); at the cap neither happens.
        N = FULL_SPACE_MAX_CUTOFF
        for eta in (0.0, 0.3, 1.1):
            assert np.isfinite(two_mode_squeeze_operator(r, eta, N).stack).all()
            assert bogoliubov_residual(r, eta, N=N, margin=4) <= 1e-6

    @pytest.mark.parametrize("r,eta", [(0.25, 0.0), (0.8, 0.3), (-1.5, 2.2), (2.0, -0.7)])
    @pytest.mark.parametrize("N,margin", [(0, 0), (1, 1), (6, 0), (12, 4), (12, 11), (16, 2)])
    def test_equals_dense_residual(self, r, eta, N, margin):
        blocks = bogoliubov_residual(r, eta, N=N, margin=margin)
        dense, scale = _dense_bogoliubov_residual(r, eta, N, margin)
        assert abs(blocks - dense) <= 1e-14 * scale


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

    @pytest.mark.parametrize("theta,eps_t", [(0.0, 0.37), (0.9, 1.9), (2.5, 0.37), (-4.0, 7.5)])
    @pytest.mark.parametrize("N,margin", [(0, 0), (5, 0), (12, 4), (16, 3)])
    def test_equals_dense_residuals(self, theta, eps_t, N, margin):
        blocks = rotation_conjugation_check(0.5, 0.2, theta, eps_t, N=N, margin=margin)
        dense = _dense_rotation_check(0.5, 0.2, theta, eps_t, N, margin)
        assert abs(blocks.rotation - dense[0]) <= 1e-13
        assert abs(blocks.modulation - dense[1]) <= 1e-13

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("theta,eps_t", [(1e308, 0.3), (0.3, 1e308)])
    def test_overflowing_angle_products_stay_finite(self, theta, eps_t):
        # theta (n+ + n-) and eps_t (n+ - n-) overflow, e^{-i theta} does not.
        res = rotation_conjugation_check(0.5, 0.2, theta, eps_t, 6, 2)
        assert all(math.isfinite(value) and value < 1e-6 for value in res), res
