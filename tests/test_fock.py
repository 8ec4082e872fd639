"""Tests for the truncated Fock-space oracle."""

import inspect
import math
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from tmsvphase import fock, phases, su11
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

# What the grid oracle raises when a phase or an energy integral overflows.
_OVERFLOW = r"^evolution overflows: t \(E_n \+ shift\) is not finite$"


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


def _exact_tail(observable, r, wt, N):
    """``_predicted_tail`` in 60-digit mpmath at the double r and wt."""
    with mpmath.workdps(60):
        r, wt = mpmath.mpf(r), mpmath.mpf(wt)
        x = mpmath.tanh(r) ** 2
        m = x ** (N + 1)
        energy = 2 * m * ((N + 1) * (1 - x) + x) / (1 - x) * wt
        return {
            "mass": m,
            "energy": energy,
            "phase": energy + mpmath.cosh(2 * r) * m,
            "entropy": m * (1 - mpmath.log(m)) / (1 - m) if m else mpmath.mpf(0),
            "expm": mpmath.tanh(r) ** (N + 1) / mpmath.cosh(r),
        }[observable]


def _tie(observable, r, wt, N, accuracy):
    """|exact tail / accuracy - 1| at cutoff N, to 60 digits."""
    with mpmath.workdps(60):
        return float(abs(_exact_tail(observable, r, wt, N) / accuracy - 1))


def _observed_error(observable, r, wt, N, accuracy):
    """Oracle error against the closed form, and the scale its rounding has."""
    if observable == "mass":
        state = schmidt_state(r, 0.3, N)
        overlap = _inner_product(state, evolve(state, H_UNIT, wt))
        return abs(overlap - phases.overlap_analytic(r, 1.0, wt)), 1.0
    if observable == "energy":
        exact = 2.0 * wt * math.sinh(r) ** 2
        got = dynamical_integral(r, H_UNIT, wt, accuracy=accuracy)
        return abs(got - exact), exact
    if observable == "phase":
        breakdown = phases.geometric_phase(r, 1.0, wt)
        got = geometric_phase_numeric(r, H_UNIT, wt, accuracy=accuracy)
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

    @pytest.mark.parametrize("observable,r,accuracy,got,exact", [
        # The tail at N = 0, tanh r / cosh r = (1 - 8e-19) r, computes a few ulp above r.
        ("expm", 1e-9, 1e-9, 1, 0),
        # The tail at N = 27 exceeds accuracy by 2.2e-17 relative and computes 8e-16 below it.
        ("mass", 0.6649869074206249, 6.637465183712576e-14, 27, 28),
    ], ids=["above", "below"])
    def test_tie_within_rounding_moves_n_by_one(self, observable, r, accuracy, got, exact):
        assert cutoff_for(observable, r, accuracy) == got
        assert _bisected_cutoffs(observable, [(r, 0.0)], accuracy, tail=_exact_tail) == [exact]
        assert _tie(observable, r, 0.0, min(got, exact), accuracy) < 1e-16

    @settings(deadline=None, max_examples=60)
    @given(
        observable=st.sampled_from(OBSERVABLES),
        r=st.floats(0.0, 2.0),
        wt=st.floats(0.0, 20.0),
        log_accuracy=st.floats(-13.0, -2.0),
    )
    def test_exact_smallest_but_for_ties(self, observable, r, wt, log_accuracy):
        # Against mpmath, N is the smallest cutoff whose exact tail is within
        # accuracy, unless that tail at N or N - 1 ties accuracy to 1e-12.
        accuracy = 10.0**log_accuracy
        got = cutoff_for(observable, r, accuracy, t=wt)
        (exact,) = _bisected_cutoffs(observable, [(r, wt)], accuracy, tail=_exact_tail)
        if got != exact:
            assert abs(got - exact) == 1
            assert _tie(observable, r, wt, min(got, exact), accuracy) < 1e-12


def _bisected_cutoffs(observable, pairs, accuracy, top=DEFAULT_MAX_CUTOFF, tail=_predicted_tail):
    """Per row, the smallest N in [0, top] whose documented tail
    (``_predicted_tail``, or ``tail``) is within ``accuracy``, by bisection;
    top if none."""
    cutoffs = []
    for r, wt in pairs:
        lo, hi = -1, top
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if tail(observable, abs(r), abs(wt), mid) <= accuracy:
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
        # same rows shuffled (seed not None), across chunks of _BATCH_ROWS.
        rs = np.linspace(r, r + r_span, points)
        wts = sign * np.linspace(0.0, wt, points)
        if seed is not None:
            rng = np.random.default_rng(seed)
            rs, wts = rs[rng.permutation(points)], wts[rng.permutation(points)]
        got = fock._cutoffs(observable, rs, wts, 1e-9, DEFAULT_MAX_CUTOFF).tolist()
        rows = zip(rs.tolist(), wts.tolist())
        assert got == [cutoff_for(observable, r_i, 1e-9, t=wt_i) for r_i, wt_i in rows]

    @settings(deadline=None, max_examples=80)
    @given(
        observable=st.sampled_from(OBSERVABLES),
        rows=st.lists(
            st.tuples(st.one_of(st.just(0.0), st.floats(-3.0, 3.0)), st.floats(-TAU, TAU)),
            min_size=1, max_size=40,
        ),
        max_cutoff=st.integers(0, DEFAULT_MAX_CUTOFF),
    )
    @example(observable="mass", rows=[(0.0, 1.0), (2.0, 1.0), (0.3, -5.0)], max_cutoff=1000)
    @example(observable="entropy", rows=[(2.0, 0.0), (0.0, 0.0)], max_cutoff=1000)
    def test_random_rows_equal_bisection(self, observable, rows, max_cutoff):
        # Rows in any order whose brackets close in different rounds: from
        # (-1, 1000], r = 0 closes at N = 0 after 9 rounds and then probes
        # max(lo, 0) while r = 2 (N = 282 for mass) takes a 10th.  From
        # (-1, 4096] only N = 4096 takes a 13th, so max_cutoff varies too.
        expected = _bisected_cutoffs(observable, rows, 1e-9, max_cutoff)
        # Not a tail within rounding of the accuracy, as at r = 1e-9 for
        # expm, which may fall on either side of it in fock's exp/log form of
        # the tail and in the reference's powers.
        assume(all(
            abs(_predicted_tail(observable, abs(r), abs(wt), N) / 1e-9 - 1.0) > 1e-12
            for (r, wt), cutoff in zip(rows, expected) for N in (cutoff - 1, cutoff) if N >= 0
        ))
        rs, wts = np.array(rows).reshape(-1, 2).T.copy()
        rows_over = [
            _predicted_tail(observable, abs(r), abs(wt), cutoff) > 1e-9
            for (r, wt), cutoff in zip(rows, expected)
        ]
        if any(rows_over):  # some row needs more than max_cutoff
            with pytest.raises(CutoffExceededError, match="needs a cutoff above"):
                fock._cutoffs(observable, rs, wts, 1e-9, max_cutoff)
        else:
            assert fock._cutoffs(observable, rs, wts, 1e-9, max_cutoff).tolist() == expected

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
        # Row 1500 lies inside the second chunk of _BATCH_ROWS = 1024 rows.
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
            geometric_phase_numeric(1.0, HamiltonianParams(2.0, 0.0), ts, accuracy=1e-9)
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


def _large_squeeze_cases():
    """(observable, r, N, side) wherever the 60-digit tail at N is a normal
    double below 1: 40 cases, each side 3e-12 relative off that tail."""
    cases = []
    for r in (4.0, 5.0, 10.0):
        for observable in ("mass", "expm", "entropy"):
            for N in (10**3, 10**5, 10**7, 10**9):
                if np.finfo(float).tiny < _exact_tail(observable, r, 0.0, N) < 1:
                    cases += [(observable, r, N, side) for side in (1.0, -1.0)]
    return cases


class TestCutoffsAtLargeSqueeze:
    """Cutoffs at large r read the same log tanh r as the moduli they truncate."""

    @pytest.mark.parametrize("observable,r,N,side", _large_squeeze_cases())
    def test_exact_smallest_cutoff(self, observable, r, N, side):
        # Accuracy 3e-12 above the exact tail at N makes N the smallest
        # cutoff, 3e-12 below it N + 1: far from a tie, since the tail moves
        # by at least 4e-9 relative per step of N here.
        with mpmath.workdps(60):
            accuracy = float(_exact_tail(observable, r, 0.0, N) * (1 + side * mpmath.mpf(3e-12)))
        (exact,) = _bisected_cutoffs(observable, [(r, 0.0)], accuracy, 2**40, _exact_tail)
        assert exact == (N if side > 0 else N + 1)
        assert cutoff_for(observable, r, accuracy, max_cutoff=2**40) == exact

    # The largest double at which numpy's float64 tanh r is below 1, and the next.
    R_LAST, R_ROUNDS = 18.990341103219272, 18.990341103219276

    def test_refusal_boundary(self):
        assert np.tanh(self.R_LAST) < 1.0 == np.tanh(self.R_ROUNDS)
        assert math.nextafter(self.R_LAST, math.inf) == self.R_ROUNDS
        # The tail at N exceeds 1/2 by 9e-17 relative, under half an ulp, so
        # N ties the exact smallest, N + 1.
        N = 5414597406323421
        with mpmath.workdps(60):
            log_tanh = mpmath.log(mpmath.tanh(mpmath.mpf(self.R_LAST)))
            assert int(mpmath.ceil(mpmath.log(0.5) / (2 * log_tanh))) - 1 == N + 1
        assert _tie("mass", self.R_LAST, 0.0, N, 0.5) < 1e-16
        assert cutoff_for("expm", self.R_LAST, 0.5) == 0
        assert cutoff_for("mass", self.R_LAST, 0.5, max_cutoff=2**62) == N
        rs = np.full(3000, 1.0)
        rs[1500] = self.R_LAST
        assert fock._cutoffs("mass", rs, np.zeros(rs.size), 0.5, 2**62)[1500] == N
        assert fock._cutoffs("expm", rs, np.zeros(rs.size), 0.5, 2**62)[1500] == 0
        rs[1500] = self.R_ROUNDS
        for refused in (
            lambda: cutoff_for("mass", self.R_ROUNDS, 0.5, max_cutoff=2**62),
            lambda: fock._cutoffs("mass", rs, np.zeros(rs.size), 0.5, 2**62),
            lambda: fock._cutoffs("expm", rs, np.zeros(rs.size), 0.5, 2**62),
        ):
            with pytest.raises(CutoffExceededError) as caught:
                refused()
            assert str(caught.value) == (
                f"tanh r rounds to 1 at r={self.R_ROUNDS}: no cutoff is enough"
            )


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


class TestModuli:
    """``fock._moduli``, the one table of |c_n| the grid and ``schmidt_state`` share."""

    R = [*np.logspace(-300, -1, 12).tolist(), math.nextafter(0.5, 0.0), 0.5,
         *np.linspace(0.1, 20.0, 28).tolist()]

    @pytest.mark.parametrize("r", R)
    def test_against_60_digits(self, r):
        # Each |c_n| in the normal range within 2 (1 + n |log tanh r|) eps:
        # exp(n L) turns an error in L into one n times larger.
        N = 4096
        ns = np.unique(np.r_[np.arange(64), np.geomspace(64, N, 40).astype(int)]).tolist()
        got = fock._moduli(np.array([r, -r]), N)
        assert got[0].tobytes() == got[1].tobytes()
        eps = np.finfo(float).eps
        with mpmath.workdps(60):
            tanh, cosh = mpmath.tanh(mpmath.mpf(r)), mpmath.cosh(mpmath.mpf(r))
            log_tanh = float(abs(mpmath.log(tanh)))
            for n in ns:
                exact = tanh**n / cosh
                if exact >= np.finfo(float).tiny:
                    error = abs((mpmath.mpf(got[0, n]) - exact) / exact)
                    assert error <= 2 * (1 + n * log_tanh) * eps, (n, float(error / eps))

    # The last four are where a float64 log tanh r is 0.8 to 1.4 eps off.
    @pytest.mark.parametrize("r", R + [0.3665, 0.692, 1.7276, 3.0994])
    def test_log_tanh_rounds_once(self, r):
        # At n = 2^k the exponent n L_hi + n L_lo rounds to n L_hi, so |c_n|
        # is off by n |L - L_hi| plus about 3 eps (exp, cosh r, the division):
        # within half an ulp of n |L| + 4 eps only if L_hi is L correctly
        # rounded, which one rounded float64 L, biasing the whole row, is not.
        got = fock._moduli(np.array([r]), 4096)[0]
        eps = np.finfo(float).eps
        with mpmath.workdps(60):
            tanh, cosh = mpmath.tanh(mpmath.mpf(r)), mpmath.cosh(mpmath.mpf(r))
            log_tanh = float(abs(mpmath.log(tanh)))
            for n in 2 ** np.arange(13):
                exact = tanh ** int(n) / cosh
                if exact >= np.finfo(float).tiny:
                    error = float(abs((mpmath.mpf(got[n]) - exact) / exact))
                    assert error <= np.spacing(n * log_tanh) / 2 + 4 * eps, (n, error / eps)

    @pytest.mark.parametrize("accuracy", [1e-9, 1e-10])
    @pytest.mark.parametrize("r", [3.15, 4.0, 5.0])
    def test_large_squeeze_within_accuracy(self, r, accuracy):
        # Within accuracy + 8 eps delta of the 40-digit closed forms: moduli
        # from a rounded tanh r would move n-bar = sinh^2 r by up to
        # eps n-bar (1 + n-bar), and delta at r = 5 by several times 1e-8.
        wts = np.array([0.3, 1.0, 2.5, TAU])
        route = dict(accuracy=accuracy, max_cutoff=2**18)
        gammas = geometric_phase_numeric(r, H_UNIT, wts, **route).tolist()
        deltas = dynamical_integral(r, H_UNIT, wts, **route).tolist()
        with mpmath.workdps(40):
            sinh2, cosh2 = mpmath.sinh(mpmath.mpf(r)) ** 2, mpmath.cosh(mpmath.mpf(r)) ** 2
            for wt, gamma, delta in zip(wts.tolist(), gammas, deltas):
                exact = 2 * mpmath.mpf(wt) * sinh2
                overlap = 1 / (cosh2 - sinh2 * mpmath.expj(-2 * mpmath.mpf(wt)))
                gap = (mpmath.mpf(gamma) - mpmath.arg(overlap) - exact) % (2 * mpmath.pi)
                bound = accuracy + 8 * np.finfo(float).eps * float(exact)
                assert abs(delta - exact) <= bound
                assert min(gap, 2 * mpmath.pi - gap) <= bound

    @pytest.mark.parametrize("phi", [0.0, 0.37, -2.9])
    @pytest.mark.parametrize("r", [0.3, 1.0, 2.5])
    def test_negative_squeeze_keeps_its_phase_sign(self, r, phi):
        # tanh(-r) < 0, so c_n = (e^{2i phi} tanh r)^n / cosh r, as the power
        # formula gives it, whose complex power rounds about once per n.
        N = 40
        got = schmidt_state(-r, phi, N).coeffs
        n = np.arange(N + 1)
        moduli = fock._moduli(np.array([r]), N)[0]
        assert got.tobytes() == (moduli * su11._exp2i(phi) ** n).tobytes()
        powers = (-su11._exp2i(phi) * np.tanh(-r)) ** n / np.cosh(-r)
        assert (np.abs(got - powers) <= 2 * (n + 1) * np.finfo(float).eps * np.abs(powers)).all()


# Each oracle entry point with one integer argument left open, by that argument.
_INTEGER_ARGUMENTS = {
    "schmidt_state-N": lambda n: schmidt_state(1.0, 0.0, n),
    "squeeze_by_exponentiation-N": lambda n: squeeze_by_exponentiation(1.0, 0.0, n),
    "two_mode_squeeze_operator-N": lambda n: two_mode_squeeze_operator(1.0, 0.0, n),
    "bogoliubov_residual-N": lambda n: bogoliubov_residual(0.5, 0.2, n, 1),
    "bogoliubov_residual-margin": lambda m: bogoliubov_residual(0.5, 0.2, 12, m),
    "rotation_conjugation_check-N": lambda n: rotation_conjugation_check(0.5, 0.2, 0.9, 0.4, n, 1),
    "rotation_conjugation_check-margin": lambda m: rotation_conjugation_check(
        0.5, 0.2, 0.9, 0.4, 12, m),
    "cutoff_for-max_cutoff": lambda n: cutoff_for("mass", 0.01, 1e-9, max_cutoff=n),
}


class TestIntegerArguments:
    """Cutoffs and margins are read through operator.index, as one validator does."""

    @pytest.mark.parametrize("call", _INTEGER_ARGUMENTS.values(), ids=_INTEGER_ARGUMENTS)
    @pytest.mark.parametrize("value", [2.5, 3.0, np.float64(3.0), -1, "3", None])
    def test_rejects_non_integers(self, call, value):
        # A float is not rounded, nor does it end in an IndexError or TypeError.
        with pytest.raises(ValueError):
            call(value)

    @pytest.mark.parametrize("call", _INTEGER_ARGUMENTS.values(), ids=_INTEGER_ARGUMENTS)
    def test_numpy_integers_keep_working(self, call):
        def plain(result):  # a state's or an operator's array, else the result
            return np.asarray(getattr(result, "coeffs", getattr(result, "stack", result)))

        expected = plain(call(4))
        for value in (np.int64(4), np.int32(4)):
            assert np.array_equal(plain(call(value)), expected)


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

    The route squeeze_by_exponentiation took before ``_svd_squeeze``: with
    D = diag(theta^n), theta = -i e^{2i phi}, and T = V diag(w) V^T,
    exp(G)|0> = D V diag(e^{-iw}) V^T |0>.
    """
    off_diagonal = r * np.arange(1, N + 1, dtype=np.float64)
    w, v = np.linalg.eigh(np.diag(off_diagonal, 1) + np.diag(off_diagonal, -1))
    rotated = np.exp(-1j * w) * v[0]
    theta = -1j * np.exp(2j * phi)
    return theta ** np.arange(N + 1) * (v @ rotated.real + 1j * (v @ rotated.imag))


def _svd_squeeze(r, phi, N):
    """exp(G)|0> from one full SVD of T's even-to-odd block.

    The route squeeze_by_exponentiation took before its Chebyshev series,
    operation for operation.  T = [[0, B^T], [B, 0]] in even/odd order, with
    B[j, j] = r (2j + 1) and B[j, j + 1] = r (2j + 2); with B = U diag(s) W^T,
    exp(-iT)|0> has the even part W cos(s) W^T e_0 and the odd part
    -i U sin(s) W[:, :len(s)]^T e_0, and for even N, W's last column spans
    the null space of B and takes cos 0 = 1.
    """
    off_diagonal = r * np.arange(1, N + 1, dtype=np.float64)
    odd, even = (N + 1) // 2, N // 2 + 1
    b = np.zeros((odd, even))
    b[np.arange(odd), np.arange(odd)] = off_diagonal[0::2]
    b[np.arange(N // 2), np.arange(1, even)] = off_diagonal[1::2]
    u, s, w_t = np.linalg.svd(b)
    cos_s = np.ones(even)
    cos_s[: s.size] = np.cos(s)
    amplitudes = np.empty(N + 1, dtype=np.complex128)
    amplitudes[0::2] = w_t.T @ (cos_s * w_t[:, 0])
    amplitudes[1::2] = -1j * (u @ (np.sin(s) * w_t[: s.size, 0]))
    theta = -1j * su11._exp2i(phi)
    return theta ** np.arange(N + 1) * amplitudes


class TestSqueezeByExponentiation:
    def test_zero_squeeze_is_vacuum(self):
        state = squeeze_by_exponentiation(0.0, 0.4, 8)
        assert abs(state.coeffs[0] - 1.0) < 1e-15
        assert np.abs(state.coeffs[1:]).max() < 1e-15

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 2.5])
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
        # independent reference for the Chebyshev series, at the same
        # truncation.
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
    @example(r=1.35e-124, phi=0.3, N=3)  # the unscaled Miller recurrence overflows
    @settings(deadline=None, max_examples=60)
    def test_matches_dense_eigh_and_pade_expm(self, r, phi, N):
        # Both parities of N: the even half is one longer for even N, and for
        # the SVD the block is then one column wider than tall, its null
        # vector coming back with cos 0 = 1.
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
        assert np.abs(brute - _svd_squeeze(r, phi, N)).max() <= 1e-13
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

    def test_runs_without_a_dense_factorisation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("squeeze_by_exponentiation factored a matrix")

        for name in ("svd", "eigh", "eig"):
            monkeypatch.setattr(np.linalg, name, refuse)
        brute = squeeze_by_exponentiation(2.0, 0.3, 655)
        assert np.abs(brute.coeffs - schmidt_state(2.0, 0.3, 655).coeffs).max() <= 1e-10

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    def test_peak_memory_grows_by_vectors_only(self):
        # The SVD of the 328 x 329 block at N = 655 grew the peak RSS by
        # about 10 MB; the series holds two rows of N + 3 floats.  Read
        # as VmHWM in a fresh process: a child's ru_maxrss starts at this
        # process's peak, which it keeps through fork and exec.
        code = (
            "from tmsvphase import fock\n"
            "def peak():\n"
            "    with open('/proc/self/status') as status:\n"
            "        return next(int(x.split()[1]) for x in status if x.startswith('VmHWM:'))\n"
            "before = peak()\n"
            "fock.squeeze_by_exponentiation(2.0, 0.3, 655)\n"
            "print(peak() - before)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert int(result.stdout) < 2 * 1024


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
        # The energy sum E_n |c_n|^2 of the state at tau = 0 against the
        # literal sum E_n |c_n phi_n|^2 of the evolved state: the literal
        # route rounds c_n phi_n as above, its modulus and square and the
        # product with E_n ((4 sqrt(5) + 6) u), and |phi_n|^2 is 1 within 4 u;
        # the contraction rounds |c_n|^2 and E_n |c_n|^2 (6 u); each adds at
        # most QP <= N + 1 + P terms.  So they differ by at most
        # (4 sqrt(5) + 16 + 4N) u <= 17 (N + 1) eps sum E_n |c_n|^2, and the
        # norms (E_n = 1) likewise.
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal(N + 1) + 1j * rng.standard_normal(N + 1)
        state = DiagonalFockState(coeffs / (np.linalg.norm(coeffs) * (1.0 + 1e-15)))
        h = HamiltonianParams(omega, 0.3 * omega)
        energies = fock._energies(h, N)
        evolved = evolve(state, h, tau, shift).coeffs
        energy, norm, overlap = _state_moments(np.abs(state.coeffs), h, tau, shift)
        eps, mass = np.finfo(float).eps, np.abs(state.coeffs) ** 2
        evolved_energy = float(np.sum(energies * abs(evolved) ** 2))
        assert abs(overlap - np.vdot(state.coeffs, evolved)) <= 10 * (N + 1) * eps * mass.sum()
        assert abs(norm - np.sum(abs(evolved) ** 2)) <= 17 * (N + 1) * eps * mass.sum()
        assert abs(energy - evolved_energy) <= 17 * (N + 1) * eps * evolved_energy


def _grid_overlaps(r, N, ts):
    """<psi(0)|psi(t)> under H_UNIT for each t, from the grid path at cutoff N."""
    ts = np.asarray(ts, dtype=np.float64)
    _, overlaps = fock._energy_integrals(np.full(ts.size, r), H_UNIT, ts, [N] * ts.size, 0.0)
    return [complex(overlap) for overlap in overlaps]


class TestOverlapNumeric:
    """The overlaps the grid path returns, the only oracle overlap there is."""

    def test_self_overlap_is_squared_norm(self):
        (got,) = _grid_overlaps(1.0, 50, [0.0])
        assert abs(got.imag) < 1e-16
        assert 1.0 - 1e-12 <= got.real <= 1.0

    def test_half_period_frozen(self):
        N = cutoff_for("mass", 1.0, 1e-12)
        (got,) = _grid_overlaps(1.0, N, [math.pi / 2])
        assert abs(got - INV_COSH_2) < 1e-12

    def test_quarter_period_argument(self):
        N = cutoff_for("mass", 1.0, 1e-12)
        (got,) = _grid_overlaps(1.0, N, [math.pi / 4])
        assert abs(np.angle(got) - TOTAL_PHASE_QUARTER) < 1e-12

    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
    @pytest.mark.parametrize("r", [0.4, 1.0, 1.8])
    def test_agreement_scales_with_tolerance(self, r, tol):
        # the truncation tail bounds the overlap error at any tolerance
        N = cutoff_for("mass", r, tol)
        grid = (0.6, 2.4, 5.1)
        for wt, numeric in zip(grid, _grid_overlaps(r, N, grid)):
            analytic = phases.overlap_analytic(r, 1.0, wt)
            assert abs(numeric - analytic) <= 10.0 * tol

    @pytest.mark.parametrize("N", [0, 1, 2, 3, 7, 64, 655, 4095])
    def test_block_overlaps_equal_per_row_vdot(self, N):
        # A block contracts its rows' tables by one matrix product and one
        # dot per row, as the per-state helper does for a lone row.  40 rows
        # fill one block up to N = 655 and seven blocks at N = 4095.
        moduli = _schmidt_moduli(1.5, N)
        ts = np.linspace(0.0, 2.0 * TAU, 40)
        want = [_state_moments(moduli, H_UNIT, t, 0.0)[2] for t in ts.tolist()]
        assert np.array(_grid_overlaps(1.5, N, ts)).tobytes() == np.array(want).tobytes()

    def test_cyclic_overlap_equals_squared_norm(self):
        # at Omega t = 2 pi the evolved state coincides with the initial one,
        # so the overlap collapses to the squared norm (zero total phase)
        for r in (0.5, 1.0, 2.0):
            state = schmidt_state(r, 0.3, cutoff_for("mass", r, 1e-12))
            (got,) = _grid_overlaps(r, state.cutoff, [TAU])
            assert abs(got - state.squared_norm()) < 1e-12


class TestEnergyExpectation:
    """The per-state energy reference the grid's energy integral is checked against."""

    def test_vacuum(self):
        assert _expected_energy(schmidt_state(0.0, 0.0, 5), H_UNIT) == 0.0

    def test_unit_squeeze_frozen(self):
        state = schmidt_state(1.0, 0.0, cutoff_for("mass", 1.0, 1e-12))
        got = _expected_energy(state, H_UNIT)
        assert abs(got - ENERGY_R1) < 1e-9

    def test_tail_bound(self):
        # The 40-digit closed form minus the truncated sum is the dropped-tail
        # energy, up to the sum's rounding: each |c_n| is within
        # 2 (1 + n |log tanh r|) eps (TestModuli), each term 2n |c_n|^2
        # within twice that and one rounding more, and numpy's pairwise sum
        # within ceil(log2(N + 1)) eps of the sum of its terms.
        eps = np.finfo(float).eps
        for r, N in ((0.5, 40), (1.0, 80)):
            state = schmidt_state(r, 0.0, N)
            with mpmath.workdps(40):
                exact = 2 * mpmath.sinh(mpmath.mpf(r)) ** 2
                deficit = float(exact - _expected_energy(state, H_UNIT))
                log_tanh = float(-mpmath.log(mpmath.tanh(mpmath.mpf(r))))
            n = np.arange(N + 1)
            terms = 2.0 * n * np.abs(state.coeffs) ** 2
            per_term = 4 * (1 + n * log_tanh) + 1 + math.ceil(math.log2(N + 1))
            rounding = eps * float(np.sum(terms * per_term))
            m = np.arange(N + 1, N + 3000)
            tail = float(np.sum(2.0 * m * np.tanh(r) ** (2 * m) / np.cosh(r) ** 2))
            assert -rounding <= deficit <= tail * (1.0 + 1e-9) + 1e-15

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


def _schmidt_moduli(r, N):
    """|c_0| .. |c_N| of the squeezed vacuum at r, the one row the grid forms for r."""
    return fock._moduli(np.array([r], dtype=float), N)[0]


def _state_moments(moduli, h, t, shift):
    """``fock._moments`` of one state's moduli at time ``t``: its energy
    <H> - shift, its squared norm and its overlap <psi(0)|psi(t)>.

    It is the helper the grid contracts each block with, so a grid row must
    repeat it bit for bit; ``TestMoments`` holds it to the literal
    np.vdot(c, evolve(c)) and sum E |evolve(c)|^2.
    """
    energies, norms, overlaps = fock._moments(
        moduli[None], fock._energies(h, moduli.size - 1), np.array([t], dtype=float), shift
    )
    return float(energies[0]), float(norms[0]), complex(overlaps[0])


def _energy_integral_per_point(moduli, h, t, shift):
    """Reference for the grid's energy integral: t (E + shift), E from one helper call."""
    return t * (_state_moments(moduli, h, t, shift)[0] + shift)


def _padded(N, max_cutoff=DEFAULT_MAX_CUTOFF):
    """The cutoff a grid row with smallest cutoff N runs at: P Q - 1, the largest
    cutoff with N's phase tables, P = isqrt(N) + 1 and Q = ceil((N + 1) / P),
    or ``max_cutoff`` if less."""
    side = math.isqrt(N) + 1
    return min(side * -(-(N + 1) // side) - 1, max_cutoff)


def _geometric_phase_per_point(r, h, t, accuracy, shift):
    """Reference for the grid oracle: its own cutoff, moduli and helper calls."""
    N = _padded(cutoff_for("phase", r, accuracy, t=h.Omega * t))
    moduli = _schmidt_moduli(r, N)
    _, _, overlap = _state_moments(moduli, h, t, shift)
    total = math.atan2(overlap.imag, overlap.real)
    delta = _energy_integral_per_point(moduli, h, t, shift)
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
        assert dynamical_integral(0.0, H_UNIT, 3.0) == 0.0

    def test_quarter_period_frozen(self):
        got = dynamical_integral(1.0, H_UNIT, math.pi / 4)
        assert abs(got - DELTA_QUARTER) < 1e-9

    def test_epsilon_cancels_bit_for_bit(self):
        base = dynamical_integral(1.0, HamiltonianParams(1.0, 0.0), 1.8)
        for eps in (0.37, -0.9):
            got = dynamical_integral(1.0, HamiltonianParams(1.0, eps), 1.8)
            assert got == base

    def test_matches_formula_at_tight_tolerance(self):
        for r in (0.1, 0.5, 1.0, 1.5, 2.0):
            for wt in (0.3, math.pi / 4, TAU):
                got = dynamical_integral(r, H_UNIT, wt, accuracy=1e-11)
                assert abs(got - 2.0 * wt * math.sinh(r) ** 2) < 1e-10

    @pytest.mark.parametrize("oracle", [dynamical_integral, geometric_phase_numeric])
    def test_steps_is_not_a_parameter(self, oracle):
        # The integrand is constant: there is no quadrature to refine.
        with pytest.raises(TypeError):
            oracle(1.0, H_UNIT, 1.0, steps=16)

    @pytest.mark.parametrize("oracle", [dynamical_integral, geometric_phase_numeric])
    def test_phi_is_not_a_parameter(self, oracle):
        # Nothing over time depends on phi: the oracle reads only the moduli.
        assert list(inspect.signature(oracle).parameters)[:3] == ["r", "h", "t"]
        assert "phi" not in inspect.signature(oracle).parameters
        with pytest.raises(TypeError):
            oracle(1.0, 0.3, H_UNIT, 1.0)

    @pytest.mark.parametrize("taus", [1, 4, 200])
    @pytest.mark.parametrize("shift", [0.0, -2.3])
    @pytest.mark.parametrize("h", [H_UNIT, HamiltonianParams(1.3, 0.9)])
    @pytest.mark.parametrize("r,t", [(0.5, 0.7), (2.0, 48.3)])
    def test_array_equals_per_tau_loop_bit_for_bit(self, r, t, h, shift, taus):
        # One block of rows at the taus of [0, t], against one call per tau.
        N = cutoff_for("mass", r, 1e-12)
        grid = np.linspace(0.0, t, taus + 1)[1:]
        got, _ = fock._energy_integrals(np.full(taus, r), h, grid, [N] * taus, shift)
        moduli = _schmidt_moduli(r, N)
        want = [_energy_integral_per_point(moduli, h, tau, shift) for tau in grid.tolist()]
        assert got.tolist() == want

    @settings(deadline=None, max_examples=40)
    @given(
        r=st.floats(0.0, 2.0),
        omega=st.floats(0.5, 2.0),
        eps_frac=st.floats(-0.9, 0.9),
        shift=st.sampled_from([0.0, -2.3]),
        ts=_t_grids(),
    )
    def test_grid_equals_per_point_bit_for_bit(self, r, omega, eps_frac, shift, ts):
        h = HamiltonianParams(omega, eps_frac * omega)
        got = dynamical_integral(r, h, np.array(ts), energy_shift=shift)
        want = []
        for t in ts:
            N = _padded(cutoff_for("energy", r, 1e-10, t=h.Omega * t))
            want.append(_energy_integral_per_point(_schmidt_moduli(r, N), h, t, shift))
        assert got.tolist() == want
        scalar = dynamical_integral(r, h, ts[0], energy_shift=shift)
        assert isinstance(scalar, float) and scalar == want[0]

    @settings(deadline=None, max_examples=40)
    @given(
        rows=_rt_rows(),
        omega=st.floats(0.5, 2.0),
        eps_frac=st.floats(-0.9, 0.9),
        shift=st.sampled_from([0.0, -2.3]),
    )
    def test_r_rows_equal_lone_calls_bit_for_bit(self, rows, omega, eps_frac, shift):
        rs, t = rows
        h = HamiltonianParams(omega, eps_frac * omega)
        route = dict(energy_shift=shift, accuracy=1e-10)
        got = dynamical_integral(np.array(rs), h, np.asarray(t), **route)
        pairs = _per_row(rs, t)
        assert got.tolist() == [dynamical_integral(r, h, t, **route) for r, t in pairs]
        _, _, cutoffs = fock._evolution(
            "energy", np.array(rs), h, np.array([t for _, t in pairs]),
            max_cutoff=fock.DEFAULT_MAX_CUTOFF, **route,
        )
        assert cutoffs.tolist() == [
            _padded(cutoff_for("energy", r, 1e-10, t=h.Omega * t)) for r, t in pairs
        ]

    def test_grid_shapes(self):
        assert dynamical_integral(1.0, H_UNIT, np.array([])).shape == (0,)
        with pytest.raises(ValueError):
            dynamical_integral(1.0, H_UNIT, np.ones((2, 2)))
        with pytest.raises(ValueError, match="nonnegative"):
            dynamical_integral(1.0, H_UNIT, [0.5, -0.1])
        assert dynamical_integral([0.5, 1.0], H_UNIT, 1.0).shape == (2,)
        with pytest.raises(ValueError):
            dynamical_integral(np.ones((2, 2)), H_UNIT, 1.0)
        with pytest.raises(ValueError):
            dynamical_integral([0.5, 1.0, 1.5], H_UNIT, [0.5, 1.0])


class TestGeometricPhaseNumeric:
    def test_vacuum(self):
        assert geometric_phase_numeric(0.0, H_UNIT, 4.2) == 0.0

    def test_quarter_period(self):
        got = geometric_phase_numeric(1.0, H_UNIT, math.pi / 4)
        assert circle_distance(got, GAMMA_QUARTER) < 1e-8

    def test_full_cycle(self):
        got = geometric_phase_numeric(1.0, H_UNIT, TAU, accuracy=1e-10)
        assert circle_distance(got, GAMMA_CYCLE_REDUCED) < 1e-9

    def test_agrees_with_analytic_on_grid(self):
        for r in (0.1, 0.5, 1.0, 1.5, 2.0):
            for wt in np.linspace(0.0, TAU, 21):
                numeric = geometric_phase_numeric(r, H_UNIT, float(wt))
                analytic = phases.geometric_phase(r, 1.0, float(wt)).geometric_phase
                assert circle_distance(numeric, analytic) < 1e-8

    def test_gauge_invariance(self):
        for r in (0.5, 1.0, 1.5):
            for wt in (math.pi / 4, 1.7, TAU):
                reference = geometric_phase_numeric(r, H_UNIT, wt)
                for shift in (-2.0, 0.7, 5.0):
                    shifted = geometric_phase_numeric(
                        r, H_UNIT, wt, energy_shift=shift
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
        d_plain = dynamical_integral(r, H_UNIT, t)
        d_shift = dynamical_integral(r, H_UNIT, t, energy_shift=c)
        assert abs((d_shift - d_plain) - c * t) < 1e-12


class TestEvolution:
    """``fock._evolution``, the one route to every quantity over time."""

    @pytest.mark.parametrize("observable", ["mass", "energy", "phase"])
    def test_rows_keep_their_cutoff_and_per_state_overlap(self, observable):
        h = HamiltonianParams(1.3, 0.4)
        ts = np.linspace(0.0, 3 * TAU, 40)
        route = dict(accuracy=1e-9, max_cutoff=4096, energy_shift=0.7)
        integrals, overlaps, cutoffs = fock._evolution(observable, 1.2, h, ts, **route)
        assert cutoffs.tolist() == [
            _padded(cutoff_for(observable, 1.2, 1e-9, t=h.Omega * t)) for t in ts
        ]
        for t, N, integral, overlap in zip(ts.tolist(), cutoffs, integrals, overlaps):
            moduli = _schmidt_moduli(1.2, N)
            assert overlap == _state_moments(moduli, h, t, 0.7)[2]
            assert integral == _energy_integral_per_point(moduli, h, t, 0.7)

    @settings(deadline=None, max_examples=60)
    @given(
        observable=st.sampled_from(["mass", "energy", "phase"]),
        rs=st.lists(st.floats(0.0, 2.5), min_size=1, max_size=8),
        wt=st.floats(0.0, 3 * TAU),
        slack=st.one_of(st.none(), st.integers(0, 40)),
    )
    def test_rows_run_at_their_shapes_largest_cutoff(self, observable, rs, wt, slack):
        # max_cutoff the default or a little above the rows' largest smallest
        # cutoff, where it binds on the rows of the top shape.
        smallest = [cutoff_for(observable, r, 1e-9, t=wt) for r in rs]
        max_cutoff = DEFAULT_MAX_CUTOFF if slack is None else max(smallest) + slack
        _, _, cutoffs = fock._evolution(
            observable, np.array(rs), H_UNIT, np.full(len(rs), wt),
            accuracy=1e-9, max_cutoff=max_cutoff, energy_shift=0.0,
        )
        for low, N in zip(smallest, cutoffs.tolist()):
            side, count = fock._sides(low)
            assert low <= N <= max_cutoff
            assert fock._sides(N) == (side, count)
            assert N == side * count - 1 or N == max_cutoff < side * count - 1

    def test_capped_rows_equal_lone_calls(self):
        # r = 2 needs N = 374 for its phase; its tables hold N = 379, so a
        # max_cutoff of 374 binds, and every row of that shape runs at 374.
        h = HamiltonianParams(1.0, 0.2)
        rs = np.linspace(1.9, 2.0, 30)
        route = dict(accuracy=1e-9, max_cutoff=374, energy_shift=0.7)
        integrals, overlaps, cutoffs = fock._evolution("phase", rs, h, np.ones(30), **route)
        assert cutoffs.max() == 374 and (cutoffs == 374).sum() > 1
        for i in range(rs.size):
            lone = fock._evolution("phase", rs[i], h, np.ones(1), **route)
            assert lone[0].tobytes() == integrals[i : i + 1].tobytes()
            assert lone[1].tobytes() == overlaps[i : i + 1].tobytes()
            assert lone[2][0] == cutoffs[i]


class TestSides:
    """``fock._sides``: the phase-table lengths, elementwise without a sort."""

    def test_integer_square_root_is_exact(self):
        # Both sides of each square k^2, small and near 2^52 and 2^62, where
        # the float square root rounds across integers.
        ks = [*range(1, 2000), *range(2**26 - 50, 2**26 + 50), *range(2**31 - 50, 2**31 + 1)]
        N = np.array([0, *(k * k + d for k in ks for d in (-1, 0)), 2**52 + 1, 2**62 - 1, 2**62])
        side, count = fock._sides(N)
        assert (side - 1).tolist() == [math.isqrt(n) for n in N.tolist()]
        assert count.tolist() == [-(-(n + 1) // (math.isqrt(n) + 1)) for n in N.tolist()]
        assert [tuple(map(int, fock._sides(n))) for n in N[:50].tolist()] == list(
            zip(side[:50].tolist(), count[:50].tolist())
        )


class TestGeometricPhaseGrid:
    """A grid of t gives, row for row and bit for bit, the per-point values."""

    @settings(deadline=None, max_examples=60)
    @given(
        r=st.floats(0.05, 2.5),
        omega=st.floats(0.5, 2.0),
        eps_frac=st.floats(-0.9, 0.9),
        shift=st.sampled_from([0.0, -2.0, 5.0]),
        ts=_t_grids(),
    )
    def test_equals_per_point_bit_for_bit(self, r, omega, eps_frac, shift, ts):
        h = HamiltonianParams(omega, eps_frac * omega)
        real_cutoffs = fock._cutoffs
        seen = []

        def spy(*args):
            seen.append(real_cutoffs(*args))
            return seen[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fock, "_cutoffs", spy)
            got = geometric_phase_numeric(r, h, np.array(ts), accuracy=1e-9, energy_shift=shift)
        want = [_geometric_phase_per_point(r, h, t, 1e-9, shift) for t in ts]
        assert got.tolist() == want
        assert [cutoffs.tolist() for cutoffs in seen] == [
            [cutoff_for("phase", r, 1e-9, t=h.Omega * t) for t in ts]
        ]
        scalar = geometric_phase_numeric(r, h, ts[0], accuracy=1e-9, energy_shift=shift)
        assert scalar == want[0]

    @settings(deadline=None, max_examples=60)
    @given(
        rows=_rt_rows(),
        omega=st.floats(0.5, 2.0),
        eps_frac=st.floats(-0.9, 0.9),
        shift=st.sampled_from([0.0, -2.0, 5.0]),
    )
    def test_r_rows_equal_lone_calls_bit_for_bit(self, rows, omega, eps_frac, shift):
        rs, t = rows
        h = HamiltonianParams(omega, eps_frac * omega)
        route = dict(accuracy=1e-9, energy_shift=shift)
        real_cutoffs = fock._cutoffs
        seen = []

        def spy(*args):
            seen.append(real_cutoffs(*args))
            return seen[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fock, "_cutoffs", spy)
            got = geometric_phase_numeric(np.array(rs), h, np.asarray(t), **route)
        pairs = _per_row(rs, t)
        assert got.tolist() == [geometric_phase_numeric(r, h, t, **route) for r, t in pairs]
        assert [cutoffs.tolist() for cutoffs in seen] == [
            [cutoff_for("phase", r, 1e-9, t=h.Omega * t) for r, t in pairs]
        ]

    def test_r_sweep_equals_per_point(self):
        # One r per row, across cutoffs from 0 to several hundred.
        rs = np.linspace(0.0, 2.5, 120)
        got = geometric_phase_numeric(rs, H_UNIT, 1.3, accuracy=1e-9)
        want = [_geometric_phase_per_point(r, H_UNIT, 1.3, 1e-9, 0.0) for r in rs]
        assert got.tolist() == want

    @pytest.mark.parametrize("r,rows", [(2.0, 4), (0.5, 16), (0.3, 7), (1.0, 1)])
    def test_sweep_grid_equals_per_point(self, r, rows, monkeypatch):
        # Blocks of ``rows`` rows at the grid's largest cutoff, more at smaller ones.
        h = HamiltonianParams(1.0, 0.3)
        ts = np.linspace(0.0, TAU, 200)
        N = _padded(cutoff_for("phase", r, 1e-9, t=TAU))
        monkeypatch.setattr(fock, "_BLOCK_ELEMENTS", rows * fock._row_entries(N, False))
        got = geometric_phase_numeric(r, h, ts, accuracy=1e-9)
        want = [_geometric_phase_per_point(r, h, t, 1e-9, 0.0) for t in ts]
        assert got.tolist() == want

    def test_zero_and_subnormal_times_share_a_block(self):
        ts = np.array([0.0, 5e-324, 1e-320, 0.3, 2.9, -0.0])
        got = geometric_phase_numeric(0.4, H_UNIT, ts)
        want = [_geometric_phase_per_point(0.4, H_UNIT, t, 1e-10, 0.0) for t in ts]
        assert got.tolist() == want

    def test_shapes(self):
        assert isinstance(geometric_phase_numeric(1.0, H_UNIT, 1.3), float)
        grid = geometric_phase_numeric(1.0, H_UNIT, [1.3, 0.2])
        assert isinstance(grid, np.ndarray) and grid.shape == (2,)
        assert geometric_phase_numeric(1.0, H_UNIT, np.array([])).shape == (0,)
        with pytest.raises(ValueError):
            geometric_phase_numeric(1.0, H_UNIT, np.ones((2, 2)))

    def test_rejects_a_negative_time_anywhere(self):
        with pytest.raises(ValueError, match="nonnegative"):
            geometric_phase_numeric(1.0, H_UNIT, [0.5, -0.1, 2.0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_evolution_is_rejected(self):
        # The shifted phase overflows, though every |c_n| is finite: the
        # message names the evolution, not the coefficients.
        with pytest.raises(ValueError, match=_OVERFLOW):
            geometric_phase_numeric(0.0, H_UNIT, [1.0, 1e308], energy_shift=5.0)
        with pytest.raises(ValueError, match=_OVERFLOW):
            geometric_phase_numeric(0.0, H_UNIT, 1e308, energy_shift=5.0)


class TestParallelBlocks:
    """Rows evolved side by side in blocks: the first block to fail, in plan order, raises."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_later_block_surfaces(self, monkeypatch):
        monkeypatch.setattr(fock, "_BLOCK_ELEMENTS", 1)
        with pytest.raises(ValueError, match=_OVERFLOW):
            geometric_phase_numeric(
                0.0, H_UNIT, [1.0] * 7 + [1e308], energy_shift=5.0
            )

    def test_first_over_normalized_block_in_plan_order_surfaces(self, monkeypatch):
        # At r = ln 3, 1 / cosh^2 r = 0.36 and tanh r = 0.8; with each |c_n|
        # inflated by 1.25^n every |c_n|^2 is 0.36, so prefixes of length 1
        # and 2 hold 0.36 and 0.72 and lengths 3 and 4 hold 1.08 and 1.44.
        # Each row is its own block, so the first failure in plan order is a
        # cutoff-2 row.
        real = fock._moduli

        def inflated(rs, N):
            moduli = real(rs, N)
            moduli *= 1.25 ** np.arange(N + 1)
            return moduli

        monkeypatch.setattr(fock, "_BLOCK_ELEMENTS", 1)
        monkeypatch.setattr(fock, "_moduli", inflated)
        ts = np.linspace(0.1, 1.0, 12)
        with pytest.raises(ValueError, match=r"over-normalized: \|psi\|\^2 = 1\.08"):
            fock._energy_integrals(np.full(12, math.log(3.0)), H_UNIT, ts, [3, 2, 1, 0] * 3, 0.0)


def _block_plan(monkeypatch, rs, ts):
    """(rows, N, whether it holds a row of moduli per row) of each block, in
    plan order, of one ``geometric_phase_numeric`` call over rows (rs, ts),
    N its cutoff, and the call's result."""
    real, blocks = fock._moments, []

    def spy(coeffs, energies, ts, shift):
        blocks.append((ts.size, energies.size - 1, coeffs.shape[0] > 1))
        return real(coeffs, energies, ts, shift)

    with monkeypatch.context() as mp:
        mp.setattr(fock, "_moments", spy)
        gammas = geometric_phase_numeric(rs, HamiltonianParams(1.0, 0.2), ts, accuracy=1e-9)
    return blocks, gammas


class TestBlockPlan:
    """Blocks of one cutoff fill up to _BLOCK_ELEMENTS entries as
    ``fock._row_entries`` counts them; a block of several r holds a row of
    moduli per row."""

    def check_filled(self, blocks):
        for i, (rows, N, several) in enumerate(blocks):
            capacity = max(1, fock._BLOCK_ELEMENTS // fock._row_entries(N, several))
            assert rows <= capacity
            # A block that leaves rows of its cutoff to the next one is full.
            if i + 1 < len(blocks) and blocks[i + 1][1] == N:
                assert rows == capacity

    def test_omega_t_grid_runs_about_one_block_per_cutoff(self, monkeypatch):
        # The benchmark sweep's grid, whose smallest cutoffs run from N = 327
        # to 399 with up to 656 rows each: its rows run at the four cutoffs
        # P Q - 1 of their phase tables, in blocks of up to 630 rows (39
        # entries a row at N = 379), not the 203 blocks of at most 66 rows of
        # N + 1 entries (70 blocks when blocks took every cutoff of a shape).
        blocks, _ = _block_plan(monkeypatch, 2.0, np.linspace(0.0, TAU, 10_000))
        self.check_filled(blocks)
        assert sum(rows for rows, _, _ in blocks) == 10_000
        assert not any(several for _, _, several in blocks)
        assert sorted({N for _, N, _ in blocks}) == [341, 360, 379, 399]
        assert len(blocks) == 18

    def test_r_grid_blocks_count_moduli_and_weight_tables(self, monkeypatch):
        # About 500 rows per smallest cutoff near N = 45, each row its own r,
        # at the two cutoffs 41 and 48 of their shapes: blocks count a row of
        # moduli and two weight tables per row, so they hold no more rows
        # than N + 1 entries a row would allow.
        rs = np.linspace(0.9, 1.0, 3000)
        blocks, gammas = _block_plan(monkeypatch, rs, 1.0)
        self.check_filled(blocks)
        assert all(several or rows == 1 for rows, _, several in blocks)
        assert all(rows <= fock._BLOCK_ELEMENTS // (N + 1) for rows, N, _ in blocks)
        assert len(blocks) == 19
        monkeypatch.setattr(fock, "_BLOCK_ELEMENTS", 1)
        assert _block_plan(monkeypatch, rs, 1.0)[1].tolist() == gammas.tolist()

    def test_blocks_hold_one_cutoff_and_rows_keep_their_lone_bits(self, monkeypatch):
        # An r grid of one row per smallest cutoff, and rows of one r near
        # Omega t = 0 whose smallest cutoffs differ: every block's rows run at
        # one cutoff, its moduli rows nonzero to its end, and each grid row
        # equals its lone call.
        h = HamiltonianParams(1.0, 0.2)
        rs = np.concatenate([np.linspace(0.5, 1.5, 40), np.full(6, 2.0)])
        ts = np.concatenate([np.ones(40), np.linspace(0.0, 0.05, 6)])
        route = dict(accuracy=1e-9, max_cutoff=DEFAULT_MAX_CUTOFF, energy_shift=0.7)
        real, held = fock._moments, []

        def spy(coeffs, energies, ts, shift):
            # |c_n| > 0 up to N at these r, so a row's nonzero count is N + 1.
            lengths = {int(np.count_nonzero(row)) for row in coeffs}
            held.append((energies.size - 1, ts.size, lengths))
            assert lengths == {energies.size}
            return real(coeffs, energies, ts, shift)

        with monkeypatch.context() as mp:
            mp.setattr(fock, "_moments", spy)
            integrals, overlaps, cutoffs = fock._evolution("phase", rs, h, ts, **route)
        # The rows whose smallest cutoffs are 42, 45 and 47 share N = 48, and
        # the six at r = 2 (smallest 327 .. 339) one row of moduli at N = 341.
        assert (48, 3, {49}) in held and (341, 6, {342}) in held
        assert sorted(N for N, rows, _ in held for _ in range(rows)) == sorted(cutoffs.tolist())
        for i in range(rs.size):
            lone = fock._evolution("phase", rs[i], h, ts[i : i + 1], **route)
            assert lone[0].tobytes() == integrals[i : i + 1].tobytes()
            assert lone[1].tobytes() == overlaps[i : i + 1].tobytes()
            assert lone[2][0] == cutoffs[i]


class TestOracleMemory:
    """One grid-oracle call holds its per-row arrays and one block, no more."""

    @pytest.mark.parametrize("rs, ts", [
        pytest.param(2.0, np.linspace(0.0, TAU, 10_000), id="omega_t-sweep"),
        pytest.param(np.linspace(0.0, 3.1, 3000), 1.0, id="r-to-3.1"),
    ])
    def test_peak_is_rows_plus_one_block(self, rs, ts):
        # Per row of the grid, at most seven 8-byte values live at once: t,
        # the cutoff, the plan order, delta, the overlap's two parts, gamma,
        # and then gamma + delta (the order is freed before gamma is formed).
        # A block of E entries (fock._row_entries) holds 16 B for each P + Q
        # phase-table entry, 16 B per Q of the W lo product (Q <= P, so at
        # most 8 B an entry), and in a block of several r 8 B per entry of
        # its moduli and weight tables: at most 24 B an entry, E at most
        # _BLOCK_ELEMENTS on these grids.  The overlaps' argument takes one
        # list of _BATCH_ROWS rows at a time as Python complex and float
        # objects with their lists, about 72 B a row.
        rows = np.broadcast(rs, ts).size
        bound = 56 * rows + 24 * fock._BLOCK_ELEMENTS + 72 * phases._BATCH_ROWS
        h = HamiltonianParams(1.0, 0.2)
        geometric_phase_numeric(rs, h, ts, accuracy=1e-9)  # first-call caches
        tracemalloc.start()
        try:
            geometric_phase_numeric(rs, h, ts, accuracy=1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound


class TestEntropyNumeric:
    def test_vacuum(self):
        assert entropy_numeric(schmidt_state(0.0, 0.0, 4)) == 0.0

    def test_zero_state_is_refused(self):
        with pytest.raises(ValueError, match="cannot renormalize a zero state"):
            entropy_numeric(DiagonalFockState(np.zeros(4)))

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
