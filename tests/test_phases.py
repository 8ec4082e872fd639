"""Tests for the closed-form phase and entropy expressions."""

import cmath
import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tmsvphase import phases, su11
from tmsvphase.cli import circle_distance
from tmsvphase.phases import (
    TAU,
    HamiltonianParams,
    cyclic_geometric_phase,
    dynamical_term,
    entropy_from_cyclic_phase,
    entropy_from_squeeze,
    geometric_phase,
    one_mode_cyclic_phase,
    overlap_analytic,
    total_phase_factor,
)

# Frozen to 16+ digits with mpmath (40-digit working precision).
INV_COSH_2 = 0.2658022288340797          # overlap at r=1, Wt=pi/2
TOTAL_PHASE_QUARTER = -0.5256029929681379  # arg overlap at r=1, Wt=pi/4
DELTA_QUARTER = 2.1694234227214296         # (pi/2) sinh^2 1
DELTA_CYCLE = 17.355387381771437           # 4 pi sinh^2 1
GAMMA_QUARTER = 1.6438204297532917         # total + delta at r=1, Wt=pi/4
GAMMA_CYCLE_REDUCED = 4.789016767412264    # 4 pi sinh^2 1 mod 2 pi
ONE_MODE_R1 = 8.677693690885719            # 2 pi sinh^2 1
GAMMA_C_HALF = 3.4122762652849023          # 4 pi sinh^2 0.5
ENTROPY_HALF = 0.6594529591680367
ENTROPY_ONE = 1.6198220928977023
ENTROPY_FIG1_END = 0.9547712524422192      # 1.5 ln 1.5 + 0.5 ln 2


class TestHamiltonianParams:
    def test_valid(self):
        h = HamiltonianParams(2.0, -0.5)
        assert h.Omega == 2.0 and h.epsilon == -0.5

    @pytest.mark.parametrize("omega,eps", [(0.0, 0.0), (-1.0, 0.0), (1.0, 1.0), (1.0, -1.5)])
    def test_rejects_bad_frequencies(self, omega, eps):
        with pytest.raises(ValueError):
            HamiltonianParams(omega, eps)


class TestOverlap:
    def test_vacuum_is_stationary(self):
        assert overlap_analytic(0.0, 1.7, 5.0) == 1.0

    def test_half_period_is_real(self):
        got = overlap_analytic(1.0, 1.0, math.pi / 2)
        assert abs(got.real - INV_COSH_2) < 1e-14
        assert abs(got.imag) < 1e-14

    def test_half_period_series_oracle(self):
        # Brute-force geometric series sum of tanh^{2n} e^{-i pi n} / cosh^2
        n = np.arange(400)
        series = np.sum(np.tanh(1.0) ** (2 * n) * np.exp(-1j * math.pi * n)) / np.cosh(1.0) ** 2
        assert abs(overlap_analytic(1.0, 1.0, math.pi / 2) - series) < 1e-13

    @pytest.mark.parametrize("r", [0.2, 1.0, 2.7])
    def test_full_cycle_returns_to_one(self, r):
        assert abs(overlap_analytic(r, 1.0, TAU) - 1.0) < 1e-12

    @given(st.floats(0.0, 3.0, allow_nan=False), st.floats(0.0, 4 * math.pi, allow_nan=False))
    def test_modulus_closed_form(self, r, wt):
        got = abs(overlap_analytic(r, 1.0, wt))
        want = (math.cos(wt) ** 2 + math.sin(wt) ** 2 * math.cosh(2 * r) ** 2) ** -0.5
        assert abs(got - want) < 1e-12

    def test_period_pi_in_omega_t(self):
        for wt in (0.0, 0.3, 1.9, 2.8):
            a = overlap_analytic(1.3, 1.0, wt)
            b = overlap_analytic(1.3, 1.0, wt + math.pi)
            assert abs(a - b) < 1e-12

    def test_conjugation_symmetry(self):
        # reversing the evolution direction conjugates the overlap
        for wt in (0.1, 0.8, 2.0):
            fwd = overlap_analytic(0.9, 1.0, wt)
            bwd = overlap_analytic(0.9, -1.0, wt)
            assert abs(fwd - bwd.conjugate()) < 1e-15

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            overlap_analytic(1.0, 1.0, -0.1)

    def test_rejects_overflowing_r(self):
        with pytest.raises(ValueError):
            overlap_analytic(21.0, 1.0, 1.0)

    def test_matches_mpmath_at_large_squeeze(self):
        with mpmath.workdps(50):
            r = mpmath.mpf(10)
            for wt in (1e-9, 0.3, 1.0, math.pi / 2, 3.0, math.pi, 4.5, TAU):
                want = 1 / (mpmath.cosh(r) ** 2
                            - mpmath.sinh(r) ** 2 * mpmath.exp(-2j * mpmath.mpf(wt)))
                got = overlap_analytic(10.0, 1.0, wt)
                assert abs(mpmath.mpc(got) - want) <= 1e-12 * abs(want)


class TestTotalPhaseFactor:
    def test_vacuum(self):
        assert abs(total_phase_factor(0.0, 1.0, 1.3) - 1.0) < 1e-15

    def test_half_period_is_one(self):
        assert abs(total_phase_factor(1.0, 1.0, math.pi / 2) - 1.0) < 1e-14

    def test_quarter_period_argument(self):
        got = total_phase_factor(1.0, 1.0, math.pi / 4)
        assert abs(cmath.phase(got) - TOTAL_PHASE_QUARTER) < 1e-13

    def test_unit_modulus_everywhere(self):
        for r in np.linspace(0.0, 3.0, 16):
            for wt in np.linspace(0.0, 4 * math.pi, 41):
                assert abs(abs(total_phase_factor(float(r), 1.0, float(wt))) - 1.0) < 1e-12

    def test_matches_normalized_overlap(self):
        for r in (0.3, 1.0, 2.2):
            for wt in (0.4, 1.1, 3.9, 5.5):
                overlap = overlap_analytic(r, 1.0, wt)
                assert abs(total_phase_factor(r, 1.0, wt) - overlap / abs(overlap)) < 1e-12


class TestDynamicalTerm:
    def test_vacuum(self):
        assert dynamical_term(0.0, 2.3, 7.7) == 0.0

    def test_quarter_period(self):
        assert abs(dynamical_term(1.0, 1.0, math.pi / 4) - DELTA_QUARTER) < 1e-13

    def test_full_cycle_is_unreduced(self):
        # exceeds 2 pi: no reduction applied here
        assert abs(dynamical_term(1.0, 1.0, TAU) - DELTA_CYCLE) < 1e-12


class TestGeometricPhase:
    def test_vacuum(self):
        breakdown = geometric_phase(0.0, 1.0, 5.0)
        assert breakdown.geometric_phase == 0.0
        assert breakdown.overlap == 1.0

    def test_quarter_period_frozen(self):
        breakdown = geometric_phase(1.0, 1.0, math.pi / 4)
        assert abs(breakdown.geometric_phase - GAMMA_QUARTER) < 1e-12
        assert abs(breakdown.total_phase - TOTAL_PHASE_QUARTER) < 1e-13
        assert abs(breakdown.dynamical_term_delta - DELTA_QUARTER) < 1e-13

    def test_full_cycle_reduces_to_cyclic_value(self):
        breakdown = geometric_phase(1.0, 1.0, TAU)
        assert abs(breakdown.geometric_phase - GAMMA_CYCLE_REDUCED) < 1e-12

    @given(
        st.floats(-20.0, 20.0),
        st.floats(-1e6, 1e6),
        st.floats(0.0, 1e6),
    )
    def test_fields_are_the_lone_closed_forms_bit_for_bit(self, r, omega, t):
        # geometric_phase validates once and shares sinh^2 r between the
        # overlap and delta; the values must stay those of the lone calls.
        b = geometric_phase(r, omega, t)
        assert b.overlap == overlap_analytic(r, omega, t)
        assert b.dynamical_term_delta == dynamical_term(r, omega, t)

    @pytest.mark.parametrize("args", [(20.5, 1.0, 1.0), (1.0, math.inf, 1.0), (1.0, 1.0, -1.0)])
    def test_rejects_what_the_lone_closed_forms_reject(self, args):
        for f in (geometric_phase, overlap_analytic, dynamical_term):
            with pytest.raises(ValueError):
                f(*args)

    def test_breakdown_invariants(self):
        for r in (0.0, 0.4, 1.0, 2.0):
            for wt in np.linspace(0.0, 3 * TAU, 37):
                b = geometric_phase(r, 1.0, float(wt))
                assert abs(b.overlap) <= 1.0 + 1e-12
                assert -math.pi < b.total_phase <= math.pi
                assert 0.0 <= b.geometric_phase < TAU
                congruence = circle_distance(
                    b.geometric_phase, b.total_phase + b.dynamical_term_delta
                )
                assert congruence < 1e-12

    def test_closed_form_phase_factor(self):
        # e^{i gamma} = e^{i Wt cosh 2r}(cos Wt - i sin Wt cosh 2r) / norm
        for r in np.linspace(0.0, 2.0, 9):
            for wt in np.linspace(0.0, 4 * math.pi, 49):
                r, wt = float(r), float(wt)
                b = geometric_phase(r, 1.0, wt)
                c2r = math.cosh(2 * r)
                closed = (
                    cmath.exp(1j * wt * c2r)
                    * complex(math.cos(wt), -math.sin(wt) * c2r)
                    / math.sqrt(math.cos(wt) ** 2 + math.sin(wt) ** 2 * c2r**2)
                )
                assert abs(cmath.exp(1j * b.geometric_phase) - closed) < 1e-10

    def test_total_phase_matches_decomposition(self):
        # arg overlap must equal arg of (cosh R)^{-1} e^{-i Theta}
        for r in (0.25, 1.0, 1.75):
            for wt in np.linspace(0.05, TAU, 23):
                wt = float(wt)
                triple = su11.decompose_product(
                    su11.SqueezeParams(r, 0.6),
                    su11.SqueezeParams(r, 0.6 - wt),
                )
                b = geometric_phase(r, 1.0, wt)
                assert circle_distance(b.total_phase, -triple.Theta) < 1e-10


class TestCyclicPhase:
    def test_vacuum(self):
        assert cyclic_geometric_phase(0.0) == (0.0, 0.0)

    def test_half_squeeze(self):
        got = cyclic_geometric_phase(0.5)
        assert abs(got.unreduced - GAMMA_C_HALF) < 1e-13
        assert abs(got.reduced - GAMMA_C_HALF) < 1e-13  # below 2 pi already

    def test_unit_squeeze(self):
        got = cyclic_geometric_phase(1.0)
        assert abs(got.unreduced - DELTA_CYCLE) < 1e-12
        assert abs(got.reduced - GAMMA_CYCLE_REDUCED) < 1e-12

    def test_one_mode_value(self):
        assert abs(one_mode_cyclic_phase(1.0) - ONE_MODE_R1) < 1e-13

    @given(st.floats(-3.0, 3.0, allow_nan=False))
    def test_additivity_is_bit_exact(self, r):
        assert cyclic_geometric_phase(r).unreduced == 2.0 * one_mode_cyclic_phase(r)

    @given(st.floats(0.0, 3.0, allow_nan=False))
    def test_reduced_in_range(self, r):
        reduced = cyclic_geometric_phase(r).reduced
        assert 0.0 <= reduced < TAU
        assert circle_distance(reduced, cyclic_geometric_phase(r).unreduced) < 1e-9


def _entropy_series_oracle(r, terms=2000):
    """Independent -sum p ln p over the Schmidt spectrum p_n = tanh^{2n}/cosh^2."""
    n = np.arange(terms)
    p = np.tanh(r) ** (2 * n) / np.cosh(r) ** 2
    p = p[p > 0]
    return float(-np.sum(p * np.log(p)))


class TestEntropy:
    def test_vacuum_no_entanglement(self):
        assert entropy_from_squeeze(0.0) == 0.0

    def test_half_squeeze_frozen(self):
        assert abs(entropy_from_squeeze(0.5) - ENTROPY_HALF) < 1e-13

    def test_unit_squeeze_frozen(self):
        assert abs(entropy_from_squeeze(1.0) - ENTROPY_ONE) < 1e-13

    @pytest.mark.parametrize("r", [0.3, 0.5, 1.0, 1.6])
    def test_against_series_oracle(self, r):
        assert abs(entropy_from_squeeze(r) - _entropy_series_oracle(r)) < 1e-12

    def test_phase_form_endpoints(self):
        assert entropy_from_cyclic_phase(0.0) == 0.0
        assert abs(entropy_from_cyclic_phase(TAU) - ENTROPY_FIG1_END) < 1e-14

    def test_phase_form_matches_squeeze_form(self):
        assert abs(entropy_from_cyclic_phase(GAMMA_C_HALF) - ENTROPY_HALF) < 1e-12

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            entropy_from_cyclic_phase(-0.1)

    @given(st.floats(0.0, 3.0, allow_nan=False))
    def test_identity_between_forms(self, r):
        via_phase = entropy_from_cyclic_phase(cyclic_geometric_phase(r).unreduced)
        assert abs(via_phase - entropy_from_squeeze(r)) < 1e-12

    def test_identity_on_grid(self):
        for r in np.linspace(0.0, 3.0, 301):
            r = float(r)
            gap = abs(
                entropy_from_cyclic_phase(cyclic_geometric_phase(r).unreduced)
                - entropy_from_squeeze(r)
            )
            assert gap < 1e-12

    def test_strictly_increasing_over_fig1_range(self):
        grid = np.linspace(0.0, TAU, 1000)
        values = np.array([entropy_from_cyclic_phase(float(g)) for g in grid])
        assert np.all(np.diff(values) > 0.0)


def _entropy_mpmath(x):
    """(1 + x) ln(1 + x) - x ln x at x = ``x`` (an mpf), to 30 digits past
    the cancellation: x ln x carries log10(x) more digits than the result."""
    if x == 0:
        return 0.0
    digits = 30 + max(0, int(mpmath.log10(x)))
    with mpmath.workdps(digits):
        return float((1 + x) * mpmath.log1p(x) - x * mpmath.log(x))


# Both closed forms are accurate to this relative error; below 1e-300 the
# results (and x ln x) have left the normal range and carry few digits.
ENTROPY_REL = 4 * np.finfo(float).eps
ENTROPY_FLOOR = 1e-300


class TestEntropyAgainstMpmath:
    """The closed forms against 30 correct digits over the whole domain."""

    @pytest.mark.parametrize("r", [3.0, 10.0, 12.0, 15.0, 18.0, 19.06, 20.0, -20.0])
    def test_large_squeeze(self, r):
        with mpmath.workdps(40):
            x = mpmath.sinh(mpmath.mpf(r)) ** 2
        want = _entropy_mpmath(x)
        assert abs(entropy_from_squeeze(r) - want) <= ENTROPY_REL * want

    @settings(max_examples=300)
    @given(st.floats(-20.0, 20.0))
    @example(18.0)
    @example(20.0)
    @example(1e-160)
    def test_squeeze_form(self, r):
        with mpmath.workdps(40):
            x = mpmath.sinh(mpmath.mpf(r)) ** 2
        want = _entropy_mpmath(x)
        assert abs(entropy_from_squeeze(r) - want) <= ENTROPY_REL * want + ENTROPY_FLOOR

    @settings(max_examples=300)
    @given(st.floats(0.0, 1e308) | st.floats(0.0, 100.0))
    @example(1e308)
    @example(5e-324)
    @example(1e-310)
    def test_phase_form(self, gamma_c):
        with mpmath.workdps(40):
            x = mpmath.mpf(gamma_c) / (4 * mpmath.pi)
        want = _entropy_mpmath(x)
        got = entropy_from_cyclic_phase(gamma_c)
        assert abs(got - want) <= ENTROPY_REL * want + ENTROPY_FLOOR


class TestArrayKernels:
    """The private kernels on float64 arrays give, entry by entry, the scalar API's bits."""

    RS = [0.0, -0.0, 1e-160, -1e-160, 5e-324, 0.3, -1.7, 8.0, 18.0, -20.0]
    WTS = [0.0, 1e-300, 0.7, math.pi, TAU, 1e6]

    @staticmethod
    def bits(values):
        return np.array(values, dtype=complex if isinstance(values[0], complex) else float).tobytes()

    @pytest.mark.parametrize("Omega", [1.0, -1.3])
    def test_phase_row(self, Omega):
        rs, wts = (np.array(v) for v in zip(*[(r, wt) for r in self.RS for wt in self.WTS]))
        ts = abs(wts / Omega)
        rows = phases._phase_row(phases._sinh2(rs), Omega, ts)
        scalar = [geometric_phase(r, Omega, t) for r, t in zip(rs.tolist(), ts.tolist())]
        for j, field in enumerate(("overlap", "total_phase", "dynamical_term_delta",
                                   "geometric_phase", "geometric_phase_unreduced")):
            assert rows[j].tobytes() == self.bits([getattr(b, field) for b in scalar]), field

    def test_cyclic_pair_and_entropies(self):
        rs = np.array(self.RS)
        sinh2 = phases._sinh2(rs)
        unreduced, reduced = phases._cyclic_phase(sinh2)
        assert unreduced.tobytes() == self.bits([cyclic_geometric_phase(r)[0] for r in self.RS])
        assert reduced.tobytes() == self.bits([cyclic_geometric_phase(r)[1] for r in self.RS])
        assert phases._entropy(sinh2).tobytes() == self.bits(
            [entropy_from_squeeze(r) for r in self.RS])
        gs = np.array([0.0, -0.0, 5e-324, 1e-310, 1.0, TAU, 1e308])
        assert phases._cyclic_entropy(gs).tobytes() == self.bits(
            [entropy_from_cyclic_phase(g) for g in gs.tolist()])

    # Around and across the list bound of _per_element, phases._BATCH_ROWS = 1024.
    SIZES = [0, 1, 1023, 1024, 1025, 2500]

    @pytest.mark.parametrize("size", SIZES)
    def test_kernels_across_the_list_bound(self, size):
        assert phases._BATCH_ROWS == 1024
        rng = np.random.default_rng(size)
        xs = rng.uniform(-3.0, 3.0, size)
        ys = rng.uniform(-3.0, 3.0, size)
        sinh2 = phases._sinh2(xs)
        cases = [
            (phases._arg, (xs + 1j * ys,)), (phases._arg, (xs,)),
            (phases._overlap, (sinh2, 5.0 * ys)), (phases._sinh2, (xs,)),
            (phases._entropy, (sinh2,)),
        ]
        for kernel, args in cases:
            got = kernel(*args)
            scalar = [kernel(*row) for row in zip(*(a.tolist() for a in args))]
            assert got.shape == (size,)
            if size:
                assert got.tobytes() == self.bits(scalar), kernel.__name__
            else:
                assert got.dtype == np.float64

    @pytest.mark.parametrize("size", SIZES[1:])
    @pytest.mark.parametrize("kernel,arity", [
        (phases._overlap, 2), (phases._delta, 3), (phases._phase_row, 3),
    ], ids=["overlap", "delta", "phase_row"])
    def test_a_float_stands_for_every_row(self, kernel, arity, size):
        # Each kernel of two or more arguments, with each choice of floats
        # that leaves an array: the mixed call equals, bit for bit, the call
        # that has a column of copies in each float's place.
        rng = np.random.default_rng(size)
        columns = [phases._sinh2(rng.uniform(-3.0, 3.0, size)), rng.uniform(0.5, 2.0, size),
                   rng.uniform(0.0, 20.0, size)][:arity]
        for fixed in itertools.product([False, True], repeat=arity):
            if all(fixed):
                continue
            mixed = kernel(*(float(c[0]) if f else c for c, f in zip(columns, fixed)))
            full = kernel(*(np.full(size, c[0]) if f else c for c, f in zip(columns, fixed)))
            mixed, full = (out if isinstance(out, tuple) else (out,) for out in (mixed, full))
            assert [m.tobytes() for m in mixed] == [f.tobytes() for f in full], fixed

    @pytest.mark.parametrize("size", SIZES)
    def test_no_list_is_longer_than_the_bound(self, size):
        # A probe kernel on probe arrays: each tolist is one list of entries,
        # and the kernel's calls after it fill one list of values.
        lists, calls = [], []

        class Probe(np.ndarray):
            def tolist(self):
                lists.append(self.size)
                calls.append(0)
                return super().tolist()

        @phases._per_element
        def probe(x):
            calls[-1] += 1
            return -x

        xs = np.arange(size, dtype=np.float64)
        got = probe(xs.view(Probe))
        assert np.asarray(got).tobytes() == (-xs).tobytes()
        assert max(lists, default=0) <= phases._BATCH_ROWS
        assert max(calls, default=0) <= phases._BATCH_ROWS
        assert sum(lists) == sum(calls) == size
        assert len(lists) == -(-size // phases._BATCH_ROWS)

    def test_reduce_angle_on_floats_and_arrays(self):
        # x a hair below 0 rounds x % 2 pi up to 2 pi, which reduces to 0.
        xs = [-1e-300, -0.0, 0.0, TAU, -TAU, 7.0, 1e17]
        got = phases._reduce_angle(np.array(xs))
        assert got.tobytes() == self.bits([phases._reduce_angle(x) for x in xs])
        assert phases._reduce_angle(-1e-300) == 0.0
        assert type(phases._reduce_angle(7.0)) is float
