"""Tests for the SU(1,1) matrix algebra and the squeeze-product decomposition."""

import cmath
import math
import random
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tmsvphase import su11
from tmsvphase.su11 import (
    DEGENERATE_R,
    _exp2i,
    IDENTITY,
    DecompositionTriple,
    GroupElement,
    SqueezeParams,
    c_matrix,
    decompose_product,
    inverse,
    multiply,
    reconstruct,
)

# Frozen to 16+ digits with mpmath (40-digit working precision).
COSH_1 = 1.5430806348152437
SINH_1 = 1.1752011936438014
COSH_1_SQ = 2.3810978455418157
SINH_1_SQ = 1.3810978455418157
COSH_2 = 3.7621956910836314
# arg(cosh^2 1 + i sinh^2 1) and arccosh of |cosh^2 1 + i sinh^2 1|
THETA_QUARTER = 0.5256029929681379
COSH_R_QUARTER = 2.7526456744383433

squeeze_factors = st.floats(-3.0, 3.0, allow_nan=False)
angles = st.floats(-math.pi, math.pi, allow_nan=False)


def params(r, phi):
    return SqueezeParams(r, phi)


class TestSqueezeParams:
    def test_valid(self):
        p = params(1.5, -0.3)
        assert p.r == 1.5 and p.phi == -0.3

    @pytest.mark.parametrize("r", [float("nan"), float("inf"), 20.5, -25.0])
    def test_rejects_bad_r(self, r):
        with pytest.raises(ValueError):
            params(r, 0.0)

    def test_rejects_bad_phi(self):
        with pytest.raises(ValueError):
            params(0.5, float("nan"))


class TestCMatrix:
    def test_zero_squeeze_is_identity(self):
        m = c_matrix(params(0.0, 0.7))
        assert m.m11 == 1.0 + 0.0j
        assert m.m12 == 0.0j

    def test_unit_squeeze(self):
        m = c_matrix(params(1.0, 0.0))
        assert abs(m.m11 - COSH_1) < 1e-15
        assert abs(m.m12 - SINH_1) < 1e-15

    def test_half_pi_phase_flips_sign(self):
        # e^{2i phi} = -1 at phi = pi/2
        m = c_matrix(params(1.0, math.pi / 2))
        assert abs(m.m12 - (-SINH_1)) < 1e-15

    def test_full_matrix_structure(self):
        m = c_matrix(params(0.8, 0.4))
        mat = m.matrix()
        assert mat[1][0] == mat[0][1].conjugate()
        assert mat[1][1] == mat[0][0].conjugate()


class TestMultiply:
    def test_identity_is_neutral(self):
        x = c_matrix(params(1.2, 0.9))
        assert multiply(IDENTITY, x) == x
        assert multiply(x, IDENTITY) == x

    @pytest.mark.parametrize("r,phi", [(0.5, 0.0), (1.0, 0.7), (2.5, -1.1)])
    def test_unitarity_inverse_pair(self, r, phi):
        # S^{-1}(r, phi) = S(-r, phi), so the matrices cancel
        prod = multiply(c_matrix(params(r, phi)), c_matrix(params(-r, phi)))
        assert abs(prod.m11 - 1.0) < 1e-12
        assert abs(prod.m12) < 1e-12

    @pytest.mark.parametrize("phi", [0.0, 0.4, 2.1, -1.3])
    def test_quarter_turn_product_independent_of_phi(self, phi):
        # C(1, phi - pi/4) C(-1, phi) has m11 = cosh^2 1 + i sinh^2 1
        prod = multiply(
            c_matrix(params(1.0, phi - math.pi / 4)),
            c_matrix(params(-1.0, phi)),
        )
        assert abs(prod.m11 - (COSH_1_SQ + 1j * SINH_1_SQ)) < 1e-13

    @given(squeeze_factors, angles, squeeze_factors, angles)
    def test_product_stays_in_group(self, r1, p1, r2, p2):
        # GroupElement's constructor enforces the determinant condition
        prod = multiply(c_matrix(params(r1, p1)), c_matrix(params(r2, p2)))
        defect = abs(prod.determinant() - 1.0)
        assert defect <= 1e-9 * max(1.0, abs(prod.m11) ** 2)


class TestInverse:
    def test_identity(self):
        assert inverse(IDENTITY) == IDENTITY

    @pytest.mark.parametrize("r,phi", [(0.3, 0.0), (1.7, 1.1)])
    def test_inverse_is_negated_squeeze(self, r, phi):
        inv = inverse(c_matrix(params(r, phi)))
        neg = c_matrix(params(-r, phi))
        assert abs(inv.m11 - neg.m11) < 1e-15
        assert abs(inv.m12 - neg.m12) < 1e-15

    @given(squeeze_factors, angles, squeeze_factors, angles)
    def test_antihomomorphism(self, r1, p1, r2, p2):
        a, b = c_matrix(params(r1, p1)), c_matrix(params(r2, p2))
        lhs = inverse(multiply(a, b))
        rhs = multiply(inverse(b), inverse(a))
        scale = max(1.0, abs(lhs.m11))
        assert abs(lhs.m11 - rhs.m11) <= 1e-12 * scale
        assert abs(lhs.m12 - rhs.m12) <= 1e-12 * scale

    @given(squeeze_factors, angles)
    def test_roundtrip_to_identity(self, r, phi):
        a = c_matrix(params(r, phi))
        prod = multiply(a, inverse(a))
        assert abs(prod.m11 - 1.0) < 1e-12
        assert abs(prod.m12) < 1e-12


class TestGroupElementValidation:
    def test_rejects_wrong_determinant(self):
        with pytest.raises(ValueError):
            GroupElement(1.5 + 0.0j, 0.0j)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            GroupElement(complex("inf"), 0.0j)


class TestDecompose:
    def test_equal_params_is_degenerate_identity(self):
        triple = decompose_product(params(1.0, 0.3), params(1.0, 0.3))
        assert triple.R == 0.0
        assert triple.Phi == 0.0
        assert triple.Theta == 0.0
        assert triple.degenerate

    @pytest.mark.parametrize("phi", [0.0, 0.8, -2.2])
    def test_half_pi_gives_double_squeeze(self, phi):
        # m11 = cosh^2 1 + sinh^2 1 = cosh 2, real: R = 2, Theta = 0
        triple = decompose_product(params(1.0, phi), params(1.0, phi - math.pi / 2))
        assert abs(triple.R - 2.0) < 1e-12
        assert abs(triple.Theta) < 1e-12
        assert not triple.degenerate

    def test_degenerate_follows_r(self):
        assert DecompositionTriple(2.0, 0.1, 0.0).degenerate is False
        assert DecompositionTriple(DEGENERATE_R, 0.0, 1.0).degenerate is True
        with pytest.raises(TypeError):
            DecompositionTriple(R=2.0, Phi=0.1, Theta=0.0, degenerate=True)
        # Phi is canonically 0 when R vanishes; R is nonnegative.
        with pytest.raises(ValueError):
            DecompositionTriple(0.0, 0.1, 0.0)
        with pytest.raises(ValueError):
            DecompositionTriple(-1.0, 0.0, 0.0)

    def test_half_pi_matches_fock_overlap(self):
        # |<psi(0)|psi(t)>| = 1 / cosh R with Omega t = pi/2, r = 1
        from tmsvphase import fock, phases

        triple = decompose_product(params(1.0, 0.0), params(1.0, -math.pi / 2))
        _, (overlap,) = fock._energy_integrals(
            np.array([1.0]), phases.HamiltonianParams(1.0), np.array([math.pi / 2]), [60], 0.0,
        )
        assert abs(abs(overlap) - 1.0 / math.cosh(triple.R)) < 1e-9

    @pytest.mark.parametrize("phi", [0.0, 1.234])
    def test_quarter_pi_frozen_values(self, phi):
        triple = decompose_product(params(1.0, phi), params(1.0, phi - math.pi / 4))
        assert abs(math.cosh(triple.R) - COSH_R_QUARTER) < 1e-12
        assert abs(triple.Theta - THETA_QUARTER) < 1e-12
        # cosh^2 R = cos^2 Wt + sin^2 Wt cosh^2 2r at Wt = pi/4, r = 1
        closed = math.sqrt(
            math.cos(math.pi / 4) ** 2 + math.sin(math.pi / 4) ** 2 * COSH_2**2
        )
        assert abs(math.cosh(triple.R) - closed) < 1e-12

    @given(squeeze_factors, angles, squeeze_factors, angles)
    def test_reconstruction(self, rp, pp, rd, pd):
        prime, dbl = params(rp, pp), params(rd, pd)
        target = multiply(c_matrix(dbl), c_matrix(params(-prime.r, prime.phi)))
        rebuilt = reconstruct(decompose_product(prime, dbl))
        assert abs(rebuilt.m11 - target.m11) < 1e-10
        assert abs(rebuilt.m12 - target.m12) < 1e-10

    def test_theta_principal_branch(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            prime = params(rng.uniform(-3, 3), rng.uniform(-math.pi, math.pi))
            dbl = params(rng.uniform(-3, 3), rng.uniform(-math.pi, math.pi))
            triple = decompose_product(prime, dbl)
            assert -math.pi < triple.Theta <= math.pi
            assert triple.R >= 0.0

    @given(squeeze_factors, angles, angles, st.floats(-2.0, 2.0, allow_nan=False))
    @example(r=1.0, pp=1e-8, pd=0.0, shift=1.0)  # m12 near the identity
    def test_phi_shift_covariance(self, r, pp, pd, shift):
        base = decompose_product(params(r, pp), params(r, pd))
        moved = decompose_product(params(r, pp + shift), params(r, pd + shift))
        assert abs(moved.R - base.R) < 1e-12
        assert abs(moved.Theta - base.Theta) < 1e-12
        if not base.degenerate:
            # Phi picks up the common shift, modulo the pi ambiguity of 2*Phi
            got = cmath.exp(2j * moved.Phi)
            want = cmath.exp(2j * (base.Phi + shift))
            assert abs(got - want) < 1e-9


class TestClosureChain:
    def test_hundred_product_chains(self):
        rng = np.random.default_rng(0)
        for chain in range(40):
            element = IDENTITY
            for _ in range(100):
                p = params(rng.uniform(-3, 3), rng.uniform(-math.pi, math.pi))
                element = multiply(element, c_matrix(p))
                defect = abs(element.determinant() - 1.0)
                # Normalized: the absolute defect is not float-representable
                # once |m11| is large (it scales as eps * |m11|^2).
                assert defect <= 1e-9 * max(1.0, abs(element.m11) ** 2)


class TestMatrixConsistency:
    def test_against_closed_form_on_evolution_family(self):
        # The (1,1) product element must reproduce the closed-form total
        # phase factor: equal modulus, opposite argument.
        from tmsvphase.cli import circle_distance
        from tmsvphase.phases import total_phase_factor

        for r in np.arange(0.0, 2.0001, 0.25):
            for wt in np.linspace(0.0, 2.0 * math.pi, 63):
                m = multiply(
                    c_matrix(params(r, 0.3 - wt)),
                    c_matrix(params(-r, 0.3)),
                )
                closed_modulus = math.sqrt(
                    math.cos(wt) ** 2 + math.sin(wt) ** 2 * math.cosh(2 * r) ** 2
                )
                assert abs(abs(m.m11) - closed_modulus) < 1e-10
                tpf = total_phase_factor(r, 1.0, float(wt))
                assert (
                    circle_distance(cmath.phase(m.m11), -cmath.phase(tpf)) < 1e-10
                )


class TestExp2i:
    """e^{2i phi} for every finite phi, from one helper."""

    HALF_MAX = sys.float_info.max / 2.0

    @given(phi=st.floats(allow_nan=False, allow_infinity=False))
    @example(phi=0.0)
    @example(phi=-0.0)
    @example(phi=HALF_MAX)
    @example(phi=math.nextafter(HALF_MAX, math.inf))
    @example(phi=-1e308)
    @example(phi=sys.float_info.max)
    def test_finite_for_every_finite_angle(self, phi):
        got = _exp2i(phi)
        if math.isinf(2.0 * phi):
            half = cmath.exp(1j * phi)
            assert got == half * half
            assert abs(abs(got) - 1.0) <= 4 * sys.float_info.epsilon
        else:
            # The bits su11 (cmath) and fock (numpy) formed before the helper.
            assert got == cmath.exp(2j * phi) == complex(np.exp(2j * phi))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_ordinary_angles_are_numpy_exp_bit_for_bit(self):
        phis = np.array([0.0, -0.0, 0.3, -2.5, 1e3, -7e15, 1e300, self.HALF_MAX])
        got = _exp2i(phis)
        assert got.tobytes() == np.exp(2j * phis).tobytes()
        for phi in phis.tolist():
            assert complex(_exp2i(phi)) == complex(np.exp(2j * phi))
            assert isinstance(_exp2i(phi), np.complex128)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_angles_square_only_their_own_entries(self):
        big = [math.nextafter(self.HALF_MAX, math.inf), -1e308, sys.float_info.max]
        phis = np.array([0.3, *big, -2.5])
        got = _exp2i(phis)
        assert np.isfinite(got).all()
        half = np.exp(1j * phis[1:4])
        assert got[1:4].tobytes() == (half * half).tobytes()
        assert got[[0, 4]].tobytes() == np.exp(2j * phis[[0, 4]]).tobytes()
        for phi in big:
            half = np.exp(1j * phi)
            assert _exp2i(phi) == half * half

    def test_decompose_huge_angle(self):
        # 2 phi' overflows in both factors that carry phi'.
        triple = decompose_product(params(1.0, 1e308), params(1.0, 0.0))
        assert all(map(math.isfinite, (triple.R, triple.Phi, triple.Theta)))
        target = multiply(c_matrix(params(1.0, 0.0)), c_matrix(params(-1.0, 1e308)))
        rebuilt = reconstruct(triple)
        assert abs(rebuilt.m11 - target.m11) < 1e-10
        assert abs(rebuilt.m12 - target.m12) < 1e-10


EPS = sys.float_info.epsilon
# Huge angles of TestExp2i and test_decompose_huge_angle, 2 phi overflowing
# in some, and phi'' - phi' in the last.
HUGE_ANGLES = [0.0, -0.0, TestExp2i.HALF_MAX, math.nextafter(TestExp2i.HALF_MAX, math.inf),
               -1e308, 1e308, sys.float_info.max]


class TestElementwiseKernels:
    """Each su11 kernel on arrays agrees element by element with the scalar API.

    The array loops round some complex products and transcendental functions
    differently from numpy's scalars in the last bit, so agreement is within
    a few ulp of each output's own scale: cosh r for a squeeze's entries, the
    product of the factors' cosh r for a product's, and that over cosh R for
    an angle read from a product (its condition number).
    """

    ULPS = 4

    @staticmethod
    def draws(count, seed):
        rng = random.Random(seed)
        return np.array([
            (rng.uniform(-3, 3), rng.uniform(-math.pi, math.pi)) for _ in range(count)
        ]).T

    def test_c_pair(self):
        r, phi = self.draws(2000, 1)
        m11, m12 = su11._c_pair(r, phi)
        for i, element in enumerate(map(c_matrix, map(params, r.tolist(), phi.tolist()))):
            scale = self.ULPS * EPS * math.cosh(r[i])
            assert abs(m11[i] - element.m11) <= scale
            assert abs(m12[i] - element.m12) <= scale

    def test_product_and_defect(self):
        (r1, phi1), (r2, phi2) = self.draws(2000, 2), self.draws(2000, 3)
        a = [c_matrix(params(*rp)) for rp in zip(r1.tolist(), phi1.tolist())]
        b = [c_matrix(params(*rp)) for rp in zip(r2.tolist(), phi2.tolist())]
        pairs = [np.array([(x.m11, x.m12) for x in elements]).T for elements in (a, b)]
        m11, m12 = su11._product(*pairs)
        defects = su11._defect(m11, m12)
        for i, element in enumerate(map(multiply, a, b)):
            scale = self.ULPS * EPS * math.cosh(r1[i]) * math.cosh(r2[i])
            assert abs(m11[i] - element.m11) <= scale
            assert abs(m12[i] - element.m12) <= scale
        # The same pairs through the scalar defect: it is normalized by |m11|^2.
        scalar = [su11._defect(*pair) for pair in zip(m11.tolist(), m12.tolist())]
        assert np.abs(defects - scalar).max() <= 2 * self.ULPS * EPS

    def test_decompose_and_reconstruct(self):
        (r1, phi1), (r2, phi2) = self.draws(2000, 4), self.draws(2000, 5)
        R, Phi, Theta = su11._decompose(r1, phi1, r2, phi2)
        rebuilt = su11._reconstruct_pair(R, Phi, Theta)
        for i in range(r1.size):
            triple = decompose_product(params(r1[i], phi1[i]), params(r2[i], phi2[i]))
            cond = 1.0 + math.cosh(r1[i]) * math.cosh(r2[i]) / math.cosh(triple.R)
            assert abs(R[i] - triple.R) <= self.ULPS * EPS * cond
            assert abs(Theta[i] - triple.Theta) <= self.ULPS * EPS * cond
            # Phi is fixed modulo pi.
            assert abs(cmath.exp(2j * Phi[i]) - cmath.exp(2j * triple.Phi)) <= (
                self.ULPS * EPS * cond)
            # Rebuilt from the same triple, the kernel is the scalar API's.
            element = reconstruct(triple)
            same = su11._reconstruct_pair(triple.R, triple.Phi, triple.Theta)
            assert (same[0], same[1]) == (element.m11, element.m12)
            assert abs(rebuilt[0][i] - element.m11) <= self.ULPS * EPS * cond * math.cosh(triple.R)

    def test_huge_angles_warn_nothing(self):
        phi = np.array(HUGE_ANGLES + [-a for a in HUGE_ANGLES])
        pairs = [(1.0, a, 1.0, 0.0) for a in phi.tolist()] + [
            (1.0, 1e308, 1.0, -1e308), (1.0, -1e308, 1.0, 1e308), (0.5, 1e308, -0.3, 1e308),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            turns = _exp2i(phi)
            R, Phi, Theta = su11._decompose(*np.array(pairs).T)
        for turn, angle in zip(turns.tolist(), phi.tolist()):
            assert abs(turn - _exp2i(angle)) <= 2 * EPS
        for i, (r1, phi1, r2, phi2) in enumerate(pairs):
            triple = decompose_product(params(r1, phi1), params(r2, phi2))
            cond = 1.0 + math.cosh(r1) * math.cosh(r2) / math.cosh(triple.R)
            assert abs(R[i] - triple.R) <= self.ULPS * EPS * cond
            assert abs(Theta[i] - triple.Theta) <= self.ULPS * EPS * cond
            assert abs(cmath.exp(2j * Phi[i]) - cmath.exp(2j * triple.Phi)) <= (
                self.ULPS * EPS * cond)

    def test_scalars_in_scalars_out(self):
        # A 0-d array would take numpy's array loops in the caller's arithmetic.
        values = [_exp2i(0.3), _exp2i(1e308), *su11._decompose(1.0, 0.3, 0.5, 1e308)]
        assert not any(isinstance(value, np.ndarray) for value in values)
        triple = decompose_product(params(1.0, 0.3), params(0.5, -0.2))
        assert all(type(value) is float for value in (triple.R, triple.Phi, triple.Theta))
