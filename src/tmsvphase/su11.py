"""SU(1,1)-with-phase matrix algebra for two-mode squeeze transformations.

A two-mode squeeze with factor ``r`` and phase angle ``phi`` acts on the
mode operators through the Bogoliubov matrix

    C(r, phi) = [[cosh r,             e^{+2i phi} sinh r],
                 [e^{-2i phi} sinh r, cosh r            ]].

Every matrix in this family, every product of such matrices, and the
rotation factor ``diag(e^{i Theta}, e^{-i Theta})`` share the structure

    [[m11, m12], [conj(m12), conj(m11)]],   |m11|^2 - |m12|^2 = 1,

so the pair ``(m11, m12)`` fixes the whole matrix and the conjugate
structure holds by construction.  The key operation is
:func:`decompose_product`, which factors the product of two squeezes into
a single squeeze times a number rotation; the rotation angle is what
carries the overlap phase of an evolving squeezed vacuum.

Everything here is scalar, pure and stateless; values are immutable and
safe to share between threads.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

#: Cap on |r| so that cosh/sinh (and their squares) stay representable.
R_MAX = 20.0

#: Normalized determinant defect allowed for a valid group element.
DET_TOL = 1e-9

#: Below this R the squeeze part is the identity and Phi is unconstrained.
DEGENERATE_R = 1e-12


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def check_squeeze_factor(r: float) -> float:
    """Validate a squeeze factor: finite and |r| <= R_MAX (overflow guard)."""
    r = _require_finite("squeeze factor r", r)
    if abs(r) > R_MAX:
        raise ValueError(f"|r| = {abs(r)} exceeds the overflow cap {R_MAX}")
    return r


@dataclass(frozen=True)
class SqueezeParams:
    """Squeeze factor ``r`` and phase angle ``phi`` (radians) of one squeeze.

    ``phi`` is stored as given; the Bogoliubov matrix depends on it only
    through e^{+-2i phi}, so two angles differing by pi are equivalent.
    """

    r: float
    phi: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", check_squeeze_factor(self.r))
        object.__setattr__(self, "phi", _require_finite("phase angle phi", self.phi))


def _determinant(m11: complex, m12: complex) -> float:
    """|m11|^2 - |m12|^2, factored to keep the cancellation mild for large entries."""
    a, b = abs(m11), abs(m12)
    return (a - b) * (a + b)


def _defect(m11: complex, m12: complex) -> float:
    """Normalized determinant defect |det - 1| / max(1, |m11|^2) of a pair."""
    return abs(_determinant(m11, m12) - 1.0) / max(1.0, abs(m11) ** 2)


def _product(a: tuple[complex, complex], b: tuple[complex, complex]) -> tuple[complex, complex]:
    """(m11, m12) of the matrix product of two (m11, m12) pairs, unvalidated."""
    (a11, a12), (b11, b12) = a, b
    return a11 * b11 + a12 * b12.conjugate(), a11 * b12 + a12 * b11.conjugate()


@dataclass(frozen=True)
class GroupElement:
    """The pair (m11, m12) representing [[m11, m12], [conj(m12), conj(m11)]].

    The determinant condition |m11|^2 - |m12|^2 = 1 is checked in the
    normalized form |det - 1| <= DET_TOL * max(1, |m11|^2); the absolute
    defect is not a float-representable quantity once |m11| is large.
    """

    m11: complex
    m12: complex

    def __post_init__(self) -> None:
        m11 = complex(self.m11)
        m12 = complex(self.m12)
        if not (cmath.isfinite(m11) and cmath.isfinite(m12)):
            raise ValueError("group element entries must be finite")
        if _defect(m11, m12) > DET_TOL:
            raise ValueError(
                f"not an SU(1,1)-with-phase element: |m11|^2 - |m12|^2 = "
                f"{_determinant(m11, m12)!r}"
            )
        object.__setattr__(self, "m11", m11)
        object.__setattr__(self, "m12", m12)

    def determinant(self) -> float:
        return _determinant(self.m11, self.m12)

    def matrix(self) -> list[list[complex]]:
        """The full 2x2 matrix, reconstructed from the stored pair."""
        return [
            [self.m11, self.m12],
            [self.m12.conjugate(), self.m11.conjugate()],
        ]


#: The identity element (r = 0 squeeze, zero rotation).
IDENTITY = GroupElement(1.0 + 0.0j, 0.0j)


@dataclass(frozen=True)
class DecompositionTriple:
    """Parameters (R, Phi, Theta) of the squeeze-times-rotation factorization.

    ``R >= 0`` by convention (signs are absorbed into Phi), ``Theta`` is the
    principal rotation angle in (-pi, pi], and :attr:`degenerate` flags the
    R = 0 case where Phi is unconstrained and canonically 0.
    """

    R: float
    Phi: float
    Theta: float

    def __post_init__(self) -> None:
        if self.R < 0.0:
            raise ValueError("R must be nonnegative by convention")
        if self.degenerate and self.Phi != 0.0:
            raise ValueError("Phi is canonically 0 when R vanishes")

    @property
    def degenerate(self) -> bool:
        return self.R <= DEGENERATE_R


def _exp2i(phi: float) -> complex:
    """e^{2i phi} for any finite phi.

    Once 2 phi overflows (|phi| > DBL_MAX / 2), exp(2j * phi) is NaN; there
    it is (e^{i phi})^2, since libm reduces any finite argument exactly.
    """
    if math.isinf(2.0 * phi):
        half = cmath.exp(1j * phi)
        return half * half
    return cmath.exp(2j * phi)


def _c_pair(r: float, phi: float) -> tuple[complex, complex]:
    """(m11, m12) of C(r, phi), unvalidated: (cosh r, e^{2i phi} sinh r)."""
    return complex(math.cosh(r)), _exp2i(phi) * math.sinh(r)


def c_matrix(p: SqueezeParams) -> GroupElement:
    """Bogoliubov matrix of one squeeze: m11 = cosh r, m12 = e^{2i phi} sinh r."""
    return GroupElement(*_c_pair(p.r, p.phi))


def multiply(a: GroupElement, b: GroupElement) -> GroupElement:
    """Matrix product restricted to the (m11, m12) representation."""
    return GroupElement(*_product((a.m11, a.m12), (b.m11, b.m12)))


def inverse(a: GroupElement) -> GroupElement:
    """Group inverse: m11 -> conj(m11), m12 -> -m12 (adjugate at det 1)."""
    return GroupElement(a.m11.conjugate(), -a.m12)


def decompose_product(
    prime: SqueezeParams, doubleprime: SqueezeParams
) -> DecompositionTriple:
    """Factor S(prime)^dagger S(doubleprime) into squeeze times rotation.

    Forms M = C(doubleprime) C(-r', phi') and solves
    C(R, Phi) diag(e^{i Theta}, e^{-i Theta}) = M for the triple:

        Theta = arg(m11) in (-pi, pi]
        R     = arcsinh(|m12|) >= 0
        Phi   = (arg(m12) + Theta) / 2, or 0 when R vanishes.

    R is taken from |m12| rather than the equivalent arccosh(|m11|): the
    determinant condition makes the two identical, but arccosh turns
    eps-level rounding in m11 into sqrt(eps)-level noise in R near the
    identity, which would swamp the 1e-12 degeneracy threshold.  The
    element rebuilt by :func:`reconstruct` reproduces M to within 1e-10
    componentwise for |r| <= 3 (see the test suite).

    Returns
    -------
    DecompositionTriple
        Degenerate when R = 0 (within 1e-12), in which case Phi carries no
        information; Theta is still meaningful.
    """
    m11, _ = _product(_c_pair(doubleprime.r, doubleprime.phi), _c_pair(-prime.r, prime.phi))
    # The product's m12 is the difference of two terms of size sinh r cosh r,
    # which loses all relative accuracy near the identity.  With
    # delta = phi'' - phi' the same entry is free of cancellation.  Where delta
    # overflows, e^{i delta} = e^{i phi''} e^{-i phi'}, with sin delta its imag:
    delta = doubleprime.phi - prime.phi
    if math.isinf(delta):
        turn = cmath.exp(1j * doubleprime.phi) * cmath.exp(-1j * prime.phi)
        sin_delta = turn.imag
    else:
        turn, sin_delta = cmath.exp(1j * delta), math.sin(delta)
    m12 = _exp2i(prime.phi) * (
        2j * turn * sin_delta
        * math.sinh(doubleprime.r) * math.cosh(prime.r)
        + math.sinh(doubleprime.r - prime.r)
    )
    # math.atan2 instead of cmath.phase: the latter raises OverflowError on
    # subnormal components (libm underflow reported as ERANGE).
    theta = math.atan2(m11.imag, m11.real)
    big_r = math.asinh(abs(m12))
    if big_r <= DEGENERATE_R:
        phi = 0.0
    else:
        phi = 0.5 * (math.atan2(m12.imag, m12.real) + theta)
    return DecompositionTriple(R=big_r, Phi=phi, Theta=theta)


def _reconstruct_pair(triple: DecompositionTriple) -> tuple[complex, complex]:
    """(m11, m12) of C(R, Phi) e^{i Theta sigma_z}, unvalidated."""
    return (
        cmath.exp(1j * triple.Theta) * math.cosh(triple.R),
        cmath.exp(1j * (2.0 * triple.Phi - triple.Theta)) * math.sinh(triple.R),
    )


def reconstruct(triple: DecompositionTriple) -> GroupElement:
    """Rebuild the group element C(R, Phi) e^{i Theta sigma_z} from a triple."""
    return GroupElement(*_reconstruct_pair(triple))
