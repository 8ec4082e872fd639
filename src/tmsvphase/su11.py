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

The arithmetic is elementwise: each private kernel (``_c_pair``,
``_product``, ``_defect``, ``_decompose``, ``_reconstruct_pair``) takes
floats or numpy arrays through one numpy code path, so ``verify`` checks
thousands of samples in a few array calls.  The public functions are thin
wrappers over them that take and return validated scalars.  Everything is
pure and stateless; values are immutable and safe to share between threads.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

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


def _determinant(m11, m12):
    """|m11|^2 - |m12|^2, factored to keep the cancellation mild for large entries."""
    a, b = abs(m11), abs(m12)
    return (a - b) * (a + b)


def _defect(m11, m12):
    """Normalized determinant defect |det - 1| / max(1, |m11|^2) of a pair."""
    return abs(_determinant(m11, m12) - 1.0) / np.maximum(1.0, abs(m11) ** 2)


def _product(a, b):
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


# Above this |phi|, 2 phi overflows; compared instead of formed, so no warning.
_HALF_MAX = sys.float_info.max / 2.0


def _select(condition, if_true, if_false):
    """np.where, but a numpy scalar where every input is a scalar.

    numpy scalars do arithmetic as Python floats and complexes do, so the
    scalar API keeps their bits; a 0-d array would take the array loops,
    whose complex products may differ in the last bit.
    """
    return np.where(condition, if_true, if_false)[()]


def _exp2i(phi):
    """e^{2i phi} for any finite phi, a numpy scalar for a float.

    np.exp(2j * phi), but where 2 phi overflows (|phi| > DBL_MAX / 2) it is
    (e^{i phi})^2, since libm reduces any finite argument exactly.
    """
    big = abs(phi) > _HALF_MAX
    if isinstance(phi, np.ndarray):
        turn = np.exp(2j * np.where(big, 0.0, phi))
        half = np.exp(1j * phi[big])
        turn[big] = half * half
        return turn
    if big:
        half = np.exp(1j * phi)
        return half * half
    return np.exp(2j * phi)


def _c_pair(r, phi):
    """(m11, m12) of C(r, phi), unvalidated: (cosh r, e^{2i phi} sinh r), m11 real."""
    return np.cosh(r), _exp2i(phi) * np.sinh(r)


def c_matrix(p: SqueezeParams) -> GroupElement:
    """Bogoliubov matrix of one squeeze: m11 = cosh r, m12 = e^{2i phi} sinh r."""
    return GroupElement(*_c_pair(p.r, p.phi))


def multiply(a: GroupElement, b: GroupElement) -> GroupElement:
    """Matrix product restricted to the (m11, m12) representation."""
    return GroupElement(*_product((a.m11, a.m12), (b.m11, b.m12)))


def inverse(a: GroupElement) -> GroupElement:
    """Group inverse: m11 -> conj(m11), m12 -> -m12 (adjugate at det 1)."""
    return GroupElement(a.m11.conjugate(), -a.m12)


def _decompose(r1, phi1, r2, phi2):
    """(R, Phi, Theta) of C(r2, phi2) C(-r1, phi1), elementwise and unvalidated.

    See :func:`decompose_product`, which wraps it for one pair of squeezes.
    """
    m11, _ = _product(_c_pair(r2, phi2), _c_pair(-r1, phi1))
    # The product's m12 is the difference of two terms of size sinh r cosh r,
    # which loses all relative accuracy near the identity.  With
    # delta = phi'' - phi' the same entry is free of cancellation.  Where delta
    # overflows, e^{i delta} = e^{i phi''} e^{-i phi'}; sin delta is its imag,
    # which is libm's sin delta to the bit where delta is finite.
    with np.errstate(over="ignore", invalid="ignore"):  # only where delta overflows
        delta = np.subtract(phi2, phi1)
        turn = np.exp(1j * delta)
    turn = _select(np.isinf(delta), np.exp(1j * phi2) * np.exp(-1j * phi1), turn)
    sin_delta = turn.imag
    m12 = _exp2i(phi1) * (
        2j * turn * sin_delta * np.sinh(r2) * np.cosh(r1) + np.sinh(r2 - r1)
    )
    theta = np.arctan2(m11.imag, m11.real)
    big_r = np.arcsinh(abs(m12))
    phi = _select(big_r <= DEGENERATE_R, 0.0, 0.5 * (np.arctan2(m12.imag, m12.real) + theta))
    return big_r, phi, theta


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
    triple = _decompose(prime.r, prime.phi, doubleprime.r, doubleprime.phi)
    return DecompositionTriple(*map(float, triple))


def _reconstruct_pair(R, Phi, Theta):
    """(m11, m12) of C(R, Phi) e^{i Theta sigma_z}, elementwise and unvalidated."""
    return np.exp(1j * Theta) * np.cosh(R), np.exp(1j * (2.0 * Phi - Theta)) * np.sinh(R)


def reconstruct(triple: DecompositionTriple) -> GroupElement:
    """Rebuild the group element C(R, Phi) e^{i Theta sigma_z} from a triple."""
    return GroupElement(*_reconstruct_pair(triple.R, triple.Phi, triple.Theta))
