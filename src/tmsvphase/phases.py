"""Closed-form phases and entanglement entropy of an evolving two-mode squeezed vacuum.

The state S(r, phi)|0> evolved under the two-mode oscillator Hamiltonian
H = Omega (n+ + n-) + epsilon (n+ - n-) (hbar = 1) stays a two-mode
squeezed vacuum, with phase angle phi - Omega t.  That reduces every
quantity of interest to closed form in r and Omega t:

    <psi(0)|psi(t)>  =  1 / (cosh^2 r - sinh^2 r e^{-2i Omega t})
    delta            =  2 Omega t sinh^2 r      (minus the dynamical phase)
    gamma            =  arg<psi(0)|psi(t)> + delta

gamma is the kinematic (Pancharatnam) geometric phase: gauge invariant,
and for a full cycle Omega t = 2 pi it becomes 4 pi sinh^2 r (mod 2 pi),
exactly twice the one-mode value.  The modulation frequency epsilon never
appears: it couples to n+ - n-, which vanishes on the paired-number
support of the state (the Fock oracle verifies this instead of assuming
it).

Conventions: angles in radians throughout; entropies in nats; reduced
phases live in [0, 2 pi).  All functions are pure and reentrant.

The public functions validate floats; the private kernels behind them
also take 1-D float64 arrays of one length (a sweep's columns), entry by
entry bit for bit the scalar call.  One rule makes a grid of rows: a float
argument stands for every row, as numpy broadcasts it, so a sweep hands its
fixed parameter over once as a float and never as a column of copies.
Real arithmetic (+, -, *, / and %) runs elementwise, where numpy rounds as
Python does, and each step that calls libm or divides complex numbers runs
per element (:func:`_per_element`).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .su11 import R_MAX, _require_finite, check_squeeze_factor

TAU = 2.0 * math.pi


# Rows a grid loop takes at a time: the lists of Python numbers in
# _per_element, the chunks of fock._cutoffs' bisection and of the table
# cli.cmd_sweep writes.  Each loop reads it here at call time; only memory
# depends on it, never a row's bits.
_BATCH_ROWS = 1024


def _per_element(f):
    """``f`` for floats; with any float64 array argument, ``f`` of each row, as an array.

    This is the one place where floats and arrays take different code.  The
    array arguments are 1-D of one length, and a float argument stands for
    every row, as numpy broadcasts it.  The rows go through ``f`` in lists of
    at most _BATCH_ROWS Python floats, into one preallocated array (float64
    if there are none).
    """
    # isinstance(x, np.ndarray), bound here: the scalar API pays for every lookup.
    is_array = np.ndarray.__instancecheck__

    @functools.wraps(f)
    def each(*xs):
        if not any(map(is_array, xs)):
            return f(*xs)
        size = np.broadcast(*xs).size
        out = np.empty(0)
        for start in range(0, size, _BATCH_ROWS):
            rows = slice(start, start + _BATCH_ROWS)
            values = list(map(f, *(x[rows].tolist() if is_array(x) else repeat(x) for x in xs)))
            if not start:  # the first value fixes the dtype
                out = np.empty(size, type(values[0]))
            out[rows] = values
        return out

    return each


_arg = _per_element(cmath.phase)


@_per_element
def _sinh2(r: float) -> float:
    """sinh^2 r as Python forms it: libm's sinh, then pow (numpy would square)."""
    return math.sinh(r) ** 2


def _reduce_angle(x):
    """Reduce an angle to [0, 2 pi); numpy's remainder is Python's float ``%``."""
    # x slightly below a multiple of 2 pi can round x % 2 pi up to 2 pi,
    # which the second % takes to 0; it keeps every other remainder.
    return x % TAU % TAU


@dataclass(frozen=True)
class HamiltonianParams:
    """Carrier frequency Omega and modulation frequency epsilon (radians/time).

    Both mode frequencies Omega +- epsilon must be positive, so Omega > 0
    and |epsilon| < Omega.
    """

    Omega: float
    epsilon: float = 0.0

    def __post_init__(self) -> None:
        omega = _require_finite("Omega", self.Omega)
        eps = _require_finite("epsilon", self.epsilon)
        if omega <= 0.0:
            raise ValueError(f"Omega must be positive, got {omega}")
        if abs(eps) >= omega:
            raise ValueError(
                f"|epsilon| = {abs(eps)} must be below Omega = {omega} "
                "so both mode frequencies stay positive"
            )
        object.__setattr__(self, "Omega", omega)
        object.__setattr__(self, "epsilon", eps)


class PhaseBreakdown(NamedTuple):
    """Overlap, total phase, dynamical term and geometric phase at one point.

    ``total_phase`` is arg of the overlap in (-pi, pi];
    ``geometric_phase_unreduced`` is total_phase + delta as a plain real
    number, and ``geometric_phase`` is the same value reduced to [0, 2 pi).
    """

    overlap: complex
    total_phase: float
    dynamical_term_delta: float
    geometric_phase: float
    geometric_phase_unreduced: float


class CyclicPhase(NamedTuple):
    unreduced: float
    reduced: float


def _check_args(r: float, Omega: float, t: float) -> tuple[float, float, float]:
    r = check_squeeze_factor(r)
    Omega = _require_finite("Omega", Omega)
    t = _require_finite("t", t)
    if t < 0.0:
        raise ValueError(f"t must be nonnegative, got {t}")
    return r, Omega, t


def overlap_analytic(r: float, Omega: float, t: float) -> complex:
    """Overlap <psi(0)|psi(t)> = 1 / (cosh^2 r - sinh^2 r e^{-2i Omega t}).

    Evaluated as the equal 1 / (1 + 2i sinh^2 r e^{-i Wt} sin Wt), Wt = Omega t,
    whose real part 1 + 2 sinh^2 r sin^2 Wt adds positive terms: no
    cosh^2 r - sinh^2 r cancellation.  The modulus equals
    (cos^2 Wt + sin^2 Wt cosh^2 2r)^(-1/2); the value is 1 at Wt = 2 pi.
    """
    r, Omega, t = _check_args(r, Omega, t)
    return _overlap(_sinh2(r), Omega * t)


@_per_element
def _overlap(sinh2: float, wt: float) -> complex:
    """:func:`overlap_analytic` from sinh^2 r and Wt = Omega t."""
    sin = math.sin(wt)
    s = 2.0 * sinh2 * sin
    return 1.0 / complex(1.0 + s * sin, s * math.cos(wt))


def total_phase_factor(r: float, Omega: float, t: float) -> complex:
    """Unit-modulus overlap phase factor, written directly in closed form.

    Returns e^{i Wt} (cos Wt - i sin Wt cosh 2r)
    / (cos^2 Wt + sin^2 Wt cosh^2 2r)^{1/2}; this equals
    ``overlap_analytic`` normalized to unit modulus.
    """
    r, Omega, t = _check_args(r, Omega, t)
    wt = Omega * t
    c2r = math.cosh(2.0 * r)
    num = cmath.exp(1j * wt) * complex(math.cos(wt), -math.sin(wt) * c2r)
    den = math.sqrt(math.cos(wt) ** 2 + math.sin(wt) ** 2 * c2r**2)
    return num / den


def dynamical_term(r: float, Omega: float, t: float) -> float:
    """The energy integral delta = 2 Omega t sinh^2 r (unreduced radians).

    This is minus the dynamical phase; it grows without bound in t.
    """
    r, Omega, t = _check_args(r, Omega, t)
    return _delta(_sinh2(r), Omega, t)


def _delta(sinh2, Omega, t):
    """:func:`dynamical_term` from sinh^2 r."""
    return 2.0 * Omega * t * sinh2


def geometric_phase(r: float, Omega: float, t: float) -> PhaseBreakdown:
    """Assemble overlap, total phase, delta and the geometric phase.

    gamma = arg<psi(0)|psi(t)> + delta.  Equivalently, as verified by the
    test suite, e^{i gamma} = e^{i Wt cosh 2r} (cos Wt - i sin Wt cosh 2r)
    / (cos^2 Wt + sin^2 Wt cosh^2 2r)^{1/2}.
    """
    r, Omega, t = _check_args(r, Omega, t)
    return PhaseBreakdown(*_phase_row(_sinh2(r), Omega, t))


def _phase_row(sinh2, Omega, t):
    """:func:`geometric_phase` from sinh^2 r, unvalidated, in PhaseBreakdown's field order.

    (overlap, total phase, delta, gamma in [0, 2 pi), unreduced gamma).
    """
    overlap = _overlap(sinh2, Omega * t)
    total = _arg(overlap)
    delta = _delta(sinh2, Omega, t)
    unreduced = total + delta
    return overlap, total, delta, _reduce_angle(unreduced), unreduced


def one_mode_cyclic_phase(r: float) -> float:
    """Cyclic geometric phase 2 pi sinh^2 r of one isolated squeezed mode.

    Returned unreduced; callers reduce mod 2 pi as needed.
    """
    return _one_mode_phase(_sinh2(check_squeeze_factor(r)))


def _one_mode_phase(sinh2):
    """:func:`one_mode_cyclic_phase` from sinh^2 r."""
    return TAU * sinh2


def cyclic_geometric_phase(r: float) -> CyclicPhase:
    """Cyclic (Omega t = 2 pi) geometric phase 4 pi sinh^2 r of the pair.

    The unreduced value is computed as exactly twice
    :func:`one_mode_cyclic_phase` (bit-for-bit, doubling is exact in
    binary floating point), which is the additivity of the two modes.
    """
    return _cyclic_phase(_sinh2(check_squeeze_factor(r)))


def _cyclic_phase(sinh2):
    """:func:`cyclic_geometric_phase` from sinh^2 r."""
    unreduced = 2.0 * _one_mode_phase(sinh2)
    return CyclicPhase(unreduced, _reduce_angle(unreduced))


@_per_element
def _entropy(x: float) -> float:
    """(1 + x) ln(1 + x) - x ln x, x >= 0, as log1p(x) + x log1p(1/x).

    Both terms are positive; the difference form loses every digit once
    x ln x dwarfs the result (r near 18).
    """
    if x == 0.0:
        return 0.0
    if math.isinf(1.0 / x):  # subnormal x: there x log1p(1/x) is -x ln x
        return math.log1p(x) - x * math.log(x)
    return math.log1p(x) + x * math.log1p(1.0 / x)


def entropy_from_squeeze(r: float) -> float:
    """Von Neumann entanglement entropy cosh^2 r ln cosh^2 r - sinh^2 r ln sinh^2 r.

    In nats; the r = 0 limit (0 ln 0 -> 0) is the product state with zero
    entropy.  Evaluated with x = sinh^2 r, a few ulp from exact for all |r|.
    """
    return _entropy(_sinh2(check_squeeze_factor(r)))


def entropy_from_cyclic_phase(gamma_c_unreduced: float) -> float:
    """Entropy expressed through the unreduced cyclic phase.

    With x = gamma_c / 4 pi this is (1 + x) ln(1 + x) - x ln x, the same
    curve as :func:`entropy_from_squeeze` under gamma_c = 4 pi sinh^2 r.
    The unreduced phase must be used: x = sinh^2 r may exceed any mod-2pi
    window.  Strictly increasing for gamma_c > 0.
    """
    g = _require_finite("gamma_c_unreduced", gamma_c_unreduced)
    if g < 0.0:
        raise ValueError(f"gamma_c_unreduced must be nonnegative, got {g}")
    return _cyclic_entropy(g)


def _cyclic_entropy(g):
    """:func:`entropy_from_cyclic_phase`, unvalidated."""
    return _entropy(g / (2.0 * TAU))


__all__ = [
    "R_MAX",
    "TAU",
    "CyclicPhase",
    "HamiltonianParams",
    "PhaseBreakdown",
    "cyclic_geometric_phase",
    "dynamical_term",
    "entropy_from_cyclic_phase",
    "entropy_from_squeeze",
    "geometric_phase",
    "one_mode_cyclic_phase",
    "overlap_analytic",
    "total_phase_factor",
]
