"""Truncated Fock-space oracle for the two-mode squeezed vacuum.

Everything the closed forms in :mod:`tmsvphase.phases` claim is recomputed
here from first principles: states as coefficient vectors, squeezing by
a Chebyshev series of the generator's exponential on the vacuum,
evolution as literal Hamiltonian phase factors, the dynamical term as t
times the conserved energy expectation, entropy of the Schmidt spectrum,
and operator-identity residuals on the full two-mode space.

Two representations are used, chosen by what truncation does to them:

* State-level quantities live on the diagonal subspace span{|n>|n>}; the
  squeezed vacuum never leaves it, so states are O(N) coefficient vectors
  (:class:`DiagonalFockState`) and cutoffs of several hundred are cheap.
* Operator identities act on the full product basis |n+>|n->, but every
  operator checked there conserves d = n+ - n-, and each sector d is one
  truncated discrete-series SU(1,1) representation of N + 1 - |d| states,
  so operators are 2N + 1 sector blocks (:class:`SectorBlockOperator`).

Every quantity over time (overlap, energy integral, geometric phase) goes
through one grid route over rows of (r, t), for one point or a whole
sweep, in blocks of rows sharing a cutoff (:func:`_energy_integrals`),
with digits independent of the grid.
The phase e^{-i t (E_n + shift)} is the product of two tables of about
sqrt(N) exponentials each (:func:`_phases`), and a row's overlap is a
contraction of those tables against a table of |c_n|^2 (:func:`_moments`),
checked against the literal evolved state of :func:`evolve`.  Evolution
keeps every |c_n|, so the energy integral over [0, t] is t <H>_0, and
no function over time takes phi: the grid reads only the real moduli of
:func:`_moduli`.

Truncation error policy: |c_n|^2 = tanh^{2n} r / cosh^2 r, so every
truncation error has a closed-form geometric tail in the cutoff N, and
:func:`cutoff_for` is the one place that turns an observable's accuracy
target into N.  A grid's cutoffs come from one bisection over its rows
at once (:func:`_cutoffs`): each is the smallest N whose tail is within
the accuracy, up to ties within the tail's rounding.  A row over time then
runs at the largest cutoff its phase tables hold, P Q - 1 (:func:`_sides`),
or at ``max_cutoff`` if less: its (Q, P) tables of |c_n|^2 hold P Q entries
anyway, so its tail shrinks at no cost in the contraction, and rows whose
tables have one shape share one cutoff.  Operator identities
are asserted only on entries a ``margin`` away from the cutoff, where the
constructions used here keep them exact up to rounding.

No state outlives a call: results depend only on the arguments.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import phases
from .errors import CutoffExceededError, ExpmNotConvergedError
from .phases import HamiltonianParams, _arg, _reduce_angle
from .su11 import R_MAX, _exp2i, _require_finite, check_squeeze_factor

#: Default bound on diagonal-subspace cutoffs (vectors of this length).
DEFAULT_MAX_CUTOFF = 4096

#: Bound on full two-mode cutoffs, where :func:`two_mode_squeeze_operator` is accurate.
FULL_SPACE_MAX_CUTOFF = 32

#: Norm defect above which an exponentiated generator is considered broken.
_EXPM_NORM_TOL = 1e-12

# Entries a block of the grid oracle holds (:func:`_row_entries`): 630 sweep
# rows at N = 379, or 20 such rows when they differ in r.
_BLOCK_ELEMENTS = 24576


@dataclass(frozen=True)
class DiagonalFockState:
    """Amplitudes c_0..c_N on the paired-number states |n>|n>.

    The stored array is an immutable complex128 copy of a non-empty 1-D
    ``coeffs``, whose length fixes the cutoff N.  States never
    over-normalize: sum |c_n|^2 <= 1 + 1e-12 (they may under-normalize by
    the dropped mass).
    """

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.coeffs, dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError(f"expected a non-empty 1-D array, got shape {arr.shape}")
        if not np.isfinite(arr.view(np.float64)).all():
            raise ValueError("coefficients must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)
        if self.squared_norm() > 1.0 + 1e-12:
            raise ValueError(f"state over-normalized: |psi|^2 = {self.squared_norm()}")

    @property
    def cutoff(self) -> int:
        return self.coeffs.size - 1

    def squared_norm(self) -> float:
        return float((np.abs(self.coeffs) ** 2).sum())


@dataclass(frozen=True)
class SectorBlockOperator:
    """An operator conserving d = n+ - n-, one block per sector d.

    ``stack`` has shape (2N + 1, N + 1, N + 1), which fixes the cutoff N.
    ``stack[d + N]`` is indexed by n+ on both axes: sector d holds the
    states with n+ = max(d, 0) .. N + min(d, 0), so its block is a square of
    side N + 1 - |d| on the diagonal, with zeros around it.  The stored
    stack is an immutable complex128 copy.
    """

    stack: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.stack, dtype=np.complex128)
        N = arr.shape[1] - 1 if arr.ndim == 3 else -1
        if N < 0 or arr.shape != (2 * N + 1, N + 1, N + 1):
            raise ValueError(f"expected a (2N+1, N+1, N+1) stack, got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "stack", arr)

    @property
    def cutoff(self) -> int:
        return self.stack.shape[1] - 1

    def block(self, d: int) -> np.ndarray:
        if abs(d) > self.cutoff:
            raise IndexError(f"sector {d} lies outside cutoff {self.cutoff}")
        low, high = max(d, 0), self.cutoff + 1 + min(d, 0)
        return self.stack[d + self.cutoff, low:high, low:high]


class RotationResiduals(NamedTuple):
    rotation: float
    modulation: float


def _count(name: str, value, top=math.inf, over=ValueError) -> int:
    """A cutoff or margin read through ``operator.index``, so 3.0 is refused: a
    ValueError below 0 or not an integer, an ``over`` above ``top``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")
    if value > top:
        raise over(f"{name} {value} exceeds {top}")
    return value


# ---------------------------------------------------------------------------
# Cutoff selection


def cutoff_for(
    observable: str,
    r: float,
    accuracy: float,
    *,
    t: float = 0.0,
    max_cutoff: int = DEFAULT_MAX_CUTOFF,
) -> int:
    """Smallest cutoff N whose truncation error for ``observable`` is <= accuracy.

    With x = tanh^2 r, m = x^{N+1} the dropped mass and ``t`` the evolution
    angle Omega t, each error is a closed-form tail (:func:`_tails`),
    strictly decreasing in N:

    * ``mass``: m, which also bounds the error of any overlap;
    * ``energy``: the energy integral misses
      Omega t sum_{n>N} 2n (1 - x) x^n = Omega t 2m ((N+1)(1 - x) + x) / (1 - x);
    * ``phase``: the energy tail plus cosh 2r m, the first-order error of
      arg<psi(0)|psi(t)>, whose modulus is at least 1 / cosh 2r;
    * ``entropy``: the renormalized spectrum misses H(m) / (1 - m), H the
      binary entropy, since the dropped tail is again geometric; this is
      at most m (1 - ln m) / (1 - m);
    * ``expm``: the first dropped amplitude tanh^{N+1}|r| / cosh r, the
      boundary reflection of the exponentiated truncated generator.

    A bisection over N finds where the computed tail crosses ``accuracy``;
    this is the one-row case of :func:`_cutoffs`.  The computed tail is off
    by rounding: against 60-digit mpmath, over 4500 random rows with r <= 18.99,
    N <= 10^9 and Omega t <= 20, by at most 6 (1 + |ln tail|) eps relative, and
    1.4e-13 for r <= 10, N < 300.  So where the exact tail at N or N - 1 lies
    that close to ``accuracy``, N can be one above or one below the exact smallest:
    ``cutoff_for("expm", 1e-9, 1e-9)`` is 1 where 0 is.

    Raises
    ------
    CutoffExceededError
        If the cutoff would exceed ``max_cutoff``, or if tanh r rounds to 1
        (in numpy) so that no finite cutoff drops a vanishing mass.
    """
    r_row, t_row = np.array([float(r)]), np.array([float(t)])
    return int(_cutoffs(observable, r_row, t_row, accuracy, max_cutoff)[0])


_OBSERVABLES = ("mass", "energy", "phase", "entropy", "expm")

# Top of the bisection's bracket when max_cutoff is larger, so that lo + hi
# fits in int64: no row needing more could be allocated anyway.
_BRACKET_TOP = 2**62


def _tails(
    observable: str, factors: np.ndarray, wt: np.ndarray, N: np.ndarray | int
) -> np.ndarray:
    """``observable``'s tail as :func:`cutoff_for` documents it, elementwise
    at angles wt = |Omega t| and cutoffs N >= 0, from the rows log tanh r,
    cosh r, 1 / cosh^2 r = 1 - x and cosh 2r of ``factors`` at squeezes r >= 0.

    Each keeps the documented expression and its order: energy is (m weight)
    wt and phase (m weight) wt + cosh 2r m.  At r = 0 every tail is 0.
    """
    log_tanh, cosh_r, one_minus_x, cosh_2r = factors
    if observable == "expm":
        return np.exp((N + 1) * log_tanh) / cosh_r
    log_mass = 2.0 * (N + 1) * log_tanh
    mass = np.exp(log_mass)
    if observable == "mass":
        return mass
    if observable == "entropy":
        return mass * (1.0 - log_mass) / -np.expm1(log_mass)
    weight = 2.0 * ((N + 1) * one_minus_x + 1.0 - one_minus_x) / one_minus_x
    energy = mass * weight * wt
    return energy + cosh_2r * mass if observable == "phase" else energy


def _cutoffs(
    observable: str, rs: np.ndarray, wts: np.ndarray, accuracy: float, max_cutoff: int
) -> np.ndarray:
    """:func:`cutoff_for` at each row (rs[i], Omega t = wts[i]) of two 1-D float arrays.

    Either array may be a broadcast view of one value, as ``_evolution``
    passes a fixed r or t: every step reads a chunk's rows through np.abs,
    a fresh contiguous array, so a row's bits do not depend on how it came.
    Rows go ``phases._BATCH_ROWS`` at a time, each tail from the L_hi of
    :func:`_log_tanh` that the moduli it truncates read.  A chunk's rows are
    checked in one pass each (r valid, numpy's float64 tanh r below 1, Omega t
    finite, the tail at the top of the bracket within ``accuracy``), and the
    first row in grid order that fails one raises the error it raises alone.
    Then one bisection, from the bracket lo = -1, hi = max_cutoff (at most
    _BRACKET_TOP), keeps tail(lo) > accuracy >= tail(hi) on every row of the
    chunk at once, so hi ends where the computed tail crosses ``accuracy``:
    the smallest N, up to the ties :func:`cutoff_for` describes.  A row whose
    bracket has closed probes max(lo, 0), which keeps it.
    """
    if not (0.0 < accuracy < 1.0):
        raise ValueError(f"accuracy must lie in (0, 1), got {accuracy}")
    max_cutoff = _count("max_cutoff", max_cutoff)
    if observable not in _OBSERVABLES:
        raise ValueError(f"unknown observable {observable!r}, not in {list(_OBSERVABLES)}")
    top = min(max_cutoff, _BRACKET_TOP)
    cutoffs = np.empty(wts.size, dtype=np.int64)
    for start in range(0, wts.size, phases._BATCH_ROWS):
        rows = slice(start, start + phases._BATCH_ROWS)
        r, wt = np.abs(rs[rows]), np.abs(wts[rows])
        # Refused rows (r or Omega t huge or not finite) may overflow or divide by zero.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            cosh_r = np.cosh(r)
            factors = (_log_tanh(r)[0], cosh_r, 1.0 / np.square(cosh_r), np.cosh(2.0 * r))
            refused = np.flatnonzero(
                ~(r <= R_MAX) | (np.tanh(r) == 1.0) | ~np.isfinite(wt)
                | (_tails(observable, factors, wt, top) > accuracy)
            )
            if refused.size:
                row = start + refused[0]
                r_abs = abs(check_squeeze_factor(rs[row]))
                if np.tanh(r_abs) == 1.0:
                    raise CutoffExceededError(
                        f"tanh r rounds to 1 at r={r_abs}: no cutoff is enough"
                    )
                _require_finite("t", wts[row])
                raise CutoffExceededError(
                    f"{observable} to {accuracy:g} at r={r_abs}, Omega t={abs(wts[row]):g} "
                    f"needs a cutoff above max_cutoff={max_cutoff}"
                )
            lo, hi = np.full(r.size, -1), np.full(r.size, top)
            while (hi - lo > 1).any():
                mid = np.maximum((lo + hi) >> 1, 0)
                over = _tails(observable, factors, wt, mid) > accuracy
                lo, hi = np.where(over, mid, lo), np.where(over, hi, mid)
        cutoffs[rows] = hi
    return cutoffs


# ---------------------------------------------------------------------------
# Diagonal-subspace states


def _log_tanh(rs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """L = log tanh |r| for each r of ``rs``, as L_hi + L_lo in float64.

    L is log(tanh |r|) below |r| = 0.5, else log1p(-2 / (e^{2|r|} + 1))
    (Goldberg, ACM Computing Surveys 23(1), 1991, Theorem 4), each on its own
    rows, in long double, with tanh 0 raised to its least value so that L is
    finite at r = 0.  L_hi is L rounded to float64 and L_lo the rest: their
    sum is within 2^-60 of L on x86-64, L_lo = 0 where long double is float64.
    """
    r = np.abs(rs).astype(np.longdouble)
    near = r < 0.5
    L = np.log1p(-2.0 / (np.exp(2.0 * r) + 1.0), where=~near, out=np.empty_like(r))
    L[near] = np.log(np.maximum(np.tanh(r[near]), np.finfo(r.dtype).smallest_subnormal))
    L_hi = L.astype(np.float64)
    return L_hi, (L - L_hi).astype(np.float64)


def _moduli(rs: np.ndarray, N: int) -> np.ndarray:
    """|c_n| = tanh^n |r| / cosh r, n = 0 .. N, a row per r of ``rs``.

    tanh^n |r| = exp(n L) with L = L_hi + L_lo of :func:`_log_tanh`, so that
    no rounding of L biases a row (a row 1, 0, 0, ... at r = 0).
    """
    L_hi, L_lo = _log_tanh(rs)
    n = np.arange(N + 1)
    moduli = n * L_hi[:, None]
    moduli += n * L_lo[:, None]
    return np.divide(moduli, np.cosh(np.abs(rs))[:, None], out=np.exp(moduli, out=moduli))


def schmidt_state(r: float, phi: float, N: int) -> DiagonalFockState:
    """Two-mode squeezed vacuum in Schmidt form, truncated at N.

    c_n = (-e^{2i phi} tanh r)^n / cosh r, the moduli of :func:`_moduli` times phases.
    """
    r = check_squeeze_factor(r)
    phi = _require_finite("phi", phi)
    N = _count("cutoff", N)
    turn = _exp2i(phi) if r < 0.0 else -_exp2i(phi)
    return DiagonalFockState(_moduli(np.array([r]), N)[0] * turn ** np.arange(N + 1))


def squeeze_by_exponentiation(r: float, phi: float, N: int) -> DiagonalFockState:
    """Apply exp(generator) to the vacuum on the diagonal subspace.

    This is the brute-force route that :func:`schmidt_state` is checked
    against.  The truncated generator G = r (a+ a- e^{-2i phi} - a+^dag
    a-^dag e^{2i phi}) has off-diagonals r e^{-2i phi} n and -r e^{2i phi} n,
    so with D = diag(theta^n), theta = -i e^{2i phi}, D^dag iG D = T is real
    symmetric with off-diagonal r n, and exp(G)|0> = D exp(-iT)|0>.

    exp(-iT)|0> is the Chebyshev series exp(-i rho x) = J_0(rho) + 2 sum_k
    (-i)^k J_k(rho) T_k(x) at x = T / rho (Tal-Ezer and Kosloff, J. Chem.
    Phys. 81, 3967, 1984), rho = |r| (2N - 1) being T's Gershgorin bound,
    cut after rho + 12 rho^{1/3} + 30 terms; the J_k come from Miller's
    backward recurrence of J_k / J_{k-1}, normalised by J_0 + 2 sum J_{2k} =
    1.  The series is summed from its top term down by Clenshaw's recurrence
    (Math. Tables Aids Comput. 9, 118, 1955), b_k = c_k|0> + 2x b_{k+1} -
    b_{k+2}, to J_0|0> + x b_1 - b_2, with real weights c_k = 2 (-1)^{k // 2}
    J_k.  Real weights lose nothing: T couples even n only to odd n, so
    T_k(x)|0> lives on the n of k's parity, even n collect even k alone and
    odd n odd k alone, and -i on odd n restores (-i)^k.  Truncation costs a
    reflection of order tanh^{N+1}|r|/cosh r.  Pick N with
    ``cutoff_for("expm", ...)`` for a componentwise accuracy.

    Raises
    ------
    CutoffExceededError
        If N exceeds DEFAULT_MAX_CUTOFF.
    ExpmNotConvergedError
        If the computed exponential fails to preserve the vacuum norm to
        1e-12, which indicates a broken exponential rather than truncation.
    """
    r = check_squeeze_factor(r)
    phi = _require_finite("phi", phi)
    N = _count("cutoff", N, DEFAULT_MAX_CUTOFF, CutoffExceededError)
    rho = abs(r) * max(2 * N - 1, 1)
    terms = int(rho + 12.0 * rho ** (1 / 3)) + 30
    ratio, bessel = 0.0, [1.0] * terms  # J_k / J_{k-1}, then J_k / J_0
    for k in range(terms - 1, 0, -1):
        ratio = bessel[k] = rho / (2 * k - rho * ratio)
    for k in range(1, terms):
        bessel[k] *= bessel[k - 1]
    j0 = 1.0 / (1.0 + 2.0 * math.fsum(bessel[2::2]))
    # b_m in row (m + 1) & 1, amplitude n at index n + 1, both ends zero.  2x
    # couples n - 1 and n by w[n] = 2 r n / rho; w[N + 1] = 0 cuts the chain at N.
    b, scratch = np.zeros((2, N + 3)), np.empty(N + 1)
    w = np.arange(N + 2) * (math.copysign(2.0, r) / max(2 * N - 1, 1))
    w[-1] = 0.0
    lo, hi = w[:-1], w[1:]
    views = [(b[p, :-2], b[p, 2:], b[1 - p, 1:-1]) for p in (0, 1)]
    for k in range(terms - 1, -1, -1):
        # b_k over b_{k+2}; J_0|0> + x b_1 - b_2 is the step k = 0 at half w.
        if not k:
            w *= 0.5
        left, right, target = views[k & 1]
        np.subtract(np.multiply(lo, left, out=scratch), target, out=target)
        target += np.multiply(hi, right, out=scratch)
        target[0] += (-2.0 if k & 2 else 2.0 if k else 1.0) * j0 * bessel[k]
    coeffs = (-1j * _exp2i(phi)) ** np.arange(N + 1)  # theta^n
    coeffs[0::2] *= b[1, 1:-1:2]
    coeffs[1::2] *= -1j * b[1, 2:-1:2]
    norm = float(np.linalg.norm(coeffs))
    if abs(norm - 1.0) > _EXPM_NORM_TOL:
        raise ExpmNotConvergedError(
            f"exponentiated generator lost unitarity: |psi| = {norm!r}"
        )
    # Guard against the norm sitting a few ulp above 1.
    if norm > 1.0:
        coeffs /= norm
    return DiagonalFockState(coeffs)


def _energies(h: HamiltonianParams, N: int) -> np.ndarray:
    """Omega(n+n) + epsilon(n-n) on |n>|n>; epsilon cancels arithmetically."""
    n = np.arange(N + 1)
    return h.Omega * (n + n) + h.epsilon * (n - n)


def _sides(N: int | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P = isqrt(N) + 1 and Q = ceil((N + 1) / P), the lo and hi table lengths
    at cutoff N, for an int or elementwise on int64, 0 <= N <= 2^62: isqrt is
    the float square root, moved by one where it rounds across an integer."""
    side = np.sqrt(N).astype(np.int64)
    side -= side * side > N
    side += (side + 1) * (side + 1) <= N
    side += 1
    return side, -(-(N + 1) // side)


def _row_entries(N: int, several: bool) -> int:
    """Entries one row of a grid-oracle block at cutoff N holds.

    P + Q phase-table entries (:func:`_sides`), and in a block of several r
    also its row of moduli (:func:`_moduli`), N + 1 long, and its (Q, P)
    tables of |c_n|^2 and E_n |c_n|^2; a block of one r shares those.
    """
    side, count = _sides(N)
    return side + count + (N + 1 + 2 * count * side if several else 0)


def _phases(energies: np.ndarray, ts: np.ndarray, shift: float) -> tuple[np.ndarray, np.ndarray]:
    """The tables hi = e^{-i t E_{qP}} and lo = e^{-i t (E_p + shift)} for each t.

    ``energies`` is E_0 .. E_N of :func:`_energies`, linear in n since
    epsilon cancels, so with P = isqrt(N) + 1, Q = ceil((N + 1) / P) and
    n = qP + p the phase e^{-i t (E_n + shift)} is hi_q lo_p: P + Q
    exponentials per t instead of N + 1.  hi has shape ts.shape + (Q,)
    and lo ts.shape + (P,); the outer product of the two, cut to N + 1
    entries, differs from np.exp(-1j * (E_n + shift) * t) by at most
    5 eps (1 + t (E_N + |shift|)).
    """
    side, _ = _sides(energies.size - 1)
    ts = ts[..., None]
    tables = []
    for exponents in (-1j * energies[::side], -1j * (energies[:side] + shift)):
        table = np.multiply(exponents, ts)
        tables.append(np.exp(table, out=table))
    hi, lo = tables
    return hi, lo


def _moments(
    moduli: np.ndarray, energies: np.ndarray, ts: np.ndarray, shift: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Energy and squared norm of each state, and the overlap of each row of ``ts``.

    ``moduli`` holds |c_0| .. |c_N|: one state, shape (1, N + 1), for every
    entry of the 1-D ``ts``, or one per entry.  A row's state at t is
    c_n e^{-i t (E_n + shift)} = c_n hi_q lo_p (:func:`_phases`), so with
    W and V the (Q, P) tables of |c_n|^2 and E_n |c_n|^2, zero past N,

        <psi(0)|psi(t)> = hi . (W lo),   |psi(t)|^2 = sum W,
        <psi(t)|H|psi(t)> = sum V + shift,

    the last two at every t, since evolution keeps every |c_n|; no row
    forms an (N + 1)-long phase or evolved row.  Returns sum V and sum W
    per state and the overlap per row, a matrix product and a dot of the
    row's own, so its digits do not depend on the rows beside it.
    """
    hi, lo = _phases(energies, ts, shift)
    count, side = hi.shape[-1], lo.shape[-1]
    tables = np.empty((2, moduli.shape[0], count * side))
    tables[:, :, energies.size :] = 0.0
    np.square(moduli, out=tables[0, :, : energies.size])
    np.multiply(energies, tables[0, :, : energies.size], out=tables[1, :, : energies.size])
    weights, energy_weights = tables.reshape(2, -1, count, side)
    # W lo as a real product with lo's real and imaginary parts side by side.
    half = np.matmul(weights, lo.view(np.float64).reshape(-1, side, 2))
    overlaps = (hi[:, None, :] @ half.view(np.complex128))[:, 0, 0]
    return energy_weights.sum(axis=(-2, -1)), weights.sum(axis=(-2, -1)), overlaps


def evolve(
    state: DiagonalFockState,
    h: HamiltonianParams,
    t: float,
    energy_shift: float = 0.0,
) -> DiagonalFockState:
    """Evolve under H = Omega(n+ + n-) + epsilon(n+ - n-) + energy_shift.

    On |n>|n> both occupations equal n, so the energies are Omega(n+n) +
    epsilon(n-n), and each coefficient takes the phase e^{-i [E_n + shift] t},
    formed as the outer product of the two tables of :func:`_phases` and
    then multiplied in: the literal evolved state, which the grid oracle's
    contractions (:func:`_moments`) are checked against.  ``energy_shift``
    adds a multiple of the identity, the gauge the geometric phase must not see.
    """
    t = _require_finite("t", t)
    shift = _require_finite("energy_shift", energy_shift)
    hi, lo = _phases(_energies(h, state.cutoff), np.array(t), shift)
    factors = np.multiply.outer(hi, lo).reshape(-1)[: state.coeffs.size]
    return DiagonalFockState(state.coeffs * factors)


def _energy_integrals(
    rs: np.ndarray, h: HamiltonianParams, ts: np.ndarray, cutoffs: np.ndarray, shift: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Integral of <psi(tau)|H|psi(tau)> over [0, t], and overlap, for each row (r, t).

    Row i starts from the moduli |c_n| of :func:`_moduli`, r = rs[i] and
    n = 0 .. cutoffs[i].  Evolution keeps every |c_n|, so the integrand is
    constant and the integral is t (E + shift), E the energy :func:`_moments`
    gives.  Returns, in grid order, each row's integral and overlap
    <psi(0)|psi(t)>: bit for bit what :func:`_moments` gives for the row's
    moduli alone at t, contracting the phase tables of ``evolve``.

    Rows go through in blocks of one cutoff, sorted by cutoff and in grid
    order within each, as many as hold _BLOCK_ELEMENTS entries as
    :func:`_row_entries` counts them (one row at least).  Rows of one r
    share one row of moduli.  Every step is a call per row or elementwise,
    so each row adds in the order a lone row would.  Blocks run in plan
    order; the first whose overlaps or integrals are not finite, or squared
    norms exceed 1 + 1e-12, raises.
    """
    negative = ts[ts < 0.0]
    if negative.size:
        raise ValueError(f"t must be nonnegative, got {negative[0]}")
    cutoffs = np.asarray(cutoffs)
    # Rows sorted by cutoff, in grid order within each cutoff.
    order = np.argsort(cutoffs, kind="stable")
    top = int(cutoffs.max(initial=0))
    energies = _energies(h, top)
    integrals = np.empty(ts.size)
    overlaps = np.empty(ts.size, dtype=np.complex128)
    done = 0
    while done < order.size:
        N = int(cutoffs[order[done]])
        rows = order[done : done + max(1, _BLOCK_ELEMENTS // _row_entries(N, False))]
        rows = rows[cutoffs[rows] == N]
        if (rs[rows] != rs[rows[0]]).any():
            rows = rows[: max(1, _BLOCK_ELEMENTS // _row_entries(N, True))]
        done += rows.size
        block_rs = rs[rows]
        if (block_rs == block_rs[0]).all():
            block_rs = block_rs[:1]
        moduli = _moduli(block_rs, N)
        # Overflowing input ends in the finite check below, not in warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            energy, norms, overlaps[rows] = _moments(moduli, energies[: N + 1], ts[rows], shift)
            integrals[rows] = ts[rows] * (energy + shift)
        if not (np.isfinite(overlaps[rows]).all() and np.isfinite(integrals[rows]).all()):
            raise ValueError("evolution overflows: t (E_n + shift) is not finite")
        if norms.max() > 1.0 + 1e-12:
            raise ValueError(f"state over-normalized: |psi|^2 = {norms.max()}")
    return integrals, overlaps


def _evolution(
    observable: str, r: float | np.ndarray, h: HamiltonianParams, t: float | np.ndarray,
    *, accuracy: float, max_cutoff: int, energy_shift: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's energy integral, overlap <psi(0)|psi(t)> and cutoff, as 1-D arrays.

    ``r`` and ``t`` are floats or 1-D arrays of one length, and a float stands
    for every row, as numpy broadcasts it (the rule of :mod:`tmsvphase.phases`);
    two floats make one row.  Row i runs at P Q - 1, the largest
    cutoff with the phase tables (:func:`_sides`) of ``cutoff_for(observable,
    r[i], accuracy, t=Omega t[i])``, or at ``max_cutoff`` if less.
    """
    rs, ts = np.broadcast_arrays(np.asarray(r, dtype=np.float64), np.asarray(t, dtype=np.float64))
    if rs.ndim > 1:
        raise ValueError(f"r and t must be floats or 1-D arrays, got shape {rs.shape}")
    rs, ts = rs.reshape(-1), ts.reshape(-1)
    # An overflowing or undefined Omega t is refused by _cutoffs, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        smallest = _cutoffs(observable, rs, h.Omega * ts, accuracy, max_cutoff)
    # P Q - 1 per row; no other array of the grid's length outlives this step.
    cutoffs = np.multiply(*_sides(smallest))
    del smallest
    np.minimum(cutoffs - 1, min(max_cutoff, _BRACKET_TOP), out=cutoffs)
    shift = _require_finite("energy_shift", energy_shift)
    return (*_energy_integrals(rs, h, ts, cutoffs, shift), cutoffs)


def dynamical_integral(
    r: float | np.ndarray, h: HamiltonianParams, t: float | np.ndarray,
    *, accuracy: float = 1e-10, max_cutoff: int = DEFAULT_MAX_CUTOFF, energy_shift: float = 0.0,
) -> float | np.ndarray:
    """Integral of <psi(tau)|H|psi(tau)> over [0, t], the dynamical term delta.

    Evolution preserves every |c_n|, so the integrand is constant and the
    integral is t <H>_0, from the truncated state at tau = 0; it equals
    2 Omega t sinh^2 r within ``accuracy``, the energy tail the cutoff is
    chosen for.

    ``t`` and ``r`` may be 1-D arrays, as in :func:`geometric_phase_numeric`.
    """
    integrals, _, _ = _evolution(
        "energy", r, h, t, accuracy=accuracy, max_cutoff=max_cutoff,
        energy_shift=energy_shift,
    )
    return integrals if np.ndim(r) or np.ndim(t) else float(integrals[0])


def geometric_phase_numeric(
    r: float | np.ndarray, h: HamiltonianParams, t: float | np.ndarray, *,
    accuracy: float = 1e-10, max_cutoff: int = DEFAULT_MAX_CUTOFF, energy_shift: float = 0.0,
) -> float | np.ndarray:
    """Kinematic geometric phase arg<psi(0)|psi(t)> + integral, in [0, 2 pi).

    Computed entirely from truncated states: the overlap by summation, the
    energy integral as t <H>_0 (:func:`dynamical_integral`).  Agrees with
    :func:`tmsvphase.phases.geometric_phase` within ``accuracy``, the phase
    tail the cutoff is chosen for at each Omega t.

    ``r`` and ``t`` are each a float or a 1-D array, arrays of one length,
    and a float stands for every row (:func:`_evolution`).  With an array
    the result is one, row i bit for bit the value at (r[i], t[i]) alone.
    """
    deltas, overlaps, _ = _evolution(
        "phase", r, h, t, accuracy=accuracy, max_cutoff=max_cutoff,
        energy_shift=energy_shift,
    )
    # arg<psi(0)|psi(t)> and the reduction are the closed forms' own.
    gammas = _arg(overlaps)
    gammas = _reduce_angle(gammas + deltas)
    return gammas if np.ndim(r) or np.ndim(t) else float(gammas[0])


def entropy_numeric(state: DiagonalFockState) -> float:
    """Entanglement entropy -sum p_n ln p_n of the Schmidt spectrum, in nats.

    Probabilities are renormalized over the kept coefficients so the
    entropy of a truncated state is well defined; ``cutoff_for("entropy",
    ...)`` bounds the bias.
    """
    p = np.abs(state.coeffs) ** 2
    total = p.sum()
    if total == 0.0:
        raise ValueError("cannot renormalize a zero state")
    p = p[p > 0.0] / total
    return float(-np.sum(p * np.log(p)))


# ---------------------------------------------------------------------------
# Full two-mode operators


def _occupations(N: int) -> tuple[np.ndarray, np.ndarray]:
    """The sector layout: n+ per column, and n- = n+ - d at (d + N, column).

    n- lies outside [0, N] on the slots outside a sector.
    """
    n_plus = np.arange(N + 1)
    return n_plus, n_plus - np.arange(-N, N + 1)[:, None]


def _kept_slots(N: int, margin: int) -> np.ndarray:
    """Which n+ (column) of sector d (row d + N) have 0 <= n+, n- <= N - margin.

    margin 0 marks the states that exist.
    """
    margin = _count("margin", margin, N)
    n_plus, n_minus = _occupations(N)
    return (n_minus >= 0) & (np.maximum(n_plus, n_minus) <= N - margin)


def _max_kept(defect: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> float:
    """Largest |entry| of a stack of sector maps on its kept rows and columns."""
    return float(np.abs(defect[rows[:, :, None] & cols[:, None, :]]).max(initial=0.0))


def two_mode_squeeze_operator(r: float, eta: float, N: int) -> SectorBlockOperator:
    """The squeeze operator on the full product basis, with exact elements.

    Uses the normal-ordered factorization

        S = exp(-e^{2i eta} tanh r K+) (cosh r)^{-(n+ + n- + 1)}
            exp(e^{-2i eta} tanh r K-),

    K+ = a+^dag a-^dag, K- = a+ a-.  In each sector K+ raises n+ by one,
    entering (n+, n-) with weight sqrt(n+) sqrt(n-); with p the product of
    these weights along the sector, exp(c K+)[j, i] = c^{j-i} / (j-i)!
    p_j / p_i for n+ = j >= i, and exp(c K-) is its transpose.  The sums
    terminate, so every element below the cutoff equals its
    infinite-dimensional value (no boundary reflection); that is what makes
    small-N operator-identity checks meaningful.  Entry (j, i) sums
    min(j, i) + 1 terms of alternating sign, so its rounding error scales
    with the largest term: at r = 1 it is 4e-14 at N = 12, 2e-8 at N = 32
    and above 1 at N = 64, and at |r| = R_MAX the diagonal factor overflows
    above N = 37.  So an N above FULL_SPACE_MAX_CUTOFF = 32 raises
    CutoffExceededError; at 32 every element is finite up to |r| = R_MAX.
    """
    r = check_squeeze_factor(r)
    eta = _require_finite("eta", eta)
    N = _count("full-space cutoff", N, FULL_SPACE_MAX_CUTOFF, CutoffExceededError)
    n, n_minus = _occupations(N)
    exists = _kept_slots(N, 0)
    roots = np.sqrt(n.astype(np.float64))
    weights = roots * roots[np.clip(n_minus, 0, N)]
    p = np.cumprod(np.where(exists & (weights > 0.0), weights, 1.0), axis=1)
    # p_j / p_i within each sector, zero outside it, so the blocks stay apart.
    inside = exists[:, :, None] & exists[:, None, :]
    ratios = np.where(inside, p[:, :, None] / p[:, None, :], 0.0)
    lag = np.abs(n[:, None] - n[None, :])
    factorials = np.array([math.factorial(k) for k in range(N + 1)], dtype=np.float64)
    tanh_r = math.tanh(r)

    def ladder_exp(c: complex) -> np.ndarray:
        # exp(c K+) in every sector: terminating series, lower triangular.
        return np.tril((c**n / factorials)[lag]) * ratios

    phase = _exp2i(eta)
    ascend = ladder_exp(-phase * tanh_r)
    middle = np.cosh(r) ** -(n + n_minus + 1.0)
    descend = ladder_exp(phase.conjugate() * tanh_r).transpose(0, 2, 1)
    return SectorBlockOperator((ascend * middle[:, None, :]) @ descend)


def _ladders(N: int) -> tuple[np.ndarray, np.ndarray]:
    """a+ and a-^dag from each sector d > -N down to d - 1 (stacked at d + N - 1).

    On the n+ axis, a+ is the one-mode lowering matrix in every sector;
    a-^dag keeps n+ and scales by sqrt(n- + 1), dropping n- = N.
    """
    n, n_minus = _occupations(N)
    n_minus = n_minus[1:]
    on = _kept_slots(N, 0)[1:] & (n_minus < N)
    scale = np.where(on, np.sqrt(np.maximum(n_minus + 1, 0).astype(np.float64)), 0.0)
    return np.diag(np.sqrt(n[1:].astype(np.float64)), 1), scale[:, :, None] * np.eye(N + 1)


def bogoliubov_residual(r: float, eta: float, N: int, margin: int) -> float:
    """Worst-case defect of the squeeze conjugation rules for a+ and a-.

    The rules S^dag a+ S = a+ cosh r - a-^dag e^{2i eta} sinh r (and the
    a- twin) are verified in the equivalent one-sided form

        a S = S (a cosh r - b^dag e^{2i eta} sinh r),

    restricted to entries with n+, n- <= N - margin on both axes.  a+ and
    a-^dag both take sector d to d - 1, so each defect pairs neighbouring
    sector blocks.  The one-sided form leaks across the cutoff by at most
    one ladder step, so any margin >= 1 removes the truncation edge entirely
    and the residual measures the identity itself (rounding level when it
    holds, order one when it does not).  At margin = 0 the edge rows
    dominate and the residual is large.
    """
    squeeze = two_mode_squeeze_operator(r, eta, N)
    kept = _kept_slots(N, margin)
    cosh_r, sinh_r = math.cosh(r), math.sinh(r)
    phase = _exp2i(eta)
    a_plus, a_minus_dag = _ladders(N)
    # Transposed, the two map sector d - 1 up to d as a- and a+^dag.
    a_minus, a_plus_dag = a_minus_dag.transpose(0, 2, 1), a_plus.T
    below, above = squeeze.stack[:-1], squeeze.stack[1:]
    down = a_plus @ above - below @ (a_plus * cosh_r - a_minus_dag * (phase * sinh_r))
    up = a_minus @ below - above @ (a_minus * cosh_r - a_plus_dag * (phase * sinh_r))
    return max(_max_kept(down, kept[:-1], kept[1:]), _max_kept(up, kept[1:], kept[:-1]))


def _unit_powers(angle: float, counts: np.ndarray) -> np.ndarray:
    """e^{-i angle k} for each integer k in ``counts``, finite for any finite angle.

    It is the power k of e^{-i angle}, which libm forms by exact argument
    reduction, as su11._exp2i squares e^{i phi}; the literal exponent
    angle k overflows once |angle k| > DBL_MAX.
    """
    return cmath.exp(-1j * angle) ** counts


def rotation_conjugation_check(
    r: float, phi: float, theta: float, epsilon_t: float, N: int, margin: int = 4
) -> RotationResiduals:
    """Verify the two diagonal conjugation identities of the squeeze operator.

    Rotation: e^{-i theta (n+ + n-)} S(r, phi) e^{+i theta (n+ + n-)}
    equals S(r, phi - theta).  Modulation: conjugation by
    e^{-i epsilon t (n+ - n-)} leaves S unchanged for any epsilon t.  Both
    conjugating operators are diagonal, so truncation does not disturb
    them and the residuals sit at rounding level when the identities hold.
    Both phases are integer powers of e^{-i theta} and e^{-i epsilon t}, and
    the target takes theta reduced to (-pi, pi] through e^{-i theta}, so
    any finite angle gives a finite residual and phi keeps its digits.
    """
    theta = _require_finite("theta", theta)
    epsilon_t = _require_finite("epsilon_t", epsilon_t)
    turn = cmath.exp(-1j * theta)
    squeeze = two_mode_squeeze_operator(r, phi, N).stack
    rotated_target = two_mode_squeeze_operator(
        r, phi + math.atan2(turn.imag, turn.real), N
    ).stack
    kept = _kept_slots(N, margin)
    n_plus, n_minus = _occupations(N)

    def conjugate_by_diagonal(angle: float, counts: np.ndarray) -> np.ndarray:
        diag_phase = _unit_powers(angle, counts)
        return diag_phase[:, :, None] * squeeze * diag_phase.conj()[:, None, :]

    defect_rot = conjugate_by_diagonal(theta, n_plus + n_minus) - rotated_target
    defect_mod = conjugate_by_diagonal(epsilon_t, n_plus - n_minus) - squeeze
    return RotationResiduals(
        rotation=_max_kept(defect_rot, kept, kept),
        modulation=_max_kept(defect_mod, kept, kept),
    )


__all__ = [
    "DEFAULT_MAX_CUTOFF",
    "FULL_SPACE_MAX_CUTOFF",
    "DiagonalFockState",
    "RotationResiduals",
    "SectorBlockOperator",
    "bogoliubov_residual",
    "cutoff_for",
    "dynamical_integral",
    "entropy_numeric",
    "evolve",
    "geometric_phase_numeric",
    "rotation_conjugation_check",
    "schmidt_state",
    "squeeze_by_exponentiation",
    "two_mode_squeeze_operator",
]
