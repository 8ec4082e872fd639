"""Truncated Fock-space oracle for the two-mode squeezed vacuum.

Everything the closed forms in :mod:`tmsvphase.phases` claim is recomputed
here from first principles: states as coefficient vectors, squeezing by
exponentiating the generator through one SVD of its even-to-odd block,
evolution as literal Hamiltonian phase factors, quadrature of the energy
expectation, entropy of the Schmidt spectrum, and operator-identity
residuals on the full two-mode space.

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
``omega_t`` or ``r`` sweep.  Rows sharing a cutoff are evaluated together
in blocks sized by the table entries each row holds (:func:`_row_entries`),
each block forming its rows' Schmidt coefficients from the closed form
below, with digits independent of the grid.  On |n>|n>
the energies are linear in n, so the phase e^{-i tau (E_n + shift)} is
the product hi_q lo_p of two tables of about sqrt(N) exponentials each
(:func:`_phases`), n = qP + p.  Evolution only multiplies c_n by that
phase, so a row's overlap, norm and energy at each tau node of its
quadrature, t being the last, are contractions of the two tables against
tables of |c_n|^2 (:func:`_moments`), and no row forms its evolved state.
The integrand is constant in time, so the trapezoid over [0, t] is exact
up to rounding at any step count (``verify``'s ``dynamical-quadrature``
holds 1, 7 and 200 steps to one value), and a sweep asks for one step.
:func:`evolve` forms the evolved state literally, from the outer product
of the same tables; it is what the contractions are checked against.

Truncation error policy: the Schmidt coefficient of |n>|n> is
(-e^{2i phi} tanh r)^n / cosh r, so every truncation error has a
closed-form geometric tail in the cutoff N, and :func:`cutoff_for` is the
one place that turns an observable's accuracy target into N.  A grid's
cutoffs come from one bisection over its rows at once (:func:`_cutoffs`),
exact because every tail is strictly decreasing in N.  Operator
identities are asserted only on entries a ``margin`` away from the cutoff,
where the constructions used here keep them exact up to rounding.

No state outlives a call: workspaces belong to the call that made them,
and results depend only on the arguments.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CutoffExceededError, ExpmNotConvergedError
from .phases import HamiltonianParams, _reduce_angles
from .su11 import R_MAX, _exp2i, _require_finite, check_squeeze_factor

#: Default bound on diagonal-subspace cutoffs (vectors of this length).
DEFAULT_MAX_CUTOFF = 4096

#: Bound on full two-mode cutoffs, where :func:`two_mode_squeeze_operator` is accurate.
FULL_SPACE_MAX_CUTOFF = 32

#: Norm defect above which an exponentiated generator is considered broken.
_EXPM_NORM_TOL = 1e-12

# Rows per block of the grid oracle: as many as hold this many entries
# (:func:`_row_entries`), steps x (P + Q) phase-table entries per row, so 630
# one-step sweep rows at N = 377, and in a block of several r also a power row
# and two (Q, P) weight tables per row, so 20 rows of one step at N = 377.
_BLOCK_ELEMENTS = 24576

# Rows per chunk of a grid whose cutoffs are bisected together, which keeps
# the bisection's arrays small, and per list of Python floats (each row's
# overlap for its phase), so that no such list holds a whole grid: their
# objects would stay resident after the call.
_CHUNK_ROWS = 1024


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

    So a bisection over N finds the smallest N exactly; this is the
    one-row case of :func:`_cutoffs`.

    Raises
    ------
    CutoffExceededError
        If the cutoff would exceed ``max_cutoff``, or if tanh r rounds to 1
        (in numpy, as in the oracle's Schmidt bases) so that no finite
        cutoff drops a vanishing mass.
    """
    r_row, t_row = np.array([float(r)]), np.array([float(t)])
    return int(_cutoffs(observable, r_row, t_row, accuracy, max_cutoff)[0])


_OBSERVABLES = ("mass", "energy", "phase", "entropy", "expm")

# Top of the bisection's bracket when max_cutoff is larger, so that lo + hi
# fits in int64: no row needing more could be allocated anyway.
_BRACKET_TOP = 2**62


def _tails(observable: str, r: np.ndarray, wt: np.ndarray, N: np.ndarray | int) -> np.ndarray:
    """``observable``'s tail as :func:`cutoff_for` documents it, elementwise
    at squeezes r >= 0, angles wt = |Omega t| and cutoffs N >= 0.

    Each keeps the documented expression and its order: energy is
    (m weight) wt and phase (m weight) wt + cosh 2r m.  At r = 0 every tail
    is 0, but entropy's, 0 (1 + inf), is nan.
    """
    log_tanh = np.log(np.tanh(r))
    if observable == "expm":
        return np.exp((N + 1) * log_tanh) / np.cosh(r)
    log_mass = 2.0 * (N + 1) * log_tanh
    mass = np.exp(log_mass)
    if observable == "mass":
        return mass
    if observable == "entropy":
        return mass * (1.0 - log_mass) / -np.expm1(log_mass)
    one_minus_x = 1.0 / np.cosh(r) ** 2
    weight = 2.0 * ((N + 1) * one_minus_x + 1.0 - one_minus_x) / one_minus_x
    energy = mass * weight * wt
    return energy + np.cosh(2.0 * r) * mass if observable == "phase" else energy


def _cutoffs(
    observable: str, rs: np.ndarray, wts: np.ndarray, accuracy: float, max_cutoff: int
) -> np.ndarray:
    """:func:`cutoff_for` at each row (rs[i], Omega t = wts[i]) of two 1-D float arrays.

    Rows go _CHUNK_ROWS at a time, through arrays allocated once per call.
    A chunk's rows are checked in one pass each (r valid, tanh r below 1,
    Omega t finite, the tail at the top of the bracket within ``accuracy``),
    and the first row in grid order that fails one raises the error it
    raises alone.  Then one bisection, from the bracket lo = -1,
    hi = max_cutoff (at most _BRACKET_TOP), keeps
    tail(lo) > accuracy >= tail(hi) on every row of the chunk at once; the
    tails being strictly decreasing in N, hi ends at the smallest N.  A row
    whose bracket has closed probes max(lo, 0), which keeps it.  A nan tail
    (only entropy's, at r = 0) counts as within ``accuracy``: N = 0.
    """
    if not (0.0 < accuracy < 1.0):
        raise ValueError(f"accuracy must lie in (0, 1), got {accuracy}")
    if max_cutoff < 0:
        raise ValueError("max_cutoff must be nonnegative")
    if observable not in _OBSERVABLES:
        raise ValueError(f"unknown observable {observable!r}, not in {list(_OBSERVABLES)}")
    top = min(max_cutoff, _BRACKET_TOP)
    cutoffs = np.empty(wts.size, dtype=np.int64)
    # Each chunk's |r| and |Omega t|, and its lo and mid, overwrite these.
    floats = np.empty((2, min(wts.size, _CHUNK_ROWS)))
    ints = np.empty(floats.shape, dtype=np.int64)
    for start in range(0, wts.size, _CHUNK_ROWS):
        hi = cutoffs[start : start + _CHUNK_ROWS]
        (r, wt), (lo, mid) = floats[:, : hi.size], ints[:, : hi.size]
        np.abs(rs[start : start + hi.size], out=r)
        np.abs(wts[start : start + hi.size], out=wt)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            refused = np.flatnonzero(
                ~(r <= R_MAX) | (np.tanh(r) == 1.0) | ~np.isfinite(wt)
                | (_tails(observable, r, wt, top) > accuracy)
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
            lo.fill(-1)
            hi.fill(top)
            while (np.subtract(hi, lo, out=mid) > 1).any():
                np.right_shift(np.add(lo, hi, out=mid), 1, out=mid)
                over = _tails(observable, r, wt, np.maximum(mid, 0, out=mid)) > accuracy
                np.copyto(lo, mid, where=over)
                np.copyto(hi, mid, where=~over)
    return cutoffs


# ---------------------------------------------------------------------------
# Diagonal-subspace states


def schmidt_state(r: float, phi: float, N: int) -> DiagonalFockState:
    """Two-mode squeezed vacuum in Schmidt form, truncated at N.

    c_n = (-e^{2i phi} tanh r)^n / cosh r.
    """
    r = check_squeeze_factor(r)
    phi = _require_finite("phi", phi)
    if N < 0:
        raise ValueError("cutoff must be nonnegative")
    base = -_exp2i(phi) * np.tanh(r)
    coeffs = base ** np.arange(N + 1) / np.cosh(r)
    return DiagonalFockState(coeffs)


def squeeze_by_exponentiation(r: float, phi: float, N: int) -> DiagonalFockState:
    """Apply exp(generator) to the vacuum on the diagonal subspace.

    This is the brute-force route that :func:`schmidt_state` is checked
    against.  The truncated generator G = r (a+ a- e^{-2i phi} - a+^dag
    a-^dag e^{2i phi}) has off-diagonals r e^{-2i phi} n and -r e^{2i phi} n,
    so with D = diag(theta^n), theta = -i e^{2i phi}, D^dag iG D = T is real
    symmetric with off-diagonal r n, and exp(G)|0> = D exp(-iT)|0>.

    T has a zero diagonal, so it couples even n only to odd n: in that
    order T = [[0, B^T], [B, 0]], where B has (N + 1) // 2 rows, N // 2 + 1
    columns, B[j, j] = r (2j + 1) and B[j, j + 1] = r (2j + 2).  With the
    full SVD B = U diag(s) W^T, exp(-iT)|0> has the real even part
    W cos(s) W^T e_0 and the odd part -i U sin(s) W[:, :len(s)]^T e_0; for
    even N, W's last column spans the null space of B and takes cos 0 = 1.
    B is T's own nonzero entries, with T's last row and column included, so
    this is the same truncated exponential as a diagonalisation of T from
    one SVD of half its side, and no boundary term changes: what truncation
    costs is a reflection of order tanh^{N+1}|r|/cosh r in the coefficients.
    Pick N with ``cutoff_for("expm", ...)`` for a componentwise accuracy.

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
    if N < 0:
        raise ValueError("cutoff must be nonnegative")
    if N > DEFAULT_MAX_CUTOFF:
        raise CutoffExceededError(f"cutoff {N} exceeds DEFAULT_MAX_CUTOFF={DEFAULT_MAX_CUTOFF}")
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
    theta = -1j * _exp2i(phi)
    coeffs = theta ** np.arange(N + 1) * amplitudes
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


def _sides(N: int) -> tuple[int, int]:
    """P = isqrt(N) + 1 and Q = ceil((N + 1) / P): the lo and hi table lengths at cutoff N."""
    side = math.isqrt(N) + 1
    return side, -(-(N + 1) // side)


def _row_entries(N: int, steps: int, several: bool) -> int:
    """Entries one row of a grid-oracle block at cutoff N holds.

    steps x (P + Q) phase-table entries (:func:`_sides`), and in a block
    of several r also its power row, N + 1 long, and its two (Q, P) weight
    tables; a block of one r shares those.
    """
    side, count = _sides(N)
    return steps * (side + count) + (N + 1 + 2 * count * side if several else 0)


def _carve(
    spare: np.ndarray | None, shape: tuple[int, ...], dtype: type = np.float64,
) -> tuple[np.ndarray, np.ndarray | None]:
    """An uninitialised float64 or complex128 array of ``shape`` from the
    front of the flat float64 ``spare``, and the rest of ``spare``; a fresh
    array, and ``spare`` as it was, when ``spare`` is None or too short."""
    size = math.prod(shape) * (2 if dtype is np.complex128 else 1)
    if spare is None or size > spare.size:
        return np.empty(shape, dtype), spare
    head = spare[:size] if dtype is np.float64 else spare[:size].view(dtype)
    return head.reshape(shape), spare[size:]


def _phases(
    energies: np.ndarray, taus: np.ndarray, shift: float, spare: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The tables hi = e^{-i tau E_{qP}} and lo = e^{-i tau (E_p + shift)} for each tau.

    ``energies`` is E_0 .. E_N of :func:`_energies`, linear in n since
    epsilon cancels, so with P = isqrt(N) + 1, Q = ceil((N + 1) / P) and
    n = qP + p the phase e^{-i tau (E_n + shift)} is hi_q lo_p: P + Q
    exponentials per tau instead of N + 1.  hi has shape taus.shape + (Q,)
    and lo taus.shape + (P,); the outer product of the two, cut to N + 1
    entries, differs from np.exp(-1j * (E_n + shift) * tau) by at most
    5 eps (1 + tau (E_N + |shift|)).  Both tables are carved, hi first,
    from the front of the flat float64 ``spare`` (:func:`_carve`).
    """
    side, _ = _sides(energies.size - 1)
    taus = taus[..., None]
    tables = []
    for exponents in (-1j * energies[::side], -1j * (energies[:side] + shift)):
        out, spare = _carve(spare, taus.shape[:-1] + exponents.shape, np.complex128)
        tables.append(np.exp(np.multiply(exponents, taus, out=out), out=out))
    hi, lo = tables
    return hi, lo


def _moments(
    coeffs: np.ndarray, energies: np.ndarray, taus: np.ndarray, shift: float,
    spare: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Energy, squared norm and overlap of each row of taus from the phase tables.

    ``coeffs`` holds c_0 .. c_N: one state, shape (1, N + 1), for every row
    of ``taus`` (rows, steps), or one per row.  A row's state at tau is
    c_n e^{-i tau (E_n + shift)} = c_n hi_q lo_p (:func:`_phases`), and with
    the (Q, P) tables W of |c_n|^2 and V of E_n |c_n|^2, zero past N,

        <psi(0)|psi(tau)> = hi . (W lo),   |psi(tau)|^2 = |hi|^2 . (W |lo|^2),
        <psi(tau)|H|psi(tau)> = |hi|^2 . (V |lo|^2) + shift,

    so no row forms an (N + 1)-long phase or evolved row.  Returns, per row,
    the energies at tau = 0 (the sum of V, as the phase there is exactly 1)
    and at each tau, shape (rows, steps + 1), and the squared norm and the
    overlap at the last tau.  Every product is a matrix product or a dot of
    one row and tau, so a row's digits do not depend on the rows and taus
    beside it.  The tables, the weight tables, |hi|^2, |lo|^2 and the
    intermediate products are carved from the flat float64 ``spare``
    (:func:`_carve`), the tables first, by :func:`_phases`; each product
    reuses the room of one no longer needed.  What is returned is fresh.
    """
    hi, lo = _phases(energies, taus, shift, spare)
    if spare is not None:  # past the tables
        spare = spare[2 * (hi.size + lo.size) :]
    rows, count, side = taus.shape[0], hi.shape[-1], lo.shape[-1]
    moduli, spare = _carve(spare, (2, coeffs.shape[0], count * side))
    moduli[:, :, energies.size :] = 0.0
    np.abs(coeffs, out=moduli[0, :, : energies.size])
    np.square(moduli[0, :, : energies.size], out=moduli[0, :, : energies.size])
    np.multiply(energies, moduli[0, :, : energies.size], out=moduli[1, :, : energies.size])
    weights, energy_weights = moduli.reshape(2, -1, count, side)
    # W lo as a real product with lo's real and imaginary parts side by side.
    half, _ = _carve(spare, (rows, count, 2))
    np.matmul(weights, lo[:, -1].view(np.float64).reshape(-1, side, 2), out=half)
    overlaps = (hi[:, -1, None, :] @ half.view(np.complex128))[:, 0, 0]
    hi_sq, rest = _carve(spare, hi.shape)
    lo_sq, rest = _carve(rest, lo.shape)
    for table, square in ((hi, hi_sq), (lo, lo_sq)):
        np.square(np.abs(table, out=square), out=square)
    values = np.empty((rows, taus.shape[1] + 1))
    values[:, 0] = energy_weights.sum(axis=(-2, -1))
    product, _ = _carve(rest, (*taus.shape, count, 1))
    np.matmul(energy_weights[:, None], lo_sq[..., None], out=product)
    values[:, 1:] = (hi_sq[..., None, :] @ product)[..., 0, 0]
    values += shift
    product, _ = _carve(rest, (rows, count, 1))
    np.matmul(weights, lo_sq[:, -1, :, None], out=product)
    norms = (hi_sq[:, -1, None, :] @ product)[:, 0, 0]
    return values, norms, overlaps


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
    contractions (:func:`_moments`) are checked against.
    ``energy_shift`` adds a multiple of the identity, which is the gauge
    transformation the geometric phase must not see.
    """
    t = _require_finite("t", t)
    shift = _require_finite("energy_shift", energy_shift)
    hi, lo = _phases(_energies(h, state.cutoff), np.array(t), shift)
    phases = np.multiply.outer(hi, lo).reshape(-1)[: state.coeffs.size]
    return DiagonalFockState(state.coeffs * phases)


def _tau_grids(ts: np.ndarray, steps: int) -> np.ndarray:
    """Row i is np.linspace(0.0, ts[i], steps + 1), element for element.

    One linspace over all rows would differ: if any row's step t / steps is
    zero, numpy forms every row as (k / steps) t instead of k (t / steps).
    """
    k = np.arange(steps + 1, dtype=np.float64)
    step = ts[:, None] / steps
    taus = np.where(step == 0.0, k / steps * ts[:, None], k * step) + 0.0
    taus[:, -1] = ts
    return taus


def _energy_integrals(
    rs: np.ndarray, phi: float, h: HamiltonianParams, ts: np.ndarray,
    cutoffs: np.ndarray | list[int], steps: int, shift: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Composite trapezoid of <psi(tau)|H|psi(tau)> over [0, t] for each row (r, t).

    Row i starts from c_n = (-e^{2i phi} tanh r)^n / cosh r, r = rs[i] and
    n = 0 .. cutoffs[i].  Returns, in grid order, each row's integral and
    overlap <psi(0)|psi(t)>.  Element for element, psi(0) is
    ``schmidt_state(r, phi, N)``, and a row's energies at its taus and its
    overlap at t are what :func:`_moments` gives for that state alone, the
    contraction of the phase tables of ``evolve(psi(0), h, tau, shift)``
    against |c_n|^2 tables.

    Rows that share a cutoff go through together, in grid order, as many as
    hold _BLOCK_ELEMENTS entries as :func:`_row_entries` counts them (one
    row at least): steps x (P + Q) phase-table entries per row, and, when
    the rows differ in r, each row's power row and pair of weight tables
    too, so a block of several r holds fewer rows than one of one r.  A
    block raises the bases -e^{2i phi} tanh r of its rows to the powers
    0 .. N and divides by cosh r, so its weight tables are built once per
    r: a block of one r shares one pair and extends the powers held for
    that r, as cutoffs grow in plan order, and a block of several r holds a
    pair per row.  A block contracts its rows' tau grids with
    :func:`_moments` in the call's one workspace and integrates its own
    energies; every step is a call per row and tau or elementwise, so each
    row adds in the order a lone row would.  Blocks run in plan order, so
    the first block whose norms are not finite or exceed 1 + 1e-12 raises.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    negative = ts[ts < 0.0]
    if negative.size:
        raise ValueError(f"t must be nonnegative, got {negative[0]}")
    cutoffs = np.asarray(cutoffs)
    # Rows sorted by cutoff, in grid order within each cutoff.
    order = np.argsort(cutoffs, kind="stable")
    phase = -_exp2i(phi)
    taus = _tau_grids(ts, steps)
    powers = np.arange(int(cutoffs.max(initial=0)) + 1)
    energies = _energies(h, powers.size - 1)
    integrals = np.empty(ts.size)
    overlaps = np.empty(ts.size, dtype=np.complex128)
    # Powers 0 .. held - 1 of the last lone r's base.
    row, held_base, held = np.empty(powers.size, dtype=np.complex128), None, 0
    # One float64 workspace for the call, which every block's arrays are
    # carved from (_carve).  A block holds at most ``largest`` entries, a row
    # of several r being the heaviest kind: four floats per entry hold its
    # phase tables, |hi|^2, |lo|^2 and products and, if its rows differ in r,
    # their powers and weight tables, to which a block of one r adds its one
    # power row and pair of weight tables.  Fresh arrays per block would
    # stay resident in the heap after the call.
    side, count = _sides(powers.size - 1)
    heaviest = _row_entries(powers.size - 1, steps, several=True)
    largest = min(max(_BLOCK_ELEMENTS, heaviest), ts.size * heaviest)
    spare = np.empty(4 * largest + 2 * (powers.size + count * side))
    done = 0
    while done < order.size:
        N = int(cutoffs[order[done]])
        rows = order[done : done + max(1, _BLOCK_ELEMENTS // _row_entries(N, steps, False))]
        rows = rows[cutoffs[rows] == N]
        if (rs[rows] != rs[rows[0]]).any():
            rows = rows[: max(1, _BLOCK_ELEMENTS // _row_entries(N, steps, True))]
        done += rows.size
        block_rs = rs[rows]
        block_rs = block_rs[:1] if (block_rs == block_rs[0]).all() else block_rs
        bases = phase * np.tanh(block_rs)
        initial, rest = _carve(spare, (bases.size, N + 1), np.complex128)
        if bases.size > 1:
            source = np.power(bases[:, None], powers[: N + 1], out=initial)
        else:
            if held_base != bases[0]:
                held_base, held = bases[0], 0
            np.power(bases, powers[held : N + 1], out=row[held : N + 1])
            held = max(held, N + 1)
            source = row[None, : N + 1]
        np.divide(source, np.cosh(block_rs)[:, None], out=initial)
        block_taus = taus[rows]
        # Overflowing input ends in the finite check below, not in warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            values, norms, overlaps[rows] = _moments(
                initial, energies[: N + 1], block_taus[:, 1:], shift, rest
            )
        if not np.isfinite(norms).all():
            raise ValueError("coefficients must be finite")
        if norms.max() > 1.0 + 1e-12:
            raise ValueError(f"state over-normalized: |psi|^2 = {norms.max()}")
        # np.trapezoid's arithmetic, row by row.
        widths = block_taus[:, 1:] - block_taus[:, :-1]
        integrals[rows] = (widths * (values[:, 1:] + values[:, :-1]) / 2.0).sum(axis=-1)
    return integrals, overlaps


def _grid(t: float | np.ndarray, r: float | np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """``t`` and ``r`` as float arrays, ``t`` 1-D with a row per r; whether both were floats."""
    ts, rs = np.asarray(t, dtype=np.float64), np.asarray(r, dtype=np.float64)
    if max(ts.ndim, rs.ndim) > 1:
        raise ValueError(f"t and r must be floats or 1-D arrays, got {ts.shape} and {rs.shape}")
    scalar = ts.ndim == rs.ndim == 0
    return np.full(rs.shape, ts) if ts.ndim < rs.ndim else ts.reshape(-1), rs, scalar


def _evolution(
    observable: str, r: float | np.ndarray, phi: float, h: HamiltonianParams, ts: np.ndarray,
    *, accuracy: float, max_cutoff: int, energy_shift: float, steps: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's energy integral, overlap <psi(0)|psi(t)> and cutoff, ts 1-D.

    ``r`` is a float or one value per row; row i keeps ``cutoff_for(observable,
    r[i], accuracy, t=Omega t[i])``.  The overlap does not depend on ``steps``:
    the last tau of each row is t itself.
    """
    rs = np.broadcast_to(np.asarray(r, dtype=np.float64), ts.shape)
    # An overflowing or undefined Omega t is refused by _cutoffs, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        cutoffs = _cutoffs(observable, rs, h.Omega * ts, accuracy, max_cutoff)
    phi = _require_finite("phi", phi)
    shift = _require_finite("energy_shift", energy_shift)
    return (*_energy_integrals(rs, phi, h, ts, cutoffs, steps, shift), cutoffs)


def dynamical_integral(
    r: float | np.ndarray, phi: float, h: HamiltonianParams, t: float | np.ndarray, steps: int,
    *, accuracy: float = 1e-10, max_cutoff: int = DEFAULT_MAX_CUTOFF, energy_shift: float = 0.0,
) -> float | np.ndarray:
    """Composite trapezoid quadrature of <psi(tau)|H|psi(tau)> over [0, t].

    The integrand is constant in time (evolution preserves every |c_n|),
    so the trapezoid rule is exact up to rounding for any step count; the
    result equals 2 Omega t sinh^2 r within ``accuracy``, the energy tail
    the cutoff is chosen for.

    ``t`` and ``r`` may be 1-D arrays, as in :func:`geometric_phase_numeric`.
    """
    ts, rs, scalar = _grid(t, r)
    integrals, _, _ = _evolution(
        "energy", rs, phi, h, ts, accuracy=accuracy, max_cutoff=max_cutoff,
        energy_shift=energy_shift, steps=steps,
    )
    return float(integrals[0]) if scalar else integrals


def geometric_phase_numeric(
    r: float | np.ndarray, phi: float, h: HamiltonianParams, t: float | np.ndarray, *,
    accuracy: float = 1e-10, max_cutoff: int = DEFAULT_MAX_CUTOFF, energy_shift: float = 0.0,
    steps: int = 16,
) -> float | np.ndarray:
    """Kinematic geometric phase arg<psi(0)|psi(t)> + integral, in [0, 2 pi).

    Computed entirely from truncated states: overlap by summation, energy
    integral by quadrature.  Agrees with
    :func:`tmsvphase.phases.geometric_phase` within ``accuracy``, the phase
    tail the cutoff is chosen for at each Omega t.

    ``t`` and ``r`` may be 1-D arrays of one length, or one of them a float
    that holds for every row; the result is then an array, row i bit for
    bit the value at (r[i], t[i]) alone.
    """
    ts, rs, scalar = _grid(t, r)
    deltas, overlaps, _ = _evolution(
        "phase", rs, phi, h, ts, accuracy=accuracy, max_cutoff=max_cutoff,
        energy_shift=energy_shift, steps=steps,
    )
    # arg<psi(0)|psi(t)> is libm's atan2 through cmath.phase, row by row
    # (numpy's arctan2 differs in the last bit); the sum and its reduction
    # are exact elementwise.
    gammas = np.empty(ts.size)
    for start in range(0, ts.size, _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        gammas[rows] = list(map(cmath.phase, overlaps[rows].tolist()))
    gammas = _reduce_angles(gammas + deltas)
    return float(gammas[0]) if scalar else gammas


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
    if not (0 <= margin <= N):
        raise ValueError(f"margin must lie in [0, {N}], got {margin}")
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
    if N < 0:
        raise ValueError("cutoff must be nonnegative")
    if N > FULL_SPACE_MAX_CUTOFF:
        raise CutoffExceededError(
            f"full-space cutoff {N} exceeds FULL_SPACE_MAX_CUTOFF={FULL_SPACE_MAX_CUTOFF}"
        )
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
    if margin < 0:
        raise ValueError("margin must be nonnegative")
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
