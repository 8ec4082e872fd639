"""Truncated Fock-space oracle for the two-mode squeezed vacuum.

Everything the closed forms in :mod:`tmsvphase.phases` claim is recomputed
here from first principles: states as coefficient vectors, squeezing by
exponentiating the generator through its eigendecomposition, evolution as
literal Hamiltonian phase factors, numerical inner products, quadrature of
the energy expectation, entropy of the Schmidt spectrum, and
operator-identity residuals on the full two-mode space.

Two representations are used, chosen by what truncation does to them:

* State-level quantities live on the diagonal subspace span{|n>|n>}; the
  squeezed vacuum never leaves it, so states are O(N) coefficient vectors
  (:class:`DiagonalFockState`) and cutoffs of several hundred are cheap.
* Operator identities mix the modes independently, so they need the full
  (N+1)^2-dimensional product basis |n+>|n->, kept to small N
  (:class:`FullTwoModeOperator`).

The geometric phase also runs over a whole grid of t, as an ``omega_t``
sweep asks: it builds one Schmidt state at the grid's largest cutoff,
each row reads the prefix its own cutoff keeps, and rows sharing a cutoff
are evolved and integrated together in small blocks.  Each row keeps the
reduction order of a lone evaluation, so the digits do not depend on the
grid.

Truncation error policy: the Schmidt coefficient of |n>|n> is
(-e^{2i phi} tanh r)^n / cosh r, so every truncation error has a
closed-form geometric tail in the cutoff N, and :func:`cutoff_for` is the
one place that turns an observable's accuracy target into N.  Operator
identities are asserted only on entries a ``margin`` away from the cutoff,
where the constructions used here keep them exact up to rounding.

All operations are pure; matrix workspaces are created per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .errors import CutoffExceededError, CutoffMismatchError, ExpmNotConvergedError
from .phases import HamiltonianParams
from .su11 import _require_finite, check_squeeze_factor

#: Default bound on diagonal-subspace cutoffs (vectors of this length).
DEFAULT_MAX_CUTOFF = 4096

#: Bound on full two-mode cutoffs; matrices are (N+1)^2 x (N+1)^2.
FULL_SPACE_MAX_CUTOFF = 32

#: Norm defect above which an exponentiated generator is considered broken.
_EXPM_NORM_TOL = 1e-12

# Evolved coefficients per block of grid rows: 4 rows of 5 taus at N = 377.
_BLOCK_ELEMENTS = 8192


@dataclass(frozen=True)
class DiagonalFockState:
    """Amplitudes c_0..c_N on the paired-number states |n>|n>.

    The stored array is an immutable complex128 copy.  States never
    over-normalize: sum |c_n|^2 <= 1 + 1e-12 (they may under-normalize by
    the dropped mass).
    """

    cutoff: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.coeffs, dtype=np.complex128)
        if arr.ndim != 1 or arr.size != self.cutoff + 1:
            raise ValueError(
                f"expected {self.cutoff + 1} coefficients, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise ValueError("coefficients must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)
        if self.squared_norm() > 1.0 + 1e-12:
            raise ValueError(f"state over-normalized: |psi|^2 = {self.squared_norm()}")

    def squared_norm(self) -> float:
        return float(np.sum(np.abs(self.coeffs) ** 2))


@dataclass(frozen=True)
class FullTwoModeOperator:
    """A dense operator on the product basis |n+>|n->, row-major in (n+, n-)."""

    cutoff: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        dim = (self.cutoff + 1) ** 2
        mat = np.array(self.matrix, dtype=np.complex128)
        if mat.shape != (dim, dim):
            raise ValueError(f"expected a {dim}x{dim} matrix, got {mat.shape}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


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
    angle Omega t, each error is a closed-form tail, strictly decreasing in N:

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

    Raises
    ------
    CutoffExceededError
        If the cutoff would exceed ``max_cutoff``, or if tanh r rounds to 1
        so that no finite cutoff drops a vanishing mass.
    """
    return _cutoffs(observable, r, accuracy, [t], max_cutoff)[0]


_OBSERVABLES = ("mass", "energy", "phase", "entropy", "expm")


def _tails(r: float) -> dict[str, Callable[[int, float], float]]:
    """The tails :func:`cutoff_for` documents, as functions of (N, |Omega t|), r > 0."""
    log_tanh = math.log(math.tanh(r))
    one_minus_x = 1.0 / math.cosh(r) ** 2

    def mass(N: int, wt: float) -> float:
        return math.exp(2.0 * (N + 1) * log_tanh)

    def energy(N: int, wt: float) -> float:
        weight = 2.0 * ((N + 1) * one_minus_x + 1.0 - one_minus_x) / one_minus_x
        return mass(N, wt) * weight * wt

    def entropy(N: int, wt: float) -> float:
        log_mass = 2.0 * (N + 1) * log_tanh
        return math.exp(log_mass) * (1.0 - log_mass) / -math.expm1(log_mass)

    return {
        "mass": mass,
        "energy": energy,
        "phase": lambda N, wt: energy(N, wt) + math.cosh(2.0 * r) * mass(N, wt),
        "entropy": entropy,
        "expm": lambda N, wt: math.exp((N + 1) * log_tanh) / math.cosh(r),
    }


def _cutoffs(
    observable: str, r: float, accuracy: float, wts: Iterable[float], max_cutoff: int
) -> list[int]:
    """:func:`cutoff_for` at each evolution angle Omega t in ``wts``.

    A row keeps the previous row's N while that is still the smallest,
    tail(N) <= accuracy < tail(N - 1); otherwise it bisects, so a sorted
    grid costs two tail evaluations per row between cutoff changes.
    """
    r = abs(check_squeeze_factor(r))
    if not (0.0 < accuracy < 1.0):
        raise ValueError(f"accuracy must lie in (0, 1), got {accuracy}")
    if max_cutoff < 0:
        raise ValueError("max_cutoff must be nonnegative")
    if observable not in _OBSERVABLES:
        raise ValueError(f"unknown observable {observable!r}, not in {list(_OBSERVABLES)}")
    if math.tanh(r) == 1.0:
        raise CutoffExceededError(f"tanh r rounds to 1 at r={r}: no cutoff is enough")
    tail = _tails(r)[observable] if r > 0.0 else None
    cutoffs = []
    N = -1
    for wt in wts:
        wt = abs(_require_finite("t", wt))
        if tail is None:
            N = 0
        elif N < 0 or tail(N, wt) > accuracy or (N > 0 and tail(N - 1, wt) <= accuracy):
            if tail(max_cutoff, wt) > accuracy:
                raise CutoffExceededError(
                    f"{observable} to {accuracy:g} at r={r}, Omega t={wt:g} needs a "
                    f"cutoff above max_cutoff={max_cutoff}"
                )
            # Bisection keeps tail(lo) > accuracy >= tail(hi), with tail(-1) > accuracy.
            lo, N = -1, max_cutoff
            while N - lo > 1:
                mid = (lo + N) // 2
                if tail(mid, wt) <= accuracy:
                    N = mid
                else:
                    lo = mid
        cutoffs.append(N)
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
    base = -np.exp(2j * phi) * np.tanh(r)
    coeffs = base ** np.arange(N + 1) / np.cosh(r)
    return DiagonalFockState(cutoff=N, coeffs=coeffs)


def _diagonal_generator(r: float, phi: float, N: int) -> np.ndarray:
    """Squeeze generator restricted to span{|n>|n>}: tridiagonal, anti-Hermitian.

    On this subspace a+ a- |n,n> = n |n-1,n-1> and
    a+^dag a-^dag |n,n> = (n+1) |n+1,n+1>, so the generator
    r (a+ a- e^{-2i phi} - a+^dag a-^dag e^{2i phi}) has the two
    off-diagonals below.
    """
    n = np.arange(1, N + 1, dtype=np.float64)
    lower = r * np.exp(-2j * phi) * n  # maps component n to n-1
    raise_ = -r * np.exp(2j * phi) * n  # maps component n-1 to n, weight n
    return np.diag(lower, 1) + np.diag(raise_, -1)


def squeeze_by_exponentiation(
    r: float, phi: float, N: int, max_cutoff: int = DEFAULT_MAX_CUTOFF
) -> DiagonalFockState:
    """Apply exp(generator) to the vacuum on the diagonal subspace.

    This is the brute-force route that :func:`schmidt_state` is checked
    against.  The truncated generator G is exactly anti-Hermitian, so iG =
    V diag(w) V^dag is Hermitian and exp(G) = V diag(e^{-iw}) V^dag is
    unitary: the result keeps unit norm.  What truncation costs is a
    boundary reflection of order tanh^{N+1}|r|/cosh r in the coefficients.
    Pick N with ``cutoff_for("expm", ...)`` for a componentwise accuracy.

    Raises
    ------
    CutoffExceededError
        If N exceeds ``max_cutoff``.
    ExpmNotConvergedError
        If the computed exponential fails to preserve the vacuum norm to
        1e-12, which indicates a broken exponential rather than truncation.
    """
    r = check_squeeze_factor(r)
    phi = _require_finite("phi", phi)
    if N < 0:
        raise ValueError("cutoff must be nonnegative")
    if N > max_cutoff:
        raise CutoffExceededError(f"cutoff {N} exceeds max_cutoff={max_cutoff}")
    w, v = np.linalg.eigh(1j * _diagonal_generator(r, phi, N))
    coeffs = v @ (np.exp(-1j * w) * v[0].conj())
    norm = float(np.linalg.norm(coeffs))
    if abs(norm - 1.0) > _EXPM_NORM_TOL:
        raise ExpmNotConvergedError(
            f"exponentiated generator lost unitarity: |psi| = {norm!r}"
        )
    # Guard against the norm sitting a few ulp above 1.
    if norm > 1.0:
        coeffs /= norm
    return DiagonalFockState(cutoff=N, coeffs=coeffs)


def _energies(h: HamiltonianParams, N: int) -> np.ndarray:
    """Omega(n+n) + epsilon(n-n) on |n>|n>; epsilon cancels arithmetically."""
    n = np.arange(N + 1)
    return h.Omega * (n + n) + h.epsilon * (n - n)


def evolve(
    state: DiagonalFockState,
    h: HamiltonianParams,
    t: float,
    energy_shift: float = 0.0,
) -> DiagonalFockState:
    """Evolve under H = Omega(n+ + n-) + epsilon(n+ - n-) + energy_shift.

    On |n>|n> both occupations equal n, so the phase is written literally
    as e^{-i [Omega(n+n) + epsilon(n-n) + shift] t}.  ``energy_shift``
    adds a multiple of the identity, which is the gauge transformation the
    geometric phase must not see.
    """
    t = _require_finite("t", t)
    shift = _require_finite("energy_shift", energy_shift)
    energies = _energies(h, state.cutoff) + shift
    return DiagonalFockState(
        cutoff=state.cutoff,
        coeffs=state.coeffs * np.exp(-1j * energies * t),
    )


def overlap_numeric(a: DiagonalFockState, b: DiagonalFockState) -> complex:
    """Inner product sum conj(a_n) b_n of two states with equal cutoffs."""
    if a.cutoff != b.cutoff:
        raise CutoffMismatchError(
            f"cutoffs differ: {a.cutoff} vs {b.cutoff}; build both states "
            "at the same truncation"
        )
    return complex(np.vdot(a.coeffs, b.coeffs))


def energy_expectation(
    state: DiagonalFockState,
    h: HamiltonianParams,
    energy_shift: float = 0.0,
) -> float:
    """<H> = sum [Omega(n+n) + epsilon(n-n)] |c_n|^2, plus the gauge shift.

    The shift contributes c * 1 (the nominal state is normalized; using
    the truncated squared norm instead would leak the truncation tail into
    gauge-invariance checks).  For the squeezed vacuum this evaluates to
    2 Omega sinh^2 r up to the truncation tail, independent of phi and t.
    """
    shift = _require_finite("energy_shift", energy_shift)
    energies = _energies(h, state.cutoff)
    return float(np.sum(energies * np.abs(state.coeffs) ** 2)) + shift


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
    state: DiagonalFockState,
    h: HamiltonianParams,
    ts: np.ndarray,
    cutoffs: list[int],
    steps: int,
    shift: float,
) -> Iterator[tuple[int, float, np.ndarray, np.ndarray]]:
    """Composite trapezoid of <psi(tau)|H|psi(tau)> over [0, t] for each t in ``ts``.

    Row i starts from the first cutoffs[i] + 1 coefficients of ``state``.
    Rows that share a cutoff go through together, as many as fit in
    _BLOCK_ELEMENTS evolved coefficients (one at least).  Yields (i,
    integral, psi(0), psi(t)) per row.  Element for element, psi(tau_k) is
    ``evolve(psi(0), h, tau_k, shift)`` with psi(t) its last tau, each
    value repeats :func:`energy_expectation`, and each trapezoid runs on
    its own row: a 2-D reduction may add in another order and move the
    last bit.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    negative = ts[ts < 0.0]
    if negative.size:
        raise ValueError(f"t must be nonnegative, got {negative[0]}")
    cutoffs = np.asarray(cutoffs)
    order = np.argsort(cutoffs, kind="stable")
    done = 0
    while done < order.size:
        N = int(cutoffs[order[done]])
        size = max(1, _BLOCK_ELEMENTS // ((steps + 1) * (N + 1)))
        rows = order[done : done + size]
        rows = rows[cutoffs[rows] == N]
        done += rows.size
        initial = state.coeffs[: N + 1]
        taus = _tau_grids(ts[rows], steps)
        energies = _energies(h, N)
        evolved = initial * np.exp(-1j * (energies + shift) * taus[:, :, None])
        weights = np.abs(evolved) ** 2
        values = np.sum(energies * weights, axis=-1) + shift
        norms = weights[:, -1].sum(axis=-1)
        if not np.isfinite(norms).all():
            raise ValueError("coefficients must be finite")
        if norms.max() > 1.0 + 1e-12:
            raise ValueError(f"state over-normalized: |psi|^2 = {norms.max()}")
        for i, row_values, row_taus, final in zip(rows, values, taus, evolved[:, -1]):
            yield int(i), float(np.trapezoid(row_values, row_taus)), initial, final


def dynamical_integral(
    r: float,
    phi: float,
    h: HamiltonianParams,
    t: float,
    steps: int,
    *,
    accuracy: float = 1e-10,
    max_cutoff: int = DEFAULT_MAX_CUTOFF,
    energy_shift: float = 0.0,
) -> float:
    """Composite trapezoid quadrature of <psi(tau)|H|psi(tau)> over [0, t].

    The integrand is constant in time (evolution preserves every |c_n|),
    so the trapezoid rule is exact up to rounding for any step count; the
    result equals 2 Omega t sinh^2 r within ``accuracy``, the energy tail
    the cutoff is chosen for.
    """
    N = cutoff_for("energy", r, accuracy, t=h.Omega * t, max_cutoff=max_cutoff)
    ts = np.array([t], dtype=np.float64)
    ((_, integral, _, _),) = _energy_integrals(
        schmidt_state(r, phi, N), h, ts, [N], steps, energy_shift
    )
    return integral


def geometric_phase_numeric(
    r: float,
    phi: float,
    h: HamiltonianParams,
    t: float | np.ndarray,
    *,
    accuracy: float = 1e-10,
    max_cutoff: int = DEFAULT_MAX_CUTOFF,
    energy_shift: float = 0.0,
    steps: int = 16,
) -> float | np.ndarray:
    """Kinematic geometric phase arg<psi(0)|psi(t)> + integral, in [0, 2 pi).

    Computed entirely from truncated states: overlap by summation, energy
    integral by quadrature.  Agrees with
    :func:`tmsvphase.phases.geometric_phase` within ``accuracy``, the phase
    tail the cutoff is chosen for at each Omega t.

    ``t`` may be a 1-D array of times; the result is then an array, row i
    bit for bit the value at t[i] alone.  The whole grid uses one Schmidt
    state, built at its largest cutoff; row i reads the prefix its own
    ``cutoff_for("phase", ...)`` keeps, and psi(t) is the last tau of the
    quadrature, so no row builds or evolves a state of its own.
    """
    ts = np.asarray(t, dtype=np.float64)
    if ts.ndim > 1:
        raise ValueError(f"t must be a float or a 1-D array, got shape {ts.shape}")
    scalar = ts.ndim == 0
    ts = ts.reshape(-1)
    wts = (h.Omega * float(tt) for tt in ts)
    cutoffs = _cutoffs("phase", r, accuracy, wts, max_cutoff)
    state = schmidt_state(r, phi, max(cutoffs, default=0))
    shift = _require_finite("energy_shift", energy_shift)
    gammas = np.empty(ts.size)
    for i, delta, initial, final in _energy_integrals(state, h, ts, cutoffs, steps, shift):
        overlap = complex(np.vdot(initial, final))
        total = math.atan2(overlap.imag, overlap.real)
        gamma = (total + delta) % (2.0 * math.pi)
        gammas[i] = 0.0 if gamma >= 2.0 * math.pi else gamma
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


def lowering_operators(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense a+ and a- on the product basis, row-major in (n+, n-).

    Entries sqrt(n) are built from integer indices cast once to float.
    """
    if N < 0:
        raise ValueError("cutoff must be nonnegative")
    steps = np.sqrt(np.arange(1, N + 1, dtype=np.int64).astype(np.float64))
    a = np.diag(steps, 1).astype(np.complex128)
    eye = np.eye(N + 1, dtype=np.complex128)
    return np.kron(a, eye), np.kron(eye, a)


def _occupations(N: int) -> tuple[np.ndarray, np.ndarray]:
    n = np.arange(N + 1)
    return np.repeat(n, N + 1), np.tile(n, N + 1)


def _interior(N: int, margin: int) -> np.ndarray:
    if not (0 <= margin <= N):
        raise ValueError(f"margin must lie in [0, {N}], got {margin}")
    n_plus, n_minus = _occupations(N)
    return (n_plus <= N - margin) & (n_minus <= N - margin)


def two_mode_squeeze_operator(
    r: float, eta: float, N: int, max_cutoff: int = FULL_SPACE_MAX_CUTOFF
) -> FullTwoModeOperator:
    """The squeeze operator on the full product basis, with exact elements.

    Uses the normal-ordered factorization

        S = exp(-e^{2i eta} tanh r K+) (cosh r)^{-(n+ + n- + 1)}
            exp(e^{-2i eta} tanh r K-),

    K+ = a+^dag a-^dag, K- = a+ a-.  On the truncated space both ladder
    factors are nilpotent, so their Taylor sums terminate and every matrix
    element below the cutoff equals its infinite-dimensional value (no
    boundary reflection); that is what makes small-N operator-identity
    checks meaningful.  The factorization itself is validated against the
    generator exponential in the test suite.
    """
    r = check_squeeze_factor(r)
    eta = _require_finite("eta", eta)
    if N < 0:
        raise ValueError("cutoff must be nonnegative")
    if N > max_cutoff:
        raise CutoffExceededError(
            f"full-space cutoff {N} exceeds max_cutoff={max_cutoff}; "
            f"matrices would be {(N + 1) ** 2}x{(N + 1) ** 2}"
        )
    a_plus, a_minus = lowering_operators(N)
    k_minus = a_plus @ a_minus
    k_plus = k_minus.conj().T
    tanh_r = math.tanh(r)

    def nilpotent_exp(mat: np.ndarray) -> np.ndarray:
        # mat^(N+1) = 0: the Taylor series is a finite, exact sum.
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
    return FullTwoModeOperator(cutoff=N, matrix=ascend @ middle @ descend)


def bogoliubov_residual(
    r: float,
    eta: float,
    N: int,
    margin: int,
    max_cutoff: int = FULL_SPACE_MAX_CUTOFF,
) -> float:
    """Worst-case defect of the squeeze conjugation rules for a+ and a-.

    The rules S^dag a+ S = a+ cosh r - a-^dag e^{2i eta} sinh r (and the
    a- twin) are verified in the equivalent one-sided form

        a S = S (a cosh r - b^dag e^{2i eta} sinh r),

    restricted to entries with n+, n- <= N - margin on both axes.  The
    one-sided form leaks across the cutoff by at most one ladder step, so
    any margin >= 1 removes the truncation edge entirely and the residual
    measures the identity itself (rounding level when it holds, order one
    when it does not).  At margin = 0 the edge rows dominate and the
    residual is large.
    """
    if margin < 0:
        raise ValueError("margin must be nonnegative")
    squeeze = two_mode_squeeze_operator(r, eta, N, max_cutoff)
    a_plus, a_minus = lowering_operators(N)
    keep = _interior(N, margin)
    cosh_r, sinh_r = math.cosh(r), math.sinh(r)
    phase = np.exp(2j * eta)
    worst = 0.0
    for a_op, partner in ((a_plus, a_minus), (a_minus, a_plus)):
        rhs = a_op * cosh_r - partner.conj().T * (phase * sinh_r)
        defect = a_op @ squeeze.matrix - squeeze.matrix @ rhs
        worst = max(worst, float(np.abs(defect[np.ix_(keep, keep)]).max()))
    return worst


def rotation_conjugation_check(
    r: float,
    phi: float,
    theta: float,
    epsilon_t: float,
    N: int,
    margin: int = 4,
    max_cutoff: int = FULL_SPACE_MAX_CUTOFF,
) -> RotationResiduals:
    """Verify the two diagonal conjugation identities of the squeeze operator.

    Rotation: e^{-i theta (n+ + n-)} S(r, phi) e^{+i theta (n+ + n-)}
    equals S(r, phi - theta).  Modulation: conjugation by
    e^{-i epsilon t (n+ - n-)} leaves S unchanged for any epsilon t.  Both
    conjugating operators are diagonal, so truncation does not disturb
    them and the residuals sit at rounding level when the identities hold.
    """
    theta = _require_finite("theta", theta)
    epsilon_t = _require_finite("epsilon_t", epsilon_t)
    squeeze = two_mode_squeeze_operator(r, phi, N, max_cutoff)
    rotated_target = two_mode_squeeze_operator(r, phi - theta, N, max_cutoff)
    n_plus, n_minus = _occupations(N)
    keep = _interior(N, margin)

    def conjugate_by_diagonal(diag_phase: np.ndarray) -> np.ndarray:
        return diag_phase[:, None] * squeeze.matrix * diag_phase.conj()[None, :]

    rot = np.exp(-1j * theta * (n_plus + n_minus))
    defect_rot = conjugate_by_diagonal(rot) - rotated_target.matrix
    mod = np.exp(-1j * epsilon_t * (n_plus - n_minus))
    defect_mod = conjugate_by_diagonal(mod) - squeeze.matrix
    return RotationResiduals(
        rotation=float(np.abs(defect_rot[np.ix_(keep, keep)]).max()),
        modulation=float(np.abs(defect_mod[np.ix_(keep, keep)]).max()),
    )


__all__ = [
    "DEFAULT_MAX_CUTOFF",
    "FULL_SPACE_MAX_CUTOFF",
    "DiagonalFockState",
    "FullTwoModeOperator",
    "RotationResiduals",
    "bogoliubov_residual",
    "cutoff_for",
    "dynamical_integral",
    "energy_expectation",
    "entropy_numeric",
    "evolve",
    "geometric_phase_numeric",
    "lowering_operators",
    "overlap_numeric",
    "rotation_conjugation_check",
    "schmidt_state",
    "squeeze_by_exponentiation",
    "two_mode_squeeze_operator",
]
