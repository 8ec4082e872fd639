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
``omega_t`` or ``r`` sweep.  Each slice of rows, with a bounded number of
Schmidt coefficients, builds one state per distinct r at the largest cutoff
its rows keep, and each row reads the prefix its own cutoff keeps.  Rows
sharing a cutoff and a state are evolved and integrated together in small
blocks on worker threads, with digits independent of the grid and the CPUs.
A row evolves its state to each tau node of its energy quadrature, t being
the last.  The integrand is constant in time, so the trapezoid over [0, t]
is exact up to rounding at any step count (``verify``'s
``dynamical-quadrature`` holds 1, 7 and 200 steps to one value), and a
sweep asks for one step: each of its rows evolves its state once, to t.
:func:`evolve` is the standalone per-state evolution it is checked against.

Truncation error policy: the Schmidt coefficient of |n>|n> is
(-e^{2i phi} tanh r)^n / cosh r, so every truncation error has a
closed-form geometric tail in the cutoff N, and :func:`cutoff_for` is the
one place that turns an observable's accuracy target into N.  Operator
identities are asserted only on entries a ``margin`` away from the cutoff,
where the constructions used here keep them exact up to rounding.

No state outlives a call: workspaces and worker threads belong to the
call that made them, and results depend only on the arguments.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .errors import CutoffExceededError, ExpmNotConvergedError
from .phases import HamiltonianParams, _reduce_angle
from .su11 import _require_finite, check_squeeze_factor

#: Default bound on diagonal-subspace cutoffs (vectors of this length).
DEFAULT_MAX_CUTOFF = 4096

#: Bound on full two-mode cutoffs, where :func:`two_mode_squeeze_operator` is accurate.
FULL_SPACE_MAX_CUTOFF = 32

#: Norm defect above which an exponentiated generator is considered broken.
_EXPM_NORM_TOL = 1e-12

# Evolved coefficients per block of grid rows: 65 one-step sweep rows at N = 377.
_BLOCK_ELEMENTS = 24576

# Schmidt coefficients one slice of grid rows holds: 4 states at N = 4095.
_STATE_ELEMENTS = 1 << 14


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
    return _cutoffs(observable, [(r, t)], accuracy, max_cutoff)[0]


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
    observable: str, pairs: Iterable[tuple[float, float]], accuracy: float, max_cutoff: int
) -> list[int]:
    """:func:`cutoff_for` at each (r, Omega t) in ``pairs``.

    The tail is rebuilt only when r changes.  A row keeps the previous
    row's N while that is still the smallest, tail(N) <= accuracy <
    tail(N - 1); otherwise it bisects, so a grid sorted in r or in Omega t
    costs two tail evaluations per row between cutoff changes.
    """
    if not (0.0 < accuracy < 1.0):
        raise ValueError(f"accuracy must lie in (0, 1), got {accuracy}")
    if max_cutoff < 0:
        raise ValueError("max_cutoff must be nonnegative")
    if observable not in _OBSERVABLES:
        raise ValueError(f"unknown observable {observable!r}, not in {list(_OBSERVABLES)}")
    cutoffs = []
    N, last = -1, None
    for r, wt in pairs:
        if r != last:
            last, r_abs = r, abs(check_squeeze_factor(r))
            if math.tanh(r_abs) == 1.0:
                raise CutoffExceededError(f"tanh r rounds to 1 at r={r_abs}: no cutoff is enough")
            tail = _tails(r_abs)[observable] if r_abs > 0.0 else None
        wt = abs(_require_finite("t", wt))
        if tail is None:
            N = 0
        elif N < 0 or tail(N, wt) > accuracy or (N > 0 and tail(N - 1, wt) <= accuracy):
            if tail(max_cutoff, wt) > accuracy:
                raise CutoffExceededError(
                    f"{observable} to {accuracy:g} at r={r_abs}, Omega t={wt:g} needs a "
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
    theta = -1j * np.exp(2j * phi)
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
    return DiagonalFockState(state.coeffs * np.exp(-1j * energies * t))


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


def _cpu_count() -> int:
    """CPUs this process may run on, which bounds the grid's worker threads."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _energy_integrals(
    states: list[DiagonalFockState], which: list[int], h: HamiltonianParams, ts: np.ndarray,
    cutoffs: list[int], steps: int, shift: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Composite trapezoid of <psi(tau)|H|psi(tau)> over [0, t] for each t in ``ts``.

    Row i starts from the first cutoffs[i] + 1 coefficients of
    states[which[i]]; :func:`_evolution` hands over slices of rows whose
    states hold at most _STATE_ELEMENTS coefficients.  Returns, in grid
    order, each row's integral and its overlap <psi(0)|psi(t)>.  Element
    for element, psi(tau_k) is ``evolve(psi(0), h, tau_k, shift)`` with
    psi(t) its last tau, and each value repeats the per-state reference
    ``_expected_energy`` in ``tests/test_fock.py``; at tau = 0 the phase
    factor exp(-0j) is exactly 1, so that value is taken from psi(0) once
    per block.

    Rows that share a cutoff and a state go through together, as many as
    fit in _BLOCK_ELEMENTS evolved coefficients (one at least).  A block's
    reductions run along contiguous rows, so each row adds in the order a
    lone row would.  The blocks are shared out to the calling thread and up
    to one helper thread per further usable CPU; every block writes only
    its own rows, so the digits do not depend on how many threads run.
    Workers call numpy alone: the states, tau grids and energies are built
    by the caller or here for the whole grid, and each block slices them.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    negative = ts[ts < 0.0]
    if negative.size:
        raise ValueError(f"t must be nonnegative, got {negative[0]}")
    cutoffs = np.asarray(cutoffs)
    # Rows sorted by (cutoff, state), in grid order within each pair.
    keys = cutoffs * len(states) + np.asarray(which, dtype=cutoffs.dtype)
    order = np.argsort(keys, kind="stable")
    blocks = []
    done = 0
    while done < order.size:
        key = keys[order[done]]
        N, k = divmod(int(key), len(states))
        size = max(1, _BLOCK_ELEMENTS // (steps * (N + 1)))
        rows = order[done : done + size]
        rows = rows[keys[rows] == key]
        done += rows.size
        blocks.append((rows, states[k].coeffs[: N + 1]))
    taus = _tau_grids(ts, steps)
    energies = _energies(h, int(cutoffs.max(initial=0)))
    integrals = np.empty(ts.size)
    overlaps = np.empty(ts.size, dtype=np.complex128)

    def integrate(rows: np.ndarray, initial: np.ndarray, spare: np.ndarray,
                  real_spare: np.ndarray):
        # The block's two large arrays are views of its thread's spare buffers.
        block_energies = energies[: initial.size]
        block_taus = taus[rows]
        shape = (rows.size, steps, initial.size)
        size = math.prod(shape)
        # Overflowing input ends in the finite check below, not in warnings;
        # the error state is set here because threads do not inherit it.
        with np.errstate(over="ignore", invalid="ignore"):
            evolved = np.multiply(
                -1j * (block_energies + shift), block_taus[:, 1:, None],
                out=spare[:size].reshape(shape),
            )
            np.exp(evolved, out=evolved)
            np.multiply(initial, evolved, out=evolved)
            weights = np.abs(evolved, out=real_spare[:size].reshape(shape))
            np.square(weights, out=weights)
            norms = weights[:, -1].sum(axis=-1)
        if not np.isfinite(norms).all():
            raise ValueError("coefficients must be finite")
        if norms.max() > 1.0 + 1e-12:
            raise ValueError(f"state over-normalized: |psi|^2 = {norms.max()}")
        values = np.empty(block_taus.shape)
        values[:, 0] = (block_energies * np.abs(initial) ** 2).sum() + shift
        np.multiply(block_energies, weights, out=weights)
        values[:, 1:] = weights.sum(axis=-1) + shift
        # np.trapezoid's arithmetic, row by row.
        widths = block_taus[:, 1:] - block_taus[:, :-1]
        integrals[rows] = (widths * (values[:, 1:] + values[:, :-1]) / 2.0).sum(axis=-1)
        overlaps[rows] = [np.vdot(initial, final) for final in evolved[:, -1]]

    # Threads claim blocks in plan order.  Once a block fails, later blocks
    # are skipped and the first failure in plan order is raised, the one a
    # loop over the blocks would raise.
    claims = iter(range(len(blocks)))
    failures: list[tuple[int, BaseException]] = []

    def drain(spare: np.ndarray, real_spare: np.ndarray) -> None:
        for k in claims:
            if any(j < k for j, _ in failures):
                return
            try:
                integrate(*blocks[k], spare, real_spare)
            except BaseException as exc:
                failures.append((k, exc))

    # The calling thread drains as well.  Starting a helper and sharing the
    # interpreter with it costs about a block, so each thread needs two
    # blocks' worth of work.  Spare buffers are allocated here, so no helper
    # keeps freed memory; the helpers end with this call.
    sizes = [rows.size * steps * initial.size for rows, initial in blocks]
    workers = min(_cpu_count(), len(blocks), sum(sizes) // (2 * _BLOCK_ELEMENTS))
    largest = max(sizes, default=0)
    spares = [
        (np.empty(largest, dtype=np.complex128), np.empty(largest))
        for _ in range(max(1, workers))
    ]
    helpers = [threading.Thread(target=drain, args=spare) for spare in spares[1:]]
    for helper in helpers:
        helper.start()
    drain(*spares[0])
    for helper in helpers:
        helper.join()
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
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
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Each row's energy integral, overlap <psi(0)|psi(t)> and cutoff, ts 1-D.

    ``r`` is a float or one value per row; row i keeps ``cutoff_for(observable,
    r[i], accuracy, t=Omega t[i])``.  Rows go to :func:`_energy_integrals` in
    consecutive slices, each with one Schmidt state per distinct r at the
    largest cutoff its rows keep, built here in the calling thread.  A slice
    of more than one row holds at most _STATE_ELEMENTS coefficients, which
    fits one state at any cutoff up to DEFAULT_MAX_CUTOFF.  The overlap does
    not depend on ``steps``: the last tau of each row is t itself.
    """
    rs = np.asarray(r, dtype=np.float64)
    rs = rs.tolist() if rs.ndim else [rs.item()] * ts.size
    wts = (h.Omega * float(t) for t in ts)
    cutoffs = _cutoffs(observable, zip(rs, wts, strict=True), accuracy, max_cutoff)
    shift = _require_finite("energy_shift", energy_shift)
    integrals = np.empty(ts.size)
    overlaps = np.empty(ts.size, dtype=np.complex128)
    start = 0
    while start < ts.size:
        # Length of each distinct r's state, in order of first appearance.
        lengths: dict[float, int] = {}
        held, stop = 0, start
        while stop < ts.size:
            grow = cutoffs[stop] + 1 - lengths.get(rs[stop], 0)
            if grow > 0:
                if held + grow > _STATE_ELEMENTS and stop > start:
                    break
                lengths[rs[stop]] = cutoffs[stop] + 1
                held += grow
            stop += 1
        index = {rv: k for k, rv in enumerate(lengths)}
        rows = slice(start, stop)
        integrals[rows], overlaps[rows] = _energy_integrals(
            [schmidt_state(rv, phi, length - 1) for rv, length in lengths.items()],
            [index[rv] for rv in rs[rows]], h, ts[rows], cutoffs[rows], steps, shift,
        )
        start = stop
    return integrals, overlaps, cutoffs


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
    gammas = [_reduce_angle(math.atan2(overlap.imag, overlap.real) + delta)
              for delta, overlap in zip(deltas.tolist(), overlaps.tolist())]
    return gammas[0] if scalar else np.array(gammas)


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

    ascend = ladder_exp(-np.exp(2j * eta) * tanh_r)
    middle = np.cosh(r) ** -(n + n_minus + 1.0)
    descend = ladder_exp(np.exp(-2j * eta) * tanh_r).transpose(0, 2, 1)
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
    phase = np.exp(2j * eta)
    a_plus, a_minus_dag = _ladders(N)
    # Transposed, the two map sector d - 1 up to d as a- and a+^dag.
    a_minus, a_plus_dag = a_minus_dag.transpose(0, 2, 1), a_plus.T
    below, above = squeeze.stack[:-1], squeeze.stack[1:]
    down = a_plus @ above - below @ (a_plus * cosh_r - a_minus_dag * (phase * sinh_r))
    up = a_minus @ below - above @ (a_minus * cosh_r - a_plus_dag * (phase * sinh_r))
    return max(_max_kept(down, kept[:-1], kept[1:]), _max_kept(up, kept[1:], kept[:-1]))


def rotation_conjugation_check(
    r: float, phi: float, theta: float, epsilon_t: float, N: int, margin: int = 4
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
    squeeze = two_mode_squeeze_operator(r, phi, N).stack
    rotated_target = two_mode_squeeze_operator(r, phi - theta, N).stack
    kept = _kept_slots(N, margin)
    n_plus, n_minus = _occupations(N)

    def conjugate_by_diagonal(diag_phase: np.ndarray) -> np.ndarray:
        return diag_phase[:, :, None] * squeeze * diag_phase.conj()[:, None, :]

    rot = np.exp(-1j * theta * (n_plus + n_minus))
    defect_rot = conjugate_by_diagonal(rot) - rotated_target
    mod = np.exp(-1j * epsilon_t * (n_plus - n_minus))
    defect_mod = conjugate_by_diagonal(mod) - squeeze
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
