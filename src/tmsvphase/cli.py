"""Command line front end: verification runs, parameter sweeps, decompositions.

Subcommands:

* ``verify``    runs the whole invariant suite (algebra closure, analytic
  versus oracle agreement, gauge invariance, operator-identity residuals,
  entropy identities) and prints one pass/fail line per invariant.
* ``sweep``     emits machine-readable tables (CSV or JSON) of the phase
  and entropy quantities along a one-parameter grid, including the
  entropy-versus-cyclic-phase curve.
* ``decompose`` factors a product of two squeezes and prints the
  squeeze-plus-rotation parameters with the reconstruction residual.

Output contract: identical flags produce byte-identical output.  CSV
sweeps, ``verify`` and ``decompose`` print numbers with 12 significant
digits, scientific notation below 1e-4, "." as the decimal separator, no
locale dependence; JSON cells print Python's shortest round-trip ``repr``,
as ``json`` does, and -0.0 as -0.0.  Angles are radians unless
``--degrees`` is given, which converts display only.

Exit codes: 0 success, 1 invariant failure, 2 usage error, 3 resource
limit (no Fock cutoff up to the bound reaches the needed accuracy, a
sweep's own ``--max-cutoff`` or 4096 for ``verify``; no double carries a
swept phase to the sweep's bound, which is checked before the oracle runs;
memory runs out; or the reader closes stdout early, as ``| head`` does).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import asdict, dataclass, field
from typing import Callable, NoReturn

import numpy as np

from . import fock, phases, su11
from .errors import CutoffExceededError, ExpmNotConvergedError, PrecisionExceededError
from .phases import TAU, HamiltonianParams
from .su11 import SqueezeParams

#: Largest tolerated gap between analytic and oracle geometric phase in sweeps.
SWEEP_PHASE_BOUND = 1e-8

# A comparison against a bound asks the Fock oracle for bound / _HEADROOM.
_HEADROOM = 10.0

_DEG = 180.0 / math.pi


# How a finite number prints, indexed by _is_small: 12 significant digits,
# which prints 0 as "0", or scientific notation with 12 digits.
_FORMATS = ("%.12g", "%.11e")


def _is_small(x):
    """Whether a number prints in scientific notation: 0 < |x| < 1e-4.

    ``x`` is a float or an array of them, checked element by element.
    """
    return (x != 0.0) & (abs(x) < 1e-4)


def format_number(x: float) -> str:
    """12 significant digits, scientific below 1e-4, deterministic.

    -0.0 prints as 0, as every zero does.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"refusing to format non-finite value {x!r}")
    return _FORMATS[_is_small(x)] % (x + 0.0)


def _csv_formats(cells: np.ndarray) -> list[str]:
    """Each CSV line's format for the finite ``cells``, a cell as format_number prints it.

    Rows whose cells fall in the same _FORMATS classes share one format.
    The caller adds 0.0 to the cells first, or -0.0 would print as -0.
    """
    keys = (_is_small(cells) @ (1 << np.arange(cells.shape[1]))).tolist()
    formats = {
        key: ",".join(_FORMATS[key >> j & 1] for j in range(cells.shape[1]))
        for key in set(keys)
    }
    return [formats[key] for key in keys]


def circle_distance(a, b):
    """Distance between two angles on the circle, in [0, pi], elementwise for arrays."""
    return abs((a - b + math.pi) % TAU - math.pi)


# ---------------------------------------------------------------------------
# Sweep specification


# The parameters a sweep holds fixed, with their defaults.
_SWEEP_DEFAULTS = {"r": 1.0, "Omega": 1.0, "epsilon": 0.0, "phi": 0.0, "t": 1.0}


@dataclass(frozen=True)
class SweepSpec:
    """One swept variable over [start, stop] with the rest held fixed.

    ``variable`` is one of ``r``, ``omega_t``, ``gamma_c``; ``fixed`` holds
    the non-swept parameters (r, Omega, epsilon, phi, t).
    """

    variable: str
    start: float
    stop: float
    points: int
    fixed: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.variable not in ("r", "omega_t", "gamma_c"):
            raise ValueError(f"unknown sweep variable {self.variable!r}")
        # Python floats and an int, which a JSON sweep prints as given.
        start, stop = float(self.start), float(self.stop)
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ValueError("sweep bounds must be finite")
        if not start < stop:
            raise ValueError(f"start must be below stop, got [{start}, {stop}]")
        points = fock._count("points", self.points)
        if points < 2:
            raise ValueError(f"points must be at least 2, got {points}")
        fixed = {}
        for key, value in self.fixed.items():
            if key not in _SWEEP_DEFAULTS:
                raise ValueError(f"unknown fixed parameter {key!r}")
            fixed[key] = float(value)
            if not math.isfinite(fixed[key]):
                raise ValueError(f"fixed parameter {key} must be finite")
        for name, value in (("start", start), ("stop", stop), ("points", points), ("fixed", fixed)):
            object.__setattr__(self, name, value)


# Output columns of each sweep in order, each flagged True when it is an
# angle that --degrees converts.
_PHASE_COLUMNS = (
    ("re_overlap", False), ("im_overlap", False), ("total_phase", True),
    ("delta", True), ("gamma_mod_2pi", True), ("gamma_numeric", True),
    ("abs_error", True),
)
_COLUMNS = {
    "omega_t": (("omega_t", True),) + _PHASE_COLUMNS,
    "r": (("r", False),) + _PHASE_COLUMNS + (
        ("gamma_c_unreduced", True), ("gamma_c_reduced", True), ("entropy", False),
    ),
    "gamma_c": (("gamma_c", True), ("entropy", False)),
}


def sweep_rows(spec: SweepSpec, max_cutoff: int = fock.DEFAULT_MAX_CUTOFF):
    """Evaluate the sweep grid; returns (headers, table), rows in grid order.

    The headers are the names in ``_COLUMNS[spec.variable]`` and the table
    is one (points, columns) float64 array in that column order.  A phase
    sweep's rows are (r, t): the grid for the swept one, and the fixed one
    handed over as one float, which stands for every row (the rule of
    ``phases``), so an ``omega_t`` sweep forms sinh^2 r once.  The precision
    gate, the oracle and the closed forms each take the grid in one call.
    The oracle evolves each row to t alone (its delta is t <H>_0, which
    verify's ``dynamical-quadrature`` holds to 2 Omega t sinh^2 r).  The
    closed-form columns are the scalar API's own kernels in ``phases``, so
    every cell is bit for bit ``phases.geometric_phase``,
    ``cyclic_geometric_phase`` or ``entropy_from_*`` at its row; the columns
    are then stacked.  The oracle has validated r and t by then; a gamma_c
    grid rises from its first row, whose check holds for all.

    Before the oracle runs, the first row with |r| > R_MAX is a ValueError
    (a usage error at any t), and PrecisionExceededError refuses a table with
    a row whose cond eps exceeds SWEEP_PHASE_BOUND.  cond = delta + 2 Omega t r
    sinh 2r + 1, with delta = 2 Omega t sinh^2 r, is the condition number
    of gamma in (r, Omega t): rounding the inputs alone moves gamma by
    about cond eps, so beyond the bound no double carries it.
    """
    grid = np.linspace(spec.start, spec.stop, spec.points)
    fx = {**_SWEEP_DEFAULTS, **spec.fixed}
    headers = [name for name, _ in _COLUMNS[spec.variable]]
    if spec.variable == "gamma_c":
        phases.entropy_from_cyclic_phase(grid[0])  # the least row: its check holds for all
    else:
        h = HamiltonianParams(fx["Omega"], fx["epsilon"])
        # Overflow is quiet here; only the offending rows' indices outlive the
        # gate, not a cond per row.  At t or Omega t = inf a row with r = 0 gives
        # nan and passes, to end in the oracle's usage error; rows with r > 0 fail.
        with np.errstate(over="ignore", invalid="ignore"):
            if spec.variable == "omega_t":
                r, t = fx["r"], grid / fx["Omega"]
            else:
                r, t = grid, fx["t"]
            # |r| > R_MAX is a usage error whatever t, with the oracle's own message.
            beyond = np.flatnonzero(~(np.abs(r) <= su11.R_MAX))
            if beyond.size:
                su11.check_squeeze_factor(np.broadcast_to(r, grid.shape)[beyond[0]])
            # np.square, not ** 2: a numpy float's ** 2 calls pow, which can
            # round a fixed r's square otherwise than an array's square.
            over = np.flatnonzero(
                (2.0 * fx["Omega"] * t * (np.square(np.sinh(r)) + r * np.sinh(2.0 * r)) + 1.0)
                * np.finfo(np.float64).eps > SWEEP_PHASE_BOUND
            )
            if over.size:
                row_r, row_t = (np.broadcast_to(x, grid.shape)[over[0]] for x in (r, t))
                raise PrecisionExceededError(
                    f"no double carries the geometric phase at r={row_r:g}, Omega t="
                    f"{fx['Omega'] * row_t:g}: cond * eps exceeds the sweep bound "
                    f"{SWEEP_PHASE_BOUND:.1e}"
                )
        numeric = fock.geometric_phase_numeric(
            r, h, t, accuracy=SWEEP_PHASE_BOUND / _HEADROOM, max_cutoff=max_cutoff,
        )
    if spec.variable == "gamma_c":
        columns = (grid, phases._cyclic_entropy(grid))
    else:
        sinh2 = phases._sinh2(r)
        overlap, total, delta, gamma, _ = phases._phase_row(sinh2, h.Omega, t)
        columns = (grid, overlap.real, overlap.imag, total, delta, gamma,
                   numeric, circle_distance(numeric, gamma))
    if spec.variable == "r":
        columns += (*phases._cyclic_phase(sinh2), phases._entropy(sinh2))
    return headers, np.column_stack(columns)


def cmd_sweep(spec: SweepSpec, fmt: str = "csv", max_cutoff: int = fock.DEFAULT_MAX_CUTOFF,
              degrees: bool = False) -> int:
    """Print the sweep table; nonzero exit if any oracle gap exceeds 1e-8.

    ``fmt`` is ``csv`` or ``json``, else a ValueError before the grid is
    evaluated.  A non-finite cell is named by its column, the first in
    row-major order.  One writer serves both formats: a head, then
    ``phases._BATCH_ROWS`` rows of ``table * scales`` at a time
    (``--degrees`` scales the angle columns of ``_COLUMNS``), each chunk one
    ``%`` over its row formats joined by a separator, then a tail, so no
    list or string holds the table.  A CSV row's format follows its cells' _FORMATS classes; a
    JSON row is an object of ``%r`` cells, as ``json`` prints a finite
    float, inside the spec as ``json.dumps`` prints it.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    headers, table = sweep_rows(spec, max_cutoff)

    bad = np.flatnonzero(~np.isfinite(table))
    if bad.size:
        print(f"non-finite value in column {headers[bad[0] % len(headers)]}", file=sys.stderr)
        return 1
    # Only the phase sweeps have a gap column.
    gaps = [i for i, name in enumerate(headers) if name == "abs_error"]
    worst_gap = float(table[:, gaps].max(initial=0.0))

    scales = np.array([_DEG if degrees and angle else 1.0 for _, angle in _COLUMNS[spec.variable]])
    if fmt == "csv":
        head, sep, tail = ",".join(headers) + "\n", "\n", "\n"
    else:
        import json  # here alone: verify and CSV sweeps skip its import

        # The spec nested one level, as json.dumps(indent=2) nests it.
        spec_text = json.dumps({**asdict(spec), "degrees": degrees}, indent=2).replace("\n", "\n  ")
        head, sep, tail = '{\n  "spec": %s,\n  "rows": [\n' % spec_text, ",\n", "\n  ]\n}\n"
        row = "    {\n" + ",\n".join(f'      "{name}": %r' for name in headers) + "\n    }"

    out = sys.stdout
    out.write(head)
    for start in range(0, len(table), phases._BATCH_ROWS):
        cells = table[start : start + phases._BATCH_ROWS] * scales
        if fmt == "csv":
            cells += 0.0  # -0.0 prints as 0, as in format_number
            formats = _csv_formats(cells)
        else:
            formats = [row] * len(cells)
        if start:
            out.write(sep)
        out.write(sep.join(formats) % tuple(cells.ravel().tolist()))
    out.write(tail)

    if worst_gap > SWEEP_PHASE_BOUND:
        print(
            f"analytic/oracle phase gap {worst_gap:.3e} exceeds "
            f"{SWEEP_PHASE_BOUND:.1e}",
            file=sys.stderr,
        )
        return 1
    return 0


# ---------------------------------------------------------------------------
# Decompose


def _reconstruction_residual(r1, phi1, r2, phi2, triple):
    """Largest entry gap between the rebuilt triple and C(r2, phi2) C(-r1, phi1).

    ``triple`` is (R, Phi, Theta) of S(r1, phi1)^dag S(r2, phi2); every
    argument is a float or an array, and so is the gap.
    """
    target = su11._product(su11._c_pair(r2, phi2), su11._c_pair(-r1, phi1))
    rebuilt = su11._reconstruct_pair(*triple)
    return np.maximum(abs(rebuilt[0] - target[0]), abs(rebuilt[1] - target[1]))


def cmd_decompose(prime: SqueezeParams, doubleprime: SqueezeParams, degrees: bool = False) -> int:
    """Print the squeeze-plus-rotation factorization of S(prime)^dag S(doubleprime).

    ``reconstruction_residual`` is the largest absolute entry gap between
    the rebuilt triple and the product, whose entries are of order cosh R,
    so its rounding floor grows like eps cosh R: ``decompose 20 0 -20 0``
    prints R = 40 and a residual of 14.4, sinh 40 sin(fl(pi)) from
    e^{i(2 Phi - Theta)} at Phi = pi / 2, which is 0.55 eps of cosh R.
    """
    triple = su11.decompose_product(prime, doubleprime)
    residual = _reconstruction_residual(
        prime.r, prime.phi, doubleprime.r, doubleprime.phi, (triple.R, triple.Phi, triple.Theta)
    )
    scale = _DEG if degrees else 1.0
    print(f"R = {format_number(triple.R)}")
    print(f"Phi = {format_number(triple.Phi * scale)}")
    print(f"Theta = {format_number(triple.Theta * scale)}")
    print(f"reconstruction_residual = {format_number(residual)}")
    print(f"degenerate_phase = {'true' if triple.degenerate else 'false'}")
    return 0


# ---------------------------------------------------------------------------
# Verify: the invariant suite


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    bound: float
    detail: str


def _invariant(name, bound):
    """Make a verify check from a generator of sample blocks.

    The generator gets ``(bound / _HEADROOM, max_cutoff, rng)``, the first
    being the accuracy it asks of the Fock oracle.  It yields its samples in
    blocks ``(values, describe)``: a 1-D float64 array and a function that
    formats sample i's detail, called for the worst sample alone.  The check
    reports its worst sample, a Python float, against ``bound``.  The samples
    are read in order: the first sets the worst and only a larger one
    replaces it, so a check whose every value is 0 names its first sample.
    It fails closed: the first non-finite value becomes the worst and fails
    the check, as does a generator without samples; the generator runs to
    its end, so ``rng`` moves as on a passing check.
    """

    def decorate(samples):
        @functools.wraps(samples)
        def check(max_cutoff, rng):
            worst, where = 0.0, None
            for values, describe in samples(bound / _HEADROOM, max_cutoff, rng):
                if not values.size:
                    continue
                # The block's first non-finite value, else its first maximum.
                bad = ~np.isfinite(values)
                i = int((bad if bad.any() else values).argmax())
                # Also true for nan; a non-finite worst is kept.
                if where is None or math.isfinite(worst) and not values[i] <= worst:
                    worst, where = float(values[i]), functools.partial(describe, i)
            detail = "no samples" if where is None else where()
            if not math.isfinite(worst):
                detail = f"non-finite sample at {detail}"
            return CheckResult(name, where is not None and worst <= bound, worst, bound, detail)

        return check

    return decorate


def _uniform_draws(rng, count, *bounds):
    """(count, len(bounds)) draws of ``rng.uniform(a, b)``, one column per (a, b).

    Row by row, as a loop of uniform calls draws them: a + (b - a) * u is
    random.uniform's own formula, so every value has that call's bits and
    ``rng`` ends where the loop leaves it.
    """
    size = count * len(bounds)
    # iter(f, None) calls f until fromiter has its size values.
    u = np.fromiter(iter(rng.random, None), np.float64, size).reshape(count, len(bounds))
    a, b = np.array(bounds, dtype=np.float64).T
    u *= b - a
    u += a
    return u


@_invariant("su11-closure", 1e-9)
def _su11_closure(accuracy, max_cutoff, rng):
    # 60 chains of 100 steps, each step's r before its phi, chain by chain;
    # the chains step together, their factors formed 10 steps at a time: the
    # temporaries of 600 samples stay near 10 KB each, and run faster than one
    # call's of 6000.  The running products stay unvalidated pairs:
    # GroupElement would raise at the defect this check bounds, before the
    # check could report it.
    chains, steps, block = 60, 100, 10
    draws = _uniform_draws(rng, chains * steps, (-3, 3), (-math.pi, math.pi))
    r, phi = draws.reshape(chains, steps, 2).T  # each (steps, chains)
    defects = np.empty((steps, chains))
    products = np.empty((2, block, chains), dtype=complex)
    pair = (su11.IDENTITY.m11, su11.IDENTITY.m12)
    for start in range(0, steps, block):
        m11, m12 = su11._c_pair(r[start : start + block], phi[start : start + block])
        for k in range(block):
            pair = su11._product(pair, (m11[k], m12[k]))
            products[:, k] = pair
        defects[start : start + block] = su11._defect(*products)
    yield defects.T.ravel(), lambda i: f"chain {i // steps}, step {i % steps}"


@_invariant("su11-reconstruction", 1e-10)
def _su11_reconstruction(accuracy, max_cutoff, rng):
    # Each sample draws r', phi', r'', phi'' in that order.
    angle, factor = (-math.pi, math.pi), (-3, 3)
    r1, phi1, r2, phi2 = _uniform_draws(rng, 1000, factor, angle, factor, angle).T
    residual = _reconstruction_residual(r1, phi1, r2, phi2, su11._decompose(r1, phi1, r2, phi2))
    yield residual, lambda i: (
        f"r'={r1[i]:.4g}, phi'={phi1[i]:.4g}, r''={r2[i]:.4g}, phi''={phi2[i]:.4g}"
    )


@_invariant("su11-matrix-consistency", 1e-10)
def _su11_matrix_consistency(accuracy, max_cutoff, rng):
    # Per (r, omega_t) sample, its modulus gap and then its phase gap.
    grid = np.linspace(0.0, TAU, 63)
    r_grid = np.arange(0.0, 2.0001, 0.25)
    rs, wts = np.repeat(r_grid, grid.size), np.tile(grid, r_grid.size)
    m11, _ = su11._product(su11._c_pair(rs, 0.3 - wts), su11._c_pair(-rs, 0.3))
    modulus_closed = np.sqrt(np.cos(wts) ** 2 + np.sin(wts) ** 2 * np.cosh(2 * rs) ** 2)
    # The library's scalar closed form, one call per sample.
    tpf = np.array([
        phases.total_phase_factor(r, 1.0, wt) for r, wt in zip(rs.tolist(), wts.tolist())
    ])
    gaps = np.stack([
        abs(abs(m11) - modulus_closed),
        circle_distance(np.arctan2(m11.imag, m11.real), -np.arctan2(tpf.imag, tpf.real)),
    ], axis=1)
    yield gaps.ravel(), lambda i: f"r={rs[i // 2]:.4g}, omega_t={wts[i // 2]:.4g}"


_R_GRID = (0.1, 0.5, 1.0, 1.5, 2.0)


@_invariant("overlap-agreement", 1e-9)
def _overlap_agreement(accuracy, max_cutoff, rng):
    grid = np.linspace(0.0, TAU, 63)
    rs, wts = np.repeat(_R_GRID, grid.size), np.tile(grid, len(_R_GRID))
    _, overlaps, _ = fock._evolution(
        "mass", rs, HamiltonianParams(1.0, 0.25), wts, accuracy=accuracy,
        max_cutoff=max_cutoff, energy_shift=0.0,
    )
    rs, wts, overlaps = rs.tolist(), wts.tolist(), overlaps.tolist()
    gaps = [abs(z - phases.overlap_analytic(r, 1.0, wt)) for r, wt, z in zip(rs, wts, overlaps)]
    yield np.array(gaps), lambda i: f"r={rs[i]}, omega_t={wts[i]:.4g}"


@_invariant("geometric-phase-agreement", SWEEP_PHASE_BOUND)
def _phase_agreement(accuracy, max_cutoff, rng):
    # The abs_error column of the omega_t sweep, so both report one gap.
    for r in _R_GRID:
        spec = SweepSpec("omega_t", 0.0, TAU, 63, {"r": r, "phi": 0.4, "epsilon": 0.25})
        headers, table = sweep_rows(spec, max_cutoff)
        yield table[:, headers.index("abs_error")], (
            lambda i, r=r, wts=table[:, 0].tolist(): f"r={r}, omega_t={wts[i]:.4g}"
        )


@_invariant("dynamical-quadrature", 1e-10)
def _dynamical_quadrature(accuracy, max_cutoff, rng):
    omega, grid, r_grid = 1.3, (0.3, math.pi / 4, 1.0, math.pi, TAU), (0.1, 0.5, 1.0, 1.5)
    fractions = (0.0, 0.37, 0.9)
    rs, wts = np.repeat(r_grid, len(grid)), np.tile(grid, len(r_grid))
    ts = wts / omega
    # One grid call per epsilon, a column each.
    integrals = np.stack([
        fock.dynamical_integral(rs, HamiltonianParams(omega, eps_frac * omega), ts,
                                accuracy=accuracy, max_cutoff=max_cutoff)
        for eps_frac in fractions
    ], axis=1)
    rs, wts = rs.tolist(), wts.tolist()
    expected = np.array([phases.dynamical_term(r, omega, t) for r, t in zip(rs, ts.tolist())])
    # Per (r, t) sample, its gap at each epsilon and then their spread.
    samples = np.column_stack([abs(integrals - expected[:, None]), np.ptp(integrals, axis=1)])
    labels = [f", eps={eps_frac}*Omega" for eps_frac in fractions] + [" (eps spread)"]
    yield samples.ravel(), lambda i: f"r={rs[i // 4]}, omega_t={wts[i // 4]:.4g}" + labels[i % 4]


@_invariant("gauge-invariance", 1e-10)
def _gauge_invariance(accuracy, max_cutoff, rng):
    grid, r_grid, shifts = (math.pi / 4, 1.7, TAU), (0.5, 1.0, 1.5), (-2.0, 0.7, 5.0)
    rs, wts = np.repeat(r_grid, len(grid)), np.tile(grid, len(r_grid))
    reference, *shifted = (
        fock.geometric_phase_numeric(rs, HamiltonianParams(1.0, 0.1), wts,
                                     accuracy=accuracy, max_cutoff=max_cutoff,
                                     energy_shift=shift)
        for shift in (0.0,) + shifts
    )
    # Per (r, omega_t) sample, its distance at each shift.
    distances = circle_distance(np.stack(shifted, axis=1), reference[:, None])
    rs, wts = rs.tolist(), wts.tolist()
    yield distances.ravel(), lambda i: (
        f"r={rs[i // 3]}, omega_t={wts[i // 3]:.4g}, shift={shifts[i % 3]}"
    )


@_invariant("evolution-reparameterization", 1e-14)
def _evolution_reparameterization(accuracy, max_cutoff, rng):
    omega = 1.3
    h = HamiltonianParams(omega, 0.4)
    diffs, grid = [], []
    for r in (0.3, 1.0, 2.0):
        N = fock.cutoff_for("mass", r, accuracy, max_cutoff=max_cutoff)
        for phi in (0.0, 1.1):
            initial = fock.schmidt_state(r, phi, N)
            for wt in (0.7, 3.1, TAU):
                evolved = fock.evolve(initial, h, wt / omega)
                target = fock.schmidt_state(r, phi - wt, N)
                diffs.append(float(np.abs(evolved.coeffs - target.coeffs).max()))
                grid.append((r, phi, wt))
    yield np.array(diffs), lambda i: "r={}, phi={}, omega_t={:.4g}".format(*grid[i])


@_invariant("exponentiation-agreement", 1e-10)
def _exponentiation_agreement(accuracy, max_cutoff, rng):
    rs, cutoffs, gaps = (0.5, 1.0, 2.0), [], []
    for r in rs:
        N = fock.cutoff_for("expm", r, accuracy, max_cutoff=max_cutoff)
        try:
            brute = fock.squeeze_by_exponentiation(r, 0.3, N).coeffs
        except ExpmNotConvergedError:  # a broken exponential fails this check, not the run
            brute = np.nan
        gaps.append(float(np.abs(brute - fock.schmidt_state(r, 0.3, N).coeffs).max()))
        cutoffs.append(N)
    yield np.array(gaps), lambda i: f"r={rs[i]}, N={cutoffs[i]}"


@_invariant("bogoliubov-identities", 1e-6)
def _bogoliubov_identities(accuracy, max_cutoff, rng):
    grid = [(r, eta) for r in (0.25, 0.5, 1.0) for eta in (0.0, 0.3, 1.1)]
    residuals = [fock.bogoliubov_residual(r, eta, N=12, margin=4) for r, eta in grid]
    yield np.array(residuals), lambda i: "r={}, eta={}, N=12, margin=4".format(*grid[i])


@_invariant("rotation-conjugation", 1e-6)
def _rotation_conjugation(accuracy, max_cutoff, rng):
    grid = [(theta, eps_t) for theta in (0.0, 0.9, 2.5) for eps_t in (0.37, 1.9)]
    # Per (theta, eps_t), its rotation residual and then its modulation residual.
    residuals = [
        fock.rotation_conjugation_check(0.5, 0.2, theta, eps_t, N=12, margin=4)
        for theta, eps_t in grid
    ]
    yield np.array(residuals).ravel(), lambda i: "theta={}, eps_t={}, N=12, margin=4 ({})".format(
        *grid[i // 2], ("rotation", "modulation")[i % 2]
    )


@_invariant("cyclic-total-phase", 1e-10)
def _cyclic_total_phase(accuracy, max_cutoff, rng):
    # epsilon != 0: at epsilon = 0 every E_n t is a multiple of 2 pi here even
    # with epsilon miscounted in the energies.
    _, overlaps, _ = fock._evolution(
        "mass", _R_GRID, HamiltonianParams(1.0, 0.37), TAU,
        accuracy=accuracy, max_cutoff=max_cutoff, energy_shift=0.0,
    )
    gaps = [abs(overlap / abs(overlap) - 1.0) for overlap in overlaps.tolist()]
    yield np.array(gaps), lambda i: f"r={_R_GRID[i]}, omega_t=2pi"


@_invariant("cyclic-gamma", 1e-9)
def _cyclic_gamma(accuracy, max_cutoff, rng):
    numeric = fock.geometric_phase_numeric(
        _R_GRID, HamiltonianParams(1.0, 0.0), TAU, accuracy=accuracy, max_cutoff=max_cutoff
    )
    reduced = np.array([phases.cyclic_geometric_phase(r).reduced for r in _R_GRID])
    yield circle_distance(numeric, reduced), lambda i: f"r={_R_GRID[i]}"


@_invariant("one-mode-additivity", 0.0)
def _additivity(accuracy, max_cutoff, rng):
    rs = np.linspace(0.0, 3.0, 31).tolist()
    cyclic = np.array([phases.cyclic_geometric_phase(r).unreduced for r in rs])
    one_mode = np.array([phases.one_mode_cyclic_phase(r) for r in rs])
    yield abs(cyclic - 2.0 * one_mode), lambda i: f"r={rs[i]:.4g}"


@_invariant("entropy-identity", 1e-12)
def _entropy_identity(accuracy, max_cutoff, rng):
    rs = np.linspace(0.0, 3.0, 301).tolist()
    from_r = np.array([phases.entropy_from_squeeze(r) for r in rs])
    cyclic = [phases.cyclic_geometric_phase(r).unreduced for r in rs]
    from_phase = np.array([phases.entropy_from_cyclic_phase(g) for g in cyclic])
    yield abs(from_r - from_phase), lambda i: f"r={rs[i]:.4g}"


@_invariant("entropy-numeric-agreement", 1e-10)
def _entropy_numeric_agreement(accuracy, max_cutoff, rng):
    cutoffs = [fock.cutoff_for("entropy", r, accuracy, max_cutoff=max_cutoff) for r in _R_GRID]
    numeric = np.array([fock.entropy_numeric(fock.schmidt_state(r, 0.7, N))
                        for r, N in zip(_R_GRID, cutoffs)])
    closed = np.array([phases.entropy_from_squeeze(r) for r in _R_GRID])
    yield abs(numeric - closed), lambda i: f"r={_R_GRID[i]}"


@_invariant("entropy-curve", 1e-12)
def _entropy_curve(accuracy, max_cutoff, rng):
    grid = np.linspace(0.0, TAU, 1000)
    values = np.array([phases.entropy_from_cyclic_phase(float(g)) for g in grid])
    slopes = np.diff(values)
    detail = f"endpoints (0, 2pi); min slope {slopes.min():.3e} over 1000 points"
    # S(0) = 0 and S(2 pi), the entropy at sinh^2 r = 1/2; then each step that
    # does not rise counts 1, so a curve not strictly increasing fails.
    yield np.array([abs(values[0]), abs(values[-1] - 0.9547712524422192)]), lambda i: detail
    yield (~(slopes > 0.0)).astype(np.float64), lambda i: detail


_CHECKS: tuple[Callable, ...] = (
    _su11_closure,
    _su11_reconstruction,
    _su11_matrix_consistency,
    _overlap_agreement,
    _phase_agreement,
    _dynamical_quadrature,
    _gauge_invariance,
    _evolution_reparameterization,
    _exponentiation_agreement,
    _bogoliubov_identities,
    _rotation_conjugation,
    _cyclic_total_phase,
    _cyclic_gamma,
    _additivity,
    _entropy_identity,
    _entropy_numeric_agreement,
    _entropy_curve,
)


def run_invariant_suite(seed: int = 0) -> list[CheckResult]:
    """Run every invariant check; the seed affects sampling, never verdicts.

    ``seed`` is a non-negative int seeding the stdlib's ``random.Random``,
    which draws the su11-closure and su11-reconstruction samples.  Anything
    else is a ValueError: ``random.Random`` would take a negative seed as
    abs(seed), and would hash a float or a string.
    """
    if not isinstance(seed, int) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    import random  # here, as json in cmd_sweep: importing cli loads nothing more

    rng = random.Random(seed)
    return [check(fock.DEFAULT_MAX_CUTOFF, rng) for check in _CHECKS]


def cmd_verify(seed: int = 0) -> int:
    """Print the invariant table; exit 0 iff every check passes."""
    results = run_invariant_suite(seed)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        # A failed check's nan or inf worst prints as such.
        worst = format_number(res.worst) if math.isfinite(res.worst) else repr(res.worst)
        print(
            f"{status}  {res.name:<28s} worst {worst:>17s}"
            f"  bound {format_number(res.bound):>8s}  [{res.detail}]"
        )
    passed = sum(res.passed for res in results)
    verdict = "PASS" if passed == len(results) else "FAIL"
    print(f"VERDICT: {verdict} ({passed}/{len(results)} invariants)")
    return 0 if passed == len(results) else 1


# ---------------------------------------------------------------------------
# Argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tmsvphase",
        description="Geometric phases of evolving two-mode squeezed vacuum "
                    "states, with a truncated Fock-space oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    degrees_help = "display angles in degrees (I/O stays radians)"

    verify = sub.add_parser("verify",
                            help="run the invariant suite and print a pass/fail table")
    verify.add_argument("--seed", type=int, default=0,
                        help="non-negative seed of random.Random, which draws the "
                             "SU(1,1) samples, default 0")

    sweep = sub.add_parser("sweep",
                           help="emit a CSV/JSON table along a parameter grid")
    sweep.add_argument("--variable", required=True,
                       choices=("r", "omega_t", "gamma_c"),
                       help="which quantity the grid runs over")
    sweep.add_argument("--start", type=float, required=True)
    sweep.add_argument("--stop", type=float, required=True)
    sweep.add_argument("--points", type=int, required=True)
    for key, text in zip(_SWEEP_DEFAULTS, (
        "fixed squeeze factor (non-r sweeps)", "fixed carrier frequency",
        "fixed modulation frequency", "fixed squeeze phase angle",
        "fixed evolution time (r sweeps)",
    )):
        sweep.add_argument("--" + key.lower(), dest=key, type=float,
                           default=_SWEEP_DEFAULTS[key], help=text + ", default %(default)g")
    sweep.add_argument("--max-cutoff", type=int, default=fock.DEFAULT_MAX_CUTOFF,
                       help="hard bound on Fock cutoffs, default 4096, which lets an r "
                            "sweep at Omega t = 1 reach r ~ 3.15 (exit 3 beyond)")
    sweep.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="table format, default csv")
    sweep.add_argument("--degrees", action="store_true", help=degrees_help)

    decompose = sub.add_parser(
        "decompose",
        help="factor S(r', phi')^dag S(r'', phi'') into squeeze times rotation",
    )
    decompose.add_argument("r_prime", type=float)
    decompose.add_argument("phi_prime", type=float)
    decompose.add_argument("r_doubleprime", type=float)
    decompose.add_argument("phi_doubleprime", type=float)
    decompose.add_argument("--degrees", action="store_true", help=degrees_help)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code, with stdout and stderr flushed.

    A reader that closes stdout early, as ``| head`` does, gets exit code 3,
    and stdout goes to /dev/null.
    """
    try:
        code = _run(argv)
        # Output still buffered would meet a closed pipe only at exit.
        for stream in filter(None, (sys.stdout, sys.stderr)):  # None if the fd was closed
            stream.flush()
        return code
    except BrokenPipeError:
        # Later flushes of what stdout still buffers must not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("BROKEN_PIPE: stdout was closed before the output ended", file=sys.stderr, flush=True)
        return 3


def _run(argv: list[str] | None) -> int:
    """Parse and run one command; a typed error is one stderr line and its exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        return int(exc.code or 0)
    if sys.stdout is None:  # started with descriptor 1 closed, as by >&-
        print("BROKEN_PIPE: stdout was closed before the output began", file=sys.stderr)
        return 3
    try:
        if args.command == "verify":
            return cmd_verify(args.seed)
        if args.command == "sweep":
            fixed = {key: getattr(args, key) for key in _SWEEP_DEFAULTS}
            spec = SweepSpec(args.variable, args.start, args.stop, args.points, fixed)
            return cmd_sweep(spec, fmt=args.format, max_cutoff=args.max_cutoff,
                             degrees=args.degrees)
        prime = SqueezeParams(args.r_prime, args.phi_prime)
        doubleprime = SqueezeParams(args.r_doubleprime, args.phi_doubleprime)
        return cmd_decompose(prime, doubleprime, degrees=args.degrees)
    except CutoffExceededError as exc:
        print(f"CUTOFF_EXCEEDED: {exc}", file=sys.stderr)
        return 3
    except PrecisionExceededError as exc:
        print(f"PRECISION_EXCEEDED: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"OUT_OF_MEMORY: {exc or 'an allocation failed'}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


def entry(argv: list[str] | None = None) -> NoReturn:
    """The ``tmsvphase`` command: :func:`main`, then exit without interpreter teardown.

    :func:`main` has flushed stdout and stderr, so ``os._exit`` loses no
    output and skips the module teardown, about 20 ms of numpy's, that no
    command needs.  An exception escaping :func:`main` takes the
    interpreter's own exit: its traceback and exit code 1.
    """
    os._exit(main(argv))


if __name__ == "__main__":
    entry()
