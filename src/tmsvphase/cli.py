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

Output contract: identical flags produce byte-identical output.  Numbers
are printed with 12 significant digits, scientific notation below 1e-4,
"." as the decimal separator, no locale dependence.  Angles are radians
unless ``--degrees`` is given, which converts display only.

Exit codes: 0 success, 1 invariant failure, 2 usage error, 3 resource
limit (no Fock cutoff up to the bound reaches the needed accuracy, a
sweep's own ``--max-cutoff`` or 4096 for ``verify``; no double carries a
swept phase to the sweep's bound, which is checked before the oracle runs;
memory runs out; or the reader closes stdout early, as ``| head`` does).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import operator
import os
import sys
from dataclasses import dataclass, field
from typing import Callable, TextIO

import numpy as np

from . import fock, phases, su11
from .errors import CutoffExceededError, PrecisionExceededError
from .phases import TAU, HamiltonianParams
from .su11 import SqueezeParams

#: Largest tolerated gap between analytic and oracle geometric phase in sweeps.
SWEEP_PHASE_BOUND = 1e-8

# A comparison against a bound asks the Fock oracle for bound / _HEADROOM.
_HEADROOM = 10.0

_DEG = 180.0 / math.pi


def format_number(x: float) -> str:
    """12 significant digits, scientific below 1e-4, deterministic."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"refusing to format non-finite value {x!r}")
    if x == 0.0:
        return "0"
    if abs(x) < 1e-4:
        return f"{x:.11e}"
    return f"{x:.12g}"


def circle_distance(a: float, b: float) -> float:
    """Distance between two angles on the circle, in [0, pi]."""
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
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError("sweep bounds must be finite")
        if not self.start < self.stop:
            raise ValueError(f"start must be below stop, got [{self.start}, {self.stop}]")
        if self.points < 2:
            raise ValueError(f"points must be at least 2, got {self.points}")
        for key, value in self.fixed.items():
            if key not in _SWEEP_DEFAULTS:
                raise ValueError(f"unknown fixed parameter {key!r}")
            if not math.isfinite(float(value)):
                raise ValueError(f"fixed parameter {key} must be finite")


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


def _phase_columns(r, Omega, t, gamma_numeric):
    """One row's values of ``_PHASE_COLUMNS``, in that order."""
    breakdown = phases.geometric_phase(r, Omega, t)
    gamma = breakdown.geometric_phase
    return (breakdown.overlap.real, breakdown.overlap.imag, breakdown.total_phase,
            breakdown.dynamical_term_delta, gamma, gamma_numeric,
            circle_distance(gamma_numeric, gamma))


def sweep_rows(spec: SweepSpec, max_cutoff: int = fock.DEFAULT_MAX_CUTOFF):
    """Evaluate the sweep grid; returns (headers, rows) with rows in grid order.

    The headers are the names in ``_COLUMNS[spec.variable]`` and each row
    is a tuple of floats in that order.  A phase sweep asks the oracle for
    all its (r, t) rows in one call: an ``omega_t`` sweep holds r fixed, so
    the oracle builds one state, and an ``r`` sweep holds t fixed, so it
    builds one state per row, a bounded number of coefficients at a time.
    Each row evolves its state once, to t: the energy integrand is constant
    in time, so the one-step trapezoid over [0, t] is exact up to rounding,
    as verify's ``dynamical-quadrature`` shows by holding 1, 7 and 200
    steps to one value.

    Before that call, PrecisionExceededError refuses a table with a row
    whose cond eps exceeds SWEEP_PHASE_BOUND.  cond = delta + 2 Omega t r
    sinh 2r + 1, with delta = 2 Omega t sinh^2 r, is the condition number
    of gamma in (r, Omega t): rounding the inputs alone moves gamma by
    about cond eps, so beyond the bound no double carries it.
    """
    grid = np.linspace(spec.start, spec.stop, spec.points)
    fx = {**_SWEEP_DEFAULTS, **spec.fixed}
    headers = [name for name, _ in _COLUMNS[spec.variable]]
    if spec.variable == "gamma_c":
        return headers, [(g, phases.entropy_from_cyclic_phase(g)) for g in grid.tolist()]
    h = HamiltonianParams(fx["Omega"], fx["epsilon"])
    # Overflow is quiet here; only the offending rows' indices outlive the
    # gate, not a cond per row.  At t or Omega t = inf a row with r = 0 gives
    # nan and passes, to end in the oracle's usage error; rows with r > 0 fail.
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.variable == "omega_t":
            rs, ts = np.full(grid.size, float(fx["r"])), grid / fx["Omega"]
        else:
            rs, ts = grid, np.full(grid.size, float(fx["t"]))
        over = np.flatnonzero(
            (2.0 * fx["Omega"] * ts * (np.sinh(rs) ** 2 + rs * np.sinh(2.0 * rs)) + 1.0)
            * np.finfo(np.float64).eps > SWEEP_PHASE_BOUND
        )
        if over.size:
            raise PrecisionExceededError(
                f"no double carries the geometric phase at r={rs[over[0]]:g}, Omega t="
                f"{fx['Omega'] * ts[over[0]]:g}: cond * eps exceeds the sweep bound "
                f"{SWEEP_PHASE_BOUND:.1e}"
            )
    numeric = fock.geometric_phase_numeric(
        rs, fx["phi"], h, ts, accuracy=SWEEP_PHASE_BOUND / _HEADROOM,
        max_cutoff=max_cutoff, steps=1,
    )
    rows = []
    for x, rv, t, gamma in zip(grid.tolist(), map(float, rs), map(float, ts), numeric.tolist()):
        row = (x, *_phase_columns(rv, fx["Omega"], t, gamma))
        if spec.variable == "r":
            cyclic = phases.cyclic_geometric_phase(rv)
            row += (cyclic.unreduced, cyclic.reduced, phases.entropy_from_squeeze(rv))
        rows.append(row)
    return headers, rows


def cmd_sweep(
    spec: SweepSpec,
    fmt: str = "csv",
    max_cutoff: int = fock.DEFAULT_MAX_CUTOFF,
    degrees: bool = False,
    stream: TextIO | None = None,
) -> int:
    """Emit the sweep table; nonzero exit if any oracle gap exceeds 1e-8.

    The table from ``sweep_rows`` is checked for non-finite values row by
    row and printed as it is; ``--degrees`` scales each angle column of
    ``_COLUMNS`` while formatting.
    """
    out = stream if stream is not None else sys.stdout
    headers, rows = sweep_rows(spec, max_cutoff)

    for row in rows:
        for name, value in zip(headers, row):
            if not math.isfinite(value):
                print(f"non-finite value in column {name}", file=sys.stderr)
                return 1
    # Only the phase sweeps have a gap column.
    gaps = [i for i, name in enumerate(headers) if name == "abs_error"]
    worst_gap = max((row[i] for i in gaps for row in rows), default=0.0)

    scales = [_DEG if degrees and angle else 1.0 for _, angle in _COLUMNS[spec.variable]]
    if fmt == "csv":
        out.write(",".join(headers) + "\n")
        for row in rows:
            out.write(",".join(map(format_number, map(operator.mul, row, scales))) + "\n")
    else:
        payload = {
            "spec": {
                "variable": spec.variable,
                "start": spec.start,
                "stop": spec.stop,
                "points": spec.points,
                "fixed": dict(spec.fixed),
                "degrees": degrees,
            },
            "rows": [dict(zip(headers, map(operator.mul, row, scales))) for row in rows],
        }
        out.write(json.dumps(payload, indent=2) + "\n")

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


def _reconstruction_residual(prime, doubleprime, triple):
    """Largest entry gap between reconstruct(triple) and S(doubleprime) S(prime)^-1."""
    target = su11._product(
        su11._c_pair(doubleprime.r, doubleprime.phi), su11._c_pair(-prime.r, prime.phi)
    )
    rebuilt = su11._reconstruct_pair(triple)
    return max(abs(rebuilt[0] - target[0]), abs(rebuilt[1] - target[1]))


def cmd_decompose(
    prime: SqueezeParams,
    doubleprime: SqueezeParams,
    degrees: bool = False,
    stream: TextIO | None = None,
) -> int:
    """Print the squeeze-plus-rotation factorization of S(prime)^dag S(doubleprime)."""
    out = stream if stream is not None else sys.stdout
    triple = su11.decompose_product(prime, doubleprime)
    residual = _reconstruction_residual(prime, doubleprime, triple)
    scale = _DEG if degrees else 1.0
    out.write(f"R = {format_number(triple.R)}\n")
    out.write(f"Phi = {format_number(triple.Phi * scale)}\n")
    out.write(f"Theta = {format_number(triple.Theta * scale)}\n")
    out.write(f"reconstruction_residual = {format_number(residual)}\n")
    out.write(f"degenerate_phase = {'true' if triple.degenerate else 'false'}\n")
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
    """Make a verify check from a generator of (value, detail) pairs.

    The generator gets ``(bound / _HEADROOM, max_cutoff, rng)``, the first
    being the accuracy it asks of the Fock oracle; the check reports its
    worst pair against ``bound``.
    """

    def decorate(samples):
        @functools.wraps(samples)
        def check(max_cutoff, rng):
            worst, where = 0.0, ""
            for value, detail in samples(bound / _HEADROOM, max_cutoff, rng):
                if value > worst:
                    worst, where = value, detail
            return CheckResult(name, worst <= bound, worst, bound, where)

        return check

    return decorate


@_invariant("su11-closure", 1e-9)
def _su11_closure(accuracy, max_cutoff, rng):
    # The running product stays an unvalidated pair: GroupElement would raise
    # at the defect this check bounds, before the check could report it.
    # One draw of (r, phi) rows takes the generator's doubles in the order a
    # loop of scalar draws, r before phi, would.
    draws = rng.uniform([-3, -math.pi], [3, math.pi], size=(60, 100, 2))
    for chain, steps in enumerate(draws.tolist()):
        pair = (su11.IDENTITY.m11, su11.IDENTITY.m12)
        for step, (r, phi) in enumerate(steps):
            pair = su11._product(pair, su11._c_pair(r, phi))
            yield su11._defect(*pair), f"chain {chain}, step {step}"


@_invariant("su11-reconstruction", 1e-10)
def _su11_reconstruction(accuracy, max_cutoff, rng):
    # Rows (r', phi', r'', phi''), drawn as in su11-closure.
    draws = rng.uniform([-3, -math.pi] * 2, [3, math.pi] * 2, size=(1000, 4))
    for r1, phi1, r2, phi2 in draws.tolist():
        prime, dbl = SqueezeParams(r1, phi1), SqueezeParams(r2, phi2)
        triple = su11.decompose_product(prime, dbl)
        yield _reconstruction_residual(prime, dbl, triple), (
            f"r'={prime.r:.4g}, phi'={prime.phi:.4g}, "
            f"r''={dbl.r:.4g}, phi''={dbl.phi:.4g}"
        )


@_invariant("su11-matrix-consistency", 1e-10)
def _su11_matrix_consistency(accuracy, max_cutoff, rng):
    for r in np.arange(0.0, 2.0001, 0.25).tolist():
        for wt in np.linspace(0.0, TAU, 63).tolist():
            m11, _ = su11._product(su11._c_pair(r, 0.3 - wt), su11._c_pair(-r, 0.3))
            detail = f"r={r:.4g}, omega_t={wt:.4g}"
            modulus_closed = math.sqrt(
                math.cos(wt) ** 2 + math.sin(wt) ** 2 * math.cosh(2 * r) ** 2
            )
            yield abs(abs(m11) - modulus_closed), detail
            tpf = phases.total_phase_factor(r, 1.0, wt)
            yield circle_distance(
                math.atan2(m11.imag, m11.real),
                -math.atan2(tpf.imag, tpf.real),
            ), detail


_R_GRID = (0.1, 0.5, 1.0, 1.5, 2.0)


@_invariant("overlap-agreement", 1e-9)
def _overlap_agreement(accuracy, max_cutoff, rng):
    grid = np.linspace(0.0, TAU, 63)
    rs, wts = np.repeat(_R_GRID, grid.size), np.tile(grid, len(_R_GRID))
    _, overlaps, _ = fock._evolution(
        "mass", rs, 0.4, HamiltonianParams(1.0, 0.25), wts, accuracy=accuracy,
        max_cutoff=max_cutoff, energy_shift=0.0, steps=1,
    )
    for r, wt, numeric in zip(rs.tolist(), wts.tolist(), overlaps.tolist()):
        yield abs(numeric - phases.overlap_analytic(r, 1.0, wt)), f"r={r}, omega_t={wt:.4g}"


@_invariant("geometric-phase-agreement", SWEEP_PHASE_BOUND)
def _phase_agreement(accuracy, max_cutoff, rng):
    # The abs_error column of the omega_t sweep, so both report one gap.
    for r in _R_GRID:
        spec = SweepSpec("omega_t", 0.0, TAU, 63, {"r": r, "phi": 0.4, "epsilon": 0.25})
        headers, rows = sweep_rows(spec, max_cutoff)
        gap = headers.index("abs_error")
        for row in rows:
            yield row[gap], f"r={r}, omega_t={row[0]:.4g}"


@_invariant("dynamical-quadrature", 1e-10)
def _dynamical_quadrature(accuracy, max_cutoff, rng):
    omega, grid, r_grid = 1.3, (0.3, math.pi / 4, 1.0, math.pi, TAU), (0.1, 0.5, 1.0, 1.5)
    rs, wts = np.repeat(r_grid, len(grid)), np.tile(grid, len(r_grid))
    ts = wts / omega
    # One grid call per (epsilon, steps), then the samples in (r, t) order.
    integrals = {
        (eps_frac, steps): fock.dynamical_integral(
            rs, 0.2, HamiltonianParams(omega, eps_frac * omega), ts, steps,
            accuracy=accuracy, max_cutoff=max_cutoff,
        ).tolist()
        for eps_frac in (0.0, 0.37, 0.9)
        for steps in (1, 7, 200)
    }
    for i, (r, wt, t) in enumerate(zip(rs.tolist(), wts.tolist(), ts.tolist())):
        expected = 2.0 * omega * t * math.sinh(r) ** 2
        results = [values[i] for values in integrals.values()]
        for (eps_frac, steps), got in zip(integrals, results):
            yield abs(got - expected), (
                f"r={r}, omega_t={wt:.4g}, eps={eps_frac}*Omega, steps={steps}"
            )
        yield max(results) - min(results), f"r={r}, omega_t={wt:.4g} (step/eps spread)"


@_invariant("gauge-invariance", 1e-10)
def _gauge_invariance(accuracy, max_cutoff, rng):
    grid, r_grid, shifts = (math.pi / 4, 1.7, TAU), (0.5, 1.0, 1.5), (-2.0, 0.7, 5.0)
    rs, wts = np.repeat(r_grid, len(grid)), np.tile(grid, len(r_grid))
    reference, *shifted = (
        fock.geometric_phase_numeric(rs, 0.2, HamiltonianParams(1.0, 0.1), wts,
                                     accuracy=accuracy, max_cutoff=max_cutoff,
                                     energy_shift=shift).tolist()
        for shift in (0.0,) + shifts
    )
    for i, (r, wt) in enumerate(zip(rs.tolist(), wts.tolist())):
        for shift, values in zip(shifts, shifted):
            yield circle_distance(values[i], reference[i]), (
                f"r={r}, omega_t={wt:.4g}, shift={shift}"
            )


@_invariant("evolution-reparameterization", 1e-14)
def _evolution_reparameterization(accuracy, max_cutoff, rng):
    omega = 1.3
    h = HamiltonianParams(omega, 0.4)
    for r in (0.3, 1.0, 2.0):
        N = fock.cutoff_for("mass", r, accuracy, max_cutoff=max_cutoff)
        for phi in (0.0, 1.1):
            initial = fock.schmidt_state(r, phi, N)
            for wt in (0.7, 3.1, TAU):
                evolved = fock.evolve(initial, h, wt / omega)
                target = fock.schmidt_state(r, phi - wt, N)
                diff = float(np.abs(evolved.coeffs - target.coeffs).max())
                yield diff, f"r={r}, phi={phi}, omega_t={wt:.4g}"


@_invariant("exponentiation-agreement", 1e-10)
def _exponentiation_agreement(accuracy, max_cutoff, rng):
    for r in (0.5, 1.0, 2.0):
        N = fock.cutoff_for("expm", r, accuracy, max_cutoff=max_cutoff)
        brute = fock.squeeze_by_exponentiation(r, 0.3, N)
        closed = fock.schmidt_state(r, 0.3, N)
        diff = float(np.abs(brute.coeffs - closed.coeffs).max())
        yield diff, f"r={r}, N={N}"


@_invariant("bogoliubov-identities", 1e-6)
def _bogoliubov_identities(accuracy, max_cutoff, rng):
    for r in (0.25, 0.5, 1.0):
        for eta in (0.0, 0.3, 1.1):
            residual = fock.bogoliubov_residual(r, eta, N=12, margin=4)
            yield residual, f"r={r}, eta={eta}, N=12, margin=4"


@_invariant("rotation-conjugation", 1e-6)
def _rotation_conjugation(accuracy, max_cutoff, rng):
    for theta in (0.0, 0.9, 2.5):
        for eps_t in (0.37, 1.9):
            res = fock.rotation_conjugation_check(
                0.5, 0.2, theta, eps_t, N=12, margin=4
            )
            detail = f"theta={theta}, eps_t={eps_t}, N=12, margin=4"
            yield res.rotation, detail + " (rotation)"
            yield res.modulation, detail + " (modulation)"


@_invariant("cyclic-total-phase", 1e-10)
def _cyclic_total_phase(accuracy, max_cutoff, rng):
    _, overlaps, _ = fock._evolution(
        "mass", np.array(_R_GRID), 0.3, HamiltonianParams(1.0, 0.0), np.full(len(_R_GRID), TAU),
        accuracy=accuracy, max_cutoff=max_cutoff, energy_shift=0.0, steps=1,
    )
    for r, overlap in zip(_R_GRID, overlaps.tolist()):
        yield abs(overlap / abs(overlap) - 1.0), f"r={r}, omega_t=2pi"


@_invariant("cyclic-gamma", 1e-9)
def _cyclic_gamma(accuracy, max_cutoff, rng):
    numeric = fock.geometric_phase_numeric(
        _R_GRID, 0.3, HamiltonianParams(1.0, 0.0), TAU, accuracy=accuracy, max_cutoff=max_cutoff
    )
    for r, gamma in zip(_R_GRID, numeric.tolist()):
        yield circle_distance(gamma, phases.cyclic_geometric_phase(r).reduced), f"r={r}"


@_invariant("one-mode-additivity", 0.0)
def _additivity(accuracy, max_cutoff, rng):
    for r in np.linspace(0.0, 3.0, 31):
        cyclic = phases.cyclic_geometric_phase(float(r))
        defect = abs(cyclic.unreduced - 2.0 * phases.one_mode_cyclic_phase(float(r)))
        yield defect, f"r={r:.4g}"


@_invariant("entropy-identity", 1e-12)
def _entropy_identity(accuracy, max_cutoff, rng):
    for r in np.linspace(0.0, 3.0, 301):
        r = float(r)
        gap = abs(
            phases.entropy_from_squeeze(r)
            - phases.entropy_from_cyclic_phase(phases.cyclic_geometric_phase(r).unreduced)
        )
        yield gap, f"r={r:.4g}"


@_invariant("entropy-numeric-agreement", 1e-10)
def _entropy_numeric_agreement(accuracy, max_cutoff, rng):
    for r in _R_GRID:
        N = fock.cutoff_for("entropy", r, accuracy, max_cutoff=max_cutoff)
        numeric = fock.entropy_numeric(fock.schmidt_state(r, 0.7, N))
        yield abs(numeric - phases.entropy_from_squeeze(r)), f"r={r}"


def _entropy_curve(max_cutoff, rng):
    grid = np.linspace(0.0, TAU, 1000)
    values = np.array([phases.entropy_from_cyclic_phase(float(g)) for g in grid])
    min_slope = float(np.diff(values).min())
    end_gap = abs(values[-1] - 0.9547712524422192)
    worst = max(abs(values[0]), end_gap)
    passed = worst <= 1e-12 and min_slope > 0.0
    return CheckResult(
        "entropy-curve",
        passed,
        worst,
        1e-12,
        f"endpoints (0, 2pi); min slope {min_slope:.3e} over 1000 points",
    )


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
    """Run every invariant check; the seed affects sampling, never verdicts."""
    rng = np.random.default_rng(seed)
    return [check(fock.DEFAULT_MAX_CUTOFF, rng) for check in _CHECKS]


def cmd_verify(seed: int = 0, stream: TextIO | None = None) -> int:
    """Print the invariant table; exit 0 iff every check passes."""
    out = stream if stream is not None else sys.stdout
    results = run_invariant_suite(seed)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        out.write(
            f"{status}  {res.name:<28s} worst {format_number(res.worst):>17s}"
            f"  bound {format_number(res.bound):>8s}  [{res.detail}]\n"
        )
    passed = sum(res.passed for res in results)
    verdict = "PASS" if passed == len(results) else "FAIL"
    out.write(f"VERDICT: {verdict} ({passed}/{len(results)} invariants)\n")
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
                        help="seed for randomized invariant sampling, default 0")

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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors with code 2
        return int(exc.code or 0)

    try:
        if args.command == "verify":
            code = cmd_verify(args.seed)
        elif args.command == "sweep":
            fixed = {key: getattr(args, key) for key in _SWEEP_DEFAULTS}
            spec = SweepSpec(args.variable, args.start, args.stop, args.points, fixed)
            code = cmd_sweep(spec, fmt=args.format, max_cutoff=args.max_cutoff,
                             degrees=args.degrees)
        else:
            prime = SqueezeParams(args.r_prime, args.phi_prime)
            doubleprime = SqueezeParams(args.r_doubleprime, args.phi_doubleprime)
            code = cmd_decompose(prime, doubleprime, degrees=args.degrees)
        # Output still buffered would meet a closed pipe only at exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader left; the flush at interpreter exit must not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("BROKEN_PIPE: stdout was closed before the output ended", file=sys.stderr)
        return 3
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


if __name__ == "__main__":
    sys.exit(main())
