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
limit (no Fock cutoff up to ``--max-cutoff`` reaches the needed accuracy,
memory runs out, or the reader closes stdout early, as ``| head`` does).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Callable, TextIO

import numpy as np

from . import fock, phases, su11
from .errors import CutoffExceededError
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


def _gamma_numeric(r, phi, h, t, max_cutoff):
    """The Fock oracle's geometric phase at t, a float or a 1-D grid."""
    return fock.geometric_phase_numeric(
        r, phi, h, t, accuracy=SWEEP_PHASE_BOUND / _HEADROOM,
        max_cutoff=max_cutoff, steps=4,
    )


def _phase_columns(r, Omega, t, gamma_numeric):
    breakdown = phases.geometric_phase(r, Omega, t)
    return {
        "re_overlap": breakdown.overlap.real,
        "im_overlap": breakdown.overlap.imag,
        "total_phase": breakdown.total_phase,
        "delta": breakdown.dynamical_term_delta,
        "gamma_mod_2pi": breakdown.geometric_phase,
        "gamma_numeric": gamma_numeric,
        "abs_error": circle_distance(gamma_numeric, breakdown.geometric_phase),
    }


def sweep_rows(spec: SweepSpec, max_cutoff: int = fock.DEFAULT_MAX_CUTOFF):
    """Evaluate the sweep grid; returns (headers, rows) with rows in grid order.

    An ``omega_t`` sweep asks the oracle for the whole grid in one call; an
    ``r`` sweep needs a new state per row and asks row by row.
    """
    grid = np.linspace(spec.start, spec.stop, spec.points)
    fx = {"r": 1.0, "Omega": 1.0, "epsilon": 0.0, "phi": 0.0, "t": 1.0}
    fx.update(spec.fixed)

    rows = []
    if spec.variable == "omega_t":
        h = HamiltonianParams(fx["Omega"], fx["epsilon"])
        ts = grid / fx["Omega"]
        numeric = _gamma_numeric(fx["r"], fx["phi"], h, ts, max_cutoff)
        for wt, t, gamma in zip(grid, ts, numeric):
            row = {"omega_t": float(wt)}
            row.update(_phase_columns(fx["r"], fx["Omega"], float(t), float(gamma)))
            rows.append(row)
    elif spec.variable == "r":
        h = HamiltonianParams(fx["Omega"], fx["epsilon"])
        for rv in grid:
            rv = float(rv)
            row = {"r": rv}
            gamma = _gamma_numeric(rv, fx["phi"], h, fx["t"], max_cutoff)
            row.update(_phase_columns(rv, fx["Omega"], fx["t"], gamma))
            cyclic = phases.cyclic_geometric_phase(rv)
            row["gamma_c_unreduced"] = cyclic.unreduced
            row["gamma_c_reduced"] = cyclic.reduced
            row["entropy"] = phases.entropy_from_squeeze(rv)
            rows.append(row)
    else:  # gamma_c
        for g in grid:
            rows.append({
                "gamma_c": float(g),
                "entropy": phases.entropy_from_cyclic_phase(float(g)),
            })
    return [name for name, _ in _COLUMNS[spec.variable]], rows


def cmd_sweep(
    spec: SweepSpec,
    fmt: str = "csv",
    max_cutoff: int = fock.DEFAULT_MAX_CUTOFF,
    degrees: bool = False,
    stream: TextIO | None = None,
) -> int:
    """Emit the sweep table; nonzero exit if any oracle gap exceeds 1e-8."""
    out = stream if stream is not None else sys.stdout
    headers, rows = sweep_rows(spec, max_cutoff)

    worst_gap = 0.0
    for row in rows:
        worst_gap = max(worst_gap, row.get("abs_error", 0.0))
        for key, value in row.items():
            if not math.isfinite(value):
                print(f"non-finite value in column {key}", file=sys.stderr)
                return 1

    display_rows = rows
    if degrees:
        angle_cols = {name for name, angle in _COLUMNS[spec.variable] if angle}
        display_rows = [
            {k: (v * _DEG if k in angle_cols else v) for k, v in row.items()}
            for row in rows
        ]

    if fmt == "csv":
        out.write(",".join(headers) + "\n")
        for row in display_rows:
            out.write(",".join(format_number(row[h]) for h in headers) + "\n")
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
            "rows": display_rows,
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
    target = su11.multiply(
        su11.c_matrix(doubleprime), su11.c_matrix(SqueezeParams(-prime.r, prime.phi))
    )
    rebuilt = su11.reconstruct(triple)
    return max(abs(rebuilt.m11 - target.m11), abs(rebuilt.m12 - target.m12))


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
    for chain in range(60):
        element = su11.IDENTITY
        for step in range(100):
            p = SqueezeParams(rng.uniform(-3, 3), rng.uniform(-math.pi, math.pi))
            element = su11.multiply(element, su11.c_matrix(p))
            defect = abs(element.determinant() - 1.0)
            defect /= max(1.0, abs(element.m11) ** 2)
            yield defect, f"chain {chain}, step {step}"


@_invariant("su11-reconstruction", 1e-10)
def _su11_reconstruction(accuracy, max_cutoff, rng):
    for _ in range(1000):
        prime = SqueezeParams(rng.uniform(-3, 3), rng.uniform(-math.pi, math.pi))
        dbl = SqueezeParams(rng.uniform(-3, 3), rng.uniform(-math.pi, math.pi))
        triple = su11.decompose_product(prime, dbl)
        yield _reconstruction_residual(prime, dbl, triple), (
            f"r'={prime.r:.4g}, phi'={prime.phi:.4g}, "
            f"r''={dbl.r:.4g}, phi''={dbl.phi:.4g}"
        )


@_invariant("su11-matrix-consistency", 1e-10)
def _su11_matrix_consistency(accuracy, max_cutoff, rng):
    for r in np.arange(0.0, 2.0001, 0.25):
        for wt in np.linspace(0.0, TAU, 63):
            triple_m = su11.multiply(
                su11.c_matrix(SqueezeParams(r, 0.3 - wt)),
                su11.c_matrix(SqueezeParams(-r, 0.3)),
            )
            detail = f"r={r:.4g}, omega_t={wt:.4g}"
            modulus_closed = math.sqrt(
                math.cos(wt) ** 2 + math.sin(wt) ** 2 * math.cosh(2 * r) ** 2
            )
            yield abs(abs(triple_m.m11) - modulus_closed), detail
            tpf = phases.total_phase_factor(r, 1.0, wt)
            yield circle_distance(
                math.atan2(triple_m.m11.imag, triple_m.m11.real),
                -math.atan2(tpf.imag, tpf.real),
            ), detail


_R_GRID = (0.1, 0.5, 1.0, 1.5, 2.0)


@_invariant("overlap-agreement", 1e-9)
def _overlap_agreement(accuracy, max_cutoff, rng):
    h = HamiltonianParams(1.0, 0.25)
    grid = np.linspace(0.0, TAU, 63)
    for r in _R_GRID:
        _, overlaps, _ = fock._evolution(
            "mass", r, 0.4, h, grid, accuracy=accuracy, max_cutoff=max_cutoff,
            energy_shift=0.0, steps=1,
        )
        for wt, numeric in zip(grid, overlaps):
            analytic = phases.overlap_analytic(r, 1.0, float(wt))
            yield abs(complex(numeric) - analytic), f"r={r}, omega_t={wt:.4g}"


@_invariant("geometric-phase-agreement", 1e-8)
def _phase_agreement(accuracy, max_cutoff, rng):
    h = HamiltonianParams(1.0, 0.25)
    grid = np.linspace(0.0, TAU, 63)
    for r in _R_GRID:
        numeric = fock.geometric_phase_numeric(
            r, 0.4, h, grid, accuracy=accuracy, max_cutoff=max_cutoff, steps=4
        )
        for wt, gamma in zip(grid, numeric):
            analytic = phases.geometric_phase(r, 1.0, float(wt)).geometric_phase
            yield circle_distance(float(gamma), analytic), f"r={r}, omega_t={wt:.4g}"


@_invariant("dynamical-quadrature", 1e-10)
def _dynamical_quadrature(accuracy, max_cutoff, rng):
    omega = 1.3
    grid = (0.3, math.pi / 4, 1.0, math.pi, TAU)
    ts = [wt / omega for wt in grid]
    eps_fracs, step_counts = (0.0, 0.37, 0.9), (1, 7, 200)
    for r in (0.1, 0.5, 1.0, 1.5):
        # One grid call per (epsilon, steps), then the samples in t order.
        integrals = {
            (eps_frac, steps): fock.dynamical_integral(
                r, 0.2, HamiltonianParams(omega, eps_frac * omega), ts, steps,
                accuracy=accuracy, max_cutoff=max_cutoff,
            )
            for eps_frac in eps_fracs
            for steps in step_counts
        }
        for i, (wt, t) in enumerate(zip(grid, ts)):
            expected = 2.0 * omega * t * math.sinh(r) ** 2
            results = [float(values[i]) for values in integrals.values()]
            for (eps_frac, steps), got in zip(integrals, results):
                yield abs(got - expected), (
                    f"r={r}, omega_t={wt:.4g}, eps={eps_frac}*Omega, steps={steps}"
                )
            spread = max(results) - min(results)
            yield spread, f"r={r}, omega_t={wt:.4g} (step/eps spread)"


@_invariant("gauge-invariance", 1e-10)
def _gauge_invariance(accuracy, max_cutoff, rng):
    h = HamiltonianParams(1.0, 0.1)
    grid, shifts = (math.pi / 4, 1.7, TAU), (-2.0, 0.7, 5.0)
    for r in (0.5, 1.0, 1.5):
        reference, *shifted = (
            fock.geometric_phase_numeric(r, 0.2, h, grid, accuracy=accuracy,
                                         max_cutoff=max_cutoff, energy_shift=shift)
            for shift in (0.0,) + shifts
        )
        for i, wt in enumerate(grid):
            for shift, values in zip(shifts, shifted):
                yield circle_distance(float(values[i]), float(reference[i])), (
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
        brute = fock.squeeze_by_exponentiation(r, 0.3, N, max_cutoff)
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
    h = HamiltonianParams(1.0, 0.0)
    for r in _R_GRID:
        _, overlaps, _ = fock._evolution(
            "mass", r, 0.3, h, np.array([TAU]), accuracy=accuracy,
            max_cutoff=max_cutoff, energy_shift=0.0, steps=1,
        )
        overlap = complex(overlaps[0])
        yield abs(overlap / abs(overlap) - 1.0), f"r={r}, omega_t=2pi"


@_invariant("cyclic-gamma", 1e-9)
def _cyclic_gamma(accuracy, max_cutoff, rng):
    h = HamiltonianParams(1.0, 0.0)
    for r in _R_GRID:
        numeric = fock.geometric_phase_numeric(
            r, 0.3, h, TAU, accuracy=accuracy, max_cutoff=max_cutoff
        )
        yield circle_distance(
            numeric, phases.cyclic_geometric_phase(r).reduced
        ), f"r={r}"


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


def run_invariant_suite(
    max_cutoff: int = fock.DEFAULT_MAX_CUTOFF, seed: int = 0
) -> list[CheckResult]:
    """Run every invariant check; the seed affects sampling, never verdicts."""
    rng = np.random.default_rng(seed)
    return [check(max_cutoff, rng) for check in _CHECKS]


def cmd_verify(
    max_cutoff: int = fock.DEFAULT_MAX_CUTOFF,
    seed: int = 0,
    stream: TextIO | None = None,
) -> int:
    """Print the invariant table; exit 0 iff every check passes."""
    out = stream if stream is not None else sys.stdout
    results = run_invariant_suite(max_cutoff, seed)
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

    max_cutoff_help = "hard bound on Fock cutoffs, default 4096"
    degrees_help = "display angles in degrees (I/O stays radians)"

    verify = sub.add_parser("verify",
                            help="run the invariant suite and print a pass/fail table")
    verify.add_argument("--max-cutoff", type=int, default=fock.DEFAULT_MAX_CUTOFF,
                        help=max_cutoff_help)
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
    sweep.add_argument("--r", type=float, default=1.0,
                       help="fixed squeeze factor (non-r sweeps), default 1")
    sweep.add_argument("--omega", type=float, default=1.0,
                       help="fixed carrier frequency, default 1")
    sweep.add_argument("--epsilon", type=float, default=0.0,
                       help="fixed modulation frequency, default 0")
    sweep.add_argument("--phi", type=float, default=0.0,
                       help="fixed squeeze phase angle, default 0")
    sweep.add_argument("--t", type=float, default=1.0,
                       help="fixed evolution time (r sweeps), default 1")
    sweep.add_argument("--max-cutoff", type=int, default=fock.DEFAULT_MAX_CUTOFF,
                       help=max_cutoff_help + ", which lets an r sweep at "
                            "Omega t = 1 reach r ~ 3.15 (exit 3 beyond)")
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
            code = cmd_verify(args.max_cutoff, seed=args.seed)
        elif args.command == "sweep":
            fixed = {"r": args.r, "Omega": args.omega, "epsilon": args.epsilon,
                     "phi": args.phi, "t": args.t}
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
    except MemoryError as exc:
        print(f"OUT_OF_MEMORY: {exc or 'an allocation failed'}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
