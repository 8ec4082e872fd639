"""The benchmark's workloads: inputs made from a seed, and output checks.

Each workload is one operation repeated in a closed loop by a single
client.  :func:`make_op` turns (workload, seed) into the command-line
arguments of that operation and the check its output must pass.  A check
returns an :class:`Outcome`; an operation that fails it is counted as
failed, never dropped.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from functools import partial
from typing import Callable

TAU = 2.0 * math.pi

# Bounds the program documents: the sweep's analytic/oracle gap and the
# number of verify invariants.
SWEEP_GATE = 1e-8
VERIFY_CHECK_COUNT = 17
SWEEP_POINTS = 10000

WHY = {
    "verify": "the headline command; the only one using dense expm and the "
              "full-space operators, and it reaches every layer",
    "sweep-omega_t": "10^4 rows rebuilding the same N=377 state, so state "
                     "reuse or a vectorised oracle pays off here; no expm",
}
WORKLOADS = tuple(WHY)


@dataclass(frozen=True)
class Outcome:
    ok: bool
    reason: str
    worst_over_bound: float
    points: int = 0


@dataclass(frozen=True)
class Op:
    """Arguments of one ``tmsvphase`` command and the check of its stdout."""

    args: tuple[str, ...]
    check: Callable[[str], Outcome]


def make_op(workload: str, seed: int) -> Op:
    if workload == "verify":
        return Op(("verify", "--seed", str(seed)), check_verify)
    if workload == "sweep-omega_t":
        rng = random.Random(seed)
        phi = rng.uniform(-math.pi, math.pi)
        epsilon = rng.uniform(-0.9, 0.9)
        spec = {"start": 0.0, "stop": TAU, "r": 2.0}
        args = (
            "sweep", "--variable", "omega_t",
            "--start", repr(spec["start"]), "--stop", repr(spec["stop"]),
            "--points", str(SWEEP_POINTS), "--r", repr(spec["r"]),
            "--phi", repr(phi), "--epsilon", repr(epsilon),
        )
        return Op(args, partial(check_sweep, spec, SWEEP_POINTS))
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Output checks


_VERIFY_LINE = re.compile(r"^(PASS|FAIL)  (\S+) +worst +(\S+) +bound +(\S+)  \[")
_VERDICT = re.compile(r"^VERDICT: (PASS|FAIL) \((\d+)/(\d+) invariants\)$")


def _ratio(worst: float, bound: float) -> float:
    if bound > 0.0:
        return worst / bound
    return 0.0 if worst == 0.0 else math.inf


def check_verify(text: str) -> Outcome:
    """17 PASS lines, each worst <= bound, and the verdict PASS (17/17)."""
    lines = text.splitlines()
    if not lines:
        return Outcome(False, "no output", math.nan)
    checks = [_VERIFY_LINE.match(line) for line in lines[:-1]]
    if None in checks:
        return Outcome(False, "unparsed verify line", math.nan)
    ratios = [_ratio(float(m.group(3)), float(m.group(4))) for m in checks]
    worst = max(ratios, default=math.nan)
    verdict = _VERDICT.match(lines[-1])
    expected = ("PASS", str(VERIFY_CHECK_COUNT), str(VERIFY_CHECK_COUNT))
    if verdict is None or verdict.groups() != expected:
        return Outcome(False, f"verdict {lines[-1]!r}", worst)
    if len(checks) != VERIFY_CHECK_COUNT:
        return Outcome(False, f"{len(checks)} check lines", worst)
    failing = [m.group(2) for m in checks if m.group(1) != "PASS"]
    if failing:
        return Outcome(False, f"failing checks {failing}", worst)
    if worst > 1.0:
        return Outcome(False, f"worst/bound {worst:.3g} above 1", worst)
    return Outcome(True, "", worst)


def _close(got: float, want: float, rel: float = 1e-9) -> bool:
    return abs(got - want) <= rel * max(1.0, abs(want))


def check_sweep(spec: dict, points: int, text: str) -> Outcome:
    """Row count, grid, the 1e-8 gap gate, and delta recomputed here.

    The printed delta must equal 2 Omega t sinh^2 r with Omega = 1, so
    t = omega_t.  Printed numbers carry 12 significant digits, hence the
    1e-9 relative tolerance.
    """
    lines = text.splitlines()
    if not lines:
        return Outcome(False, "no output", math.nan)
    header = lines[0].split(",")
    try:
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    except ValueError as exc:
        return Outcome(False, f"unparsed row: {exc}", math.nan)
    if any(len(row) != len(header) for row in rows):
        return Outcome(False, "ragged rows", math.nan)
    col = {name: i for i, name in enumerate(header)}
    if not {"omega_t", "delta", "abs_error"} <= col.keys():
        return Outcome(False, f"missing columns in header {header}", math.nan)
    worst = max((row[col["abs_error"]] for row in rows), default=0.0) / SWEEP_GATE
    if len(rows) != points:
        return Outcome(False, f"{len(rows)} rows, expected {points}", worst)
    if worst > 1.0:
        return Outcome(False, f"gap {worst * SWEEP_GATE:.3e} above gate", worst)
    step = (spec["stop"] - spec["start"]) / (points - 1)
    sinh2 = math.sinh(spec["r"]) ** 2
    for i, row in enumerate(rows):
        omega_t = row[col["omega_t"]]
        if not _close(omega_t, spec["start"] + i * step):
            return Outcome(False, f"row {i}: grid value {omega_t}", worst)
        if not _close(row[col["delta"]], 2.0 * omega_t * sinh2):
            return Outcome(False, f"row {i}: delta {row[col['delta']]}", worst)
    return Outcome(True, "", worst, points)
