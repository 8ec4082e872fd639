"""Spans around calls into the tmsvphase modules, and the per-layer table.

The child side (:class:`Tracer`, :func:`install`) replaces the functions of
``su11``, ``phases``, ``fock`` and ``cli`` by wrappers that record one span
per call: name, parent, start and end.  Calls between functions of the
package go through module globals, so nested calls become child spans.
Spans stay in memory (one array per field) until :meth:`Tracer.dump`.

The parent side (:func:`self_times`, :func:`layer_table`) turns one dumped
trace into the per-layer numbers.  A span's self time is its duration minus
the part of its interval covered by its direct children, so summing self
time over a layer counts each nanosecond once.

Nothing here is imported by the package; the wrappers exist only inside a
traced benchmark child.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
import types
from array import array

LAYERS = ("su11", "phases", "fock", "cli")

# Sub-layers of the Fock oracle: the dense exponential, the full
# (N+1)^2-dimensional product space, cutoff selection, and the diagonal
# (Schmidt) subspace, which holds every other function.
FOCK_GROUPS = {
    "squeeze_by_exponentiation": "expm",
    "_diagonal_generator": "expm",
    "two_mode_squeeze_operator": "full",
    "bogoliubov_residual": "full",
    "rotation_conjugation_check": "full",
    "lowering_operators": "full",
    "_occupations": "full",
    "_interior": "full",
    "cutoff_for_tolerance": "cutoff",
    "cutoff_for_expm_accuracy": "cutoff",
}

# Mean inclusive duration per call is reported for these.
PER_CALL = (
    "fock.geometric_phase_numeric",
    "fock.dynamical_integral",
    "phases.geometric_phase",
    "su11.decompose_product",
)

# The checks run_invariant_suite runs, in order, by the name verify prints.
VERIFY_CHECKS = (
    "su11-closure",
    "su11-reconstruction",
    "su11-matrix-consistency",
    "overlap-agreement",
    "geometric-phase-agreement",
    "dynamical-quadrature",
    "gauge-invariance",
    "evolution-reparameterization",
    "exponentiation-agreement",
    "bogoliubov-identities",
    "rotation-conjugation",
    "cyclic-total-phase",
    "cyclic-gamma",
    "one-mode-additivity",
    "entropy-identity",
    "entropy-numeric-agreement",
    "entropy-curve",
)

# Complex dense matrix products cost 8 d^3 real flops for d x d operands.
_FLOPS_PER_CUBE = 8


def _full_products_flops(N: int, products: int) -> int:
    d = (N + 1) ** 2
    return products * _FLOPS_PER_CUBE * d**3


class Tracer:
    """In-memory span store plus counters, one per traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.error = array("b")
        self.sums: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self.distinct: dict[str, set] = {}
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter_ns())
        self.end.append(-1)
        self.error.append(0)
        self._stack.append(sid)
        return sid

    def finish(self, sid: int, name: str | None = None, error: bool = False) -> None:
        self.end[sid] = time.perf_counter_ns()
        if self._stack.pop() != sid:
            raise RuntimeError("spans must close in the order they opened")
        if name is not None:
            self.names[sid] = name
        if error:
            self.error[sid] = 1

    def add(self, key: str, amount: float) -> None:
        self.sums[key] = self.sums.get(key, 0) + amount

    def maximum(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def mark(self, key: str, item) -> None:
        self.distinct.setdefault(key, set()).add(item)

    def dump(self) -> dict:
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        return {
            "names": table,
            "name": [index[n] for n in self.names],
            "parent": self.parent.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
            "error": self.error.tolist(),
            "sums": self.sums,
            "maxima": self.maxima,
            "distinct": {k: len(v) for k, v in self.distinct.items()},
        }


# ---------------------------------------------------------------------------
# Probes: counts taken at the same boundaries as the spans.


def _probe_expm(t: Tracer, args: dict, state) -> None:
    t.maximum("fock.expm.dim_max", state.cutoff + 1)


def _probe_squeeze_operator(t: Tracer, args: dict, op) -> None:
    N = op.cutoff
    t.maximum("fock.full.dim_max", (N + 1) ** 2)
    # K- = a+ @ a-, N terms in each of the two nilpotent sums, and
    # ascend @ middle @ descend.
    t.add("fock.full.flops_computed", _full_products_flops(N, 2 * N + 3))


def _probe_bogoliubov(t: Tracer, args: dict, residual) -> None:
    # a @ S and S @ rhs for each of a+ and a-.
    t.add("fock.full.flops_computed", _full_products_flops(args["N"], 4))


def _probe_elements_out(t: Tracer, args: dict, state) -> None:
    t.add("fock.diag.elements", state.cutoff + 1)


def _probe_elements_in(t: Tracer, args: dict, value) -> None:
    t.add("fock.diag.elements", args["state"].cutoff + 1)


def _probe_schmidt(t: Tracer, args: dict, state) -> None:
    t.mark("fock.schmidt_state", (float(args["r"]), float(args["phi"]), state.cutoff))


def _probe_cutoff(t: Tracer, args: dict, N) -> None:
    t.maximum("fock.cutoff.N_max", N)


PROBES = {
    "fock.squeeze_by_exponentiation": _probe_expm,
    "fock.two_mode_squeeze_operator": _probe_squeeze_operator,
    "fock.bogoliubov_residual": _probe_bogoliubov,
    "fock.evolve": _probe_elements_out,
    "fock.energy_expectation": _probe_elements_in,
    "fock.schmidt_state": _probe_schmidt,
    "fock.cutoff_for_tolerance": _probe_cutoff,
    "fock.cutoff_for_expm_accuracy": _probe_cutoff,
}


def _wrap(tracer: Tracer, name: str, fn):
    probe = PROBES.get(name)
    signature = inspect.signature(fn) if probe else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.finish(sid, error=True)
            raise
        tracer.finish(sid)
        if probe is not None:
            probe(tracer, signature.bind(*args, **kwargs).arguments, result)
        return result

    return traced


def _wrap_check(tracer: Tracer, fn):
    """Span around one verify check, named after the check it reports."""

    @functools.wraps(fn)
    def traced(policy, rng):
        sid = tracer.begin("cli.check")
        try:
            result = fn(policy, rng)
        except BaseException:
            tracer.finish(sid, name=f"cli.check.{fn.__name__}", error=True)
            raise
        tracer.finish(sid, name=f"cli.check.{result.name}")
        return result

    return traced


def install(tracer: Tracer, modules: dict) -> None:
    """Replace every function defined in each module by a traced wrapper.

    ``modules`` maps a layer name to its module object.  Classes and names
    imported from elsewhere are left alone.  The verify checks are reached
    through ``cli._CHECKS`` rather than by name, so that tuple is rebuilt
    from wrapped checks.
    """
    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
                setattr(module, attr, _wrap(tracer, f"{layer}.{attr}", obj))
    cli = modules.get("cli")
    if cli is not None:
        cli._CHECKS = tuple(_wrap_check(tracer, fn) for fn in cli._CHECKS)


# ---------------------------------------------------------------------------
# Parent side: self time and the per-layer table of one traced process.


def self_times(parent, start, end) -> list[int]:
    """Duration of each span minus the union of its direct children's intervals.

    Children are clipped to their parent's interval, and overlapping children
    are counted once, so the result never goes below zero.
    """
    children: dict[int, list[int]] = {}
    for sid, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(sid)
    out = []
    for sid in range(len(parent)):
        lo, hi = start[sid], end[sid]
        covered = 0
        cursor = lo
        for c in sorted(children.get(sid, ()), key=lambda c: start[c]):
            a, b = max(start[c], cursor), min(end[c], hi)
            if b > a:
                covered += b - a
                cursor = b
        out.append(hi - lo - covered)
    return out


def layer_of(name: str) -> str:
    """The layer a span belongs to; the Fock oracle is split into sub-layers."""
    layer, _, attr = name.partition(".")
    if layer == "fock":
        return "fock." + FOCK_GROUPS.get(attr, "diag")
    return layer


def layer_table(trace: dict) -> dict[str, float]:
    """Per-layer counts and times of one traced process, in seconds and counts."""
    names = [trace["names"][i] for i in trace["name"]]
    start, end = trace["start_ns"], trace["end_ns"]
    own = self_times(trace["parent"], start, end)

    calls: dict[str, int] = {}
    busy: dict[str, int] = {}
    errors: dict[str, int] = {}
    per_name_calls: dict[str, int] = {}
    per_name_ns: dict[str, int] = {}
    for sid, name in enumerate(names):
        layer = layer_of(name)
        calls[layer] = calls.get(layer, 0) + 1
        busy[layer] = busy.get(layer, 0) + own[sid]
        if trace["error"][sid]:
            top = layer.split(".")[0]
            errors[top] = errors.get(top, 0) + 1
        per_name_calls[name] = per_name_calls.get(name, 0) + 1
        per_name_ns[name] = per_name_ns.get(name, 0) + end[sid] - start[sid]

    def inclusive_s(name: str) -> float:
        return per_name_ns.get(name, 0) / 1e9

    table: dict[str, float] = {}
    for layer in ("fock.expm", "fock.full", "fock.diag"):
        table[f"{layer}.calls"] = calls.get(layer, 0)
        table[f"{layer}.busy_s"] = busy.get(layer, 0) / 1e9
    table["fock.expm.dim_max"] = trace["maxima"].get("fock.expm.dim_max", 0)
    table["fock.full.dim_max"] = trace["maxima"].get("fock.full.dim_max", 0)
    table["fock.full.flops_computed"] = trace["sums"].get("fock.full.flops_computed", 0)
    table["fock.diag.elements"] = trace["sums"].get("fock.diag.elements", 0)
    table["fock.cutoff.calls"] = calls.get("fock.cutoff", 0)
    table["fock.cutoff.N_max"] = trace["maxima"].get("fock.cutoff.N_max", 0)
    builds = per_name_calls.get("fock.schmidt_state", 0)
    table["fock.state_builds"] = builds
    # Distinct (r, phi, N) per build: 1 when no build is repeated.
    table["fock.state_reuse"] = (
        trace["distinct"].get("fock.schmidt_state", 0) / builds if builds else 1.0
    )
    for layer in ("phases", "su11", "cli"):
        table[f"{layer}.calls"] = calls.get(layer, 0)
        table[f"{layer}.busy_s"] = busy.get(layer, 0) / 1e9
    for name in PER_CALL:
        n = per_name_calls.get(name, 0)
        table[f"{name}.us_per_call"] = per_name_ns.get(name, 0) / n / 1e3 if n else 0.0
    table["cli.sweep_rows_s"] = inclusive_s("cli.sweep_rows")
    table["cli.format.calls"] = per_name_calls.get("cli.format_number", 0)
    table["cli.format_s"] = inclusive_s("cli.format_number")
    for check in VERIFY_CHECKS:
        table[f"cli.verify.check_s.{check}"] = inclusive_s(f"cli.check.{check}")
    for layer in LAYERS:
        table[f"{layer}.errors"] = errors.get(layer, 0)
    return table


def median_table(tables: list[dict[str, float]]) -> dict[str, float]:
    """Key-wise median over the tables of several traced processes."""
    return {key: statistics.median(t[key] for t in tables) for key in tables[0]}
