"""Verified numerics for phases of evolving two-mode squeezed vacuum states.

The package has two independent computational routes and a front end:

* :mod:`tmsvphase.su11` and :mod:`tmsvphase.phases` carry the closed
  forms: Bogoliubov matrix algebra, the squeeze-product decomposition,
  overlap and total phase, dynamical term, geometric phase, cyclic phase
  and the entanglement entropy it determines.
* :mod:`tmsvphase.fock` recomputes all of it by brute force in a
  truncated Fock space (matrix exponentials, quadrature, series sums,
  operator identities) so every closed form has an independent oracle.
* :mod:`tmsvphase.cli` exposes ``verify``, ``sweep`` and ``decompose``.
"""

from .errors import CutoffExceededError, ExpmNotConvergedError, PrecisionExceededError
from .fock import (
    DiagonalFockState,
    bogoliubov_residual,
    cutoff_for,
    dynamical_integral,
    entropy_numeric,
    evolve,
    geometric_phase_numeric,
    rotation_conjugation_check,
    schmidt_state,
    squeeze_by_exponentiation,
    two_mode_squeeze_operator,
)
from .phases import (
    R_MAX,
    CyclicPhase,
    HamiltonianParams,
    PhaseBreakdown,
    cyclic_geometric_phase,
    dynamical_term,
    entropy_from_cyclic_phase,
    entropy_from_squeeze,
    geometric_phase,
    one_mode_cyclic_phase,
    overlap_analytic,
    total_phase_factor,
)
from .su11 import (
    DecompositionTriple,
    GroupElement,
    SqueezeParams,
    c_matrix,
    decompose_product,
    inverse,
    multiply,
    reconstruct,
)

__version__ = "0.1.0"

__all__ = [
    "CutoffExceededError",
    "CyclicPhase",
    "DecompositionTriple",
    "DiagonalFockState",
    "ExpmNotConvergedError",
    "GroupElement",
    "HamiltonianParams",
    "PhaseBreakdown",
    "PrecisionExceededError",
    "R_MAX",
    "SqueezeParams",
    "bogoliubov_residual",
    "c_matrix",
    "cutoff_for",
    "cyclic_geometric_phase",
    "decompose_product",
    "dynamical_integral",
    "dynamical_term",
    "entropy_from_cyclic_phase",
    "entropy_from_squeeze",
    "entropy_numeric",
    "evolve",
    "geometric_phase",
    "geometric_phase_numeric",
    "inverse",
    "multiply",
    "one_mode_cyclic_phase",
    "overlap_analytic",
    "reconstruct",
    "rotation_conjugation_check",
    "schmidt_state",
    "squeeze_by_exponentiation",
    "total_phase_factor",
    "two_mode_squeeze_operator",
]
