"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line, bypassing pytest capture so the
lines show up in any run.  Tolerances are pinned here, not configurable.
"""

import io
import math
import sys
import time
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

import numpy as np

from tmsvphase import fock, phases, su11
from tmsvphase.cli import SweepSpec, circle_distance, cmd_sweep, cmd_verify
from tmsvphase.phases import TAU, HamiltonianParams

H_UNIT = HamiltonianParams(1.0, 0.0)
R_GRID = (0.1, 0.5, 1.0, 1.5, 2.0)
WT_GRID = np.linspace(0.0, TAU, 63)


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number}: FAIL - {description}", file=sys.__stdout__)
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}", file=sys.__stdout__)


def test_criterion_1_overlap_equivalence():
    with criterion(1, "oracle overlap matches closed form to 1e-9 on the grid"):
        started = time.perf_counter()
        worst = 0.0
        for r in R_GRID:
            N = fock.cutoff_for("mass", r, 1e-12)
            if r <= 1.0:
                assert N <= 60  # tail bound keeps small squeezes tiny
            _, overlaps = fock._energy_integrals(
                np.full(WT_GRID.size, r), H_UNIT, WT_GRID, [N] * WT_GRID.size, 0.0
            )
            for wt, numeric in zip(WT_GRID, overlaps):
                analytic = phases.overlap_analytic(r, 1.0, float(wt))
                worst = max(worst, abs(numeric - analytic))
        elapsed = time.perf_counter() - started
        assert worst <= 1e-9, f"worst overlap gap {worst:.3e}"
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_geometric_phase_closed_form():
    with criterion(2, "kinematic phase matches the closed form to 1e-8"):
        worst = 0.0
        for r in R_GRID:
            for wt in WT_GRID:
                r, wt = float(r), float(wt)
                numeric = fock.geometric_phase_numeric(r, H_UNIT, wt)
                # closed form: gamma = Wt cosh 2r + arg(cos Wt - i sin Wt cosh 2r)
                c2r = math.cosh(2.0 * r)
                closed = wt * c2r + math.atan2(-math.sin(wt) * c2r, math.cos(wt))
                worst = max(worst, circle_distance(numeric, closed))
        assert worst <= 1e-8, f"worst phase gap {worst:.3e}"
        spot = phases.geometric_phase(1.0, 1.0, math.pi / 4).geometric_phase
        assert abs(spot - 1.6438204297532917) < 1e-12
        assert round(spot, 4) == 1.6438


def test_criterion_3_cyclic_phase():
    with criterion(3, "cyclic evolution: unit total phase factor, 4 pi sinh^2 r, additivity"):
        for r in R_GRID:
            N = fock.cutoff_for("mass", r, 1e-12)
            _, (overlap,) = fock._energy_integrals(
                np.array([r]), H_UNIT, np.array([TAU]), [N], 0.0
            )
            overlap = complex(overlap)
            assert abs(overlap / abs(overlap) - 1.0) <= 1e-10
            numeric = fock.geometric_phase_numeric(
                r, H_UNIT, TAU, accuracy=1e-10
            )
            expected = (4.0 * math.pi * math.sinh(r) ** 2) % TAU
            assert circle_distance(numeric, expected) <= 1e-9
        for r in np.linspace(0.0, 3.0, 61):
            unreduced = phases.cyclic_geometric_phase(float(r)).unreduced
            assert unreduced == 2.0 * phases.one_mode_cyclic_phase(float(r))


def test_criterion_4_dynamical_term():
    with criterion(4, "t <H> equals 2 Omega t sinh^2 r to 1e-10, epsilon free"):
        for r in R_GRID:
            for wt in (0.3, math.pi / 4, TAU):
                omega = 1.3
                t = wt / omega
                expected = 2.0 * omega * t * math.sinh(r) ** 2
                got = fock.dynamical_integral(
                    r, HamiltonianParams(omega, 0.0), t, accuracy=1e-11,
                )
                assert abs(got - expected) <= 1e-10
                # three epsilon values: the term cancels arithmetically
                for eps in (0.2, 0.37, -0.9):
                    assert got == fock.dynamical_integral(
                        r, HamiltonianParams(omega, eps * omega), t, accuracy=1e-11,
                    )


def test_criterion_5_decomposition_fidelity():
    with criterion(5, "decomposition reconstructs to 1e-10; cosh R closed form"):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            prime = su11.SqueezeParams(
                rng.uniform(-3, 3), rng.uniform(-math.pi, math.pi)
            )
            dbl = su11.SqueezeParams(
                rng.uniform(-3, 3), rng.uniform(-math.pi, math.pi)
            )
            target = su11.multiply(
                su11.c_matrix(dbl),
                su11.c_matrix(su11.SqueezeParams(-prime.r, prime.phi)),
            )
            rebuilt = su11.reconstruct(su11.decompose_product(prime, dbl))
            assert abs(rebuilt.m11 - target.m11) <= 1e-10
            assert abs(rebuilt.m12 - target.m12) <= 1e-10
        for r in np.arange(0.0, 2.0001, 0.25):
            for wt in WT_GRID:
                r, wt = float(r), float(wt)
                triple = su11.decompose_product(
                    su11.SqueezeParams(r, 0.5),
                    su11.SqueezeParams(r, 0.5 - wt),
                )
                closed = math.sqrt(
                    math.cos(wt) ** 2 + math.sin(wt) ** 2 * math.cosh(2 * r) ** 2
                )
                assert abs(math.cosh(triple.R) - closed) <= 1e-10


def test_criterion_6_operator_identities():
    with criterion(6, "Bogoliubov and rotation conjugation residuals <= 1e-6 at N=12"):
        started = time.perf_counter()
        op = fock.two_mode_squeeze_operator(1.0, 0.0, 12)
        assert sum(op.block(d).shape[0] for d in range(-12, 13)) == 169
        for r in (0.25, 0.5, 1.0):
            for eta in (0.0, 0.3, 1.1):
                assert fock.bogoliubov_residual(r, eta, N=12, margin=4) <= 1e-6
        for theta in (0.0, 0.9, 2.5):
            res = fock.rotation_conjugation_check(0.5, 0.2, theta, 0.37, N=12, margin=4)
            assert res.rotation <= 1e-6
            assert res.modulation <= 1e-6
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_7_entropy():
    with criterion(7, "entropy: oracle vs closed form, phase relation, Fig.1 curve"):
        for r in R_GRID:
            N = fock.cutoff_for("mass", r, 1e-12)
            numeric = fock.entropy_numeric(fock.schmidt_state(r, 0.7, N))
            assert abs(numeric - phases.entropy_from_squeeze(r)) <= 1e-10
        for r in np.linspace(0.0, 3.0, 301):
            r = float(r)
            via_phase = phases.entropy_from_cyclic_phase(
                4.0 * math.pi * math.sinh(r) ** 2
            )
            assert abs(via_phase - phases.entropy_from_squeeze(r)) <= 1e-12
        assert phases.entropy_from_cyclic_phase(0.0) == 0.0
        fig1_end = 1.5 * math.log(1.5) + 0.5 * math.log(2.0)
        assert abs(phases.entropy_from_cyclic_phase(TAU) - fig1_end) <= 1e-12
        assert round(fig1_end, 7) == 0.9547713
        curve = [
            phases.entropy_from_cyclic_phase(float(g))
            for g in np.linspace(0.0, TAU, 1000)
        ]
        assert all(b > a for a, b in zip(curve, curve[1:]))


def test_criterion_8_gauge_invariance():
    with criterion(8, "geometric phase unchanged under H -> H + c to 1e-10"):
        for r in (0.5, 1.0, 1.5):
            for wt in (math.pi / 4, 1.7, TAU):
                reference = fock.geometric_phase_numeric(r, H_UNIT, wt)
                for shift in (-2.0, 0.7, 5.0):
                    shifted = fock.geometric_phase_numeric(
                        r, H_UNIT, wt, energy_shift=shift
                    )
                    assert circle_distance(shifted, reference) <= 1e-10


def test_criterion_9_cli_verify_and_determinism(capsys):
    with criterion(9, "cmd_verify green under 60 s; sweep output byte-deterministic"):
        started = time.perf_counter()
        assert cmd_verify(seed=0) == 0
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"took {elapsed:.2f}s"
        assert "VERDICT: PASS" in capsys.readouterr().out

        spec = SweepSpec("gamma_c", 0.0, TAU, 101)
        runs = []
        for _ in range(2):
            assert cmd_sweep(spec, fmt="csv") == 0
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1]


def test_readme_library_use():
    with criterion("README", "the Library use block runs as written; oracle within 1e-10"):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Library use\n", 1)[1]
        code = section.split("```python\n", 1)[1].split("```", 1)[0]
        out = io.StringIO()
        scope = {}
        with redirect_stdout(out):
            exec(compile(code, "README.md", "exec"), scope)
        closed, numeric = out.getvalue().splitlines()
        assert closed == "1.643820429753291"
        assert abs(float(numeric) - float(closed)) <= 1e-10
        assert scope["gammas"].shape == scope["rs"].shape == (1000,)
