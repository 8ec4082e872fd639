"""Tests for the command line front end."""

import hashlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import tmsvphase
from tmsvphase import errors, fock
from tmsvphase.cli import SweepSpec, cmd_decompose, cmd_sweep, format_number, main
from tmsvphase.phases import TAU
from tmsvphase.su11 import SqueezeParams

ENTROPY_FIG1_END = 0.9547712524422192
GAMMA_CYCLE_REDUCED = 4.789016767412264


class TestFormatNumber:
    def test_zero(self):
        assert format_number(0.0) == "0"

    def test_twelve_significant_digits(self):
        assert format_number(math.pi) == "3.14159265359"
        assert format_number(1261.2345678901) == "1261.23456789"

    def test_scientific_below_threshold(self):
        assert format_number(1e-5) == "1.00000000000e-05"
        assert format_number(-3.2e-7) == "-3.20000000000e-07"

    def test_plain_above_threshold(self):
        assert "e" not in format_number(0.25)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            format_number(float("nan"))


class TestSweepSpecValidation:
    def test_valid(self):
        spec = SweepSpec("gamma_c", 0.0, TAU, 11)
        assert spec.points == 11

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(variable="bogus", start=0.0, stop=1.0, points=5),
            dict(variable="r", start=1.0, stop=1.0, points=5),
            dict(variable="r", start=2.0, stop=1.0, points=5),
            dict(variable="r", start=0.0, stop=1.0, points=1),
            dict(variable="r", start=float("inf"), stop=1.0, points=5),
        ],
    )
    def test_rejects_bad_specs(self, kwargs):
        with pytest.raises(ValueError):
            SweepSpec(**kwargs)


class TestSweepGammaC:
    def run(self, points=101):
        spec = SweepSpec("gamma_c", 0.0, TAU, points)
        out = io.StringIO()
        code = cmd_sweep(spec, fmt="csv", stream=out)
        return code, out.getvalue()

    def test_figure_endpoints(self):
        code, text = self.run()
        assert code == 0
        lines = text.strip().split("\n")
        assert lines[0] == "gamma_c,entropy"
        assert len(lines) == 102  # header + points
        first = lines[1].split(",")
        last = lines[-1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 0.0
        assert abs(float(last[0]) - TAU) < 1e-11
        assert abs(float(last[1]) - ENTROPY_FIG1_END) < 1e-11

    def test_byte_determinism(self):
        _, first = self.run()
        _, second = self.run()
        assert first == second

    def test_curve_is_increasing(self):
        _, text = self.run()
        values = [float(line.split(",")[1]) for line in text.strip().split("\n")[1:]]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestSweepOmegaT:
    def test_vacuum_has_zero_phase_columns(self):
        spec = SweepSpec("omega_t", 0.0, TAU, 9, fixed={"r": 0.0})
        out = io.StringIO()
        assert cmd_sweep(spec, stream=out) == 0
        lines = out.getvalue().strip().split("\n")
        header = lines[0].split(",")
        gamma_col = header.index("gamma_mod_2pi")
        numeric_col = header.index("gamma_numeric")
        for line in lines[1:]:
            cells = line.split(",")
            assert float(cells[gamma_col]) == 0.0
            assert float(cells[numeric_col]) == 0.0

    def test_cyclic_point_value(self):
        spec = SweepSpec("omega_t", 0.0, TAU, 5, fixed={"r": 1.0})
        out = io.StringIO()
        assert cmd_sweep(spec, stream=out) == 0
        last = out.getvalue().strip().split("\n")[-1].split(",")
        header = out.getvalue().split("\n")[0].split(",")
        gamma = float(last[header.index("gamma_mod_2pi")])
        assert abs(gamma - GAMMA_CYCLE_REDUCED) < 1e-9
        assert float(last[header.index("abs_error")]) <= 1e-8

    def test_row_count_and_header(self):
        spec = SweepSpec("omega_t", 0.0, 1.0, 17, fixed={"r": 0.7})
        out = io.StringIO()
        cmd_sweep(spec, stream=out)
        lines = out.getvalue().strip().split("\n")
        assert lines[0] == ("omega_t,re_overlap,im_overlap,total_phase,delta,"
                            "gamma_mod_2pi,gamma_numeric,abs_error")
        assert len(lines) == 18


class TestSweepR:
    def test_columns_and_entropy(self):
        spec = SweepSpec("r", 0.0, 1.5, 7, fixed={"t": 0.9})
        out = io.StringIO()
        assert cmd_sweep(spec, stream=out) == 0
        lines = out.getvalue().strip().split("\n")
        header = lines[0].split(",")
        assert header == ["r", "re_overlap", "im_overlap", "total_phase", "delta",
                          "gamma_mod_2pi", "gamma_numeric", "abs_error",
                          "gamma_c_unreduced", "gamma_c_reduced", "entropy"]
        from tmsvphase.phases import cyclic_geometric_phase, entropy_from_squeeze

        for line in lines[1:]:
            cells = [float(c) for c in line.split(",")]
            r = cells[0]
            assert abs(cells[-1] - entropy_from_squeeze(r)) < 1e-10
            assert abs(cells[-3] - cyclic_geometric_phase(r).unreduced) < 1e-9


class TestSweepJson:
    def test_structure_matches_csv_headers(self):
        spec = SweepSpec("gamma_c", 0.0, TAU, 5)
        out = io.StringIO()
        assert cmd_sweep(spec, fmt="json", stream=out) == 0
        payload = json.loads(out.getvalue())
        assert payload["spec"]["variable"] == "gamma_c"
        assert payload["spec"]["points"] == 5
        assert len(payload["rows"]) == 5
        assert list(payload["rows"][0].keys()) == ["gamma_c", "entropy"]
        assert abs(payload["rows"][-1]["entropy"] - ENTROPY_FIG1_END) < 1e-11


class TestSweepGoldenBytes:
    """sha256 of sweep stdout, recorded while the oracle still ran point by point.

    Every printed digit depends on the last bit of each oracle row, so the
    grid evaluation must reproduce the per-point arithmetic exactly.
    Recorded with numpy 2.4 on x86-64 Linux.
    """

    OMEGA_T = ["sweep", "--variable", "omega_t", "--start", "0",
               "--stop", "6.283185307179586", "--points", "500",
               "--r", "2", "--phi", "0.7", "--epsilon", "0.3"]
    R = ["sweep", "--variable", "r", "--start", "0", "--stop", "2",
         "--points", "50", "--phi", "0.7", "--epsilon", "0.3"]

    @pytest.mark.parametrize("argv,digest", [
        (OMEGA_T, "8e0472ddd8e1feb755bf78e612bae7ac04efea017694b3623224a41a361b73fc"),
        (OMEGA_T + ["--format", "json"],
         "5cb451fd8efaaa51130f3de668d846320fe7bff2ab38e773372e1cfa0b449dca"),
        (R, "0495b283294dd7eec1519f7446c76c6658b9222d8f31975eecbee5823a2f5ee0"),
    ], ids=["omega_t-csv", "omega_t-json", "r-csv"])
    def test_stdout_digest(self, argv, digest, capsys):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestVerifyGoldenBytes:
    """sha256 of verify stdout, recorded while two of its overlap checks
    still evolved one state per point.

    The worst values carry 12 significant digits, so these pin the oracle's
    overlaps and integrals to the bit.  Recorded with numpy 2.4 on x86-64
    Linux, on one CPU and on two.
    """

    @pytest.mark.parametrize("seed,digest", [
        (0, "dd13f8c29e1db10b63048007fae07218f085e232ba1e15df626b57f05edcbc52"),
        (1, "6cd8a541c4622ed9203b7909acf5a7508cd0484e66e4565eabee06af07c0a8e0"),
        (2, "02486b280f82f284ca7c64480e1250e9b013edc26412da98ab780c93099cc4bd"),
        (3, "0756d72f53b77eca6c87651c5a0a49738c104bc930f6bd891b5cadf9e7ed69ad"),
        (4, "a77359fdbf6a82f3d7dedcc35b2108abc05cb0e22cfe438667f0a310267375ba"),
        (5, "4e364d5099d5f939f79aca16d9b7beea8fe1133f649a314018b5c027c031bfb5"),
        (6, "b898d793eda1edccd7f61a929828ef8e2d546ccc8b407bd354b1e8ec1b32ae12"),
        (7, "68a0f4481233e66fb9fe4ce0dd46e48f9f2f5816874766b9c195a2dd44cde117"),
    ])
    def test_stdout_digest(self, seed, digest, capsys):
        assert main(["verify", "--seed", str(seed)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestDecomposeCommand:
    def run(self, prime, dbl, degrees=False):
        out = io.StringIO()
        code = cmd_decompose(prime, dbl, degrees=degrees, stream=out)
        lines = out.getvalue().strip().split("\n")
        values = dict(line.split(" = ") for line in lines)
        return code, values

    def test_equal_params_degenerate(self):
        code, values = self.run(SqueezeParams(1.0, 0.3), SqueezeParams(1.0, 0.3))
        assert code == 0
        assert values["R"] == "0"
        assert values["degenerate_phase"] == "true"

    def test_half_pi_example(self):
        code, values = self.run(SqueezeParams(1.0, 0.0), SqueezeParams(1.0, -math.pi / 2))
        assert code == 0
        assert abs(float(values["R"]) - 2.0) < 1e-11
        assert abs(float(values["Theta"])) < 1e-11
        assert float(values["reconstruction_residual"]) < 1e-10
        assert values["degenerate_phase"] == "false"

    def test_quarter_pi_example(self):
        _, values = self.run(SqueezeParams(1.0, 0.0), SqueezeParams(1.0, -math.pi / 4))
        assert abs(float(values["Theta"]) - 0.5256029929681379) < 1e-11

    def test_degrees_display_only(self):
        _, radians = self.run(SqueezeParams(1.0, 0.0), SqueezeParams(1.0, -math.pi / 4))
        _, degrees = self.run(
            SqueezeParams(1.0, 0.0), SqueezeParams(1.0, -math.pi / 4), degrees=True
        )
        assert abs(float(degrees["Theta"]) - math.degrees(float(radians["Theta"]))) < 1e-9
        assert degrees["R"] == radians["R"]  # R is not an angle


class TestMainEntry:
    def test_verify_exits_zero(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "VERDICT: PASS" in out
        assert out.count("PASS") >= 17

    def test_verify_seed_changes_sampling_not_verdict(self, capsys):
        assert main(["verify", "--seed", "7"]) == 0
        assert "VERDICT: PASS" in capsys.readouterr().out

    def test_verify_forced_cutoff_failure(self, capsys):
        assert main(["verify", "--max-cutoff", "2"]) == 3
        assert "CUTOFF_EXCEEDED" in capsys.readouterr().err

    def test_sweep_usage_errors(self, capsys):
        assert main(["sweep", "--variable", "r", "--start", "0", "--stop", "1",
                     "--points", "1"]) == 2
        assert main(["sweep", "--variable", "r", "--start", "2", "--stop", "1",
                     "--points", "5"]) == 2
        # argparse rejects unknown choices itself
        assert main(["sweep", "--variable", "bogus", "--start", "0",
                     "--stop", "1", "--points", "5"]) == 2
        capsys.readouterr()

    def test_sweep_rejects_bad_hamiltonian(self, capsys):
        code = main(["sweep", "--variable", "omega_t", "--start", "0", "--stop", "1",
                     "--points", "3", "--epsilon", "2.0"])
        assert code == 2
        assert "usage error" in capsys.readouterr().err

    def test_omega_t_sweep_rejects_zero_frequency(self, capsys):
        code = main(["sweep", "--variable", "omega_t", "--start", "0", "--stop", "1",
                     "--points", "3", "--omega", "0"])
        assert code == 2
        assert "Omega must be positive" in capsys.readouterr().err

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["verify", "--format", "json"],
        ["verify", "--degrees"],
        ["sweep", "--variable", "gamma_c", "--start", "0", "--stop", "1",
         "--points", "3", "--seed", "3"],
        ["sweep", "--variable", "gamma_c", "--start", "0", "--stop", "1",
         "--points", "3", "--tolerance", "1e-9"],
        ["decompose", "--tolerance", "5", "--seed", "3", "1", "0", "1", "0"],
        ["decompose", "--max-cutoff", "9", "1", "0", "1", "0"],
    ])
    def test_flags_belong_to_their_subcommand(self, argv, capsys):
        assert main(argv) == 2
        capsys.readouterr()

    def test_long_sweep_within_gate(self, capsys):
        # The oracle's phase error grows with Omega t; its cutoff follows.
        assert main(["sweep", "--variable", "omega_t", "--start", "0",
                     "--stop", "62.83", "--points", "200", "--r", "2"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        column = lines[0].split(",").index("abs_error")
        assert max(float(line.split(",")[column]) for line in lines[1:]) <= 1e-9

    def test_gamma_c_sweep_to_the_largest_float(self, capsys):
        # The entropy grows like ln(gamma_c / 4 pi) + 1 without cancelling.
        assert main(["sweep", "--variable", "gamma_c", "--start", "0",
                     "--stop", "1e308", "--points", "3"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[1:] == ["0,0", "5e+307,706.972037215", "1e+308,707.665184395"]

    def test_squeeze_beyond_cutoff_reach_is_resource_error(self, capsys):
        assert main(["sweep", "--variable", "omega_t", "--start", "0",
                     "--stop", "1", "--points", "3", "--r", "19.5"]) == 3
        assert "CUTOFF_EXCEEDED" in capsys.readouterr().err

    def test_r_sweep_reach_follows_max_cutoff(self, capsys):
        # At Omega t = 1 the oracle column needs N > 4096 above r ~ 3.15.
        argv = ["sweep", "--variable", "r", "--start", "0", "--stop", "4",
                "--points", "5"]
        assert main(argv) == 3
        assert "CUTOFF_EXCEEDED" in capsys.readouterr().err
        assert main(argv + ["--max-cutoff", "30000"]) == 0
        capsys.readouterr()

    def test_sweep_degrees_scales_angles(self, capsys):
        argv = ["sweep", "--variable", "gamma_c", "--start", "0",
                "--stop", str(TAU), "--points", "3"]
        assert main(argv) == 0
        radians_out = capsys.readouterr().out
        assert main(argv + ["--degrees"]) == 0
        degrees_out = capsys.readouterr().out
        last_rad = float(radians_out.strip().split("\n")[-1].split(",")[0])
        last_deg = float(degrees_out.strip().split("\n")[-1].split(",")[0])
        assert abs(last_deg - math.degrees(last_rad)) < 1e-9
        # entropy column is not an angle and must be unchanged
        assert (radians_out.strip().split("\n")[-1].split(",")[1]
                == degrees_out.strip().split("\n")[-1].split(",")[1])

    def test_import_loads_no_scipy(self):
        # Nor concurrent.futures: the oracle's worker threads need only threading.
        result = subprocess.run(
            [sys.executable, "-c", "import sys, tmsvphase.cli; "
             "print(sorted(m for m in sys.modules "
             "if m.startswith(('scipy', 'concurrent'))))"],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"

    def test_out_of_memory_is_a_resource_error(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB for an array with "
                              "shape (10000000000,) and data type float64")

        monkeypatch.setattr(np, "linspace", refuse)
        assert main(["sweep", "--variable", "gamma_c", "--start", "0", "--stop", "1",
                     "--points", "10000000000"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("OUT_OF_MEMORY: Unable to allocate 74.5 GiB")
        assert err.count("\n") == 1

    def test_console_entry_point_subprocess(self):
        result = subprocess.run(
            [sys.executable, "-m", "tmsvphase.cli", "sweep", "--variable", "gamma_c",
             "--start", "0", "--stop", str(TAU), "--points", "3"],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0
        assert result.stdout.startswith("gamma_c,entropy\n")
        assert result.stdout.endswith("\n")

    @pytest.mark.parametrize("points,lines_read", [(200000, 1), (100, 0)],
                             ids=["head-1", "closed-before-output"])
    def test_closed_stdout_is_a_resource_error(self, points, lines_read):
        # Buffered output (no PYTHONUNBUFFERED) must meet the closed pipe
        # inside main too, not in the flush at interpreter exit.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.Popen(
            [sys.executable, "-m", "tmsvphase.cli", "sweep", "--variable", "gamma_c",
             "--start", "0", "--stop", "6", "--points", str(points)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        for _ in range(lines_read):
            proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 3
        assert "Traceback" not in err
        assert err.startswith("BROKEN_PIPE: ")
        assert err.count("\n") == 1


class TestPublicSurface:
    NAMES = [
        "CutoffExceededError", "CyclicPhase", "DecompositionTriple",
        "DiagonalFockState", "ExpmNotConvergedError", "GroupElement",
        "HamiltonianParams", "PhaseBreakdown", "R_MAX", "SqueezeParams",
        "bogoliubov_residual", "c_matrix", "cutoff_for", "cyclic_geometric_phase",
        "decompose_product", "dynamical_integral", "dynamical_term",
        "entropy_from_cyclic_phase", "entropy_from_squeeze", "entropy_numeric",
        "evolve", "geometric_phase", "geometric_phase_numeric", "inverse",
        "multiply", "one_mode_cyclic_phase", "overlap_analytic", "reconstruct",
        "rotation_conjugation_check", "schmidt_state", "squeeze_by_exponentiation",
        "total_phase_factor", "two_mode_squeeze_operator",
    ]

    def test_package_exports_exactly_these_names(self):
        assert len(self.NAMES) == 33
        assert sorted(tmsvphase.__all__) == self.NAMES
        assert [name for name in self.NAMES if not hasattr(tmsvphase, name)] == []

    @pytest.mark.parametrize("name", ["overlap_numeric", "energy_expectation",
                                      "CutoffMismatchError"])
    def test_per_state_overlap_names_are_gone(self, name):
        # Overlaps and energies over time come from the grid oracle alone.
        for module in (tmsvphase, fock, errors):
            assert not hasattr(module, name), module.__name__
