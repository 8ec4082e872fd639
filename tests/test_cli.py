"""Tests for the command line front end."""

import hashlib
import inspect
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import tmsvphase
from tmsvphase import cli, errors, fock, su11
from tmsvphase.cli import SweepSpec, cmd_decompose, cmd_sweep, format_number, main
from tmsvphase.phases import TAU
from tmsvphase.su11 import SqueezeParams
from test_fock import _eigh_squeeze

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
            dict(variable="omega_t", start=0.0, stop=1.0, points=3,
                 fixed={"omega": 2.0}),
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
    """sha256 of sweep stdout, recorded once each phase row was evolved to t alone.

    Every printed digit depends on the last bit of each oracle row, so the
    grid evaluation must reproduce the per-point arithmetic exactly.  The
    digests were re-recorded when the sweep's energy quadrature went from
    four trapezoid steps to one: against the four-step tables only
    ``gamma_numeric`` and ``abs_error`` cells moved, each by at most
    0.88 cond eps of its row, and each table kept its largest ``abs_error``
    row (omega_t: 9.93111370917e-10 -> 9.93139792627e-10, 0.31 cond eps;
    r and r-wide: unchanged).  Recorded with numpy 2.4 on x86-64 Linux.
    """

    OMEGA_T = ["sweep", "--variable", "omega_t", "--start", "0",
               "--stop", "6.283185307179586", "--points", "500",
               "--r", "2", "--phi", "0.7", "--epsilon", "0.3"]
    R = ["sweep", "--variable", "r", "--start", "0", "--stop", "2",
         "--points", "50", "--phi", "0.7", "--epsilon", "0.3"]
    # Cutoffs from 0 to about 3000, one state per row.
    R_WIDE = ["sweep", "--variable", "r", "--start", "0", "--stop", "3",
              "--points", "200", "--phi", "0.7"]

    @pytest.mark.parametrize("argv,digest", [
        (OMEGA_T, "90a74185ea81683dd8e25ed71887a0f14a7d4cd884e2747ca7fd81dfb561efb1"),
        (OMEGA_T + ["--format", "json"],
         "bfb5d82102bc4c2856fad695b4063ed501bf1e5c8789e51c11d485a22d6646eb"),
        (R, "1352cb4e92fdf76f59e5d12861f14c0b5a7d375186e3b5c936fc1da06c639e46"),
        (OMEGA_T + ["--degrees"],
         "320df968321230c5d591945b9473ea93ce2326b1583357d223ac9601c4f77b8b"),
        (R + ["--format", "json"],
         "eacf6c57f4f77a9be749bc9642c95b9fd7b82cffb86989ed2ae19ea98015f5c0"),
        (R_WIDE, "7f392140e5c12f8d7d725e9447e0f5b7b880d3a26d2c6b2fb491c484e7e80489"),
    ], ids=["omega_t-csv", "omega_t-json", "r-csv", "omega_t-degrees", "r-json", "r-wide"])
    def test_stdout_digest(self, argv, digest, capsys):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestVerifyGoldenBytes:
    """sha256 of verify stdout, pinned twice.

    ``test_stdout_digest`` holds the bytes recorded while
    exponentiation-agreement's squeeze exponential was a dense eigh of the
    whole tridiagonal generator, with that route swapped back in: every
    other line of verify must still print those bytes.  ``test_svd_digest``
    holds verify as it runs, with the exponential as one SVD of the
    generator's even-to-odd block.  The SVD moved only the
    exponentiation-agreement line, whose worst rose by 3.5e-17
    (9.37492752361e-12 to 9.37496221803e-12 for every seed).  The worst
    values carry 12 significant digits, so these pin the oracle's overlaps
    and integrals to the bit.  Recorded with numpy 2.4 on x86-64 Linux, on
    one CPU and on two, with OPENBLAS_NUM_THREADS 1 and 2.
    """

    @staticmethod
    def digest(seed, capsys):
        assert main(["verify", "--seed", str(seed)]) == 0
        out = capsys.readouterr().out
        return hashlib.sha256(out.encode()).hexdigest()

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
    def test_stdout_digest(self, seed, digest, capsys, monkeypatch):
        real = fock.squeeze_by_exponentiation

        def dense_eigh(r, phi, N):
            real(r, phi, N)  # the same argument checks and errors
            coeffs = _eigh_squeeze(r, phi, N)
            norm = float(np.linalg.norm(coeffs))
            if norm > 1.0:
                coeffs /= norm
            return fock.DiagonalFockState(coeffs)

        monkeypatch.setattr(fock, "squeeze_by_exponentiation", dense_eigh)
        assert self.digest(seed, capsys) == digest

    @pytest.mark.parametrize("seed,digest", [
        (0, "163a1d8bc9c8b4ae6d52002ea90d4d1ebe12e613d0a6c364a683db43a6ff1947"),
        (1, "8866a5fa855ef13614ddd84805a2451c6720016b38573c35b4e2704f43e47324"),
        (2, "139e48cfc27b0c7716aa4901df85adc53593ec84ffa4e863a505959316ee5e72"),
        (3, "55bc700ad071baf1b3f92c8da40c58c0caac7fba7a2f61ab4cf41d4e17051abc"),
        (4, "029938c0f6749593d9f2333763b7b79773eebd8cf5da64cda41210777d1428b0"),
        (5, "0572ee5c88358990c27ebf30535ec15322fa5eb94fa4597a654a59f28cda59ce"),
        (6, "c1df2d6d09cc5d5cb9fefa7b9f768adf06414e8ec14d33e8dc20aec439915f77"),
        (7, "84b2e1219ad52d64cc7cf3c7e093816cac05eea7242069cbc46501f471635611"),
    ])
    def test_svd_digest(self, seed, digest, capsys):
        assert self.digest(seed, capsys) == digest


class TestSu11BulkDraws:
    """su11-closure and su11-reconstruction draw all their samples at once.

    Each must consume the doubles a loop of scalar rng.uniform draws would,
    r before phi, and leave the generator where that loop leaves it.
    """

    @staticmethod
    def recorded_calls(monkeypatch, name, record):
        seen = []
        real = getattr(su11, name)

        def recording(*args):
            seen.append(record(*args))
            return real(*args)

        monkeypatch.setattr(su11, name, recording)
        return seen

    @pytest.mark.parametrize("seed", range(8))
    def test_closure(self, seed, monkeypatch):
        seen = self.recorded_calls(monkeypatch, "_c_pair", lambda r, phi: (r, phi))
        rng = np.random.default_rng(seed)
        assert cli._su11_closure(fock.DEFAULT_MAX_CUTOFF, rng).passed
        scalar = np.random.default_rng(seed)
        expected = [
            (scalar.uniform(-3, 3), scalar.uniform(-math.pi, math.pi)) for _ in range(6000)
        ]
        assert seen == expected
        assert rng.bit_generator.state == scalar.bit_generator.state

    @pytest.mark.parametrize("seed", range(8))
    def test_reconstruction(self, seed, monkeypatch):
        seen = self.recorded_calls(
            monkeypatch, "decompose_product", lambda p, d: (p.r, p.phi, d.r, d.phi)
        )
        rng = np.random.default_rng(seed)
        assert cli._su11_reconstruction(fock.DEFAULT_MAX_CUTOFF, rng).passed
        scalar = np.random.default_rng(seed)
        expected = [
            (scalar.uniform(-3, 3), scalar.uniform(-math.pi, math.pi),
             scalar.uniform(-3, 3), scalar.uniform(-math.pi, math.pi))
            for _ in range(1000)
        ]
        assert seen == expected
        assert rng.bit_generator.state == scalar.bit_generator.state


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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_omega_t_sweep_rejects_zero_frequency(self, capsys):
        code = main(["sweep", "--variable", "omega_t", "--start", "0", "--stop", "1",
                     "--points", "3", "--omega", "0"])
        assert code == 2
        assert "Omega must be positive" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_time_at_zero_squeeze_is_one_usage_line(self, capsys):
        # t = grid / Omega overflows; at r = 0 cond is inf * 0, so the gate
        # passes the row and the oracle refuses t = inf.
        assert main(["sweep", "--variable", "omega_t", "--start", "0", "--stop", "1e300",
                     "--points", "3", "--r", "0", "--omega", "1e-300"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: t must be finite, got inf\n"

    def test_drifting_su11_chain_fails_its_check(self, capsys, monkeypatch):
        # GroupElement refuses a defect above DET_TOL, the check's own bound,
        # so the check must measure the product before anything validates it.
        real = su11._product

        def drifting(a, b):
            m11, m12 = real(a, b)
            return m11 * (1.0 + 3e-10), m12

        monkeypatch.setattr(su11, "_product", drifting)
        assert main(["verify"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 18
        assert sum(line.startswith(("PASS  ", "FAIL  ")) for line in lines) == 17
        assert lines[0].startswith("FAIL  su11-closure ")
        assert lines[-1].startswith("VERDICT: FAIL (")

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
        # verify always runs at fock.DEFAULT_MAX_CUTOFF.
        ["verify", "--max-cutoff", "2"],
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_oracle_input_is_one_precision_line(self, capsys):
        # Omega t = 1e308 would overflow the oracle's phases; cond overflows
        # quietly first and the precision gate refuses the table.
        assert main(["sweep", "--variable", "omega_t", "--start", "0",
                     "--stop", "1e308", "--points", "3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("PRECISION_EXCEEDED: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["--variable", "omega_t", "--start", "0", "--stop", "1e300", "--r", "0.1"],
        ["--variable", "r", "--start", "0", "--stop", "1", "--t", "1e300"],
        ["--variable", "omega_t", "--start", "0", "--stop", "1e308", "--r", "0.1"],
    ], ids=["omega_t", "r", "omega_t-1e308"])
    def test_phase_no_double_carries_is_a_resource_error(self, argv, capsys, monkeypatch):
        # cond eps reaches 1e284 here: the oracle/closed-form gap is noise,
        # not a failed invariant.  The gate refuses the table before the
        # oracle would compute it, or overflow on it.
        def refuse(*args, **kwargs):
            raise AssertionError("the oracle ran on a table the gate refuses")

        monkeypatch.setattr(fock, "geometric_phase_numeric", refuse)
        assert main(["sweep", *argv, "--points", "3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("PRECISION_EXCEEDED: ")
        assert captured.err.count("\n") == 1

    def test_non_finite_cell_is_named_row_by_row(self, capsys, monkeypatch):
        # The first row's entropy comes before the second row's gamma_c.
        table = (["gamma_c", "entropy"], [(0.0, math.nan), (math.inf, 0.0)])
        monkeypatch.setattr(cli, "sweep_rows", lambda spec, max_cutoff: table)
        out = io.StringIO()
        assert cmd_sweep(SweepSpec("gamma_c", 0.0, 1.0, 2), stream=out) == 1
        assert out.getvalue() == ""
        assert capsys.readouterr().err == "non-finite value in column entropy\n"

    def test_squeeze_beyond_cutoff_reach_is_resource_error(self, capsys):
        argv = ["sweep", "--variable", "omega_t", "--start", "0", "--points", "3",
                "--r", "19.5"]
        # cond eps reaches about 190 at Omega t = 0.5.
        assert main(argv + ["--stop", "1"]) == 3
        assert capsys.readouterr().err.startswith("PRECISION_EXCEEDED: ")
        # cond is about 1: the gate passes and tanh r rounds to 1.
        assert main(argv + ["--stop", "1e-30"]) == 3
        assert capsys.readouterr().err.startswith("CUTOFF_EXCEEDED: ")

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
        "HamiltonianParams", "PhaseBreakdown", "PrecisionExceededError", "R_MAX",
        "SqueezeParams",
        "bogoliubov_residual", "c_matrix", "cutoff_for", "cyclic_geometric_phase",
        "decompose_product", "dynamical_integral", "dynamical_term",
        "entropy_from_cyclic_phase", "entropy_from_squeeze", "entropy_numeric",
        "evolve", "geometric_phase", "geometric_phase_numeric", "inverse",
        "multiply", "one_mode_cyclic_phase", "overlap_analytic", "reconstruct",
        "rotation_conjugation_check", "schmidt_state", "squeeze_by_exponentiation",
        "total_phase_factor", "two_mode_squeeze_operator",
    ]

    def test_package_exports_exactly_these_names(self):
        assert len(self.NAMES) == 34
        assert sorted(tmsvphase.__all__) == self.NAMES
        assert [name for name in self.NAMES if not hasattr(tmsvphase, name)] == []

    @pytest.mark.parametrize("owner,name", [
        (fock.DiagonalFockState, "cutoff"),
        (fock.SectorBlockOperator, "cutoff"),
        (su11.DecompositionTriple, "degenerate"),
        (fock.two_mode_squeeze_operator, "max_cutoff"),
        (fock.bogoliubov_residual, "max_cutoff"),
        (fock.rotation_conjugation_check, "max_cutoff"),
        (fock.squeeze_by_exponentiation, "max_cutoff"),
        (su11.check_squeeze_factor, "r_max"),
        (cli.run_invariant_suite, "max_cutoff"),
        (cli.cmd_verify, "max_cutoff"),
    ])
    def test_derived_values_are_not_parameters(self, owner, name):
        # Cutoffs follow from the arrays, degeneracy from R, and the caps are
        # the module constants FULL_SPACE_MAX_CUTOFF, DEFAULT_MAX_CUTOFF and R_MAX.
        assert name not in inspect.signature(owner).parameters

    @pytest.mark.parametrize("name", ["overlap_numeric", "energy_expectation",
                                      "CutoffMismatchError"])
    def test_per_state_overlap_names_are_gone(self, name):
        # Overlaps and energies over time come from the grid oracle alone.
        for module in (tmsvphase, fock, errors):
            assert not hasattr(module, name), module.__name__


class TestOneOracleCall:
    """Sweeps and verify checks ask the oracle for all their (r, t) rows at once.

    Each call is recorded as (rows, quadrature steps).
    """

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        real = fock._evolution

        def counting(observable, r, *args, **kwargs):
            seen.append((np.size(r), kwargs["steps"]))
            return real(observable, r, *args, **kwargs)

        monkeypatch.setattr(fock, "_evolution", counting)
        return seen

    @pytest.mark.parametrize("variable,stop", [("r", 2.0), ("omega_t", TAU)])
    def test_phase_sweep(self, calls, variable, stop):
        # The energy integrand is constant, so each row evolves once, to t.
        cli.sweep_rows(SweepSpec(variable, 0.0, stop, 40))
        assert calls == [(40, 1)]

    @pytest.mark.parametrize("check,sizes", [
        (cli._overlap_agreement, [(5 * 63, 1)]),
        (cli._dynamical_quadrature, [(4 * 5, steps) for _ in range(3) for steps in (1, 7, 200)]),
        # geometric_phase_numeric's default keeps the multi-node quadrature in use.
        (cli._gauge_invariance, [(3 * 3, 16)] * 4),
        (cli._cyclic_total_phase, [(5, 1)]),
        (cli._cyclic_gamma, [(5, 16)]),
    ])
    def test_verify_check(self, calls, check, sizes):
        assert check(fock.DEFAULT_MAX_CUTOFF, np.random.default_rng(0)).passed
        assert calls == sizes
