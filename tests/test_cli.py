"""Tests for the command line front end."""

import hashlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import tmsvphase
from tmsvphase import cli, errors, fock, phases, su11
from tmsvphase.cli import SweepSpec, cmd_decompose, cmd_sweep, format_number, main
from tmsvphase.phases import TAU
from tmsvphase.su11 import SqueezeParams
from test_fock import _eigh_squeeze, _phase_table, _svd_squeeze

ENTROPY_FIG1_END = 0.9547712524422192
GAMMA_CYCLE_REDUCED = 4.789016767412264

_DEG = 180.0 / math.pi
_FLOAT_MIN = 2.2250738585072014e-308
# Cells at the edges of format_number's rule: signed zeros, both sides of
# |x| = 1e-4 before and after the degree scale, subnormals, and |x| >= 1e16.
_EDGE_CELLS = [
    0.0, -0.0,
    *(math.nextafter(sign * edge, toward) for sign in (1.0, -1.0)
      for edge in (1e-4, 1e-4 / _DEG) for toward in (0.0, sign)),
    1e-4, -1e-4, 1e-4 / _DEG,
    5e-324, -5e-324, math.nextafter(_FLOAT_MIN, 0.0), -math.nextafter(_FLOAT_MIN, 0.0),
    _FLOAT_MIN,
    1e16, -1e16, math.nextafter(1e16, 0.0), 123456789012345678.0, -9.87654321e250,
]


def _by_format_number(rows, scales):
    """CSV lines of rows * scales, formatted one cell at a time."""
    return "".join(
        ",".join(format_number(x * s) for x, s in zip(row, scales)) + "\n" for row in rows
    )


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


class TestTableFormatter:
    """The chunked CSV formatter prints each cell as format_number does."""

    @settings(deadline=None, max_examples=300)
    @given(
        cells=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                       max_size=11),
        degrees=st.booleans(),
    )
    @example(cells=_EDGE_CELLS, degrees=False)
    @example(cells=_EDGE_CELLS, degrees=True)
    def test_agrees_with_format_number_cell_for_cell(self, cells, degrees):
        scale = _DEG if degrees else 1.0
        cells = [x for x in cells if math.isfinite(x * scale)]
        assume(cells)
        scales = [scale] * len(cells)
        got = cli._csv_lines(np.array([cells]), np.array(scales))
        assert got.split(",") == _by_format_number([cells], scales).split(",")

    def test_rows_of_mixed_classes(self):
        # One format string per class pattern: rows with different patterns
        # in one chunk must each keep their own.
        rows = [_EDGE_CELLS, _EDGE_CELLS[::-1], [1.0] * len(_EDGE_CELLS), _EDGE_CELLS]
        scales = [_DEG, 1.0] * (len(_EDGE_CELLS) // 2) + [1.0] * (len(_EDGE_CELLS) % 2)
        assert cli._csv_lines(np.array(rows), np.array(scales)) == _by_format_number(rows, scales)


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
    """sha256 of sweep stdout, recorded once delta became t <H>_0.

    Every printed digit depends on the last bit of each oracle row, so the
    grid evaluation must reproduce the per-point arithmetic exactly.  The
    digests were re-recorded when the sweep's energy quadrature went from
    four trapezoid steps to one (each moved cell within 0.88 cond eps of
    its row), when ``fock._phases`` replaced one exponential per
    coefficient by the outer product of two tables (each moved
    ``gamma_numeric`` within 0.38 cond eps), and again when
    ``fock._moments`` contracted the two tables against tables of |c_n|^2
    instead of forming evolved rows: only ``gamma_numeric`` and
    ``abs_error`` cells moved, each ``gamma_numeric`` by at most 0.35 cond
    eps (omega_t, 161/500 cells), 0.54 (r, 28/50), 0.57 (r-wide, 128/200)
    and 0.92 (r-dense, 6340/10^4), and only r-wide's largest ``abs_error``
    moved (9.689813396e-10 to 9.690097613e-10).  They were re-recorded when
    delta became t <H>_0 instead of a one-step trapezoid of the energy at 0
    and at t: only ``gamma_numeric`` and ``abs_error`` moved, each
    ``gamma_numeric`` by at most 0.25 cond eps (omega_t, 68/500), 0.24
    (r, 17/50), 0.41 (r-wide, 77/200) and 0.50 (r-dense, 2971/10^4), and
    none of them as printed in CSV; only r's largest ``abs_error`` moved
    (9.593890127e-10 to 9.593872363e-10).  Recorded with numpy 2.4 on
    x86-64 Linux.
    """

    OMEGA_T = ["sweep", "--variable", "omega_t", "--start", "0",
               "--stop", "6.283185307179586", "--points", "500",
               "--r", "2", "--phi", "0.7", "--epsilon", "0.3"]
    R = ["sweep", "--variable", "r", "--start", "0", "--stop", "2",
         "--points", "50", "--phi", "0.7", "--epsilon", "0.3"]
    # Cutoffs from 0 to about 3000, one r per row.
    R_WIDE = ["sweep", "--variable", "r", "--start", "0", "--stop", "3",
              "--points", "200", "--phi", "0.7"]
    # 47 cutoffs for 10^4 rows, so blocks hold many r each.  Recorded
    # while every row still had a block and a Schmidt state of its own.
    R_DENSE = ["sweep", "--variable", "r", "--start", "0", "--stop", "1",
               "--points", "10000"]

    OMEGA_T_DIGEST = "f9bb2a29b6b2f56a3d322392614accbc0539cc3a733f4f2c3f16753a849725d4"
    R_DENSE_DIGEST = "6eb0cea803ae5b87230bf7c908126c5fd48e429b3fc48ddd105aafb9bad28f76"

    @pytest.mark.parametrize("argv,digest", [
        (OMEGA_T, OMEGA_T_DIGEST),
        (OMEGA_T + ["--format", "json"],
         "f19496604b2f2fa0642d779dacc5f50b53ba12bf41ea159a45f4201b4ec1cf9b"),
        (R, "8458df5a9f13761cae211fb7750ce868755beb161dee9f1cc65f901a6cdc0fea"),
        (OMEGA_T + ["--degrees"],
         "da53fad911c402bd6f0202fdca16d53d3da03d6eab186142151deb444b8db578"),
        (R + ["--format", "json"],
         "2df9ffaf02d5ca2cc5ec71f1a476700b6529ec91660cbb86d3201ff7c5a37c18"),
        (R_WIDE, "bc5a3e52768384ff11854bbf83ff69c65fa910908f145e84e077ac06351916f7"),
        (R_DENSE, R_DENSE_DIGEST),
    ], ids=["omega_t-csv", "omega_t-json", "r-csv", "omega_t-degrees", "r-json", "r-wide",
            "r-dense"])
    def test_stdout_digest(self, argv, digest, capsys):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("elements", [1, fock._BLOCK_ELEMENTS, 10**7],
                             ids=["one-row", "default", "whole-cutoff"])
    @pytest.mark.parametrize("argv,digest", [(OMEGA_T, OMEGA_T_DIGEST),
                                             (R_DENSE, R_DENSE_DIGEST)],
                             ids=["omega_t", "r-dense"])
    def test_block_size_moves_no_byte(self, argv, digest, elements, capsys, monkeypatch):
        # A row's contractions are calls of their own, so one-row blocks,
        # the default ones and blocks of all of a cutoff's rows print the
        # same bytes (test_fock.py's TestBlockPlan checks the default plan).
        monkeypatch.setattr(fock, "_BLOCK_ELEMENTS", elements)
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestSweepTable:
    """sweep_rows returns one float64 table, and cmd_sweep prints it in chunks."""

    OMEGA_T = SweepSpec("omega_t", 0.0, TAU, 500, {"r": 2.0, "phi": 0.7, "epsilon": 0.3})
    R = SweepSpec("r", 0.0, 2.0, 50, {"phi": 0.7, "epsilon": 0.3})

    @pytest.mark.parametrize("spec", [OMEGA_T, R], ids=["omega_t", "r"])
    def test_closed_forms_are_geometric_phase_fields(self, spec):
        # Bit for bit, signed zeros included: the golden grids' closed-form
        # columns are what phases.geometric_phase gives row by row.
        headers, table = cli.sweep_rows(spec)
        assert table.dtype == np.float64
        assert table.shape == (spec.points, len(headers))
        expected = []
        for row in table.tolist():
            r, t = (2.0, row[0] / 1.0) if spec.variable == "omega_t" else (row[0], 1.0)
            b = phases.geometric_phase(r, 1.0, t)
            cells = [row[0], b.overlap.real, b.overlap.imag, b.total_phase,
                     b.dynamical_term_delta, b.geometric_phase, row[6],
                     cli.circle_distance(row[6], b.geometric_phase)]
            if spec.variable == "r":
                cells += [*phases.cyclic_geometric_phase(r), phases.entropy_from_squeeze(r)]
            expected.append(cells)
        assert table.tobytes() == np.array(expected).tobytes()

    # More rows than one chunk holds, so a chunk boundary falls inside each.
    @pytest.mark.parametrize("spec", [
        SweepSpec("omega_t", 0.0, TAU, 1500, {"r": 1.3, "phi": 0.7, "epsilon": 0.3}),
        SweepSpec("r", 0.0, 1.0, 1100, {"phi": 0.7, "t": 0.9}),
    ], ids=["omega_t", "r"])
    @pytest.mark.parametrize("degrees", [False, True], ids=["radians", "degrees"])
    def test_multi_chunk_table_prints_format_number_cells(self, spec, degrees, monkeypatch):
        assert spec.points > cli._CHUNK_ROWS
        real, tables = cli.sweep_rows, []

        def recording(*args):
            tables.append(real(*args))
            return tables[-1]

        monkeypatch.setattr(cli, "sweep_rows", recording)
        out = io.StringIO()
        assert cmd_sweep(spec, degrees=degrees, stream=out) == 0
        (headers, table), = tables
        scales = [_DEG if degrees and angle else 1.0 for _, angle in cli._COLUMNS[spec.variable]]
        want = ",".join(headers) + "\n" + _by_format_number(table.tolist(), scales)
        assert out.getvalue() == want


def _evolved_rows(phase_table):
    """A ``fock._moments`` that runs the kernel the grid ran before it
    contracted tables: evolved rows c_n phase_n, with the phases of
    ``phase_table(energies, ts, shift)``, their |.|^2 summed along each
    row, and np.vecdot for the overlap."""
    def moments(coeffs, energies, ts, shift, spare=None):
        evolved = coeffs * phase_table(energies, ts, shift)
        energy = (energies * np.abs(coeffs) ** 2).sum(axis=-1)
        return energy, (np.abs(evolved) ** 2).sum(axis=-1), np.vecdot(coeffs, evolved)

    return moments


def _literal_exponentials(energies, ts, shift):
    return np.exp(-1j * (energies + shift) * ts[..., None])


def _literal_phases(monkeypatch):
    """Swap the literal exponentials back in for the oracle's phase helpers.

    ``fock._phases`` gives np.exp(-1j * (E + shift) * tau) as its hi table
    with a lo table of ones, so ``evolve``'s outer product is that row; the
    grid's ``fock._moments`` forms evolved rows from the same exponentials
    (``_evolved_rows``); and ``fock._unit_powers`` gives
    np.exp(-1j * angle * k).
    """
    monkeypatch.setattr(fock, "_phases", lambda energies, ts, shift, spare=None: (
        _literal_exponentials(energies, ts, shift), np.ones((*ts.shape, 1))))
    monkeypatch.setattr(fock, "_moments", _evolved_rows(_literal_exponentials))
    monkeypatch.setattr(fock, "_unit_powers", lambda angle, counts: np.exp(-1j * angle * counts))


# The two verify lines delta = t <H>_0 moved, as they print now, and as the
# trapezoid printed them before, by the kernel that contracted the energy.
_DELTA_LINES = (
    "PASS  dynamical-quadrature         worst 9.91118298543e-12  bound 1.00000000000e-10"
    "  [r=0.5, omega_t=6.283, eps=0.0*Omega]",
    "PASS  gauge-invariance             worst 3.55271367880e-15  bound 1.00000000000e-10"
    "  [r=1.0, omega_t=6.283, shift=5.0]",
)
_TRAPEZOID_LINES = {
    "contraction": (
        "PASS  dynamical-quadrature         worst 9.91207116385e-12  bound 1.00000000000e-10"
        "  [r=0.5, omega_t=6.283, eps=0.0*Omega, steps=200]",
        "PASS  gauge-invariance             worst 7.10542735760e-15  bound 1.00000000000e-10"
        "  [r=1.5, omega_t=6.283, shift=-2.0]",
    ),
    "evolved rows": (
        "PASS  dynamical-quadrature         worst 9.91118298543e-12  bound 1.00000000000e-10"
        "  [r=0.5, omega_t=6.283, eps=0.0*Omega, steps=1]",
        "PASS  gauge-invariance             worst 7.10542735760e-15  bound 1.00000000000e-10"
        "  [r=1.5, omega_t=6.283, shift=5.0]",
    ),
}


class TestVerifyGoldenBytes:
    """sha256 of verify stdout, pinned five times.

    ``test_chebyshev_digest`` holds verify as it runs.  The other four hold
    older bytes with the older routes swapped back in, so every line those
    routes do not reach must still print them.  Each swaps back an older
    squeeze exponential for exponentiation-agreement (``_squeeze_by``).
    Three take the SVD of the even-to-odd block (``_svd_squeeze``), which
    the Chebyshev series replaced; the series moved only that line, the
    same for every seed, from 9.37496221803e-12 to 9.37497402834e-12.
    ``test_contraction_digest`` holds the bytes of the contraction as it
    runs, and ``test_digest`` the bytes of the square-root phase tables
    while the grid still formed evolved rows from their outer product
    (``_evolved_rows``).  The other two run with the literal exponentials
    of ``_literal_phases``: ``test_svd_digest`` holds the bytes recorded
    while each phase was one exponential, and ``test_stdout_digest`` takes
    the dense eigh of the whole tridiagonal generator that the squeeze
    exponential was before the SVD (``_eigh_squeeze``).
    The SVD moved only the exponentiation-agreement line, whose worst rose
    by 3.5e-17 (9.37492752361e-12 to 9.37496221803e-12 for every seed).
    The square-root phase tables moved four lines, the same for every seed:
    geometric-phase-agreement 9.93750859379e-10 to 9.93757964807e-10,
    evolution-reparameterization 9.29678432876e-15 to 8.05845509126e-15,
    rotation-conjugation 5.10358185595e-15 to 5.08975858709e-15 and
    cyclic-total-phase 7.18869408452e-15 to 1.11924358671e-14.  Contracting
    the tables against |c_n|^2 tables (``fock._moments``) moved three worst
    values, the same for every seed: geometric-phase-agreement back to
    9.93750859379e-10, dynamical-quadrature 9.91118298543e-12 to
    9.91207116385e-12 and cyclic-total-phase to 1.11993155728e-14;
    gauge-invariance kept its worst, with its argmax at shift -2.0, not 5.0.
    ``_literal_phases`` swaps the evolved-row kernel back in for the
    contraction, so the two older digests held unchanged.  The worst values
    carry 12 significant digits, so these pin the oracle's overlaps and
    integrals to the bit.  Recorded with numpy 2.4 on x86-64 Linux, on one
    CPU and on two, with OPENBLAS_NUM_THREADS 1 and 2.

    When delta became t <H>_0 instead of a trapezoid of the energy, two
    lines moved under every route, the same for every seed (``_DELTA_LINES``):
    gauge-invariance from 7.10542735760e-15 to 3.55271367880e-15, and
    dynamical-quadrature, which lost its step count from its detail, from
    9.91207116385e-12 to 9.91118298543e-12 under the contraction and not at
    all under the evolved rows.  Each test pins those two lines as they print
    now and hashes its output with them put back as the trapezoid printed
    them (``_TRAPEZOID_LINES``), so the recorded digests still hold every
    other line to its bytes.
    """

    @staticmethod
    def digest(seed, capsys, kernel):
        """sha256 of verify's stdout with ``_DELTA_LINES`` put back as
        ``kernel``'s trapezoid printed them; each must print once."""
        assert main(["verify", "--seed", str(seed)]) == 0
        out = capsys.readouterr().out
        for line, trapezoid_line in zip(_DELTA_LINES, _TRAPEZOID_LINES[kernel]):
            assert out.count(f"\n{line}\n") == 1, line
            out = out.replace(f"\n{line}\n", f"\n{trapezoid_line}\n")
        return hashlib.sha256(out.encode()).hexdigest()

    @pytest.mark.parametrize("seed,digest", [
        (0, "f3642b2fa02d746b98b5120555a853841dbe889ec45f7b0473c89f7b29866e48"),
        (1, "524c7ac34d400e9f099d0c99e1b4342862b81e7959b041e3620ec9ea4c74af77"),
        (2, "69cda689e9eb5dff1bf9112441c18ad8c8a161fe5a74ff6e491020765f6da300"),
        (3, "adcada4d4c566968c96c133a35d0561d780d071c0db370552db0b7415f0d26a0"),
        (4, "316e04adc30fbc917817edcbd3a330337efe90c68d95337b64c50309d2b1688c"),
        (5, "255d2829206fcbfc6f799fe4c0ae3b571399cbe617301f43654209dc32abffbc"),
        (6, "469d9e314717993168f90c58979116a29d1ff322a457669396a16cab20c5c128"),
        (7, "a03b13b3379ceee51d44607e356d75f333e672b2eccf5c2eb22eddd77e67972a"),
    ])
    def test_digest(self, seed, digest, capsys, monkeypatch):
        _squeeze_by(monkeypatch, _svd_squeeze)
        monkeypatch.setattr(fock, "_moments", _evolved_rows(_phase_table))
        assert self.digest(seed, capsys, "evolved rows") == digest

    @pytest.mark.parametrize("seed,digest", [
        (0, "fea47ae9640a756b3ed2b52fcc445217de55a71ea97ef0dc8c0f5bf070240d62"),
        (1, "a5c7c3b5a87bc5731311e202d789e3a28430c9c3c1060545e0e71f8b4ba62233"),
        (2, "ec4b8c67d58837f4580076bace009bfb96f0a24323bcb6ea039ccf5aced3a67a"),
        (3, "b4062ed687437f2803ced62c10897fbeb80339d1d3ad87df1c52033f0ea30e2e"),
        (4, "175151af56474d47b51d64b4d3b3977a85b450c196fef102d44f6359b582f469"),
        (5, "713ebb57b802f9771f9deb8192c2d0314a52cb55433af5d76da0dfa175018aff"),
        (6, "6244f7638efa243cebb3bf467831a67ae609dbf9944604ebac789a6e94c10c18"),
        (7, "032a935c380564158df3e0d217a2443098b9f91c71ce88db574f261a1e1ea4c9"),
    ])
    def test_contraction_digest(self, seed, digest, capsys, monkeypatch):
        _squeeze_by(monkeypatch, _svd_squeeze)
        assert self.digest(seed, capsys, "contraction") == digest

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
        _squeeze_by(monkeypatch, _eigh_squeeze)
        _literal_phases(monkeypatch)
        assert self.digest(seed, capsys, "evolved rows") == digest

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
    def test_svd_digest(self, seed, digest, capsys, monkeypatch):
        _squeeze_by(monkeypatch, _svd_squeeze)
        _literal_phases(monkeypatch)
        assert self.digest(seed, capsys, "evolved rows") == digest

    @pytest.mark.parametrize("seed,digest", [
        (0, "e7be88b192a9257b04f4b2e28a93be51b9bf88cd67ad166bb53a463ff2abe3ea"),
        (1, "8ded4c6e589f2498ca46e47fb7e5c52c01ad74dd0c82c6679a16549421dd4919"),
        (2, "9f4c8a99263ffd43e6e1b43e2f97f6c3caa17cb950030694b17cf86f28655f61"),
        (3, "2bc2977f68ef89cf881c72bb8d55b45a524e32519dff544178c961d6e9f14b9d"),
        (4, "8a5f4f5e6173c8be61fe9f0c430cc434612aeec6677469481f645c8afc9f4e0f"),
        (5, "0a80d9ea5e881654364a3aabe6ba402d5b0995f543f417a0dc7278ee4c0036fd"),
        (6, "c7601f7273ee91879a2d2fd96fe138f9b54d9b96a5d61f0a651f4c0cff85875d"),
        (7, "19231cb8ad2316d154356e9c86c103b43d6ca88e4959d90905495cc2b6a7df55"),
    ])
    def test_chebyshev_digest(self, seed, digest, capsys):
        assert self.digest(seed, capsys, "contraction") == digest


def _squeeze_by(monkeypatch, route):
    """Swap ``route(r, phi, N)``, the coefficients of exp(G)|0>, in for
    ``fock.squeeze_by_exponentiation``, behind the real function's argument
    checks and with its rescaling of a norm a few ulp above 1."""
    real = fock.squeeze_by_exponentiation

    def swapped(r, phi, N):
        real(r, phi, N)  # the same argument checks and errors
        coeffs = route(r, phi, N)
        norm = float(np.linalg.norm(coeffs))
        if norm > 1.0:
            coeffs /= norm
        return fock.DiagonalFockState(coeffs)

    monkeypatch.setattr(fock, "squeeze_by_exponentiation", swapped)


def _mutant(fn, old, new):
    """``fn`` recompiled from its own source with ``old`` replaced by ``new``.

    The fault is one edit of the real code, in a copy of its module's
    namespace, so it follows the code as it changes; ``old`` must occur once.
    """
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1, old
    namespace = dict(vars(inspect.getmodule(fn)))
    exec(compile(source.replace(old, new), inspect.getsourcefile(fn), "exec"), namespace)
    return namespace[fn.__name__]


class TestVerifyMutants:
    """One fault in the program each: verify must exit 1 and print FAIL on its check's line."""

    @pytest.mark.parametrize("name,old,new,check", [
        # A hi table of stride P - 1 puts E_{q(P-1)} where E_{qP} belongs.
        ("_phases", "energies[::side]", "energies[:: side - 1]", "overlap-agreement"),
        # A lo table without the shift drops the gauge from the overlap alone.
        ("_phases", "(energies[:side] + shift)", "energies[:side]", "gauge-invariance"),
        # An integral without the shift drops the gauge from delta alone.
        ("_energy_integrals", "ts[rows] * (energy + shift)", "ts[rows] * energy",
         "gauge-invariance"),
        # delta subtracted from arg<psi(0)|psi(t)> instead of added.
        ("geometric_phase_numeric", "gammas + deltas", "gammas - deltas", "cyclic-gamma"),
        # |c_n|^2 laid out p-major, n = pQ + q, meets hi_q lo_p at the wrong n.
        ("_moments", "moduli.reshape(2, -1, count, side)",
         "moduli.reshape(2, -1, side, count).swapaxes(-1, -2)", "overlap-agreement"),
        # An energy table of |c_n|^2 alone integrates the norm, not <H>.
        ("_moments", "np.multiply(energies, moduli[0", "np.multiply(1.0, moduli[0",
         "dynamical-quadrature"),
        # Odd amplitudes of the opposite sign keep the norm but not the state.
        ("squeeze_by_exponentiation", "-1j * sums[1]", "1j * sums[1]",
         "exponentiation-agreement"),
        # A Chebyshev series cut after about rho / 2 terms loses the norm, and
        # the check, not the run, fails on the broken exponential.
        ("squeeze_by_exponentiation", "int(rho + 12.0 * rho ** (1 / 3))", "int(rho / 2)",
         "exponentiation-agreement"),
        # An entropy in bits, not nats.
        ("entropy_numeric", "np.log(p)", "np.log2(p)", "entropy-numeric-agreement"),
        # cosh r and sinh r swapped in the conjugation rules.
        ("bogoliubov_residual", "cosh_r, sinh_r = math.cosh(r), math.sinh(r)",
         "sinh_r, cosh_r = math.cosh(r), math.sinh(r)", "bogoliubov-identities"),
        # A target rotated by +theta where the conjugation rotates by -theta.
        ("rotation_conjugation_check", "phi + math.atan2(", "phi - math.atan2(",
         "rotation-conjugation"),
    ], ids=["hi-table-stride", "lo-table-unshifted", "integral-unshifted", "delta-subtracted",
            "weights-p-major", "energy-table-no-E", "odd-amplitude-sign", "series-cut-short",
            "entropy-in-bits", "cosh-sinh-swapped", "rotation-sign"])
    def test_fault_fails_its_check(self, name, old, new, check, capsys, monkeypatch):
        monkeypatch.setattr(fock, name, _mutant(getattr(fock, name), old, new))
        assert main(["verify"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert sum(line.startswith(("PASS  ", "FAIL  ")) for line in lines) == 17
        assert [line for line in lines if line.startswith(f"FAIL  {check} ")], lines
        assert lines[-1].startswith("VERDICT: FAIL (")


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

    @pytest.mark.parametrize("values,detail", [
        ([1e-12, math.nan, 2.0], "non-finite sample at sample 1"),
        ([1e-12, math.inf, math.nan], "non-finite sample at sample 1"),
        ([], "no samples"),
    ], ids=["nan", "inf", "empty"])
    def test_probe_check_fails_closed(self, values, detail, capsys, monkeypatch):
        # A check must show evidence to pass: a non-finite sample or no
        # sample at all fails its line, which still prints, and verify exits 1.
        @cli._invariant("probe", 1e-9)
        def probe(accuracy, max_cutoff, rng):
            for k, value in enumerate(values):
                yield value, f"sample {k}"

        monkeypatch.setattr(cli, "_CHECKS", cli._CHECKS + (probe,))
        assert main(["verify"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert len(lines) == 19
        assert lines[17].startswith("FAIL  probe ") and lines[17].endswith(f"[{detail}]")
        assert lines[-1] == "VERDICT: FAIL (17/18 invariants)"

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv", [
        ["sweep", "--variable", "omega_t", "--start", "0", "--stop", "1", "--points", "3",
         "--r", "0.5", "--phi", "1e308"],
        ["decompose", "1", "1e308", "1", "0"],
    ], ids=["sweep", "decompose"])
    def test_phase_angle_beyond_half_dbl_max(self, argv, capsys):
        # 2 phi overflows, but phi is finite and accepted: e^{2i phi} is
        # (e^{i phi})^2, with no warning and no usage error.
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "nan" not in captured.out

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_phase_difference_beyond_dbl_max(self, capsys):
        # phi'' - phi' overflows for these finite angles; e^{i delta} is
        # still formed, and the triple reproduces the product.
        assert main(["decompose", "--", "1", "1e308", "1", "-1e308"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        values = dict(line.split(" = ") for line in captured.out.splitlines())
        assert float(values["reconstruction_residual"]) < 1e-10
        assert main(["decompose", "--", "1", "-1e308", "1", "1e308"]) == 0
        mirrored = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
        assert float(mirrored["Theta"]) == -float(values["Theta"])

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
        # Nor concurrent.futures: the oracle runs in the calling thread alone.
        result = subprocess.run(
            [sys.executable, "-c", "import sys, tmsvphase.cli; "
             "print(sorted(m for m in sys.modules "
             "if m.startswith(('scipy', 'concurrent'))))"],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"

    def test_verify_and_csv_sweep_load_no_json(self):
        # json costs about 3 ms of import, and numpy does not load it; only
        # a JSON sweep may.
        result = subprocess.run(
            [sys.executable, "-c", "import sys\nfrom tmsvphase import cli\n"
             "codes = [cli.main(['verify']), cli.main(['sweep', '--variable', 'r', '--start', "
             "'0', '--stop', '1', '--points', '5'])]\n"
             "print(codes, 'json' in sys.modules, file=sys.stderr)"],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stderr == "[0, 0] False\n"

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

    Each call is recorded by its row count.
    """

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        real = fock._evolution

        def counting(observable, r, *args, **kwargs):
            seen.append(np.size(r))
            return real(observable, r, *args, **kwargs)

        monkeypatch.setattr(fock, "_evolution", counting)
        return seen

    @pytest.mark.parametrize("variable,stop", [("r", 2.0), ("omega_t", TAU)])
    def test_phase_sweep(self, calls, variable, stop):
        cli.sweep_rows(SweepSpec(variable, 0.0, stop, 40))
        assert calls == [40]

    @pytest.mark.parametrize("check,sizes", [
        (cli._overlap_agreement, [5 * 63]),
        # One call per epsilon.
        (cli._dynamical_quadrature, [4 * 5] * 3),
        (cli._gauge_invariance, [3 * 3] * 4),
        (cli._cyclic_total_phase, [5]),
        (cli._cyclic_gamma, [5]),
    ])
    def test_verify_check(self, calls, check, sizes):
        assert check(fock.DEFAULT_MAX_CUTOFF, np.random.default_rng(0)).passed
        assert calls == sizes
