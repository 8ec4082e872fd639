"""Tests for the command line front end."""

import hashlib
import inspect
import json
import math
import os
import random
import re
import subprocess
import sys
import textwrap
import tracemalloc
import types
from pathlib import Path

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
_GAMMA_SWEEP = ["sweep", "--variable", "gamma_c", "--start", "0", "--stop", "6", "--points"]
# The benchmark's sweep-omega_t command.
_BENCH_SWEEP = ["sweep", "--variable", "omega_t", "--start", "0.0", "--stop",
                "6.283185307179586", "--points", "10000", "--r", "2.0", "--phi", "0.3",
                "--epsilon", "0.2"]
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


def _by_row_formats(rows, scales):
    """CSV lines of rows * scales as cmd_sweep writes one chunk: one ``%``
    over the lines' formats from cli._csv_formats."""
    cells = np.array(rows) * np.array(scales) + 0.0
    return "\n".join(cli._csv_formats(cells)) % tuple(cells.ravel().tolist()) + "\n"


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
        got = _by_row_formats([cells], scales)
        assert got.split(",") == _by_format_number([cells], scales).split(",")

    def test_rows_of_mixed_classes(self):
        # One format string per class pattern: rows with different patterns
        # in one chunk must each keep their own.
        rows = [_EDGE_CELLS, _EDGE_CELLS[::-1], [1.0] * len(_EDGE_CELLS), _EDGE_CELLS]
        scales = [_DEG, 1.0] * (len(_EDGE_CELLS) // 2) + [1.0] * (len(_EDGE_CELLS) % 2)
        assert _by_row_formats(rows, scales) == _by_format_number(rows, scales)


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
            dict(variable="r", start=0.0, stop=1.0, points=2.5),
            dict(variable="r", start=0.0, stop=1.0, points=3.0),
            dict(variable="r", start=float("inf"), stop=1.0, points=5),
            dict(variable="omega_t", start=0.0, stop=1.0, points=3,
                 fixed={"omega": 2.0}),
        ],
    )
    def test_rejects_bad_specs(self, kwargs):
        with pytest.raises(ValueError):
            SweepSpec(**kwargs)

    def test_numpy_points_become_an_int(self, capsys):
        # An int, so that a JSON sweep can print its spec.
        spec = SweepSpec("gamma_c", 0.0, 1.0, np.int64(3))
        assert type(spec.points) is int
        assert cmd_sweep(spec, fmt="json") == 0
        assert json.loads(capsys.readouterr().out)["spec"]["points"] == 3

    @pytest.mark.parametrize("spec", [
        SweepSpec("gamma_c", np.float32(0.0), 1.0, 3),
        SweepSpec("omega_t", 0.0, np.float32(1.0), 3, {"r": np.float32(0.5)}),
    ], ids=["bound", "fixed"])
    def test_numpy_floats_become_python_floats(self, spec, capsys):
        # Python floats, so that a JSON sweep can print its spec.
        assert type(spec.start) is type(spec.stop) is float
        assert all(type(value) is float for value in spec.fixed.values())
        assert cmd_sweep(spec, fmt="json") == 0
        printed = json.loads(capsys.readouterr().out)["spec"]
        assert (printed["start"], printed["stop"], printed["fixed"]) == (
            spec.start, spec.stop, spec.fixed)


class TestSweepGammaC:
    @staticmethod
    def run(capsys, points=101):
        spec = SweepSpec("gamma_c", 0.0, TAU, points)
        code = cmd_sweep(spec, fmt="csv")
        return code, capsys.readouterr().out

    def test_figure_endpoints(self, capsys):
        code, text = self.run(capsys)
        assert code == 0
        lines = text.strip().split("\n")
        assert lines[0] == "gamma_c,entropy"
        assert len(lines) == 102  # header + points
        first = lines[1].split(",")
        last = lines[-1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 0.0
        assert abs(float(last[0]) - TAU) < 1e-11
        assert abs(float(last[1]) - ENTROPY_FIG1_END) < 1e-11

    def test_byte_determinism(self, capsys):
        _, first = self.run(capsys)
        _, second = self.run(capsys)
        assert first == second

    def test_curve_is_increasing(self, capsys):
        _, text = self.run(capsys)
        values = [float(line.split(",")[1]) for line in text.strip().split("\n")[1:]]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_negative_grid_is_one_usage_line(self, capsys):
        # The grid's first row is its least: -1 is refused before any output.
        assert main(["sweep", "--variable", "gamma_c", "--start", "-1", "--stop", "6",
                     "--points", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: gamma_c_unreduced must be nonnegative, got -1.0\n"


class TestSweepOmegaT:
    def test_vacuum_has_zero_phase_columns(self, capsys):
        spec = SweepSpec("omega_t", 0.0, TAU, 9, fixed={"r": 0.0})
        assert cmd_sweep(spec) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        header = lines[0].split(",")
        gamma_col = header.index("gamma_mod_2pi")
        numeric_col = header.index("gamma_numeric")
        for line in lines[1:]:
            cells = line.split(",")
            assert float(cells[gamma_col]) == 0.0
            assert float(cells[numeric_col]) == 0.0

    def test_cyclic_point_value(self, capsys):
        spec = SweepSpec("omega_t", 0.0, TAU, 5, fixed={"r": 1.0})
        assert cmd_sweep(spec) == 0
        text = capsys.readouterr().out
        last = text.strip().split("\n")[-1].split(",")
        header = text.split("\n")[0].split(",")
        gamma = float(last[header.index("gamma_mod_2pi")])
        assert abs(gamma - GAMMA_CYCLE_REDUCED) < 1e-9
        assert float(last[header.index("abs_error")]) <= 1e-8

    def test_row_count_and_header(self, capsys):
        spec = SweepSpec("omega_t", 0.0, 1.0, 17, fixed={"r": 0.7})
        cmd_sweep(spec)
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == ("omega_t,re_overlap,im_overlap,total_phase,delta,"
                            "gamma_mod_2pi,gamma_numeric,abs_error")
        assert len(lines) == 18


class TestSweepR:
    def test_columns_and_entropy(self, capsys):
        spec = SweepSpec("r", 0.0, 1.5, 7, fixed={"t": 0.9})
        assert cmd_sweep(spec) == 0
        lines = capsys.readouterr().out.strip().split("\n")
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
    def test_structure_matches_csv_headers(self, capsys):
        spec = SweepSpec("gamma_c", 0.0, TAU, 5)
        assert cmd_sweep(spec, fmt="json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["variable"] == "gamma_c"
        assert payload["spec"]["points"] == 5
        assert len(payload["rows"]) == 5
        assert list(payload["rows"][0].keys()) == ["gamma_c", "entropy"]
        assert abs(payload["rows"][-1]["entropy"] - ENTROPY_FIG1_END) < 1e-11

    @pytest.mark.parametrize("degrees", [False, True], ids=["radians", "degrees"])
    def test_cells_print_as_json_dumps_prints_them(self, degrees, capsys, monkeypatch):
        # The edge cells, -0.0 among them, over a chunk boundary: the bytes
        # of json.dumps(indent=2) over the spec and one dict per row.
        headers = [name for name, _ in cli._COLUMNS["r"]]
        rows = phases._BATCH_ROWS + 1
        table = np.resize(np.array(_EDGE_CELLS), (rows, len(headers)))
        table[:, headers.index("abs_error")] = 0.0
        monkeypatch.setattr(cli, "sweep_rows", lambda spec, max_cutoff: (headers, table))
        spec = SweepSpec("r", 0.0, 1.0, rows, {"t": 0.5})
        assert cmd_sweep(spec, fmt="json", degrees=degrees) == 0
        scales = [_DEG if degrees and angle else 1.0 for _, angle in cli._COLUMNS["r"]]
        payload = {
            "spec": {"variable": "r", "start": 0.0, "stop": 1.0, "points": rows,
                     "fixed": {"t": 0.5}, "degrees": degrees},
            "rows": [dict(zip(headers, row)) for row in (table * scales).tolist()],
        }
        assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"

    def test_unknown_format_is_refused_before_the_grid(self, capsys, monkeypatch):
        def refuse(spec, max_cutoff):
            raise AssertionError("sweep_rows ran")

        monkeypatch.setattr(cli, "sweep_rows", refuse)
        with pytest.raises(ValueError, match="csv or json, got 'xml'"):
            cmd_sweep(SweepSpec("gamma_c", 0.0, 1.0, 3), fmt="xml")
        assert capsys.readouterr().out == ""

    def test_peak_is_the_table_plus_one_chunk(self, monkeypatch):
        # Over what sweep_rows peaks at (its columns, its table and the
        # oracle), the writer holds one chunk of _BATCH_ROWS rows: per cell,
        # 8 B of scaled cell, a Python float and its list slot (32 B), a
        # tuple slot (8 B), its part of the row format (at most 32
        # characters, for the longest header) and of the text (at most 56,
        # the same with a 24-character repr), 136 B in all.
        argv = ["sweep", "--variable", "r", "--start", "0", "--stop", "3.1",
                "--points", "10000", "--format", "json"]
        spec = SweepSpec("r", 0.0, 3.1, 10_000)
        bound = 136 * phases._BATCH_ROWS * len(cli._COLUMNS["r"])
        with open(os.devnull, "w") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            assert main(argv) == 0  # first-call caches and the json import
            peaks = []
            for run in (lambda: cli.sweep_rows(spec), lambda: main(argv)):
                tracemalloc.start()
                try:
                    run()
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        table_peak, sweep_peak = peaks
        assert sweep_peak <= table_peak + bound


class TestSweepGoldenBytes:
    """sha256 of sweep stdout, recorded once the moduli became one real table.

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
    (9.593890127e-10 to 9.593872363e-10).  They were re-recorded when the
    oracle's moduli became one real log-domain table (``fock._moduli``):
    again only ``gamma_numeric`` and ``abs_error`` moved, each
    ``gamma_numeric`` by at most 1.37 cond eps (omega_t, 499/500), 4.35
    (r, 41/50), 21.27 (r-wide, 177/200) and 1.31 (r-dense, 6723/10^4).  Of
    the 20 largest moves of each grid, all 100 came closer to a 40-digit
    mpmath sum of the same truncated series.  They were re-recorded when
    each oracle row ran at P Q - 1, the largest cutoff its phase tables
    hold: only ``gamma_numeric`` and ``abs_error`` moved, each
    ``gamma_numeric`` by at most 7.2e-10 (omega_t, 464/500), 8.2e-10 (r,
    41/50), 8.8e-10 (r-wide, 172/200) and 9.7e-10 (r-dense, 7299/10^4),
    every one closer to the closed form; the largest ``abs_error`` fell on
    omega_t (9.933103229e-10 to 9.780478649e-10) and r-wide
    (9.672476153e-10 to 9.559784075e-10) and held on r and r-dense.
    Recorded with numpy 2.4 on x86-64 Linux, whose 64-bit long double
    carries log tanh r.
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
    # JSON across chunk boundaries: 2500 rows end in a part chunk, and 2049
    # rows in a one-row chunk.  Recorded while JSON rows were still dicts
    # of Python floats given whole to json.dumps(indent=2).
    GAMMA_C_WIDE = ["sweep", "--variable", "gamma_c", "--start", "0", "--stop", "50",
                    "--points", "2500", "--format", "json", "--degrees"]
    OMEGA_T_CHUNKS = OMEGA_T[:8] + ["2049"] + OMEGA_T[9:] + ["--format", "json"]

    OMEGA_T_DIGEST = "18e55540c36748c295ea1ed8a86a4c963c6ca2ecfeddd980989a6f50ad0b6ab9"
    R_DENSE_DIGEST = "05f01bee1e859c11cfb2b1ceb5622f9ab9572c608ab8f5382b03d79cb19a28a0"

    @pytest.mark.parametrize("argv,digest", [
        (OMEGA_T, OMEGA_T_DIGEST),
        (OMEGA_T + ["--format", "json"],
         "61119687e40a36eaf2b55a8fac8698884ce25061fc103c563309b12612225831"),
        (R, "a29b9ff0db0d9817bbfcd23fca01f8d3ba5dc3300f81cb6a4f5d798d554602d7"),
        (OMEGA_T + ["--degrees"],
         "3f8dee5bae7f113af41841f5ea567c6e4d300eed0283002792e58e5e98cf0fbe"),
        (R + ["--format", "json"],
         "342325237c6b4a700c535640dbfdfac33b01fe73bb1996bbf59d2b89acad441a"),
        (R_WIDE, "647dd6d1e8d66ccca2d4e239e32ace17dc2bce54fee92a35d7ed2d1f75533c98"),
        (R_DENSE, R_DENSE_DIGEST),
        (GAMMA_C_WIDE, "7495df7421b1722148472790d6b5506145bff934279ff75eb7f24ee6a7cadcc7"),
        (OMEGA_T_CHUNKS, "20237b2bac5479a1a1ed4f8958a63e6ed3b437e9d71a00284bf177422ac50ca0"),
    ], ids=["omega_t-csv", "omega_t-json", "r-csv", "omega_t-degrees", "r-json", "r-wide",
            "r-dense", "gamma_c-json-chunks", "omega_t-json-chunks"])
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
    # Two chunks of r in [-1e-160, 1e-160], r = 0 the middle row: sinh^2 r
    # is subnormal (or rounds to 0) on every row, which takes _entropy's own
    # branches.
    TINY_R = SweepSpec("r", -1e-160, 1e-160, 1025, {"phi": 0.7, "epsilon": 0.3})
    GAMMA_C = SweepSpec("gamma_c", 0.0, 50.0, 1500)

    @pytest.mark.parametrize("spec", [OMEGA_T, R, TINY_R, GAMMA_C],
                             ids=["omega_t", "r", "tiny-r", "gamma_c"])
    def test_closed_forms_are_geometric_phase_fields(self, spec):
        # Bit for bit, signed zeros included: the closed-form columns are
        # what the scalar API gives row by row.
        headers, table = cli.sweep_rows(spec)
        assert table.dtype == np.float64
        assert table.shape == (spec.points, len(headers))
        expected = []
        for row in table.tolist():
            if spec.variable == "gamma_c":
                expected.append([row[0], phases.entropy_from_cyclic_phase(row[0])])
                continue
            r, t = (2.0, row[0] / 1.0) if spec.variable == "omega_t" else (row[0], 1.0)
            b = phases.geometric_phase(r, 1.0, t)
            cells = [row[0], b.overlap.real, b.overlap.imag, b.total_phase,
                     b.dynamical_term_delta, b.geometric_phase, row[6],
                     cli.circle_distance(row[6], b.geometric_phase)]
            if spec.variable == "r":
                cells += [*phases.cyclic_geometric_phase(r), phases.entropy_from_squeeze(r)]
            expected.append(cells)
        assert table.tobytes() == np.array(expected).tobytes()

    def test_tiny_r_grid_reaches_its_edge_cases(self):
        grid = np.linspace(self.TINY_R.start, self.TINY_R.stop, self.TINY_R.points)
        assert grid.size > phases._BATCH_ROWS
        assert grid[512] == 0.0 and grid[0] < 0.0
        sinh2 = np.sinh(grid) ** 2
        assert 0.0 < sinh2[0] < sys.float_info.min

    # More rows than one chunk holds, so a chunk boundary falls inside each.
    @pytest.mark.parametrize("spec", [
        SweepSpec("omega_t", 0.0, TAU, 1500, {"r": 1.3, "phi": 0.7, "epsilon": 0.3}),
        SweepSpec("r", 0.0, 1.0, 1100, {"phi": 0.7, "t": 0.9}),
    ], ids=["omega_t", "r"])
    @pytest.mark.parametrize("degrees", [False, True], ids=["radians", "degrees"])
    def test_multi_chunk_table_prints_format_number_cells(self, spec, degrees, capsys,
                                                          monkeypatch):
        assert spec.points > phases._BATCH_ROWS
        real, tables = cli.sweep_rows, []

        def recording(*args):
            tables.append(real(*args))
            return tables[-1]

        monkeypatch.setattr(cli, "sweep_rows", recording)
        assert cmd_sweep(spec, degrees=degrees) == 0
        (headers, table), = tables
        scales = [_DEG if degrees and angle else 1.0 for _, angle in cli._COLUMNS[spec.variable]]
        want = ",".join(headers) + "\n" + _by_format_number(table.tolist(), scales)
        assert capsys.readouterr().out == want


def _evolved_rows(phase_table):
    """A ``fock._moments`` that runs the kernel the grid ran before it
    contracted tables: evolved rows |c_n| phase_n, with the phases of
    ``phase_table(energies, ts, shift)``, their |.|^2 summed along each
    row, and np.vecdot for the overlap."""
    def moments(moduli, energies, ts, shift):
        evolved = moduli * phase_table(energies, ts, shift)
        energy = (energies * moduli ** 2).sum(axis=-1)
        return energy, (np.abs(evolved) ** 2).sum(axis=-1), np.vecdot(moduli, evolved)

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
    monkeypatch.setattr(fock, "_phases", lambda energies, ts, shift: (
        _literal_exponentials(energies, ts, shift), np.ones((*ts.shape, 1))))
    monkeypatch.setattr(fock, "_moments", _evolved_rows(_literal_exponentials))
    monkeypatch.setattr(fock, "_unit_powers", lambda angle, counts: np.exp(-1j * angle * counts))


_SEEDS = [str(seed) for seed in range(8)]


class TestVerifyGoldenBytes:
    """sha256 of verify stdout, pinned five times; each test is named by its seed.

    ``test_chebyshev_digest`` holds verify as it runs.  The other four hold
    verify with older routes swapped back in, so every line those routes do
    not reach must still print as it runs.  ``test_contraction_digest``
    takes the SVD of the even-to-odd block (``_svd_squeeze``) for the
    squeeze exponential; ``test_digest`` takes that SVD and forms evolved
    rows from the square-root phase tables (``_evolved_rows``);
    ``test_svd_digest`` takes it with the literal exponentials of
    ``_literal_phases``; ``test_stdout_digest`` takes those exponentials
    and the dense eigh of the whole tridiagonal generator
    (``_eigh_squeeze``).  The worst values carry 12 significant digits, so
    these pin the oracle's overlaps and integrals to the bit.

    Each change of route moved these lines, the same for every seed: the
    SVD exponentiation-agreement by 3.5e-17, and the Chebyshev series that
    line again, 9.37496221803e-12 to 9.37497402834e-12; the square-root
    phase tables four lines and their contraction against |c_n|^2 tables
    three; delta = t <H>_0 two, gauge-invariance 7.10542735760e-15 to
    3.55271367880e-15 and dynamical-quadrature, which lost its step count.
    All five were re-recorded when the oracle's moduli became one real
    log-domain table (``fock._moduli``) instead of complex power rows; as
    verify runs, six lines moved: geometric-phase-agreement
    9.93750859379e-10 to 9.93829019080e-10, dynamical-quadrature
    9.91118298543e-12 to 9.91207116385e-12, gauge-invariance
    3.55271367880e-15 to 7.10542735760e-15, evolution-reparameterization
    8.05845509126e-15 to 7.83794063298e-15, cyclic-gamma 9.30242549657e-11
    to 9.33368937694e-11 and entropy-numeric-agreement 9.98134908059e-12 to
    9.98268134822e-12.  All five were re-recorded when su11-closure and
    su11-reconstruction drew their samples from the stdlib's
    ``random.Random(seed)`` instead of numpy's PCG64, and the first sample
    began to set a check's worst; for every seed and route three lines
    moved: those two checks (worst and detail) and the one-mode-additivity
    detail, ``[]`` to ``[r=0]``.  All five were re-recorded when the three
    SU(1,1) checks became array calls into ``su11``'s elementwise kernels,
    whose numpy cosh, sinh, arcsinh, arctan2 and complex products round
    differently from libm and Python in the last bit; for every seed and
    route only those three lines moved, each at rounding level: at seed 0
    su11-closure 1.08619014573e-12 to 4.94267028077e-13, su11-reconstruction
    1.34064935254e-13 to 1.17185710042e-13, and at every seed
    su11-matrix-consistency 7.10542735760e-15 to 8.88178419700e-15, its
    detail omega_t=0.8107 to 2.534; over seeds 0-7 the largest closure worst
    is now 8.10e-11 (bound 1e-9) and the largest reconstruction worst
    1.59e-13 (bound 1e-10).  All five were re-recorded when each oracle row
    ran at P Q - 1, the largest cutoff its phase tables hold; for every
    seed and route five lines moved, as verify runs: overlap-agreement
    9.67289581766e-11 to 4.89743801097e-11, geometric-phase-agreement
    9.93829019080e-10 to 9.70288738245e-10, dynamical-quadrature
    9.91207116385e-12 to 9.91073889622e-12, cyclic-gamma 9.33368937694e-11
    to 7.25695059600e-11, and cyclic-total-phase 1.11993155728e-14 to
    1.11993155740e-14 (its samples took epsilon = 0.37 then, which moves
    no bit).  Recorded with numpy 2.4 on x86-64 Linux,
    whose 64-bit long double carries log tanh r, on one CPU and on two, with
    OPENBLAS_NUM_THREADS 1 and 2.
    """

    @staticmethod
    def digest(seed, capsys):
        assert main(["verify", "--seed", str(seed)]) == 0
        return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()

    @pytest.mark.parametrize("seed,digest", enumerate([
        "611e0f8225229c270d188b673695cedf0e30ed322572bc09a65e3aae5ead2450",
        "7cf224c60bbdf7d1cfae5ee8fe501b3fec35e7afff349789279b9f6bb3d77d87",
        "1fa288bcbc4f377944c5e372994849ead467b9cac19739e19ecaa656a5970cf0",
        "c35f6ec8d3b545483ffffc7b6c285ec629ea3f841953f4fccb74089e5efaeea4",
        "e5812e70124a11db0478b81d064bd5e4831101d3077476282ac0997c3c7ddeb6",
        "585560aabfd103b445c6b46b248ce08dcdbb28968095f06dbf0bd748dedf329c",
        "85dfd74fa3a0af899ed2447bf45f9bbbe63b5ba8710fe7e07a57a4aeb592c998",
        "6b1d46c6702341dfa001f48db800ea76c50d8b119f70dfe5dfabb463d1fa4f70",
    ]), ids=_SEEDS)
    def test_digest(self, seed, digest, capsys, monkeypatch):
        _squeeze_by(monkeypatch, _svd_squeeze)
        monkeypatch.setattr(fock, "_moments", _evolved_rows(_phase_table))
        assert self.digest(seed, capsys) == digest

    @pytest.mark.parametrize("seed,digest", enumerate([
        "dace0e24ddf29f392b864b72a950336a02b01a58aacd5fd6ee9a07bcccbfe892",
        "3d53fb5309267f6cb160a09c19e17c868eb2ec5fd1170f6a284c19b67f56959a",
        "860e2a15ae57e4921b132a59798d2c78dc1d2a70a46741fca770ce6ab2e8517d",
        "f7f5b1d9193f9d1c92ff7d419aea6135181b7f4203df6f97208c24283314f62e",
        "3ce5fed11ab3db523688a72e19c444b46961640904bbe55131daf64dd405da86",
        "b2cfb95dd111087e1f9e91e994f9a22a9ac2838ca5d63742ee6ea9ce8caf49de",
        "dd5fb8ac7111dfc06645ae74fda55b3df1e3f6ee1628f7fd8fd4e428be832a5b",
        "5c52517f2cfee956459e0a358c7aeb7c9c20c5a2e612446c475e6e058ea9a428",
    ]), ids=_SEEDS)
    def test_contraction_digest(self, seed, digest, capsys, monkeypatch):
        _squeeze_by(monkeypatch, _svd_squeeze)
        assert self.digest(seed, capsys) == digest

    @pytest.mark.parametrize("seed,digest", enumerate([
        "8543c62ddbcde24a778fad038c9954e92cd06cf737b9abb75ef9ae087cb82db2",
        "8a8582057a618eb7d488d63bcc5eb4ff90f59769586eed38a64d437c00ff067f",
        "4fb8a9f23b4c5cb6f5829a5d0c5d880fba1978ef96a5e21320862c5f501f762e",
        "1e870e84aa8e9db2fd9ad2d536edd59e2257063f7f5ebbe44f736e96f0afd3d5",
        "d789618483128edfde586afae12e9bbb1da9d69f3d4dd5cf4223910395411fc8",
        "5d54791e879e54843bd49b0061c8cf29e70bd7693e20e4a756ae955a3f64a5b5",
        "cfaca7e838c5f7412478aa7bec5f246309da8240792dd6bb4e2f87d79b4a8603",
        "e6ea75042942c0fd30c24791d918a793b158100ab702b9378dbb51a9aee3fcd1",
    ]), ids=_SEEDS)
    def test_stdout_digest(self, seed, digest, capsys, monkeypatch):
        _squeeze_by(monkeypatch, _eigh_squeeze)
        _literal_phases(monkeypatch)
        assert self.digest(seed, capsys) == digest

    @pytest.mark.parametrize("seed,digest", enumerate([
        "80c05edad19aaced69e8180252c4cbed81edc6870816ee56287ac50c4787eea8",
        "ae1dff1fec76dd212b6865205f4ee1b655702f331fc148bd9085b3a32d6560fd",
        "4183e2c8977dd022bb45f799969e54d7a3eabb4faeeece2b4f16055b17649eba",
        "58e3436215d0bf44d77a1708f785f571e88e0f5684f0c52d6cb7fc3b5a240c31",
        "0ed228fc15bddbee2301abc602abf58351771638ad43762cc58793484a2e9204",
        "c9119c946f8833a7bb689a685b801045d69f736e917320db94414ba0ad76758e",
        "d3038eb8441a6500e6ed8e5b51b24b42e64c7a0f2c43e4fd9f01017042b539c4",
        "39e305fea803c072059d4eef5a01c2e1cecd55e76d698b1367b0e95949a29e1d",
    ]), ids=_SEEDS)
    def test_svd_digest(self, seed, digest, capsys, monkeypatch):
        _squeeze_by(monkeypatch, _svd_squeeze)
        _literal_phases(monkeypatch)
        assert self.digest(seed, capsys) == digest

    @pytest.mark.parametrize("seed,digest", enumerate([
        "e055e51a1cf4a75d4f66152cd47b73783a4535d4753ab6cfdab71259181bd01e",
        "c42264d0e6a27b4e4261528c25a21c0a9fce0210261eab56c93ab251df99b1df",
        "f0ad99bb80563090c1dcb20a1f9742bfccaa2d685028c3eaa558951d8296ebb9",
        "f1f15ee9718b5b2c1d1319215e27aab27fafcce5e2ecc555e962f4cb506e8281",
        "2fb999e21df96cb2a950af7467f325e6fcc01921998bbfd567f0a6f478d73399",
        "386c74d522bed876da08d5805b30c07e70c89fc919698952fd4a8e674d038fb2",
        "e209f267da4cb5d80a9022de0710794caa3b92f149dfa9162efc17e90172e31f",
        "fe51597c44b7eadaae2dcc34dfa6c9709405b7536efbbc3f84ccdf80ea074d38",
    ]), ids=_SEEDS)
    def test_chebyshev_digest(self, seed, digest, capsys):
        assert self.digest(seed, capsys) == digest


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


# One fault in the program each, by test ID: (module, function, old text,
# new text, the exact set of checks verify must then FAIL, space-separated).
_FAULTS = {
    # A hi table of stride P - 1 puts E_{q(P-1)} where E_{qP} belongs.
    "hi-table-stride": (fock, "_phases", "energies[::side]", "energies[:: side - 1]",
                        "overlap-agreement geometric-phase-agreement "
                        "evolution-reparameterization"),
    # A lo table without the shift drops the gauge from the overlap alone.
    "lo-table-unshifted": (fock, "_phases", "(energies[:side] + shift)", "energies[:side]",
                           "gauge-invariance"),
    # An integral without the shift drops the gauge from delta alone.
    "integral-unshifted": (fock, "_energy_integrals", "ts[rows] * (energy + shift)",
                           "ts[rows] * energy", "gauge-invariance"),
    # delta subtracted from arg<psi(0)|psi(t)> instead of added.
    "delta-subtracted": (fock, "geometric_phase_numeric", "gammas + deltas", "gammas - deltas",
                         "geometric-phase-agreement gauge-invariance cyclic-gamma"),
    # |c_n|^2 laid out p-major, n = pQ + q, meets hi_q lo_p at the wrong n.
    "weights-p-major": (fock, "_moments", "tables.reshape(2, -1, count, side)",
                        "tables.reshape(2, -1, side, count).swapaxes(-1, -2)",
                        "overlap-agreement geometric-phase-agreement"),
    # epsilon n for epsilon (n - n): the energies of |n>|n> no longer cancel
    # epsilon, so a state at Omega t = 2 pi with epsilon != 0 does not return.
    "energies-epsilon-n": (fock, "_energies", "h.epsilon * (n - n)", "h.epsilon * n",
                           "overlap-agreement geometric-phase-agreement dynamical-quadrature "
                           "evolution-reparameterization cyclic-total-phase"),
    # An energy table of |c_n|^2 alone integrates the norm, not <H>.
    "energy-table-no-E": (fock, "_moments", "np.multiply(energies, tables[0",
                          "np.multiply(1.0, tables[0",
                          "geometric-phase-agreement dynamical-quadrature cyclic-gamma"),
    # tanh r read as 1 - 2 / (e^r + 1) above r = 0.5: every |c_n| shrinks, so
    # no state over-normalizes, but the oracle's overlaps go wrong.
    "moduli-half-exponent": (fock, "_log_tanh", "np.exp(2.0 * r)", "np.exp(r)",
                             "overlap-agreement geometric-phase-agreement dynamical-quadrature "
                             "exponentiation-agreement cyclic-gamma entropy-numeric-agreement"),
    # Odd amplitudes of the opposite sign keep the norm but not the state.
    "odd-amplitude-sign": (fock, "squeeze_by_exponentiation", "-1j * b[1, 2:-1:2]",
                           "1j * b[1, 2:-1:2]", "exponentiation-agreement"),
    # A Chebyshev series cut after about rho / 2 terms loses the norm, and
    # the check, not the run, fails on the broken exponential.
    "series-cut-short": (fock, "squeeze_by_exponentiation", "int(rho + 12.0 * rho ** (1 / 3))",
                         "int(rho / 2)", "exponentiation-agreement"),
    # An entropy in bits, not nats.
    "entropy-in-bits": (fock, "entropy_numeric", "np.log(p)", "np.log2(p)",
                        "entropy-numeric-agreement"),
    # cosh r and sinh r swapped in the conjugation rules.
    "cosh-sinh-swapped": (fock, "bogoliubov_residual",
                          "cosh_r, sinh_r = math.cosh(r), math.sinh(r)",
                          "sinh_r, cosh_r = math.cosh(r), math.sinh(r)", "bogoliubov-identities"),
    # A target rotated by +theta where the conjugation rotates by -theta.
    "rotation-sign": (fock, "rotation_conjugation_check", "phi + math.atan2(",
                      "phi - math.atan2(", "rotation-conjugation"),
    # Theta of the opposite sign: the rebuilt product misses the real one.
    "theta-sign": (su11, "_decompose", "theta = np.arctan2(", "theta = -np.arctan2(",
                   "su11-reconstruction"),
    # cosh r for cosh 2r in the closed-form total phase factor.
    "total-phase-cosh-r": (phases, "total_phase_factor", "math.cosh(2.0 * r)", "math.cosh(r)",
                           "su11-matrix-consistency"),
    # x = gamma_c / 2 pi, twice sinh^2 r, moves the entropy curve off S(r).
    "entropy-twice-x": (phases, "_cyclic_entropy", "g / (2.0 * TAU)", "g / TAU",
                        "entropy-identity entropy-curve"),
}


class TestVerifyMutants:
    """One fault in the program each: verify must exit 1 and FAIL exactly its checks."""

    @pytest.mark.parametrize("module,name,old,new,checks", _FAULTS.values(), ids=_FAULTS)
    def test_fault_fails_its_check(self, module, name, old, new, checks, capsys, monkeypatch):
        monkeypatch.setattr(module, name, _mutant(getattr(module, name), old, new))
        assert main(["verify"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert sum(line.startswith(("PASS  ", "FAIL  ")) for line in lines) == 17
        failed = {line.split()[1] for line in lines if line.startswith("FAIL  ")}
        assert failed == set(checks.split()), lines
        assert lines[-1].startswith("VERDICT: FAIL (")

    def test_every_check_outside_blind_has_a_fault(self):
        # The ratchet: a check no fault of _FAULTS fails (su11-closure has
        # test_drifting_su11_chain_fails_its_check) must be named here, so a
        # new check without a fault fails this test.  BLIND may only shrink.
        BLIND = {"one-mode-additivity"}
        names = [result.name for result in cli.run_invariant_suite()]
        assert len(set(names)) == len(names) == 17
        faulted = {check for *_, checks in _FAULTS.values() for check in checks.split()}
        assert set(names) - faulted - {"su11-closure"} == BLIND


class TestSu11BulkDraws:
    """su11-closure and su11-reconstruction draw their samples in bulk.

    Each draws one float64 array from the stdlib generator and hands it to
    the su11 kernels in one call.  The arrays must hold, bit for bit, what
    a loop of scalar ``random.Random(seed).uniform`` draws gives, r before
    phi, and the generator must end where that loop leaves it.
    """

    @staticmethod
    def recorded_calls(monkeypatch, name):
        seen = []
        real = getattr(su11, name)

        def recording(*args):
            seen.append(args)
            return real(*args)

        monkeypatch.setattr(su11, name, recording)
        return seen

    @pytest.mark.parametrize("seed", range(8))
    def test_closure(self, seed, monkeypatch):
        seen = self.recorded_calls(monkeypatch, "_c_pair")
        rng = random.Random(seed)
        assert cli._su11_closure(fock.DEFAULT_MAX_CUTOFF, rng).passed
        scalar = random.Random(seed)
        # 60 chains of 100 steps, chain by chain; the check takes each step's
        # 60 factors as one row, a few steps per call.
        expected = np.array([
            [(scalar.uniform(-3, 3), scalar.uniform(-math.pi, math.pi)) for _ in range(100)]
            for _ in range(60)
        ]).transpose(2, 1, 0)
        r, phi = (np.concatenate([args[j] for args in seen]) for j in (0, 1))
        assert r.tobytes() == expected[0].tobytes()
        assert phi.tobytes() == expected[1].tobytes()
        assert rng.getstate() == scalar.getstate()

    @pytest.mark.parametrize("seed", range(8))
    def test_reconstruction(self, seed, monkeypatch):
        seen = self.recorded_calls(monkeypatch, "_decompose")
        rng = random.Random(seed)
        assert cli._su11_reconstruction(fock.DEFAULT_MAX_CUTOFF, rng).passed
        scalar = random.Random(seed)
        expected = np.array([
            (scalar.uniform(-3, 3), scalar.uniform(-math.pi, math.pi),
             scalar.uniform(-3, 3), scalar.uniform(-math.pi, math.pi))
            for _ in range(1000)
        ]).T
        [args] = seen
        assert [np.asarray(a).tobytes() for a in args] == [e.tobytes() for e in expected]
        assert rng.getstate() == scalar.getstate()


class TestDecomposeCommand:
    @staticmethod
    def run(capsys, prime, dbl, degrees=False):
        code = cmd_decompose(prime, dbl, degrees=degrees)
        lines = capsys.readouterr().out.strip().split("\n")
        values = dict(line.split(" = ") for line in lines)
        return code, values

    def test_equal_params_degenerate(self, capsys):
        code, values = self.run(capsys, SqueezeParams(1.0, 0.3), SqueezeParams(1.0, 0.3))
        assert code == 0
        assert values["R"] == "0"
        assert values["degenerate_phase"] == "true"

    def test_half_pi_example(self, capsys):
        code, values = self.run(
            capsys, SqueezeParams(1.0, 0.0), SqueezeParams(1.0, -math.pi / 2)
        )
        assert code == 0
        assert abs(float(values["R"]) - 2.0) < 1e-11
        assert abs(float(values["Theta"])) < 1e-11
        assert float(values["reconstruction_residual"]) < 1e-10
        assert values["degenerate_phase"] == "false"

    def test_quarter_pi_example(self, capsys):
        _, values = self.run(capsys, SqueezeParams(1.0, 0.0), SqueezeParams(1.0, -math.pi / 4))
        assert abs(float(values["Theta"]) - 0.5256029929681379) < 1e-11

    def test_residual_floor_grows_like_cosh_R(self, capsys):
        # The residual is an absolute entry gap: here sinh 40 sin(fl(pi)),
        # from e^{i(2 Phi - Theta)} at Phi = pi / 2, about 14.4 but 0.55 eps
        # of cosh R, for a correct factorization.
        assert main(["decompose", "20", "0", "-20", "0"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        values = dict(line.split(" = ") for line in captured.out.strip().split("\n"))
        assert values["R"] == "40"
        residual = float(values["reconstruction_residual"])
        assert residual / math.cosh(40.0) <= 4 * sys.float_info.epsilon

    def test_degrees_display_only(self, capsys):
        _, radians = self.run(capsys, SqueezeParams(1.0, 0.0), SqueezeParams(1.0, -math.pi / 4))
        _, degrees = self.run(
            capsys, SqueezeParams(1.0, 0.0), SqueezeParams(1.0, -math.pi / 4), degrees=True
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

    def test_negative_seed_is_usage_error(self, capsys):
        # random.Random would seed with abs(seed) and print seed 1's table.
        assert main(["verify", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: seed must be a non-negative integer, got -1\n"

    @pytest.mark.parametrize("seed", [1.0, "1"])
    def test_suite_refuses_non_int_seeds(self, seed):
        # random.Random would hash them.
        with pytest.raises(ValueError, match="non-negative integer"):
            cli.run_invariant_suite(seed)

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
            yield np.array(values, dtype=np.float64), "sample {}".format

        monkeypatch.setattr(cli, "_CHECKS", cli._CHECKS + (probe,))
        assert main(["verify"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert len(lines) == 19
        assert lines[17].startswith("FAIL  probe ") and lines[17].endswith(f"[{detail}]")
        assert lines[-1] == "VERDICT: FAIL (17/18 invariants)"

    def test_all_zero_probe_names_its_first_sample(self, capsys, monkeypatch):
        # A worst of 0 is the first sample's, so the line names where it is.
        @cli._invariant("probe", 0.0)
        def probe(accuracy, max_cutoff, rng):
            yield np.zeros(3), "sample {}".format

        monkeypatch.setattr(cli, "_CHECKS", cli._CHECKS + (probe,))
        assert main(["verify"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[17].startswith("PASS  probe ") and lines[17].endswith("[sample 0]")
        assert lines[-1] == "VERDICT: PASS (18/18 invariants)"

    @pytest.mark.parametrize("blocks,worst,detail", [
        # One block: its inf comes before its nan, and the inf is kept.
        ([[1e-12, math.inf, math.nan, 2.0]], math.inf, "non-finite sample at block 0 sample 1"),
        # A finite block, then a nan in a later block: the nan is the worst.
        ([[1e-12, 3e-12], [1e-13, math.nan]], math.nan, "non-finite sample at block 1 sample 1"),
        # Equal maxima, in one block and across blocks: the first is named.
        ([[1e-12, 5e-12, 5e-12], [], [5e-12]], 5e-12, "block 0 sample 1"),
        # An empty block is no sample.
        ([[]], 0.0, "no samples"),
    ], ids=["inf-before-nan", "nan-in-later-block", "equal-maxima", "empty-block"])
    def test_block_samples_keep_the_reduction_rule(self, blocks, worst, detail):
        # A block is (values, describe); describe is called for the worst alone.
        described = []

        def describe(block, i):
            described.append((block, i))
            return f"block {block} sample {i}"

        @cli._invariant("probe", 1e-9)
        def probe(accuracy, max_cutoff, rng):
            for k, values in enumerate(blocks):
                yield np.array(values, dtype=np.float64), lambda i, k=k: describe(k, i)

        result = probe(fock.DEFAULT_MAX_CUTOFF, None)
        assert (result.detail, result.passed) == (detail, detail == "block 0 sample 1")
        assert result.worst == worst or math.isnan(worst) and math.isnan(result.worst)
        assert len(described) == (detail != "no samples")

    @pytest.fixture
    def dipping_curve(self, monkeypatch):
        # Both endpoints stay within 2e-16 of S: only the slope condition fails.
        real = phases.entropy_from_cyclic_phase
        monkeypatch.setattr(phases, "entropy_from_cyclic_phase",
                            lambda g: real(g) - 0.5 * math.sin(g))

    def test_entropy_curve_fails_on_a_dip_alone(self, dipping_curve):
        result = cli._entropy_curve(fock.DEFAULT_MAX_CUTOFF, random.Random(0))
        assert not result.passed
        assert "min slope -2.595e-03" in result.detail

    def test_entropy_curve_dip_is_its_worst(self, dipping_curve, capsys):
        # A step that does not rise is a sample of 1, so the FAIL line's
        # worst, not a hidden condition, explains the verdict.
        assert main(["verify"]) == 1
        line = capsys.readouterr().out.splitlines()[16]
        assert line.split()[:6] == [
            "FAIL", "entropy-curve", "worst", "1", "bound", format_number(1e-12)]

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

    @pytest.mark.parametrize("flag,key", [
        ("--r=nan", "r"), ("--omega=inf", "Omega"), ("--t=-inf", "t"), ("--epsilon=nan", "epsilon"),
    ])
    def test_non_finite_fixed_value_is_one_usage_line(self, flag, key, capsys):
        # SweepSpec refuses it before the grid, so nothing reaches stdout.
        variable = "r" if key == "t" else "omega_t"
        assert main(["sweep", "--variable", variable, "--start", "0", "--stop", "1",
                     "--points", "3", flag]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: fixed parameter {key} must be finite\n"

    def test_oracle_gap_above_the_bound_prints_the_table_and_exits_one(self, capsys,
                                                                       monkeypatch):
        # The sweep's own gate: an oracle 2e-8 off still prints every row,
        # then one stderr line names the worst gap, and the exit code is 1.
        argv = ["sweep", "--variable", "omega_t", "--start", "0", "--stop", "1",
                "--points", "7", "--r", "0.5"]
        assert main(argv) == 0
        plain = capsys.readouterr().out.splitlines()
        real = fock.geometric_phase_numeric
        monkeypatch.setattr(fock, "geometric_phase_numeric",
                            lambda *args, **kwargs: real(*args, **kwargs) + 2e-8)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert re.fullmatch(r"analytic/oracle phase gap 2\.\d{3}e-08 exceeds 1\.0e-08\n",
                            captured.err)
        lines = captured.out.splitlines()
        assert len(lines) == len(plain) == 8 and lines[0] == plain[0]
        # The closed-form cells are the plain run's; only the oracle's moved.
        numeric = plain[0].split(",").index("gamma_numeric")
        for line, before in zip(lines[1:], plain[1:]):
            assert line.split(",")[:numeric] == before.split(",")[:numeric]
            assert 1.9e-8 < float(line.split(",")[-1]) < 2.1e-8

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
        assert cmd_sweep(SweepSpec("gamma_c", 0.0, 1.0, 2)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "non-finite value in column entropy\n"

    def test_squeeze_beyond_cutoff_reach_is_resource_error(self, capsys):
        argv = ["sweep", "--variable", "omega_t", "--start", "0", "--points", "3",
                "--r", "19.5"]
        # cond eps reaches about 190 at Omega t = 0.5.
        assert main(argv + ["--stop", "1"]) == 3
        assert capsys.readouterr().err.startswith("PRECISION_EXCEEDED: ")
        # cond is about 1: the gate passes and tanh r rounds to 1.
        assert main(argv + ["--stop", "1e-30"]) == 3
        assert capsys.readouterr().err.startswith("CUTOFF_EXCEEDED: ")

    @pytest.mark.parametrize("argv", [
        ["sweep", "--variable", "omega_t", "--start", "0", "--stop", "1", "--points", "3",
         "--r", "21"],
        ["sweep", "--variable", "omega_t", "--start", "0", "--stop", "1e-30", "--points", "3",
         "--r", "21"],
        ["sweep", "--variable", "r", "--start", "0", "--stop", "1000", "--points", "3"],
        ["sweep", "--variable", "r", "--start", "0", "--stop", "1000", "--points", "3",
         "--t", "0"],
        ["decompose", "21", "0", "0", "0"],
    ], ids=["omega_t", "omega_t-tiny-t", "r", "r-t0", "decompose"])
    def test_squeeze_beyond_r_max_is_a_usage_error_at_any_t(self, argv, capsys, monkeypatch):
        # |r| > R_MAX is refused before the precision gate, whose cond would
        # otherwise call it a resource limit wherever t is not tiny.
        def refuse(*args, **kwargs):
            raise AssertionError("the oracle ran on a squeeze beyond R_MAX")

        monkeypatch.setattr(fock, "geometric_phase_numeric", refuse)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: |r| = ")
        assert captured.err.count("\n") == 1

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

    def test_verify_and_csv_sweep_load_no_numpy_random(self):
        # numpy.random loads secrets, hmac and OpenSSL through _hashlib,
        # about 5.6 MB of RSS; verify's samples come from random.Random.
        result = subprocess.run(
            [sys.executable, "-c", "import sys\nfrom tmsvphase import cli\n"
             "codes = [cli.main(['verify']), cli.main(['sweep', '--variable', 'r', '--start', "
             "'0', '--stop', '1', '--points', '5'])]\n"
             "names = ('numpy.random', 'secrets', 'hashlib', '_hashlib')\n"
             "print(codes, [m for m in names if m in sys.modules], file=sys.stderr)"],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stderr == "[0, 0] []\n"

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

    @pytest.mark.parametrize("args,lines_read", [
        (_GAMMA_SWEEP + ["200000"], 1), (_GAMMA_SWEEP + ["100"], 0),
        (["--help"], 0), (["sweep", "--help"], 0),
    ], ids=["head-1", "closed-before-output", "help", "sweep-help"])
    def test_closed_stdout_is_a_resource_error(self, args, lines_read):
        # Buffered output (no PYTHONUNBUFFERED) must meet the closed pipe
        # before the process ends, not in the flush at interpreter exit; the
        # help, which argparse prints and exits from, too.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.Popen(
            [sys.executable, "-m", "tmsvphase.cli", *args],
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


class TestEntry:
    """``cli.entry``, the ``tmsvphase`` command and ``python -m tmsvphase.cli``.

    :func:`cli.main` flushes stdout and stderr and ``entry`` ends the process
    by ``os._exit``, so each test runs it in a subprocess with buffered
    output (no PYTHONUNBUFFERED) and reads what reached the pipes.
    """

    @staticmethod
    def run(args, prelude=None):
        """``python -m tmsvphase.cli ARGS``, or PRELUDE and then ``cli.entry()``."""
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        head = (["-m", "tmsvphase.cli"] if prelude is None
                else ["-c", prelude + "from tmsvphase import cli\ncli.entry()\n"])
        return subprocess.run([sys.executable, *head, *args],
                              capture_output=True, env=env, timeout=120)

    def test_console_script_is_the_entry(self):
        pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        assert '\ntmsvphase = "tmsvphase.cli:entry"\n' in pyproject

    # The console script imports and calls entry, as the empty prelude does.
    @pytest.mark.parametrize("prelude", [None, ""], ids=["module", "console-script"])
    def test_sweep_bytes_match_in_process_main(self, prelude, capsys):
        # The benchmark's 10^4-row sweep: every byte main wrote is flushed
        # before os._exit.
        assert main(_BENCH_SWEEP) == 0
        expected = capsys.readouterr().out.encode()
        result = self.run(_BENCH_SWEEP, prelude)
        assert (result.returncode, result.stderr) == (0, b"")
        assert result.stdout == expected

    def test_invariant_failure_exits_one(self):
        # The entropy-twice-x mutant of TestVerifyMutants, as a wrapper.
        result = self.run(["verify"], (
            "from tmsvphase import phases\n"
            "real = phases.entropy_from_cyclic_phase\n"
            "phases.entropy_from_cyclic_phase = lambda g: real(2.0 * g)\n"
        ))
        assert (result.returncode, result.stderr) == (1, b"")
        lines = result.stdout.decode().splitlines()
        assert [line.split()[1] for line in lines if line.startswith("FAIL  ")] == [
            "entropy-identity", "entropy-curve"]
        assert lines[-1].startswith("VERDICT: FAIL (")

    @pytest.mark.parametrize("args,code,err", [
        (["verify", "--seed", "-1"], 2,
         b"usage error: seed must be a non-negative integer, got -1\n"),
        (["sweep", "--variable", "r", "--start", "0", "--stop", "4", "--points", "3"], 3,
         b"CUTOFF_EXCEEDED: phase to 1e-09 at r=4.0, Omega t=1 needs a cutoff above "
         b"max_cutoff=4096\n"),
    ], ids=["usage", "cutoff"])
    def test_error_exits_keep_their_one_line(self, args, code, err):
        result = self.run(args)
        assert (result.returncode, result.stdout, result.stderr) == (code, b"", err)

    def test_unexpected_exception_prints_its_traceback(self):
        result = self.run(["decompose", "1", "0", "1", "0"], (
            "from tmsvphase import cli\n"
            "def broken(*args, **kwargs):\n"
            "    raise RuntimeError('broken decompose')\n"
            "cli.cmd_decompose = broken\n"
        ))
        err = result.stderr.decode()
        assert result.returncode == 1
        assert err.startswith("Traceback (most recent call last):\n")
        assert err.endswith("RuntimeError: broken decompose\n")

    @pytest.mark.parametrize("args", [
        ["verify"],
        ["sweep", "--variable", "r", "--start", "0", "--stop", "1", "--points", "3"],
        ["decompose", "1", "0", "1", "0"],
    ], ids=["verify", "sweep", "decompose"])
    def test_closed_stdout_descriptor_is_a_resource_error(self, args):
        # Started with descriptor 1 closed (>&-), sys.stdout is None: exit 3
        # with one line, before the command runs, not an AttributeError.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        result = subprocess.run(
            ["sh", "-c", 'exec "$0" -m tmsvphase.cli "$@" >&-', sys.executable, *args],
            capture_output=True, env=env, timeout=120,
        )
        assert (result.returncode, result.stderr) == (
            3, b"BROKEN_PIPE: stdout was closed before the output began\n")

    @pytest.mark.parametrize("args", [["--help"], ["sweep", "--help"]], ids=["help", "sweep-help"])
    def test_main_flushes_the_help(self, args):
        # In-process main, not entry: the help meets the closed pipe in
        # main's own flush, so main returns 3 and the interpreter's exit
        # flush finds nothing left to fail on.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.Popen(
            [sys.executable, "-c", "import sys\nfrom tmsvphase import cli\n"
             "print('main returned', cli.main(sys.argv[1:]), file=sys.stderr)", *args],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert err == "BROKEN_PIPE: stdout was closed before the output ended\nmain returned 3\n"

    def test_exit_skips_interpreter_teardown(self):
        # os._exit runs no atexit handler: the teardown is what it skips.
        result = self.run(["decompose", "1", "0", "1", "0"], (
            "import atexit, sys\n"
            "atexit.register(print, 'teardown', file=sys.stderr)\n"
        ))
        assert (result.returncode, result.stderr) == (0, b"")
        assert result.stdout.startswith(b"R = 0\n")


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
        (cli.cmd_verify, "stream"),
        (cli.cmd_sweep, "stream"),
        (cli.cmd_decompose, "stream"),
    ])
    def test_derived_values_are_not_parameters(self, owner, name):
        # Cutoffs follow from the arrays, degeneracy from R, and the caps are
        # the module constants FULL_SPACE_MAX_CUTOFF, DEFAULT_MAX_CUTOFF and R_MAX;
        # every command writes to sys.stdout.
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

        def counting(observable, r, h, t, **kwargs):
            seen.append(np.broadcast(r, t).size)  # a float stands for every row
            return real(observable, r, h, t, **kwargs)

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
        assert check(fock.DEFAULT_MAX_CUTOFF, random.Random(0)).passed
        assert calls == sizes


class TestFixedParameterOnce:
    """A sweep hands its fixed r or t over as one float, which stands for every row.

    Each ``math.sinh`` call in ``phases`` is recorded by its argument.
    """

    @pytest.fixture
    def sinh_calls(self, monkeypatch):
        seen = []

        def sinh(x):
            seen.append(x)
            return math.sinh(x)

        monkeypatch.setattr(phases, "math", types.SimpleNamespace(**{**vars(math), "sinh": sinh}))
        return seen

    def test_benchmark_sweep_forms_sinh2_once(self, sinh_calls, capsys):
        assert main(_BENCH_SWEEP) == 0
        assert len(capsys.readouterr().out.splitlines()) == 10_001
        assert sinh_calls == [2.0]

    def test_r_sweep_forms_sinh2_once_per_row(self, sinh_calls, capsys):
        assert main(["sweep", "--variable", "r", "--start", "0", "--stop", "1.5",
                     "--points", "7"]) == 0
        capsys.readouterr()
        assert sinh_calls == np.linspace(0.0, 1.5, 7).tolist()
