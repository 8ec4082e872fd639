"""Tests of the benchmark's own logic on tiny inputs.

    python3 -m pytest bench/test_bench.py

They run no workload and stay out of the package's test suite.
"""

import json
import math
import shutil
import sys
from pathlib import Path

import pytest

import run
from tracing import Tracer, layer_table, self_times
from workloads import Op, check_sweep, check_verify

REPO = Path(__file__).resolve().parent.parent

VERIFY_OK = "".join(
    f"PASS  check-{i:<22d} worst {'2.5e-09':>17s}  bound {'1e-08':>8s}  [detail]\n"
    for i in range(17)
) + "VERDICT: PASS (17/17 invariants)\n"


class TestVerifyParsing:
    def test_pass_reports_worst_over_bound(self):
        outcome = check_verify(VERIFY_OK)
        assert outcome.ok
        assert outcome.worst_over_bound == pytest.approx(0.25)

    def test_zero_bound_with_zero_worst_is_fine(self):
        text = VERIFY_OK.replace("2.5e-09", "0", 1).replace("1e-08", "0", 1)
        assert check_verify(text).ok

    def test_failing_line_fails(self):
        text = VERIFY_OK.replace("PASS  check-3 ", "FAIL  check-3 ")
        text = text.replace("(17/17", "(16/17").replace("VERDICT: PASS", "VERDICT: FAIL")
        outcome = check_verify(text)
        assert not outcome.ok and "verdict" in outcome.reason

    def test_missing_check_line_fails(self):
        lines = VERIFY_OK.splitlines(keepends=True)
        assert not check_verify("".join(lines[1:])).ok

    def test_importtime_split(self):
        stderr = (
            "import time: self [us] | cumulative | imported package\n"
            "import time:      1715 |      79000 |       numpy\n"
            "import time:      1133 |     300000 |       scipy.linalg\n"
            "import time:       724 |     410000 |   tmsvphase\n"
            "import time:     11302 |     420000 | tmsvphase.cli\n"
        )
        assert run.parse_importtime(stderr) == pytest.approx({
            "setup.import.numpy_s": 0.079,
            "setup.import.scipy_linalg_s": 0.3,
            "setup.import.tmsvphase_s": 0.041,
        })


def _sweep_csv(gaps, delta_scale=1.0):
    spec = {"start": 0.0, "stop": 1.0, "r": 2.0}
    rows = ["omega_t,delta,abs_error"]
    for i, gap in enumerate(gaps):
        x = i / (len(gaps) - 1)
        rows.append(f"{x!r},{delta_scale * 2 * x * math.sinh(2.0) ** 2!r},{gap!r}")
    return spec, "\n".join(rows) + "\n"


class TestSweepChecks:
    def test_sweep_pass(self):
        spec, text = _sweep_csv([0.0, 4e-9, 1e-9])
        outcome = check_sweep(spec, 3, text)
        assert outcome.ok and outcome.points == 3
        assert outcome.worst_over_bound == pytest.approx(0.4)

    def test_sweep_gate(self):
        spec, text = _sweep_csv([0.0, 2e-8, 1e-9])
        assert not check_sweep(spec, 3, text).ok

    def test_sweep_row_count(self):
        spec, text = _sweep_csv([0.0, 1e-9, 1e-9])
        assert "rows" in check_sweep(spec, 4, text).reason

    def test_sweep_wrong_closed_form(self):
        spec, text = _sweep_csv([0.0, 1e-9, 1e-9], delta_scale=1.001)
        assert "delta" in check_sweep(spec, 3, text).reason


class TestSelfTime:
    def test_children_union_clipped_to_parent(self):
        # 0: root [0, 100]; 1 and 2 overlap inside it; 3 runs past its end;
        # 4 is a grandchild under 1 and must not count against the root.
        parent = [-1, 0, 0, 0, 1]
        start = [0, 10, 20, 90, 12]
        end = [100, 30, 50, 120, 18]
        assert self_times(parent, start, end) == [100 - 40 - 10, 14, 30, 30, 6]

    def test_layer_table_from_tracer(self):
        tracer = Tracer()
        outer = tracer.begin("cli.sweep_rows")
        inner = tracer.begin("fock.schmidt_state")
        tracer.finish(inner)
        tracer.finish(outer)
        tracer.mark("fock.schmidt_state", (1.0, 0.0, 5))
        trace = tracer.dump()
        trace["start_ns"] = [0, 100]
        trace["end_ns"] = [1000, 400]
        table = layer_table(trace)
        assert table["cli.busy_s"] == pytest.approx(700e-9)
        assert table["fock.diag.busy_s"] == pytest.approx(300e-9)
        assert table["cli.sweep_rows_s"] == pytest.approx(1000e-9)
        assert table["fock.state_builds"] == 1
        assert table["fock.state_reuse"] == 1.0

    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((REPO / "BENCHMARK.json").read_text())
        produced = set(layer_table(Tracer().dump()))
        produced |= set(run.parse_importtime("import time: 1 | 1000 | tmsvphase.cli\n"))
        produced |= {"cli.output_bytes", "cpu_s", "tracing_overhead", "checks.worst_over_bound"}
        assert produced == {m["name"] for m in spec["per_layer"]}


class TestFailureCounting:
    @pytest.fixture
    def fake_checkout(self, tmp_path, monkeypatch):
        """A checkout whose tmsvphase.cli imports fine but exits 1 when run."""
        package = tmp_path / "src" / "tmsvphase"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "cli.py").write_text(
            "import sys\nif __name__ == '__main__':\n    sys.exit(1)\n"
        )
        shutil.copy(REPO / "BENCHMARK.json", tmp_path)
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("PYTHONPATH", raising=False)
        return tmp_path

    def test_nonzero_exit_is_a_failed_op(self, fake_checkout):
        run.OUT_DIR.mkdir()
        record = run.run_op(Op(("verify",), check_verify), run.child_env(1), None)
        assert record.returncode == 1
        assert not record.ok and record.reason.startswith("exit code 1")

    def test_failed_ops_stay_in_the_sample(self, fake_checkout, capsys):
        assert run.main(["--workload", "verify", "--seed", "0", "--seconds", "0"]) == 0
        result = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert result["attempted"] == 1
        assert result["failed"] == 1
        assert result["correct"] is False
        assert set(result["metrics"]) == {"setup_s", "wall_s", "peak_rss_mb"}

    def test_changed_output_fails_later_ops(self):
        records = [
            run.OpRecord(False, 1.0, 0, 1.0, 1.0, 3, digest, True, "", 0.1, 0)
            for digest in ("a", "a", "b")
        ]
        run.mark_unstable_digests(records)
        assert [r.ok for r in records] == [True, True, False]

    def test_missing_program_exits_nonzero(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run.main(["--workload", "verify", "--seed", "0", "--seconds", "1"]) != 0
        assert capsys.readouterr().out == ""


def test_tail_percentile_needs_ten_beyond():
    assert run.tail_percentile([1.0] * 19) is None
    assert run.tail_percentile(list(range(20)))[0] == 50.0
    assert run.tail_percentile(list(range(100)))[0] == 90.0


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
