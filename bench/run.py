"""Benchmark of tmsvphase: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src``.  One client runs the workload's operation again and again, each
in a fresh interpreter, until S seconds have passed (at least one
operation), and checks every output.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median
time of a fresh interpreter importing ``tmsvphase.cli``, sampled once
before each operation.  ``wall_s`` is the median wall time of one
operation.  Both are scaled by the run's calibration (see
REFERENCE_CALIBRATION_S); the raw medians are in the report.
``peak_rss_mb`` is the median of the operation's maximum resident set.
``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics from the traced ones, with ``tracing_overhead`` (traced
over untraced median wall).  The line before the result is a report with
sample counts, output digests and the machine.
Spans and reports are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from tracing import layer_table, median_table
from workloads import WHY, WORKLOADS, Op, Outcome, make_op

HERE = Path(__file__).resolve().parent
OUT_DIR = Path(".bench_out")

SETUP_REPEATS = 5
# The shared machine's speed drifts by up to 1.5x over minutes, and a 50 s
# run cannot average that out.  calibrate.py is timed before and after every
# operation, and end-to-end times are scaled to a machine on which it takes
# this long: time * REFERENCE_CALIBRATION_S / median(calibration time).
REFERENCE_CALIBRATION_S = 0.8
IMPORTTIME_REPEATS = 3
# A single operation takes at most about 8 s here; a hung one is killed so
# the run still ends within its time limit.
OP_TIMEOUT_S = 100.0
MAX_BLAS_THREADS = 2


@dataclass
class OpRecord:
    traced: bool
    wall_s: float
    returncode: int
    cpu_s: float
    rss_mb: float
    output_bytes: int
    digest: str
    ok: bool
    reason: str
    worst_over_bound: float
    points: int


def child_env(nproc: int) -> dict[str, str]:
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env["OPENBLAS_NUM_THREADS"] = str(min(MAX_BLAS_THREADS, nproc))
    return env


def run_child(argv: list[str], env: dict[str, str]) -> tuple[float, int, float, float, bytes, bytes]:
    """Run one process to completion: wall s, exit code, cpu s, max RSS MB, stdout, stderr."""
    with tempfile.TemporaryFile(dir=OUT_DIR) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env)
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    cpu = usage.ru_utime + usage.ru_stime
    return wall, proc.returncode, cpu, usage.ru_maxrss / 1024.0, out, stderr


def run_op(op: Op, env: dict[str, str], spans: Path | None) -> OpRecord:
    if spans is None:
        argv = [sys.executable, "-m", "tmsvphase.cli", *op.args]
    else:
        argv = [sys.executable, str(HERE / "child.py"), str(spans), *op.args]
    wall, rc, cpu, rss, out, stderr = run_child(argv, env)
    if rc != 0:
        tail = stderr.decode(errors="replace").strip().splitlines()[-1:]
        outcome = Outcome(False, f"exit code {rc}: {' '.join(tail)}", float("nan"))
    else:
        outcome = op.check(out.decode())
    return OpRecord(
        traced=spans is not None, wall_s=wall, returncode=rc, cpu_s=cpu,
        rss_mb=rss, output_bytes=len(out), digest=hashlib.sha256(out).hexdigest(),
        ok=outcome.ok, reason=outcome.reason,
        worst_over_bound=outcome.worst_over_bound, points=outcome.points,
    )


def mark_unstable_digests(records: list[OpRecord]) -> None:
    """Identical inputs must print identical bytes: an op whose output
    differs from the first op's counts as failed."""
    reference = records[0].digest
    for rec in records:
        if rec.ok and rec.digest != reference:
            rec.ok = False
            rec.reason = f"stdout sha256 {rec.digest[:12]} differs from {reference[:12]}"


def time_calibration(env: dict[str, str]) -> float:
    """Wall time of bench/calibrate.py in a fresh interpreter."""
    wall, rc, _, _, _, stderr = run_child([sys.executable, str(HERE / "calibrate.py")], env)
    if rc != 0:
        raise RuntimeError(f"calibration failed: {stderr.decode()[-500:]}")
    return wall


def time_import(env: dict[str, str]) -> float:
    """Wall time of a fresh interpreter importing tmsvphase.cli."""
    wall, rc, _, _, _, stderr = run_child([sys.executable, "-c", "import tmsvphase.cli"], env)
    if rc != 0:
        raise RuntimeError(f"importing tmsvphase.cli failed: {stderr.decode()[-500:]}")
    return wall


_IMPORTTIME = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import seconds of numpy, scipy.linalg and the rest of tmsvphase.cli."""
    cumulative = {}
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            cumulative[m.group(2)] = int(m.group(1)) / 1e6
    numpy_s = cumulative.get("numpy", 0.0)
    scipy_s = cumulative.get("scipy.linalg", 0.0)
    return {
        "setup.import.numpy_s": numpy_s,
        "setup.import.scipy_linalg_s": scipy_s,
        "setup.import.tmsvphase_s": cumulative["tmsvphase.cli"] - numpy_s - scipy_s,
    }


def measure_importtime(env: dict[str, str]) -> dict[str, float]:
    argv = [sys.executable, "-X", "importtime", "-c", "import tmsvphase.cli"]
    tables = []
    for _ in range(IMPORTTIME_REPEATS):
        _, rc, _, _, _, stderr = run_child(argv, env)
        if rc != 0:
            raise RuntimeError("importing tmsvphase.cli failed")
        tables.append(parse_importtime(stderr.decode()))
    return median_table(tables)


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it (nearest rank)."""
    ordered = sorted(values)
    for p in (99.9, 99.0, 90.0, 50.0):
        rank = max(1, math.ceil(len(ordered) * p / 100.0))
        if len(ordered) - rank >= 10:
            return p, ordered[rank - 1]
    return None


def summarize(values: list[float]) -> dict:
    tail = tail_percentile(values)
    return {
        "median": statistics.median(values),
        "n": len(values),
        "tail": None if tail is None else {"p": tail[0], "value": tail[1]},
    }


def environment(nproc: int) -> dict:
    def version(dist: str) -> str:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    return {
        "nproc": nproc,
        "blas_threads": min(MAX_BLAS_THREADS, nproc),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def metric_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json at the checkout root declares them."""
    spec = json.loads(Path("BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path("src/tmsvphase/cli.py").is_file():
        print("run from the root of a tmsvphase checkout (src/tmsvphase missing)",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    spans_dir = OUT_DIR / "spans"
    spans_dir.mkdir(exist_ok=True)
    for old in spans_dir.glob(f"{args.workload}-*.json"):
        old.unlink()

    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    op = make_op(args.workload, args.seed)
    records: list[OpRecord] = []
    tables = []
    setup: list[float] = []  # raw seconds, scaled when reported
    calibration: list[float] = []
    try:
        time_import(env)  # untimed: writes the bytecode caches of a fresh checkout
        imports = measure_importtime(env) if args.trace else {}
        deadline = time.monotonic() + args.seconds
        while not records or time.monotonic() < deadline:
            if not args.trace:
                # Calibration and set-up samples spread over the run see the
                # same machine speed as the operations.
                calibration.append(time_calibration(env))
                setup.append(time_import(env))
            records.append(run_op(op, env, None))
            if args.trace:
                spans = spans_dir / f"{args.workload}-op{len(records)}.json"
                record = run_op(op, env, spans)
                records.append(record)
                if record.returncode == 0:
                    table = layer_table(json.loads(spans.read_text()))
                    table["cli.output_bytes"] = record.output_bytes
                    tables.append(table)
        if not args.trace:
            calibration.append(time_calibration(env))
        while not args.trace and len(setup) < SETUP_REPEATS:
            setup.append(time_import(env))
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    mark_unstable_digests(records)
    if args.trace and not tables:
        print("no traced operation completed", file=sys.stderr)
        return 1

    plain = [r for r in records if not r.traced]
    traced = [r for r in records if r.traced]
    failed = sum(not r.ok for r in records)
    worst = max((r.worst_over_bound for r in records), default=float("nan"))
    wall = statistics.median(r.wall_s for r in plain)
    speed = REFERENCE_CALIBRATION_S / statistics.median(calibration) if calibration else None
    if args.trace:
        metrics = dict(imports)
        metrics.update(median_table(tables))
        metrics["cpu_s"] = statistics.median(r.cpu_s for r in plain)
        metrics["tracing_overhead"] = statistics.median(r.wall_s for r in traced) / wall
        metrics["checks.worst_over_bound"] = worst
    else:
        metrics = {
            "setup_s": statistics.median(setup) * speed,
            "wall_s": wall * speed,
            "peak_rss_mb": statistics.median(r.rss_mb for r in plain),
        }
    units = metric_units("per_layer" if args.trace else "end_to_end")
    if metrics.keys() != units.keys():
        print(f"metrics {sorted(metrics.keys() ^ units.keys())} disagree with "
              "BENCHMARK.json", file=sys.stderr)
        return 1

    points = max((r.points for r in records), default=0)
    report = {
        "workload": args.workload,
        "why": WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "client": "closed loop, 1 client",
        "args": list(op.args),
        "environment": environment(nproc),
        "wall_s": summarize([r.wall_s for r in plain]),
        "traced_wall_s": summarize([r.wall_s for r in traced]) if traced else None,
        "setup_s": None if args.trace else summarize(setup),
        "points_per_s": points / wall if points else None,
        "fail_ratio": failed / len(records),
        "worst_over_bound": worst,
        "digests": sorted({r.digest for r in records}),
        "speed_factor": speed,
        "calibration_samples_s": calibration,
        "setup_samples_s": setup,
        "ops": [asdict(r) for r in records],
    }
    text = json.dumps({**report, "metrics": metrics}, allow_nan=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(text + "\n")
    print("report: " + json.dumps({k: v for k, v in report.items() if k != "ops"}))
    for rec in records:
        if not rec.ok:
            print(f"failed op: {rec.reason}")
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
