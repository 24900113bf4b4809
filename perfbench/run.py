"""End-to-end and per-layer benchmark of the volmix command line.

    python3 perfbench/run.py --workload mc_desk [--seed 42] [--seconds 30] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
`src/`.  With `--trace 0` each op runs as `python -m volmix.cli <kind> ...`
in a child process, one at a time, so the numbers include interpreter
start, import, config parsing, quadrature, Monte Carlo and CSV output as
a user pays for them.  The workload's ops run as one set, repeatedly,
until `--seconds` have passed (at least MIN_SETS times), and each timing
is the median over sets.  With `--trace 1` the same argv lists run
in-process through `volmix.cli.main`, alternating untraced and traced
sets; the traced sets give per-layer metrics (see tracer.py).

Every op's output is checked (oracle.py), repeats of an op must write
byte-identical files, and traced sets must write the same bytes as
untraced ones.  The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the exit status is 1 when
an output is wrong.  The full record (machine, every set, load average,
failing rows) goes to `.perfbench/<workload>-seed<seed>-trace<0|1>.json`
and, for traced runs, the spans to a `.spans.json` file beside it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# Sets run until --seconds have passed, but never fewer than this, so
# every timing is a median of at least three.
MIN_SETS = 3
# Any child still running this long after the run started is killed, so
# that a hung op ends the run (as a failure) in under three minutes.
RUN_LIMIT_S = 165.0
# BLAS threads for every op, pinned and recorded.  One thread: on a
# shared 2-core machine a second BLAS thread waits on whatever else holds
# the other core; eigvalsh of a 257 x 257 matrix then took 0.3 s instead
# of 5 ms, which swamped every other difference between runs.
BLAS_THREADS = 1
BLAS_ENV = {name: str(BLAS_THREADS) for name in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

# One fresh interpreter: import the CLI and parse the op's argv into a
# config, exactly as `volmix.cli.main` does before any work starts.
SETUP_CODE = (
    "import sys, volmix.cli as cli\n"
    "args = cli.build_parser().parse_args(sys.argv[1:])\n"
    "cli.parse_config(args.kind, file=args.config, overrides={k: v for k, v in"
    " vars(args).items() if k not in ('kind', 'config')})\n"
)


def _flag(argv: tuple[str, ...], flag: str) -> int:
    return int(argv[argv.index(flag) + 1])


def _path_cells(argv) -> int:
    return _flag(argv, "--paths") * _flag(argv, "--cells")


def _cov_entries(argv) -> int:
    return (_flag(argv, "--cells") + 1) ** 2


@dataclass(frozen=True)
class Workload:
    ops: tuple[tuple[str, ...], ...]
    work: Callable[[tuple[str, ...]], int]
    work_unit: str


WORKLOADS = {
    # Desk-scale Monte Carlo, one full 8192-path batch per noise pass.
    # Noise generation is nearly all of the time: verify makes 9 full-grid
    # passes and mse-study 3, redrawing the same normals each time.  This
    # is where one noise pass and a bulk RNG must show; a faster
    # quadrature or CSV writer should change nothing here.
    "mc_desk": Workload(
        ops=(("verify", "--kernel", "bm", "--cells", "256", "--paths", "8192"),
             ("mse-study", "--kernel", "rl", "--hurst", "0.75", "--b-list", "0.5,1,2",
              "--t", "1", "--cells", "256", "--paths", "8192")),
        work=_path_cells, work_unit="path-cells"),
    # The same noise layer with 1024-wide rows, plus what grows with the
    # grid: 14 cell-average matrices built row by row in Python, two
    # eigvalsh calls on 1025 x 1025 matrices, O(n^3) covariance matmuls
    # and hundreds of scalar quadratures.  Quadrature work shows here, and
    # so does a memory cap: peak RSS follows paths x cells per batch.
    "mc_wide": Workload(
        ops=(("verify", "--kernel", "bm", "--cells", "1024", "--paths", "4096"),),
        work=_path_cells, work_unit="path-cells"),
    # Output-bound: each op writes a 513^2-row cov.csv through the
    # per-value formatter, while quadrature and PSD take a small share and
    # Monte Carlo is one path.  A faster CSV writer shows here; noise work
    # should change nothing.
    "csv_out": Workload(
        ops=(("covariance", "--kernel", "rl", "--hurst", "0.25", "--cells", "512"),
             ("predict", "--kernel", "ou", "--theta", "1", "--sigma", "1", "--rho", "0.6",
              "--u", "0.5", "--cells", "512")),
        work=_cov_entries, work_unit="cov-entries"),
}


def machine_record(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "platform": platform.platform(),
        "seed": seed,
    }


def op_argv(op: tuple[str, ...], seed: int, out_dir: Path) -> list[str]:
    return [*op, "--seed", str(seed), "--out", str(out_dir)]


def digests(out_dir: Path) -> dict[str, str]:
    if not out_dir.is_dir():
        return {}
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_dir.iterdir())}


class Ledger:
    """Attempted and failed ops, defects, and the byte identity of repeats."""

    def __init__(self, check):
        self.check = check  # oracle.check
        self.attempted = 0
        self.failed = 0
        self.defects: list[str] = []
        self.missed_rows: dict[str, list[str]] = {}
        self._first: dict[str, tuple[int, dict]] = {}

    def record(self, label: str, argv: list[str], out_dir: Path, exit_code: int,
               stderr: str = "") -> None:
        """Check one op: the first run of `label` against the oracle, later
        runs for the same exit status and bytes as the first."""
        self.attempted += 1
        found = (exit_code, digests(out_dir))
        if label not in self._first:
            self._first[label] = found
            verdict = self.check(argv, out_dir, exit_code)
            if verdict.missed_rows:
                self.missed_rows[label] = verdict.missed_rows
            self.defects += [f"{label}: {defect}" for defect in verdict.defects]
            if verdict.defects and stderr.strip():
                self.defects.append(f"{label}: stderr ends {stderr.strip().splitlines()[-1]!r}")
            failed = verdict.failed
        else:
            failed = found != self._first[label]
            if failed:
                self.defects.append(f"{label}: exit status or bytes differ from its first run")
            failed = failed or label in self.missed_rows
        self.failed += failed


def run_child(cmd: list[str], env: dict, kill_at: float, stderr_path: Path):
    """Run one child to completion: (wall s, rusage, exit status)."""
    with open(stderr_path, "wb") as stderr:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=stderr)
        killer = threading.Timer(max(0.0, kill_at - started), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage, proc.returncode


def measure_processes(workload: Workload, seed: int, seconds: float, run_dir: Path,
                      ledger: Ledger, record: dict) -> dict:
    started = time.perf_counter()
    kill_at = started + RUN_LIMIT_S
    env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_ENV)
    setup_cmd = [sys.executable, "-c", SETUP_CODE, *op_argv(workload.ops[0], seed, run_dir)]
    stderr_path = run_dir / "child.stderr"

    def setup_sample() -> float:
        wall, _, code = run_child(setup_cmd, env, kill_at, stderr_path)
        if code != 0:
            ledger.defects.append(f"set-up child exited {code}: "
                                  f"{stderr_path.read_text(errors='replace')[-300:]!r}")
        return wall

    setup_sample()  # warm the file cache and bytecode; not counted
    setup, sets, peak_kb = [], [], 0
    while len(sets) < MIN_SETS or time.perf_counter() - started < seconds:
        load_start = os.getloadavg()[0]
        setup.append(setup_sample())
        walls, cpus = [], []
        for index, op in enumerate(workload.ops):
            out_dir = run_dir / f"set{len(sets)}-op{index}"
            argv = op_argv(op, seed, out_dir)
            wall, usage, code = run_child([sys.executable, "-m", "volmix.cli", *argv],
                                          env, kill_at, stderr_path)
            ledger.record(f"op{index}:{op[0]}", argv, out_dir, code,
                          stderr_path.read_text(errors="replace"))
            shutil.rmtree(out_dir, ignore_errors=True)
            walls.append(wall)
            cpus.append(usage.ru_utime + usage.ru_stime)
            peak_kb = max(peak_kb, usage.ru_maxrss)
        setup.append(setup_sample())
        sets.append({"op_wall_s": walls, "op_cpu_s": cpus,
                     "load_1m": [load_start, os.getloadavg()[0]]})
        if ledger.defects:
            break
    wall_s = statistics.median(sum(s["op_wall_s"]) for s in sets)
    work = sum(workload.work(op) for op in workload.ops)
    op_medians = {f"op{i}:{op[0]}": statistics.median(s["op_wall_s"][i] for s in sets)
                  for i, op in enumerate(workload.ops)}
    record.update(sets=sets, setup_samples_s=setup, work=work, work_unit=workload.work_unit,
                  op_median_wall_s=op_medians)
    return {
        "wall_s": (wall_s, "s"),
        "work_per_s": (work / wall_s, "units/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def measure_traced(workload: Workload, seed: int, seconds: float, run_dir: Path,
                   ledger: Ledger, record: dict) -> dict:
    """Alternate untraced and traced in-process sets; per-layer metrics."""
    import volmix.cli
    import tracer as tracing

    def run_set(label: str, tracer: tracing.Tracer | None) -> tuple[float, float]:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        cpu = usage.ru_utime + usage.ru_stime
        wall = 0.0
        for index, op in enumerate(workload.ops):
            out_dir = run_dir / f"{label}-op{index}"
            argv = op_argv(op, seed, out_dir)
            began = time.perf_counter()
            try:
                if tracer is None:
                    code = volmix.cli.main(argv)
                else:
                    with tracer.op(op[0]):
                        code = volmix.cli.main(argv)
            except Exception:  # the op crashed: a defect, reported with its traceback
                code = None
                ledger.defects.append(traceback.format_exc(limit=-3))
            wall += time.perf_counter() - began
            ledger.record(f"op{index}:{op[0]}", argv, out_dir, code)
            shutil.rmtree(out_dir, ignore_errors=True)
        usage = resource.getrusage(resource.RUSAGE_SELF)
        return wall, usage.ru_utime + usage.ru_stime - cpu

    started = time.perf_counter()
    untraced, traced_walls, traced_sets, spans = [], [], [], []
    while not traced_sets or time.perf_counter() - started < seconds:
        untraced.append(run_set(f"plain{len(untraced)}", None)[0])
        tracer = tracing.Tracer()
        with tracing.traced(tracer) as missing:
            wall, cpu = run_set(f"traced{len(traced_sets)}", tracer)
        traced_walls.append(wall)
        traced_sets.append(tracing.layer_metrics(tracer, wall, cpu))
        spans.append([vars(span) for span in tracer.spans])
        if missing or tracer.hook_errors:
            record["untraced"] = {"missing": missing, "hook_errors": tracer.hook_errors[:20]}
        if ledger.defects:
            break

    metrics = {}
    for name, (value, unit) in traced_sets[0].items():
        values = [m[name][0] for m in traced_sets]
        if unit in ("s", "MB/s", "cpu/wall"):
            value = statistics.median(values)
        elif len(set(values)) > 1:
            ledger.defects.append(f"count {name} differs between traced sets: {values}")
        metrics[name] = (value, unit)
    traced_wall = statistics.median(traced_walls)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - statistics.median(untraced), "s")
    record.update(untraced_wall_s=untraced, spans=spans)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the volmix CLI on one workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42, help="RNG seed passed to every op")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure for this long (at least %d sets)" % MIN_SETS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: in-process run with per-layer spans")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must lie in [0, 2**63)")
    if not (SRC / "volmix" / "cli.py").is_file():
        print(f"perfbench: no volmix sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)  # before numpy is imported in this process
    signal.alarm(int(RUN_LIMIT_S) + 10)  # a hung in-process op ends the run, unreported
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]

    workload = WORKLOADS[args.workload]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = OUT / f"{name}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "ops": [list(op) for op in workload.ops], "machine": machine_record(args.seed)}
    import oracle  # after BLAS_ENV: it imports numpy

    ledger = Ledger(oracle.check)
    measure = measure_traced if args.trace else measure_processes
    try:
        metrics = measure(workload, args.seed, args.seconds, run_dir, ledger, record)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    correct = not ledger.defects
    record.update(correct=correct, attempted=ledger.attempted, failed=ledger.failed,
                  fail_ratio=ledger.failed / ledger.attempted, defects=ledger.defects,
                  missed_rows=ledger.missed_rows, claim=None,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    if "spans" in record:
        (OUT / f"{name}.spans.json").write_text(json.dumps(record.pop("spans")))
    (OUT / f"{name}.json").write_text(json.dumps(record, indent=1))

    for label, wall in record.get("op_median_wall_s", {}).items():
        print(f"{label} median wall = {wall:.4f} s")
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    print(f"fail_ratio = {ledger.failed}/{ledger.attempted} = "
          f"{ledger.failed / ledger.attempted:.6g} ratio")
    for label, rows in ledger.missed_rows.items():
        print(f"sampling miss at seed {args.seed}: {label} {rows}")
    for defect in ledger.defects:
        print(f"DEFECT: {defect}")
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
