"""Measurement, checking and reporting for one benchmark run (see run.py)."""

import contextlib
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy

import bench_checks
import bench_clock
import bench_trace
from brakeopt import cli

BENCH = Path(__file__).resolve().parent
SRC = Path(cli.__file__).resolve().parents[1]  # the package the probes import
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 170

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass(frozen=True)
class Workload:
    argv: tuple
    nu: int
    grid: tuple
    check: Callable  # (out, seed, nu, grid) -> list of problems


# why each workload was chosen: BENCHMARK.json and bench/README.md
WORKLOADS = {
    "uq-262k": Workload(("uq", "--nu", "262144"), 262144, (101, 51), bench_checks.check_uq),
    "opt-robust": Workload(("opt-robust",), 4096, (101, 51), bench_checks.check_opt_robust),
    "opt-classical-fine": Workload(
        ("opt-classical", "--grid", "401x201"), 4096, (401, 201), bench_checks.check_opt_classical),
}

# exact counts of the traced run at seed 0, at the commit that defined the benchmark
SEED0_COUNTS = {
    "uq-262k": {"maxent.inverse_cdf_calls": 524288},
    "opt-robust": {
        "mechmodel.ensemble_calls": 22219,
        "optimizer.grid_scan_ensemble_calls": 10302,
        "optimizer.reported_evaluations": 11916,
        "maxent.inverse_cdf_calls": 24576,
    },
    "opt-classical-fine": {"mechmodel.scalar_calls": 86036},
}


def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
    }


class Runner:
    """Runs one workload's command and checks every run it makes.

    ``attempted`` counts command runs and probes; ``failed`` counts those
    with a nonzero exit code, an exception or a failed check.  The first
    checked artifact set is the reference: a later run passes its check
    when its bytes are identical to it, and gets the full check otherwise.
    """

    def __init__(self, name: str, seed: int, out: Path):
        self.name, self.seed, self.out = name, seed, out
        self.workload = WORKLOADS[name]
        self.argv = [*self.workload.argv, "--seed", str(seed), "--out", str(out)]
        self.attempted = self.failed = 0
        self.reference = None  # artifact hashes of the first run that passed its check
        self.counts = None  # per-layer counts of the first traced run

    def record(self, ok: bool, what: str, detail=()) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"bench: FAILED {what}", *detail, sep="\n  ", file=sys.stderr)
        return ok

    def run(self, tracer=None):
        """One in-process command run, checked.  An untraced run is timed
        by a ``SpeedClock`` and returns its wall time and reference seconds;
        a traced run returns its wall time and per-layer metrics."""
        gc.collect()
        instrument = bench_trace.instrumented(tracer) if tracer else contextlib.nullcontext()
        clock = bench_clock.SpeedClock() if tracer is None else contextlib.nullcontext()
        with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull), instrument:
            root = tracer.span("cli") if tracer else contextlib.nullcontext()
            t0 = time.perf_counter()
            try:
                with clock, root:
                    code = cli.main(self.argv)
            except Exception:  # a crash is a failed run, not the end of the benchmark
                traceback.print_exc()
                code = None
            wall = time.perf_counter() - t0
        if tracer is None:
            self.check(code, "run")
            return clock.wall, clock.seconds
        layers = bench_trace.layer_metrics(tracer)
        counts = {k: v for k, v in layers.items() if bench_trace.PER_LAYER_UNITS[k] == "count"}
        self.counts = self.counts or counts
        self.check(code, "traced run", [f"count {k}: {v} != {self.counts[k]} in the first traced run"
                                        for k, v in counts.items() if v != self.counts[k]])
        return wall, layers

    def check(self, code, what: str, problems=()) -> None:
        problems = list(problems)
        if code != 0:
            self.record(False, f"{what}: exit code {code}", problems)
            return
        hashes = bench_checks.artifact_hashes(self.out)
        if self.reference is not None and hashes == self.reference:
            self.record(not problems, f"{what}: check", problems)
            return
        if self.reference is not None:
            problems.append("artifacts differ from the first run of this seed")
        try:
            problems += self.workload.check(self.out, self.seed, self.workload.nu, self.workload.grid)
        except Exception as exc:  # unreadable or malformed artifacts
            problems.append(f"check raised {exc!r}")
        if self.record(not problems, f"{what}: check", problems) and self.reference is None:
            self.reference = hashes

    def probe(self, *args):
        """Run bench_probe.py in a fresh interpreter.  Returns its exit code
        (None on timeout) and the numbers on its last output line (None if
        they cannot be read)."""
        cmd = [sys.executable, str(BENCH / "bench_probe.py"), str(SRC), *args]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, None
        try:
            return proc.returncode, [float(x) for x in proc.stdout.splitlines()[-1].split()]
        except (IndexError, ValueError):
            return proc.returncode, None

    def setup_seconds(self) -> list:
        """(wall time, reference seconds) of each counted set-up probe."""
        self.probe("setup")  # compiles bytecode and warms the file cache, not counted
        times = []
        for _ in range(SETUP_PROBES):
            code, values = self.probe("setup")
            if self.record(code == 0 and values is not None and len(values) == 2,
                           f"setup probe: exit code {code}"):
                times.append(tuple(values))
        return times

    def peak_rss_mb(self) -> float:
        code, values = self.probe("cli", *self.argv)
        self.check(code, "peak-memory run")
        return values[-1] / 1024.0 if values else float("nan")

    def timed(self, seconds: float, traced: bool = False):
        """Warm up once, then run untraced (alternating with traced runs
        if asked) until ``seconds`` have passed.  Returns the (wall time,
        reference seconds) of each untraced run and the (wall time,
        per-layer metrics) of each traced run."""
        self.run()
        walls, traces = [], []
        deadline = time.perf_counter() + seconds
        while not walls or time.perf_counter() < deadline:
            walls.append(self.run())
            if traced:
                traces.append(self.run(bench_trace.Tracer()))
        return walls, traces


def end_to_end(runner: Runner, seconds: float) -> dict:
    setup = runner.setup_seconds()
    rss = runner.peak_rss_mb()
    walls, _ = runner.timed(seconds)
    medians = {}
    for name, pairs in (("wall_s", walls), ("setup_s", setup)):
        plain, scaled = [w for w, _ in pairs], [s for _, s in pairs]
        medians[name] = statistics.median(scaled) if scaled else float("nan")
        print(f"{name}: median of {len(pairs)}; reference seconds min {min(scaled, default=None)!r} "
              f"max {max(scaled, default=None)!r}; wall time median "
              f"{statistics.median(plain) if plain else None!r} min {min(plain, default=None)!r} "
              f"max {max(plain, default=None)!r}")
    return {**medians, "peak_rss_mb": rss}


def per_layer(runner: Runner, seconds: float) -> dict:
    walls, traces = runner.timed(seconds, traced=True)
    print(f"traced runs: {len(traces)}, untraced runs: {len(walls)}")
    metrics = {key: statistics.median(layers[key] for _, layers in traces) for key in traces[0][1]}
    metrics.update(runner.counts or {})
    metrics["cli.bytes_written"] = sum(a["bytes"] for a in (runner.reference or {}).values())
    metrics["trace.overhead_s"] = statistics.median(w for w, _ in traces) - statistics.median(w for w, _ in walls)
    if runner.seed == 0:
        for key, expected in SEED0_COUNTS[runner.name].items():
            verdict = "same" if metrics[key] == expected else "DIFFERS"
            print(f"seed-0 reference {key}: measured {metrics[key]} reference {expected} ({verdict})")
    return {key: metrics[key] for key in bench_trace.PER_LAYER_UNITS}


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    """Measure one workload, print the report and return the result object.
    Artifacts are written to ``out``, which is removed afterwards, with its
    parent directory if that is then empty."""
    out.mkdir(parents=True)
    try:
        runner = Runner(workload, seed, out)
        print(f"workload {workload} seed {seed} trace {int(trace)}: brakeopt {' '.join(runner.workload.argv)}")
        print("machine", json.dumps(machine_info(), sort_keys=True))
        if trace:
            metrics, units = per_layer(runner, seconds), bench_trace.PER_LAYER_UNITS
        else:
            metrics, units = end_to_end(runner, seconds), END_TO_END_UNITS
    finally:
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.suppress(OSError):
            out.parent.rmdir()  # only when no other run is using it

    for name, info in (runner.reference or {}).items():
        print(f"artifact {name} sha256 {info['sha256']} bytes {info['bytes']}")
    for name, value in metrics.items():
        print(f"metric {name} = {value!r} {units[name]}")
    print(f"fail_frac = {runner.failed}/{runner.attempted}")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
