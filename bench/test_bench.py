"""Tests of the benchmark harness: span arithmetic, wrappers, checks, names."""

import contextlib
import io
import json
import signal
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
if str(BENCH.parent / "src") not in sys.path:
    sys.path.insert(0, str(BENCH.parent / "src"))

import bench_checks  # noqa: E402
import bench_clock  # noqa: E402
import bench_harness  # noqa: E402
import bench_trace  # noqa: E402
from bench_trace import Span, Tracer  # noqa: E402
from brakeopt import cli  # noqa: E402

NX, NY = 5, 3
SMALL_ROBUST = ["opt-robust", "--grid", f"{NX}x{NY}", "--nu", "64"]


def run_cli(argv, out, tracer=None):
    instrument = bench_trace.instrumented(tracer) if tracer else contextlib.nullcontext()
    root = tracer.span("cli") if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(io.StringIO()), instrument, root:
        assert cli.main([*argv, "--out", str(out)]) == 0


def test_self_time_on_synthetic_span_tree():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0, inner=0.5),  # 0.5 s of element calls inside
        Span("b", 3.0, 6.0, parent=0),             # overlaps a: root loses [1, 6] once
        Span("leaf", 2.0, 3.0, parent=1),
        Span("b", 7.0, 8.0, parent=0),
        Span("leaf", 11.0, 12.0, parent=0),        # outside its parent: clipped away
    ]
    own = bench_trace.self_times(spans)
    assert own["root"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own["a"] == pytest.approx(3.0 - 1.0 - 0.5)
    assert own["b"] == pytest.approx(3.0 + 1.0)
    assert own["leaf"] == pytest.approx(2.0)
    assert bench_trace.durations(spans)["b"] == pytest.approx(4.0)
    assert bench_trace.count_within(spans, "leaf", "a") == 1
    assert bench_trace.count_within(spans, "leaf", "root") == 2


def test_element_time_is_charged_to_the_open_span():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    element = tracer.element_wrapper("elem", lambda x: x + 1)
    with tracer.span("outer"):          # opens at 0
        assert element(1) == 2          # 1 .. 2
        assert element(2) == 3          # 3 .. 4
    assert tracer.calls["elem"] == 2 and tracer.totals["elem"] == 2.0
    assert bench_trace.self_times(tracer.spans)["outer"] == pytest.approx(5.0 - 2.0)


def test_reference_seconds_scales_each_slice_by_its_probe_speed():
    nominal = 1000 * bench_clock.REFERENCE_ITERATION_S
    probes = [(1.0, 2.0, nominal), (3.0, 4.0, nominal), (5.0, 6.0, 9 * nominal),  # one stray probe
              (7.0, 8.0, nominal), (11.0, 12.0, nominal)]                         # after the end
    # slices 0-1, 2-3, 4-5, 6-7 and 8-10 at the nominal speed; the running median drops the stray
    assert bench_clock.reference_seconds(0.0, 10.0, probes, 1000) == pytest.approx(6.0)
    slow = [(a, b, 2 * d) for a, b, d in probes]
    assert bench_clock.reference_seconds(0.0, 10.0, slow, 1000) == pytest.approx(3.0)


def test_speed_clock_excludes_its_probes_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    with bench_clock.SpeedClock() as clock:
        while time.perf_counter() - t0 < 0.1:
            pass
    elapsed = time.perf_counter() - t0
    assert len(clock.probes) >= 5
    assert 0.0 < clock.wall < elapsed and clock.seconds > 0.0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def targets():
    return [(module, attr) for module, attr, _, _ in
            (*bench_trace.SPAN_TARGETS, *bench_trace.ELEMENT_TARGETS)]


def test_wrappers_restore_every_original_attribute():
    originals = {(m, a): getattr(m, a) for m, a in targets()}
    with bench_trace.instrumented(Tracer()):
        assert all(getattr(m, a) is not originals[m, a] for m, a in targets())
    assert all(getattr(m, a) is originals[m, a] for m, a in targets())
    with pytest.raises(RuntimeError), bench_trace.instrumented(Tracer()):
        raise RuntimeError("boom")
    assert all(getattr(m, a) is originals[m, a] for m, a in targets())


@pytest.fixture(scope="module")
def small_robust(tmp_path_factory):
    plain, traced = tmp_path_factory.mktemp("plain"), tmp_path_factory.mktemp("traced")
    tracer = Tracer()
    run_cli(SMALL_ROBUST, plain)
    run_cli(SMALL_ROBUST, traced, tracer)
    return plain, traced, bench_trace.layer_metrics(tracer)


def test_traced_run_writes_the_same_bytes(small_robust):
    plain, traced, _ = small_robust
    assert bench_checks.artifact_hashes(plain) == bench_checks.artifact_hashes(traced)
    assert len(bench_checks.artifact_hashes(plain)) == 3


def test_ensemble_calls_are_ascent_plus_optimum_plus_two_contours(small_robust):
    _, _, m = small_robust
    assert m["optimizer.grid_scan_ensemble_calls"] == 2 * NX * NY
    assert m["mechmodel.ensemble_calls"] == m["optimizer.reported_evaluations"] + 1 + 2 * NX * NY
    assert m["mechmodel.ensemble_samples"] == 64 * m["mechmodel.ensemble_calls"]
    assert m["maxent.inverse_cdf_calls"] == 3 * 2 * 64
    assert 0.0 < m["mechmodel.valid_frac"] < 1.0


def test_robust_check_passes_and_catches_a_wrong_objective(small_robust, tmp_path):
    plain, _, _ = small_robust
    assert bench_checks.check_opt_robust(plain, 0, 64, (NX, NY)) == []
    body = json.loads((plain / "optimum.json").read_text())
    body["objective"] *= 1.0 + 1e-6
    (tmp_path / "optimum.json").write_text(json.dumps(body))
    for name in ("contour_robust.csv", "contour_constraint.csv"):
        (tmp_path / name).write_bytes((plain / name).read_bytes())
    assert any("robust_objective" in p for p in bench_checks.check_opt_robust(tmp_path, 0, 64, (NX, NY)))


def test_uq_check_passes_and_catches_a_wrong_row(tmp_path):
    run_cli(["uq", "--nu", "300", "--seed", "7"], tmp_path)
    assert bench_checks.check_uq(tmp_path, 7, 300, None) == []
    lines = (tmp_path / "ensemble.csv").read_text().splitlines(keepends=True)
    index, alpha, fs, fh, valid = lines[2].rstrip("\n").split(",")
    lines[2] = ",".join([index, alpha, fs, repr(float(fh) + 1e-6), valid]) + "\n"
    (tmp_path / "ensemble.csv").write_text("".join(lines))
    assert any("row 0" in p for p in bench_checks.check_uq(tmp_path, 7, 300, None))
    assert bench_checks.check_uq(tmp_path, 7, 301, None) != []


def test_classical_check_passes_and_catches_a_wrong_objective(tmp_path):
    run_cli(["opt-classical", "--grid", "5x3"], tmp_path)
    assert bench_checks.check_opt_classical(tmp_path, 0, 4096, (5, 3)) == []
    body = json.loads((tmp_path / "optimum.json").read_text())
    body["objective"] += 1e-3
    (tmp_path / "optimum.json").write_text(json.dumps(body))
    assert any("solve_equilibrium" in p for p in bench_checks.check_opt_classical(tmp_path, 0, 4096, (5, 3)))


def test_reported_names_and_units_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench_harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench_trace.PER_LAYER_UNITS
    assert set(bench_trace.layer_metrics(Tracer())) | {"cli.bytes_written", "trace.overhead_s"} \
        == set(bench_trace.PER_LAYER_UNITS)
    for workload, counts in bench_harness.SEED0_COUNTS.items():
        assert workload in bench_harness.WORKLOADS and set(counts) <= set(bench_trace.PER_LAYER_UNITS)
