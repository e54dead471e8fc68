"""CLI surface: artifacts, headers, determinism, error mapping."""

import json
import math
import os
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from brakeopt import (
    ConstraintSpec, DesignBox, RobustWeights, ValidationError, __version__, classical_values, cli,
    grid_scan, mc_uq, optimizer)
from brakeopt.cli import main
from brakeopt.config import config_to_text, default_config, default_config_path, load_config
from brakeopt.mc_uq import _NU_MAX

UQ_FILES = ("ensemble.csv", "stats.json", "trace.csv", "kde.csv")


def run(argv):
    return main([str(a) for a in argv])


def read_bytes(directory, names):
    return {name: (directory / name).read_bytes() for name in names}


def test_eval_prints_solution(capsys):
    # every line, byte for byte: a numpy scalar in any field would print as
    # np.float64(...) and fail here
    assert run(["eval"]) == 0
    assert capsys.readouterr().out == (
        "alpha_deg = 6.0\n"
        "Fs_kN = 42.0\n"
        "N1_kN = 6.782655311737993\n"
        "N2_kN = 48.40555269630004\n"
        "N3_kN = 11.656952539550375\n"
        "N4_kN = 11.656952539550375\n"
        "T1_kN = 0.6782655311737993\n"
        "T2_kN = 4.840555269630005\n"
        "T3_kN = 0.0020098194033707543\n"
        "T4_kN = 1.748542880932556\n"
        "Rx_kN = -30.343047460449625\n"
        "Ry_kN = -38.251457119067446\n"
        "Fh_kN = 7.2693735011397305\n"
        "valid = true\n")


def test_uq_writes_all_artifacts_with_units(tmp_path):
    out = tmp_path / "uq"
    assert run(["uq", "--out", out, "--nu", 512]) == 0
    for name in UQ_FILES:
        assert (out / name).exists(), name
    header, columns = (out / "ensemble.csv").read_text().splitlines()[:2]
    assert header.startswith("# brakeopt 0.1.0 seed=0 config_sha256=")
    assert columns == "index,alpha_deg,fs_kN,fh_kN,valid"
    assert (out / "trace.csv").read_text().splitlines()[1] == "n,running_mean_kN,running_std_kN"
    assert (out / "kde.csv").read_text().splitlines()[1] == "fh_kN,density_per_kN"
    stats = json.loads((out / "stats.json").read_text())
    assert stats["provenance"]["seed"] == 0
    assert stats["nu"] == 512
    assert "ci95_quantile" in stats["stats_kN"] and "ci95_normal" in stats["stats_kN"]
    # one statistics pass: the reported mean has the bits of np.mean of the evaluated samples
    fh = np.loadtxt(out / "ensemble.csv", delimiter=",", skiprows=2, usecols=3)
    assert stats["stats_kN"]["mean"] == float(np.mean(fh[np.isfinite(fh)]))


def test_uq_freeze_flags(tmp_path):
    out = tmp_path / "frozen"
    assert run(["uq", "--out", out, "--nu", 128, "--freeze-fs", 42.0]) == 0
    rows = (out / "ensemble.csv").read_text().splitlines()[2:]
    assert all(row.split(",")[2] == "42.0" for row in rows)


def test_uq_of_a_point_mass_writes_zero_spread_and_no_kde(tmp_path):
    # both inputs frozen: every sample is the nominal force
    out = tmp_path / "point"
    assert run(["uq", "--out", out, "--nu", 300, "--freeze-alpha", 6, "--freeze-fs", 42]) == 0
    stats = json.loads((out / "stats.json").read_text())["stats_kN"]
    # the mean is the constant itself: np.mean rounds it one ulp off
    assert stats["std"] == 0.0 and stats["mean"] == stats["min"] == stats["max"]
    assert stats["ci95_normal"] == [stats["mean"], stats["mean"]]
    assert sorted(p.name for p in out.iterdir()) == ["ensemble.csv", "stats.json", "trace.csv"]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_uq_writes_the_ensemble_in_a_reaped_child(tmp_path, monkeypatch):
    write_csv, pids = cli._write_csv, tmp_path / "pids"
    pids.mkdir()

    def recording(path, *args):
        (pids / path.name).write_text(str(os.getpid()))
        write_csv(path, *args)

    monkeypatch.setattr(cli, "_write_csv", recording)
    assert run(["uq", "--out", tmp_path / "uq", "--nu", 512]) == 0
    writers = {p.name: int(p.read_text()) for p in pids.iterdir()}
    assert writers.pop("ensemble.csv") != os.getpid()
    assert writers == {"trace.csv": os.getpid(), "kde.csv": os.getpid()}
    assert_no_child_left()


def test_uq_fails_when_the_child_cannot_write_the_ensemble(tmp_path, capfd):
    out = tmp_path / "uq"
    (out / "ensemble.csv").mkdir(parents=True)
    with pytest.raises(OSError, match="ensemble.csv"):
        run(["uq", "--out", out, "--nu", 300])
    assert_no_child_left()
    assert "ensemble.csv" in capfd.readouterr().err  # the child's traceback


def test_uq_reaps_the_child_before_a_failed_write_propagates(tmp_path):
    argv = ["uq", "--nu", 20000]
    clean, out = tmp_path / "clean", tmp_path / "uq"
    assert run([*argv, "--out", clean]) == 0
    (out / "trace.csv").mkdir(parents=True)
    with pytest.raises(OSError, match="trace.csv"):
        run([*argv, "--out", out])
    # the child wrote its whole file before the exception got here
    assert (out / "ensemble.csv").read_bytes() == (clean / "ensemble.csv").read_bytes()
    assert_no_child_left()


def test_uq_holds_few_sample_long_arrays(tmp_path):
    # the ensemble's columns and the statistics' scratch, with no sample-long
    # list or whole-ensemble temporary: at most 12 floats a sample on the
    # Python heap at once
    nu = 65536
    assert run(["uq", "--out", tmp_path / "warm", "--nu", 64]) == 0
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert run(["uq", "--out", tmp_path / "uq", "--nu", nu]) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 12 * 8 * nu


def test_opt_classical_writes_optimum(tmp_path):
    out = tmp_path / "oc"
    assert run(["opt-classical", "--out", out]) == 0
    doc = json.loads((out / "optimum.json").read_text())
    assert doc["feasible"] is True
    assert doc["objective"] >= doc["certificate"]["value"] - 1e-6
    assert doc["objective_units"] == "kN"
    assert doc["s_opt"] == {"a_mm": 60.0, "c_mm": 50.0}


def test_opt_robust_writes_optimum_and_contours(tmp_path):
    # the shipped problem, and one whose constraint rules out the best robust cells
    active = tmp_path / "active.yaml"
    active.write_text(config_to_text(load_config(default_config_path(), {
        "design.beta1": 0.0, "design.beta2": 0.0, "design.beta3": 0.0, "design.beta4": 1.0,
        "design.y_star_kN": 1.0})))
    for config in (default_config_path(), active):
        out = tmp_path / config.stem
        assert run(["opt-robust", "--config", config, "--out", out, "--nu", 1024,
                    "--grid", "21x11"]) == 0
        doc = json.loads((out / "optimum.json").read_text())
        assert doc["feasible"] is True
        assert doc["constraint_probability"] >= 0.95
        # the certificate is the best robust cell whose constraint cell is >= 1 - p_r
        robust, constraint = (np.loadtxt(out / f"contour_{kind}.csv", delimiter=",",
                                         skiprows=2, usecols=2)
                              for kind in ("robust", "constraint"))
        assert doc["certificate"]["value"] == np.nanmax(robust[constraint >= 0.95])


def test_opt_robust_draws_one_uniform_matrix_for_the_optimizer_and_both_maps(
        tmp_path, monkeypatch):
    drawn, received = [], []
    draw, transform, optimize = (mc_uq.draw_uniform_matrix, mc_uq.sample_inputs,
                                 optimizer.optimize_robust)

    def recorded_draw(seed, nu):
        drawn.append(draw(seed, nu))
        return drawn[-1]

    def recorded_transform(input_model, uniforms):
        received.append(uniforms)
        return transform(input_model, uniforms)

    def recorded_optimize(*args):
        received.append(args[5])
        return optimize(*args)

    monkeypatch.setattr(mc_uq, "draw_uniform_matrix", recorded_draw)
    monkeypatch.setattr(mc_uq, "sample_inputs", recorded_transform)
    monkeypatch.setattr(optimizer, "optimize_robust", recorded_optimize)
    assert run(["opt-robust", "--out", tmp_path, "--nu", 64, "--grid", "5x3"]) == 0
    assert len(drawn) == 1
    # the optimizer, then each sample transform: one per map and one for the ascents
    assert len(received) > 1
    assert all(uniforms is drawn[0] for uniforms in received)


def _reference_fmt(value) -> str:
    # the per-value spelling rules the artifacts have always followed
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _reference_csv(cfg, names, columns) -> str:
    rows = zip(*columns)
    return (cli._header(cfg) + ",".join(names) + "\n"
            + "".join(",".join(_reference_fmt(v) for v in row) + "\n" for row in rows))


def test_csv_spelling_of_special_values(tmp_path):
    cfg = load_config(default_config_path(), {"mc.seed": 5})
    names = ["i", "x", "k", "ok"]
    columns = [range(7),
               np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, 0.1]),
               np.array([0, -1, 2**53 + 1, 7, -(2**62), 10, 3], dtype=np.int64),
               np.array([True, False, True, True, False, False, True])]
    path = tmp_path / "t.csv"
    cli._write_csv(path, cfg, names, columns)
    text = path.read_text()
    assert text == _reference_csv(cfg, names, columns)
    assert text.startswith(f"# brakeopt {__version__} seed=5 config_sha256=")
    assert text.splitlines()[2:] == [
        "0,nan,0,1", "1,inf,-1,0", "2,-inf,9007199254740993,1", "3,-0.0,7,1",
        "4,5e-324,-4611686018427387904,0", "5,1e+300,10,0", "6,0.1,3,1"]


def test_csv_rows_across_block_boundaries_match_reference(tmp_path):
    cfg = default_config()
    n = 2 * cli._BLOCK_ROWS + 1
    rng = np.random.default_rng(11)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    x[::97] = np.nan
    names = ["n", "x", "y", "valid"]
    columns = [range(1, n + 1), x, np.cumsum(x[::-1]), x > 0]
    path = tmp_path / "blocks.csv"
    cli._write_csv(path, cfg, names, columns)
    text = path.read_text()
    assert text == _reference_csv(cfg, names, columns)
    read_back = [float(line.split(",")[1]) for line in text.splitlines()[2:]]
    np.testing.assert_array_equal(read_back, x)


def test_contour_grid_shape_and_values(tmp_path, capsys, cfg, setup):
    out = tmp_path / "ct"
    assert run(["contour", "--out", out, "--grid", "5x3"]) == 0
    lines = (out / "contour_classical.csv").read_text().splitlines()
    assert lines[1] == "a_mm,c_mm,fh_kN"
    assert len(lines) == 2 + 5 * 3
    # row-major: the a axis repeated per c, the c axis tiled, the map's values, bit for bit
    a, c, values = grid_scan(cfg.design.box, 5, 3, classical_values(setup))
    a_mm, c_mm, fh = np.array([[float(v) for v in line.split(",")] for line in lines[2:]]).T
    for got, want in ((a_mm, np.repeat(a, 3)), (c_mm, np.tile(c, 5)), (fh, values.ravel())):
        assert got.tobytes() == want.tobytes()


def test_unknown_contour_kind_is_a_usage_error(tmp_path, capsys):
    # contour writes the classical map only, and opt-robust the other two: no kind is chosen
    for kind in ("classical", "robust", "nonsense"):
        with pytest.raises(SystemExit) as usage:
            run(["contour", "--kind", kind, "--out", tmp_path / "ct"])
        assert usage.value.code == 2
        assert f"unrecognized arguments: --kind {kind}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_every_command_takes_the_common_options_and_uq_alone_the_freeze_flags(capsys):
    common = ["--config", "c.yaml", "--out", "o", "--seed", "3", "--nu", "64", "--grid", "5x3"]
    for command in ("eval", "uq", "opt-classical", "opt-robust", "contour"):
        for argv in ([command, *common], [*common, command], [*common[:4], command, *common[4:]]):
            args = cli._parse_args(argv)
            assert (args.command, args.config, args.out, args.seed, args.nu, args.grid) == (
                command, Path("c.yaml"), "o", 3, 64, (5, 3))
        for flag in ("--freeze-alpha", "--freeze-fs"):
            for argv in ([command, flag, "2.5"], [flag, "2.5", command]):
                if command == "uq":
                    assert vars(cli._parse_args(argv))[flag[2:].replace("-", "_")] == 2.5
                    continue
                with pytest.raises(SystemExit) as usage:
                    cli._parse_args(argv)
                assert usage.value.code == 2
                assert f"{flag} applies to uq only, not to {command}" in capsys.readouterr().err
    # a grid that is not NxM is a usage error of the parser
    with pytest.raises(SystemExit) as usage:
        cli._parse_args(["eval", "--grid", "5by3"])
    assert usage.value.code == 2
    assert "grid must look like 101x51" in capsys.readouterr().err
    # the one help lists every command with its description
    with pytest.raises(SystemExit) as done:
        cli._parse_args(["-h"])
    assert done.value.code == 0
    out = capsys.readouterr().out
    for command in ("eval", "uq", "opt-classical", "opt-robust", "contour"):
        assert re.search(rf"^  {command} +{re.escape(cli._COMMANDS[command][1])}$", out, re.M)
    with pytest.raises(SystemExit) as done:
        cli._parse_args(["--version"])
    assert (done.value.code, capsys.readouterr().out) == (0, f"brakeopt {__version__}\n")


def test_validation_error_maps_to_exit_code_and_json(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(config_to_text(default_config()).replace("friction.mu1: 0.1\n",
                                                            "friction.mu1: 1.5\n"))
    assert run(["eval", "--config", bad]) == 11
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"
    assert err["exit_code"] == 11
    assert "friction coefficient mu1" in err["message"]


def test_unknown_key_maps_to_parse_error_code(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    text = config_to_text(default_config()) + "nonsense.key: 1\n"
    bad.write_text(text)
    assert run(["eval", "--config", bad]) == 10
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError"
    assert err["message"].endswith(f"(line {len(text.splitlines())}, key 'nonsense.key')")


def test_infeasible_constraint_maps_to_exit_code(tmp_path, capsys):
    bad = tmp_path / "hard.yaml"
    bad.write_text(config_to_text(default_config()).replace("design.p_r: 0.05\n",
                                                            "design.p_r: 0.001\n"))
    assert run(["opt-robust", "--config", bad, "--out", tmp_path / "x",
                "--nu", 256, "--grid", "5x3"]) == 18
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NoFeasiblePoint"
    # the cells' probabilities run from 0.97265625 at the first cell to
    # 0.98828125, below 0.999, at (52.5, 52.5) and (55.0, 50.0): the first
    # largest is named
    assert err["message"].endswith(
        "the largest probability is 0.98828125, at (a, c) = (52.5, 52.5) mm")
    assert list((tmp_path / "x").iterdir()) == []


def test_cli_never_mutates_config(tmp_path):
    path = default_config_path()
    before = path.read_bytes()
    run(["uq", "--out", tmp_path / "o", "--nu", 64])
    assert path.read_bytes() == before


def test_seed_and_nu_flags_write_the_same_bytes_as_the_file_keys(tmp_path):
    doc = config_to_text(default_config())
    doc = doc.replace("mc.nu: 4096\n", "mc.nu: 300\n").replace("mc.seed: 0\n", "mc.seed: 5\n")
    assert "mc.nu: 300\n" in doc and "mc.seed: 5\n" in doc
    path = tmp_path / "c.yaml"
    path.write_text(doc)
    assert run(["uq", "--out", tmp_path / "flags", "--seed", 5, "--nu", 300]) == 0
    assert run(["uq", "--out", tmp_path / "file", "--config", path]) == 0
    assert read_bytes(tmp_path / "flags", UQ_FILES) == read_bytes(tmp_path / "file", UQ_FILES)


@pytest.mark.parametrize("flags", [["--nu", 0], ["--grid", "1x5"], ["--seed", -1]])
def test_out_of_range_flags_map_to_validation_code(tmp_path, capsys, flags):
    assert run(["uq", "--out", tmp_path / "o", *flags]) == 11
    assert json.loads(capsys.readouterr().err)["error"] == "ValidationError"
    assert not (tmp_path / "o").exists()


def shipped_with(old, new):
    """The shipped config's document with the line ``old`` replaced by ``new``."""
    doc = config_to_text(default_config())
    assert old in doc
    return doc.replace(old, new)


@pytest.mark.parametrize("doc, error, code", [
    pytest.param(shipped_with("random.alpha_hi_deg: 18.0\n", "random.alpha_hi_deg: 0.0\n"),
                 "ValidationError", 11, id="alpha-support-empty"),
    pytest.param(shipped_with("random.fs_hi_kN: 56.0\n", "random.fs_hi_kN: 0.0\n"),
                 "ValidationError", 11, id="fs-support-empty"),
    pytest.param(shipped_with("random.alpha_hi_deg: 18.0\n", "random.alpha_hi_deg: 90.0\n"),
                 "ValidationError", 11, id="alpha-support-past-90-deg"),
    pytest.param(shipped_with("random.fs_lo_kN: 0.0\n", "random.fs_lo_kN: -1.0\n"),
                 "ValidationError", 11, id="fs-support-negative"),
    pytest.param(shipped_with("random.fs_hi_kN: 56.0\n", "random.fs_hi_kN: .inf\n"),
                 "ValidationError", 11, id="fs-support-infinite"),
    pytest.param(shipped_with("random.alpha_mean_deg: 6.0\n", "random.alpha_mean_deg: 18.0\n"),
                 "MeanOutOfSupport", 14, id="alpha-mean-on-the-bound"),
    pytest.param(shipped_with("loads.Fg_kN: 50.0\n", "loads.Fg_kN: -1.0\n"),
                 "ValidationError", 11, id="negative-load"),
    pytest.param("", "ParseError", 10, id="empty-document"),
    pytest.param("- geometry.a_mm: 55.0\n", "ParseError", 10, id="not-a-mapping"),
])
def test_a_config_its_sections_refuse_fails_before_any_output(tmp_path, capsys, doc, error,
                                                              code):
    bad = tmp_path / "bad.yaml"
    bad.write_text(doc)
    assert run(["uq", "--config", bad, "--out", tmp_path / "o", "--nu", 64]) == code
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["exit_code"]) == (error, code)
    assert not (tmp_path / "o").exists()
    # eval, which writes nothing, refuses the same document
    assert run(["eval", "--config", bad]) == code


def test_a_range_too_narrow_for_sturges_bins_takes_one_bin(tmp_path):
    # Fs on [42, 42 + 3 ulps] with the angle frozen: the 300 forces span a
    # few ulps, where numpy makes at most 8 of Sturges' 10 equal bins
    doc = shipped_with("random.fs_lo_kN: 0.0\n", "random.fs_lo_kN: 42.0\n")
    doc = doc.replace("random.fs_hi_kN: 56.0\n", "random.fs_hi_kN: 42.000000000000014\n")
    doc = doc.replace("random.fs_mean_kN: 42.0\n", "random.fs_mean_kN: 42.00000000000001\n")
    path = tmp_path / "narrow.yaml"
    path.write_text(doc)
    out = tmp_path / "o"
    assert run(["uq", "--config", path, "--freeze-alpha", 6, "--nu", 300, "--out", out]) == 0
    stats = json.loads((out / "stats.json").read_text())
    assert stats["evaluated"] == 300 and stats["stats_kN"]["min"] < stats["stats_kN"]["max"]
    assert stats["histogram"] == {"counts": [300], "edges_kN": [stats["stats_kN"]["min"],
                                                               stats["stats_kN"]["max"]]}


@pytest.mark.parametrize("nu", [_NU_MAX + 1, 10**40])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_nu_numpy_cannot_allocate_is_a_validation_error(tmp_path, capsys, nu, via):
    if via == "flag":
        argv = ["uq", "--nu", nu]
    else:
        bad = tmp_path / "bad.yaml"
        bad.write_text(config_to_text(default_config()).replace("mc.nu: 4096\n", f"mc.nu: {nu}\n"))
        argv = ["uq", "--config", bad]
    assert run([*argv, "--out", tmp_path / "o"]) == 11
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["exit_code"]) == ("ValidationError", 11)
    assert "mc.nu" in err["message"]
    assert not (tmp_path / "o").exists()


# a config edit in an argv of the table below: the argument is replaced by the
# path of the shipped config with ``old`` replaced by ``new``
UNREACHABLE_Y_STAR = ("design.y_star_kN: 0.5\n", "design.y_star_kN: 1000.0\n")
# den4 = mu4*(n+l) - m = 0.0: no design and no sample of this plant can be evaluated
SINGULAR_PLANT = ("geometry.m_mm: 40.0\n", "geometry.m_mm: 9.975\n")
# no denominator is near 0, but every force of the map overflows
HUGE_LOAD = ("loads.Fg_kN: 50.0\n", "loads.Fg_kN: 1.0e+307\n")


@pytest.mark.parametrize("argv, code", [
    (["uq", "--nu", 1], 15),
    (["uq", "--freeze-alpha", 95], 11),
    (["uq", "--freeze-alpha", -10], 11),
    (["uq", "--freeze-alpha", "nan"], 11),
    (["uq", "--freeze-fs", -5], 11),
    (["uq", "--freeze-fs", "inf"], 11),
    (["opt-robust", "--nu", 1, "--grid", "3x2"], 15),
    # a singular plant or no design that meets the constraint: the sample
    # count is still checked first, before any design is evaluated
    (["opt-robust", "--config", SINGULAR_PLANT, "--nu", 1, "--grid", "3x2"], 15),
    (["opt-robust", "--config", UNREACHABLE_Y_STAR, "--nu", 1, "--grid", "3x2"], 15),
    # a singular plant is one error, raised by the first kernel call of every command
    (["uq", "--config", SINGULAR_PLANT, "--nu", 300], 12),
    (["opt-classical", "--config", SINGULAR_PLANT, "--grid", "5x3"], 12),
    (["opt-robust", "--config", SINGULAR_PLANT, "--nu", 64, "--grid", "5x3"], 12),
    (["contour", "--config", SINGULAR_PLANT, "--grid", "5x3"], 12),
    # the (nu, 2) uniform matrix would take 8 EiB, past the address space, so
    # numpy allocates nothing
    (["uq", "--nu", _NU_MAX], 21),
    (["opt-robust", "--nu", _NU_MAX], 21),
    (["opt-classical", "--config", HUGE_LOAD, "--grid", "5x3"], 19),
])
def test_failing_run_writes_no_artifact(tmp_path, capsys, argv, code):
    def edited_config(old, new):
        doc = config_to_text(default_config())
        assert old in doc
        path = tmp_path / "edited.yaml"
        path.write_text(doc.replace(old, new))
        return path

    argv = [edited_config(*arg) if isinstance(arg, tuple) else arg for arg in argv]
    out = tmp_path / "o"
    assert run([*argv, "--out", out]) == code
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == code
    if code == 12:
        assert err["error"] == "SingularDenominator" and "mu4*(n+l) - m" in err["message"]
    if code == 21:
        assert err["error"] == "OutOfMemory" and "allocate" in err["message"]
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", [["uq", "--nu", 8], ["opt-classical"], ["opt-robust"],
                                     ["contour"]])
def test_unusable_output_dir_fails_before_any_model_work(tmp_path, capsys, monkeypatch, command):
    def no_model_work(cfg):
        raise AssertionError("model work started before the output directory was made")

    monkeypatch.setattr(cli.cfgmod, "input_model_from", no_model_work)
    monkeypatch.setattr(cli.cfgmod, "setup_from", no_model_work)
    monkeypatch.chdir(tmp_path)  # an empty --out would write here
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    for out in (taken, ""):
        assert run([*command, "--out", out]) == 11
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["exit_code"]) == ("ValidationError", 11)
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        assert taken.read_text() == "not a directory\n"


@pytest.mark.parametrize("key, cls, field, value", [
    ("design.beta4", RobustWeights, "beta4", math.nan),
    ("design.a_max_mm", DesignBox, "a_max", math.inf),
    ("design.c_min_mm", DesignBox, "c_min", -math.inf),
    ("design.a_min_mm", DesignBox, "a_min", 0.0),
    ("design.c_min_mm", DesignBox, "c_min", -1.0),
    ("design.y_star_kN", ConstraintSpec, "y_star", math.nan),
    ("design.y_star_kN", ConstraintSpec, "y_star", math.inf),
])
def test_non_finite_design_inputs_are_rejected_where_built(tmp_path, capsys, key, cls, field,
                                                           value):
    with pytest.raises(ValidationError):
        cls(**{field: value})
    spelling = {"nan": ".nan", "inf": ".inf", "-inf": "-.inf"}.get(repr(value), repr(value))
    doc, n = re.subn(rf"^{re.escape(key)}: .*$", f"{key}: {spelling}",
                     config_to_text(default_config()), flags=re.M)
    assert n == 1
    bad = tmp_path / "bad.yaml"
    bad.write_text(doc)
    assert run(["opt-robust", "--config", bad, "--out", tmp_path / "o", "--nu", 64,
                "--grid", "5x3"]) == 11
    assert json.loads(capsys.readouterr().err)["error"] == "ValidationError"
    assert not (tmp_path / "o").exists()  # rejected while the config is built
