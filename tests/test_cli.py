"""CLI surface: artifacts, headers, determinism, error mapping."""

import json
import math
import re

import numpy as np
import pytest

from brakeopt import ConstraintSpec, DesignBox, RobustWeights, ValidationError, cli
from brakeopt.cli import main
from brakeopt.config import config_to_text, default_config, default_config_path

UQ_FILES = ("ensemble.csv", "stats.json", "trace.csv", "kde.csv")


def run(argv):
    return main([str(a) for a in argv])


def read_bytes(directory, names):
    return {name: (directory / name).read_bytes() for name in names}


def test_eval_prints_solution(capsys):
    assert run(["eval"]) == 0
    out = capsys.readouterr().out
    assert "Fh_kN = 7.2693735011397305" in out
    assert "N4_kN = 11.656952539550375" in out
    assert "valid = true" in out


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


def test_uq_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["uq", "--out", a, "--seed", 7]) == 0
    assert run(["uq", "--out", b, "--seed", 7]) == 0
    assert read_bytes(a, UQ_FILES) == read_bytes(b, UQ_FILES)


def test_uq_freeze_flags(tmp_path):
    out = tmp_path / "frozen"
    assert run(["uq", "--out", out, "--nu", 128, "--freeze-fs", 42.0]) == 0
    rows = (out / "ensemble.csv").read_text().splitlines()[2:]
    assert all(row.split(",")[2] == "42.0" for row in rows)


def test_opt_classical_writes_optimum(tmp_path):
    out = tmp_path / "oc"
    assert run(["opt-classical", "--out", out]) == 0
    doc = json.loads((out / "optimum.json").read_text())
    assert doc["feasible"] is True
    assert doc["objective"] >= doc["certificate"]["value"] - 1e-6
    assert doc["objective_units"] == "kN"
    assert doc["s_opt"] == {"a_mm": 60.0, "c_mm": 50.0}


def test_opt_robust_writes_optimum_and_contours(tmp_path):
    out = tmp_path / "orb"
    assert run(["opt-robust", "--out", out, "--nu", 1024, "--grid", "21x11"]) == 0
    doc = json.loads((out / "optimum.json").read_text())
    assert doc["feasible"] is True
    assert doc["constraint_probability"] >= 0.95
    assert (out / "contour_robust.csv").exists()
    assert (out / "contour_constraint.csv").exists()


def test_opt_robust_contours_match_contour_command(tmp_path):
    common = ["--seed", 3, "--nu", 128, "--grid", "7x5"]
    assert run(["opt-robust", "--out", tmp_path / "orb", *common]) == 0
    for kind in ("robust", "constraint"):
        assert run(["contour", "--kind", kind, "--out", tmp_path / kind, *common]) == 0
        name = f"contour_{kind}.csv"
        assert (tmp_path / "orb" / name).read_bytes() == (tmp_path / kind / name).read_bytes()


def _reference_fmt(value) -> str:
    # the per-value spelling rules the artifacts have always followed
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _reference_csv(cfg, seed, names, columns) -> str:
    rows = zip(*columns)
    return (cli._header(cfg, seed) + ",".join(names) + "\n"
            + "".join(",".join(_reference_fmt(v) for v in row) + "\n" for row in rows))


def test_csv_spelling_of_special_values(tmp_path):
    cfg = default_config()
    names = ["i", "x", "k", "ok"]
    columns = [range(7),
               np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, 0.1]),
               np.array([0, -1, 2**53 + 1, 7, -(2**62), 10, 3], dtype=np.int64),
               np.array([True, False, True, True, False, False, True])]
    path = tmp_path / "t.csv"
    cli._write_csv(path, cfg, 5, names, columns)
    text = path.read_text()
    assert text == _reference_csv(cfg, 5, names, columns)
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
    cli._write_csv(path, cfg, 0, names, columns)
    text = path.read_text()
    assert text == _reference_csv(cfg, 0, names, columns)
    read_back = [float(line.split(",")[1]) for line in text.splitlines()[2:]]
    np.testing.assert_array_equal(read_back, x)


def test_contour_grid_shape_and_values(tmp_path, capsys):
    out = tmp_path / "ct"
    assert run(["contour", "--kind", "classical", "--out", out, "--grid", "5x3"]) == 0
    lines = (out / "contour_classical.csv").read_text().splitlines()
    assert lines[1] == "a_mm,c_mm,fh_kN"
    assert len(lines) == 2 + 5 * 3
    first = lines[2].split(",")
    assert (float(first[0]), float(first[1])) == (50.0, 50.0)


def test_validation_error_maps_to_exit_code_and_json(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(config_to_text(default_config()).replace("friction.mu1: 0.1\n",
                                                            "friction.mu1: 1.5\n"))
    assert run(["eval", "--config", bad]) == 11
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"
    assert err["exit_code"] == 11


def test_unknown_key_maps_to_parse_error_code(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(config_to_text(default_config()) + "nonsense.key: 1\n")
    assert run(["eval", "--config", bad]) == 10
    assert json.loads(capsys.readouterr().err)["error"] == "ParseError"


def test_missing_config_file_maps_to_parse_error(tmp_path, capsys):
    assert run(["eval", "--config", tmp_path / "absent.yaml"]) == 10
    capsys.readouterr()


def test_infeasible_constraint_maps_to_exit_code(tmp_path, capsys):
    bad = tmp_path / "hard.yaml"
    bad.write_text(config_to_text(default_config()).replace("design.y_star_kN: 0.5\n",
                                                            "design.y_star_kN: 1000.0\n"))
    assert run(["opt-robust", "--config", bad, "--out", tmp_path / "x",
                "--nu", 256, "--grid", "5x3"]) == 18
    assert json.loads(capsys.readouterr().err)["error"] == "NoFeasiblePoint"


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


@pytest.mark.parametrize("flags", [["--nu", 0], ["--grid", "1x5"]])
def test_out_of_range_flags_map_to_validation_code(tmp_path, capsys, flags):
    assert run(["uq", "--out", tmp_path / "o", *flags]) == 11
    assert json.loads(capsys.readouterr().err)["error"] == "ValidationError"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, code", [
    (["uq", "--nu", 1], 15),
    (["uq", "--freeze-alpha", 95], 11),
    (["uq", "--freeze-alpha", -10], 11),
    (["uq", "--freeze-alpha", "nan"], 11),
    (["uq", "--freeze-fs", -5], 11),
    (["uq", "--freeze-fs", "inf"], 11),
    (["opt-robust", "--nu", 1, "--grid", "3x2"], 15),
    (["contour", "--kind", "robust", "--nu", 1, "--grid", "3x2"], 15),
])
def test_failing_run_writes_no_artifact(tmp_path, capsys, argv, code):
    out = tmp_path / "o"
    assert run([*argv, "--out", out]) == code
    assert json.loads(capsys.readouterr().err)["exit_code"] == code
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", [["uq", "--nu", 8], ["opt-classical"], ["opt-robust"],
                                     ["contour", "--kind", "classical"]])
def test_unusable_output_dir_fails_before_any_model_work(tmp_path, capsys, monkeypatch, command):
    def no_model_work(cfg):
        raise AssertionError("model work started before the output directory was made")

    monkeypatch.setattr(cli.cfgmod, "input_model_from", no_model_work)
    monkeypatch.setattr(cli.cfgmod, "setup_from", no_model_work)
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    assert run([*command, "--out", taken]) == 11
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
