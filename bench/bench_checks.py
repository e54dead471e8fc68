"""Correctness checks on the artifacts of one benchmark command.

Each check returns a list of problems; an empty list means the artifacts
are correct.  The checks recompute results through routes independent of
the one the command took wherever the package offers one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

from brakeopt import config, maxent, mc_uq, mechmodel, optimizer

RTOL = 1e-9
ATOL = 1e-9  # kN for forces, absolute units of the compared quantity otherwise
ORACLE_ROWS = 64


def close(value, reference) -> bool:
    return abs(value - reference) <= ATOL + RTOL * abs(reference)


def artifact_hashes(out: Path) -> dict:
    """sha256 and size of every file the command wrote, by file name."""
    return {p.name: {"sha256": hashlib.sha256(p.read_bytes()).hexdigest(), "bytes": p.stat().st_size}
            for p in sorted(out.iterdir()) if p.is_file()}


def _data_lines(path: Path):
    """CSV rows after the provenance header and the column line."""
    return path.read_text(encoding="utf-8").splitlines()[2:]


def _load_json(path: Path, seed: int, problems: list):
    body = json.loads(path.read_text(encoding="utf-8"))
    if body["provenance"]["seed"] != seed:
        problems.append(f"{path.name}: provenance seed {body['provenance']['seed']} != {seed}")
    return body


def oracle(cfg, geom, seed: int, rows):
    """(alpha_deg, fs_kN, solution) of the given sample rows by a route
    independent of the commands: per-index uniforms, exact inverse CDFs and
    the dense 6x6 equilibrium solve instead of the closed form."""
    model = config.input_model_from(cfg)
    for i in rows:
        u = mc_uq.uniform_row(seed, i)
        alpha = maxent.sample_inverse_cdf(model.alpha_dist, float(u[0]))
        fs = maxent.sample_inverse_cdf(model.fs_dist, float(u[1]))
        yield alpha, fs, mechmodel.solve_equilibrium(geom, cfg.friction, mechmodel.LoadCase.from_degrees(
            Fg=cfg.loads.Fg_kN, Fb=cfg.loads.Fb_kN, Fs=fs, alpha_deg=alpha))


def check_uq(out: Path, seed: int, nu: int, grid) -> list:
    problems = []
    cfg = config.default_config()
    table = np.loadtxt(out / "ensemble.csv", delimiter=",", skiprows=2, ndmin=2)
    if table.shape != (nu, 5):
        return [f"ensemble.csv: shape {table.shape}, expected ({nu}, 5)"]
    if not np.array_equal(table[:, 0], np.arange(nu)):
        problems.append("ensemble.csv: index column is not 0..nu-1")

    rows = np.random.default_rng(seed).choice(nu, size=min(ORACLE_ROWS, nu), replace=False)
    rows = sorted({0, nu - 1, *rows.tolist()})
    for i, (alpha, fs, sol) in zip(rows, oracle(cfg, cfg.geometry, seed, rows)):
        _, a_csv, fs_csv, fh_csv, valid_csv = table[i].tolist()
        if not (close(a_csv, alpha) and close(fs_csv, fs) and close(fh_csv, sol.Fh)):
            problems.append(f"ensemble.csv row {i}: ({a_csv!r}, {fs_csv!r}, {fh_csv!r}) "
                            f"!= oracle ({alpha!r}, {fs!r}, {sol.Fh!r})")
        normals = (sol.N1, sol.N2, sol.N3, sol.N4)
        if min(abs(v) for v in normals) > 1e-6 and bool(valid_csv) != sol.valid:
            problems.append(f"ensemble.csv row {i}: valid={valid_csv} != oracle {sol.valid}")

    fh = table[:, 3]
    finite = fh[np.isfinite(fh)]
    stats = _load_json(out / "stats.json", seed, problems)
    if stats["nu"] != nu or stats["evaluated"] != finite.size:
        problems.append(f"stats.json: nu/evaluated {stats['nu']}/{stats['evaluated']} "
                        f"!= {nu}/{finite.size}")
    if stats["invalid_count"] != int(np.count_nonzero(table[:, 4] == 0)):
        problems.append("stats.json: invalid_count disagrees with the valid column")
    if not close(stats["stats_kN"]["mean"], float(np.mean(finite))):
        problems.append(f"stats.json: mean {stats['stats_kN']['mean']!r} != column mean "
                        f"{float(np.mean(finite))!r}")
    if len(_data_lines(out / "trace.csv")) != finite.size:
        problems.append("trace.csv: row count != evaluated samples")
    return problems


def _check_optimum(body: dict, command: str, problems: list) -> None:
    if body["command"] != command:
        problems.append(f"optimum.json: command {body['command']!r} != {command!r}")
    if body["feasible"] is not True:
        problems.append("optimum.json: not feasible")
    if not body["objective"] >= body["certificate"]["value"]:
        problems.append(f"optimum.json: objective {body['objective']!r} undercuts the "
                        f"certificate {body['certificate']['value']!r}")


def _design(body: dict) -> optimizer.DesignPoint:
    return optimizer.DesignPoint(a=body["s_opt"]["a_mm"], c=body["s_opt"]["c_mm"])


def check_opt_robust(out: Path, seed: int, nu: int, grid) -> list:
    problems = []
    cfg = config.default_config()
    body = _load_json(out / "optimum.json", seed, problems)
    _check_optimum(body, "opt-robust", problems)
    threshold = 1.0 - cfg.design.constraint.p_r
    if not body["constraint_probability"] >= threshold:
        problems.append(f"optimum.json: constraint probability {body['constraint_probability']!r} "
                        f"< {threshold!r}")
    s = _design(body)
    value = optimizer.robust_objective(
        s, cfg.design.weights, mc_uq.draw_uniform_matrix(seed, nu),
        config.input_model_from(cfg), config.setup_from(cfg))
    if not close(value, body["objective"]):
        problems.append(f"optimum.json: objective {body['objective']!r} != robust_objective "
                        f"at s_opt {value!r}")

    # the same objective and constraint from the independent route
    geom = dataclasses.replace(cfg.geometry, a=s.a, c=s.c)
    fh = np.array([sol.Fh for _, _, sol in oracle(cfg, geom, seed, range(nu))])
    w = cfg.design.weights
    value = float(w.beta1 * np.min(fh) + w.beta2 * np.max(fh) + w.beta3 * np.mean(fh)
                  + w.beta4 / np.std(fh, ddof=1))
    prob = np.count_nonzero(np.abs(fh) > cfg.design.constraint.y_star) / nu
    if not close(value, body["objective"]):
        problems.append(f"optimum.json: objective {body['objective']!r} != oracle {value!r}")
    if abs(prob - body["constraint_probability"]) > 1.0 / nu:
        problems.append(f"optimum.json: constraint probability {body['constraint_probability']!r} "
                        f"!= oracle {prob!r}")

    maps = {}
    for kind in ("robust", "constraint"):
        lines = _data_lines(out / f"contour_{kind}.csv")
        if len(lines) != grid[0] * grid[1]:
            problems.append(f"contour_{kind}.csv: {len(lines)} rows != {grid[0]}x{grid[1]}")
            return problems
        maps[kind] = np.array([float(line.rsplit(",", 1)[1]) for line in lines])
    feasible = (maps["constraint"] >= threshold) & np.isfinite(maps["robust"])
    best = float(np.max(maps["robust"], where=feasible, initial=-np.inf))
    if not close(best, body["certificate"]["value"]):
        problems.append(f"contours: best feasible cell {best!r} != certificate "
                        f"{body['certificate']['value']!r}")
    return problems


def check_opt_classical(out: Path, seed: int, nu: int, grid) -> list:
    problems = []
    cfg = config.default_config()
    body = _load_json(out / "optimum.json", seed, problems)
    _check_optimum(body, "opt-classical", problems)
    s = _design(body)
    geom = dataclasses.replace(cfg.geometry, a=s.a, c=s.c)
    sol = mechmodel.solve_equilibrium(geom, cfg.friction, config.nominal_load(cfg))
    if not close(sol.Fh, body["objective"]):
        problems.append(f"optimum.json: objective {body['objective']!r} != solve_equilibrium "
                        f"at s_opt {sol.Fh!r}")
    return problems
