"""Command-line front end: config in, CSV/JSON artifacts out.

Commands: eval, uq, opt-classical, opt-robust, contour.  Every output file
starts with a header recording the tool version, the seed and the hash of
the effective config, so any artifact can be traced back to its run.  No
command mutates the config file or any other input.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__, config as cfgmod, mc_uq, mechmodel, optimizer
from .errors import BrakeOptError, ParseError, ValidationError


def _header(cfg, seed) -> str:
    return f"# brakeopt {__version__} seed={seed} config_sha256={cfgmod.config_sha256(cfg)[:12]}\n"


# rows formatted and written per block: large enough to amortize the
# per-block overhead, small enough that the text buffer stays a few hundred kB
_BLOCK_ROWS = 2048


def _cells(column, lo: int, hi: int):
    """Text of rows lo:hi of one column: ``1``/``0`` for bools, else the
    ``repr`` of the Python value (shortest round-trip spelling for floats,
    plain decimals for ints)."""
    part = column[lo:hi]
    if isinstance(part, range):
        return map(repr, part)
    values = part.tolist()
    if part.dtype == np.bool_:
        return ["1" if v else "0" for v in values]
    return map(repr, values)


def _write_csv(path: Path, cfg, seed, names, columns) -> None:
    """Write equal-length 1-D columns (numpy arrays or ranges) under a
    provenance header and a line of column names."""
    nrows = len(columns[0])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_header(cfg, seed))
        fh.write(",".join(names) + "\n")
        for lo in range(0, nrows, _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, nrows)
            rows = zip(*(_cells(col, lo, hi) for col in columns))
            fh.write("\n".join(map(",".join, rows)) + "\n")


def _write_json(path: Path, cfg, seed, payload: dict) -> None:
    body = {
        "provenance": {
            "tool": "brakeopt",
            "version": __version__,
            "seed": seed,
            "config_sha256": cfgmod.config_sha256(cfg),
        },
        **payload,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(body, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _out_dir(cfg) -> Path:
    """Create the output directory; called before any model work, so an
    unusable directory fails fast with a stable exit code."""
    path = Path(cfg.output.dir)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"output.dir must be a usable directory ({exc.strerror})",
                              str(path)) from exc
    return path


def _grid_arg(text: str):
    m = re.fullmatch(r"(\d+)x(\d+)", text)
    if not m:
        raise argparse.ArgumentTypeError("grid must look like 101x51")
    return int(m.group(1)), int(m.group(2))


def cmd_eval(cfg) -> int:
    sol = mechmodel.braking_force(cfg.geometry, cfg.friction, cfgmod.nominal_load(cfg))
    print(f"alpha_deg = {cfg.random.alpha_mean_deg!r}")
    print(f"Fs_kN = {cfg.random.fs_mean_kN!r}")
    for name in ("N1", "N2", "N3", "N4", "T1", "T2", "T3", "T4", "Rx", "Ry", "Fh"):
        print(f"{name}_kN = {getattr(sol, name)!r}")
    print(f"valid = {'true' if sol.valid else 'false'}")
    return 0


def cmd_uq(cfg, freeze_alpha, freeze_fs) -> int:
    out = _out_dir(cfg)
    seed, nu = cfg.mc.seed, cfg.mc.nu
    model = cfgmod.input_model_from(cfg)
    uniforms = mc_uq.draw_uniform_matrix(seed, nu)
    ens = mc_uq.propagate(
        model, uniforms, cfg.geometry, cfg.friction,
        cfg.loads.Fg_kN, cfg.loads.Fb_kN,
        freeze_alpha_deg=freeze_alpha, freeze_fs_kn=freeze_fs)
    # summarized before the first write, so a failing run leaves no artifact
    finite = ens.outputs[np.isfinite(ens.outputs)]
    stats = mc_uq.summarize(finite)

    _write_csv(out / "ensemble.csv", cfg, seed,
               ["index", "alpha_deg", "fs_kN", "fh_kN", "valid"],
               [range(ens.nu), ens.inputs[:, 0], ens.inputs[:, 1], ens.outputs, ens.valid])
    _write_json(out / "stats.json", cfg, seed, {
        "nu": ens.nu,
        "evaluated": int(finite.size),
        "invalid_count": ens.invalid_count,
        "stats_kN": {
            "mean": stats.mean,
            "std": stats.std,
            "min": stats.min,
            "max": stats.max,
            "ci95_quantile": list(stats.ci95),
            "ci95_normal": list(stats.ci95_normal),
        },
        "histogram": {
            "edges_kN": [float(v) for v in stats.hist_edges],
            "counts": [int(v) for v in stats.hist_counts],
        },
    })

    running_mean, running_std = mc_uq.convergence_trace(finite)
    _write_csv(out / "trace.csv", cfg, seed,
               ["n", "running_mean_kN", "running_std_kN"],
               [range(1, finite.size + 1), running_mean, running_std])

    if stats.kde_grid is not None:
        _write_csv(out / "kde.csv", cfg, seed,
                   ["fh_kN", "density_per_kN"],
                   [stats.kde_grid, stats.kde_density])
    print(f"uq: nu={nu} seed={seed} mean={stats.mean:.6g} kN std={stats.std:.6g} kN "
          f"invalid={ens.invalid_count} -> {out}")
    return 0


def _optimum_payload(result: optimizer.OptimizationResult, units: str) -> dict:
    payload = {
        "s_opt": {"a_mm": result.s_opt.a, "c_mm": result.s_opt.c},
        "objective": result.objective,
        "objective_units": units,
        "feasible": result.feasible,
        "evaluations": result.evaluations,
        "certificate": {
            "value": result.certificate_value,
            "a_mm": result.certificate_point.a,
            "c_mm": result.certificate_point.c,
        },
    }
    if result.constraint_prob is not None:
        payload["constraint_probability"] = result.constraint_prob
    return payload


def _write_contour(cfg, kind: str, setup: optimizer.ModelSetup, model, out: Path) -> Path:
    """Scan the ``kind`` map on the config's grid and write it as CSV;
    ``model`` is the input model (None for the classical map)."""
    scan = optimizer.grid_scan(
        cfg.design.box, cfg.output.grid_nx, cfg.output.grid_ny, kind, setup,
        input_model=model, weights=cfg.design.weights,
        cspec=cfg.design.constraint, seed=cfg.mc.seed, nu=cfg.mc.nu)
    value_col = {"classical": "fh_kN", "robust": "objective", "constraint": "probability"}
    a, c = scan.a_values, scan.c_values
    path = out / f"contour_{kind}.csv"
    _write_csv(path, cfg, cfg.mc.seed, ["a_mm", "c_mm", value_col[kind]],
               [np.repeat(a, len(c)), np.tile(c, len(a)), scan.values.ravel()])
    return path


def cmd_opt_classical(cfg) -> int:
    out = _out_dir(cfg)
    setup = cfgmod.setup_from(cfg)
    result = optimizer.optimize_classical(
        cfg.design.box, setup, grid=(cfg.output.grid_nx, cfg.output.grid_ny))
    _write_json(out / "optimum.json", cfg, cfg.mc.seed,
                {"command": "opt-classical", **_optimum_payload(result, "kN")})
    print(f"opt-classical: s_opt=({result.s_opt.a:.6g}, {result.s_opt.c:.6g}) mm "
          f"Fh={result.objective:.6g} kN -> {out / 'optimum.json'}")
    return 0


def cmd_opt_robust(cfg) -> int:
    out = _out_dir(cfg)
    setup = cfgmod.setup_from(cfg)
    model = cfgmod.input_model_from(cfg)
    result = optimizer.optimize_robust(
        cfg.design.box, cfg.design.weights, cfg.design.constraint,
        cfg.mc.seed, setup, model, nu=cfg.mc.nu, grid=(cfg.output.grid_nx, cfg.output.grid_ny))
    _write_json(out / "optimum.json", cfg, cfg.mc.seed,
                {"command": "opt-robust", **_optimum_payload(result, "weighted")})
    for kind in ("robust", "constraint"):
        _write_contour(cfg, kind, setup, model, out)
    print(f"opt-robust: s_opt=({result.s_opt.a:.6g}, {result.s_opt.c:.6g}) mm "
          f"objective={result.objective:.6g} feasible={result.feasible} -> {out}")
    return 0


def cmd_contour(cfg, kind: str) -> int:
    out = _out_dir(cfg)
    setup = cfgmod.setup_from(cfg)
    model = cfgmod.input_model_from(cfg) if kind != "classical" else None
    path = _write_contour(cfg, kind, setup, model, out)
    print(f"contour: kind={kind} grid={cfg.output.grid_nx}x{cfg.output.grid_ny} -> {path}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brakeopt",
        description="Safety-gear brake model: evaluation, Monte Carlo UQ and design optimization.")
    parser.add_argument("--version", action="version", version=f"brakeopt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, default=None,
                       help="config file (default: shipped configuration)")
        p.add_argument("--out", type=str, default=None, help="output directory override")
        p.add_argument("--seed", type=int, default=None, help="Monte Carlo seed override")
        p.add_argument("--nu", type=int, default=None, help="sample count override")
        p.add_argument("--grid", type=_grid_arg, default=None, help="grid override, e.g. 101x51")

    common(sub.add_parser("eval", help="print the deterministic force balance"))

    p_uq = sub.add_parser("uq", help="propagate input uncertainty, write ensemble artifacts")
    common(p_uq)
    p_uq.add_argument("--freeze-alpha", type=float, default=None, metavar="DEG",
                      help="hold the cam angle fixed at this value")
    p_uq.add_argument("--freeze-fs", type=float, default=None, metavar="KN",
                      help="hold the spring force fixed at this value")

    common(sub.add_parser("opt-classical", help="maximize nominal braking force over the box"))
    common(sub.add_parser("opt-robust", help="maximize the robust objective under the chance constraint"))

    p_ct = sub.add_parser("contour", help="write one dense grid map as CSV")
    common(p_ct)
    p_ct.add_argument("--kind", choices=optimizer.GRID_KINDS, required=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    flags = {"mc.seed": args.seed, "mc.nu": args.nu, "output.dir": args.out}
    if args.grid is not None:
        flags["output.grid_nx"], flags["output.grid_ny"] = args.grid
    overrides = {key: value for key, value in flags.items() if value is not None}
    try:
        path = cfgmod.default_config_path() if args.config is None else args.config
        cfg = cfgmod.load_config(path, overrides)

        if args.command == "eval":
            return cmd_eval(cfg)
        if args.command == "uq":
            return cmd_uq(cfg, args.freeze_alpha, args.freeze_fs)
        if args.command == "opt-classical":
            return cmd_opt_classical(cfg)
        if args.command == "opt-robust":
            return cmd_opt_robust(cfg)
        if args.command == "contour":
            return cmd_contour(cfg, args.kind)
        raise ParseError(f"unknown command {args.command!r}")
    except BrakeOptError as exc:
        json.dump({"error": type(exc).__name__,
                   "exit_code": exc.exit_code,
                   "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
