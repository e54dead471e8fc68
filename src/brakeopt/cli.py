"""Command-line front end: config in, CSV/JSON artifacts out.

Commands: eval, uq, opt-classical, opt-robust, contour.  Every output file
starts with a header recording the tool version, the seed and the hash of
the effective config, so any artifact can be traced back to its run.  No
command mutates the config file or any other input.  ``uq`` writes
``ensemble.csv`` in a forked child, so it needs ``os.fork`` (Linux, macOS).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__, config as cfgmod, mc_uq, mechmodel, optimizer
from .errors import BrakeOptError, OutOfMemory, ValidationError


def _header(cfg) -> str:
    return f"# brakeopt {__version__} seed={cfg.mc.seed} config_sha256={cfgmod.config_sha256(cfg)[:12]}\n"


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


def _write_csv(path: Path, cfg, names, columns) -> None:
    """Write equal-length 1-D columns (numpy arrays or ranges) under a
    provenance header and a line of column names."""
    nrows = len(columns[0])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_header(cfg))
        fh.write(",".join(names) + "\n")
        for lo in range(0, nrows, _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, nrows)
            rows = zip(*(_cells(col, lo, hi) for col in columns))
            fh.write("\n".join(map(",".join, rows)) + "\n")


@contextlib.contextmanager
def _csv_in_child(path: Path, cfg, names, columns):
    """Write ``path`` with :func:`_write_csv` in a forked child while the
    body of the ``with`` runs in this process, then reap the child.

    The child leaves only by ``os._exit``, so it never returns into the
    caller, runs no ``atexit`` handler and flushes no inherited stdout
    buffer; it calls no BLAS and starts no thread.  A failed write prints
    its traceback to stderr in the child, and once the body is done this
    process raises OSError naming the file.  The child is reaped even when
    the body raises, so no process outlives the ``with``."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            _write_csv(path, cfg, names, columns)
            code = 0
        except BaseException:
            sys.excepthook(*sys.exc_info())
            sys.stderr.flush()
        finally:
            os._exit(code)
    try:
        yield
    finally:
        status = os.waitpid(pid, 0)[1]
    if status != 0:
        raise OSError(f"writing {path} failed in its child process "
                      f"(exit code {os.waitstatus_to_exitcode(status)})")


def _write_json(path: Path, cfg, payload: dict) -> None:
    body = {
        "provenance": {
            "tool": "brakeopt",
            "version": __version__,
            "seed": cfg.mc.seed,
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


def cmd_eval(cfg, args) -> int:
    sol = mechmodel.braking_force(cfg.geometry, cfg.friction, cfgmod.nominal_load(cfg))
    print(f"alpha_deg = {cfg.random.alpha_mean_deg!r}")
    print(f"Fs_kN = {cfg.random.fs_mean_kN!r}")
    for name in ("N1", "N2", "N3", "N4", "T1", "T2", "T3", "T4", "Rx", "Ry", "Fh"):
        print(f"{name}_kN = {getattr(sol, name)!r}")
    print(f"valid = {'true' if sol.valid else 'false'}")
    return 0


def cmd_uq(cfg, args) -> int:
    out = _out_dir(cfg)
    seed, nu = cfg.mc.seed, cfg.mc.nu
    model = cfgmod.input_model_from(cfg)
    uniforms = mc_uq.draw_uniform_matrix(seed, nu)
    ens = mc_uq.propagate(
        model, uniforms, cfg.geometry, cfg.friction,
        cfg.loads.Fg_kN, cfg.loads.Fb_kN,
        freeze_alpha_deg=args.freeze_alpha, freeze_fs_kn=args.freeze_fs)
    del uniforms  # no artifact needs them, and they are 2 floats a sample
    # summarized before the first write, so a failing run leaves no artifact
    finite = ens.outputs[np.isfinite(ens.outputs)]
    stats = mc_uq.summarize(finite)

    # the largest artifact is written by a child on another core, in parallel
    # with the rest; each is bound by repr, one core makes its bytes no faster
    with _csv_in_child(out / "ensemble.csv", cfg,
                       ["index", "alpha_deg", "fs_kN", "fh_kN", "valid"],
                       [range(ens.nu), ens.alpha_deg, ens.fs_kN, ens.outputs, ens.valid]):
        _write_json(out / "stats.json", cfg, {
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
        _write_csv(out / "trace.csv", cfg,
                   ["n", "running_mean_kN", "running_std_kN"],
                   [range(1, finite.size + 1), running_mean, running_std])

        if stats.kde_grid is not None:
            _write_csv(out / "kde.csv", cfg,
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
        "feasible": True,  # optimize_robust raises NoFeasiblePoint instead
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


# contour kind -> the value column of its CSV
_VALUE_COLUMNS = {"classical": "fh_kN", "robust": "objective", "constraint": "probability"}


def _write_contour(cfg, kind: str, scan, out: Path) -> Path:
    """Write the ``kind`` map ``scan = (a_values, c_values, values)`` as CSV."""
    a, c, values = scan
    path = out / f"contour_{kind}.csv"
    _write_csv(path, cfg, ["a_mm", "c_mm", _VALUE_COLUMNS[kind]],
               [np.repeat(a, len(c)), np.tile(c, len(a)), values.ravel()])
    return path


def cmd_opt_classical(cfg, args) -> int:
    out = _out_dir(cfg)
    setup = cfgmod.setup_from(cfg)
    result = optimizer.optimize_classical(
        cfg.design.box, setup, grid=(cfg.output.grid_nx, cfg.output.grid_ny))
    _write_json(out / "optimum.json", cfg,
                {"command": "opt-classical", **_optimum_payload(result, "kN")})
    print(f"opt-classical: s_opt=({result.s_opt.a:.6g}, {result.s_opt.c:.6g}) mm "
          f"Fh={result.objective:.6g} kN -> {out / 'optimum.json'}")
    return 0


def cmd_opt_robust(cfg, args) -> int:
    out = _out_dir(cfg)
    setup = cfgmod.setup_from(cfg)
    model = cfgmod.input_model_from(cfg)
    uniforms = mc_uq.draw_uniform_matrix(cfg.mc.seed, cfg.mc.nu)
    result = optimizer.optimize_robust(
        cfg.design.box, cfg.design.weights, cfg.design.constraint, setup, model, uniforms,
        (cfg.output.grid_nx, cfg.output.grid_ny))
    _write_json(out / "optimum.json", cfg,
                {"command": "opt-robust", **_optimum_payload(result, "weighted")})
    for kind, scan in result.maps.items():
        _write_contour(cfg, kind, scan, out)
    print(f"opt-robust: s_opt=({result.s_opt.a:.6g}, {result.s_opt.c:.6g}) mm "
          f"objective={result.objective:.6g} -> {out}")
    return 0


def cmd_contour(cfg, args) -> int:
    out = _out_dir(cfg)
    values_at = optimizer.classical_values(cfgmod.setup_from(cfg))
    scan = optimizer.grid_scan(cfg.design.box, cfg.output.grid_nx, cfg.output.grid_ny, values_at)
    path = _write_contour(cfg, "classical", scan, out)
    print(f"contour: kind=classical grid={cfg.output.grid_nx}x{cfg.output.grid_ny} -> {path}")
    return 0


# command -> (handler, help line); a handler takes the config and the parsed arguments
_COMMANDS = {"eval": (cmd_eval, "print the deterministic force balance"),
             "uq": (cmd_uq, "propagate input uncertainty, write ensemble artifacts"),
             "opt-classical": (cmd_opt_classical, "maximize nominal braking force over the box"),
             "opt-robust": (cmd_opt_robust,
                            "maximize the robust objective under the chance constraint"),
             "contour": (cmd_contour, "write the classical grid map as CSV")}


def _parse_args(argv) -> argparse.Namespace:
    """One parser for every command; options may come before or after it."""
    parser = argparse.ArgumentParser(
        prog="brakeopt", usage="%(prog)s [options] COMMAND [options]",
        description="Safety-gear brake model: evaluation, Monte Carlo UQ and design optimization.",
        epilog="commands:\n" + "".join(f"  {cmd:<15}{text}\n" for cmd, (_, text) in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"brakeopt {__version__}")
    parser.add_argument("command", choices=_COMMANDS, metavar="COMMAND", help="see commands below")
    parser.add_argument("--config", type=Path, help="config file (default: shipped configuration)")
    parser.add_argument("--out", help="output directory override")
    parser.add_argument("--seed", type=int, help="Monte Carlo seed override")
    parser.add_argument("--nu", type=int, help="sample count override")
    parser.add_argument("--grid", type=_grid_arg, help="grid override, e.g. 101x51")
    parser.add_argument("--freeze-alpha", type=float, metavar="DEG", help="uq only: fixed cam angle")
    parser.add_argument("--freeze-fs", type=float, metavar="KN", help="uq only: fixed spring force")
    args = parser.parse_args(argv)
    for flag, value in (("--freeze-alpha", args.freeze_alpha), ("--freeze-fs", args.freeze_fs)):
        if value is not None and args.command != "uq":
            parser.error(f"{flag} applies to uq only, not to {args.command}")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    flags = {"mc.seed": args.seed, "mc.nu": args.nu, "output.dir": args.out}
    if args.grid is not None:
        flags["output.grid_nx"], flags["output.grid_ny"] = args.grid
    overrides = {key: value for key, value in flags.items() if value is not None}
    try:
        path = cfgmod.default_config_path() if args.config is None else args.config
        cfg = cfgmod.load_config(path, overrides)
        return _COMMANDS[args.command][0](cfg, args)
    except (BrakeOptError, MemoryError) as caught:
        exc = caught if isinstance(caught, BrakeOptError) else OutOfMemory(
            str(caught) or "out of memory")
        json.dump({"error": type(exc).__name__,
                   "exit_code": exc.exit_code,
                   "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
