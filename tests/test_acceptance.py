"""Acceptance gate: one test per release criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances and runtime budgets are asserted, not just reported.
"""

import dataclasses
import math
import time
from contextlib import contextmanager

import numpy as np

from brakeopt import (
    BrakeGeometry,
    DesignPoint,
    LoadCase,
    RobustWeights,
    braking_force,
    classical_values,
    draw_uniform_matrix,
    fit_truncexp,
    grid_scan,
    mean_of,
    optimize_classical,
    optimize_robust,
    propagate,
    robust_objective,
    sample_inverse_cdf,
    solve_equilibrium,
)
from brakeopt.cli import main as cli_main
from oracles import cdf


@contextmanager
def budget(n, label, seconds):
    start = time.perf_counter()
    failed = True
    try:
        yield
        failed = False
    finally:
        elapsed = time.perf_counter() - start
        if failed:
            print(f"FAIL criterion {n}: {label}")
        else:
            print(f"PASS criterion {n}: {label} ({elapsed:.2f}s / budget {seconds:.0f}s)")
    assert elapsed < seconds, f"criterion {n} exceeded its {seconds}s budget: {elapsed:.2f}s"


def _sweep_cases(n, seed):
    rng = np.random.default_rng(seed)
    base = dict(a=55.0, b=16.6, c=52.7, d=34.5, e=60.7, f=0.005,
                l=49.0, m=40.0, n=17.5, R=29.0)
    cases = []
    for _ in range(n):
        factors = rng.uniform(0.8, 1.2, size=len(base))
        geom = BrakeGeometry(**{k: v * s for (k, v), s in zip(base.items(), factors)})
        load = LoadCase(Fg=50.0, Fb=30.0, Fs=float(rng.uniform(0.0, 56.0)),
                        alpha=math.radians(float(rng.uniform(0.0, 18.0))))
        cases.append((geom, load))
    return cases


def test_criterion_1_closed_form_matches_linear_solver(cfg):
    with budget(1, "closed form vs linear solve, 1000 random cases, rel 1e-10", 1.0):
        for geom, load in _sweep_cases(1000, seed=101):
            a = braking_force(geom, cfg.friction, load)
            b = solve_equilibrium(geom, cfg.friction, load)
            for name in ("N1", "N2", "N3", "N4", "Fh"):
                x, y = getattr(a, name), getattr(b, name)
                assert abs(x - y) <= 1e-10 * (1.0 + abs(y)), name


def test_criterion_2_roller_and_body_normals_identical(cfg):
    with budget(2, "N3 == N4 to 1e-12 relative on the same sweep", 5.0):
        for geom, load in _sweep_cases(1000, seed=101):
            sol = braking_force(geom, cfg.friction, load)
            assert abs(sol.N3 - sol.N4) <= 1e-12 * (1.0 + abs(sol.N4))
            oracle = solve_equilibrium(geom, cfg.friction, load)
            assert abs(oracle.N3 - oracle.N4) <= 1e-12 * (1.0 + abs(oracle.N4))


def test_criterion_3_affine_response_preserves_shape(cfg, input_model):
    with budget(3, "affinity in Fs and standardized-sample identity at 1e-10", 5.0):
        def fh(fs):
            return braking_force(cfg.geometry, cfg.friction,
                                 LoadCase.from_degrees(50.0, 30.0, fs, 6.0)).Fh

        mid = fh(28.0)
        assert abs(fh(0.0) + fh(56.0) - 2.0 * mid) < 1e-10 * (1.0 + abs(mid))

        ens = propagate(input_model, draw_uniform_matrix(0, 4096),
                        cfg.geometry, cfg.friction, cfg.loads.Fg_kN, cfg.loads.Fb_kN,
                        freeze_alpha_deg=6.0)
        y, fs = ens.outputs, ens.fs_kN
        std_y = (y - y.mean()) / y.std(ddof=1)
        std_fs = (fs - fs.mean()) / fs.std(ddof=1)
        assert float(np.max(np.abs(std_y - std_fs))) < 1e-10


def test_criterion_4_maxent_fit_and_sampler():
    with budget(4, "fit tolerances, uniform degeneration, KS below 1% critical", 5.0):
        alpha = fit_truncexp(0.0, 18.0, 6.0)
        fs = fit_truncexp(0.0, 56.0, 42.0)
        assert abs(mean_of(alpha) - 6.0) < 1e-10 * 18.0
        assert abs(mean_of(fs) - 42.0) < 1e-10 * 56.0
        assert fit_truncexp(0.0, 56.0, 28.0).rate == 0.0

        n = 100_000
        u = draw_uniform_matrix(2024, n)[:, 0]
        draws = np.sort([sample_inverse_cdf(fs, float(v)) for v in u])
        theo = np.array([cdf(fs, x) for x in draws])
        steps = np.arange(1, n + 1) / n
        d_stat = max(float(np.max(steps - theo)), float(np.max(theo - (steps - 1.0 / n))))
        assert d_stat < 1.6276 / math.sqrt(n)


def test_criterion_5_monte_carlo_reproducibility(cfg, input_model, tmp_path):
    with budget(5, "byte-identical uq artifacts; 4096-sample stats track 65536", 10.0):
        names = ("ensemble.csv", "stats.json", "trace.csv", "kde.csv")
        outs = [tmp_path / tag for tag in ("r1", "r2")]
        for out in outs:
            assert cli_main(["uq", "--out", str(out), "--seed", "0", "--nu", "4096"]) == 0
        blobs = [{n: (out / n).read_bytes() for n in names} for out in outs]
        assert blobs[0] == blobs[1], "two identical runs differ"

        small = propagate(input_model, draw_uniform_matrix(0, 4096),
                          cfg.geometry, cfg.friction, cfg.loads.Fg_kN, cfg.loads.Fb_kN)
        big = propagate(input_model, draw_uniform_matrix(321, 65536),
                        cfg.geometry, cfg.friction, cfg.loads.Fg_kN, cfg.loads.Fb_kN)
        bound = 3.0 * float(np.std(small.outputs, ddof=1)) / math.sqrt(4096)
        assert abs(float(np.mean(small.outputs)) - float(np.mean(big.outputs))) < bound
        assert abs(float(np.std(small.outputs, ddof=1))
                   - float(np.std(big.outputs, ddof=1))) < bound


def test_criterion_6_classical_optimum_dominates_grid(cfg, setup):
    with budget(6, "classical optimum >= 101x51 grid max - 1e-6, deterministic", 10.0):
        box = cfg.design.box
        res = optimize_classical(box, setup, grid=(101, 51))
        _, _, values = grid_scan(box, 101, 51, classical_values(setup))
        assert res.objective >= float(np.nanmax(values)) - 1e-6
        assert res == optimize_classical(box, setup, grid=(101, 51))


def test_criterion_7_robust_optimum_feasible_reproducible_distinct(cfg, setup, input_model):
    with budget(7, "robust optimum: feasible, certified, reproducible, distinct", 300.0):
        box, w, cs = cfg.design.box, cfg.design.weights, cfg.design.constraint
        uniforms = draw_uniform_matrix(cfg.mc.seed, 4096)
        res = optimize_robust(box, w, cs, setup, input_model, uniforms, (101, 51))
        assert res.constraint_prob >= 1.0 - cs.p_r
        assert res.objective >= res.certificate_value - 1e-6
        repeat = optimize_robust(box, w, cs, setup, input_model,
                                 draw_uniform_matrix(cfg.mc.seed, 4096), (101, 51))
        assert res == repeat, "robust optimization is not bit-reproducible"
        classical = optimize_classical(box, setup, grid=(101, 51))
        assert (res.s_opt.a, res.s_opt.c) != (classical.s_opt.a, classical.s_opt.c)


def test_criterion_8_degenerate_weights_reduce_to_mean(cfg, setup, input_model):
    with budget(8, "beta=(0,0,1,0) robust objective equals ensemble mean to 1e-12", 30.0):
        uniforms = draw_uniform_matrix(0, 4096)
        mean_only = RobustWeights(beta1=0.0, beta2=0.0, beta3=1.0, beta4=0.0)
        rng = np.random.default_rng(88)
        for _ in range(10):
            s = DesignPoint(a=float(rng.uniform(50, 60)), c=float(rng.uniform(50, 55)))
            val = robust_objective(s, mean_only, uniforms, input_model, setup)
            ens = propagate(input_model, uniforms,
                            dataclasses.replace(cfg.geometry, a=s.a, c=s.c),
                            cfg.friction, cfg.loads.Fg_kN, cfg.loads.Fb_kN)
            assert abs(val - float(np.mean(ens.outputs))) <= 1e-12
