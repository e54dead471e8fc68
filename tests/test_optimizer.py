"""Design optimization: objectives, chance constraint, grid certificates."""

import dataclasses
import math

import numpy as np
import pytest

from brakeopt import (
    AllStartsFailed,
    ConstraintSpec,
    DegenerateEnsemble,
    DesignBox,
    DesignPoint,
    InsufficientSamples,
    NoFeasiblePoint,
    RobustWeights,
    ValidationError,
    classical_objective,
    draw_uniform_matrix,
    grid_scan,
    optimize_classical,
    optimize_robust,
    propagate,
    robust_objective,
)
from brakeopt import mc_uq, optimizer
from brakeopt.optimizer import OptimizationResult

NOMINAL_FH = 7.2693735011397308  # braking force at (55, 52.7), nominal loads


@pytest.fixture(scope="module")
def uniforms():
    return draw_uniform_matrix(0, 1024)


def test_classical_objective_at_shipped_design(setup):
    val = classical_objective(DesignPoint(a=55.0, c=52.7), setup)
    assert val == pytest.approx(NOMINAL_FH, rel=1e-12)


def test_classical_objective_zero_loads(setup):
    dead = dataclasses.replace(
        setup, nominal=dataclasses.replace(setup.nominal, Fg=0.0, Fb=0.0, Fs=0.0))
    assert classical_objective(DesignPoint(a=55.0, c=52.7), dead) == pytest.approx(0.0, abs=1e-14)


def test_two_by_two_grid_equals_direct_calls(setup):
    box = DesignBox(a_min=50.0, a_max=60.0, c_min=50.0, c_max=55.0)
    scan = grid_scan(box, 2, 2, "classical", setup)
    for i, a in enumerate(scan.a_values):
        for j, c in enumerate(scan.c_values):
            assert scan.values[i, j] == classical_objective(DesignPoint(a=float(a), c=float(c)), setup)


def test_optimize_classical_dominates_grid_and_is_deterministic(setup):
    box = DesignBox()
    first = optimize_classical(box, setup, grid=(101, 51))
    scan = grid_scan(box, 101, 51, "classical", setup)
    assert first.objective >= np.nanmax(scan.values) - 1e-6
    assert first.objective >= first.certificate_value - 1e-6
    # shipped box: best design sits at the (a_max, c_min) corner
    assert (first.s_opt.a, first.s_opt.c) == (60.0, 50.0)
    assert first.objective == pytest.approx(8.74341728968971, rel=1e-12)
    assert first == optimize_classical(box, setup, grid=(101, 51))


def test_optimize_classical_degenerate_box_returns_the_point(setup):
    box = DesignBox(a_min=55.0, a_max=55.0, c_min=52.7, c_max=52.7)
    res = optimize_classical(box, setup, grid=(2, 2))
    assert (res.s_opt.a, res.s_opt.c) == (55.0, 52.7)
    assert res.objective == pytest.approx(NOMINAL_FH, rel=1e-12)


def test_optimize_classical_monotone_slice_ends_at_boundary(setup):
    box = DesignBox(a_min=50.0, a_max=60.0, c_min=52.7, c_max=52.7)
    res = optimize_classical(box, setup, grid=(101, 2))
    # the 1-D scan over a is monotone increasing on this slice
    scan = grid_scan(box, 101, 2, "classical", setup)
    line = scan.values[:, 0]
    assert np.all(np.diff(line) > 0)
    assert res.s_opt.a == 60.0


def test_robust_weight_degeneration_equals_mean(cfg, setup, input_model, uniforms):
    rng = np.random.default_rng(2)
    mean_only = RobustWeights(beta1=0.0, beta2=0.0, beta3=1.0, beta4=0.0)
    for _ in range(10):
        s = DesignPoint(a=float(rng.uniform(50, 60)), c=float(rng.uniform(50, 55)))
        val = robust_objective(s, mean_only, uniforms, input_model, setup)
        ens = propagate(input_model, uniforms,
                        dataclasses.replace(cfg.geometry, a=s.a, c=s.c),
                        cfg.friction, cfg.loads.Fg_kN, cfg.loads.Fb_kN)
        assert abs(val - float(np.mean(ens.outputs))) <= 1e-12


def test_robust_weight_min_only_equals_sample_minimum(cfg, setup, input_model, uniforms):
    min_only = RobustWeights(beta1=1.0, beta2=0.0, beta3=0.0, beta4=0.0)
    s = DesignPoint(a=55.0, c=52.7)
    val = robust_objective(s, min_only, uniforms, input_model, setup)
    ens = propagate(input_model, uniforms, cfg.geometry, cfg.friction,
                    cfg.loads.Fg_kN, cfg.loads.Fb_kN)
    assert val == float(np.min(ens.outputs))


def test_robust_objective_bit_identical_across_calls(setup, input_model, uniforms):
    s = DesignPoint(a=57.0, c=51.5)
    w = RobustWeights()
    assert robust_objective(s, w, uniforms, input_model, setup) == \
        robust_objective(s, w, uniforms, input_model, setup)


def test_robust_objective_degenerate_ensemble(setup, input_model):
    # identical uniforms on every row collapse the ensemble to one point
    from brakeopt import UniformMatrix
    flat = UniformMatrix(seed=0, nu=16, values=np.full((16, 2), 0.25))
    s = DesignPoint(a=55.0, c=52.7)
    with pytest.raises(DegenerateEnsemble):
        robust_objective(s, RobustWeights(), flat, input_model, setup)
    # without the dispersion term the same ensemble is fine
    mean_only = RobustWeights(beta1=0.0, beta2=0.0, beta3=1.0, beta4=0.0)
    assert math.isfinite(robust_objective(s, mean_only, flat, input_model, setup))


SHIPPED_POINT = DesignBox(a_min=55.0, a_max=55.0, c_min=52.7, c_max=52.7)


def constraint_at_shipped_design(setup, input_model, cspec, nu):
    scan = grid_scan(SHIPPED_POINT, 2, 2, "constraint", setup, input_model=input_model,
                     cspec=cspec, seed=0, nu=nu)
    assert np.all(scan.values == scan.values[0, 0])
    return scan.values[0, 0]


def test_empirical_constraint_trivial_levels(setup, input_model):
    assert constraint_at_shipped_design(setup, input_model, ConstraintSpec(y_star=0.0), 1024) == 1.0
    assert constraint_at_shipped_design(setup, input_model, ConstraintSpec(y_star=1e3), 1024) == 0.0


def test_empirical_constraint_at_shipped_design(setup, input_model):
    prob = constraint_at_shipped_design(setup, input_model, ConstraintSpec(), 4096)
    assert prob >= 0.95
    assert prob == pytest.approx(0.97998046875, abs=1e-12)  # frozen: seed 0, nu 4096


def test_optimize_robust_shipped_settings(setup, input_model):
    box = DesignBox()
    res = optimize_robust(box, RobustWeights(), ConstraintSpec(), 0, setup, input_model,
                          nu=1024, grid=(21, 11))
    assert res.feasible
    assert res.constraint_prob >= 0.95
    assert res.objective >= res.certificate_value - 1e-6
    classical = optimize_classical(box, setup, grid=(21, 11))
    assert (res.s_opt.a, res.s_opt.c) != (classical.s_opt.a, classical.s_opt.c)
    assert res == optimize_robust(box, RobustWeights(), ConstraintSpec(), 0, setup, input_model,
                                  nu=1024, grid=(21, 11))


def test_optimize_robust_vacuous_constraint_matches_grid_max(setup, input_model):
    box = DesignBox()
    cspec = ConstraintSpec(y_star=0.0, p_r=1.0 - 1e-9)
    res = optimize_robust(box, RobustWeights(), cspec, 0, setup, input_model,
                          nu=1024, grid=(21, 11))
    scan = grid_scan(box, 21, 11, "robust", setup, input_model=input_model,
                     weights=RobustWeights(), cspec=cspec, seed=0, nu=1024)
    assert res.certificate_value == np.nanmax(scan.values)
    assert res.objective >= np.nanmax(scan.values) - 1e-6


def test_optimize_robust_impossible_level_raises(setup, input_model):
    with pytest.raises(NoFeasiblePoint):
        optimize_robust(DesignBox(), RobustWeights(), ConstraintSpec(y_star=1e3), 0,
                        setup, input_model, nu=512, grid=(11, 6))


def test_tight_level_splits_grid_into_both_classes(setup, input_model):
    # y* = 1.1 kN makes the chance constraint genuinely active inside the box
    scan = grid_scan(DesignBox(), 21, 11, "constraint", setup, input_model=input_model,
                     cspec=ConstraintSpec(y_star=1.1), seed=0, nu=4096)
    feasible = np.count_nonzero(scan.values >= 0.95)
    assert 0 < feasible < scan.values.size
    res = optimize_robust(DesignBox(), RobustWeights(), ConstraintSpec(y_star=1.1), 0,
                          setup, input_model, nu=4096, grid=(21, 11))
    assert res.constraint_prob >= 0.95
    assert res.objective >= res.certificate_value - 1e-6


def test_shipped_constraint_level_leaves_whole_box_feasible(setup, input_model):
    # at y* = 0.5, P_r = 5% every cell of the shipped box passes the constraint
    scan = grid_scan(DesignBox(), 21, 11, "constraint", setup, input_model=input_model,
                     cspec=ConstraintSpec(), seed=0, nu=4096)
    assert np.all(scan.values >= 0.95)
    assert np.all(scan.values <= 1.0)
    assert scan.values.min() < scan.values.max()  # map is not flat


def test_grid_scan_rejects_bad_kind_and_resolution(setup):
    with pytest.raises(ValidationError):
        grid_scan(DesignBox(), 2, 2, "nonsense", setup)
    with pytest.raises(ValidationError):
        grid_scan(DesignBox(), 1, 2, "classical", setup)


@pytest.mark.parametrize("kind, kwargs", [
    ("robust", dict(seed=0, nu=8)),                  # no weights
    ("constraint", dict(seed=0, nu=8)),              # no constraint spec
    ("constraint", dict(cspec=ConstraintSpec(), seed=0)),  # no nu
])
def test_sampled_scans_take_every_setting_from_the_caller(setup, input_model, kind, kwargs):
    with pytest.raises(ValidationError):
        grid_scan(DesignBox(), 2, 2, kind, setup, input_model=input_model, **kwargs)


def test_one_sample_ensemble(setup, input_model):
    one = dict(input_model=input_model, seed=0, nu=1)
    with pytest.raises(InsufficientSamples):
        grid_scan(DesignBox(), 2, 2, "robust", setup, weights=RobustWeights(), **one)
    no_std = RobustWeights(beta1=0.25, beta2=0.25, beta3=0.5, beta4=0.0)
    assert np.all(np.isfinite(grid_scan(DesignBox(), 2, 2, "robust", setup, weights=no_std,
                                        **one).values))
    constraint = grid_scan(DesignBox(), 2, 2, "constraint", setup, cspec=ConstraintSpec(), **one)
    assert set(constraint.values.ravel()) <= {0.0, 1.0}


def test_weights_and_constraint_validation():
    with pytest.raises(ValidationError):
        RobustWeights(beta1=0.5, beta2=0.5, beta3=0.5, beta4=-0.5)
    with pytest.raises(ValidationError):
        RobustWeights(beta1=0.5, beta2=0.5, beta3=0.5, beta4=0.5)
    with pytest.raises(ValidationError):
        ConstraintSpec(y_star=-1.0)
    with pytest.raises(ValidationError):
        ConstraintSpec(p_r=0.0)
    with pytest.raises(ValidationError):
        DesignBox(a_min=60.0, a_max=50.0)


def test_design_box_unmap():
    box = DesignBox()
    corner = box.unmap(1.0, 0.0)
    assert (corner.a, corner.c) == (60.0, 50.0)


def test_uq_and_robust_optimizer_see_one_ensemble(cfg, setup, input_model):
    uniforms = draw_uniform_matrix(0, 4096)
    ens = propagate(input_model, uniforms, cfg.geometry, cfg.friction,
                    cfg.loads.Fg_kN, cfg.loads.Fb_kN)
    shipped = DesignPoint(a=cfg.geometry.a, c=cfg.geometry.c)
    fh = optimizer._ensemble_fh(setup, mc_uq.sample_inputs(input_model, uniforms),
                                 shipped.a, shipped.c)
    assert fh.tobytes() == ens.outputs.tobytes()
    weights = cfg.design.weights
    assert robust_objective(shipped, weights, uniforms, input_model, setup) \
        == optimizer._robust_value(weights, ens.outputs)


def recording(objective):
    points = []

    def evaluate(ua, uc):
        points.append((float(ua), float(uc)))
        return objective(ua, uc)
    return evaluate, points


def test_ascent_keeps_its_gradient_through_rejected_steps():
    # tilted, anisotropic peak at (0.61, 0.43): the path never retraces itself,
    # so a repeated point can only be a stencil recomputed where u has not moved
    def objective(ua, uc):
        da, dc = ua - 0.61, uc - 0.43
        return -da * da - 2.0 * dc * dc - 0.5 * da * dc

    evaluate, points = recording(objective)
    u, _ = optimizer._ascend(evaluate, (0.5, 0.5))
    assert u == pytest.approx([0.61, 0.43], abs=1e-4)
    # only a rejected candidate falls this far below the start
    assert min(objective(*p) for p in points) < objective(0.5, 0.5) - 0.01
    assert len(set(points)) == len(points), "a point was evaluated twice"


def test_ascent_on_a_flat_objective_evaluates_one_stencil():
    evaluate, points = recording(lambda ua, uc: 0.0)
    u, value = optimizer._ascend(evaluate, (0.5, 0.5))
    assert (tuple(u), value) == ((0.5, 0.5), 0.0)
    assert len(points) == 1 + 4  # the start and its four stencil points


def frozen(a, c, objective, evaluations, cert_value, cert_a, cert_c, prob=None):
    return OptimizationResult(
        s_opt=DesignPoint(a=a, c=c), objective=objective, feasible=True,
        evaluations=evaluations, certificate_value=cert_value,
        certificate_point=DesignPoint(a=cert_a, c=cert_c), constraint_prob=prob)


def test_classical_result_is_frozen(setup):
    res = optimize_classical(DesignBox(), setup, grid=(21, 11))
    assert res == frozen(60.0, 50.0, 8.74341728968971, 3170, 8.74341728968971, 60.0, 50.0)


STD_ONLY = RobustWeights(beta1=0.0, beta2=0.0, beta3=0.0, beta4=1.0)


@pytest.mark.parametrize("weights, y_star, expected", [
    # shipped weights: the ascent reaches the certificate's corner
    (RobustWeights(), 0.5,
     frozen(60.0, 55.0, 3.1813046036893007, 4740, 3.1813046036893007, 60.0, 55.0, 0.9833984375)),
    # the certificate cell beats every ascent and is returned
    (STD_ONLY, 1.0,
     frozen(51.0, 54.5, 0.25236206290740454, 2728, 0.25236206290740454, 51.0, 54.5,
            0.9501953125)),
    # an ascent ends between cells, above the best feasible cell
    (STD_ONLY, 1.1,
     frozen(53.893279403860134, 55.0, 0.240514004512616, 1768, 0.2400386770833939, 54.0, 55.0,
            0.951171875)),
])
def test_robust_result_is_frozen(setup, input_model, weights, y_star, expected):
    res = optimize_robust(DesignBox(), weights, ConstraintSpec(y_star=y_star), 0, setup,
                          input_model, nu=1024, grid=(21, 11))
    assert res == expected


def test_singular_design_space_fails_every_start(setup):
    # m = 9.975 mm puts den4 at 0 for every (a, c): no start can be evaluated
    dead = dataclasses.replace(setup, geom=dataclasses.replace(setup.geom, m=9.975))
    with pytest.raises(AllStartsFailed):
        optimize_classical(DesignBox(), dead, grid=(5, 3))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_ascent_rejects_non_finite_values(bad):
    assert optimizer._ascend(lambda ua, uc: bad, (0.5, 0.5)) is None

    # increasing in ua, but not evaluable beyond ua = 0.7
    u, value = optimizer._ascend(lambda ua, uc: ua if ua <= 0.7 else bad, (0.5, 0.5))
    assert 0.69 < u[0] <= 0.7 and value == u[0]
