"""Design optimization: objectives, chance constraint, grid certificates."""

import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from brakeopt import (
    AllStartsFailed,
    BrakeGeometry,
    ConstraintSpec,
    DesignBox,
    DesignPoint,
    FrictionSet,
    InsufficientSamples,
    LoadCase,
    NoFeasiblePoint,
    RobustWeights,
    SingularDenominator,
    ValidationError,
    braking_force,
    classical_values,
    draw_uniform_matrix,
    grid_scan,
    optimize_classical,
    optimize_robust,
    propagate,
    robust_objective,
    summarize,
)
from brakeopt import mc_uq, mechmodel, optimizer
from brakeopt.config import default_config, input_model_from, setup_from
from brakeopt.optimizer import ModelSetup, OptimizationResult
from test_model_properties import classical_objective, frictions, lengths, same_bits

NOMINAL_FH = 7.2693735011397308  # braking force at (55, 52.7), nominal loads


def test_optimize_classical_degenerate_box_returns_the_point(setup):
    box = DesignBox(a_min=55.0, a_max=55.0, c_min=52.7, c_max=52.7)
    res = optimize_classical(box, setup, grid=(2, 2))
    assert (res.s_opt.a, res.s_opt.c) == (55.0, 52.7)
    assert res.objective == pytest.approx(NOMINAL_FH, rel=1e-12)


def test_optimize_classical_monotone_slice_ends_at_boundary(setup):
    box = DesignBox(a_min=50.0, a_max=60.0, c_min=52.7, c_max=52.7)
    res = optimize_classical(box, setup, grid=(101, 2))
    # the 1-D scan over a is monotone increasing on this slice
    _, _, values = grid_scan(box, 101, 2, classical_values(setup))
    line = values[:, 0]
    assert np.all(np.diff(line) > 0)
    assert res.s_opt.a == 60.0


def test_robust_weight_min_only_equals_sample_minimum(cfg, setup, input_model):
    uniforms = draw_uniform_matrix(0, 1024)
    min_only = RobustWeights(beta1=1.0, beta2=0.0, beta3=0.0, beta4=0.0)
    s = DesignPoint(a=55.0, c=52.7)
    val = robust_objective(s, min_only, uniforms, input_model, setup)
    ens = propagate(input_model, uniforms, cfg.geometry, cfg.friction,
                    cfg.loads.Fg_kN, cfg.loads.Fb_kN)
    assert val == float(np.min(ens.outputs))


def test_robust_objective_degenerate_ensemble(setup, input_model):
    # identical uniforms on every row collapse the ensemble to one point; at
    # 4,096 rows np.std of it is not 0.0, as the mean rounds off the point
    s = DesignPoint(a=55.0, c=52.7)
    mean_only = RobustWeights(beta1=0.0, beta2=0.0, beta3=1.0, beta4=0.0)
    for nu in (16, 4096):
        flat = np.full((nu, 2), 0.25)
        assert math.isnan(robust_objective(s, RobustWeights(), flat, input_model, setup))
        # without the dispersion term the same ensemble is fine
        assert math.isfinite(robust_objective(s, mean_only, flat, input_model, setup))


SHIPPED_POINT = DesignBox(a_min=55.0, a_max=55.0, c_min=52.7, c_max=52.7)


def ensemble_fh(setup, input_model, uniforms, a, c):
    """The braking forces of the ensemble of ``uniforms`` at one design,
    through the optimizer's stages."""
    spring_at, column_at, fh_at = optimizer._ensemble_stages(setup, input_model, uniforms)
    return fh_at(column_at(c), spring_at(a))


def constraint_at_shipped_design(setup, input_model, cspec, nu):
    fh = ensemble_fh(setup, input_model, draw_uniform_matrix(0, nu), 55.0, 52.7)
    return optimizer._constraint_value(cspec, fh)


def sampled_map(box, grid, setup, input_model, uniforms, value_of):
    """A sampled map as optimize_robust scans it: one ensemble call per cell,
    its braking forces mapped to the cell's value by ``value_of(fh)``."""
    stages = optimizer._ensemble_stages(setup, input_model, uniforms)
    return grid_scan(box, *grid, optimizer._per_design_values(stages, value_of))


def fresh_map(box, grid, setup, input_model, uniforms, value_of):
    """Oracle: the sampled map with nothing shared between its cells but the
    sample transform and the cam term.  Each cell computes its own spring
    and column terms and makes one kernel call, masks the samples whose den1
    it finds singular itself, not by the column terms' mask, and maps the
    forces to its value with ``value_of(fh)``."""
    _, fs, sin_a, cos_a = mc_uq.sample_inputs(input_model, uniforms)
    axial = mechmodel.cam_axial(setup.fric, sin_a, cos_a)
    geom, fric, load = setup.geom, setup.fric, setup.nominal

    def value_at(a, c):
        spring = mechmodel.spring_terms(geom, fric, load.Fg, load.Fb, fs, a)
        column = mechmodel.column_terms(geom, fric, axial, c)
        fh = mechmodel.braking_force_ensemble(geom, fric, column, spring)[0]
        den1 = axial + fric.mu2 * (geom.b * fric.mu1 - c) / (geom.d + geom.e * fric.mu2)
        return value_of(np.where(np.abs(den1) > mechmodel.SINGULAR_TOL, fh, np.nan))

    def values_at(a, c):
        a, c = np.broadcast_arrays(a, c)
        designs = zip(a.ravel().tolist(), c.ravel().tolist())
        return np.array([value_at(*design) for design in designs]).reshape(a.shape)
    return grid_scan(box, *grid, values_at)


def test_empirical_constraint_trivial_levels(setup, input_model):
    assert constraint_at_shipped_design(setup, input_model, ConstraintSpec(y_star=0.0), 1024) == 1.0
    assert constraint_at_shipped_design(setup, input_model, ConstraintSpec(y_star=1e3), 1024) == 0.0


# four chosen samples: at a = 50 mm, |Fh| lies below 3.0 kN for the second
# at every c, above 9.8 kN for the last two, and for the first (the least Fs)
# falls from 8.39 to 7.45 kN as c goes from 50 to 55 mm
CHOSEN_UNIFORMS = np.array([[0.5, 0.0], [0.5, 0.05], [0.2, 0.9], [0.8, 0.95]])


def test_a_sample_at_the_constraint_level_is_not_a_hit(setup, input_model):
    # |Fh| > y* is strict: with y* at the k-th least of four distinct |Fh|,
    # the 3 - k samples above it are the hits
    fh = ensemble_fh(setup, input_model, CHOSEN_UNIFORMS, 50.0, 50.0)
    levels = sorted(abs(f) for f in fh.tolist())
    assert len(set(levels)) == 4
    for k, y_star in enumerate(levels):
        assert optimizer._constraint_value(ConstraintSpec(y_star=y_star), fh) == (3 - k) / 4


def test_a_design_at_exactly_one_minus_p_r_is_feasible(setup, input_model):
    # at y* = 8 kN three of the four samples pass up to c = 52.1 mm, so the
    # probability there is 3/4, which is 1.0 - 0.25 in floats; the robust
    # value grows with c, so the ascent climbs through such designs
    box = DesignBox(a_min=50.0, a_max=50.0, c_min=50.0, c_max=55.0)
    res = optimize_robust(box, RobustWeights(), ConstraintSpec(y_star=8.0, p_r=0.25), setup,
                          input_model, CHOSEN_UNIFORMS, (2, 2))
    assert res.maps["constraint"][2].tolist() == [[0.75, 0.5], [0.75, 0.5]]
    assert res.certificate_point == DesignPoint(a=50.0, c=50.0)
    assert 50.0 < res.s_opt.c < 55.0 and res.objective > res.certificate_value
    assert res.constraint_prob == 0.75


def test_empirical_constraint_at_shipped_design(setup, input_model):
    prob = constraint_at_shipped_design(setup, input_model, ConstraintSpec(), 4096)
    assert prob >= 0.95
    assert prob == pytest.approx(0.97998046875, abs=1e-12)  # frozen: seed 0, nu 4096


def test_optimize_robust_vacuous_constraint_matches_grid_max(setup, input_model):
    box = DesignBox()
    cspec = ConstraintSpec(y_star=0.0, p_r=1.0 - 1e-9)
    uniforms = draw_uniform_matrix(0, 1024)
    res = optimize_robust(box, RobustWeights(), cspec, setup, input_model, uniforms, (21, 11))
    _, _, values = res.maps["robust"]
    assert np.all(res.maps["constraint"][2] >= 1.0 - cspec.p_r)
    assert res.certificate_value == np.nanmax(values)
    assert res.objective >= np.nanmax(values) - 1e-6


def test_tight_level_splits_grid_into_both_classes(setup, input_model):
    # y* = 1.1 kN makes the chance constraint genuinely active inside the box
    res = optimize_robust(DesignBox(), RobustWeights(), ConstraintSpec(y_star=1.1),
                          setup, input_model, draw_uniform_matrix(0, 4096), (21, 11))
    _, _, values = res.maps["constraint"]
    feasible = np.count_nonzero(values >= 0.95)
    assert 0 < feasible < values.size
    assert res.constraint_prob >= 0.95
    assert res.objective >= res.certificate_value - 1e-6


def test_shipped_constraint_level_leaves_whole_box_feasible(setup, input_model):
    # at y* = 0.5, P_r = 5% every cell of the shipped box passes the constraint
    res = optimize_robust(DesignBox(), RobustWeights(), ConstraintSpec(), setup, input_model,
                          draw_uniform_matrix(0, 4096), (21, 11))
    _, _, values = res.maps["constraint"]
    assert np.all(values >= 0.95)
    assert np.all(values <= 1.0)
    assert values.min() < values.max()  # map is not flat


def test_grid_scan_rejects_bad_resolution(setup):
    with pytest.raises(ValidationError):
        grid_scan(DesignBox(), 1, 2, classical_values(setup))


def test_one_sample_ensemble(setup, input_model):
    one = draw_uniform_matrix(0, 1)

    def one_sample_map(value_of):
        return sampled_map(DesignBox(), (2, 2), setup, input_model, one, value_of)[2]

    # one sample has std 0.0, so the std term has no value
    robust = one_sample_map(lambda fh: optimizer._robust_value(RobustWeights(), fh))
    assert np.all(np.isnan(robust))
    no_std = RobustWeights(beta1=0.25, beta2=0.25, beta3=0.5, beta4=0.0)
    assert np.all(np.isfinite(one_sample_map(lambda fh: optimizer._robust_value(no_std, fh))))
    constraint = one_sample_map(lambda fh: optimizer._constraint_value(ConstraintSpec(), fh))
    assert set(constraint.ravel()) <= {0.0, 1.0}


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


# boxes where a_min + 1.0 * (a_max - a_min) rounds one ulp above a_max
OFF_BY_ONE_ULP_BOXES = [DesignBox(8.2, 49.63, 50.0, 55.0), DesignBox(24.599, 58.9, 50.0, 55.0)]


def test_design_box_unmap():
    a, c = DesignBox().unmap(np.array([1.0]), np.array([0.0]))
    assert (a.tolist(), c.tolist()) == ([60.0], [50.0])
    # the last box rounds a_min + 1.0 * (a_max - a_min) one ulp below a_max
    for box in [*OFF_BY_ONE_ULP_BOXES, DesignBox(16.54, 100.46, 50.0, 55.0)]:
        a, c = box.unmap(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        assert (a.tolist(), c.tolist()) == ([box.a_min, box.a_max], [box.c_min, box.c_max])


@settings(max_examples=300)
@given(st.integers(1, 10**5), st.integers(0, 10**5), st.floats(0.0, 1.0))
def test_unmap_maps_the_unit_interval_into_the_box(lo_um, width_um, u):
    # bounds in whole micrometres, as a config spells them
    lo, hi = lo_um / 1000, (lo_um + width_um) / 1000
    box = DesignBox(a_min=lo, a_max=hi, c_min=lo, c_max=hi)
    a, c = box.unmap(np.array([0.0]), np.array([1.0]))
    assert (a.tolist(), c.tolist()) == ([lo], [hi])
    x = np.array([u, math.nextafter(1.0, 0.0)])
    for values in box.unmap(x, x):
        assert np.all((lo <= values) & (values <= hi))


@settings(max_examples=300)
@given(st.integers(1, 10**5), st.integers(0, 10**5), st.integers(1, 10**5),
       st.integers(0, 10**5), st.integers(2, 401), st.integers(2, 401))
# a box on which np.linspace(8.2, 49.63, 101) misses 13 of these cells by 1 or 2 ulps
@example(8200, 41430, 50000, 5000, 101, 51)
def test_the_map_and_the_ascent_share_one_lattice(a_um, a_width_um, c_um, c_width_um, nx, ny):
    # bounds in whole micrometres, as a config spells them
    box = DesignBox(a_min=a_um / 1000, a_max=(a_um + a_width_um) / 1000,
                    c_min=c_um / 1000, c_max=(c_um + c_width_um) / 1000)
    a_values, c_values, _ = grid_scan(box, nx, ny, lambda a, c: np.zeros(a.shape))
    # the ascent starts at the Python floats i / (nx - 1) and j / (ny - 1)
    for i in range(nx):
        assert same_bits(a_values[i], box.unmap(i / (nx - 1), 0.0)[0])
    for j in range(ny):
        assert same_bits(c_values[j], box.unmap(0.0, j / (ny - 1))[1])


@pytest.mark.parametrize("box", OFF_BY_ONE_ULP_BOXES, ids=["a_max-49.63", "a_max-58.9"])
def test_optimum_is_inside_the_box(cfg, setup, input_model, box):
    # both optima sit on the a_max edge, which the ascent reaches at ua = 1.0
    design = cfg.design
    for res in (optimize_classical(box, setup, (5, 3)),
                optimize_robust(box, design.weights, design.constraint, setup, input_model,
                                draw_uniform_matrix(0, 64), (5, 3))):
        assert box.a_min <= res.s_opt.a <= box.a_max and box.c_min <= res.s_opt.c <= box.c_max


def test_uq_and_robust_optimizer_see_one_ensemble(cfg, setup, input_model):
    uniforms = draw_uniform_matrix(0, 4096)
    ens = propagate(input_model, uniforms, cfg.geometry, cfg.friction,
                    cfg.loads.Fg_kN, cfg.loads.Fb_kN)
    shipped = DesignPoint(a=cfg.geometry.a, c=cfg.geometry.c)
    fh = ensemble_fh(setup, input_model, uniforms, shipped.a, shipped.c)
    assert fh.tobytes() == ens.outputs.tobytes()
    weights = cfg.design.weights
    assert robust_objective(shipped, weights, uniforms, input_model, setup) \
        == optimizer._robust_value(weights, ens.outputs)
    # one statistics pass: uq reports the robust objective's mean bit for bit
    assert summarize(ens.outputs).mean == mc_uq.sample_stats(fh)[2]


def recording(objective):
    points = []

    def evaluate(ua, uc):
        points.append((float(ua), float(uc)))
        return objective(ua, uc)
    return evaluate, points


def ascend(evaluate, u0):
    """One ascent with a scalar ``evaluate(ua, uc)``, which also gives the
    start's value, as the map gives it to the optimizer's ascents."""
    return optimizer._ascent(u0, evaluate(*u0), lambda points: [evaluate(*p) for p in points])


def test_ascent_keeps_its_gradient_through_rejected_steps():
    # tilted, anisotropic peak at (0.61, 0.43): the path never retraces itself,
    # so a repeated point can only be a stencil recomputed where u has not moved
    def objective(ua, uc):
        da, dc = ua - 0.61, uc - 0.43
        return -da * da - 2.0 * dc * dc - 0.5 * da * dc

    evaluate, points = recording(objective)
    u, _ = ascend(evaluate, (0.5, 0.5))
    assert u == pytest.approx((0.61, 0.43), abs=1e-4)
    # only a rejected candidate falls this far below the start
    assert min(objective(*p) for p in points) < objective(0.5, 0.5) - 0.01
    assert len(set(points)) == len(points), "a point was evaluated twice"


def test_ascent_on_a_flat_objective_evaluates_one_stencil():
    evaluate, points = recording(lambda ua, uc: 0.0)
    u, value = ascend(evaluate, (0.5, 0.5))
    assert (u, value) == ((0.5, 0.5), 0.0)
    # the adapter's start value, then the ascent's four stencil points
    assert len(points) == 1 + 4 and points.count((0.5, 0.5)) == 1


def sequential_ascend(evaluate, u0):
    """Oracle: the ascent one point per call, which asks again for its
    current point; kept verbatim.  Each start of the ascent must give its
    results and its sequence of evaluated points, less those repeats."""
    _MAX_ITER, _STEP0, _STEP_MIN, _FD_STEP = (
        optimizer._MAX_ITER, optimizer._STEP0, optimizer._STEP_MIN, optimizer._FD_STEP)
    u = np.array(u0, dtype=float)
    fx = evaluate(u[0], u[1])
    if not math.isfinite(fx):
        return None

    step = _STEP0
    norm = None  # the gradient is kept until a step is accepted
    for _ in range(_MAX_ITER):
        if step < _STEP_MIN:
            break
        if norm is None:
            grad = np.zeros(2)
            for ax in range(2):
                up, um = u.copy(), u.copy()
                up[ax] = min(up[ax] + _FD_STEP, 1.0)
                um[ax] = max(um[ax] - _FD_STEP, 0.0)
                if up[ax] == um[ax]:
                    continue
                fp = evaluate(up[0], up[1])
                fm = evaluate(um[0], um[1])
                if not (math.isfinite(fp) and math.isfinite(fm)):
                    continue
                grad[ax] = (fp - fm) / (up[ax] - um[ax])
            norm = math.hypot(grad[0], grad[1])
        if norm == 0.0:
            step *= 0.5
            continue
        cand = np.clip(u + step * grad / norm, 0.0, 1.0)
        fc = evaluate(cand[0], cand[1])
        if math.isfinite(fc) and fc > fx:
            u, fx = cand, fc
            step = min(step * 2.0, 0.5)
            norm = None
        else:
            step *= 0.5
    return u, fx


def tilted_quadratic(ua, uc, peak=(0.61, 0.43)):
    da, dc = ua - peak[0], uc - peak[1]
    return -da * da - 2.0 * dc * dc - 0.5 * da * dc


def walled_shelf(ua, uc):
    """Not finite beyond ua = 0.7, which holds the climbers of a quadratic
    peaking at ua = 0.8 on that edge (no map start lies beyond it); flat
    and low above uc = 0.8, where a start stops after its stencil."""
    if ua > 0.7:
        return math.nan
    if uc > 0.8:
        return -1.0
    return tilted_quadratic(ua, uc, peak=(0.8, 0.43))


# a 5 x 5 lattice of the unit square, and starts off it
STARTS = [(ua, uc) for ua in (0.0, 0.25, 0.5, 0.75, 1.0)
          for uc in (0.0, 0.25, 0.5, 0.75, 1.0)] + [(0.7, 0.3), (0.69995, 0.81), (0.33, 0.9)]


def finite_starts(objective):
    """The starts that a map could give: those of finite value."""
    return [u0 for u0 in STARTS if math.isfinite(objective(*u0))]


def recording_current(objective):
    """``recording`` for :func:`sequential_ascend`: each point it evaluates,
    with its current point u at that moment, read off its frame."""
    calls = []

    def evaluate(ua, uc):
        u = sys._getframe(1).f_locals["u"]
        calls.append(((float(ua), float(uc)), (float(u[0]), float(u[1]))))
        return objective(ua, uc)
    return evaluate, calls


@pytest.mark.parametrize("objective", [tilted_quadratic, walled_shelf])
def test_each_start_asks_for_the_oracles_points_and_ends_with_its_bits(objective):
    """Each start, run with its value as ``_optimize`` runs it, asks for the
    oracle's points less its current points and ends with its bits."""
    repeats = 0
    for u0 in finite_starts(objective):
        asks = []  # the list of points of each request, in order

        def evaluate(points):
            asks.append(points)
            return [objective(*p) for p in points]
        result = optimizer._ascent(u0, objective(*u0), evaluate)
        oracle_evaluate, calls = recording_current(objective)
        want = sequential_ascend(oracle_evaluate, u0)
        # the oracle's points, less each one that is its current point: the
        # start, and a stencil point or a candidate clipped onto it
        points = [p for p, u in calls if p != u]
        assert [p for ask in asks for p in ask] == points
        repeats += len(calls) - 1 - len(points)
        assert np.array(result[0]).tobytes() == want[0].tobytes()
        assert same_bits(result[1], want[1])
    assert repeats > 0, "some start should clip onto its current point"


def test_ascent_asks_for_a_corner_once():
    # rises toward (1, 1): the ascent reaches the corner, whose stencil and
    # every later candidate clip onto it
    def objective(ua, uc):
        return ua + uc

    evaluate, points = recording(objective)
    u, value = ascend(evaluate, (0.5, 0.5))
    assert (u, value) == ((1.0, 1.0), 2.0)
    assert points.count((1.0, 1.0)) == 1
    inner = 1.0 - optimizer._FD_STEP
    assert points[points.index((1.0, 1.0)) + 1:] == [(inner, 1.0), (1.0, inner)]

    oracle_evaluate, oracle_points = recording(objective)
    sequential_ascend(oracle_evaluate, (0.5, 0.5))
    assert oracle_points.count((1.0, 1.0)) > 2
    assert [p for p in oracle_points if p != (1.0, 1.0)] == [p for p in points if p != (1.0, 1.0)]


def test_the_scalar_adapter_ends_where_the_sequential_ascent_ends():
    """One ascent through the scalar adapter ``ascend`` ends, for every
    finite start, where the oracle ends, bit for bit."""
    for u0 in finite_starts(walled_shelf):
        want = sequential_ascend(walled_shelf, u0)
        got = ascend(walled_shelf, u0)
        assert np.array(got[0]).tobytes() == want[0].tobytes()
        assert same_bits(got[1], want[1])


@pytest.fixture
def kernel_calls(monkeypatch):
    calls = []
    kernel = mechmodel.braking_force_ensemble

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return kernel(*args, **kwargs)
    monkeypatch.setattr(mechmodel, "braking_force_ensemble", counted)
    return calls


def test_classical_optimizer_makes_one_kernel_call_per_map_block_and_ascent_request(
        setup, kernel_calls):
    res = optimize_classical(DesignBox(), setup, grid=(21, 11))
    assert res.evaluations == 2
    # the map's 231 cells are one block; the one ascent, from the corner
    # (60, 50), takes its value from the map and asks for its two stencil points
    # (the kernel's arguments are geom, fric, the column terms, whose second
    # has c's shape, and the spring terms, whose first has a's shape)
    assert [np.broadcast(args[3][0], args[2][1]).size for args, _ in kernel_calls] == [231, 2]


@pytest.mark.parametrize("grid", [(5, 3), (401, 201)], ids=["5x3", "401x201"])
def test_classical_evaluations_are_the_designs_of_the_ascent_requests(
        setup, kernel_calls, grid):
    res = optimize_classical(DesignBox(), setup, grid=grid)
    nx, ny = grid
    sizes = [np.broadcast(args[3][0], args[2][1]).size for args, _ in kernel_calls]
    blocks = -(-nx // max(1, optimizer._BLOCK // ny))  # the map's calls come first
    assert sum(sizes[:blocks]) == nx * ny
    # the one ascent, from the corner (60, 50), asks for its two stencil points
    assert res.evaluations == sum(sizes[blocks:]) == 2


def test_robust_optimizer_computes_the_cam_term_once_per_sample_transform(
        setup, input_model, monkeypatch):
    calls = {"sample_inputs": 0, "cam_axial": 0}
    for module, name in ((mc_uq, "sample_inputs"), (mechmodel, "cam_axial")):
        def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    res = optimize_robust(DesignBox(), RobustWeights(), ConstraintSpec(), setup, input_model,
                          draw_uniform_matrix(0, 256), (21, 11))
    # the robust map, the constraint map and the ascent each transform the
    # ensemble once
    assert calls == {"sample_inputs": 3, "cam_axial": 3}
    assert res.evaluations >= 1


def test_no_feasible_cell_raises_after_the_two_maps_and_before_the_ascent(
        setup, input_model, kernel_calls, monkeypatch):
    ascents = []
    monkeypatch.setattr(optimizer, "_ascent", lambda u0, f0, evaluate: ascents.append(u0))
    with pytest.raises(NoFeasiblePoint) as failed:
        optimize_robust(DesignBox(), RobustWeights(), ConstraintSpec(y_star=1e3), setup,
                        input_model, draw_uniform_matrix(0, 64), (5, 3))
    assert failed.value.exit_code == 18
    assert len(kernel_calls) == 2 * 5 * 3
    assert ascents == []


@pytest.mark.parametrize("y_star", [0.5, 1e3])
def test_one_sample_with_a_std_term_raises_before_any_kernel_call(
        setup, input_model, kernel_calls, y_star):
    with pytest.raises(InsufficientSamples) as failed:
        optimize_robust(DesignBox(), RobustWeights(), ConstraintSpec(y_star=y_star), setup,
                        input_model, draw_uniform_matrix(0, 1), (5, 3))
    assert failed.value.exit_code == 15
    assert kernel_calls == []


def test_two_samples_are_enough_for_a_std_term(setup, input_model):
    res = optimize_robust(DesignBox(), RobustWeights(), ConstraintSpec(), setup, input_model,
                          draw_uniform_matrix(0, 2), (5, 3))
    assert math.isfinite(res.objective)


def row_by_row(box, nx, ny, values_at):
    """Oracle: the lattice as it was before the blocks, one ``values_at``
    call per row; kept verbatim but for its axes, which it takes point by
    point from the ascent's mapping ``DesignBox.unmap``, as the lattice does."""
    if nx < 2 or ny < 2:
        raise ValidationError("grid resolution must be at least 2x2", (nx, ny))
    a_values = np.array([float(box.unmap(i / (nx - 1), 0.0)[0]) for i in range(nx)])
    c_values = np.array([float(box.unmap(0.0, j / (ny - 1))[1]) for j in range(ny)])
    values = np.empty((nx, ny))
    for i, a in enumerate(a_values):
        values[i] = values_at(np.full(ny, a), c_values)
    return a_values, c_values, values


def den1_pole(setup):
    """The c at which den1 vanishes at the nominal cam angle."""
    geom, fric, alpha = setup.geom, setup.fric, setup.nominal.alpha
    axial = fric.mu1 * math.sin(alpha) + math.cos(alpha)
    return geom.b * fric.mu1 + axial * (geom.d + geom.e * fric.mu2) / fric.mu2


@pytest.mark.parametrize("nx, ny, at_pole", [
    (401, 201, False),  # blocks of 40 rows, the last block one row
    (3, 5000, False),   # a row longer than half a block: one row per block
    (3, optimizer._BLOCK + 1, False),  # a row longer than a block: one row per block
    (2, 2, False),      # the smallest lattice: one block
    (64, 100, True),    # one block of 64 rows, with a singular column
    (100, 100, True),   # blocks of 81 and 19 rows, each with a singular column
])
def test_classical_lattice_blocks_equal_one_call_per_row(setup, nx, ny, at_pole):
    box = DesignBox()
    if at_pole:  # the last column sits on the den1 pole, so its cells are nan
        box = DesignBox(a_min=50.0, a_max=60.0, c_min=den1_pole(setup) - 10.0,
                        c_max=den1_pole(setup))
    values_at = classical_values(setup)
    sizes = []

    def spy(a, c):
        assert a.shape == (a.size, 1) and c.shape == (ny,)  # a column of a, the row of c
        sizes.append(np.broadcast(a, c).size)
        return values_at(a, c)

    got = grid_scan(box, nx, ny, spy)
    want = row_by_row(box, nx, ny, values_at)
    assert all(same_bits(x, y) for x, y in zip(got, want))
    assert np.isnan(got[2][:, -1]).all() == at_pole
    rows = max(1, optimizer._BLOCK // ny)  # whole rows; one row if a row is longer
    assert sizes == [min(rows, nx - i) * ny for i in range(0, nx, rows)]


@pytest.mark.parametrize("value_of", [
    lambda fh: optimizer._robust_value(RobustWeights(), fh),
    # y* = 1.1 kN puts the constraint map's cells on both sides of 0.95
    lambda fh: optimizer._constraint_value(ConstraintSpec(y_star=1.1), fh),
], ids=["robust", "constraint"])
def test_sampled_lattice_blocks_equal_one_call_per_row(setup, input_model, kernel_calls,
                                                       monkeypatch, value_of):
    stages = optimizer._ensemble_stages(setup, input_model, draw_uniform_matrix(0, 256))
    args = (DesignBox(), 21, 11, optimizer._per_design_values(stages, value_of))
    lengths = {"spring_terms": [], "column_terms": []}  # each stage's a or c, per call
    for name in lengths:
        def recorded(*call_args, _name=name, _stage=getattr(mechmodel, name)):
            lengths[_name].append(call_args[-1])
            return _stage(*call_args)
        monkeypatch.setattr(mechmodel, name, recorded)
    got = grid_scan(*args)
    # one ensemble call per cell, at a design of two Python floats, the
    # spring terms once per lattice row and the column terms once per
    # lattice column of the map pass (its 231 cells are one request)
    assert len(kernel_calls) == 21 * 11
    rows, columns = lengths["spring_terms"], lengths["column_terms"]
    assert rows == got[0].tolist() and all(type(a) is float for a in rows)
    assert columns == got[1].tolist() and all(type(c) is float for c in columns)
    want = row_by_row(*args)
    assert all(same_bits(x, y) for x, y in zip(got, want))


@st.composite
def corner_problems(draw):
    """(setup, box, nx, ny) with the den1 pole c* outside the box's c range,
    on either side and from a relative gap of 1e-9 up to 0.9 of c*."""
    b, d, e, l, m, n, R = (draw(lengths) for _ in range(7))
    mu1, mu2, mu4 = draw(frictions), draw(frictions), draw(frictions)
    nominal = LoadCase.from_degrees(Fg=draw(lengths), Fb=draw(lengths),
                                    Fs=draw(st.floats(0.0, 100.0)),
                                    alpha_deg=draw(st.floats(0.0, 89.9)))
    geom = BrakeGeometry(a=draw(lengths), b=b, c=draw(lengths), d=d, e=e,
                         f=R * draw(st.floats(0.01, 0.99)), l=l, m=m, n=n, R=R)
    setup = ModelSetup(geom=geom, fric=FrictionSet(mu1, mu2, mu4), nominal=nominal)
    pole = den1_pole(setup)
    gap, width = draw(st.floats(1e-9, 0.9)), draw(st.floats(0.0, 0.99))
    if draw(st.booleans()):  # below the pole
        c_max = pole * (1.0 - gap)
        c_min = c_max * (1.0 - width)
    else:
        c_min = pole * (1.0 + gap)
        c_max = c_min * (1.0 + width)
    a_min = draw(lengths)
    box = DesignBox(a_min=a_min, a_max=a_min + draw(st.floats(0.0, 50.0)),
                    c_min=c_min, c_max=c_max)
    return setup, box, draw(st.integers(2, 6)), draw(st.integers(2, 6))


@settings(max_examples=200)
@given(corner_problems())
def test_classical_optimum_is_the_best_corner_when_the_pole_is_outside(case):
    # At fixed c, Fh is affine in a; at fixed a, it is a Mobius map of c,
    # monotone on each side of the den1 pole.  With the pole outside the
    # box, the box maximum is therefore the best of the four corners.
    setup, box, nx, ny = case
    corners = [DesignPoint(a=a, c=c) for a in (box.a_min, box.a_max)
               for c in (box.c_min, box.c_max)]  # in row-major lattice order
    try:
        values = [classical_objective(s, setup) for s in corners]
    except SingularDenominator:  # den4 does not depend on the design
        assume(False)
    best = max(values)
    corner = corners[values.index(best)]
    res = optimize_classical(box, setup, grid=(nx, ny))
    # the corners are lattice cells, so the certificate is the best corner
    # or a cell before it in row-major order that ties it
    assert res.certificate_value == best
    assert (res.certificate_point.a, res.certificate_point.c) <= (corner.a, corner.c)
    # the ascent ends on the corner or, a last place off it, within a few
    # ulps of its value, and never outside the box
    sol = braking_force(dataclasses.replace(setup.geom, a=corner.a, c=corner.c),
                        setup.fric, setup.nominal)
    scale = abs(sol.T1) + abs(sol.T2) + abs(sol.T3) + abs(sol.T4)
    assert abs(res.objective - best) <= 4 * math.ulp(scale)
    assert box.a_min <= res.s_opt.a <= box.a_max and box.c_min <= res.s_opt.c <= box.c_max


def frozen(a, c, objective, evaluations, cert_value, cert_a, cert_c, prob=None):
    return OptimizationResult(
        s_opt=DesignPoint(a=a, c=c), objective=objective,
        evaluations=evaluations, certificate_value=cert_value,
        certificate_point=DesignPoint(a=cert_a, c=cert_c), constraint_prob=prob)


def assert_python_floats(res):
    fields = [res.s_opt.a, res.s_opt.c, res.objective, res.certificate_value,
              res.certificate_point.a, res.certificate_point.c]
    if res.constraint_prob is not None:
        fields.append(res.constraint_prob)
    assert [type(x) for x in fields] == [float] * len(fields)


def test_classical_result_is_frozen(setup):
    res = optimize_classical(DesignBox(), setup, grid=(21, 11))
    # the ascent wins the tie with the certificate
    assert res == frozen(60.0, 50.0, 8.74341728968971, 2, 8.74341728968971, 60.0, 50.0)
    assert_python_floats(res)


def test_fine_classical_result_is_frozen(setup):
    # the shipped 101x51 map, and a 401x201 map of 21 blocks of whole rows, the last one partial
    for grid in ((101, 51), (401, 201)):
        res = optimize_classical(DesignBox(), setup, grid=grid)
        assert res == frozen(60.0, 50.0, 8.74341728968971, 2, 8.74341728968971, 60.0, 50.0)


STD_ONLY = RobustWeights(beta1=0.0, beta2=0.0, beta3=0.0, beta4=1.0)


@pytest.mark.parametrize("weights, y_star, expected", [
    # shipped weights: the one start is the certificate's corner, whose
    # stencil points both fall
    # (evaluations count the ascents' designs less their starts, which are
    # map cells: the 21 x 11 certificate cells are the cells of the two maps)
    (RobustWeights(), 0.5,
     frozen(60.0, 55.0, 3.1813046036893007, 2, 3.1813046036893007, 60.0, 55.0,
            0.9833984375)),
    # ascents end between cells, above the best feasible cell
    (STD_ONLY, 1.0,
     frozen(50.94486799513742, 54.51358291506311, 0.25268361759985203, 217,
            0.25236206290740454, 51.0, 54.5, 0.9501953125)),
    (STD_ONLY, 1.1,
     frozen(53.89404685706767, 55.0, 0.24051057959999214, 81, 0.2400386770833939,
            54.0, 55.0, 0.951171875)),
])
def test_robust_result_is_frozen(setup, input_model, weights, y_star, expected):
    res = optimize_robust(DesignBox(), weights, ConstraintSpec(y_star=y_star), setup,
                          input_model, draw_uniform_matrix(0, 1024), (21, 11))
    assert res == expected
    assert_python_floats(res)


def lattice_certificate(box, weights, cspec, setup, input_model, uniforms, grid):
    """Oracle: the robust certificate as the optimizer found it before it
    read the two maps, from its own per-cell lattice of the constrained
    value (nan where the constraint fails, else the robust value)."""
    threshold = 1.0 - cspec.p_r

    def value_of(fh):
        if optimizer._constraint_value(cspec, fh) < threshold:
            return math.nan
        return optimizer._robust_value(weights, fh)

    a_values, c_values, values = sampled_map(box, grid, setup, input_model, uniforms, value_of)
    i, j = np.unravel_index(np.nanargmax(values), values.shape)
    return DesignPoint(a=a_values[i], c=c_values[j]), values[i, j]


@pytest.mark.parametrize("weights, y_star", [
    (RobustWeights(), 0.5), (STD_ONLY, 1.0), (STD_ONLY, 1.1),
    (RobustWeights(), 1.1),  # the shipped weights with an active constraint
])
def test_certificate_and_maps_have_the_bits_of_the_per_cell_lattice(
        setup, input_model, weights, y_star):
    box, cspec, grid = DesignBox(), ConstraintSpec(y_star=y_star), (21, 11)
    uniforms = draw_uniform_matrix(0, 1024)
    res = optimize_robust(box, weights, cspec, setup, input_model, uniforms, grid)
    point, value = lattice_certificate(box, weights, cspec, setup, input_model, uniforms, grid)
    assert same_bits(res.certificate_value, value)
    assert same_bits(res.certificate_point.a, point.a)
    assert same_bits(res.certificate_point.c, point.c)

    assert_fresh_maps(res, box, grid, setup, input_model, uniforms, weights, cspec)


def assert_fresh_maps(res, box, grid, setup, input_model, uniforms, weights, cspec):
    """Both maps of ``res`` have the bits of :func:`fresh_map`."""
    assert list(res.maps) == ["robust", "constraint"]
    want = {"robust": fresh_map(box, grid, setup, input_model, uniforms,
                                lambda fh: optimizer._robust_value(weights, fh)),
            "constraint": fresh_map(box, grid, setup, input_model, uniforms,
                                    lambda fh: optimizer._constraint_value(cspec, fh))}
    for kind, scan in res.maps.items():
        assert all(same_bits(x, y) for x, y in zip(scan, want[kind], strict=True)), kind


@st.composite
def robust_problems(draw):
    """(setup, box, grid, uniforms, weights, cspec): a plant with a regular
    den4 and its loads, a box that may hold the den1 pole of some samples, a
    lattice of 2..5 x 2..5 cells and 2..64 samples."""
    b, d, e, l, m, n, R = (draw(lengths) for _ in range(7))
    fric = FrictionSet(draw(frictions), draw(frictions), draw(frictions))
    assume(abs(fric.mu4 * (n + l) - m) > mechmodel.SINGULAR_TOL)
    geom = BrakeGeometry(a=draw(lengths), b=b, c=draw(lengths), d=d, e=e,
                         f=R * draw(st.floats(0.01, 0.99)), l=l, m=m, n=n, R=R)
    nominal = LoadCase.from_degrees(Fg=draw(lengths), Fb=draw(lengths), Fs=42.0, alpha_deg=6.0)
    a_min, c_min = draw(lengths), draw(lengths)
    box = DesignBox(a_min=a_min, a_max=a_min + draw(st.floats(0.0, 50.0)),
                    c_min=c_min, c_max=c_min + draw(st.floats(0.0, 50.0)))
    return (ModelSetup(geom=geom, fric=fric, nominal=nominal), box,
            (draw(st.integers(2, 5)), draw(st.integers(2, 5))),
            draw_uniform_matrix(draw(st.integers(0, 3)), draw(st.integers(2, 64))),
            draw(st.sampled_from((RobustWeights(), STD_ONLY))),
            ConstraintSpec(y_star=draw(st.floats(0.0, 1.0)), p_r=draw(st.floats(0.05, 0.95))))


def pole_example(den1=0.0):
    """The shipped plant and 64 samples of seed 0 on a box whose last c
    column puts the den1 of the sample with the largest cam factor at
    ``den1``, at or near its pole: every other sample's den1 changes sign
    between the last two of three columns, and with ``den1`` inside the
    singular tolerance that sample's ok is False in the last one."""
    setup = setup_from(default_config())
    uniforms = draw_uniform_matrix(0, 64)
    _, _, sin_a, cos_a = mc_uq.sample_inputs(input_model_from(default_config()), uniforms)
    geom, fric = setup.geom, setup.fric
    axial = float(np.max(mechmodel.cam_axial(fric, sin_a, cos_a)))
    pole = geom.b * fric.mu1 + (axial - den1) * (geom.d + geom.e * fric.mu2) / fric.mu2
    box = DesignBox(a_min=50.0, a_max=60.0, c_min=390.0, c_max=pole)
    return setup, box, (5, 3), uniforms, RobustWeights(), ConstraintSpec()


@settings(max_examples=200)
@given(robust_problems())
@example(pole_example())
# a finite force at a den1 inside the tolerance, which only the mask removes
@example(pole_example(den1=5e-10))
def test_each_map_cell_has_the_bits_of_its_own_kernel_call(input_model, problem):
    # the maps compute the spring terms once per lattice row and the column
    # terms once per lattice column; each cell must still equal a call that
    # computes its own
    setup, box, grid, uniforms, weights, cspec = problem
    try:
        res = optimize_robust(box, weights, cspec, setup, input_model, uniforms, grid)
    except NoFeasiblePoint:
        assume(False)
    assert_fresh_maps(res, box, grid, setup, input_model, uniforms, weights, cspec)


def test_singular_design_space_fails_every_start(setup, kernel_calls, monkeypatch):
    ascents = []
    monkeypatch.setattr(optimizer, "_ascent", lambda u0, f0, evaluate: ascents.append(u0))
    # m = 9.975 mm puts den4 at 0: the plant itself is singular, so the map's
    # one kernel call raises, for every (a, c) at once
    dead = dataclasses.replace(setup, geom=dataclasses.replace(setup.geom, m=9.975))
    with pytest.raises(SingularDenominator) as singular:
        optimize_classical(DesignBox(), dead, grid=(5, 3))
    err = singular.value
    assert (err.name, err.value, err.exit_code) == ("mu4*(n+l) - m", 0.0, 12)
    # no denominator is near 0 (den4 = -30, den1 >= 0.85), but the forces
    # overflow to nan
    huge = dataclasses.replace(setup, nominal=dataclasses.replace(setup.nominal, Fg=1.0e307))
    # a box of one c column on the den1 pole: den1 is 0.0 in every cell
    pole = DesignBox(a_min=50.0, a_max=60.0, c_min=den1_pole(setup), c_max=den1_pole(setup))
    for plant, box in ((huge, DesignBox()), (setup, pole)):
        with pytest.raises(AllStartsFailed) as failed:
            optimize_classical(box, plant, grid=(5, 3))
        assert failed.value.exit_code == 19
        assert "finite" in str(failed.value) and "hit a singular" not in str(failed.value)
    # one kernel call per map, whose 5 x 3 cells are one block, and no ascent
    assert len(kernel_calls) == 3
    assert ascents == []


def climb(box, grid, values_at, monkeypatch):
    """The optimizer's pipeline on a design function: its result and the
    start of each ascent, in start order."""
    starts = []
    ascent = optimizer._ascent

    def recorded(u0, f0, evaluate):
        starts.append(u0)
        return ascent(u0, f0, evaluate)
    monkeypatch.setattr(optimizer, "_ascent", recorded)
    return optimizer._optimize(box, grid_scan(box, *grid, values_at), values_at), starts


def test_a_flat_map_gives_one_start_at_its_first_cell(monkeypatch):
    box = DesignBox()
    res, starts = climb(box, (21, 11), lambda a, c: np.full(a.shape, 2.0), monkeypatch)
    assert starts == [(0.0, 0.0)]
    assert (res.s_opt, res.objective) == (DesignPoint(a=box.a_min, c=box.c_min), 2.0)
    assert res.evaluations == 2  # the start's two stencil points inside the box


def two_bumps(a, c):
    """Two bumps, the higher second in row-major order, peaking between the
    cells of an 11 x 6 map of the shipped box."""
    return (np.exp(-0.5 * ((a - 52.0) ** 2 + (c - 51.0) ** 2))
            + 2.0 * np.exp(-0.5 * ((a - 58.3) ** 2 + (c - 53.7) ** 2)))


def test_each_bump_of_the_map_gives_one_start_and_the_higher_wins(monkeypatch):
    res, starts = climb(DesignBox(), (11, 6), two_bumps, monkeypatch)
    assert starts == [(2 / 10, 1 / 5), (8 / 10, 4 / 5)]  # the cells (52, 51) and (58, 54)
    assert (res.s_opt.a, res.s_opt.c) == pytest.approx((58.3, 53.7), abs=1e-3)
    assert res.objective > res.certificate_value
    assert (res.certificate_point.a, res.certificate_point.c) == (58.0, 54.0)


def test_each_ascent_request_is_one_values_at_call_of_its_own_points(monkeypatch):
    box = DesignBox()
    calls = []  # the designs of each values_at call

    def spy(a, c):
        calls.append(list(zip(a.tolist(), c.tolist())))
        return two_bumps(a, c)
    cells = grid_scan(box, 11, 6, spy)
    assert len(calls) == 1  # the 66 cells are one block
    requests = []  # per ascent, the designs of each of its requests
    ascent = optimizer._ascent

    def recorded(u0, f0, evaluate):
        start = tuple(map(float, box.unmap(*u0)))
        mine = []
        requests.append((start, f0, mine))

        def asked(points):
            mine.append([tuple(map(float, box.unmap(*p))) for p in points])
            return evaluate(points)
        return ascent(u0, f0, asked)
    monkeypatch.setattr(optimizer, "_ascent", recorded)
    calls.clear()
    res = optimizer._optimize(box, cells, spy)
    assert len(requests) == 2  # one ascent per bump
    assert calls == [request for _, _, mine in requests for request in mine]
    assert res.evaluations == sum(map(len, calls))
    a_values, c_values, values = cells
    for start, f0, mine in requests:
        # the start is its map cell, with the cell's value, and never asked for
        i, j = a_values.tolist().index(start[0]), c_values.tolist().index(start[1])
        assert same_bits(f0, values[i, j])
        assert all(start not in request for request in mine)


def test_an_infinite_cell_is_neither_the_certificate_nor_the_optimum():
    # +inf means rejected, like nan: the certificate is the best finite cell
    box = DesignBox()

    def values_at(a, c):
        return np.where(a == 60.0, np.inf, -(a - 55.0) ** 2 - (c - 52.0) ** 2)
    res = optimizer._optimize(box, grid_scan(box, 5, 3, values_at), values_at)
    assert (res.certificate_point, res.certificate_value) == (DesignPoint(a=55.0, c=52.5), -0.25)
    assert math.isfinite(res.objective) and res.objective > res.certificate_value
    assert (res.s_opt.a, res.s_opt.c) == pytest.approx((55.0, 52.0), abs=1e-3)


def brute_local_maxima(values):
    """Oracle: the start rule cell by cell.  A finite cell is a start unless
    a finite 8-neighbour beats it: with a greater value, or with an equal
    one earlier in row-major order."""
    nx, ny = values.shape
    starts = []
    for i in range(nx):
        for j in range(ny):
            v = values[i, j]
            beaten = any(
                math.isfinite(w) and (w > v or (w == v and (k, m) < (i, j)))
                for k in range(max(i - 1, 0), min(i + 2, nx))
                for m in range(max(j - 1, 0), min(j + 2, ny))
                if (k, m) != (i, j) for w in [values[k, m]])
            if math.isfinite(v) and not beaten:
                starts.append([i, j])
    return starts


@st.composite
def small_maps(draw):
    """Maps of up to 6 x 6 cells from few values, so that ties, plateaus,
    nan and infinite cells are common."""
    nx, ny = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cell = st.sampled_from((0.0, 1.0, 2.0, -0.5, math.nan, math.inf, -math.inf))
    return np.array(draw(st.lists(cell, min_size=nx * ny, max_size=nx * ny))).reshape(nx, ny)


@st.composite
def checkered_maps(draw):
    """Maps of up to 30 x 30 cells: a checkerboard of 0 and 2 plus one of few
    values per cell.  Most high cells beat their row and column neighbours,
    so up to hundreds of them are left for the diagonal test."""
    nx, ny = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    cell = st.sampled_from((0.0, 1.0, math.nan, math.inf))
    cells = np.array(draw(st.lists(cell, min_size=nx * ny, max_size=nx * ny))).reshape(nx, ny)
    return cells + 2.0 * (np.add.outer(np.arange(nx), np.arange(ny)) % 2)


def centre_and_diagonal(di, dj, value):
    """A 3 x 3 map of zeros with 1 at the centre, which so beats its row and
    column neighbours, and ``value`` at its diagonal neighbour (di, dj)."""
    values = np.zeros((3, 3))
    values[1, 1], values[1 + di, 1 + dj] = 1.0, value
    return values


@settings(max_examples=400)
@given(st.one_of(small_maps(), checkered_maps()))
@example(centre_and_diagonal(-1, -1, 1.0))  # an earlier diagonal beats on a tie
@example(centre_and_diagonal(-1, 1, 1.0))
@example(centre_and_diagonal(1, -1, 1.0))  # a later one only when greater
@example(centre_and_diagonal(1, 1, 1.0))
@example(centre_and_diagonal(1, -1, 2.0))
@example(centre_and_diagonal(1, 1, 2.0))
@example(np.full((4, 5), math.nan))
@example(np.array([[0.0, 2.0, 2.0, 1.0, 3.0]]))
@example(np.array([[0.0, 2.0, 2.0, 1.0, 3.0]]).T)
def test_local_maxima_equal_the_cell_by_cell_rule(values):
    assert optimizer._local_maxima(values) == brute_local_maxima(values)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shipped_robust_optimum_is_the_certificate_cell(cfg, setup, input_model, seed):
    design = cfg.design
    res = optimize_robust(design.box, design.weights, design.constraint, setup, input_model,
                          draw_uniform_matrix(seed, cfg.mc.nu),
                          (cfg.output.grid_nx, cfg.output.grid_ny))
    assert (res.s_opt, res.certificate_point) == (DesignPoint(a=60.0, c=55.0),) * 2
    assert same_bits(res.objective, res.certificate_value)
    assert res.evaluations == 2  # one start, the corner: its two stencil points
    if seed == 0:
        assert res.objective == 3.1119575407819045


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_ascent_rejects_non_finite_values(bad):
    # increasing in ua, but not evaluable beyond ua = 0.7
    u, value = ascend(lambda ua, uc: ua if ua <= 0.7 else bad, (0.5, 0.5))
    assert 0.69 < u[0] <= 0.7 and value == u[0]


@st.composite
def stat_samples(draw):
    """A sample of 2..10,000 values: random or constant, at magnitudes up to
    1e300, with at most one nan or infinity injected, and maybe misaligned
    by one element."""
    n = draw(st.integers(2, 10_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from((1e-300, 1e-3, 1.0, 7.25, 1e150, 1e300)))
    if draw(st.booleans()):
        x = np.full(n, scale * draw(st.sampled_from((-1.0, 0.3, 1.0))))
    else:
        x = scale * (draw(st.floats(-3.0, 3.0)) + rng.standard_normal(n))
    bad = draw(st.sampled_from((None, math.nan, math.inf, -math.inf)))
    if bad is not None:
        x[draw(st.integers(0, n - 1))] = bad
    if draw(st.booleans()):
        x = np.concatenate([[0.0], x])[1:]
    return x


@settings(max_examples=300)
@given(stat_samples())
@example(np.full(3, NOMINAL_FH))  # np.mean: one ulp off; np.std: 1.09e-15
@example(np.full(4096, 7.25 * 0.3))  # np.mean: off the constant; np.std: 4.44e-16
def test_one_statistics_pass_has_the_bits_of_numpy(x):
    with np.errstate(all="ignore"):  # nan, inf and 1e300**2 are part of the domain
        lo, hi, mean, std = mc_uq.sample_stats(x)
        assert same_bits(lo, np.min(x)) and same_bits(hi, np.max(x))
        finite = bool(np.all(np.isfinite(x)))
        assert finite == (math.isfinite(lo) and math.isfinite(hi))
        if finite and lo == hi:
            # a constant sample is its own mean with zero spread, whatever
            # np.mean and np.std round to
            assert mean == lo == hi and same_bits(std, 0.0)
        elif finite:
            assert same_bits(mean, np.mean(x)) and same_bits(std, np.std(x, ddof=1))
        else:
            assert math.isnan(mean) and math.isnan(std)

    weights = RobustWeights()
    with np.errstate(over="ignore"):
        if not finite or std == 0.0:
            assert math.isnan(optimizer._robust_value(weights, x))
        else:
            want = (weights.beta1 * float(np.min(x)) + weights.beta2 * float(np.max(x))
                    + weights.beta3 * float(np.mean(x)) + weights.beta4 / float(np.std(x, ddof=1)))
            assert same_bits(optimizer._robust_value(weights, x), want)
    assert math.isnan(optimizer._robust_value(weights, x[:1]))
