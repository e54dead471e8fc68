"""Seeded Monte Carlo engine: determinism, propagation exactness, statistics."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brakeopt import (
    InsufficientSamples,
    LoadCase,
    ValidationError,
    braking_force,
    convergence_trace,
    draw_uniform_matrix,
    propagate,
    solve_equilibrium,
    summarize,
)
from brakeopt import maxent, mc_uq, mechmodel, optimizer
from brakeopt.mc_uq import sturges_bins, uniform_row
from oracles import cdf, pdf
from test_maxent import EDGE_US, input_model_with, law_of, oracle_sample_inverse_cdf


def test_rows_derive_from_index_alone():
    mat = draw_uniform_matrix(42, 64)
    for i in (0, 1, 2, 31, 63):
        assert np.array_equal(uniform_row(42, i), mat[i])


_MASK64 = 2**64 - 1


def philox_row(seed: int, i: int) -> tuple[float, float]:
    """Row i of ``draw_uniform_matrix(seed, nu)`` without numpy: Philox4x64-10
    (Salmon et al., SC'11) with numpy's key layout, at counter (i >> 1) + 1,
    words 2(i & 1) and 2(i & 1) + 1 of the block, each as (w >> 11) * 2**-53."""
    counter = (i >> 1) + 1
    x = [(counter >> (64 * k)) & _MASK64 for k in range(4)]
    k0, k1 = seed & _MASK64, seed >> 64
    for _ in range(10):
        p0, p1 = 0xD2E7470EE14C6C93 * x[0], 0xCA5A826395121157 * x[2]
        x = [(p1 >> 64) ^ x[1] ^ k0, p1 & _MASK64, (p0 >> 64) ^ x[3] ^ k1, p0 & _MASK64]
        k0, k1 = (k0 + 0x9E3779B97F4A7C15) & _MASK64, (k1 + 0xBB67AE8584CAA73B) & _MASK64
    off = 2 * (i & 1)
    return (x[off] >> 11) * 2.0**-53, (x[off + 1] >> 11) * 2.0**-53


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**64 - 1])
def test_draw_matches_an_independent_philox(seed):
    # each nu draws a prefix of one stream, an odd nu ending inside a Philox block
    oracle = np.array([philox_row(seed, i) for i in range(4096)])
    for nu in (1, 999, 1000, 4096, 8192):
        assert oracle[:nu].tobytes() == draw_uniform_matrix(seed, nu)[:4096].tobytes()


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_philox_oracle_carries_its_counter_into_the_second_word(seed):
    # rows 2**65 - 2 and 2**65 - 1 sit at counter 2**64, past the first word
    for i in range(2**65 - 4, 2**65):
        bitgen = np.random.Philox(key=seed, counter=i >> 1)
        block = np.random.Generator(bitgen).random(4)
        assert np.array(philox_row(seed, i)).tobytes() == block[2 * (i & 1):][:2].tobytes()


def test_draw_rejects_bad_arguments():
    from brakeopt import ValidationError
    with pytest.raises(ValidationError):
        draw_uniform_matrix(0, 0)
    with pytest.raises(ValidationError):
        draw_uniform_matrix(-1, 16)


@pytest.fixture(scope="module")
def ensemble(cfg, input_model):
    return propagate(input_model, draw_uniform_matrix(0, 4096),
                     cfg.geometry, cfg.friction, cfg.loads.Fg_kN, cfg.loads.Fb_kN)


def test_propagate_outputs_match_scalar_route_bitwise(cfg, ensemble):
    for i in range(0, ensemble.nu, 97):
        load = LoadCase.from_degrees(cfg.loads.Fg_kN, cfg.loads.Fb_kN,
                                     ensemble.fs_kN[i], ensemble.alpha_deg[i])
        sol = braking_force(cfg.geometry, cfg.friction, load)
        assert ensemble.outputs[i] == sol.Fh
        assert bool(ensemble.valid[i]) == sol.valid


def test_propagate_invalid_count_regression(ensemble):
    # seed 0, shipped config: frozen by a verified run
    assert ensemble.invalid_count == int(np.count_nonzero(~ensemble.valid))
    assert ensemble.invalid_count == 1276


def gauss_legendre(dist, points):
    """Nodes and weights of the ``points``-point Gauss-Legendre rule on
    ``dist``'s support, each weight times the density at its node."""
    t, w = np.polynomial.legendre.leggauss(points)
    half = (dist.hi - dist.lo) / 2
    x = dist.lo + half * (t + 1.0)
    return x, half * w * np.array([pdf(dist, v) for v in x])


def probability_of(dist, lo, hi):
    """P(lo <= X <= hi) for X of law ``dist``."""
    return max(cdf(dist, hi) - cdf(dist, lo), 0.0)


def exact_reference(cfg, input_model, points=200):
    """(E[Fh], std[Fh], P(valid), P(|Fh| > y*)) over the two independent
    input laws, by quadrature, with no sampling.  At a fixed cam angle Fh
    and the normals N1 and N2 are affine in the spring force, Fh = p + q*Fs,
    with p and q from two 6x6 solves at Fs = 0 and Fs = 1.  So the moments of
    Fh are a 1-D sum over the angle of p, q and the first two moments of Fs.
    A sample is valid when N1, N2 >= 0, an interval of Fs, and |Fh| > y* on
    two half-lines of Fs; their probabilities at each angle are differences
    of the Fs law's CDF."""
    fs_dist, y_star = input_model.fs_dist, cfg.design.constraint.y_star
    fs, fs_w = gauss_legendre(fs_dist, points)
    m1, m2 = float(fs_w @ fs), float(fs_w @ fs**2)
    alpha, alpha_w = gauss_legendre(input_model.alpha_dist, points)
    pq, p_valid, p_exceed = [], [], []
    for a in alpha:
        at_0, at_1 = (solve_equilibrium(cfg.geometry, cfg.friction, LoadCase.from_degrees(
            cfg.loads.Fg_kN, cfg.loads.Fb_kN, Fs, a)) for Fs in (0.0, 1.0))
        lo, hi = -math.inf, math.inf
        for n0, n1 in ((at_0.N1, at_1.N1), (at_0.N2, at_1.N2)):
            slope = n1 - n0  # n0 + slope*Fs >= 0
            if slope > 0.0:
                lo = max(lo, -n0 / slope)
            elif slope < 0.0:
                hi = min(hi, -n0 / slope)
            elif n0 < 0.0:
                hi = -math.inf
        p_valid.append(probability_of(fs_dist, lo, hi))
        p, q = at_0.Fh, at_1.Fh - at_0.Fh
        if q == 0.0:
            p_exceed.append(float(abs(p) > y_star))
        else:
            # the Fs where p + q*Fs is -y* and +y*, in increasing order
            below, above = sorted(((-y_star - p) / q, (y_star - p) / q))
            p_exceed.append(1.0 - probability_of(fs_dist, below, above))
        pq.append((p, q))
    p, q = np.array(pq).T
    mean = float(alpha_w @ (p + q * m1))
    second = float(alpha_w @ (p * p + 2.0 * p * q * m1 + q * q * m2))
    return (mean, math.sqrt(second - mean * mean),
            float(alpha_w @ np.array(p_valid)), float(alpha_w @ np.array(p_exceed)))


@pytest.fixture(scope="module")
def exact(cfg, input_model):
    return exact_reference(cfg, input_model)


def test_exact_moments_are_converged_in_the_quadrature(cfg, input_model, exact):
    assert exact == pytest.approx((7.268705, 4.441673, 0.6941004, 0.9795309), abs=5e-7)
    for points in (100, 400):
        assert exact_reference(cfg, input_model, points) == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_monte_carlo_moments_match_the_exact_reference(cfg, input_model, exact, seed):
    nu = 2**16
    ens = propagate(input_model, draw_uniform_matrix(seed, nu),
                    cfg.geometry, cfg.friction, cfg.loads.Fg_kN, cfg.loads.Fb_kN)
    _, _, mean, std = mc_uq.sample_stats(ens.outputs)
    exact_mean, exact_std = exact[:2]
    assert abs(mean - exact_mean) <= 4.0 * std / math.sqrt(nu)
    assert abs(std - exact_std) <= 0.01 * exact_std
    # the chance constraint's own count: finite samples with |Fh| > y*
    estimates = (float(np.mean(ens.valid)),
                 optimizer._constraint_value(cfg.design.constraint, ens.outputs))
    for estimate, p in zip(estimates, exact[2:]):
        assert abs(estimate - p) <= 4.0 * math.sqrt(p * (1.0 - p) / nu), (estimate, p)


def test_propagate_point_mass_limit_reduces_to_nominal(cfg):
    eps = 1e-9
    model = input_model_with(alpha_lo_deg=6.0 - eps, alpha_hi_deg=6.0 + eps, alpha_mean_deg=6.0,
                             fs_lo_kN=42.0 - eps, fs_hi_kN=42.0 + eps, fs_mean_kN=42.0)
    ens = propagate(model, draw_uniform_matrix(5, 256),
                    cfg.geometry, cfg.friction, cfg.loads.Fg_kN, cfg.loads.Fb_kN)
    assert np.all(np.abs(ens.outputs - 7.2693735011397308) < 1e-6)


def test_propagate_freeze_fs_keeps_alpha_column(cfg, input_model, ensemble):
    # each freeze fixes its own column and keeps the other one's draw
    for name, value, fixed, kept in (("freeze_fs_kn", 42.0, "fs_kN", "alpha_deg"),
                                     ("freeze_alpha_deg", 6.0, "alpha_deg", "fs_kN")):
        frozen = propagate(input_model, draw_uniform_matrix(0, 4096),
                           cfg.geometry, cfg.friction, cfg.loads.Fg_kN, cfg.loads.Fb_kN,
                           **{name: value})
        assert np.array_equal(getattr(frozen, kept), getattr(ensemble, kept))
        assert np.all(getattr(frozen, fixed) == value)


def test_draw_returns_a_read_only_float_matrix():
    values = draw_uniform_matrix(3, 100)
    assert values.dtype == np.float64 and values.shape == (100, 2)
    assert not values.flags.writeable


@pytest.mark.parametrize("freeze", [{}, {"freeze_alpha_deg": 6.0}, {"freeze_fs_kn": 42.0}])
def test_propagate_columns_are_read_only_and_equal_sample_inputs(cfg, input_model, freeze):
    uniforms = draw_uniform_matrix(0, 512)
    ens = propagate(input_model, uniforms, cfg.geometry, cfg.friction,
                    cfg.loads.Fg_kN, cfg.loads.Fb_kN, **freeze)
    alpha_deg, fs, _, _ = mc_uq.sample_inputs(input_model, uniforms, **freeze)
    for got, want in ((ens.alpha_deg, alpha_deg), (ens.fs_kN, fs)):
        assert got.dtype == want.dtype and got.shape == want.shape == (512,)
        assert got.tobytes() == want.tobytes()
    for arr in (ens.alpha_deg, ens.fs_kN, ens.outputs, ens.valid):
        assert not arr.flags.writeable


def test_uniform_spring_force_gives_flat_topped_output(cfg):
    # with the spring-force marginal degenerated to uniform and the angle
    # frozen, the affine response keeps the output density flat
    model = input_model_with(alpha_lo_deg=0.0, alpha_hi_deg=18.0, alpha_mean_deg=6.0,
                             fs_lo_kN=0.0, fs_hi_kN=56.0, fs_mean_kN=28.0)
    ens = propagate(model, draw_uniform_matrix(13, 8192),
                    cfg.geometry, cfg.friction, cfg.loads.Fg_kN, cfg.loads.Fb_kN,
                    freeze_alpha_deg=6.0)
    counts, _ = np.histogram(ens.outputs, bins=8)
    expected = ens.nu / 8
    assert np.all(np.abs(counts - expected) < 5.0 * math.sqrt(expected))


def test_summarize_small_sample():
    stats = summarize([1.0, 2.0, 3.0])
    assert stats.mean == 2.0
    assert stats.std == 1.0
    assert stats.min == 1.0 and stats.max == 3.0


def test_summarize_requires_two_samples():
    with pytest.raises(InsufficientSamples):
        summarize([1.0])


def test_summarize_histogram_counts_and_quantile_sandwich(ensemble):
    stats = summarize(ensemble.outputs)
    assert int(stats.hist_counts.sum()) == ensemble.nu
    assert len(stats.hist_edges) == sturges_bins(ensemble.nu) + 1
    # log2(300) = 8.2: Sturges' rule takes its ceiling
    assert len(summarize(ensemble.outputs[:300]).hist_counts) == 10
    assert stats.min <= stats.ci95[0] <= stats.mean <= stats.ci95[1] <= stats.max
    q = np.quantile(ensemble.outputs, [0.025, 0.5, 0.975])
    assert stats.min <= q[0] <= q[1] <= q[2] <= stats.max
    assert stats.ci95 == (q[0], q[2])  # the linear quantiles


def test_summarize_mean_independent_of_summation_order(ensemble):
    # the pairwise mean of the one statistics pass, bit for bit
    stats = summarize(ensemble.outputs)
    assert np.float64(stats.mean).tobytes() == np.mean(ensemble.outputs).tobytes()


def test_point_mass_has_zero_spread_and_no_kde():
    # np.std of these three is 1.09e-15: the mean rounds off the constant
    x = [7.2693735011397308] * 3
    stats = summarize(x)
    assert stats.std == 0.0 and stats.min == stats.max == x[0]
    assert stats.ci95 == (x[0], x[0])
    assert stats.kde_grid is None and stats.kde_density is None
    # numpy's edges 0.5 either side of the constant, in Sturges' bins
    assert len(stats.hist_counts) == sturges_bins(3)
    assert (stats.hist_edges[0], stats.hist_edges[-1]) == (x[0] - 0.5, x[0] + 0.5)


def test_trace_small_sample():
    running_mean, running_std = convergence_trace([1.0, 2.0, 3.0])
    assert np.allclose(running_mean, [1.0, 1.5, 2.0])
    assert running_std[0] == 0.0
    assert running_std[2] == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_trace_rejects_non_finite_samples(bad):
    with pytest.raises(ValidationError):
        convergence_trace([0.0, bad, 1.0])


@pytest.mark.parametrize("shape", [(3, 2), (0,)])
def test_trace_needs_a_non_empty_flat_sample(shape):
    with pytest.raises(InsufficientSamples):
        convergence_trace(np.ones(shape))


def test_trace_constant_sample_is_flat():
    running_mean, running_std = convergence_trace([7.25] * 512)
    assert np.all(running_mean == 7.25)
    assert np.all(running_std < 1e-9)


def test_trace_terminus_within_rounding_of_summary_mean(ensemble):
    # the trace sums left to right and the summary pairwise: both are within
    # rounding of the exact mean, n * eps * mean(|x|) apart at most
    x = ensemble.outputs
    running_mean, _ = convergence_trace(x)
    bound = x.size * np.finfo(float).eps * float(np.mean(np.abs(x)))
    assert abs(running_mean[-1] - summarize(x).mean) <= bound


def test_trace_tail_fluctuation_within_clt_scale(ensemble):
    running_mean, running_std = convergence_trace(ensemble.outputs)
    n = ensemble.nu
    assert abs(running_mean[n - 1] - running_mean[n // 2 - 1]) < \
        3.0 * running_std[n - 1] / math.sqrt(n // 2)


def kde(samples):
    """The density curve of ``summarize(samples)``: ``(kde_grid, kde_density)``."""
    stats = summarize(samples)
    return stats.kde_grid, stats.kde_density


def test_kde_recovers_uniform_density():
    draws = draw_uniform_matrix(8, 100_000)[:, 0]
    grid, density = kde(draws)
    inner = (grid >= 0.1) & (grid <= 0.9)
    assert np.max(np.abs(density[inner] - 1.0)) < 0.05


def test_kde_normalization_and_grid_span(ensemble):
    grid, density = kde(ensemble.outputs)
    # the trapezoid rule, spelled for every numpy that pyproject.toml allows
    integral = np.sum(np.diff(grid) * (density[1:] + density[:-1]) / 2.0)
    assert integral == pytest.approx(1.0, abs=1e-3)
    h = 1.06 * np.std(ensemble.outputs, ddof=1) * ensemble.nu ** (-0.2)
    assert grid[0] == pytest.approx(ensemble.outputs.min() - 3.0 * h, rel=1e-12)
    assert grid[-1] == pytest.approx(ensemble.outputs.max() + 3.0 * h, rel=1e-12)


def exact_kde(samples, grid_size: int = 256):
    """Oracle: the exact Gaussian sum over every sample, with no binning, on
    a flat sample of at least two values and nonzero spread."""
    x = np.asarray(samples, dtype=float)
    h = 1.06 * float(np.std(x, ddof=1)) * x.size ** (-0.2)
    grid = np.linspace(np.min(x) - 3.0 * h, np.max(x) + 3.0 * h, grid_size)
    density = np.zeros(grid_size)
    norm = 1.0 / (x.size * h * math.sqrt(2.0 * math.pi))
    # chunk the sample axis to bound the broadcast buffer
    for k in range(0, x.size, 8192):
        dev = (grid[:, None] - x[None, k:k + 8192]) / h
        density += norm * np.sum(np.exp(-0.5 * dev * dev), axis=1)
    return grid, density


def assert_within_binning_bound(x):
    """Linear binning replaces each kernel exp(-(g - t)^2 / 2h^2), as a function
    of the sample t, by its linear interpolant between lattice points; its
    second derivative is at most 1/h^2 in size, so each density value moves by
    at most delta^2 / (8 sqrt(2 pi) h^3), plus float slack."""
    grid, density = kde(x)
    grid_exact, exact = exact_kde(x)
    assert np.array_equal(grid, grid_exact)
    h = 1.06 * np.std(x, ddof=1) * x.size ** (-0.2)
    delta = (np.max(x) - np.min(x)) / (mc_uq._KDE_BINS - 1)
    bound = delta ** 2 / (8.0 * math.sqrt(2.0 * math.pi) * h ** 3) + 1e-12 * np.max(exact)
    assert np.max(np.abs(density - exact)) <= bound


@settings(max_examples=120)
@given(nu=st.one_of(st.integers(3, 64), st.integers(3, 20_000)),
       kind=st.sampled_from(["normal", "exponential", "two-cluster"]),
       shift=st.floats(-1e4, 1e4), scale=st.floats(0.01, 100.0),
       seed=st.integers(0, 2**32 - 1))
@example(nu=3, kind="normal", shift=0.0, scale=1.0, seed=0)
@example(nu=5, kind="exponential", shift=1e4, scale=1.0, seed=1)
@example(nu=16, kind="two-cluster", shift=-1e4, scale=0.01, seed=2)
@example(nu=20_000, kind="two-cluster", shift=0.0, scale=100.0, seed=3)
def test_binned_kde_stays_within_the_binning_bound(nu, kind, shift, scale, seed):
    rng = np.random.default_rng(seed)
    if kind == "normal":
        x = rng.standard_normal(nu)
    elif kind == "exponential":
        x = rng.exponential(size=nu)
    else:
        x = rng.standard_normal(nu) + np.where(rng.random(nu) < 0.5, 0.0, 8.0)
    assert_within_binning_bound(shift + scale * x)


def test_kde_bytes_do_not_depend_on_array_layout(cfg, input_model):
    x = propagate(input_model, draw_uniform_matrix(0, 65536),
                  cfg.geometry, cfg.friction, cfg.loads.Fg_kN, cfg.loads.Fb_kN).outputs
    misaligned = np.concatenate([[0.0], x])[1:]
    for a, b in zip(kde(x), kde(misaligned)):
        assert a.tobytes() == b.tobytes()
    assert_within_binning_bound(x)


# two full blocks of the sliced kernel and a partial one
NU_BLOCKS = 2 * mc_uq._BLOCK + 3


def listed_sample_inputs(input_model, uniforms, *, freeze_alpha_deg=None, freeze_fs_kn=None):
    """Oracle: the transform with one Python list per column, per element."""
    def column(dist, values, frozen):
        if frozen is not None:
            return np.full(len(values), float(frozen))
        return np.array([maxent.sample_inverse_cdf(dist, v) for v in values.tolist()])

    alpha_deg = column(input_model.alpha_dist, uniforms[:, 0], freeze_alpha_deg)
    fs = column(input_model.fs_dist, uniforms[:, 1], freeze_fs_kn)
    alpha_rad = (alpha_deg * (math.pi / 180.0)).tolist()
    return (alpha_deg, fs, np.array([math.sin(v) for v in alpha_rad]),
            np.array([math.cos(v) for v in alpha_rad]))


FREEZES = [{}, {"freeze_alpha_deg": 6.0}, {"freeze_fs_kn": 42.0}]


@pytest.mark.parametrize("freeze", FREEZES)
def test_streamed_transform_has_the_bits_of_the_listed_one(input_model, freeze):
    uniforms = draw_uniform_matrix(4, NU_BLOCKS)
    got = mc_uq.sample_inputs(input_model, uniforms, **freeze)
    want = listed_sample_inputs(input_model, uniforms, **freeze)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape == (NU_BLOCKS,)
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("fs_mean, law", [(42.0, "regular"), (28.0, "uniform"),
                                           (55.99, "overflow")])
def test_sample_inputs_keep_the_bits_of_the_per_call_law(fs_mean, law):
    # the shipped model, and its spring force moved to the uniform law and
    # to rate * width = -5600, past the expm1 overflow
    model = input_model_with(alpha_lo_deg=0.0, alpha_hi_deg=18.0, alpha_mean_deg=6.0,
                             fs_lo_kN=0.0, fs_hi_kN=56.0, fs_mean_kN=fs_mean)
    assert law_of(model.fs_dist) == law and law_of(model.alpha_dist) == "regular"
    edges = np.array([EDGE_US, EDGE_US[::-1]]).T
    uniforms = np.concatenate([draw_uniform_matrix(4, 2000), edges])
    alpha_deg, fs, _, _ = mc_uq.sample_inputs(model, uniforms)
    for got, dist, column in ((alpha_deg, model.alpha_dist, uniforms[:, 0]),
                              (fs, model.fs_dist, uniforms[:, 1])):
        want = np.array([oracle_sample_inverse_cdf(dist, u) for u in column.tolist()])
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("freeze", FREEZES)
def test_sliced_kernel_has_the_bits_of_one_whole_ensemble_call(cfg, input_model, monkeypatch,
                                                                freeze):
    uniforms = draw_uniform_matrix(4, NU_BLOCKS)
    _, fs, sin_a, cos_a = mc_uq.sample_inputs(input_model, uniforms, **freeze)
    args = (cfg.geometry, cfg.friction, cfg.loads.Fg_kN, cfg.loads.Fb_kN)
    column = mechmodel.column_terms(
        *args[:2], mechmodel.cam_axial(cfg.friction, sin_a, cos_a), cfg.geometry.c)
    spring = mechmodel.spring_terms(*args, fs, cfg.geometry.a)
    fh, valid, _ = mechmodel.braking_force_ensemble(*args[:2], column, spring)

    kernel, lengths = mechmodel.braking_force_ensemble, []

    def recorded(*call_args, **kwargs):
        lengths.append(len(call_args[3][0]))  # the spring terms' Fs*a
        return kernel(*call_args, **kwargs)

    monkeypatch.setattr(mechmodel, "braking_force_ensemble", recorded)
    ens = propagate(input_model, uniforms, *args, **freeze)
    assert lengths == [mc_uq._BLOCK, mc_uq._BLOCK, 3]
    assert ens.outputs.tobytes() == fh.tobytes()
    assert ens.valid.tobytes() == valid.tobytes()
    if not freeze:
        assert 0 < ens.invalid_count < NU_BLOCKS


def single_matrix_kde(samples):
    """Oracle: the binned KDE with every Gaussian summed in one
    (_KDE_GRID, _KDE_BINS) matrix."""
    x = np.asarray(samples, dtype=float)
    h = 1.06 * float(np.std(x, ddof=1)) * x.size ** (-0.2)
    lo, hi = np.min(x), np.max(x)
    grid = np.linspace(lo - 3.0 * h, hi + 3.0 * h, mc_uq._KDE_GRID)
    norm = 1.0 / (x.size * h * math.sqrt(2.0 * math.pi))
    centres, delta = np.linspace(lo, hi, mc_uq._KDE_BINS, retstep=True)
    pos = (x - lo) / delta
    left = np.minimum(pos.astype(np.intp), mc_uq._KDE_BINS - 2)
    w = pos - left
    weights = (np.bincount(left, 1.0 - w, mc_uq._KDE_BINS)
               + np.bincount(left + 1, w, mc_uq._KDE_BINS))
    dev = (grid[:, None] - centres) / h
    return grid, norm * np.sum(weights * np.exp(-0.5 * dev * dev), axis=1)


def out_of_place_trace(samples):
    """Oracle: the convergence trace with a new array for every operation."""
    x = np.asarray(samples, dtype=float)
    k = np.arange(1, x.size + 1, dtype=float)
    cs = np.cumsum(x)
    css = np.cumsum(x * x)
    var = np.zeros_like(x)
    var[1:] = np.maximum(css[1:] - cs[1:] ** 2 / k[1:], 0.0) / (k[1:] - 1.0)
    return cs / k, np.sqrt(var)


def streamed_layer_samples(cfg, input_model):
    rng = np.random.default_rng(9)
    yield propagate(input_model, draw_uniform_matrix(4, NU_BLOCKS), cfg.geometry, cfg.friction,
                    cfg.loads.Fg_kN, cfg.loads.Fb_kN).outputs
    yield rng.standard_normal(NU_BLOCKS) * 1e3 + 1e6  # cancellation in css - cs**2/k
    yield np.concatenate([rng.exponential(size=100), [50.0]])
    yield np.array([7.25, 7.25, 7.25 + 2.0 ** -50])


def test_blocked_kde_has_the_bits_of_the_single_matrix(cfg, input_model):
    assert mc_uq._KDE_GRID % mc_uq._KDE_ROWS == 0 and mc_uq._KDE_ROWS < mc_uq._KDE_GRID
    for x in streamed_layer_samples(cfg, input_model):
        for got, want in zip(kde(x), single_matrix_kde(x)):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("nu", [2, 3, 1000, 2 ** 18])
def test_in_place_binning_has_the_bits_of_the_out_of_place_form(nu):
    # a skewed sample far from 0, so that x - lo and the division round
    x = 1e3 + np.random.default_rng(nu).exponential(size=nu)
    for got, want in zip(kde(x), single_matrix_kde(x)):
        assert got.tobytes() == want.tobytes()


def test_kde_holds_few_sample_long_arrays():
    # the bin offsets w, the left bins and 1 - w: three sample lengths, and
    # the (_KDE_ROWS, _KDE_BINS) blocks
    x = np.random.default_rng(1).standard_normal(2 ** 18)
    kde(x)
    tracemalloc.start()
    try:
        kde(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * x.nbytes


def test_in_place_trace_has_the_bits_of_the_out_of_place_formula(cfg, input_model):
    clamped = 0
    # a constant sample takes the clamp at 0 of the variance
    for x in [*streamed_layer_samples(cfg, input_model), np.array([3.0]), np.full(NU_BLOCKS, 0.1)]:
        want_mean, want_std = out_of_place_trace(x)
        got_mean, got_std = convergence_trace(x)
        assert got_mean.tobytes() == want_mean.tobytes()
        assert got_std.tobytes() == want_std.tobytes()
        cs, css = np.cumsum(x), np.cumsum(x * x)
        clamped += int(np.count_nonzero(css[1:] - cs[1:] ** 2 / np.arange(2, x.size + 1) < 0.0))
    assert clamped > 0
