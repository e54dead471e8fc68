"""Seeded Monte Carlo engine: determinism, propagation exactness, statistics."""

import math

import numpy as np
import pytest

from brakeopt import (
    DegenerateSample,
    InsufficientSamples,
    LoadCase,
    braking_force,
    build_input_model,
    convergence_trace,
    draw_uniform_matrix,
    kde,
    propagate,
    summarize,
)
from brakeopt import mc_uq
from brakeopt.mc_uq import sturges_bins, uniform_row


def test_draw_is_deterministic():
    a = draw_uniform_matrix(42, 1)
    b = draw_uniform_matrix(42, 1)
    assert np.array_equal(a.values, b.values)


def test_draw_prefix_property():
    small = draw_uniform_matrix(42, 4096)
    large = draw_uniform_matrix(42, 8192)
    assert np.array_equal(small.values, large.values[:4096])


def test_rows_derive_from_index_alone():
    mat = draw_uniform_matrix(42, 64)
    for i in (0, 1, 2, 31, 63):
        assert np.array_equal(uniform_row(42, i), mat.values[i])


def test_column_means_near_half():
    for seed in (1, 2):
        values = draw_uniform_matrix(seed, 4096).values
        assert np.all(np.abs(values.mean(axis=0) - 0.5) < 0.03)


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
                                     ensemble.inputs[i, 1], ensemble.inputs[i, 0])
        sol = braking_force(cfg.geometry, cfg.friction, load)
        assert ensemble.outputs[i] == sol.Fh
        assert bool(ensemble.valid[i]) == sol.valid


def test_propagate_invalid_count_regression(ensemble):
    # seed 0, shipped config: frozen by a verified run
    assert ensemble.invalid_count == int(np.count_nonzero(~ensemble.valid))
    assert ensemble.invalid_count == 1276


def test_propagate_larger_run_confirms_mean(cfg, input_model, ensemble):
    big = propagate(input_model, draw_uniform_matrix(123, 65536),
                    cfg.geometry, cfg.friction, cfg.loads.Fg_kN, cfg.loads.Fb_kN)
    small_mean = float(np.mean(ensemble.outputs))
    big_mean = float(np.mean(big.outputs))
    assert abs(small_mean - big_mean) / abs(big_mean) < 0.02


def test_propagate_point_mass_limit_reduces_to_nominal(cfg):
    eps = 1e-9
    model = build_input_model(alpha_lo=6.0 - eps, alpha_hi=6.0 + eps, alpha_mean=6.0,
                              fs_lo=42.0 - eps, fs_hi=42.0 + eps, fs_mean=42.0)
    ens = propagate(model, draw_uniform_matrix(5, 256),
                    cfg.geometry, cfg.friction, cfg.loads.Fg_kN, cfg.loads.Fb_kN)
    assert np.all(np.abs(ens.outputs - 7.2693735011397308) < 1e-6)


def test_propagate_freeze_fs_keeps_alpha_column(cfg, input_model, ensemble):
    frozen = propagate(input_model, draw_uniform_matrix(0, 4096),
                       cfg.geometry, cfg.friction, cfg.loads.Fg_kN, cfg.loads.Fb_kN,
                       freeze_fs_kn=42.0)
    assert np.array_equal(frozen.inputs[:, 0], ensemble.inputs[:, 0])
    assert np.all(frozen.inputs[:, 1] == 42.0)


def test_standardized_outputs_track_spring_force_when_alpha_frozen(cfg, input_model, ensemble):
    frozen = propagate(input_model, draw_uniform_matrix(0, 4096),
                       cfg.geometry, cfg.friction, cfg.loads.Fg_kN, cfg.loads.Fb_kN,
                       freeze_alpha_deg=6.0)
    assert np.array_equal(frozen.inputs[:, 1], ensemble.inputs[:, 1])
    y = frozen.outputs
    fs = frozen.inputs[:, 1]
    std_y = (y - y.mean()) / y.std(ddof=1)
    std_fs = (fs - fs.mean()) / fs.std(ddof=1)
    assert np.max(np.abs(std_y - std_fs)) < 1e-10


def test_uniform_spring_force_gives_flat_topped_output(cfg):
    # with the spring-force marginal degenerated to uniform and the angle
    # frozen, the affine response keeps the output density flat
    model = build_input_model(alpha_lo=0.0, alpha_hi=18.0, alpha_mean=6.0,
                              fs_lo=0.0, fs_hi=56.0, fs_mean=28.0)
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


def test_summarize_constant_sample():
    stats = summarize([7.25] * 64)
    assert stats.std == 0.0
    assert stats.ci95 == (7.25, 7.25)
    assert stats.kde_grid is None


def test_summarize_requires_two_samples():
    with pytest.raises(InsufficientSamples):
        summarize([1.0])


def test_summarize_histogram_counts_and_quantile_sandwich(ensemble):
    stats = summarize(ensemble.outputs)
    assert int(stats.hist_counts.sum()) == ensemble.nu
    assert len(stats.hist_edges) == sturges_bins(ensemble.nu) + 1
    assert stats.min <= stats.ci95[0] <= stats.mean <= stats.ci95[1] <= stats.max
    q = np.quantile(ensemble.outputs, [0.025, 0.5, 0.975])
    assert stats.min <= q[0] <= q[1] <= q[2] <= stats.max


def test_summarize_mean_independent_of_summation_order(ensemble):
    stats = summarize(ensemble.outputs)
    pairwise = float(np.mean(ensemble.outputs))
    assert abs(stats.mean - pairwise) / abs(pairwise) < 0.01


def test_trace_small_sample():
    running_mean, running_std = convergence_trace([1.0, 2.0, 3.0])
    assert np.allclose(running_mean, [1.0, 1.5, 2.0])
    assert running_std[0] == 0.0
    assert running_std[2] == pytest.approx(1.0, rel=1e-12)


def test_trace_constant_sample_is_flat():
    running_mean, running_std = convergence_trace([7.25] * 512)
    assert np.all(running_mean == 7.25)
    assert np.all(running_std < 1e-9)


def test_trace_terminus_equals_summary_mean_exactly(ensemble):
    running_mean, _ = convergence_trace(ensemble.outputs)
    assert running_mean[-1] == summarize(ensemble.outputs).mean


def test_trace_tail_fluctuation_within_clt_scale(ensemble):
    running_mean, running_std = convergence_trace(ensemble.outputs)
    n = ensemble.nu
    assert abs(running_mean[n - 1] - running_mean[n // 2 - 1]) < \
        3.0 * running_std[n - 1] / math.sqrt(n // 2)


def test_kde_recovers_uniform_density():
    draws = draw_uniform_matrix(8, 100_000).values[:, 0]
    grid, density = kde(draws, grid_size=512)
    inner = (grid >= 0.1) & (grid <= 0.9)
    assert np.max(np.abs(density[inner] - 1.0)) < 0.05


def test_kde_normalization_and_grid_span(ensemble):
    grid, density = kde(ensemble.outputs, grid_size=512)
    assert np.trapezoid(density, grid) == pytest.approx(1.0, abs=1e-3)
    h = 1.06 * np.std(ensemble.outputs, ddof=1) * ensemble.nu ** (-0.2)
    assert grid[0] == pytest.approx(ensemble.outputs.min() - 3.0 * h, rel=1e-12)
    assert grid[-1] == pytest.approx(ensemble.outputs.max() + 3.0 * h, rel=1e-12)


def test_kde_degenerate_and_tiny_inputs():
    with pytest.raises(DegenerateSample):
        kde([0.0, 0.0])
    with pytest.raises(InsufficientSamples):
        kde([1.0])
