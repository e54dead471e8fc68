"""Truncated-exponential fitting, density, and inverse-CDF sampling.

The frozen rate constants come from an independent oracle: bisection on a
quadrature-based mean (mpmath.quad at 40 digits).  The same oracle runs
live in `oracle_rate` for the randomized cross-checks.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brakeopt import (
    MeanOutOfSupport,
    TruncatedExponential,
    ValidationError,
    build_input_model,
    draw_uniform_matrix,
    fit_truncexp,
    mean_of,
    sample_inverse_cdf,
)
from brakeopt.maxent import cdf, pdf

# oracle-fitted rates for the shipped supports/means
RATE_ALPHA = 0.11939587777261458567   # [0, 18] deg, mean 6
RATE_FS = -0.064169856597275465755    # [0, 56] kN, mean 42
MEAN_RATE_01 = 6.4353947227298934842  # mean for rate 0.1 on [0, 18]


def oracle_rate(lo, hi, target, dps=30):
    """Quadrature + bisection inversion of the mean map, package-independent."""
    with mp.workdps(dps):
        def mean(rate):
            z = mp.quad(lambda x: mp.e ** (-rate * x), [lo, hi])
            return mp.quad(lambda x: x * mp.e ** (-rate * x), [lo, hi]) / z

        a, b = mp.mpf(-1) / (hi - lo), mp.mpf(1) / (hi - lo)
        while mean(a) < target:
            a *= 2
        while mean(b) > target:
            b *= 2
        for _ in range(120):
            m = (a + b) / 2
            if mean(m) > target:
                a = m
            else:
                b = m
        return float((a + b) / 2)


def test_fit_alpha_matches_oracle_constant():
    dist = fit_truncexp(0.0, 18.0, 6.0)
    assert dist.rate == pytest.approx(RATE_ALPHA, rel=1e-12)
    assert mean_of(dist) == pytest.approx(6.0, abs=1e-10 * 18.0)


def test_fit_fs_matches_oracle_constant():
    dist = fit_truncexp(0.0, 56.0, 42.0)
    assert dist.rate == pytest.approx(RATE_FS, rel=1e-12)
    assert mean_of(dist) == pytest.approx(42.0, abs=1e-10 * 56.0)


def test_fit_midpoint_is_exactly_uniform():
    dist = fit_truncexp(0.0, 56.0, 28.0)
    assert dist.rate == 0.0
    assert pdf(dist, 10.0) == pytest.approx(1.0 / 56.0, rel=1e-14)


def test_mean_of_uniform_is_midpoint():
    dist = TruncatedExponential.from_rate(0.0, 18.0, 0.0)
    assert mean_of(dist) == 9.0


def test_mean_of_frozen_rate():
    dist = TruncatedExponential.from_rate(0.0, 18.0, 0.1)
    assert mean_of(dist) == pytest.approx(MEAN_RATE_01, rel=1e-13)


def test_mean_reflection_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(50):
        lo, width = rng.uniform(-5, 5), rng.uniform(0.5, 60)
        rate = rng.uniform(-2, 2)
        plus = mean_of(TruncatedExponential.from_rate(lo, lo + width, rate))
        minus = mean_of(TruncatedExponential.from_rate(lo, lo + width, -rate))
        assert plus + minus == pytest.approx(2 * lo + width, abs=1e-10 * width)


def test_mean_series_joins_direct_branch_smoothly():
    # reference needs extended precision: the naive formula cancels near 0
    with mp.workdps(40):
        for z in (0.04999, 0.05001, -0.04999, -0.05001):
            dist = TruncatedExponential.from_rate(0.0, 1.0, z)
            exact = float(1 / mp.mpf(z) - 1 / (mp.e ** mp.mpf(z) - 1))
            assert mean_of(dist) == pytest.approx(exact, abs=1e-14)


def test_fit_round_trip_random_supports():
    rng = np.random.default_rng(11)
    for _ in range(100):
        lo = float(rng.uniform(-20, 20))
        hi = lo + float(rng.uniform(0.1, 100))
        m = lo + float(rng.uniform(0.02, 0.98)) * (hi - lo)
        dist = fit_truncexp(lo, hi, m)
        assert abs(mean_of(dist) - m) <= 1e-10 * (hi - lo)


def test_fit_against_live_oracle():
    for lo, hi, m in [(0.0, 18.0, 3.0), (0.0, 56.0, 50.0), (-4.0, 9.0, 1.0)]:
        assert fit_truncexp(lo, hi, m).rate == pytest.approx(oracle_rate(lo, hi, m), rel=1e-9)


def test_fit_reflection_antisymmetry():
    rng = np.random.default_rng(5)
    for _ in range(30):
        lo = float(rng.uniform(-5, 5))
        hi = lo + float(rng.uniform(1, 50))
        m = lo + float(rng.uniform(0.05, 0.45)) * (hi - lo)
        assert fit_truncexp(lo, hi, m).rate == pytest.approx(
            -fit_truncexp(lo, hi, lo + hi - m).rate, abs=1e-9)


def test_fit_rejects_mean_outside_support():
    for m in (-1.0, 0.0, 18.0, 25.0):
        with pytest.raises(MeanOutOfSupport):
            fit_truncexp(0.0, 18.0, m)


def test_density_normalization_by_quadrature():
    rng = np.random.default_rng(4)
    cases = [(0.0, 18.0, 6.0), (0.0, 56.0, 42.0)]
    cases += [(float(lo), float(lo + w), float(lo + f * w))
              for lo, w, f in zip(rng.uniform(-10, 10, 8),
                                  rng.uniform(0.5, 80, 8),
                                  rng.uniform(0.05, 0.95, 8))]
    for lo, hi, m in cases:
        dist = fit_truncexp(lo, hi, m)
        integral = float(mp.quad(lambda x: pdf(dist, float(x)), [lo, hi]))
        assert integral == pytest.approx(1.0, abs=1e-8)


def test_pdf_vanishes_outside_support():
    dist = fit_truncexp(0.0, 18.0, 6.0)
    assert pdf(dist, 19.0) == 0.0
    assert pdf(dist, -0.001) == 0.0
    assert pdf(dist, 18.0) > 0.0


def test_pdf_endpoint_ratio_for_alpha_fit():
    dist = fit_truncexp(0.0, 18.0, 6.0)
    assert pdf(dist, 0.0) / pdf(dist, 18.0) == pytest.approx(
        math.exp(dist.rate * 18.0), rel=1e-12)
    assert pdf(dist, 0.0) / pdf(dist, 18.0) == pytest.approx(8.5773567925987, rel=1e-10)


def test_sampler_endpoints_exact():
    for dist in (fit_truncexp(0.0, 18.0, 6.0), fit_truncexp(0.0, 56.0, 42.0),
                 TruncatedExponential.from_rate(2.0, 3.0, 0.0)):
        assert sample_inverse_cdf(dist, 0.0) == dist.lo
        assert sample_inverse_cdf(dist, 1.0) == dist.hi


def test_sampler_uniform_midpoint():
    dist = TruncatedExponential.from_rate(0.0, 56.0, 0.0)
    assert sample_inverse_cdf(dist, 0.5) == 28.0


def test_sampler_monotone_and_inverts_cdf():
    dist = fit_truncexp(0.0, 56.0, 42.0)
    us = np.linspace(0.0, 1.0, 501)
    xs = [sample_inverse_cdf(dist, float(u)) for u in us]
    assert all(b >= a for a, b in zip(xs, xs[1:]))
    for u, x in zip(us[1:-1], xs[1:-1]):
        assert cdf(dist, x) == pytest.approx(float(u), abs=1e-12)


def test_sampler_mean_statistical_check():
    dist = fit_truncexp(0.0, 18.0, 6.0)
    u = draw_uniform_matrix(17, 4096).values[:, 0]
    draws = np.array([sample_inverse_cdf(dist, float(v)) for v in u])
    std = 4.66336882075  # oracle second moment for this fit
    assert abs(draws.mean() - 6.0) < 4.0 * std / math.sqrt(4096)


def test_sampler_kolmogorov_distance_under_critical():
    dist = fit_truncexp(0.0, 56.0, 42.0)
    n = 100_000
    u = draw_uniform_matrix(99, n).values[:, 0]
    draws = np.sort([sample_inverse_cdf(dist, float(v)) for v in u])
    theo = np.array([cdf(dist, x) for x in draws])
    steps = np.arange(1, n + 1) / n
    d_stat = max(np.max(steps - theo), np.max(theo - (steps - 1.0 / n)))
    assert d_stat < 1.6276 / math.sqrt(n)  # 1% critical value


SHIPPED_INPUTS = dict(alpha_lo=0.0, alpha_hi=18.0, alpha_mean=6.0,
                      fs_lo=0.0, fs_hi=56.0, fs_mean=42.0)


def test_build_input_model_default_shapes():
    model = build_input_model(**SHIPPED_INPUTS)
    assert model.alpha_dist.rate > 0  # decaying over [0, 18]
    assert model.fs_dist.rate < 0     # increasing over [0, 56]


def test_build_input_model_uniform_and_error_cases():
    model = build_input_model(**{**SHIPPED_INPUTS, "fs_mean": 28.0})
    assert model.fs_dist.rate == 0.0
    with pytest.raises(MeanOutOfSupport):
        build_input_model(**{**SHIPPED_INPUTS, "fs_mean": 60.0})


def test_invalid_support_and_uniform_draw():
    with pytest.raises(ValidationError):
        TruncatedExponential.from_rate(5.0, 5.0, 0.0)
    dist = fit_truncexp(0.0, 18.0, 6.0)
    with pytest.raises(ValidationError):
        sample_inverse_cdf(dist, 1.5)


EPS = 2.0 ** -52


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(lo=st.floats(-100.0, 100.0), width=st.floats(1e-3, 100.0),
       z=st.one_of(st.floats(-2000.0, 2000.0), st.floats(-1.0, 1.0, allow_subnormal=False)),
       us=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
@example(lo=0.0, width=18.0, z=-1800.0, us=[0.3])  # the fit for mean 17.99 on [0, 18]
@example(lo=0.0, width=1.0, z=-709.8, us=[1e-300, 0.5])  # just past the expm1 overflow
def test_sampler_and_cdf_on_extreme_rates(lo, width, z, us):
    """|rate * width| from 0 past 1000: in the support, monotone in u, exact
    end points, and the cdf inverts the sampler."""
    dist = TruncatedExponential.from_rate(lo, lo + width, z / width)
    us = sorted({0.0, 1.0, *us})
    xs = [sample_inverse_cdf(dist, u) for u in us]
    assert xs[0] == dist.lo and xs[-1] == dist.hi
    assert all(dist.lo <= x <= dist.hi for x in xs)
    assert xs == sorted(xs)
    # a rounding of x moves the cdf by up to pdf * ulp(x)
    scale = 1.0 + (abs(dist.rate) + 1.0 / width) * max(abs(dist.lo), abs(dist.hi))
    for u, x in zip(us, xs):
        assert abs(cdf(dist, x) - u) <= 8.0 * EPS * scale
