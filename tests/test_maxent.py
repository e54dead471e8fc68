"""Truncated-exponential fitting, density, and inverse-CDF sampling.

The density and the cdf are the oracles of `oracles.py`.

The frozen rate constants come from an independent oracle: bisection on a
quadrature-based mean (mpmath.quad at 40 digits).  The same oracle runs
live in `oracle_rate` for the randomized cross-checks.
"""

import dataclasses
import math
import struct
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brakeopt import (
    MeanOutOfSupport,
    TruncatedExponential,
    ValidationError,
    draw_uniform_matrix,
    fit_truncexp,
    mean_of,
    sample_inverse_cdf,
)
from brakeopt.config import default_config, input_model_from
from oracles import cdf, pdf

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
    dist = TruncatedExponential(0.0, 18.0, 0.0)
    assert mean_of(dist) == 9.0


def test_mean_of_frozen_rate():
    dist = TruncatedExponential(0.0, 18.0, 0.1)
    assert mean_of(dist) == pytest.approx(MEAN_RATE_01, rel=1e-13)


def test_mean_reflection_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(50):
        lo, width = rng.uniform(-5, 5), rng.uniform(0.5, 60)
        rate = rng.uniform(-2, 2)
        plus = mean_of(TruncatedExponential(lo, lo + width, rate))
        minus = mean_of(TruncatedExponential(lo, lo + width, -rate))
        assert plus + minus == pytest.approx(2 * lo + width, abs=1e-10 * width)


def test_mean_series_joins_direct_branch_smoothly():
    # reference needs extended precision: the naive formula cancels near 0
    with mp.workdps(40):
        for z in (0.04999, 0.05001, -0.04999, -0.05001):
            dist = TruncatedExponential(0.0, 1.0, z)
            exact = float(1 / mp.mpf(z) - 1 / (mp.e ** mp.mpf(z) - 1))
            assert mean_of(dist) == pytest.approx(exact, abs=1e-14)


def test_mean_of_a_steep_law_matches_the_oracle():
    # |z| >= 700, where e^z overflows or 1/(e^z - 1) is below the last bit of
    # 1/z; a config reaches z >= 700 with random.alpha_mean_deg: 1e-300
    with mp.workdps(40):
        for z in (1000.0, -1000.0):
            dist = TruncatedExponential(0.0, 1.0, z)
            exact = float(1 / mp.mpf(z) - 1 / (mp.e ** mp.mpf(z) - 1))
            assert mean_of(dist) == pytest.approx(exact, rel=1e-15)


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
                 TruncatedExponential(2.0, 3.0, 0.0)):
        assert sample_inverse_cdf(dist, 0.0) == dist.lo
        assert sample_inverse_cdf(dist, 1.0) == dist.hi


def test_sampler_uniform_midpoint():
    dist = TruncatedExponential(0.0, 56.0, 0.0)
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
    u = draw_uniform_matrix(17, 4096)[:, 0]
    draws = np.array([sample_inverse_cdf(dist, float(v)) for v in u])
    std = 4.66336882075  # oracle second moment for this fit
    assert abs(draws.mean() - 6.0) < 4.0 * std / math.sqrt(4096)


def input_model_with(**random):
    """The input model of ``config.input_model_from``: the shipped config,
    in which the ``random.*`` fields named in ``random`` take its values."""
    cfg = default_config()
    return input_model_from(dataclasses.replace(
        cfg, random=dataclasses.replace(cfg.random, **random)))


def test_input_model_default_shapes():
    model = input_model_with()
    assert model.alpha_dist.rate > 0  # decaying over [0, 18]
    assert model.fs_dist.rate < 0     # increasing over [0, 56]


def test_input_model_uniform_and_error_cases():
    model = input_model_with(fs_mean_kN=28.0)
    assert model.fs_dist.rate == 0.0
    with pytest.raises(MeanOutOfSupport):
        input_model_with(fs_mean_kN=60.0)


def test_invalid_support_and_uniform_draw():
    with pytest.raises(ValidationError):
        TruncatedExponential(5.0, 5.0, 0.0)
    with pytest.raises(ValidationError, match="rate must be finite"):
        TruncatedExponential(0.0, 1.0, math.inf)
    dist = fit_truncexp(0.0, 18.0, 6.0)
    with pytest.raises(ValidationError):
        sample_inverse_cdf(dist, 1.5)


EPS = 2.0 ** -52


@settings(max_examples=300)
@given(lo=st.floats(-100.0, 100.0), width=st.floats(1e-3, 100.0),
       z=st.one_of(st.floats(-2000.0, 2000.0), st.floats(-1.0, 1.0, allow_subnormal=False)),
       us=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
@example(lo=0.0, width=18.0, z=-1800.0, us=[0.3])  # the fit for mean 17.99 on [0, 18]
@example(lo=0.0, width=1.0, z=-709.8, us=[1e-300, 0.5])  # just past the expm1 overflow
# subnormal rate * width: expm1 of it keeps too few bits, the law is uniform
@example(lo=0.0, width=1.1, z=2.2250738585e-313, us=[0.5])
@example(lo=0.0, width=1.1, z=-3.5e-323, us=[0.5])
def test_sampler_and_cdf_on_extreme_rates(lo, width, z, us):
    """|rate * width| from 0 past 1000: in the support, monotone in u, exact
    end points, and the cdf inverts the sampler."""
    dist = TruncatedExponential(lo, lo + width, z / width)
    us = sorted({0.0, 1.0, *us})
    xs = [sample_inverse_cdf(dist, u) for u in us]
    assert xs[0] == dist.lo and xs[-1] == dist.hi
    assert all(dist.lo <= x <= dist.hi for x in xs)
    assert xs == sorted(xs)
    # a rounding of x moves the cdf by up to pdf * ulp(x)
    scale = 1.0 + (abs(dist.rate) + 1.0 / width) * max(abs(dist.lo), abs(dist.hi))
    for u, x in zip(us, xs):
        assert abs(cdf(dist, x) - u) <= 8.0 * EPS * scale


def oracle_sample_inverse_cdf(dist, u):
    """Oracle: the inverse CDF with its law and expm1(-z) settled on every call."""
    if not 0.0 <= u <= 1.0:
        raise ValidationError("uniform draw must lie in [0, 1]", u)
    if u == 0.0:
        return dist.lo
    if u == 1.0:
        return dist.hi
    z = dist.rate * (dist.hi - dist.lo)
    if abs(z) < sys.float_info.min:
        return dist.lo + u * (dist.hi - dist.lo)
    try:
        x = dist.lo - math.log1p(u * math.expm1(-z)) / dist.rate
    except OverflowError:
        x = dist.hi - math.log(u + (1.0 - u) * math.exp(z)) / dist.rate
    return min(max(x, dist.lo), dist.hi)


def bits(value):
    """The type and the IEEE bytes of a float: tells -0.0 from 0.0, and nan
    payloads apart."""
    return type(value), struct.pack("<d", value)


TINY = sys.float_info.min
#: uniforms every oracle case takes: both ends, the smallest step off 0,
#: the middle and the largest double below 1
EDGE_US = [0.0, 5e-324, 0.5, 1.0 - 2.0 ** -53, 1.0]
#: rate * width at each edge of the three laws, with the law it falls in:
#: uniform below TINY, overflow where expm1(-z) overflows
LAW_EDGES = [(5e-324, "uniform"), (-5e-324, "uniform"),
             (math.nextafter(TINY, 0.0), "uniform"), (-math.nextafter(TINY, 0.0), "uniform"),
             (TINY, "regular"), (-TINY, "regular"),
             (math.nextafter(TINY, 1.0), "regular"), (-math.nextafter(TINY, 1.0), "regular"),
             (-709.782712893384, "regular"), (-709.7827128933841, "overflow"),
             (-745.2, "overflow")]


def law_of(dist):
    z = dist.rate * (dist.hi - dist.lo)
    if abs(z) < TINY:
        return "uniform"
    try:
        math.expm1(-z)
    except OverflowError:
        return "overflow"
    return "regular"


@pytest.mark.parametrize("z, law", LAW_EDGES)
def test_law_edges_fall_where_named(z, law):
    # on [0, 1] the rate is z itself, so each edge is hit exactly
    assert law_of(TruncatedExponential(0.0, 1.0, z)) == law


def law_edge_examples(test):
    for z, _ in LAW_EDGES:
        test = example(lo=0.0, width=1.0, z=z, us=EDGE_US)(test)
    return test


@settings(max_examples=300)
@given(lo=st.floats(-100.0, 100.0), width=st.floats(1e-3, 100.0),
       z=st.one_of(st.floats(-2000.0, 2000.0), st.floats(-1.0, 1.0, allow_subnormal=False)),
       us=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
@law_edge_examples
def test_sampler_and_cdf_keep_the_bits_of_the_per_call_law(lo, width, z, us):
    """The law and expm1(-z) fixed once per distribution change no bit of
    the sampler, -0.0 and nan included."""
    dist = TruncatedExponential(lo, lo + width, z / width)
    for u in [*EDGE_US, *us]:
        assert bits(sample_inverse_cdf(dist, u)) == bits(oracle_sample_inverse_cdf(dist, u))


def test_the_fixed_law_is_not_a_field():
    dist = TruncatedExponential(0.0, 18.0, 0.1)
    assert [f.name for f in dataclasses.fields(dist)] == ["lo", "hi", "rate"]
    assert repr(dist) == "TruncatedExponential(lo=0.0, hi=18.0, rate=0.1)"
    twin = TruncatedExponential(0.0, 18.0, 0.1)
    assert dist == twin and hash(dist) == hash(twin)
    assert dist != TruncatedExponential(0.0, 18.0, 0.2)
    assert dataclasses.astuple(dist) == (0.0, 18.0, 0.1)


@pytest.mark.parametrize("rate", [0.0, 5e-324, 0.1, -0.06, -800.0, -1e300])
def test_replace_samples_like_a_fresh_instance(rate):
    # each rate moves the shipped angle fit to another law or expm1(-z)
    replaced = dataclasses.replace(fit_truncexp(0.0, 18.0, 6.0), rate=rate)
    fresh = TruncatedExponential(0.0, 18.0, rate)
    assert replaced == fresh
    for u in [*EDGE_US, 0.1, 0.9]:
        assert bits(sample_inverse_cdf(replaced, u)) == bits(sample_inverse_cdf(fresh, u))
        assert bits(sample_inverse_cdf(replaced, u)) == bits(oracle_sample_inverse_cdf(fresh, u))


@pytest.mark.parametrize("rate", [1e300, -1e300])
def test_infinite_rate_times_width_keeps_the_bits_of_the_per_call_law(rate):
    # rate * width overflows to +-inf: expm1(-z) is -1 or inf
    dist = TruncatedExponential(0.0, 1e10, rate)
    assert math.isinf(dist.rate * (dist.hi - dist.lo))
    for u in [*EDGE_US, 1e-300, 0.3]:
        assert bits(sample_inverse_cdf(dist, u)) == bits(oracle_sample_inverse_cdf(dist, u))
