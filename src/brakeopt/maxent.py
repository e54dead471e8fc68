"""Maximum-entropy input distributions on bounded supports.

Given only a support interval [lo, hi] and a prescribed mean, the
least-biased density is a truncated exponential

    pdf(x) = exp(-log_norm - rate * x)   on [lo, hi],  0 elsewhere.

``rate`` is the Lagrange multiplier of the mean constraint and ``log_norm``
the one of the normalization constraint; ``log_norm`` is always derived
from ``rate`` so the density integrates to one by construction.  When the
prescribed mean is the midpoint of the support the distribution degenerates
into a uniform (rate = 0).

With no cross-moment information the joint law of several inputs is the
plain product of the marginals, held by :class:`InputModel`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import MeanOutOfSupport, ValidationError

#: Below this |rate * (hi - lo)| the mean and normalizer switch to series
#: expansions; direct evaluation loses precision to cancellation there.
_SERIES_CUTOFF = 0.05


def _log_phi(z):
    """log((1 - exp(-z)) / z), continuous through z = 0, overflow-safe."""
    if z == 0.0:
        return 0.0
    if z <= -700.0:
        # phi(z) ~ exp(-z)/(-z); stay in log space
        return -z - math.log(-z)
    if z >= 700.0:
        return -math.log(z)
    return math.log(-math.expm1(-z) / z)


@dataclass(frozen=True)
class TruncatedExponential:
    lo: float
    hi: float
    rate: float
    log_norm: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise ValidationError("support requires lo < hi", (self.lo, self.hi))
        if not math.isfinite(self.rate):
            raise ValidationError("rate must be finite", self.rate)

    @classmethod
    def from_rate(cls, lo, hi, rate):
        """Build the distribution for a given rate, deriving the normalizer."""
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValidationError("support requires lo < hi", (lo, hi))
        width = hi - lo
        log_norm = -rate * lo + math.log(width) + _log_phi(rate * width)
        return cls(lo=lo, hi=hi, rate=rate, log_norm=log_norm)


@dataclass(frozen=True)
class InputModel:
    """Independent marginals for the cam angle (degrees) and spring force (kN)."""

    alpha_dist: TruncatedExponential
    fs_dist: TruncatedExponential


def mean_of(dist: TruncatedExponential) -> float:
    """Mean of the truncated exponential, exact through the rate -> 0 limit.

    With z = rate * width the mean is lo + width * g(z) where
    g(z) = 1/z - 1/(e^z - 1).  For small |z| the two terms cancel, so a
    Bernoulli-number series g(z) = 1/2 - z/12 + z^3/720 - z^5/30240 is used
    instead; at the cutoff both routes agree to full double precision.
    """
    width = dist.hi - dist.lo
    z = dist.rate * width
    if abs(z) < _SERIES_CUTOFF:
        g = 0.5 - z / 12.0 + z**3 / 720.0 - z**5 / 30240.0
    elif z >= 700.0:
        g = 1.0 / z
    elif z <= -700.0:
        g = 1.0 / z + 1.0
    else:
        g = 1.0 / z - 1.0 / math.expm1(z)
    return dist.lo + width * g


def fit_truncexp(lo, hi, target_mean) -> TruncatedExponential:
    """Find the truncated exponential on [lo, hi] with the requested mean.

    The mean is strictly decreasing in the rate, so the rate is located by
    bisection on a bracket that is expanded geometrically until it straddles
    the target.  The midpoint target is short-circuited to the exact uniform.
    """
    if not lo < target_mean < hi:
        raise MeanOutOfSupport(lo, hi, target_mean)
    if target_mean == (lo + hi) / 2.0:
        return TruncatedExponential.from_rate(lo, hi, 0.0)

    width = hi - lo

    def mean_at(rate):
        return mean_of(TruncatedExponential(lo=lo, hi=hi, rate=rate, log_norm=0.0))

    # mean_at is decreasing: bracket with mean_at(r_lo) > target > mean_at(r_hi)
    if target_mean < (lo + hi) / 2.0:
        r_lo, r_hi = 0.0, 1.0 / width
        while mean_at(r_hi) > target_mean:
            r_hi *= 2.0
    else:
        r_lo, r_hi = -1.0 / width, 0.0
        while mean_at(r_lo) < target_mean:
            r_lo *= 2.0

    for _ in range(200):
        r_mid = 0.5 * (r_lo + r_hi)
        if r_mid == r_lo or r_mid == r_hi:
            break
        if mean_at(r_mid) > target_mean:
            r_lo = r_mid
        else:
            r_hi = r_mid
    return TruncatedExponential.from_rate(lo, hi, 0.5 * (r_lo + r_hi))


def pdf(dist: TruncatedExponential, x) -> float:
    """Density at x; exactly zero outside the support."""
    if x < dist.lo or x > dist.hi:
        return 0.0
    return math.exp(-dist.log_norm - dist.rate * x)


def cdf(dist: TruncatedExponential, x) -> float:
    """Distribution function, clamped to 0 and 1 outside the support."""
    if x <= dist.lo:
        return 0.0
    if x >= dist.hi:
        return 1.0
    if dist.rate == 0.0:
        return (x - dist.lo) / (dist.hi - dist.lo)
    z = dist.rate * (dist.hi - dist.lo)
    try:
        return math.expm1(-dist.rate * (x - dist.lo)) / math.expm1(-z)
    except OverflowError:
        # z < -709.78: divide exp(-z) out of numerator and denominator
        return (math.exp(dist.rate * (dist.hi - x)) * math.expm1(dist.rate * (x - dist.lo))
                / math.expm1(z))


def sample_inverse_cdf(dist: TruncatedExponential, u) -> float:
    """Map a uniform u in [0, 1] through the exact inverse CDF.

    Monotone in u with sample_inverse_cdf(0) = lo and
    sample_inverse_cdf(1) = hi exactly.
    """
    if not 0.0 <= u <= 1.0:
        raise ValidationError("uniform draw must lie in [0, 1]", u)
    if u == 0.0:
        return dist.lo
    if u == 1.0:
        return dist.hi
    if dist.rate == 0.0:
        return dist.lo + u * (dist.hi - dist.lo)
    z = dist.rate * (dist.hi - dist.lo)
    try:
        x = dist.lo - math.log1p(u * math.expm1(-z)) / dist.rate
    except OverflowError:
        # z < -709.78: log1p(u * expm1(-z)) = -z + log(u + (1 - u) * exp(z))
        # and lo + z / rate = hi
        x = dist.hi - math.log(u + (1.0 - u) * math.exp(z)) / dist.rate
    return min(max(x, dist.lo), dist.hi)


def build_input_model(alpha_lo, alpha_hi, alpha_mean, fs_lo, fs_hi, fs_mean) -> InputModel:
    """Fit both marginals: the cam angle (deg) and the spring force (kN)."""
    return InputModel(
        alpha_dist=fit_truncexp(alpha_lo, alpha_hi, alpha_mean),
        fs_dist=fit_truncexp(fs_lo, fs_hi, fs_mean),
    )
