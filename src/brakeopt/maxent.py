"""Maximum-entropy input distributions on bounded supports.

Given only a support interval [lo, hi] and a prescribed mean, the
least-biased density is a truncated exponential

    pdf(x) = exp(-log_norm - rate * x)   on [lo, hi],  0 elsewhere.

``rate`` is the Lagrange multiplier of the mean constraint and ``log_norm``
the one of the normalization constraint; ``log_norm`` is not stored, since
``rate`` and the support fix it.  When the prescribed mean is the midpoint
of the support the distribution degenerates into a uniform (rate = 0).

With no cross-moment information the joint law of several inputs is the
plain product of the marginals, held by :class:`InputModel`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import MeanOutOfSupport, ValidationError, check_real

#: Below this |rate * (hi - lo)| the mean switches to a series expansion;
#: direct evaluation loses precision to cancellation there.
_SERIES_CUTOFF = 0.05
#: Below this |rate * (hi - lo)| (the smallest normal float) the sampler
#: uses the uniform law: expm1 of a subnormal keeps too few bits.
_TINY = sys.float_info.min


@dataclass(frozen=True)
class TruncatedExponential:
    lo: float
    hi: float
    rate: float

    def __post_init__(self):
        for v in (self.lo, self.hi):
            check_real("support requires lo < hi", v)
        if not self.lo < self.hi:
            raise ValidationError("support requires lo < hi", (self.lo, self.hi))
        check_real("rate must be finite", self.rate)
        # the law of the sampler, fixed once per distribution:
        # expm1(-z) with z = rate * (hi - lo) where it is finite or inf (never
        # 0.0), 0.0 where |z| < _TINY (uniform law) and None where expm1(-z)
        # overflows (z < -709.78).  Not a field, so ==, hash, repr and
        # dataclasses.fields see lo, hi and rate only
        z = self.rate * (self.hi - self.lo)
        if abs(z) < _TINY:
            em1 = 0.0
        else:
            try:
                em1 = math.expm1(-z)
            except OverflowError:
                em1 = None
        object.__setattr__(self, "_expm1_neg_z", em1)


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
    if not lo < target_mean < hi:  # nan and inf included, as in config.RandomModel
        raise MeanOutOfSupport(lo, hi, target_mean)
    check_real("target mean must be a number, not a bool", target_mean)
    if target_mean == (lo + hi) / 2.0:
        return TruncatedExponential(lo, hi, 0.0)

    width = hi - lo

    def mean_at(rate):
        return mean_of(TruncatedExponential(lo, hi, rate))

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
    return TruncatedExponential(lo, hi, 0.5 * (r_lo + r_hi))


def sample_inverse_cdf(dist: TruncatedExponential, u) -> float:
    """Map a uniform u in [0, 1] through the exact inverse CDF.

    Monotone in u with sample_inverse_cdf(0) = lo and
    sample_inverse_cdf(1) = hi exactly.  Only the operations on u run per
    call; the law and expm1(-rate * (hi - lo)) are fixed with ``dist``.
    """
    if not 0.0 <= u <= 1.0:
        raise ValidationError("uniform draw must lie in [0, 1]", u)
    if u == 0.0:
        return dist.lo
    if u == 1.0:
        return dist.hi
    em1 = dist._expm1_neg_z
    if em1:
        x = dist.lo - math.log1p(u * em1) / dist.rate
    elif em1 is None:
        # z < -709.78: log1p(u * expm1(-z)) = -z + log(u + (1 - u) * exp(z))
        # and lo + z / rate = hi
        z = dist.rate * (dist.hi - dist.lo)
        x = dist.hi - math.log(u + (1.0 - u) * math.exp(z)) / dist.rate
    else:
        return dist.lo + u * (dist.hi - dist.lo)
    # min(max(x, lo), hi) in two comparisons: the same bits, nan included
    if x < dist.lo:
        return dist.lo
    if x > dist.hi:
        return dist.hi
    return x

