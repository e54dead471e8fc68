"""Reference functions of the input laws that no command needs.

The density and the distribution function of a truncated exponential, for
the quadratures and the goodness-of-fit checks of the tests.  Each settles
the law on every call, independently of the sampler's cached one.
"""

import math
import sys


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


def pdf(dist, x) -> float:
    """Density at x; exactly zero outside the support."""
    if x < dist.lo or x > dist.hi:
        return 0.0
    width = dist.hi - dist.lo
    log_norm = -dist.rate * dist.lo + math.log(width) + _log_phi(dist.rate * width)
    return math.exp(-log_norm - dist.rate * x)


def cdf(dist, x) -> float:
    """Distribution function, clamped to 0 and 1 outside the support."""
    if x <= dist.lo:
        return 0.0
    if x >= dist.hi:
        return 1.0
    z = dist.rate * (dist.hi - dist.lo)
    if abs(z) < sys.float_info.min:
        return (x - dist.lo) / (dist.hi - dist.lo)
    try:
        return math.expm1(-dist.rate * (x - dist.lo)) / math.expm1(-z)
    except OverflowError:
        # z < -709.78: divide exp(-z) out of numerator and denominator
        return (math.exp(dist.rate * (dist.hi - x)) * math.expm1(dist.rate * (x - dist.lo))
                / math.expm1(z))
