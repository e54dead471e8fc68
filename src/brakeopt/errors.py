"""Exception hierarchy. Every error carries a stable CLI exit code."""

import math
import sys


class BrakeOptError(Exception):
    """Base class for all brakeopt errors."""

    exit_code = 20


class ParseError(BrakeOptError):
    """Config file is structurally broken (bad syntax, unknown or missing key)."""

    exit_code = 10

    def __init__(self, message, *, line=None, key=None):
        self.line = line
        self.key = key
        where = []
        if line is not None:
            where.append(f"line {line}")
        if key is not None:
            where.append(f"key {key!r}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)


class ValidationError(BrakeOptError):
    """A domain invariant is violated by an input value."""

    exit_code = 11

    def __init__(self, invariant, value):
        self.invariant = invariant
        self.value = value
        super().__init__(f"{invariant}: got {value!r}")


def check_real(invariant, value, lo=-math.inf, hi=math.inf, *, closed="[]", integer=False):
    """``value`` if it is an int or a float (an int if ``integer``), not a
    bool, finite as a float unless ``integer``, and between ``lo`` and ``hi``
    with the ends that ``closed`` marks, as "[)"; else ValidationError."""
    # type(), not isinstance(): a bool is an int.  The bound on abs() refuses
    # nan, inf and an int too large for a float, where math.isfinite raises
    if not (type(value) is not bool and isinstance(value, int if integer else (int, float))
            and (integer or abs(value) <= sys.float_info.max)
            and (lo <= value if closed[0] == "[" else lo < value)
            and (value <= hi if closed[1] == "]" else value < hi)):
        raise ValidationError(invariant, value)
    return value


class SingularDenominator(BrakeOptError):
    """A closed-form denominator is too close to zero to evaluate."""

    exit_code = 12

    def __init__(self, name, value):
        self.name = name
        self.value = value
        super().__init__(f"denominator {name} is singular: |{value!r}| below tolerance")


class SingularSystem(BrakeOptError):
    """The assembled equilibrium system is rank deficient."""

    exit_code = 13


class MeanOutOfSupport(BrakeOptError):
    """Requested mean lies outside the open support interval."""

    exit_code = 14

    def __init__(self, lo, hi, mean):
        self.lo = lo
        self.hi = hi
        self.mean = mean
        super().__init__(f"target mean {mean!r} not inside ({lo!r}, {hi!r})")


class InsufficientSamples(BrakeOptError):
    """Too few samples for the requested statistic."""

    exit_code = 15


class NoFeasiblePoint(BrakeOptError):
    """No design in the search grid satisfies the probabilistic constraint."""

    exit_code = 18


class AllStartsFailed(BrakeOptError):
    """No cell of the design map has a finite value, so the local search has
    no start point."""

    exit_code = 19


class OutOfMemory(BrakeOptError):
    """An array that the run needs cannot be allocated."""

    exit_code = 21
