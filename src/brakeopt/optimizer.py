"""Classical and robust design optimization over the (a, c) box.

Both problems maximize over a rectangle of the two geometry fields a and c.
The classical objective is the braking force at the nominal operating
point.  The robust objective is a convex combination of ensemble
statistics, beta1*min + beta2*max + beta3*mean + beta4/std, evaluated on a
Monte Carlo ensemble that reuses one fixed uniform matrix at every design
point (common random numbers), which makes it a deterministic function of
the design.  The robust problem additionally requires the empirical chance
constraint P{|Y| > y*} >= 1 - P_r; infeasible candidates are rejected, the
solver never returns one.

Both optimizers run one pipeline: map first, then climb.  The dense grid
map (for the robust problem, its feasible cells) is scanned first; one
projected ascent with finite-difference gradients, in box-normalized
coordinates, starts at each local maximum of the map with that cell's value
(both take their designs from one mapping, :meth:`DesignBox.unmap`).  The
best local maximum is the certificate; the best ascent, which climbs by
strict gains only, is the reported optimum and so dominates it.  An ascent
never asks for the design it stands on, whose value it holds.
Ascent, certificate and contour maps share one convention: a design's value
is a float, and a non-finite value means rejected or not evaluable.  Designs
are evaluated in batches by a design function ``values_at(a, c) -> values``
over arrays that broadcast together: a block of whole lattice rows, as a
``(k, 1)`` column of a against the ``(ny,)`` row of c, or the equal-shape
points of one request of an ascent.  The classical design function
(:func:`classical_values`) and the sampled ones of :func:`optimize_robust`,
which returns its robust and constraint maps, share the closed form's
stages (:func:`_stages`): the design-invariant cam term once, then per
batch, or on the sampled route per design, one kernel call, with the
spring terms of each a and the column terms of each c, which the sampled
route computes once per lattice row and once per lattice column.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import maxent, mc_uq, mechmodel
from .errors import (AllStartsFailed, InsufficientSamples, NoFeasiblePoint, ValidationError,
                     check_real)

# ascent steps and the FD stencil are fractions of the box width
_MAX_ITER, _STEP0, _STEP_MIN, _FD_STEP = 200, 0.25, 1e-8, 1e-4
# designs per lattice call, in whole rows: fastest in a hot-loop sweep of the
# 401x201 classical map (1.1 ms; 1.4 at 4,096, 1.3 at 16,384, 2.4 in one call),
# and small enough that a large lattice does not hold its temporaries at once
_BLOCK = 8192


@dataclass(frozen=True)
class DesignPoint:
    a: float
    c: float


@dataclass(frozen=True)
class DesignBox:
    a_min: float = 50.0
    a_max: float = 60.0
    c_min: float = 50.0
    c_max: float = 55.0

    def __post_init__(self):
        bounds = (self.a_min, self.a_max, self.c_min, self.c_max)
        for v in bounds:
            check_real("design box bounds must be finite", v)
        for v in (self.a_min, self.c_min):
            check_real("design box lower bounds must be > 0 mm", v, 0.0, closed="(]")
        if not (self.a_min <= self.a_max and self.c_min <= self.c_max):
            raise ValidationError("design box requires a_min <= a_max and c_min <= c_max", bounds)

    def unmap(self, ua, uc):
        """``(a, c)`` at unit-square coordinates, arrays that broadcast
        together: ``min + u * (max - min)`` on each axis, and max at u = 1.0,
        where the sum can round one ulp off it (below, it falls short of max
        by more).  The lattice and the ascent take their designs from it."""
        return tuple(np.where(u == 1.0, hi, lo + u * (hi - lo)) for u, lo, hi in
                     ((ua, self.a_min, self.a_max), (uc, self.c_min, self.c_max)))


@dataclass(frozen=True)
class RobustWeights:
    beta1: float = 0.2
    beta2: float = 0.2
    beta3: float = 0.2
    beta4: float = 0.4

    def __post_init__(self):
        betas = (self.beta1, self.beta2, self.beta3, self.beta4)
        for b in betas:
            check_real("robust weights must lie in [0, 1]", b, 0.0, 1.0)
        if abs(sum(betas) - 1.0) > 1e-12:
            raise ValidationError("robust weights must sum to 1", sum(betas))


@dataclass(frozen=True)
class ConstraintSpec:
    y_star: float = 0.5
    p_r: float = 0.05

    def __post_init__(self):
        check_real("constraint level y_star must be finite and >= 0 kN", self.y_star, 0.0)
        check_real("reference probability p_r must lie in (0, 1)", self.p_r, 0.0, 1.0, closed="()")


@dataclass(frozen=True)
class ModelSetup:
    """Deterministic plant and the nominal operating point."""

    geom: mechmodel.BrakeGeometry
    fric: mechmodel.FrictionSet
    nominal: mechmodel.LoadCase


@dataclass(frozen=True)
class OptimizationResult:
    s_opt: DesignPoint
    objective: float
    evaluations: int
    certificate_value: float
    certificate_point: DesignPoint
    constraint_prob: float | None = None
    # the robust optimizer's contour maps, by kind: (a_values, c_values, values)
    maps: dict | None = dataclasses.field(default=None, compare=False, repr=False)


def _stages(setup: ModelSetup, sin_a, cos_a, fs):
    """``(spring_at, column_at, fh_at)`` under the cam angle
    ``(sin_a, cos_a)`` and spring force ``fs``, scalars or samples:
    ``spring_at(a)`` gives the spring terms of length a, ``column_at(c)``
    the column terms of length c, and ``fh_at(column, spring)`` their
    braking forces, one kernel call, nan where den1 is singular.  The cam
    term is computed here."""
    axial = mechmodel.cam_axial(setup.fric, sin_a, cos_a)
    geom, fric, load = setup.geom, setup.fric, setup.nominal

    def spring_at(a):
        return mechmodel.spring_terms(geom, fric, load.Fg, load.Fb, fs, a)

    def column_at(c):
        return mechmodel.column_terms(geom, fric, axial, c)

    def fh_at(column, spring) -> np.ndarray:
        fh, _, _ = mechmodel.braking_force_ensemble(geom, fric, column, spring)
        return fh
    return spring_at, column_at, fh_at


def classical_values(setup: ModelSetup):
    """Design function of the classical problem: the braking force (kN) at
    the nominal operating point, each stage once per batch."""
    load = setup.nominal
    spring_at, column_at, fh_at = _stages(
        setup, math.sin(load.alpha), math.cos(load.alpha), load.Fs)
    return lambda a, c: fh_at(column_at(c), spring_at(a))


def _ensemble_stages(setup: ModelSetup, input_model: maxent.InputModel, uniforms: np.ndarray):
    """The :func:`_stages` of the common-random-numbers ensemble of the drawn
    ``uniforms``, which go through :func:`mc_uq.sample_inputs` once, here."""
    _, fs, sin_a, cos_a = mc_uq.sample_inputs(input_model, uniforms)
    return _stages(setup, sin_a, cos_a, fs)


def _per_design_values(stages, value_of):
    """Design function that makes one ensemble call per design, on two
    Python floats, and maps its forces to a value with ``value_of``.  The
    ``stages = (spring_at, column_at, fh_at)`` of :func:`_stages` are walked
    in request order.  A design whose a equals the one before it takes that
    design's spring terms, so a lattice row computes them once; each
    distinct c of a request has its column terms computed once, at its
    first design, so a lattice block computes them once per column."""
    spring_at, column_at, fh_at = stages

    def forces(a_list, c_list):
        columns = {}  # by c, this request's only: a few small tuples
        last_a = math.nan  # equal to no a
        for a, c in zip(a_list, c_list):
            if a != last_a:
                spring = None  # free the last row's terms first: one row's at a time
                last_a, spring = a, spring_at(a)
            column = columns.get(c)
            if column is None:
                column = columns[c] = column_at(c)
            yield fh_at(column, spring)

    def values_at(a: np.ndarray, c: np.ndarray) -> np.ndarray:
        a, c = np.broadcast_arrays(a, c)
        values = map(value_of, forces(a.ravel().tolist(), c.ravel().tolist()))
        return np.fromiter(values, float, a.size).reshape(a.shape)
    return values_at


def _robust_value(weights: RobustWeights, fh: np.ndarray) -> float:
    """beta1*min + beta2*max + beta3*mean + beta4/std over the sample; nan if
    any sample failed to evaluate or, with beta4 > 0, the sample has zero
    spread (one sample included)."""
    lo, hi, mean, std = mc_uq.sample_stats(fh)
    if not (math.isfinite(lo) and math.isfinite(hi)) or (weights.beta4 > 0.0 and std == 0.0):
        return math.nan
    value = weights.beta1 * lo + weights.beta2 * hi + weights.beta3 * mean
    return value + weights.beta4 / std if weights.beta4 > 0.0 else value


def _constraint_value(cspec: ConstraintSpec, fh: np.ndarray) -> float:
    # non-evaluable samples count as violations
    hits = int(np.count_nonzero(np.isfinite(fh) & (np.abs(fh) > cspec.y_star)))
    return hits / fh.shape[0]


def robust_objective(
    s: DesignPoint,
    weights: RobustWeights,
    uniforms: np.ndarray,
    input_model: maxent.InputModel,
    setup: ModelSetup,
) -> float:
    """The robust map at one design: bit-identical to its cell of the
    robust map of :func:`optimize_robust` and to the optimizer's value of a
    feasible design."""
    spring_at, column_at, fh_at = _ensemble_stages(setup, input_model, uniforms)
    return _robust_value(weights, fh_at(column_at(s.c), spring_at(s.a)))


def _ascent(u0, f0, evaluate):
    """Projected finite-difference ascent on the unit square from ``u0``.

    ``f0`` is the start's finite value, its map cell.  ``evaluate(points)
    -> values`` gives the values of the list of points (ua, uc) it asks for:
    a finite-difference stencil or one candidate; a non-finite value marks
    a rejected or failed point.  A design's value is a pure function of its
    two floats, so the ascent never asks for its current point u, whose
    value it holds: a stencil point clipped onto u takes that value, and a
    candidate clipped back onto u is rejected, as it would not gain.  Steps
    gain strictly, so the value returned is at least ``f0``.  The search
    stops when the step underflows ``_STEP_MIN`` or after ``_MAX_ITER``
    iterations.  Returns (u, value) with u a pair of floats.  Each axis
    takes the operations of ``np.clip(u + step * grad / norm, 0.0, 1.0)``
    in the same order, so the bits are those of the array form.
    """
    u, fx = (float(u0[0]), float(u0[1])), f0
    step = _STEP0
    norm = None  # the gradient is kept until a step is accepted
    for _ in range(_MAX_ITER):
        if step < _STEP_MIN:
            break
        if norm is None:
            stencil = []
            for ax in range(2):
                hi, lo = min(u[ax] + _FD_STEP, 1.0), max(u[ax] - _FD_STEP, 0.0)
                if hi != lo:
                    stencil.append((ax, hi, lo))
            points = [(x, u[1]) if ax == 0 else (u[0], x)
                      for ax, hi, lo in stencil for x in (hi, lo)]
            asked = iter(evaluate([p for p in points if p != u]))
            values = [fx if p == u else next(asked) for p in points]
            grad = [0.0, 0.0]
            for (ax, hi, lo), fp, fm in zip(stencil, values[0::2], values[1::2]):
                if math.isfinite(fp) and math.isfinite(fm):
                    grad[ax] = (fp - fm) / (hi - lo)
            norm = math.hypot(grad[0], grad[1])
        if norm == 0.0:
            step *= 0.5
            continue
        cand = tuple(min(max(x + step * g / norm, 0.0), 1.0) for x, g in zip(u, grad))
        [fc] = evaluate([cand]) if cand != u else [fx]
        if math.isfinite(fc) and fc > fx:
            u, fx = cand, fc
            step = min(step * 2.0, 0.5)
            norm = None
        else:
            step *= 0.5
    return u, fx


def grid_scan(box: DesignBox, nx: int, ny: int,
              values_at) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(a_values, c_values, values)``: the design function ``values_at`` on
    the dense row-major nx x ny lattice of the box, in blocks of whole rows
    of at most ``_BLOCK`` designs (one row if a row is longer), each asked
    for as a ``(k, 1)`` column of a against the ``(ny,)`` row of c and stored
    as it comes.  The axes are :meth:`DesignBox.unmap` of ``i / (n - 1)``, the
    coordinates at which the ascent starts.  A cell's value does not depend
    on its block."""
    if nx < 2 or ny < 2:
        raise ValidationError("grid resolution must be at least 2x2", (nx, ny))
    a_values, c_values = box.unmap(np.arange(nx) / (nx - 1), np.arange(ny) / (ny - 1))
    values = np.empty((nx, ny))
    rows = max(1, _BLOCK // ny)
    for i in range(0, nx, rows):
        values[i:i + rows] = values_at(a_values[i:i + rows, None], c_values)
    return a_values, c_values, values


def _local_maxima(values: np.ndarray) -> list[list[int]]:
    """The ``[i, j]`` of each local maximum of the map, in row-major order: a
    finite cell that no finite 8-neighbour beats.  A neighbour beats a cell
    with a greater value, or with an equal one when it comes first in
    row-major order, so a flat map gives one start, its first cell.  A screen
    of whole-map comparisons on shifted slices of the flat map drops each
    cell beaten by a row or a column neighbour; only the survivors, few on a
    smooth map, are then tested against their four diagonal neighbours."""
    nx, ny = values.shape
    flat = values.ravel()
    not_finite = ~np.isfinite(flat)
    peak, stays = ~not_finite, np.empty(flat.size, bool)
    # the flat pairs (p, p + step) are row neighbours at step 1, less those
    # that wrap from the end of a row to the start of the next, and column
    # neighbours at step ny; ``stays`` takes each side's verdict in turn
    for step, wraps in ((1, slice(ny - 1, None, ny)), (ny, slice(0))):
        first, second, verdict = flat[:-step], flat[step:], stays[:-step]
        np.less(first, second, out=verdict)
        verdict |= not_finite[:-step]
        verdict[wraps] = True
        peak[step:] &= verdict
        np.less_equal(second, first, out=verdict)
        verdict |= not_finite[step:]
        verdict[wraps] = True
        peak[:-step] &= verdict
    survivors = np.flatnonzero(peak)
    for di, dj in ((-1, -1), (-1, 1), (1, -1), (1, 1)):
        i, j = np.divmod(survivors, ny)
        inside = (i > 0 if di < 0 else i < nx - 1) & (j > 0 if dj < 0 else j < ny - 1)
        # a neighbour off the map wraps around onto it, and is not inside
        v, w = flat[survivors], flat[(survivors + (di * ny + dj)) % flat.size]
        beaten = inside & np.isfinite(w) & (w >= v if di < 0 else w > v)
        survivors = survivors[~beaten]
    return [list(divmod(p, ny)) for p in survivors.tolist()]


def _optimize(box: DesignBox, cells, values_at) -> OptimizationResult:
    """Climb from the map ``cells = (a_values, c_values, values)``, which has
    a finite cell: from each local maximum, in row-major order, one ascent
    of ``values_at`` that starts with the cell's value and makes one call
    per request.  The best ascent is returned (the first wins ties).  The
    certificate, the first local maximum of greatest value, is the best
    finite cell; its ascent gains strictly, so the optimum never undercuts
    it.  ``evaluations`` counts the ascents' designs."""
    a_values, c_values, values = cells
    nx, ny = values.shape
    starts = _local_maxima(values)
    # max() keeps the first of equal keys
    i, j = max(starts, key=lambda s: values[s[0], s[1]])
    cert = DesignPoint(a=float(a_values[i]), c=float(c_values[j])), float(values[i, j])
    evaluations = 0

    def evaluate(points: list) -> list:
        nonlocal evaluations
        evaluations += len(points)
        return values_at(*box.unmap(*np.array(points).T)).tolist()

    ends = [_ascent((i / (nx - 1), j / (ny - 1)), float(values[i, j]), evaluate)
            for i, j in starts]
    u, objective = max(ends, key=lambda end: end[1])
    return OptimizationResult(
        s_opt=DesignPoint(*map(float, box.unmap(*u))), objective=objective,
        evaluations=evaluations, certificate_value=cert[1], certificate_point=cert[0])


def optimize_classical(
    box: DesignBox,
    setup: ModelSetup,
    grid: tuple[int, int],
) -> OptimizationResult:
    """Maximize the nominal braking force over the box.

    The force is mapped on the dense grid first; an ascent then climbs from
    each local maximum of the map, and the result never undercuts the map's
    best cell, its certificate.  ``evaluations`` counts the ascents'
    designs.  Raises AllStartsFailed, before any ascent, when no map cell
    has a finite value.
    """
    values_at = classical_values(setup)
    cells = grid_scan(box, grid[0], grid[1], values_at)
    if not np.isfinite(cells[2]).any():
        raise AllStartsFailed(f"no cell of the {grid[0]}x{grid[1]} map has a finite braking "
                              "force (a singular den1 or an overflow)")
    return _optimize(box, cells, values_at)


def optimize_robust(
    box: DesignBox,
    weights: RobustWeights,
    cspec: ConstraintSpec,
    setup: ModelSetup,
    input_model: maxent.InputModel,
    uniforms: np.ndarray,
    grid: tuple[int, int],
) -> OptimizationResult:
    """Maximize the robust objective subject to the chance constraint.

    The drawn ``uniforms`` are reused at every design point, so the whole
    optimization is a pure function of its arguments.  The robust map and
    the constraint map are scanned once each on the dense grid and returned
    as ``maps``.  The feasible map is the robust map where the constraint
    cell is at least 1 - p_r; the ascents start at its local maxima, and its
    best cell is the certificate.  A design violating the constraint has the
    value nan, so the ascent rejects it.  ``evaluations`` counts the
    ascents' designs.  Raises InsufficientSamples, before any design is
    evaluated, when beta4 > 0 and there is one sample, and NoFeasiblePoint,
    before any ascent, when no grid cell is feasible; its message names the
    largest constraint probability of the grid and its cell.
    """
    if weights.beta4 > 0.0 and len(uniforms) < 2:
        raise InsufficientSamples(f"beta4 > 0 needs at least 2 samples, got {len(uniforms)}")
    robust = grid_scan(box, *grid, _per_design_values(
        _ensemble_stages(setup, input_model, uniforms), lambda fh: _robust_value(weights, fh)))
    prob = grid_scan(box, *grid, _per_design_values(
        _ensemble_stages(setup, input_model, uniforms), lambda fh: _constraint_value(cspec, fh)))
    threshold = 1.0 - cspec.p_r
    cells = robust[0], robust[1], np.where(prob[2] >= threshold, robust[2], np.nan)
    if not np.isfinite(cells[2]).any():
        i, j = np.unravel_index(np.argmax(prob[2]), prob[2].shape)
        raise NoFeasiblePoint(
            f"no cell of the {grid[0]}x{grid[1]} certificate grid has a finite robust value "
            f"and P(|Fh| > {cspec.y_star}) >= {threshold}; the largest probability is "
            f"{float(prob[2][i, j])!r}, at (a, c) = ({float(prob[0][i])!r}, "
            f"{float(prob[1][j])!r}) mm")
    stages = _ensemble_stages(setup, input_model, uniforms)
    spring_at, column_at, fh_at = stages

    def value_of(fh: np.ndarray) -> float:
        feasible = _constraint_value(cspec, fh) >= threshold
        return _robust_value(weights, fh) if feasible else math.nan

    result = _optimize(box, cells, _per_design_values(stages, value_of))
    fh_opt = fh_at(column_at(result.s_opt.c), spring_at(result.s_opt.a))
    return dataclasses.replace(result, constraint_prob=_constraint_value(cspec, fh_opt),
                               maps={"robust": robust, "constraint": prob})
