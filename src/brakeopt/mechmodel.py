"""Static model of a cam-actuated friction safety-gear brake.

A steel body, a pivoting cam and a knurled roller clamp an elevator guide.
Force and moment balance of the three parts, together with Coulomb friction
at three contacts and a rolling-resistance law at the roller/guide contact,
determine four contact normals N1..N4, the pivot reactions Rx, Ry and the
total braking force Fh.

Two independent evaluation routes are provided:

* The closed-form solution obtained by eliminating the reactions by hand
  (N4 first, then N1, N2, N3), written once in three stages over sample
  arrays: the row stage ``spring_terms`` (the loads, the spring force and
  the length a), the column stage ``column_terms`` (the cam's axial factor
  and the length c, with den1's singular test) and the cell stage
  ``braking_force_ensemble``, which combines the two; ``braking_force`` is
  the same three stages on one sample.  A caller that evaluates one
  ensemble at many designs computes ``cam_axial`` once, the spring terms
  once per value of a and the column terms once per value of c.  A
  singular den4 raises on both routes; a singular den1 raises on the
  scalar route and is masked per entry on the ensemble route, by the
  ``ok`` mask that the column stage fixes.
* ``solve_equilibrium`` assembles the six balance equations as a dense
  6x6 linear system and solves it numerically, never touching the closed
  forms.  It exists to cross-check the first route.

Units are fixed internally: lengths in mm, forces in kN, angles in radians.
Degrees are accepted only at the outermost boundaries (config, CLI) and
converted once.  All functions are pure; everything is safe to call from
any number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularDenominator, SingularSystem, ValidationError, check_real

#: Closed-form denominators with magnitude below this (in their natural
#: units) are treated as singular.  Far below any physical value.
SINGULAR_TOL = 1e-9


@dataclass(frozen=True)
class BrakeGeometry:
    """Lever arms and contact dimensions, all in mm (see field docs in README)."""

    a: float
    b: float
    c: float
    d: float
    e: float
    f: float
    l: float
    m: float
    n: float
    R: float

    def __post_init__(self):
        for name in ("a", "b", "c", "d", "e", "f", "l", "m", "n", "R"):
            check_real(f"geometry length {name} must be > 0 mm", getattr(self, name), 0.0,
                       closed="(]")
        if not self.f < self.R:
            raise ValidationError("rolling ratio requires f < R", (self.f, self.R))


@dataclass(frozen=True)
class FrictionSet:
    """Coulomb friction coefficients at the three sliding contacts."""

    mu1: float
    mu2: float
    mu4: float

    def __post_init__(self):
        for name in ("mu1", "mu2", "mu4"):
            check_real(f"friction coefficient {name} out of (0, 1)", getattr(self, name), 0.0, 1.0,
                       closed="()")


@dataclass(frozen=True)
class LoadCase:
    """External loads (kN) and cam angle (radians)."""

    Fg: float
    Fb: float
    Fs: float
    alpha: float

    def __post_init__(self):
        for name in ("Fg", "Fb", "Fs"):
            check_real(f"load {name} must be >= 0 kN", getattr(self, name), 0.0)
        check_real("cam angle must lie in [0, pi/2) rad", self.alpha, 0.0, math.pi / 2, closed="[)")

    @classmethod
    def from_degrees(cls, Fg, Fb, Fs, alpha_deg):
        return cls(Fg=Fg, Fb=Fb, Fs=Fs, alpha=math.radians(alpha_deg))


@dataclass(frozen=True)
class EquilibriumSolution:
    """Complete force state for one load case.

    ``valid`` is True only when N1, N2 >= 0 (N3, N4 follow, see _cell_stage),
    i.e. the contacts actually press.  Negative normals are reported as-is
    (never clamped) so that optimization can probe infeasible regions.
    """

    N1: float
    N2: float
    N3: float
    N4: float
    T1: float
    T2: float
    T3: float
    T4: float
    Rx: float
    Ry: float
    Fh: float
    valid: bool


def cam_axial(fric: FrictionSet, sin_a, cos_a):
    """``mu1*sin(alpha) + cos(alpha)``, elementwise: the cam's axial factor,
    the only term of the closed form in which the cam angle appears."""
    return fric.mu1 * sin_a + cos_a


def spring_terms(geom: BrakeGeometry, fric: FrictionSet, Fg, Fb, Fs, a):
    """The row stage of the closed form, elementwise over scalars or
    broadcastable arrays of the loads, the spring force and the length a
    (in place of ``geom.a``): ``(Fs*a, N4, N4 - a*mu2*Fs/dwe, mu4*N4)``.
    den4 is divided by unchecked, under the kernel's ``np.errstate`` flags;
    the kernel tests it."""
    # as an array, so a zero den4 (and den1 on one sample) gives inf, no ZeroDivisionError
    Fs = np.asarray(Fs, dtype=float)
    dwe = geom.d + geom.e * fric.mu2  # the cam-wedge lever
    den4 = fric.mu4 * (geom.n + geom.l) - geom.m
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        fsa = Fs * a
        n4 = ((Fg + Fb) * geom.l / 2 - fsa) / den4
        return fsa, n4, n4 - a * fric.mu2 * Fs / dwe, fric.mu4 * n4


def column_terms(geom: BrakeGeometry, fric: FrictionSet, axial, c):
    """The column stage of the closed form, elementwise over the cam's
    ``axial`` factor (see :func:`cam_axial`) and the length c (in place of
    ``geom.c``): ``(axial, b*mu1 - c, mu2*(b*mu1 - c)/dwe, ok, regular)``.

    den1 = axial + mu2*(b*mu1 - c)/dwe is tested here, once per column:
    ``regular`` says that no entry of it is singular, and ``ok`` is then a
    read-only all-True view of den1's shape that holds no data, else the
    mask, False where den1 is singular.  The one division is by dwe > 0,
    so no ``np.errstate`` is opened (a classical batch pays two: the row
    stage's and the kernel's)."""
    dwe = geom.d + geom.e * fric.mu2
    bmc = geom.b * fric.mu1 - c
    shift = fric.mu2 * bmc / dwe
    ok = np.abs(axial + shift) > SINGULAR_TOL
    regular = ok.all()
    if regular:
        # one read-only True byte on zero strides: np.broadcast_to(True,
        # ok.shape) at a sixth of its cost, and no mask held
        ok = np.ndarray(ok.shape, bool, b"\x01", 0, (0,) * ok.ndim)
    return axial, bmc, shift, ok, regular


def _cell_stage(geom: BrakeGeometry, fric: FrictionSet, column, spring):
    """The rest of the closed form, elementwise over the terms ``column`` of
    :func:`column_terms` and ``spring`` of :func:`spring_terms`.  Returns
    ``(den1, n1, n2, n3, fh)``.  Both public routes evaluate the three
    stages in turn, which keeps them bitwise identical.

    den4 depends on the plant alone, so it is tested here, once for both
    routes: a singular den4 raises SingularDenominator.  Evaluation order N4
    -> N1 -> N2 -> N3, then Fh = T1 + T2 + T3 + T4 summed left to right.
    den1 is divided by unchecked, under the caller's ``np.errstate``.

    The contacts press when N1, N2 >= 0; N3 and N4 follow.  N3 = axial*N1 +
    T2 with axial = mu1*sin(alpha) + cos(alpha) > 0 and T2 = mu2*N2, so
    N3 >= 0 in IEEE arithmetic too.  N1 = (N4 - x)/den1 with
    x = a*mu2*Fs/dwe >= 0, so where den1 > 0 (all of the shipped box)
    N4 >= x >= 0.  Where den1 < 0, N4 = N3 holds in exact arithmetic; the
    property tests check the roots of N1 and N2 there.
    """
    dwe = geom.d + geom.e * fric.mu2
    axial, bmc, shift, _, _ = column
    den1 = axial + shift
    den4 = fric.mu4 * (geom.n + geom.l) - geom.m
    if abs(den4) <= SINGULAR_TOL:
        raise SingularDenominator("mu4*(n+l) - m", den4)
    fsa, _, num1, t4 = spring
    n1 = num1 / den1
    n2 = bmc * n1
    n2 += fsa  # = (Fs*a + (b*mu1 - c)*N1) / dwe, in place as below
    n2 /= dwe
    t2 = fric.mu2 * n2
    n3 = axial * n1
    n3 += t2  # = T2 + axial*N1: addition commutes, and in place spares a temporary
    fh = fric.mu1 * n1
    fh += t2
    fh += (geom.f / geom.R) * n3
    fh += t4
    return den1, n1, n2, n3, fh


def braking_force(geom: BrakeGeometry, fric: FrictionSet, load: LoadCase) -> EquilibriumSolution:
    """Full closed-form solution including friction forces, reactions and Fh:
    the ensemble's three stages on one sample.  Raises SingularDenominator
    at a singular denominator: den4 in the cell stage, then den1."""
    spring = spring_terms(geom, fric, load.Fg, load.Fb, load.Fs, geom.a)
    column = column_terms(
        geom, fric, cam_axial(fric, math.sin(load.alpha), math.cos(load.alpha)), geom.c)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        den1, n1, n2, n3, fh = _cell_stage(geom, fric, column, spring)
    if not column[4]:  # the column stage found den1 singular
        raise SingularDenominator("mu1*sin(alpha) + cos(alpha) + mu2*(b*mu1 - c)/(d + e*mu2)", den1)
    n1, n2, n3, n4, t4 = map(float, (n1, n2, n3, spring[1], spring[3]))
    return EquilibriumSolution(
        N1=n1, N2=n2, N3=n3, N4=n4,
        T1=fric.mu1 * n1, T2=fric.mu2 * n2, T3=(geom.f / geom.R) * n3, T4=t4,
        Rx=n4 - load.Fs,
        Ry=t4 - (load.Fg + load.Fb) / 2,
        Fh=float(fh),
        valid=n1 >= 0 and n2 >= 0,  # N3, N4 follow, see _cell_stage
    )


def solve_equilibrium(geom: BrakeGeometry, fric: FrictionSet, load: LoadCase) -> EquilibriumSolution:
    """Solve the balance equations directly as a dense 6x6 linear system.

    Unknowns are (N1, N2, N3, N4, Rx, Ry).  The six rows are the body x/y
    and moment balances, the cam-wedge x and moment balances and the roller
    x balance, with the friction laws substituted.  The roller y balance is
    intentionally not assembled: it is redundant against the rolling
    resistance law and the hand elimination never uses it.  This route makes
    no use of the closed forms and serves as an independent check on them.
    """
    sin_a, cos_a = math.sin(load.alpha), math.cos(load.alpha)
    mu1, mu2, mu4 = fric.mu1, fric.mu2, fric.mu4
    axial = cos_a + mu1 * sin_a

    mat = np.array([
        # N1          N2                        N3   N4                            Rx    Ry
        [0.0,         0.0,                      0.0, -1.0,                         1.0,  0.0],
        [0.0,         0.0,                      0.0, mu4,                          0.0, -1.0],
        [0.0,         0.0,                      0.0, geom.m - mu4 * geom.n,        0.0, -geom.l],
        [axial,       mu2,                      0.0, 0.0,                          -1.0, 0.0],
        [mu1 * geom.b - geom.c, -(geom.d + mu2 * geom.e), 0.0, 0.0,                0.0,  0.0],
        [-axial,      -mu2,                     1.0, 0.0,                          0.0,  0.0],
    ])
    rhs = np.array([
        -load.Fs,
        (load.Fg + load.Fb) / 2,
        load.Fs * geom.a,
        load.Fs,
        -load.Fs * geom.a,
        0.0,
    ])

    cond = np.linalg.cond(mat)
    if not np.isfinite(cond):
        raise SingularSystem(f"equilibrium system is rank deficient (cond={cond!r})")
    try:
        sol = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"equilibrium system is singular: {exc}") from exc

    n1, n2, n3, n4, rx, ry = (float(v) for v in sol)
    t1, t2 = mu1 * n1, mu2 * n2
    t3, t4 = (geom.f / geom.R) * n3, mu4 * n4
    return EquilibriumSolution(
        N1=n1, N2=n2, N3=n3, N4=n4,
        T1=t1, T2=t2, T3=t3, T4=t4,
        Rx=rx, Ry=ry,
        Fh=t1 + t2 + t3 + t4,
        valid=bool(n1 >= 0 and n2 >= 0 and n3 >= 0 and n4 >= 0),
    )


def trig_arrays(alpha_rad):
    """Per-element sin/cos arrays built with scalar math calls.

    Using ``math.sin``/``math.cos`` per element keeps ensemble evaluation
    bitwise identical to the scalar route regardless of array layout,
    chunking or thread count.  A ``memoryview`` hands the angles over as
    Python floats one at a time, so no list of them is built.
    """
    values = memoryview(np.asarray(alpha_rad, dtype=float).ravel())
    return (np.fromiter(map(math.sin, values), float, len(values)),
            np.fromiter(map(math.cos, values), float, len(values)))


def braking_force_ensemble(geom, fric, column, spring):
    """The cell stage of the closed form, vectorized over the terms
    ``column`` of :func:`column_terms` (the cam's axial factor of the
    sampled angles and the length c) and ``spring`` of :func:`spring_terms`,
    all broadcast together.

    Returns ``(fh, valid, ok)``, where ``ok`` is the column's: it has den1's
    shape, which broadcasts against fh's, and is False where den1 is
    singular; the entries of fh there carry ``fh = nan`` and
    ``valid = False``.  A regular column masks nothing.
    A singular den4 raises SingularDenominator, as in :func:`braking_force`.
    """
    _, _, _, ok, regular = column
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        _, n1, n2, _, fh = _cell_stage(geom, fric, column, spring)
        valid = np.minimum(n1, n2) >= 0  # N3, N4 follow, see _cell_stage
        if not regular:
            fh = np.where(ok, fh, np.nan)
            valid &= ok
    return fh, valid, ok
