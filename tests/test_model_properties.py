"""Property tests of the closed form over geometry, friction, cam angle and
spring force, including points next to the two singular denominators.

The scalar route (``braking_force``) and the ensemble route
(``braking_force_ensemble``) must agree on which samples are singular and,
everywhere else, bit for bit.  A singular den4 is a fault of the plant: both
routes raise the same SingularDenominator for it, in every call shape.
They must agree with a 50-digit solve of the same balance equations
(mpmath) to within a tolerance scaled by how ill-conditioned the
closed-form denominators are, and so must the independent 6x6 solve, also
with the closed form directly.  The same holds
for a classical design map, which passes the design lengths to the
ensemble route in blocks of whole lattice rows.
Finally, the ensemble route must keep the bits of its first, plain
spelling, which is kept below as the oracle, in every call shape it takes,
and a batch of designs must give each design the bits of its own call.
The drawn spring forces include the roots of N1 and N2, so where it
matters, on both signs of den1, the two routes' two-term validity test is
compared with each other and with the oracle's four-term test.
"""

import dataclasses
import functools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brakeopt import (
    BrakeGeometry,
    DesignBox,
    DesignPoint,
    FrictionSet,
    LoadCase,
    SingularDenominator,
    braking_force,
    classical_values,
    grid_scan,
    solve_equilibrium,
)
from brakeopt.config import default_config, setup_from
from brakeopt.mechmodel import (
    SINGULAR_TOL,
    braking_force_ensemble,
    cam_axial,
    column_terms,
    spring_terms,
    trig_arrays,
)
from brakeopt.optimizer import ModelSetup

# signed distances from a singular denominator, on both sides of SINGULAR_TOL
NEAR_SINGULAR = (0.0, 1e-12, 5e-10, 1e-9, 1.5e-9, 1e-6, 1e-3)
# |Fh - Fh_exact| <= RTOL * kappa * (|T1| + |T2| + |T3| + |T4|), where
# kappa >= 1 is the larger ratio of a denominator's summed term magnitudes to
# its value: a denominator formed by cancellation carries an absolute rounding
# error of a few ulps of its terms.  Measured worst case of the ratio against
# the 50-digit solve: 1.7e-14.
RTOL = 1e-12
# both denominators count as near singular when each kappa exceeds this
BOTH_NEAR_KAPPA = 1e3

lengths = st.floats(1.0, 200.0)
frictions = st.floats(0.01, 0.99)
offsets = st.one_of(
    st.none(),
    st.builds(lambda x, sign: sign * x, st.sampled_from(NEAR_SINGULAR), st.sampled_from((1.0, -1.0))))


def singular_den4(geom, fric):
    """The (name, value) of the SingularDenominator that both routes raise
    for this plant, or None where den4 is regular."""
    den4 = fric.mu4 * (geom.n + geom.l) - geom.m
    return ("mu4*(n+l) - m", den4) if abs(den4) <= SINGULAR_TOL else None


def ensemble(geom, fric, Fg, Fb, axial, Fs, *, a=None, c=None):
    """The ensemble route as the commands take it: the spring terms of the
    length a (default ``geom.a``) and the column terms of the length c
    (default ``geom.c``), then one kernel call."""
    spring = spring_terms(geom, fric, Fg, Fb, Fs, geom.a if a is None else a)
    column = column_terms(geom, fric, axial, geom.c if c is None else c)
    return braking_force_ensemble(geom, fric, column, spring)


def den4_error(call, *args, **kwargs):
    """(name, value) of the SingularDenominator that ``call(*args, **kwargs)``
    raises."""
    with pytest.raises(SingularDenominator) as err:
        call(*args, **kwargs)
    return err.value.name, err.value.value


def contact_roots(geom, fric, Fg, Fb, alpha):
    """The spring forces at which N1 and N2 vanish at cam angle alpha.  At
    fixed alpha, N4, N1 and N2 are affine in Fs, so each root is one linear
    solve; inf or nan where the root does not exist."""
    dwe = geom.d + geom.e * fric.mu2
    den1 = fric.mu1 * math.sin(alpha) + math.cos(alpha) + fric.mu2 * (geom.b * fric.mu1 - geom.c) / dwe
    den4 = fric.mu4 * (geom.n + geom.l) - geom.m
    load, k = np.float64((Fg + Fb) * geom.l / 2), geom.b * fric.mu1 - geom.c
    lever = geom.a * (1.0 + den4 * fric.mu2 / dwe)  # N1 = (load - lever*Fs) / (den1*den4)
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(load / lever), float(-k * load / (geom.a * den1 * den4 - k * lever))


def exact_equilibrium(geom, fric, load, digits=50):
    """Reference: the six balance equations of ``solve_equilibrium``, the
    same matrix and right-hand side, solved with ``mpmath.lu_solve`` at
    ``digits`` significant digits.  The inputs are the floats both routes
    see, ``math.sin`` and ``math.cos`` of the cam angle included, so the
    result measures their arithmetic alone.  Returns N1..N4, Rx, Ry and Fh
    as floats."""
    with mp.workdps(digits):
        x = mp.mpf
        sin_a, cos_a = x(math.sin(load.alpha)), x(math.cos(load.alpha))
        mu1, mu2, mu4 = x(fric.mu1), x(fric.mu2), x(fric.mu4)
        a, b, c, d, e, l, m, n = (x(getattr(geom, k)) for k in "abcdelmn")
        Fs, Fg, Fb = x(load.Fs), x(load.Fg), x(load.Fb)
        axial = cos_a + mu1 * sin_a
        mat = mp.matrix([
            [0, 0, 0, -1, 1, 0],
            [0, 0, 0, mu4, 0, -1],
            [0, 0, 0, m - mu4 * n, 0, -l],
            [axial, mu2, 0, 0, -1, 0],
            [mu1 * b - c, -(d + mu2 * e), 0, 0, 0, 0],
            [-axial, -mu2, 1, 0, 0, 0],
        ])
        rhs = mp.matrix([-Fs, (Fg + Fb) / 2, Fs * a, Fs, -Fs * a, 0])
        n1, n2, n3, n4, rx, ry = mp.lu_solve(mat, rhs)
        fh = mu1 * n1 + mu2 * n2 + x(geom.f) / x(geom.R) * n3 + mu4 * n4
        return {name: float(v) for name, v in
                zip(("N1", "N2", "N3", "N4", "Rx", "Ry", "Fh"), (n1, n2, n3, n4, rx, ry, fh))}


def near(x, ulps):
    """x moved by ``ulps`` units in the last place."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


@st.composite
def brake_cases(draw):
    """(geom, fric, Fg, Fb, alphas, forces).  With an offset drawn, m or c is
    solved for so that den4, or den1 at the first cam angle, equals it.  A
    spring force may sit a few ulps from the root of N1 or N2 at its angle."""
    a, b, d, e, l, n, R = (draw(lengths) for _ in range(7))
    mu1, mu2, mu4 = draw(frictions), draw(frictions), draw(frictions)
    alphas = draw(st.lists(st.floats(0.0, 1.57), min_size=1, max_size=4))
    forces = draw(st.lists(st.floats(0.0, 100.0), min_size=len(alphas), max_size=len(alphas)))
    roots = draw(st.lists(st.tuples(st.sampled_from((None, 0, 1)), st.integers(-4, 4)),
                          min_size=len(alphas), max_size=len(alphas)))
    off1, off4 = draw(offsets), draw(offsets)
    m = draw(lengths) if off4 is None else mu4 * (n + l) - off4
    if off1 is None:
        c = draw(lengths)
    else:
        axial = mu1 * math.sin(alphas[0]) + math.cos(alphas[0])
        c = b * mu1 + (axial - off1) * (d + e * mu2) / mu2
    geom = BrakeGeometry(a=a, b=b, c=c, d=d, e=e, f=R * draw(st.floats(0.01, 0.99)),
                         l=l, m=m, n=n, R=R)
    fric, Fg, Fb = FrictionSet(mu1, mu2, mu4), draw(lengths), draw(lengths)
    for i, (root, ulps) in enumerate(roots):
        if root is not None:
            Fs = near(contact_roots(geom, fric, Fg, Fb, alphas[i])[root], ulps)
            if math.isfinite(Fs) and Fs >= 0.0:
                forces[i] = Fs
    return geom, fric, Fg, Fb, alphas, forces


def conditioning(geom, fric, alpha):
    """(kappa of den1, kappa of den4) of the tolerance above for one cam
    angle."""
    dwe = geom.d + geom.e * fric.mu2
    axial = fric.mu1 * math.sin(alpha) + math.cos(alpha)
    wedge = fric.mu2 * (geom.b * fric.mu1 - geom.c) / dwe
    k1 = (axial + abs(wedge)) / abs(axial + wedge)
    k4 = (fric.mu4 * (geom.n + geom.l) + geom.m) / abs(fric.mu4 * (geom.n + geom.l) - geom.m)
    return k1, k4


def at_contact_root(geom, fric, Fg, Fb, alpha, Fs):
    """Whether Fs lies within a few ulps of the root of N1 or N2."""
    return any(math.isfinite(r) and abs(Fs - r) <= 8 * math.ulp(r)
               for r in contact_roots(geom, fric, Fg, Fb, alpha))


@settings(max_examples=300)
@given(brake_cases())
def test_scalar_and_ensemble_routes_agree_and_match_the_linear_solve(case):
    geom, fric, Fg, Fb, alphas, forces = case
    sin_a, cos_a = trig_arrays(alphas)
    samples = functools.partial(ensemble, geom, fric, Fg, Fb, cam_axial(fric, sin_a, cos_a), forces)
    loads = [LoadCase(Fg=Fg, Fb=Fb, Fs=Fs, alpha=alpha) for alpha, Fs in zip(alphas, forces)]
    want = singular_den4(geom, fric)
    if want is not None:
        assert den4_error(samples) == want
        assert all(den4_error(braking_force, geom, fric, load) == want for load in loads)
        return
    fh, valid, ok = samples()
    for i, (alpha, Fs, load) in enumerate(zip(alphas, forces, loads)):
        try:
            sol = braking_force(geom, fric, load)
        except SingularDenominator as exc:
            assert not ok[i] and not valid[i] and math.isnan(fh[i])
            assert abs(exc.value) <= SINGULAR_TOL
            continue
        assert ok[i]
        assert fh[i:i + 1].tobytes() == np.array([sol.Fh]).tobytes()
        assert bool(valid[i]) == sol.valid

        scale = abs(sol.T1) + abs(sol.T2) + abs(sol.T3) + abs(sol.T4)
        k1, k4 = conditioning(geom, fric, alpha)
        kappa = max(k1, k4)
        if min(k1, k4) > BOTH_NEAR_KAPPA and at_contact_root(geom, fric, Fg, Fb, alpha, Fs):
            # At a root a normal is the difference of nearly equal terms, so
            # the k4*eps relative error of N4 passes into N1 whole and is then
            # divided by den1, itself off by k1*eps: the problem's kappa is
            # the product.  Both routes lose up to about half of the term
            # scale there (the 6x6 solve's 37.48 against 9.89 is one case),
            # and where RTOL*k1*k4 exceeds 1 the bound does not bind.
            kappa = k1 * k4
        exact = exact_equilibrium(geom, fric, load)["Fh"]
        assert abs(sol.Fh - exact) <= RTOL * kappa * scale
        ref = solve_equilibrium(geom, fric, load)
        assert abs(ref.Fh - exact) <= RTOL * kappa * scale
        assert abs(sol.Fh - ref.Fh) <= RTOL * kappa * scale


def test_closed_form_at_a_contact_root_with_both_denominators_near_singular():
    # den1 = -1e-9 and den4 = 1e-9 (kappa1 = 2e9, kappa4 = 1e9) at the root of
    # N1, where the drawn cases' kappa1*kappa4 bound does not bind.  Here the
    # closed form still meets the 50-digit value within the single-kappa
    # bound (7e-10 of the term scale against 2e-3); the 6x6 solve gives 37.48.
    geom = BrakeGeometry(a=1.0, b=1.0, c=3.5000000030000002, d=1.0, e=1.0, f=0.5,
                         l=1.0, m=0.499999999, n=1.0, R=1.0)
    fric = FrictionSet(0.5, 0.5, 0.25)
    Fs = contact_roots(geom, fric, 1.0, 1.0, 0.0)[0]
    assert Fs == 0.9999999996666666
    load = LoadCase(Fg=1.0, Fb=1.0, Fs=Fs, alpha=0.0)
    sol = braking_force(geom, fric, load)
    scale = abs(sol.T1) + abs(sol.T2) + abs(sol.T3) + abs(sol.T4)
    k1, k4 = conditioning(geom, fric, load.alpha)
    assert min(k1, k4) > BOTH_NEAR_KAPPA and RTOL * k1 * k4 > 1.0
    exact = exact_equilibrium(geom, fric, load)["Fh"]
    assert abs(sol.Fh - exact) <= RTOL * max(k1, k4) * scale


def test_linear_solve_at_a_regular_contact_root_errs_on_the_scale_of_its_largest_unknown():
    # A regular input (kappa1 = 1, kappa4 = 1.14) at the root of N1.  The
    # closed form meets the 50-digit value within RTOL*kappa*sum|T| (0.0012
    # of it).  An LU solve errs in each unknown by a few ulps of the largest
    # (39 here, against sum|T| = 0.37): the 6x6 solve misses the term-scale
    # bound 1.45-fold and uses 0.014 of one scaled by its largest unknown.
    geom = BrakeGeometry(a=124.93287605865405, b=149.06309805646686, c=1.0,
                         d=152.37343763941374, e=11.78520814544127, f=0.0794816652335112,
                         l=42.81874770965843, m=1.0, n=1.9, R=7.94816652335112)
    fric = FrictionSet(0.5722719229682395, 0.025, 1 / 3)
    Fg, Fb, alpha = 77.31543945152394, 1.0, 1.021151778758241
    Fs = contact_roots(geom, fric, Fg, Fb, alpha)[0]
    assert Fs == 13.390190780775871
    load = LoadCase(Fg=Fg, Fb=Fb, Fs=Fs, alpha=alpha)
    kappa = max(conditioning(geom, fric, alpha))
    exact = exact_equilibrium(geom, fric, load)["Fh"]
    sol = braking_force(geom, fric, load)
    scale = abs(sol.T1) + abs(sol.T2) + abs(sol.T3) + abs(sol.T4)
    assert abs(sol.Fh - exact) <= RTOL * kappa * scale
    ref = solve_equilibrium(geom, fric, load)
    largest = max(abs(getattr(ref, k)) for k in ("N1", "N2", "N3", "N4", "Rx", "Ry"))
    assert abs(ref.Fh - exact) <= RTOL * kappa * largest


@st.composite
def classical_maps(draw):
    """(setup, box, nx, ny).  With an offset drawn, m is solved for so that
    den4 equals it, and c so that den1 at the nominal cam angle does; the
    c range then straddles that c, which is column k of the lattice.  The
    plant's own a and c are drawn apart from the box, so a kernel that reads
    them in place of the row's lengths shows."""
    b, d, e, l, n, R = (draw(lengths) for _ in range(6))
    mu1, mu2, mu4 = draw(frictions), draw(frictions), draw(frictions)
    alpha_deg = draw(st.floats(0.0, 89.9))
    off1, off4 = draw(offsets), draw(offsets)
    m = draw(lengths) if off4 is None else mu4 * (n + l) - off4
    axial = mu1 * math.sin(math.radians(alpha_deg)) + math.cos(math.radians(alpha_deg))
    c_root = b * mu1 + axial * (d + e * mu2) / mu2
    c = draw(lengths) if off1 is None else b * mu1 + (axial - off1) * (d + e * mu2) / mu2
    nx, ny = draw(st.integers(2, 4)), draw(st.integers(2, 6))
    k = draw(st.integers(0, ny - 1))
    # a lattice step that may or may not carry the c range across c_root
    h = max(abs(c - c_root), 1e-3) * draw(st.floats(0.0, 1.5)) / max(k, ny - 1 - k, 1)
    h = min(h, 0.9 * c / max(k, 1))
    a_min = draw(lengths)
    box = DesignBox(a_min=a_min, a_max=a_min + draw(st.floats(0.0, 50.0)),
                    c_min=c - k * h, c_max=c + (ny - 1 - k) * h)
    geom = BrakeGeometry(a=draw(lengths), b=b, c=draw(lengths), d=d, e=e,
                         f=R * draw(st.floats(0.01, 0.99)), l=l, m=m, n=n, R=R)
    nominal = LoadCase.from_degrees(Fg=draw(lengths), Fb=draw(lengths),
                                    Fs=draw(st.floats(0.0, 100.0)), alpha_deg=alpha_deg)
    setup = ModelSetup(geom=geom, fric=FrictionSet(mu1, mu2, mu4), nominal=nominal)
    return setup, box, nx, ny


def classical_objective(s: DesignPoint, setup: ModelSetup) -> float:
    """Oracle: the braking force (kN) at the nominal loads with a, c
    overridden by s, through the scalar route."""
    geom = dataclasses.replace(setup.geom, a=s.a, c=s.c)
    return braking_force(geom, setup.fric, setup.nominal).Fh


@settings(max_examples=300)
@given(classical_maps())
@example((setup_from(default_config()), DesignBox(), 2, 2))  # the shipped plant's box corners
def test_classical_map_cells_equal_the_scalar_route(case):
    setup, box, nx, ny = case
    want = singular_den4(setup.geom, setup.fric)
    if want is not None:
        assert den4_error(grid_scan, box, nx, ny, classical_values(setup)) == want
        corner = DesignPoint(a=box.a_min, c=box.c_min)
        assert den4_error(classical_objective, corner, setup) == want
        return
    a_values, c_values, values = grid_scan(box, nx, ny, classical_values(setup))
    for i, a in enumerate(a_values):
        for j, c in enumerate(c_values):
            s = DesignPoint(a=float(a), c=float(c))
            try:
                ref = classical_objective(s, setup)
            except SingularDenominator:
                assert math.isnan(values[i, j])
                continue
            assert values[i, j:j + 1].tobytes() == np.array([ref]).tobytes()


def plain_kernel(geom, fric, Fg, Fb, sin_a, cos_a, Fs, *, a=None, c=None):
    """Oracle: the ensemble kernel as first written, one expression per
    normal and no shared terms; the kernel must return its bits.  ``ok``
    tests den1 alone: the kernel raises at a singular den4."""
    sin_a = np.asarray(sin_a, dtype=float)
    cos_a = np.asarray(cos_a, dtype=float)
    Fs = np.asarray(Fs, dtype=float)
    a = geom.a if a is None else a
    c = geom.c if c is None else c
    dwe = geom.d + geom.e * fric.mu2
    den1 = fric.mu1 * sin_a + cos_a + fric.mu2 * (geom.b * fric.mu1 - c) / dwe
    den4 = fric.mu4 * (geom.n + geom.l) - geom.m
    ok = np.abs(den1) > SINGULAR_TOL
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        n4 = ((Fg + Fb) * geom.l / 2 - Fs * a) / den4
        n1 = (n4 - a * fric.mu2 * Fs / dwe) / den1
        n2 = (a * Fs + (geom.b * fric.mu1 - c) * n1) / dwe
        n3 = fric.mu2 * n2 + (fric.mu1 * sin_a + cos_a) * n1
        fh = fric.mu1 * n1 + fric.mu2 * n2 + (geom.f / geom.R) * n3 + fric.mu4 * n4
        fh = np.where(ok, fh, np.nan)
        valid = ok & (n1 >= 0) & (n2 >= 0) & (n3 >= 0) & (n4 >= 0)
    return fh, valid, ok


KERNEL_SHAPES = ("batch of one", "classical row", "design batch", "lattice block", "samples")


@st.composite
def design_batches(draw, geom):
    """{"a": (n,), "c": (n,)}: n designs, whose c row holds the plant's own,
    possibly near-singular, c and a neighbour one relative 1e-12 away."""
    others = draw(st.lists(lengths, max_size=4))
    c = np.array([geom.c, *others, geom.c * (1 + 1e-12)])
    return {"a": np.array(draw(st.lists(lengths, min_size=c.size, max_size=c.size))), "c": c}


@st.composite
def kernel_calls(draw):
    """(geom, fric, Fg, Fb, sin_a, cos_a, Fs, design) for one call shape:
    0-d angle, force and c (a batch of one); a scalar angle and force with a
    row of c that holds the plant's own, possibly near-singular, c (a
    classical row); a scalar angle and force with (n,) rows of a and c (a
    design batch, as one request of an ascent), or with a (k, 1) column of a
    against that (n,) row of c (a lattice block, as one block of a map); or
    (n,) samples with a scalar c.  ``design`` holds the design lengths a and c
    passed to the kernel, if any."""
    geom, fric, Fg, Fb, alphas, forces = draw(brake_cases())
    shape = draw(st.sampled_from(KERNEL_SHAPES))
    if shape in ("design batch", "lattice block"):
        design = draw(design_batches(geom))
        if shape == "lattice block":
            design["a"] = np.array(draw(st.lists(lengths, min_size=1, max_size=4)))[:, None]
        return (geom, fric, Fg, Fb, math.sin(alphas[0]), math.cos(alphas[0]), forces[0],
                design)
    design = {}
    if draw(st.booleans()):
        design["a"] = draw(lengths)
    if shape == "samples":
        sin_a, cos_a = trig_arrays(alphas)
        if draw(st.booleans()):
            design["c"] = draw(lengths)
        return geom, fric, Fg, Fb, sin_a, cos_a, np.array(forces), design
    sin_a, cos_a = np.array(math.sin(alphas[0])), np.array(math.cos(alphas[0]))
    if shape == "classical row":
        others = draw(st.lists(lengths, max_size=4))
        design["c"] = np.array([geom.c, *others, geom.c * (1 + 1e-12)])
        return geom, fric, Fg, Fb, float(sin_a), float(cos_a), forces[0], design
    if draw(st.booleans()):
        design["c"] = draw(lengths)
    return geom, fric, Fg, Fb, sin_a, cos_a, np.array(forces[0]), design


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


@settings(max_examples=500)
@given(kernel_calls())
def test_kernel_keeps_the_bits_of_the_plain_formula(call):
    # the oracle takes sin/cos alpha and spells the cam's axial factor
    # itself, so this covers cam_axial and the kernel together
    geom, fric, Fg, Fb, sin_a, cos_a, Fs, design = call
    kernel = functools.partial(ensemble, geom, fric, Fg, Fb,
                               cam_axial(fric, sin_a, cos_a), Fs, **design)
    want = singular_den4(geom, fric)
    if want is not None:
        assert den4_error(kernel) == want
        return
    got = kernel()
    # the oracle takes equal-shape copies of the design lengths, so its ok has
    # the shape of fh also on a lattice block, where den1 varies along c alone
    equal = {k: v.copy() for k, v in zip(design, np.broadcast_arrays(*design.values()))}
    want = plain_kernel(geom, fric, Fg, Fb, sin_a, cos_a, Fs, **equal)
    fh, valid, ok = got
    shape = np.broadcast(sin_a, Fs, *design.values()).shape
    for name, x, y in zip(("fh", "valid", "ok"), (fh, valid, np.broadcast_to(ok, shape)), want):
        assert np.shape(x) == shape and same_bits(x, y), name


@settings(max_examples=200)
@given(brake_cases(), st.data())
def test_design_batch_equals_one_call_per_design(case, data):
    geom, fric, Fg, Fb, alphas, forces = case
    design = data.draw(design_batches(geom))
    axial, Fs = cam_axial(fric, math.sin(alphas[0]), math.cos(alphas[0])), forces[0]
    kernel = functools.partial(ensemble, geom, fric, Fg, Fb, axial, Fs)
    designs = list(zip(design["a"].tolist(), design["c"].tolist()))
    want = singular_den4(geom, fric)
    if want is not None:
        assert den4_error(kernel, **design) == want
        assert all(den4_error(kernel, a=a, c=c) == want for a, c in designs)
        return
    batch = kernel(**design)
    for i, (a, c) in enumerate(designs):
        one = kernel(a=a, c=c)
        for name, x, y in zip(("fh", "valid", "ok"), batch, one):
            assert same_bits(x[i:i + 1], np.reshape(y, 1)), name


@settings(max_examples=200)
@given(brake_cases())
def test_scalar_route_is_the_kernel_on_a_batch_of_one(case):
    geom, fric, Fg, Fb, alphas, forces = case
    alpha, Fs = alphas[0], forces[0]
    axial = cam_axial(fric, np.array(math.sin(alpha)), np.array(math.cos(alpha)))
    kernel = functools.partial(ensemble, geom, fric, Fg, Fb, axial, np.array(Fs))
    scalar = functools.partial(braking_force, geom, fric,
                               LoadCase(Fg=Fg, Fb=Fb, Fs=Fs, alpha=alpha))
    want = singular_den4(geom, fric)
    if want is not None:
        assert den4_error(kernel) == den4_error(scalar) == want
        return
    fh, valid, ok = kernel()
    assert np.shape(fh) == np.shape(valid) == np.shape(ok) == ()
    try:
        sol = scalar()
    except SingularDenominator:
        assert not ok and not valid and math.isnan(fh)
        return
    assert ok and same_bits(fh, sol.Fh) and bool(valid) == sol.valid


def test_singular_den4_raises_the_scalar_routes_error_in_every_broadcast_shape():
    fric = FrictionSet(0.1, 0.1, 0.15)
    geom = BrakeGeometry(a=55.0, b=16.6, c=52.7, d=34.5, e=60.7, f=0.005,
                         l=49.0, m=0.15 * (17.5 + 49.0), n=17.5, R=29.0)
    want = den4_error(braking_force, geom, fric, LoadCase(50.0, 30.0, 40.0, 0.0))
    assert want == singular_den4(geom, fric)
    sin_a, cos_a = trig_arrays([0.0, 0.1, 0.2])
    for args, design in (((cam_axial(fric, sin_a, cos_a), np.array([40.0, 41.0, 42.0])), {}),
                         ((cam_axial(fric, 0.0, 1.0), 40.0), {"c": np.linspace(50.0, 55.0, 4)}),
                         ((np.array(cam_axial(fric, 0.0, 1.0)), np.array(40.0)), {})):
        assert den4_error(ensemble, geom, fric, 50.0, 30.0, *args, **design) == want
