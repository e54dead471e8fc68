"""Property tests of the closed form over geometry, friction, cam angle and
spring force, including points next to the two singular denominators.

The scalar route (``braking_force``) and the ensemble route
(``braking_force_ensemble``) must agree on which samples are singular and,
everywhere else, bit for bit.  Both must agree with the independent 6x6
solve to within a tolerance scaled by how ill-conditioned the closed-form
denominators are.  The same holds for a classical design map, which passes
the design lengths to the ensemble route one lattice row at a time.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from brakeopt import (
    BrakeGeometry,
    DesignBox,
    DesignPoint,
    FrictionSet,
    LoadCase,
    SingularDenominator,
    braking_force,
    classical_objective,
    grid_scan,
    solve_equilibrium,
)
from brakeopt.mechmodel import SINGULAR_TOL, braking_force_ensemble, trig_arrays
from brakeopt.optimizer import ModelSetup

# signed distances from a singular denominator, on both sides of SINGULAR_TOL
NEAR_SINGULAR = (0.0, 1e-12, 5e-10, 1e-9, 1.5e-9, 1e-6, 1e-3)
# |Fh - Fh_6x6| <= RTOL * kappa * (|T1| + |T2| + |T3| + |T4|), where kappa >= 1
# is the larger ratio of a denominator's summed term magnitudes to its value:
# a denominator formed by cancellation carries an absolute rounding error of a
# few ulps of its terms.  Measured worst case of the ratio: 5e-15.
RTOL = 1e-12

lengths = st.floats(1.0, 200.0)
frictions = st.floats(0.01, 0.99)
offsets = st.one_of(
    st.none(),
    st.builds(lambda x, sign: sign * x, st.sampled_from(NEAR_SINGULAR), st.sampled_from((1.0, -1.0))))


@st.composite
def brake_cases(draw):
    """(geom, fric, Fg, Fb, alphas, forces).  With an offset drawn, m or c is
    solved for so that den4, or den1 at the first cam angle, equals it."""
    a, b, d, e, l, n, R = (draw(lengths) for _ in range(7))
    mu1, mu2, mu4 = draw(frictions), draw(frictions), draw(frictions)
    alphas = draw(st.lists(st.floats(0.0, 1.57), min_size=1, max_size=4))
    forces = draw(st.lists(st.floats(0.0, 100.0), min_size=len(alphas), max_size=len(alphas)))
    off1, off4 = draw(offsets), draw(offsets)
    m = draw(lengths) if off4 is None else mu4 * (n + l) - off4
    if off1 is None:
        c = draw(lengths)
    else:
        axial = mu1 * math.sin(alphas[0]) + math.cos(alphas[0])
        c = b * mu1 + (axial - off1) * (d + e * mu2) / mu2
    geom = BrakeGeometry(a=a, b=b, c=c, d=d, e=e, f=R * draw(st.floats(0.01, 0.99)),
                         l=l, m=m, n=n, R=R)
    return geom, FrictionSet(mu1, mu2, mu4), draw(lengths), draw(lengths), alphas, forces


def conditioning(geom, fric, alpha):
    """kappa of the tolerance above for one cam angle."""
    dwe = geom.d + geom.e * fric.mu2
    axial = fric.mu1 * math.sin(alpha) + math.cos(alpha)
    wedge = fric.mu2 * (geom.b * fric.mu1 - geom.c) / dwe
    k1 = (axial + abs(wedge)) / abs(axial + wedge)
    k4 = (fric.mu4 * (geom.n + geom.l) + geom.m) / abs(fric.mu4 * (geom.n + geom.l) - geom.m)
    return max(k1, k4)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(brake_cases())
def test_scalar_and_ensemble_routes_agree_and_match_the_linear_solve(case):
    geom, fric, Fg, Fb, alphas, forces = case
    sin_a, cos_a = trig_arrays(alphas)
    fh, valid, ok = braking_force_ensemble(geom, fric, Fg, Fb, sin_a, cos_a, forces)
    for i, (alpha, Fs) in enumerate(zip(alphas, forces)):
        load = LoadCase(Fg=Fg, Fb=Fb, Fs=Fs, alpha=alpha)
        try:
            sol = braking_force(geom, fric, load)
        except SingularDenominator as exc:
            assert not ok[i] and not valid[i] and math.isnan(fh[i])
            assert abs(exc.value) <= SINGULAR_TOL
            continue
        assert ok[i]
        assert fh[i:i + 1].tobytes() == np.array([sol.Fh]).tobytes()
        assert bool(valid[i]) == sol.valid

        ref = solve_equilibrium(geom, fric, load)
        scale = abs(sol.T1) + abs(sol.T2) + abs(sol.T3) + abs(sol.T4)
        assert abs(sol.Fh - ref.Fh) <= RTOL * conditioning(geom, fric, alpha) * scale


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


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(classical_maps())
def test_classical_map_cells_equal_the_scalar_route(case):
    setup, box, nx, ny = case
    scan = grid_scan(box, nx, ny, "classical", setup)
    for i, a in enumerate(scan.a_values):
        for j, c in enumerate(scan.c_values):
            s = DesignPoint(a=float(a), c=float(c))
            try:
                ref = classical_objective(s, setup)
            except SingularDenominator:
                assert math.isnan(scan.values[i, j])
                continue
            assert scan.values[i, j:j + 1].tobytes() == np.array([ref]).tobytes()
