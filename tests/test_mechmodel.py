"""Closed-form brake model against the independent linear-solve route.

Expected values below were frozen from a 50-digit evaluation of the same
balance equations (mpmath LU solve), independent of the package code;
``exact_equilibrium`` in test_model_properties is that solve.
"""

import dataclasses
import math

import numpy as np
import pytest

from brakeopt import (
    BrakeGeometry,
    FrictionSet,
    LoadCase,
    SingularDenominator,
    SingularSystem,
    ValidationError,
    braking_force,
    solve_equilibrium,
)
from brakeopt.mechmodel import (braking_force_ensemble, cam_axial, column_terms, spring_terms,
                                trig_arrays)
from test_model_properties import exact_equilibrium

# nominal duty point: shipped geometry/friction, Fs = 42 kN, alpha = 6 deg
NOMINAL = dict(Fg=50.0, Fb=30.0, Fs=42.0, alpha=math.radians(6.0))
EXPECTED_NOMINAL = {
    "N1": 6.7826553117379913641,
    "N2": 48.405552696300047345,
    "N3": 11.656952539550374688,
    "N4": 11.656952539550374688,
    "Rx": -30.343047460449625312,
    "Ry": -38.251457119067443797,
    "Fh": 7.2693735011397308283,
}
FS_ZERO_N4 = 35.636363636363636364  # numerator of the N4 form vanishes


def rel_err(x, ref):
    return abs(x - ref) / (1.0 + abs(ref))


@pytest.fixture(scope="module")
def geom(cfg):
    return cfg.geometry


@pytest.fixture(scope="module")
def fric(cfg):
    return cfg.friction


def test_nominal_closed_form_matches_frozen_values(geom, fric):
    sol = braking_force(geom, fric, LoadCase(**NOMINAL))
    for name, ref in EXPECTED_NOMINAL.items():
        assert rel_err(getattr(sol, name), ref) < 1e-12, name
    assert sol.valid


@pytest.mark.parametrize("route", [braking_force, solve_equilibrium])
@pytest.mark.parametrize("fs", [42.0, 0.0])  # a valid and an invalid state
def test_solution_fields_are_python_floats_and_bool(geom, fric, route, fs):
    sol = route(geom, fric, LoadCase(Fg=50.0, Fb=30.0, Fs=fs, alpha=math.radians(6.0)))
    assert sol.valid is (fs > 0)
    for field in dataclasses.fields(sol):
        if field.name != "valid":
            assert type(getattr(sol, field.name)) is float, field.name


def test_nominal_linear_solve_matches_frozen_values(geom, fric):
    sol = solve_equilibrium(geom, fric, LoadCase(**NOMINAL))
    for name, ref in EXPECTED_NOMINAL.items():
        assert rel_err(getattr(sol, name), ref) < 1e-12, name


def test_fifty_digit_reference_reproduces_frozen_values(geom, fric):
    exact = exact_equilibrium(geom, fric, LoadCase(**NOMINAL))
    for name, ref in EXPECTED_NOMINAL.items():
        assert rel_err(exact[name], ref) < 1e-15, name


def test_two_routes_agree_at_nominal(geom, fric):
    load = LoadCase(**NOMINAL)
    a = braking_force(geom, fric, load)
    b = solve_equilibrium(geom, fric, load)
    for name in ("N1", "N2", "N3", "N4", "Rx", "Ry", "Fh"):
        assert rel_err(getattr(a, name), getattr(b, name)) < 1e-12, name


def test_zero_loads_give_zero_everything(geom, fric):
    load = LoadCase(Fg=0.0, Fb=0.0, Fs=0.0, alpha=math.radians(6.0))
    for sol in (braking_force(geom, fric, load), solve_equilibrium(geom, fric, load)):
        for name in ("N1", "N2", "N3", "N4", "T1", "T2", "T3", "T4", "Fh"):
            assert getattr(sol, name) == pytest.approx(0.0, abs=1e-13), name
        assert sol.valid


def test_spring_force_that_zeroes_n4(geom, fric):
    load = LoadCase(Fg=50.0, Fb=30.0, Fs=FS_ZERO_N4, alpha=math.radians(6.0))
    sol = braking_force(geom, fric, load)
    n1, n2, n3, n4 = sol.N1, sol.N2, sol.N3, sol.N4
    assert abs(n4) < 1e-12
    assert abs(n3 - n4) < 1e-12


def test_zero_spring_force_flags_invalid_without_clamping(geom, fric):
    sol = braking_force(geom, fric, LoadCase(Fg=50.0, Fb=30.0, Fs=0.0, alpha=math.radians(6.0)))
    assert not sol.valid
    assert sol.N4 < 0  # reported as-is
    assert sol.Fh == pytest.approx(-7.88688510315, rel=1e-9)
    oracle = solve_equilibrium(geom, fric, LoadCase(Fg=50.0, Fb=30.0, Fs=0.0, alpha=math.radians(6.0)))
    assert not oracle.valid
    assert rel_err(sol.Fh, oracle.Fh) < 1e-12


def test_friction_ratios_are_exact(geom, fric):
    sol = braking_force(geom, fric, LoadCase(**NOMINAL))
    assert sol.T1 == fric.mu1 * sol.N1
    assert sol.T2 == fric.mu2 * sol.N2
    assert sol.T3 == (geom.f / geom.R) * sol.N3
    assert sol.T4 == fric.mu4 * sol.N4
    assert sol.Fh == sol.T1 + sol.T2 + sol.T3 + sol.T4


def test_braking_force_affine_in_spring_force(geom, fric):
    # acceptance criterion 3 takes the triple (0, 28, 56) kN
    def fh(fs):
        return braking_force(geom, fric, LoadCase(Fg=50.0, Fb=30.0, Fs=fs, alpha=math.radians(6.0))).Fh

    second_diff = fh(10.0) + fh(40.0) - 2.0 * fh(25.0)
    assert abs(second_diff) < 1e-10 * (1.0 + abs(fh(25.0)))


def test_braking_force_affine_in_weight_plus_inertia(geom, fric):
    def fh(fg):
        return braking_force(geom, fric, LoadCase(Fg=fg, Fb=0.0, Fs=42.0, alpha=math.radians(6.0))).Fh

    second_diff = fh(0.0) + fh(160.0) - 2.0 * fh(80.0)
    assert abs(second_diff) < 1e-10 * (1.0 + abs(fh(80.0)))


def test_singular_n4_denominator_raises(fric):
    # mu4*(n+l) == m exactly: 0.15 * 80 == 12
    geom = BrakeGeometry(a=55.0, b=16.6, c=52.7, d=34.5, e=60.7, f=0.005,
                         l=62.5, m=12.0, n=17.5, R=29.0)
    with pytest.raises(SingularDenominator) as err:
        braking_force(geom, fric, LoadCase(**NOMINAL))
    assert "n+l" in err.value.name


def test_singular_plant_is_a_singular_system_of_the_linear_solve(geom, fric):
    # the shipped plant at m = 9.975 (geometry.m_mm in a config): den4 = mu4*(n+l) - m
    # is 0, and so is the determinant of the 6x6 system
    with pytest.raises(SingularSystem) as err:
        solve_equilibrium(dataclasses.replace(geom, m=9.975), fric, LoadCase(**NOMINAL))
    assert err.value.exit_code == 13


def test_singular_n1_denominator_raises(fric):
    # choose c so the N1 denominator cancels at alpha = 0
    dwe = 34.5 + 60.7 * fric.mu2
    c_sing = 16.6 * fric.mu1 + dwe / fric.mu2
    geom = BrakeGeometry(a=55.0, b=16.6, c=c_sing, d=34.5, e=60.7, f=0.005,
                         l=49.0, m=40.0, n=17.5, R=29.0)
    with pytest.raises(SingularDenominator) as err:
        braking_force(geom, fric, LoadCase(Fg=50.0, Fb=30.0, Fs=42.0, alpha=0.0))
    assert "cos(alpha)" in err.value.name


def test_ensemble_route_flags_singular_samples_instead_of_raising(fric):
    dwe = 34.5 + 60.7 * fric.mu2
    c_sing = 16.6 * fric.mu1 + dwe / fric.mu2
    geom = BrakeGeometry(a=55.0, b=16.6, c=c_sing, d=34.5, e=60.7, f=0.005,
                         l=49.0, m=40.0, n=17.5, R=29.0)
    sin_a, cos_a = trig_arrays([0.0, math.radians(6.0)])
    spring = spring_terms(geom, fric, 50.0, 30.0, np.array([42.0, 42.0]), geom.a)
    column = column_terms(geom, fric, cam_axial(fric, sin_a, cos_a), geom.c)
    fh, valid, ok = braking_force_ensemble(geom, fric, column, spring)
    assert not ok[0] and math.isnan(fh[0]) and not valid[0]
    assert ok[1] and math.isfinite(fh[1])


@pytest.mark.parametrize("bad", [
    dict(a=-1.0), dict(f=0.0), dict(f=30.0),  # f >= R
])
def test_geometry_validation(bad):
    base = dict(a=55.0, b=16.6, c=52.7, d=34.5, e=60.7, f=0.005,
                l=49.0, m=40.0, n=17.5, R=29.0)
    with pytest.raises(ValidationError):
        BrakeGeometry(**{**base, **bad})


@pytest.mark.parametrize("bad", [dict(mu1=0.0), dict(mu2=1.0), dict(mu4=-0.1)])
def test_friction_validation(bad):
    with pytest.raises(ValidationError):
        FrictionSet(**{**dict(mu1=0.1, mu2=0.1, mu4=0.15), **bad})


@pytest.mark.parametrize("bad", [
    dict(Fs=-1.0), dict(alpha=-0.01), dict(alpha=math.pi / 2),
])
def test_load_case_validation(bad):
    with pytest.raises(ValidationError):
        LoadCase(**{**NOMINAL, **bad})
