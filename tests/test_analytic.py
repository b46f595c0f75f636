"""Oracle-first tests for the closed-form layer.

The independent oracle here is a 60-term power series accumulated in
``decimal.Decimal`` at 50 digits -- completely separate from the package's
double-precision evaluation path.
"""

import math
from decimal import Decimal, getcontext

import numpy as np
import pytest

from extremal_lab import analytic
from extremal_lab.errors import NonNegativeAlpha, NonPositiveLambda

getcontext().prec = 50

# frozen from the Decimal oracle below (decimal_j(0, x) root via bisection)
J01_EXPECTED = 2.404825557695773
J1_AT_J01 = 0.519147497289467
H0_UNIT = 1.926234846977253  # 1 / J1(j01)


def decimal_j(order: int, x: Decimal, terms: int = 60) -> Decimal:
    half = x / 2
    h2 = half * half
    term = Decimal(1) if order == 0 else half
    total = term
    for m in range(1, terms):
        term = term * (-h2) / (m * (m + order))
        total += term
    return total


def decimal_j0_root() -> Decimal:
    lo, hi = Decimal(2), Decimal(3)
    flo = decimal_j(0, lo)
    for _ in range(140):
        mid = (lo + hi) / 2
        fmid = decimal_j(0, mid)
        if (flo < 0) != (fmid < 0) or fmid == 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return (lo + hi) / 2


def test_j0_j1_at_zero():
    assert analytic.bessel_j(0, 0.0) == 1.0
    assert analytic.bessel_j(1, 0.0) == 0.0


@pytest.mark.parametrize("x", [0.5, 1.0, 2.404825557695773, 5.0, 7.9, 8.1, 12.0, 19.5, 29.7])
@pytest.mark.parametrize("order", [0, 1])
def test_bessel_matches_decimal_series(order, x):
    oracle = float(decimal_j(order, Decimal(repr(x)), terms=90))
    assert analytic.bessel_j(order, x) == pytest.approx(oracle, abs=1e-12)


def test_bessel_array_matches_scalar():
    xs = np.linspace(0.0, 30.0, 101)
    arr = analytic.bessel_j(0, xs)
    assert arr.shape == xs.shape
    assert arr[37] == analytic.bessel_j(0, xs[37])


def test_bessel_rejects_negative():
    with pytest.raises(ValueError):
        analytic.bessel_j(0, -0.5)


def test_j01_against_decimal_bisection():
    oracle = float(decimal_j0_root())
    assert oracle == pytest.approx(J01_EXPECTED, abs=1e-14)
    assert analytic.j01() == pytest.approx(oracle, abs=1e-12)
    assert abs(analytic.bessel_j(0, analytic.j01())) <= 1e-12


def test_j01_squared_is_disk_eigenvalue_oracle():
    assert analytic.j01() ** 2 == pytest.approx(5.783185962946785, abs=1e-11)


def test_bessel_derivative_identity():
    # J0'(x) = -J1(x), central differences at 100 points on [0, 10]
    xs = np.linspace(0.05, 10.0, 100)
    eps = 1e-6
    d = (analytic.bessel_j(0, xs + eps) - analytic.bessel_j(0, xs - eps)) / (2 * eps)
    assert np.max(np.abs(d + analytic.bessel_j(1, xs))) <= 1e-8


def test_r_lambda_values():
    assert analytic.r_lambda(1.0) == pytest.approx(J01_EXPECTED, abs=1e-12)
    assert analytic.r_lambda(analytic.j01() ** 2) == pytest.approx(1.0, abs=1e-12)
    assert analytic.r_lambda(4.0) == pytest.approx(J01_EXPECTED / 2, abs=1e-12)
    with pytest.raises(NonPositiveLambda):
        analytic.r_lambda(0.0)


def test_ball_solution_unit_case():
    sol = analytic.ball_solution(1.0, -1.0)
    assert sol.h0 == pytest.approx(H0_UNIT, abs=1e-6)
    assert sol.h0 == pytest.approx(1.0 / J1_AT_J01, abs=1e-12)
    assert abs(sol.profile(sol.radius)) <= 1e-12
    assert sol.profile_derivative(sol.radius) == pytest.approx(-1.0, abs=1e-12)


def test_ball_solution_scalings():
    base = analytic.ball_solution(1.0, -1.0)
    assert analytic.ball_solution(1.0, -2.0).h0 == pytest.approx(2 * base.h0, rel=1e-13)
    assert analytic.ball_solution(4.0, -1.0).h0 == pytest.approx(base.h0 / 2, rel=1e-13)
    with pytest.raises(NonNegativeAlpha):
        analytic.ball_solution(1.0, 0.0)


def test_ball_profile_satisfies_radial_ode():
    # v'' + v'/r + lam*v = 0 checked by finite differences at 100 interior radii
    sol = analytic.ball_solution(1.0, -1.0)
    r = np.linspace(0.05, sol.radius - 0.05, 100)
    hstep = 1e-5
    v = sol.profile(r)
    vp = (sol.profile(r + hstep) - sol.profile(r - hstep)) / (2 * hstep)
    vpp = (sol.profile(r + hstep) - 2 * v + sol.profile(r - hstep)) / hstep**2
    assert np.max(np.abs(vpp + vp / r + sol.lam * v)) <= 1e-5
    # collocation residual with exact derivative identities stays at 1e-9
    s = math.sqrt(sol.lam)
    vp_exact = -sol.amplitude * s * analytic.bessel_j(1, s * r)
    vpp_exact = -sol.lam * v - vp_exact / r
    assert np.max(np.abs(vpp_exact + vp_exact / r + sol.lam * v)) <= 1e-9


def test_strip_solution_cases():
    s = analytic.strip_solution(4.0, -2.0)
    assert s.width == pytest.approx(math.pi / 2, abs=1e-14)
    assert s.max_value == pytest.approx(1.0, abs=1e-14)
    x = np.linspace(0, s.width, 7)
    assert np.allclose(s.profile(x), np.sin(2 * x), atol=1e-14)
    # flux at both walls equals alpha: outward derivative is -u'(0) and +u'(w)
    assert -s.profile_derivative(0.0) == pytest.approx(-2.0, abs=1e-12)
    assert s.profile_derivative(s.width) == pytest.approx(-2.0, abs=1e-12)

    unit = analytic.strip_solution(1.0, -1.0)
    assert unit.max_value == pytest.approx(1.0, abs=1e-14)
    assert unit.width == pytest.approx(math.pi, abs=1e-14)


def test_strip_p_is_constant_alpha_squared():
    s = analytic.strip_solution(2.5, -1.7)
    x = np.linspace(0, s.width, 257)
    assert np.max(np.abs(s.p_value(x) - s.alpha**2)) <= 1e-12


def test_h0_monotone():
    h = analytic.ball_solution(1.0, -1.0).h0
    assert analytic.ball_solution(1.0, -1.5).h0 > h
    assert analytic.ball_solution(0.5, -1.0).h0 > h
    assert analytic.ball_solution(2.0, -1.0).h0 < h


# -- strip flux linearization ------------------------------------------------------


@pytest.mark.parametrize("lam", [0.25, 1.0, 4.0])
def test_strip_flux_linearization_vanishes_at_bifurcation_period(lam):
    tstar = 2 * math.pi / math.sqrt(lam)
    assert abs(analytic.strip_flux_linearization(lam, tstar)) <= 1e-12


@pytest.mark.parametrize("lam", [0.25, 1.0, 4.0])
def test_strip_flux_linearization_continuous_across_crossover(lam):
    # k^2 = lam at T*; the tanh branch (T < T*) and the tan branch (T > T*)
    # must meet with matching values and slopes
    tstar = 2 * math.pi / math.sqrt(lam)
    mu = analytic.strip_flux_linearization
    for d in (1e-4, 1e-6):
        below, above = mu(lam, tstar * (1 - d)), mu(lam, tstar * (1 + d))
        assert below > 0 > above
        slope_below = (mu(lam, tstar) - below) / (tstar * d)
        slope_above = (above - mu(lam, tstar)) / (tstar * d)
        assert slope_above == pytest.approx(slope_below, rel=10 * d)


@pytest.mark.parametrize("lam", [0.25, 1.0, 4.0])
def test_strip_flux_linearization_sign(lam):
    s = math.sqrt(lam)
    tstar = 2 * math.pi / s
    for t in np.linspace(0.1 / s, 50.0 / s, 97):
        value = analytic.strip_flux_linearization(lam, float(t))
        if t < tstar:
            assert value > 0
        else:
            assert value < 0


def test_strip_flux_linearization_rejects_bad_input():
    with pytest.raises(NonPositiveLambda):
        analytic.strip_flux_linearization(0.0, 6.0)
    with pytest.raises(ValueError):
        analytic.strip_flux_linearization(1.0, 0.0)
