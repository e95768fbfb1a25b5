"""Analytic layer: density, CDF, transform, fixed point, bounds.

Frozen reference values were produced by direct quadrature of the integral
definitions (scipy.integrate.quad on the cos-substituted integrand), not by
the functions under test; the live oracles are in mp_oracle.
"""

import cmath
import math
import sys
from math import comb

import numpy as np
import pytest

from hardedge import (
    SpectralPoint,
    Window,
    check_delta_bounds,
    fixed_point_residual,
    mp,
    mp_cdf,
    mp_density,
    mp_moment_quadrature,
    mp_stieltjes,
    mp_window_mass,
)
import hardedge.mp as mp_module
from hardedge.mp import MAX_MOMENT_ORDER
from mp_oracle import density_quadrature, moment_quadrature, stieltjes_quadrature

INV_TWO_PI = 0.15915494309189535


def test_density_values():
    assert mp_density(2.0) == pytest.approx(INV_TWO_PI, abs=1e-15)
    assert mp_density(1.0) == pytest.approx(0.27566444771089604, abs=1e-15)
    assert mp_density(4.0) == 0.0
    assert mp_density(0.0) == 0.0
    assert mp_density(-1.0) == 0.0
    assert mp_density(4.5) == 0.0


def test_density_hard_edge_divergence():
    # 1/sqrt(E) blowup toward zero
    assert mp_density(1e-8) > 1e3
    assert mp_density(1e-4) > mp_density(1e-2) > mp_density(1.0)


def test_cdf_values():
    assert mp_cdf(0.0) == 0.0
    assert mp_cdf(4.0) == pytest.approx(1.0, abs=1e-15)
    assert mp_cdf(5.0) == 1.0
    assert mp_cdf(-0.5) == 0.0
    assert mp_cdf(2.0) == pytest.approx(0.8183098861837906, abs=1e-14)


@pytest.mark.parametrize(
    "energy,expected",
    [(0.3, 0.34428197410849176), (1.7, 0.7667811572992768), (3.2, 0.9594806736461634)],
)
def test_cdf_against_quadrature(energy, expected):
    assert mp_cdf(energy) == pytest.approx(expected, abs=1e-11)


def test_cdf_is_exact_down_to_zero():
    # mp_cdf(E) = 2 sqrt(E)/pi (1 + O(E)); 1 - E/2 rounds to 1 below about 2e-16
    for energy in [*np.logspace(-12, -323, 32), 5e-324]:
        ratio = mp_cdf(float(energy)) * math.pi / (2.0 * math.sqrt(energy))
        assert ratio == pytest.approx(1.0, rel=1e-12, abs=0.0), energy


def test_cdf_monotone():
    grid = np.linspace(0.0, 4.0, 200)
    vals = [mp_cdf(e) for e in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_window_mass():
    assert mp_window_mass(Window(2.0, 2.0)) == pytest.approx(0.1816901138162093, abs=1e-14)
    assert mp_window_mass(Window(0.0, 4.0)) == pytest.approx(1.0, abs=1e-14)
    # beyond the support contributes nothing
    assert mp_window_mass(Window(4.0, 1.0)) == 0.0


def test_normalization_by_quadrature():
    assert abs(density_quadrature() - 1.0) < 1e-10


def test_moments_by_quadrature():
    # Catalan numbers 1, 2, 5
    assert abs(mp_moment_quadrature(1) - 1.0) < 1e-6
    assert abs(mp_moment_quadrature(2) - 2.0) < 1e-6
    assert abs(mp_moment_quadrature(3) - 5.0) < 1e-6
    assert abs(mp_moment_quadrature(0) - 1.0) < 1e-10


def test_moments_are_catalan_numbers():
    for k in range(61):
        catalan = comb(2 * k, k) // (k + 1)
        assert abs(mp_moment_quadrature(k) - catalan) <= 1e-13 * catalan, k
        # below 2^53 the rounded rule is exact
        assert k > 30 or mp_moment_quadrature(k) == catalan, k


def test_moments_match_adaptive_oracle():
    for k in range(9):
        assert mp_moment_quadrature(k) == pytest.approx(moment_quadrature(k), rel=1e-11, abs=1e-12), k


def test_moment_order_range():
    # MAX_MOMENT_ORDER is the last order whose Catalan number fits in a float
    float(comb(2 * MAX_MOMENT_ORDER, MAX_MOMENT_ORDER) // (MAX_MOMENT_ORDER + 1))
    with pytest.raises(OverflowError):
        float(comb(2 * MAX_MOMENT_ORDER + 2, MAX_MOMENT_ORDER + 1) // (MAX_MOMENT_ORDER + 2))
    top = mp_moment_quadrature(MAX_MOMENT_ORDER)
    assert math.isfinite(top) and top > 1e308
    for order in (-1, MAX_MOMENT_ORDER + 1, 10**18):
        with pytest.raises(ValueError, match="order must be"):
            mp_moment_quadrature(order)


STIELTJES_QUAD_REFERENCE = [
    (2.0, 0.1, -0.47503119152805384 + 0.49937616943892255j),
    (0.5, 0.05, -0.42485101726107255 + 1.3175148535818015j),
    (5.0, 1.0, -0.24797834198182359 + 0.07630601822872801j),
    (-1.0, 0.3, 0.5878573486937408 + 0.1265006657943941j),
    (0.001, 0.001, 9.677917925437013 + 24.56298054587293j),
]


@pytest.mark.parametrize("energy,eta,expected", STIELTJES_QUAD_REFERENCE)
def test_stieltjes_against_quadrature(energy, eta, expected):
    value = mp_stieltjes(SpectralPoint(energy, eta))
    assert value == pytest.approx(expected, abs=2e-10)


def test_stieltjes_matches_inpackage_quadrature():
    for energy, eta in ((1.3, 0.02), (3.99, 0.001), (0.01, 0.5)):
        p = SpectralPoint(energy, eta)
        assert abs(mp_stieltjes(p) - stieltjes_quadrature(p)) < 1e-9


def test_stieltjes_herglotz():
    for energy in (-2.0, 0.0, 1e-6, 1.0, 3.9999, 4.0, 50.0):
        for eta in (1e-9, 1e-3, 1.0, 100.0):
            assert mp_stieltjes(SpectralPoint(energy, eta)).imag > 0.0


def test_stieltjes_far_field_series():
    # Delta = -(1/th)(1 + 1/th + 2/th^2 + 5/th^3 + ...), moments 1, 2, 5
    theta = complex(0.0, 1e6)
    series = -(1.0 / theta) * (1.0 + 1.0 / theta + 2.0 / theta**2)
    value = mp_stieltjes(SpectralPoint(0.0, 1e6))
    assert abs(value - series) < 1e-21


@pytest.mark.parametrize("modulus", [1e300, 1e308, sys.float_info.max], ids=["1e300", "1e308", "max"])
@pytest.mark.parametrize("angle", [0.1, math.pi / 4, math.pi / 2, 3 * math.pi / 4, 3.0])
def test_stieltjes_at_huge_theta_is_minus_one_over_theta(modulus, angle):
    # the denominator overflows beyond |theta| ~ 9e307, but the transform
    # -1/theta + O(|theta|^-2) is representable (subnormal at the largest moduli)
    energy, eta = modulus * math.cos(angle), modulus * math.sin(angle)
    value = mp_stieltjes(SpectralPoint(energy, eta))
    # -1/theta = -conj(theta)/|theta|^2, divided through twice so nothing overflows
    r = math.hypot(energy, eta)
    reference = complex(-(energy / r) / r, (eta / r) / r)
    assert value.imag > 0.0
    assert abs(value - reference) <= 1e-15 * abs(reference)


@pytest.mark.parametrize("energy, eta", [(0.0, 1e-310), (0.0, 5e-324), (1e-310, 1e-310), (-1e-310, 1e-320)])
def test_stieltjes_at_subnormal_theta_is_one_over_sqrt_minus_theta(energy, eta):
    # 4/theta overflows there; the transform is 1/sqrt(-theta) - 1/2 + O(|theta|^(1/2))
    theta = complex(energy, eta)
    value = mp_stieltjes(SpectralPoint(energy, eta))
    reference = 1.0 / cmath.sqrt(-theta)
    assert value.imag > 0.0
    assert abs(value - reference) <= 1e-15 * abs(reference)


@pytest.mark.parametrize("energy, eta", [(-1e308, 1e-300), (-1e300, 1e-300), (-1e150, 1e-300)])
def test_stieltjes_returns_an_underflowed_imaginary_part_as_zero(energy, eta):
    # Im m >= eta / (|theta| + 4)^2 underflows float64, and so does Im m itself
    value = mp_stieltjes(SpectralPoint(energy, eta))
    assert math.copysign(1.0, value.imag) == 1.0 and value.imag == 0.0
    assert value.real == pytest.approx(-1.0 / energy, rel=1e-15)


def test_stieltjes_still_refuses_a_zero_it_could_represent(monkeypatch):
    # a broken root cancelling theta's imaginary part gives the real value -1
    # at theta = 2 + 0.1i, where the bound 0.1 / 36 is representable
    monkeypatch.setattr(mp_module.cmath, "sqrt", lambda z: 1.0 if z.real > 0 else complex(0.0, -z.imag))
    with pytest.raises(ArithmeticError, match=r"upper half plane at theta=\(2\+0.1j\): \(-1"):
        mp_stieltjes(SpectralPoint(2.0, 0.1))


def test_bounds_refuse_an_underflowing_norm():
    # E^2 + eta^2 underflows, and every bound divides by it
    with pytest.raises(ArithmeticError, match="underflows"):
        check_delta_bounds(SpectralPoint(1e-170, 1e-170))


def test_bounds_refuse_an_overflowing_norm():
    # E^2 + eta^2 overflows, so the envelope checks have no finite margins
    with pytest.raises(ArithmeticError, match="overflows"):
        check_delta_bounds(SpectralPoint(1e308, 1e308))


def test_fixed_point_residual_on_log_grid():
    energies = np.logspace(-3, 3, 10)
    etas = np.logspace(-6, 2, 10)
    worst = 0.0
    for e in energies:
        for h in etas:
            p = SpectralPoint(float(e), float(h))
            worst = max(worst, fixed_point_residual(mp_stieltjes(p), p))
    assert worst < 1e-12


def test_fixed_point_residual_of_wrong_value():
    p = SpectralPoint(2.0, 0.1)
    # delta = -1 makes theta*(delta+1) vanish, residual |1/delta| = 1
    assert fixed_point_residual(-1.0 + 0j, p) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        fixed_point_residual(0j, p)


def test_delta_bounds_hold_on_grid():
    for e in (0.05, 0.5, 1.0, 2.0, 3.5, 3.95):
        for h in (1e-4, 1e-2, 0.5):
            report = check_delta_bounds(SpectralPoint(e, h))
            assert report.all_ok, (e, h, report)
            assert report.modulus_margin >= 0.0
            assert report.shifted_margin >= 0.0


def test_delta_bounds_gating():
    inside = check_delta_bounds(SpectralPoint(2.0, 0.1))
    assert inside.inside_circle
    assert inside.im_margin is not None and inside.im_margin >= 0.0
    # hard-edge corner: the shifted bound's E/(E^2+eta^2) branch is the active floor
    near_zero = check_delta_bounds(SpectralPoint(0.01, 0.001))
    assert near_zero.shifted_ok
    # E^2 + eta^2 > 4E puts the point outside the imaginary-part regime
    outside = check_delta_bounds(SpectralPoint(4.5, 0.1))
    assert not outside.inside_circle
    assert outside.im_margin is None and outside.im_ok is None
    assert outside.all_ok
    with pytest.raises(ValueError):
        check_delta_bounds(SpectralPoint(-1.0, 0.3))


def test_delta_bounds_constant_is_sharp_enough_to_fail(monkeypatch):
    # the lower bound cannot hold with an arbitrarily large constant
    monkeypatch.setattr(mp, "IM_BOUND_CONSTANT", 10.0)
    report = check_delta_bounds(SpectralPoint(2.0, 0.1))
    assert report.im_ok is False
    assert not report.all_ok


def test_spectral_point_validation():
    with pytest.raises(ValueError):
        SpectralPoint(1.0, 0.0)
    with pytest.raises(ValueError):
        SpectralPoint(1.0, -0.1)
    with pytest.raises(ValueError):
        SpectralPoint(math.inf, 0.1)
    with pytest.raises(ValueError):
        Window(-0.5, 0.1)
    with pytest.raises(ValueError):
        Window(1.0, 0.0)


def test_point_scale():
    assert SpectralPoint(4.0, 0.5).scale(100) == pytest.approx(25.0)
    assert Window(1.0, 0.1).point.theta == complex(1.0, 0.1)
    assert Window(1.0, 0.5).right == pytest.approx(1.5)


def test_density_quadrature_weighted():
    assert abs(density_quadrature(lambda e: e) - 1.0) < 1e-9
