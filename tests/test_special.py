import math
import re

import mpmath as mp
import numpy as np
import pytest

import multivalley as mv
from multivalley import special
from multivalley.constants import EULER_GAMMA, HBAR
from multivalley.errors import QuadratureError, RegimeError
from multivalley.oracles import b_param, psi
from multivalley.quadrature import DEFAULT_QUADRATURE, _shape_b12
from multivalley.special import (
    acoustic_kernel,
    bessel_k0,
    bessel_k0e,
    bessel_k1,
    bessel_k1e,
    bessel_k2,
    bessel_k2e,
    coulomb_log,
    psi_infinity,
    shape_b1,
    shape_b2,
)

mp.mp.dps = 30


def material_with_ratio(ratio, r_D=3e-5):
    return mv.Material.from_units(
        m_perp_me=0.1, m_par_me=0.1 * ratio, eps0=16.0, n_a=1e16,
        tau_perp0=1e-12, tau_par0=1e-12, r_D=r_D,
    )


class TestBParam:
    def test_unscreened_ratio_two(self):
        p = b_param(math.inf, 3e-5, 1.0, 2.0)
        assert p.b == pytest.approx(1.0, rel=1e-15, abs=0)
        assert p.b0 == p.b

    def test_unscreened_ratio_five(self):
        p = b_param(math.inf, 3e-5, 1.0, 5.0)
        assert p.b == pytest.approx(0.5, rel=1e-15, abs=0)

    def test_screened_unit_product(self):
        # q* r_D = 1 with b0 = 1 gives b = sqrt(2)
        p = b_param(1.0 / 3e-5, 3e-5, 1.0, 2.0)
        assert p.b == pytest.approx(math.sqrt(2.0), rel=1e-14, abs=0)

    def test_invariant_b_ge_b0(self):
        for q_rd in (0.1, 1.0, 10.0, 1e6):
            p = b_param(q_rd / 3e-5, 3e-5, 1.0, 3.0)
            assert p.b >= p.b0 > 0.0


class TestShapeFactors:
    def test_b1_at_one(self):
        # (1 - b^2) kills the arctan term
        assert shape_b1(1.0) == pytest.approx(1.0, rel=1e-15, abs=0)

    def test_b2_at_one(self):
        assert shape_b2(1.0) == pytest.approx(math.pi / 4.0 - 0.5, rel=1e-15, abs=0)

    # frozen arbitrary-precision evaluations of the defining formulas
    @pytest.mark.parametrize(
        "b,expected_b1,expected_b2",
        [
            (0.1, 1556.4163975606972, 13.721177733136356),
            (0.5, 10.642892306764543, 1.414297435588181),
            (2.0, 0.076132146624697706, 0.031823804500403058),
            (10.0, 1.3280340337495929e-4, 6.5875150106301748e-5),
        ],
    )
    def test_reference_values(self, b, expected_b1, expected_b2):
        assert shape_b1(b) == pytest.approx(expected_b1, rel=1e-12, abs=0)
        assert shape_b2(b) == pytest.approx(expected_b2, rel=1e-12, abs=0)

    def test_positive_on_grid(self):
        for b in np.geomspace(1e-3, 1e3, 120):
            assert shape_b1(float(b)) > 0.0
            assert shape_b2(float(b)) > 0.0

    def test_monotone_decreasing_above_one(self):
        grid = np.geomspace(1.0, 1e3, 80)
        b1 = [shape_b1(float(b)) for b in grid]
        b2 = [shape_b2(float(b)) for b in grid]
        assert all(x > y for x, y in zip(b1, b1[1:]))
        assert all(x > y for x, y in zip(b2, b2[1:]))

    def test_large_b_tail(self):
        # both decay like 1/b^4: 4/3 and 2/3 coefficients
        b = 5e2
        assert shape_b1(b) == pytest.approx(4.0 / (3.0 * b**4), rel=1e-4, abs=0)
        assert shape_b2(b) == pytest.approx(2.0 / (3.0 * b**4), rel=1e-4, abs=0)

    @pytest.mark.parametrize("shape", [shape_b1, shape_b2])
    @pytest.mark.parametrize("b", [0.0, -1.0])
    def test_non_positive_b_rejected(self, shape, b):
        with pytest.raises(ValueError, match="b must be positive"):
            shape(b)

    def test_array_kernel_matches_scalar(self):
        # The grid crosses the b = 8 switch to the tail series.  Below it the
        # direct formulas cancel to O(b^-4) from O(b^-2) terms, so a one-ulp
        # difference between numpy's and libm's arctan2 grows by up to ~b^2
        # there; the two kernels must agree to 1e-15 of the terms they sum.
        grid = np.geomspace(1e-2, 1e3, 401)
        b1, b2 = _shape_b12(grid)
        assert (grid > 8.0).any() and (grid < 8.0).any()
        for b, array_b1, array_b2 in zip(grid.tolist(), b1.tolist(), b2.tolist()):
            scalar_b1, scalar_b2 = shape_b1(b), shape_b2(b)
            if b > 8.0:
                scale_b1, scale_b2 = scalar_b1, scalar_b2
            else:
                at = math.atan2(1.0, b)
                scale_b1 = 1.0 / b**2 + abs(1.0 - b * b) / b**3 * at
                scale_b2 = 1.0 / (1.0 + b * b) + at / b
            assert abs(array_b1 - scalar_b1) <= 1e-15 * scale_b1
            assert abs(array_b2 - scalar_b2) <= 1e-15 * scale_b2


class TestPsi:
    def test_transverse_endpoint(self):
        mat = material_with_ratio(2.0)
        assert psi(math.inf, 0.0, mat) == pytest.approx(
            shape_b1(1.0), rel=1e-15, abs=0
        )

    def test_longitudinal_endpoint(self):
        mat = material_with_ratio(2.0)
        assert psi(math.inf, 1.0, mat) == pytest.approx(
            2.0 * 0.5 * shape_b2(1.0), rel=1e-15, abs=0
        )

    def test_midpoint_value(self):
        # b = 1, m_par = 2 m_perp: affine midpoint of 1 and pi/4 - 1/2
        mat = material_with_ratio(2.0)
        assert psi(math.inf, 0.5, mat) == pytest.approx(0.6426991, abs=1e-7)

    def test_affine_in_cos2(self):
        mat = material_with_ratio(4.3)
        q = 2.0e5
        p0 = psi(q, 0.0, mat)
        p1 = psi(q, 1.0, mat)
        for c in (0.2, 0.35, 0.8):
            assert psi(q, c, mat) == pytest.approx(
                (1.0 - c) * p0 + c * p1, rel=1e-14, abs=0
            )

    def test_psi_infinity_consistent_with_large_q(self):
        mat = material_with_ratio(19.4)
        perp, par = psi_infinity(mat)
        for c in (0.0, 0.3, 1.0):
            assert (1.0 - c) * perp + c * par == pytest.approx(
                psi(1e30, c, mat), rel=1e-12, abs=0
            )

    def test_psi_infinity_endpoints(self):
        mat = material_with_ratio(2.0)
        perp, par = psi_infinity(mat)
        assert perp == pytest.approx(1.0, rel=1e-15, abs=0)
        assert par == pytest.approx(math.pi / 4.0 - 0.5, rel=1e-14, abs=0)

    def test_positive(self):
        mat = material_with_ratio(12.0)
        for c in np.linspace(0.0, 1.0, 7):
            assert psi(5e4, float(c), mat) > 0.0


class TestCoulombLog:
    def test_guard_triggers(self):
        with pytest.raises(RegimeError):
            coulomb_log(math.exp(-EULER_GAMMA))  # ~0.5615, out of range

    @pytest.mark.parametrize("x", [0.0, -1e-4])
    def test_non_positive_x_min_rejected(self, x):
        with pytest.raises(ValueError, match="x_min must be positive"):
            coulomb_log(x)

    def test_reference_value(self):
        assert coulomb_log(1e-4) == pytest.approx(8.6331247070746499, rel=1e-14, abs=0)

    def test_halving_adds_log_two(self):
        x = 3.1e-3
        assert coulomb_log(x / 2.0) - coulomb_log(x) == pytest.approx(
            math.log(2.0), rel=1e-12, abs=0
        )

    def test_exact_complement(self):
        # as implemented, coulomb_log(x) + ln(x) is exactly -gamma
        for x in (1e-6, 1e-4, 1e-2, 0.09):
            assert coulomb_log(x) + math.log(x) == pytest.approx(
                -EULER_GAMMA, abs=1e-15
            )


class TestBesselK:
    def test_small_argument_asymptote(self):
        x = 1e-4
        assert bessel_k1(x) == pytest.approx(1.0 / x, rel=1e-4)

    def test_large_argument_asymptote(self):
        x = 50.0
        leading = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
        assert bessel_k1(x) == pytest.approx(leading, rel=1e-2, abs=0)

    @pytest.mark.parametrize(
        "x,expected",
        [
            (0.5, 1.6564411200033009),
            (1.0, 0.60190723019723457),
            (2.0, 0.13986588181652243),
            (5.0, 0.0040446134454521642),
        ],
    )
    def test_reference_values(self, x, expected):
        assert bessel_k1(x) == pytest.approx(expected, rel=1e-12, abs=0)

    def test_accuracy_contract_against_mpmath(self):
        for x in np.geomspace(1e-6, 700.0, 80):
            x = float(x)
            for order, fn in ((0, bessel_k0), (1, bessel_k1), (2, bessel_k2)):
                ref = float(mp.besselk(order, mp.mpf(x)))
                assert fn(x) == pytest.approx(ref, rel=1e-12, abs=0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bessel_k1(0.0)
        with pytest.raises(ValueError):
            bessel_k1(-1.0)
        with pytest.raises(ValueError):
            bessel_k1(800.0)

    def test_scaled_beyond_amos_range(self):
        # a > 1e9 (acoustic sweeps above ~1e21 rad/s at 4.2 K), where scipy's kve returns nan
        for x in (5e8, 2e9, 1e12, 1e16):
            for order, fn in ((0, bessel_k0e), (1, bessel_k1e), (2, bessel_k2e)):
                ref = float(mp.besselk(order, mp.mpf(x)) * mp.exp(mp.mpf(x)))
                assert fn(x) == pytest.approx(ref, rel=1e-14, abs=0)

    def test_scaled_variant(self):
        # scaled form keeps working far beyond the unscaled domain
        x = 1.0e4
        assert bessel_k1e(x) == pytest.approx(
            math.sqrt(math.pi / (2.0 * x)), rel=1e-3
        )


def mp_kernel(a: float):
    """e^a a^2 K2(a) in arbitrary precision; its a -> 0 limit is 2."""
    if a == 0.0:
        return mp.mpf(2)
    return mp.mpf(a) ** 2 * mp.exp(a) * mp.besselk(2, mp.mpf(a))


class TestAcousticKernel:
    # The kernel of the acoustic rate core, e^a a^2 K2(a); e^-a times it is
    # -a^3 d/da [K1(a)/a] = a^2 K2(a).

    def test_small_argument_limit(self):
        a = 1e-4
        assert acoustic_kernel(a) * math.exp(-a) == pytest.approx(2.0, rel=1e-4)

    def test_reference_value(self):
        assert acoustic_kernel(1.0) * math.exp(-1.0) == pytest.approx(
            1.6248388986351775, rel=1e-12)

    def test_positive_everywhere(self):
        for a in np.geomspace(1e-12, 1e6, 25):
            assert acoustic_kernel(float(a)) > 0.0

    def test_matches_central_difference(self):
        # independent route: numerically differentiate K1(a)/a
        for a in np.geomspace(0.01, 20.0, 30):
            a = float(a)
            h = a * 1e-5
            ratio = lambda t: bessel_k1(t) / t
            derivative = (ratio(a + h) - ratio(a - h)) / (2.0 * h)
            assert -acoustic_kernel(a) * math.exp(-a) == pytest.approx(
                a**3 * derivative, rel=1e-6, abs=0
            )

    def test_scaled_vanishing_argument_limit(self):
        # a*a underflows and K2(a) overflows here, or a is 0: the limit
        # 2 + 2a + O(a^2) has neither problem.  4e-66 is omega = 1e-50 rad/s
        # at 1e4 K, the corner of the documented domain.
        corner = HBAR * 1e-50 / (2.0 * mv.theta_from_kelvin(1e4))
        assert 3e-66 < corner < 5e-66
        for a in (0.0, 1e-300, 1e-120, 1e-100, corner):
            assert acoustic_kernel(a) == pytest.approx(float(mp_kernel(a)), rel=2e-15, abs=0)

    def test_scaled_against_mpmath(self):
        # the kernel the acoustic rate core uses, far beyond the unscaled
        # domain: a > 700 is reached by cold acoustic sweeps
        grid = np.geomspace(1e-12, 1e12, 241)
        assert (grid > 700.0).any()
        for a in grid:
            a = float(a)
            assert acoustic_kernel(a) == pytest.approx(float(mp_kernel(a)), rel=2e-15, abs=0)

    @pytest.mark.parametrize("edge", [1e-8, 4.0, 1e9])
    def test_both_sides_of_each_rule_change(self, edge):
        # the limit 2 + 2a, the t table, the v table and Hankel's form
        below, above = math.nextafter(edge, 0.0), math.nextafter(edge, math.inf)
        for a in (edge * (1.0 - 1e-6), below, edge, above, edge * (1.0 + 1e-6)):
            assert acoustic_kernel(a) == pytest.approx(float(mp_kernel(a)), rel=2e-15, abs=0)

    @pytest.mark.parametrize("a", [3e205, 1e300, math.inf])
    def test_beyond_double_range_is_inf(self, a):
        # s = 2a above ~5e205: inf, which the sweep reports naming its
        # column, and no floating-point exception here
        assert acoustic_kernel(a) == math.inf
        assert math.isfinite(acoustic_kernel(2e205))

    def test_error_estimate_far_below_the_gate(self, monkeypatch):
        # a negative gate turns every estimate of the trapezoid rule into an
        # error that carries it; the half-step rule stays within 1e-10 of
        # the value, a hundredth of the gate at the spectral core's tolerance
        assert special._KERNEL_TOL == DEFAULT_QUADRATURE.rel_tol
        monkeypatch.setattr(special, "_KERNEL_TOL", -1.0)
        estimates = []
        for a in np.geomspace(1e-8, 1e9, 241).tolist():
            acoustic_kernel.cache_clear()
            with pytest.raises(QuadratureError, match=re.escape(f"at s = {2.0 * a:.6e}")) as info:
                acoustic_kernel(a)
            estimates.append(info.value.estimate)
        acoustic_kernel.cache_clear()
        assert 0.0 < max(estimates) < 0.01 * 10.0 * DEFAULT_QUADRATURE.rel_tol
        assert min(estimates) >= 0.0

    def test_coarse_table_misses_the_gate(self, monkeypatch):
        # every eighth t node, a step of 1.2: the half-step rule is far off
        monkeypatch.setattr(special, "_T_NODES", special._T_NODES[::8])
        monkeypatch.setattr(special, "_T_STEP", 8 * special._T_STEP)
        acoustic_kernel.cache_clear()
        with pytest.raises(QuadratureError, match=re.escape("10 x rel_tol = 1.0e-09 at s = 2.0")):
            acoustic_kernel(1.0)
        acoustic_kernel.cache_clear()

    def test_scaled_consistency(self):
        for a in (0.3, 2.0, 15.0):
            assert acoustic_kernel(a) * math.exp(-a) == pytest.approx(
                a * a * bessel_k2(a), rel=1e-13, abs=0
            )
