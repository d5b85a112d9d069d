import math

import numpy as np
import pytest

import multivalley as mv
from multivalley import oracles
from multivalley.constants import HBAR
from multivalley.impurity import p_plus


def omega_for_s(s, theta):
    return s * theta / HBAR


class TestAngularIntegral:
    def test_near_isotropic_denominator_reduction(self):
        # with a vanishing mass contrast in the denominator and no
        # longitudinal amplitude, the integral reduces to the plain
        # second moment (4 pi/3) A_perp^2 q*^2 / (q*^2 + r_D^-2)^2
        mat = mv.Material.from_units(
            m_perp_me=0.1, m_par_me=0.1 * (1.0 + 1e-6), eps0=16.0, n_a=1e16,
            tau_perp0=1e-12, tau_par0=1e-12, r_D=3e-5,
        )
        q_star, a_perp = 2.0e5, 1.3
        numeric = oracles.angular_integral_numeric(q_star, mat.r_D, mat, a_perp, 0.0)
        reduced = (
            4.0 * math.pi / 3.0 * a_perp**2 * q_star**2
            / (q_star**2 + mat.r_D**-2) ** 2
        )
        assert numeric == pytest.approx(reduced, rel=1e-4, abs=0)

    def test_matches_closed_form_on_random_draws(self):
        rng = np.random.default_rng(42)
        for _ in range(8):
            ratio = float(rng.uniform(1.5, 20.0))
            m_perp = float(rng.uniform(0.05, 0.5))
            mat = mv.Material.from_units(
                m_perp_me=m_perp, m_par_me=m_perp * ratio, eps0=16.0, n_a=1e16,
                tau_perp0=1e-12, tau_par0=1e-12, r_D=float(rng.uniform(1e-6, 1e-4)),
            )
            q_star = float(10 ** rng.uniform(3.5, 6.5))
            a_perp = float(rng.uniform(0.1, 3.0))
            a_par = float(rng.uniform(0.1, 3.0))
            numeric = oracles.angular_integral_numeric(q_star, mat.r_D, mat, a_perp, a_par)
            closed = oracles.angular_integral_closed(q_star, mat.r_D, mat, a_perp, a_par)
            assert numeric == pytest.approx(closed, rel=1e-8, abs=0)

    def test_quadratic_in_amplitudes(self, ge_material):
        q_star = 1.0e5
        base = oracles.angular_integral_numeric(
            q_star, ge_material.r_D, ge_material, 0.8, 1.1
        )
        scaled = oracles.angular_integral_numeric(
            q_star, ge_material.r_D, ge_material, 1.6, 2.2
        )
        assert scaled == pytest.approx(4.0 * base, rel=1e-10, abs=0)


class TestDoubleIntegral:
    def test_zero_width_window_is_zero(self, ge_material, valley_z, pol_skew):
        omega = omega_for_s(1.0, valley_z.theta)
        assert (
            oracles.momentum_window_integral(
                0.0, valley_z, ge_material, omega, pol_skew
            )
            == 0.0
        )

    def test_monotone_in_frequency_through_window(
        self, ge_material, valley_z, pol_skew
    ):
        # at fixed x the window keeps its width 2 kappa sqrt(x) but slides to
        # larger momentum transfer as omega grows, where q y(q) decays:
        # spot-check two frequencies
        w1 = omega_for_s(0.5, valley_z.theta)
        w2 = omega_for_s(1.5, valley_z.theta)
        x = 1.0
        f1 = oracles.momentum_window_integral(x, valley_z, ge_material, w1, pol_skew)
        f2 = oracles.momentum_window_integral(x, valley_z, ge_material, w2, pol_skew)
        assert f1 > f2 > 0.0

    def test_integration_by_parts_identity(self, ge_material, valley_z, pol_skew):
        rng = np.random.default_rng(5)
        for _ in range(3):
            s = float(rng.uniform(0.1, 3.0))
            omega = omega_for_s(s, valley_z.theta)
            double = oracles.double_integral_direct(valley_z, ge_material, omega, pol_skew)
            boundary = oracles.boundary_term_integral(
                valley_z, ge_material, omega, pol_skew
            )
            assert double == pytest.approx(boundary, rel=1e-6, abs=0)


class TestPMinusDirect:
    def test_zero_shift_limit(self, ge_material, valley_z, pol_skew):
        # s -> 0: the emission integral equals minus the absorption one
        omega = omega_for_s(1e-7, valley_z.theta)
        direct = oracles.p_minus_direct(valley_z, ge_material, omega, pol_skew, 1.0)
        plus = p_plus(valley_z, ge_material, omega, pol_skew, 1.0)
        assert direct == pytest.approx(-plus, rel=1e-6)

    def test_unit_shift_ratio(self, ge_material, valley_z, pol_skew):
        omega = omega_for_s(1.0, valley_z.theta)
        direct = oracles.p_minus_direct(valley_z, ge_material, omega, pol_skew, 1.0)
        plus = p_plus(valley_z, ge_material, omega, pol_skew, 1.0)
        assert direct / plus == pytest.approx(-math.exp(-1.0), rel=1e-8)

    def test_random_draws(self, ge_material, pol_skew):
        rng = np.random.default_rng(99)
        for _ in range(4):
            theta = mv.theta_from_kelvin(float(rng.uniform(80.0, 600.0)))
            valley = mv.Valley(axis=(0.0, 0.0, 1.0), n=1e16, theta=theta)
            s = float(rng.uniform(0.05, 4.0))
            omega = omega_for_s(s, theta)
            direct = oracles.p_minus_direct(valley, ge_material, omega, pol_skew, 1.0)
            plus = p_plus(valley, ge_material, omega, pol_skew, 1.0)
            assert direct / plus == pytest.approx(-math.exp(-s), rel=1e-8)
