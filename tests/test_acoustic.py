import dataclasses
import math

import numpy as np
import pytest

import multivalley as mv
from multivalley.errors import RegimeError


def omega_for_a(a, theta):
    return 2.0 * a * theta / mv.HBAR


class TestTauAcoustic:
    def test_unit_ratio(self):
        assert mv.tau_acoustic(2.0e-14, 2.0e-14, 1.3e-12) == 1.3e-12

    def test_inverse_square_root(self):
        theta = 4.0e-14
        assert mv.tau_acoustic(4.0 * theta, theta, 1e-12) == pytest.approx(
            mv.tau_acoustic(theta, theta, 1e-12) / 2.0, rel=1e-14
        )

    def test_normalization_at_own_temperature(self):
        # tau evaluated at eps = theta_i is the bare prefactor
        for tau0 in (3e-13, 1e-12):
            theta = 5.2e-14
            assert mv.tau_acoustic(theta, theta, tau0) == tau0

    def test_domain(self):
        with pytest.raises(ValueError):
            mv.tau_acoustic(0.0, 1e-14, 1e-12)


class TestAbsorptionAcoustic:
    def test_general_to_classical_limit(self, ge_material, single_valley, pol_skew):
        theta = single_valley.valleys[0].theta
        omega = omega_for_a(1e-2, theta)
        kg = mv.absorption_acoustic(single_valley, ge_material, omega, pol_skew, "general")
        kc = mv.absorption_acoustic(single_valley, ge_material, omega, pol_skew, "classical")
        assert abs(kg / kc - 1.0) < 0.01

    def test_general_to_classical_second_order(self, ge_material, single_valley, pol_skew):
        # with the scaled kernel the first-order e^{-a} error is gone: the
        # forms differ by O(a^2) at a = 1e-2
        theta = single_valley.valleys[0].theta
        omega = omega_for_a(1e-2, theta)
        kg = mv.absorption_acoustic(single_valley, ge_material, omega, pol_skew, "general")
        kc = mv.absorption_acoustic(single_valley, ge_material, omega, pol_skew, "classical")
        assert abs(kg / kc - 1.0) < 1e-4

    def test_general_to_quantum_limit(self, ge_material, single_valley, pol_skew):
        theta = single_valley.valleys[0].theta
        omega = omega_for_a(20.0, theta)
        kg = mv.absorption_acoustic(single_valley, ge_material, omega, pol_skew, "general")
        kq = mv.absorption_acoustic(single_valley, ge_material, omega, pol_skew, "quantum")
        assert abs(kg / kq - 1.0) < 0.03

    def test_si6_polarization_isotropy(self, ge_material, theta_300):
        vs = mv.load_preset("Si6").with_population(1e15, theta_300)
        omega = omega_for_a(0.7, theta_300)
        rng = np.random.default_rng(31)
        values = [
            mv.absorption_acoustic(
                vs, ge_material, omega,
                mv.Polarization.from_vector(rng.normal(size=3)), "general",
            )
            for _ in range(5)
        ]
        spread = (max(values) - min(values)) / values[0]
        assert spread < 1e-12

    def test_positive_across_frequencies(self, ge_material, single_valley, pol_skew):
        theta = single_valley.valleys[0].theta
        for a in (1e-3, 0.1, 1.0, 5.0, 30.0):
            k = mv.absorption_acoustic(
                single_valley, ge_material, omega_for_a(a, theta), pol_skew, "general"
            )
            assert k > 0.0

    def test_classical_inverse_square_law(self, ge_material, single_valley, pol_skew):
        theta = single_valley.valleys[0].theta
        w1 = omega_for_a(1e-3, theta)
        w2 = omega_for_a(1e-2, theta)
        k1 = mv.absorption_acoustic(single_valley, ge_material, w1, pol_skew, "classical")
        k2 = mv.absorption_acoustic(single_valley, ge_material, w2, pol_skew, "classical")
        slope = math.log(k2 / k1) / math.log(w2 / w1)
        assert slope == pytest.approx(-2.0, abs=1e-6)

    def test_guards(self, ge_material, single_valley, pol_skew):
        theta = single_valley.valleys[0].theta
        with pytest.raises(RegimeError, match="classical"):
            mv.absorption_acoustic(
                single_valley, ge_material, omega_for_a(1.0, theta), pol_skew,
                "classical",
            )
        with pytest.raises(RegimeError, match="quantum"):
            mv.absorption_acoustic(
                single_valley, ge_material, omega_for_a(1.0, theta), pol_skew,
                "quantum",
            )

    def test_classical_coefficient_ratio_to_impurity(
        self, ge_material, single_valley, pol_skew, theta_300
    ):
        # identical tensor components in both classical forms leave only the
        # numeric coefficients: (3 pi^{3/2}/2) / (32 sqrt(pi)/3) = 9 pi / 64
        tau = mv.relaxation_impurity(ge_material, theta_300)
        mat = dataclasses.replace(
            ge_material, tau_perp0=tau.tau_perp, tau_par0=tau.tau_par
        )
        omega = omega_for_a(0.01, theta_300)
        k_imp = mv.absorption_impurity(single_valley, mat, omega, pol_skew, "classical")
        k_ac = mv.absorption_acoustic(single_valley, mat, omega, pol_skew, "classical")
        assert k_imp / k_ac == pytest.approx(9.0 * math.pi / 64.0, rel=1e-12)


class TestMobilityAcoustic:
    def test_coefficient_ratio_to_impurity(self, ge_material, theta_300):
        # (4/(3 sqrt(pi))) / (8/sqrt(pi)) = 1/6 at equal tau
        tau = mv.relaxation_impurity(ge_material, theta_300)
        mat = dataclasses.replace(
            ge_material, tau_perp0=tau.tau_perp, tau_par0=tau.tau_par
        )
        mu_imp = mv.mobility_impurity(mat, theta_300)
        mu_ac = mv.mobility_acoustic(mat, theta_300)
        assert mu_ac[0] / mu_imp[0] == pytest.approx(1.0 / 6.0, rel=1e-13)
        assert mu_ac[1] / mu_imp[1] == pytest.approx(1.0 / 6.0, rel=1e-13)

    def test_linear_in_tau(self, ge_material, theta_300):
        mu = mv.mobility_acoustic(ge_material, theta_300)
        doubled = dataclasses.replace(
            ge_material,
            tau_perp0=2.0 * ge_material.tau_perp0,
            tau_par0=2.0 * ge_material.tau_par0,
        )
        mu2 = mv.mobility_acoustic(doubled, theta_300)
        assert mu2[0] == pytest.approx(2.0 * mu[0], rel=1e-14)
        assert mu2[1] == pytest.approx(2.0 * mu[1], rel=1e-14)

    def test_finite_positive(self, ge_material, theta_300):
        mu_perp, mu_par = mv.mobility_acoustic(ge_material, theta_300)
        assert 0.0 < mu_perp < math.inf
        assert 0.0 < mu_par < math.inf
