import dataclasses
import math

import numpy as np
import pytest

import multivalley as mv
from multivalley.errors import RegimeError
from multivalley.impurity import combine_endpoints, spectral_endpoints
from multivalley.special import coulomb_log, psi_infinity


def omega_for_s(s, theta):
    return s * theta / mv.HBAR


class TestXMin:
    def test_inverse_square_in_radius(self, ge_material, theta_300):
        doubled = dataclasses.replace(ge_material, r_D=2.0 * ge_material.r_D)
        assert mv.x_min(doubled, theta_300) == pytest.approx(
            mv.x_min(ge_material, theta_300) / 4.0, rel=1e-14
        )

    def test_inverse_linear_in_theta(self, ge_material, theta_300):
        assert mv.x_min(ge_material, 2.0 * theta_300) == pytest.approx(
            mv.x_min(ge_material, theta_300) / 2.0, rel=1e-14
        )

    def test_reference_value_with_derived_screening(self, theta_300):
        # r_D from n = 1e16 at 300 K, eps0 = 16; frozen arbitrary-precision value
        mat = mv.Material.from_units(
            m_perp_me=0.082, m_par_me=1.59, eps0=16.0, n_a=1e16,
            tau_perp0=1e-12, tau_par0=1e-12,
        ).with_debye_radius(theta_300, 1e16)
        value = mv.x_min(mat, theta_300)
        assert value == pytest.approx(1.9656328560033583e-3, rel=1e-12)
        assert value < 0.1  # the guard this quantity exists for


class TestPPlus:
    def test_empty_valley_gives_zero(self, ge_material, theta_300, pol_skew):
        v = mv.Valley(axis=(0.0, 0.0, 1.0), n=0.0, theta=theta_300)
        assert mv.p_plus(v, ge_material, 1e13, pol_skew, 1.0) == 0.0

    def test_linear_in_concentrations(self, ge_material, valley_z, pol_skew):
        omega = omega_for_s(1.0, valley_z.theta)
        base = mv.p_plus(valley_z, ge_material, omega, pol_skew, 1.0)
        doubled_ni = dataclasses.replace(valley_z, n=2.0 * valley_z.n)
        assert mv.p_plus(doubled_ni, ge_material, omega, pol_skew, 1.0) == pytest.approx(
            2.0 * base, rel=1e-12
        )
        doubled_na = dataclasses.replace(ge_material, n_a=2.0 * ge_material.n_a)
        assert mv.p_plus(valley_z, doubled_na, omega, pol_skew, 1.0) == pytest.approx(
            2.0 * base, rel=1e-12
        )

    def test_positive(self, ge_material, valley_z, pol_skew):
        for s in (0.01, 1.0, 30.0):
            omega = omega_for_s(s, valley_z.theta)
            assert mv.p_plus(valley_z, ge_material, omega, pol_skew, 1.0) > 0.0

    def test_matches_pre_reduction_double_integral(
        self, ge_material, valley_z, pol_skew
    ):
        from multivalley import oracles

        omega = omega_for_s(0.7, valley_z.theta)
        direct = oracles.collision_prefactor(
            valley_z, ge_material, omega
        ) * oracles.double_integral_direct(valley_z, ge_material, omega, pol_skew)
        assert mv.p_plus(valley_z, ge_material, omega, pol_skew, 1.0) == pytest.approx(
            direct, rel=1e-6
        )


class TestPMinus:
    def test_shift_ratio(self, ge_material, valley_z, pol_skew):
        omega = omega_for_s(1.0, valley_z.theta)
        ratio = mv.p_minus(valley_z, ge_material, omega, pol_skew, 1.0) / mv.p_plus(
            valley_z, ge_material, omega, pol_skew, 1.0
        )
        assert ratio == pytest.approx(-math.exp(-1.0), rel=1e-14)

    def test_structural_detailed_balance(self, ge_material, valley_z, pol_skew):
        for s in (0.2, 2.0, 8.0):
            omega = omega_for_s(s, valley_z.theta)
            ratio = mv.p_minus(valley_z, ge_material, omega, pol_skew, 1.0) / mv.p_plus(
                valley_z, ge_material, omega, pol_skew, 1.0
            )
            assert ratio == pytest.approx(-math.exp(-s), rel=1e-9)

    def test_vanishes_at_large_s(self, ge_material, valley_z, pol_skew):
        omega = omega_for_s(60.0, valley_z.theta)
        plus = mv.p_plus(valley_z, ge_material, omega, pol_skew, 1.0)
        minus = mv.p_minus(valley_z, ge_material, omega, pol_skew, 1.0)
        assert abs(minus) < 1e-20 * plus

    def test_matches_direct_emission_integral(self, ge_material, valley_z, pol_skew):
        from multivalley import oracles

        omega = omega_for_s(1.3, valley_z.theta)
        direct = oracles.p_minus_direct(valley_z, ge_material, omega, pol_skew, 1.0)
        assert mv.p_minus(valley_z, ge_material, omega, pol_skew, 1.0) == pytest.approx(
            direct, rel=1e-8
        )


class TestAbsorptionGeneral:
    def test_positive_and_additive_over_valleys(self, ge_material, theta_300, pol_skew):
        vs = mv.load_preset("Ge4").with_population(1e16, theta_300)
        omega = omega_for_s(1.0, theta_300)
        joint = mv.absorption_impurity(vs, ge_material, omega, pol_skew, "general")
        assert joint > 0.0
        per_valley = sum(
            mv.absorption_impurity(
                mv.ValleySet((v,)), ge_material, omega, pol_skew, "general"
            )
            for v in vs
        )
        assert joint == pytest.approx(per_valley, rel=1e-12)

    def test_ge4_polarization_isotropy(self, ge_material, theta_300):
        vs = mv.load_preset("Ge4").with_population(1e16, theta_300)
        omega = omega_for_s(1.0, theta_300)
        k_z = mv.absorption_impurity(
            vs, ge_material, omega, mv.Polarization.from_vector([0, 0, 1]), "general"
        )
        k_diag = mv.absorption_impurity(
            vs, ge_material, omega, mv.Polarization.from_vector([1, 1, 1]), "general"
        )
        assert k_diag == pytest.approx(k_z, rel=1e-12)

    def test_flux_normalization_against_p_plus(self, ge_material, valley_z, pol_skew):
        # K == sum_i (1 - e^-s) p_plus / incident flux, any amplitude
        s = 0.8
        omega = omega_for_s(s, valley_z.theta)
        a0 = 3.7
        k_direct = (
            -math.expm1(-s)
            * mv.p_plus(valley_z, ge_material, omega, pol_skew, a0)
            / mv.incident_flux(omega, a0, ge_material.eps0)
        )
        k = mv.absorption_impurity(
            mv.ValleySet((valley_z,)), ge_material, omega, pol_skew, "general"
        )
        assert k == pytest.approx(k_direct, rel=1e-12)


class TestAbsorptionClassical:
    def test_inverse_square_frequency_law(self, ge_material, single_valley, pol_skew):
        theta = single_valley.valleys[0].theta
        omega = omega_for_s(0.01, theta)
        k1 = mv.absorption_impurity(
            single_valley, ge_material, omega, pol_skew, "classical"
        )
        k2 = mv.absorption_impurity(
            single_valley, ge_material, 2.0 * omega, pol_skew, "classical"
        )
        assert k2 == pytest.approx(k1 / 4.0, rel=1e-14)

    def test_equivalent_shape_function_form(self, ge_material, theta_300, pol_skew):
        # same closed form written with psi(inf) and the Coulomb log instead
        # of the relaxation tensor
        vs = mv.load_preset("Ge4").with_population(1e16, theta_300)
        omega = omega_for_s(0.02, theta_300)
        k = mv.absorption_impurity(vs, ge_material, omega, pol_skew, "classical")
        log_term = coulomb_log(mv.x_min(ge_material, theta_300))
        pref = (
            (2.0 * math.pi) ** 1.5
            * mv.E_CHARGE**6
            * ge_material.n_a
            * math.sqrt(ge_material.m_par)
            / (
                ge_material.eps0**2.5
                * mv.C_LIGHT
                * (ge_material.m_par - ge_material.m_perp) ** 2
                * omega**2
            )
        )
        alt = pref * sum(
            v.n
            / v.theta**1.5
            * psi_infinity(mv.cos_phi(v, pol_skew) ** 2, ge_material)
            * log_term
            for v in vs
        )
        assert k == pytest.approx(alt, rel=1e-12)

    def test_agrees_with_general_at_low_frequency(
        self, ge_material, single_valley, pol_skew
    ):
        theta = single_valley.valleys[0].theta
        omega = omega_for_s(1e-3, theta)
        kg = mv.absorption_impurity(single_valley, ge_material, omega, pol_skew, "general")
        kc = mv.absorption_impurity(
            single_valley, ge_material, omega, pol_skew, "classical"
        )
        assert abs(kg / kc - 1.0) < 0.15

    def test_guard_rejects_high_frequency(self, ge_material, single_valley, pol_skew):
        theta = single_valley.valleys[0].theta
        with pytest.raises(RegimeError, match="classical"):
            mv.absorption_impurity(
                single_valley, ge_material, omega_for_s(0.5, theta), pol_skew,
                "classical",
            )

    def test_guard_rejects_strong_screening(self, theta_300, pol_skew):
        mat = mv.Material.from_units(
            m_perp_me=0.082, m_par_me=1.59, eps0=16.0, n_a=1e16,
            tau_perp0=1e-12, tau_par0=1e-12, r_D=5e-8,
        )
        vs = mv.ValleySet((mv.Valley(axis=(0, 0, 1), n=1e16, theta=theta_300),))
        assert mv.x_min(mat, theta_300) >= 0.1
        with pytest.raises(RegimeError):
            mv.absorption_impurity(
                vs, mat, omega_for_s(0.01, theta_300), pol_skew, "classical"
            )


class TestAbsorptionQuantum:
    def test_loglog_slope(self, ge_material, single_valley, pol_skew):
        theta = single_valley.valleys[0].theta
        omegas = np.geomspace(omega_for_s(100.0, theta), omega_for_s(1000.0, theta), 7)
        ks = [
            mv.absorption_impurity(single_valley, ge_material, float(w), pol_skew, "quantum")
            for w in omegas
        ]
        slope = np.polyfit(np.log(omegas), np.log(ks), 1)[0]
        assert slope == pytest.approx(-3.5, abs=1e-3)

    def test_agrees_with_general_at_high_frequency(
        self, ge_material, single_valley, pol_skew
    ):
        theta = single_valley.valleys[0].theta
        omega = omega_for_s(100.0, theta)
        kg = mv.absorption_impurity(single_valley, ge_material, omega, pol_skew, "general")
        kq = mv.absorption_impurity(single_valley, ge_material, omega, pol_skew, "quantum")
        assert abs(kg / kq - 1.0) < 0.05

    def test_guard_rejects_low_frequency(self, ge_material, single_valley, pol_skew):
        theta = single_valley.valleys[0].theta
        with pytest.raises(RegimeError, match="quantum"):
            mv.absorption_impurity(
                single_valley, ge_material, omega_for_s(5.0, theta), pol_skew, "quantum"
            )

    def test_guard_rejects_weak_wave_screening(self, theta_300, pol_skew):
        mat = mv.Material.from_units(
            m_perp_me=0.082, m_par_me=1.59, eps0=16.0, n_a=1e16,
            tau_perp0=1e-12, tau_par0=1e-12, r_D=1e-7,
        )
        vs = mv.ValleySet((mv.Valley(axis=(0, 0, 1), n=1e16, theta=theta_300),))
        with pytest.raises(RegimeError, match="q_omega"):
            mv.absorption_impurity(
                vs, mat, omega_for_s(100.0, theta_300), pol_skew, "quantum"
            )


class TestPolarizationLaw:
    @pytest.mark.parametrize("regime,s", [("general", 1.0), ("classical", 0.02), ("quantum", 40.0)])
    def test_affine_in_cos2(self, ge_material, theta_300, regime, s):
        v = mv.Valley(axis=(0.0, 0.0, 1.0), n=1e16, theta=theta_300)
        vs = mv.ValleySet((v,))
        omega = omega_for_s(s, theta_300)

        def k_at(phi):
            pol = mv.Polarization.from_vector([math.sin(phi), 0.0, math.cos(phi)])
            return mv.absorption_impurity(vs, ge_material, omega, pol, regime)

        k_par, k_perp = k_at(0.0), k_at(math.pi / 2.0)
        b_coeff = k_par - k_perp
        phi = math.pi / 3.0
        predicted = k_perp + b_coeff * math.cos(phi) ** 2
        assert k_at(phi) == pytest.approx(predicted, rel=1e-10)


class TestRelaxationTensor:
    def test_rate_linear_in_impurity_density(self, ge_material, theta_300):
        tau = mv.relaxation_impurity(ge_material, theta_300)
        doubled = mv.relaxation_impurity(
            dataclasses.replace(ge_material, n_a=2.0 * ge_material.n_a), theta_300
        )
        assert doubled.tau_perp == pytest.approx(tau.tau_perp / 2.0, rel=1e-14)
        assert doubled.tau_par == pytest.approx(tau.tau_par / 2.0, rel=1e-14)

    def test_temperature_scaling(self, ge_material, theta_300):
        # tau ~ theta^{3/2} / L(x_min(theta)); two-point arithmetic check
        t1, t2 = theta_300, 2.0 * theta_300
        tau1 = mv.relaxation_impurity(ge_material, t1)
        tau2 = mv.relaxation_impurity(ge_material, t2)
        log1 = coulomb_log(mv.x_min(ge_material, t1))
        log2 = coulomb_log(mv.x_min(ge_material, t2))
        expected = (t2 / t1) ** 1.5 * log1 / log2
        assert tau2.tau_perp / tau1.tau_perp == pytest.approx(expected, rel=1e-13)
        assert tau2.tau_par / tau1.tau_par == pytest.approx(expected, rel=1e-13)

    def test_spectral_identity_against_classical_form(
        self, ge_material, single_valley, pol_skew, theta_300
    ):
        # the tensor route and the direct low-frequency reduction of the
        # general coefficient are one identity
        omega = omega_for_s(0.03, theta_300)
        k_tensor = mv.absorption_impurity(
            single_valley, ge_material, omega, pol_skew, "classical"
        )
        v = single_valley.valleys[0]
        log_term = coulomb_log(mv.x_min(ge_material, theta_300))
        k_psi = (
            (2.0 * math.pi) ** 1.5
            * mv.E_CHARGE**6
            * ge_material.n_a
            * math.sqrt(ge_material.m_par)
            * v.n
            * psi_infinity(mv.cos_phi(v, pol_skew) ** 2, ge_material)
            * log_term
            / (
                ge_material.eps0**2.5
                * mv.C_LIGHT
                * (ge_material.m_par - ge_material.m_perp) ** 2
                * omega**2
                * theta_300**1.5
            )
        )
        assert k_tensor == pytest.approx(k_psi, rel=1e-12)


class TestMobility:
    def test_component_ratio(self, ge_material, theta_300):
        tau = mv.relaxation_impurity(ge_material, theta_300)
        mu_perp, mu_par = mv.mobility_impurity(ge_material, theta_300)
        assert mu_perp / mu_par == pytest.approx(
            tau.tau_perp * ge_material.m_par / (tau.tau_par * ge_material.m_perp),
            rel=1e-14,
        )

    def test_linear_in_tau(self, ge_material, theta_300):
        # halving n_a doubles tau, and mobility follows
        mu_perp, mu_par = mv.mobility_impurity(ge_material, theta_300)
        half = dataclasses.replace(ge_material, n_a=ge_material.n_a / 2.0)
        mu_perp2, mu_par2 = mv.mobility_impurity(half, theta_300)
        assert mu_perp2 == pytest.approx(2.0 * mu_perp, rel=1e-14)
        assert mu_par2 == pytest.approx(2.0 * mu_par, rel=1e-14)

    def test_finite_positive(self, ge_material, theta_300):
        mu_perp, mu_par = mv.mobility_impurity(ge_material, theta_300)
        assert 0.0 < mu_perp < math.inf
        assert 0.0 < mu_par < math.inf

    def test_reference_values(self, ge_material, theta_300):
        # frozen arbitrary-precision evaluation for the fixture material
        tau = mv.relaxation_impurity(ge_material, theta_300)
        assert tau.tau_perp == pytest.approx(1.2917939094928605e-12, rel=1e-12)
        assert tau.tau_par == pytest.approx(1.5921127582635316e-11, rel=1e-12)
        mu_perp, mu_par = mv.mobility_impurity(ge_material, theta_300)
        assert mu_perp == pytest.approx(37491817.133875188, rel=1e-12)
        assert mu_par == pytest.approx(23830535.857978311, rel=1e-12)


class TestEndpointDecomposition:
    def test_combination_matches_direct_quadrature(self, ge_material, theta_300):
        # integrating the combined shape function directly must reproduce the
        # affine endpoint combination
        omega = omega_for_s(0.8, theta_300)
        s = 0.8
        endpoints = spectral_endpoints(ge_material, theta_300, omega)
        kappa = math.sqrt(2.0 * ge_material.m_perp * theta_300) / mv.HBAR
        from multivalley.special import psi

        c2 = 0.37

        def g(x):
            q_lo = kappa * (math.sqrt(x + s) - math.sqrt(x))
            q_hi = kappa * (math.sqrt(x + s) + math.sqrt(x))
            return psi(q_hi, c2, ge_material) + psi(q_lo, c2, ge_material)

        direct = mv.integrate_spectral(g, s)
        assert combine_endpoints(endpoints, c2, ge_material) == pytest.approx(
            direct, rel=1e-8
        )
