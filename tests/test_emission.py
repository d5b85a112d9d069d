import dataclasses
import math

import numpy as np
import pytest

import multivalley as mv
from multivalley.constants import C_LIGHT, E_CHARGE, HBAR
from multivalley.emission import mode_density, photon_amplitude
from multivalley.errors import RegimeError
from multivalley.geometry import cos_phi
from multivalley.impurity import (
    combine_endpoints,
    p_plus,
    relaxation_impurity,
    spectral_endpoints,
)
from multivalley.special import coulomb_log, psi_infinity


def omega_for_s(s, theta):
    return s * theta / HBAR


def psi_inf(c2, material):
    """Psi(inf) at cos^2(phi) = c2, affine between its values across and along the axis."""
    perp, par = psi_infinity(material)
    return (1.0 - c2) * perp + c2 * par


class TestPhotonNormalization:
    def test_amplitude_scalings(self):
        a = photon_amplitude(1e14, 1.0)
        assert photon_amplitude(1e14, 4.0) == pytest.approx(a / 2.0, rel=1e-14, abs=0)
        assert photon_amplitude(4e14, 1.0) == pytest.approx(a / 2.0, rel=1e-14, abs=0)

    def test_energy_bookkeeping(self):
        # one photon in V: V (omega/c)^2 A0^2 / 8 pi = hbar omega, exactly
        for omega, volume in ((1e13, 1.0), (3e14, 2.5)):
            a0 = photon_amplitude(omega, volume)
            energy = volume * (omega / C_LIGHT) ** 2 * a0**2 / (8.0 * math.pi)
            assert energy == pytest.approx(HBAR * omega, rel=1e-14, abs=0)

    def test_mode_density_scalings(self):
        rho = mode_density(1e14, 1.0)
        assert mode_density(2e14, 1.0) == pytest.approx(4.0 * rho, rel=1e-14, abs=0)
        assert mode_density(1e14, 2.0) == pytest.approx(2.0 * rho, rel=1e-14, abs=0)

    def test_mode_density_reference(self):
        assert mode_density(1e14, 1.0) == pytest.approx(
            1.4962297515050652e-6, rel=1e-12, abs=0
        )

    @pytest.mark.parametrize("function", [photon_amplitude, mode_density])
    @pytest.mark.parametrize("omega, volume", [(0.0, 1.0), (-1e14, 1.0), (1e14, 0.0),
                                               (1e14, -1.0)])
    def test_non_positive_inputs_rejected(self, function, omega, volume):
        with pytest.raises(ValueError, match="omega and volume must be positive"):
            function(omega, volume)

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError, match="emission intensity must be >= 0"):
            mv.EmissionResult(dW_dOmega=-1.0, omega=1e14, regime=mv.Regime.GENERAL,
                              mechanism=mv.Mechanism.IMPURITY)


class TestEmissionImpurity:
    def test_recipe_reproduces_closed_general_form(
        self, ge_material, valley_z, pol_skew
    ):
        # independent transcription of the general emission coefficient
        s = 1.4
        omega = omega_for_s(s, valley_z.theta)
        result = mv.emission_impurity(
            mv.ValleySet((valley_z,)), ge_material, omega, pol_skew, "general"
        )
        c2 = cos_phi(valley_z, pol_skew) ** 2
        integral = combine_endpoints(
            spectral_endpoints(ge_material, valley_z.theta, omega), c2, ge_material
        )
        pref = (
            E_CHARGE**6
            * ge_material.n_a
            * math.sqrt(ge_material.m_par)
            / (
                (2.0 * math.pi) ** 1.5
                * ge_material.eps0**2
                * C_LIGHT**3
                * (ge_material.m_par - ge_material.m_perp) ** 2
            )
        )
        closed = pref * valley_z.n / math.sqrt(valley_z.theta) * math.exp(-s) * integral
        assert result.dW_dOmega == pytest.approx(closed, rel=1e-9, abs=0)

    def test_detailed_balance_against_absorbed_power(
        self, ge_material, valley_z, pol_skew
    ):
        # per valley: emission / (p_plus at the one-photon amplitude times
        # the mode density) is e^{-hbar omega/theta}
        s = 2.2
        omega = omega_for_s(s, valley_z.theta)
        emitted = mv.emission_impurity(
            mv.ValleySet((valley_z,)), ge_material, omega, pol_skew, "general"
        ).dW_dOmega
        absorbed = p_plus(
            valley_z, ge_material, omega, pol_skew, photon_amplitude(omega, 1.0)
        ) * mode_density(omega, 1.0)
        assert emitted / absorbed == pytest.approx(math.exp(-s), rel=1e-9)

    def test_ge4_isotropy(self, ge_material, theta_300):
        vs = mv.load_preset("Ge4").with_population(1e16, theta_300)
        omega = omega_for_s(1.0, theta_300)
        rng = np.random.default_rng(17)
        values = [
            mv.emission_impurity(
                vs, ge_material, omega,
                mv.Polarization.from_vector(rng.normal(size=3)), "general",
            ).dW_dOmega
            for _ in range(5)
        ]
        assert (max(values) - min(values)) / values[0] < 1e-12

    def test_two_classical_forms_agree(self, ge_material, theta_300, pol_skew):
        vs = mv.load_preset("Ge4").with_population(1e16, theta_300)
        omega = omega_for_s(0.01, theta_300)
        produced = mv.emission_impurity(
            vs, ge_material, omega, pol_skew, "classical"
        ).dW_dOmega
        tau = relaxation_impurity(ge_material, theta_300)
        alt = (
            3.0
            * E_CHARGE**2
            / (16.0 * math.pi**1.5 * C_LIGHT**3)
            * sum(
                v.n
                * v.theta
                * (
                    (1.0 - cos_phi(v, pol_skew) ** 2)
                    / (ge_material.m_perp * tau.tau_perp)
                    + cos_phi(v, pol_skew) ** 2 / (ge_material.m_par * tau.tau_par)
                )
                for v in vs
            )
        )
        assert produced == pytest.approx(alt, rel=1e-12, abs=0)

    def test_general_to_classical_limit(self, ge_material, single_valley, pol_skew):
        theta = single_valley.valleys[0].theta
        omega = omega_for_s(1e-3, theta)
        wg = mv.emission_impurity(single_valley, ge_material, omega, pol_skew, "general")
        wc = mv.emission_impurity(
            single_valley, ge_material, omega, pol_skew, "classical"
        )
        assert abs(wg.dW_dOmega / wc.dW_dOmega - 1.0) < 0.15

    def test_quantum_guard(self, ge_material, single_valley, pol_skew):
        theta = single_valley.valleys[0].theta
        with pytest.raises(RegimeError):
            mv.emission_impurity(
                single_valley, ge_material, omega_for_s(2.0, theta), pol_skew, "quantum"
            )

    def test_zero_only_for_empty_valleys(self, ge_material, theta_300, pol_skew):
        omega = omega_for_s(1.0, theta_300)
        empty = mv.load_preset("Ge4").with_population(0.0, theta_300)
        assert (
            mv.emission_impurity(empty, ge_material, omega, pol_skew, "general").dW_dOmega
            == 0.0
        )
        populated = mv.load_preset("Ge4").with_population(1e10, theta_300)
        assert (
            mv.emission_impurity(
                populated, ge_material, omega, pol_skew, "general"
            ).dW_dOmega
            > 0.0
        )


class TestEmissionAcoustic:
    def test_classical_branch_frequency_flat(self, ge_material, single_valley, pol_skew):
        theta = single_valley.valleys[0].theta
        w1 = mv.emission_acoustic(
            single_valley, ge_material, omega_for_s(1e-3, theta), pol_skew, "classical"
        ).dW_dOmega
        w2 = mv.emission_acoustic(
            single_valley, ge_material, omega_for_s(2e-3, theta), pol_skew, "classical"
        ).dW_dOmega
        assert w1 == w2

    def test_general_to_classical_limit(self, ge_material, single_valley, pol_skew):
        theta = single_valley.valleys[0].theta
        omega = 2.0 * 1e-2 * theta / HBAR  # a = 1e-2
        wg = mv.emission_acoustic(single_valley, ge_material, omega, pol_skew, "general")
        wc = mv.emission_acoustic(
            single_valley, ge_material, omega, pol_skew, "classical"
        )
        assert abs(wg.dW_dOmega / wc.dW_dOmega - 1.0) < 0.01

    def test_quantum_slope_after_removing_exponential(
        self, ge_material, single_valley, pol_skew
    ):
        theta = single_valley.valleys[0].theta
        omegas = np.geomspace(omega_for_s(20.0, theta), omega_for_s(200.0, theta), 6)
        values = []
        for w in omegas:
            w = float(w)
            s = HBAR * w / theta
            out = mv.emission_acoustic(
                single_valley, ge_material, w, pol_skew, "quantum"
            ).dW_dOmega
            values.append(out * math.exp(s))
        slope = np.polyfit(np.log(omegas), np.log(values), 1)[0]
        assert slope == pytest.approx(1.5, abs=1e-3)

    def test_nonnegative(self, ge_material, single_valley, pol_skew):
        theta = single_valley.valleys[0].theta
        for s in (1e-3, 0.5, 3.0, 40.0):
            out = mv.emission_acoustic(
                single_valley, ge_material, omega_for_s(s, theta), pol_skew, "general"
            )
            assert out.dW_dOmega >= 0.0


class TestEmissionPolarizationLaw:
    @pytest.mark.parametrize(
        "mechanism,regime,s",
        [
            ("impurity", "general", 1.0),
            ("impurity", "classical", 0.02),
            ("impurity", "quantum", 40.0),
            ("acoustic", "general", 1.0),
            ("acoustic", "classical", 0.02),
            ("acoustic", "quantum", 40.0),
        ],
    )
    def test_affine_in_cos2(self, ge_material, theta_300, mechanism, regime, s):
        v = mv.Valley(axis=(0.0, 0.0, 1.0), n=1e16, theta=theta_300)
        vs = mv.ValleySet((v,))
        omega = omega_for_s(s, theta_300)
        fn = mv.emission_impurity if mechanism == "impurity" else mv.emission_acoustic

        def w_at(phi):
            pol = mv.Polarization.from_vector([math.sin(phi), 0.0, math.cos(phi)])
            return fn(vs, ge_material, omega, pol, regime).dW_dOmega

        w_par, w_perp = w_at(0.0), w_at(math.pi / 2.0)
        phi = math.pi / 3.0
        predicted = w_perp + (w_par - w_perp) * math.cos(phi) ** 2
        assert w_at(phi) == pytest.approx(predicted, rel=1e-10, abs=0)


class TestKirchhoffClosedForms:
    """Closed-form emission is the Kirchhoff projection of closed-form
    absorption.  These are the hand-derived emission formulas that the
    projection replaced, transcribed independently; production must match
    them at several s and polarizations."""

    POLS = ([0.0, 0.0, 1.0], [1.0, 1.0, 0.0], [0.3, -0.5, 0.9], [-0.7, 0.2, 0.4])

    @staticmethod
    def _valleys(theta):
        # unequal populations and temperatures, so every valley's term counts
        return mv.load_preset("Ge4").with_population(
            [1e16, 3e15, 2e16, 5e15], [theta, 1.3 * theta, 0.8 * theta, 1.1 * theta]
        )

    @staticmethod
    def _impurity_pref(material):
        # e0^6 n_a sqrt(m_par) / (eps0^2 c^3 (m_par - m_perp)^2)
        return (
            E_CHARGE**6 * material.n_a * math.sqrt(material.m_par)
            / (material.eps0**2 * C_LIGHT**3 * (material.m_par - material.m_perp) ** 2)
        )

    def _classical_impurity(self, valleys, material, pol):
        # (1/(2 pi)^{3/2}) pref sum_i n_i L(x_min(theta_i)) / sqrt(theta_i) Psi(inf)
        total = 0.0
        for v in valleys:
            x_min = HBAR**2 / (8.0 * material.m_perp * v.theta * material.r_D**2)
            psi = psi_inf(cos_phi(v, pol) ** 2, material)
            total += v.n / math.sqrt(v.theta) * coulomb_log(x_min) * psi
        return self._impurity_pref(material) / (2.0 * math.pi) ** 1.5 * total

    def _quantum_impurity(self, valleys, material, omega, pol):
        # (1/(sqrt 2 pi)) pref (hbar omega)^{-1/2} sum_i n_i e^{-hbar omega/theta_i} Psi(inf)
        total = 0.0
        for v in valleys:
            psi = psi_inf(cos_phi(v, pol) ** 2, material)
            total += v.n * math.exp(-HBAR * omega / v.theta) * psi
        pref = self._impurity_pref(material) / (math.sqrt(2.0) * math.pi)
        return pref / math.sqrt(HBAR * omega) * total

    @staticmethod
    def _classical_acoustic(valleys, material, pol):
        # (4 e0^2/3 pi^{5/2} c^3) sum_i n_i theta_i {weight}
        total = 0.0
        for v in valleys:
            c2 = cos_phi(v, pol) ** 2
            weight = (
                (1.0 - c2) / (material.m_perp * material.tau_perp0)
                + c2 / (material.m_par * material.tau_par0)
            )
            total += v.n * v.theta * weight
        return 4.0 * E_CHARGE**2 / (3.0 * math.pi**2.5 * C_LIGHT**3) * total

    @pytest.mark.parametrize("s_cold", [1e-4, 3e-3, 0.08])
    def test_classical_impurity(self, ge_material, theta_300, s_cold):
        valleys = self._valleys(theta_300)
        omega = omega_for_s(s_cold, 0.8 * theta_300)  # s of the coldest valley
        for vec in self.POLS:
            pol = mv.Polarization.from_vector(vec)
            got = mv.emission_impurity(valleys, ge_material, omega, pol, "classical")
            want = self._classical_impurity(valleys, ge_material, pol)
            assert got.dW_dOmega == pytest.approx(want, rel=1e-12, abs=0.0)

    @staticmethod
    def _quantum_acoustic(valleys, material, omega, pol):
        # (e0^2/6 pi^2 c^3) (hbar omega)^{3/2}
        #   sum_i n_i theta_i^{-1/2} e^{-hbar omega/theta_i} {weight}
        total = 0.0
        for v in valleys:
            c2 = cos_phi(v, pol) ** 2
            weight = (
                (1.0 - c2) / (material.m_perp * material.tau_perp0)
                + c2 / (material.m_par * material.tau_par0)
            )
            total += v.n / math.sqrt(v.theta) * math.exp(-HBAR * omega / v.theta) * weight
        return E_CHARGE**2 / (6.0 * math.pi**2 * C_LIGHT**3) * (HBAR * omega) ** 1.5 * total

    @pytest.mark.parametrize("s_hot", [10.0, 40.0, 200.0])
    def test_quantum_impurity(self, ge_material, theta_300, s_hot):
        valleys = self._valleys(theta_300)
        omega = omega_for_s(s_hot, 1.3 * theta_300)  # s of the hottest valley
        for vec in self.POLS:
            pol = mv.Polarization.from_vector(vec)
            got = mv.emission_impurity(valleys, ge_material, omega, pol, "quantum")
            want = self._quantum_impurity(valleys, ge_material, omega, pol)
            assert got.dW_dOmega == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("s_cold", [1e-4, 3e-3, 0.08])
    def test_classical_acoustic(self, ge_material, theta_300, s_cold):
        valleys = self._valleys(theta_300)
        omega = omega_for_s(s_cold, 0.8 * theta_300)
        for vec in self.POLS:
            pol = mv.Polarization.from_vector(vec)
            got = mv.emission_acoustic(valleys, ge_material, omega, pol, "classical")
            want = self._classical_acoustic(valleys, ge_material, pol)
            assert got.dW_dOmega == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("s_hot", [10.0, 40.0, 200.0])
    def test_quantum_acoustic(self, ge_material, theta_300, s_hot):
        valleys = self._valleys(theta_300)
        omega = omega_for_s(s_hot, 1.3 * theta_300)
        for vec in self.POLS:
            pol = mv.Polarization.from_vector(vec)
            got = mv.emission_acoustic(valleys, ge_material, omega, pol, "quantum")
            want = self._quantum_acoustic(valleys, ge_material, omega, pol)
            assert got.dW_dOmega == pytest.approx(want, rel=1e-12, abs=0.0)
