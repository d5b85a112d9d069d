import dataclasses
import json
import math

import numpy as np
import pytest

import multivalley as mv
from multivalley.acoustic import _rates
from multivalley.constants import HBAR
from multivalley.errors import RegimeError
from multivalley.impurity import relaxation_impurity
from multivalley.special import acoustic_kernel


def omega_for_a(a, theta):
    return 2.0 * a * theta / HBAR


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
        tau = relaxation_impurity(ge_material, theta_300)
        mat = dataclasses.replace(
            ge_material, tau_perp0=tau.tau_perp, tau_par0=tau.tau_par
        )
        omega = omega_for_a(0.01, theta_300)
        k_imp = mv.absorption_impurity(single_valley, mat, omega, pol_skew, "classical")
        k_ac = mv.absorption_acoustic(single_valley, mat, omega, pol_skew, "classical")
        assert k_imp / k_ac == pytest.approx(9.0 * math.pi / 64.0, rel=1e-12, abs=0)


@pytest.fixture
def kernel_misses():
    """The number of kernel evaluations so far, the memo emptied first."""
    acoustic_kernel.cache_clear()
    yield lambda: acoustic_kernel.cache_info().misses
    acoustic_kernel.cache_clear()


def acoustic_config(valleys, sweep):
    return mv.parse_config(json.dumps({
        "material": {"m_perp": 0.082, "m_par": 1.59, "eps0": 16.0, "n_a": 1e16,
                     "r_D": 3e-5, "tau_perp0": 1.2e-12, "tau_par0": 9e-13},
        "valleys": valleys, "polarization": [1, 0, 0], "mechanism": "acoustic",
        "regime": "general", "observable": "both", "sweep": sweep,
    }))


class TestKernelReuse:
    @pytest.mark.parametrize("thetas", [[300.0] * 4, [300.0, 300.0, 710.0, 710.0],
                                        [150.0, 300.0, 710.0, 2900.0]])
    def test_phi_sweep_evaluates_each_temperature_once(self, kernel_misses, thetas):
        config = acoustic_config(
            {"preset": "Ge4", "n": 1e16, "theta_K": thetas},
            {"kind": "phi", "min": 0.0, "max": 3.0, "points": 25, "omega": 3.1e13},
        )
        mv.run_sweep(config)
        assert kernel_misses() == len(set(thetas))
        mv.run_sweep(config)  # the same frequency again: the memo answers
        assert kernel_misses() == len(set(thetas))

    def test_omega_sweep_evaluates_each_frequency_once(self, kernel_misses):
        # valleys of one temperature share each frequency's kernel
        config = acoustic_config(
            {"preset": "Ge4", "n": 1e16, "theta_K": [4.2, 4.2, 300.0, 300.0]},
            {"kind": "omega", "min": 1e10, "max": 1e16, "points": 200},
        )
        mv.run_sweep(config)
        assert kernel_misses() == 2 * 200

    def test_batch_matches_single_frequency(self, ge_material, theta_300):
        # a row's value does not depend on the sweep it belongs to
        valleys = mv.load_preset("Ge4").with_population(1e16, theta_300)
        omegas = [2.0 * theta_300 * a / HBAR for a in np.geomspace(5e-10, 2e3, 200).tolist()]
        for omega, row in zip(omegas, _rates(valleys, ge_material, omegas)):
            acoustic_kernel.cache_clear()
            assert row == _rates(valleys, ge_material, [omega])[0]
