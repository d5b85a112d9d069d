import dataclasses
import json
import math

import numpy as np
import pytest

import multivalley as mv
from multivalley import acoustic
from multivalley.acoustic import _kernel, _kernels, mobility_acoustic, tau_acoustic
from multivalley.constants import HBAR
from multivalley.errors import RegimeError
from multivalley.impurity import mobility_impurity, relaxation_impurity


def omega_for_a(a, theta):
    return 2.0 * a * theta / HBAR


class TestTauAcoustic:
    def test_unit_ratio(self):
        assert tau_acoustic(2.0e-14, 2.0e-14, 1.3e-12) == 1.3e-12

    def test_inverse_square_root(self):
        theta = 4.0e-14
        assert tau_acoustic(4.0 * theta, theta, 1e-12) == pytest.approx(
            tau_acoustic(theta, theta, 1e-12) / 2.0, rel=1e-14, abs=0
        )

    def test_normalization_at_own_temperature(self):
        # tau evaluated at eps = theta_i is the bare prefactor
        for tau0 in (3e-13, 1e-12):
            theta = 5.2e-14
            assert tau_acoustic(theta, theta, tau0) == tau0

    def test_domain(self):
        with pytest.raises(ValueError):
            tau_acoustic(0.0, 1e-14, 1e-12)


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
def kernel_calls(monkeypatch):
    """The s arrays of every quadrature call the acoustic kernel makes, with
    the single-frequency memo emptied first."""
    calls = []
    integrate = acoustic._integrate

    def counting(g, s, rel_tol):
        calls.append(s.copy())
        return integrate(g, s, rel_tol)

    monkeypatch.setattr(acoustic, "_integrate", counting)
    _kernel.cache_clear()
    yield calls
    _kernel.cache_clear()


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
    def test_phi_sweep_evaluates_each_temperature_once(self, kernel_calls, thetas):
        config = acoustic_config(
            {"preset": "Ge4", "n": 1e16, "theta_K": thetas},
            {"kind": "phi", "min": 0.0, "max": 3.0, "points": 25, "omega": 3.1e13},
        )
        mv.run_sweep(config)
        assert len(kernel_calls) == len(set(thetas))
        assert all(s.size == 1 for s in kernel_calls)
        mv.run_sweep(config)  # the same frequency again: the memo answers
        assert len(kernel_calls) == len(set(thetas))

    def test_omega_sweep_is_batched(self, kernel_calls):
        config = acoustic_config(
            {"preset": "Ge4", "n": 1e16, "theta_K": 4.2},
            {"kind": "omega", "min": 1e10, "max": 1e16, "points": 200},
        )
        mv.run_sweep(config)
        assert [s.size for s in kernel_calls] == [200]

    def test_batch_matches_single_frequency(self):
        # a row's value does not depend on the pass it shares with other rows
        s = np.geomspace(1e-9, 4e3, 200)
        batched = _kernels(s)
        for s_j, value in zip(s.tolist(), batched):
            assert value == pytest.approx(_kernels(np.array([s_j]))[0], rel=2e-15, abs=0)


class TestMobilityAcoustic:
    def test_coefficient_ratio_to_impurity(self, ge_material, theta_300):
        # (4/(3 sqrt(pi))) / (8/sqrt(pi)) = 1/6 at equal tau
        tau = relaxation_impurity(ge_material, theta_300)
        mat = dataclasses.replace(
            ge_material, tau_perp0=tau.tau_perp, tau_par0=tau.tau_par
        )
        mu_imp = mobility_impurity(mat, theta_300)
        mu_ac = mobility_acoustic(mat, theta_300)
        assert mu_ac[0] / mu_imp[0] == pytest.approx(1.0 / 6.0, rel=1e-13, abs=0)
        assert mu_ac[1] / mu_imp[1] == pytest.approx(1.0 / 6.0, rel=1e-13, abs=0)

    def test_linear_in_tau(self, ge_material, theta_300):
        mu = mobility_acoustic(ge_material, theta_300)
        doubled = dataclasses.replace(
            ge_material,
            tau_perp0=2.0 * ge_material.tau_perp0,
            tau_par0=2.0 * ge_material.tau_par0,
        )
        mu2 = mobility_acoustic(doubled, theta_300)
        assert mu2[0] == pytest.approx(2.0 * mu[0], rel=1e-14)
        assert mu2[1] == pytest.approx(2.0 * mu[1], rel=1e-14)

    def test_finite_positive(self, ge_material, theta_300):
        mu_perp, mu_par = mobility_acoustic(ge_material, theta_300)
        assert 0.0 < mu_perp < math.inf
        assert 0.0 < mu_par < math.inf
