import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

import multivalley as mv
from multivalley import impurity, oracles, quadrature, special
from multivalley.constants import C_LIGHT, E_CHARGE, HBAR
from multivalley.errors import RegimeError
from multivalley.geometry import cos_phi, incident_flux
from multivalley.impurity import (
    RelaxationTensor,
    combine_endpoints,
    p_plus,
    relaxation_impurity,
    spectral_endpoints,
    x_min,
)
from multivalley.oracles import b_param, psi
from multivalley.quadrature import _endpoints
from multivalley.special import coulomb_log, psi_infinity, shape_b1, shape_b2


def omega_for_s(s, theta):
    return s * theta / HBAR


def psi_inf(c2, material):
    """Psi(inf) at cos^2(phi) = c2, affine between its values across and along the axis."""
    perp, par = psi_infinity(material)
    return (1.0 - c2) * perp + c2 * par


class TestXMin:
    def test_inverse_square_in_radius(self, ge_material, theta_300):
        doubled = dataclasses.replace(ge_material, r_D=2.0 * ge_material.r_D)
        assert x_min(doubled, theta_300) == pytest.approx(
            x_min(ge_material, theta_300) / 4.0, rel=1e-14, abs=0
        )

    def test_inverse_linear_in_theta(self, ge_material, theta_300):
        assert x_min(ge_material, 2.0 * theta_300) == pytest.approx(
            x_min(ge_material, theta_300) / 2.0, rel=1e-14, abs=0
        )

    def test_reference_value_with_derived_screening(self, theta_300):
        # r_D from n = 1e16 at 300 K, eps0 = 16; frozen arbitrary-precision value
        mat = mv.Material.from_units(
            m_perp_me=0.082, m_par_me=1.59, eps0=16.0, n_a=1e16,
            tau_perp0=1e-12, tau_par0=1e-12,
        ).with_debye_radius(theta_300, 1e16)
        value = x_min(mat, theta_300)
        assert value == pytest.approx(1.9656328560033583e-3, rel=1e-12, abs=0)
        assert value < 0.1  # the guard this quantity exists for


class TestPPlus:
    def test_empty_valley_gives_zero(self, ge_material, theta_300, pol_skew):
        v = mv.Valley(axis=(0.0, 0.0, 1.0), n=0.0, theta=theta_300)
        assert p_plus(v, ge_material, 1e13, pol_skew, 1.0) == 0.0

    def test_linear_in_concentrations(self, ge_material, valley_z, pol_skew):
        omega = omega_for_s(1.0, valley_z.theta)
        base = p_plus(valley_z, ge_material, omega, pol_skew, 1.0)
        doubled_ni = dataclasses.replace(valley_z, n=2.0 * valley_z.n)
        assert p_plus(doubled_ni, ge_material, omega, pol_skew, 1.0) == pytest.approx(
            2.0 * base, rel=1e-12
        )
        doubled_na = dataclasses.replace(ge_material, n_a=2.0 * ge_material.n_a)
        assert p_plus(valley_z, doubled_na, omega, pol_skew, 1.0) == pytest.approx(
            2.0 * base, rel=1e-12
        )

    def test_positive(self, ge_material, valley_z, pol_skew):
        for s in (0.01, 1.0, 30.0):
            omega = omega_for_s(s, valley_z.theta)
            assert p_plus(valley_z, ge_material, omega, pol_skew, 1.0) > 0.0

    def test_matches_pre_reduction_double_integral(
        self, ge_material, valley_z, pol_skew
    ):
        omega = omega_for_s(0.7, valley_z.theta)
        direct = oracles.collision_prefactor(
            valley_z, ge_material, omega
        ) * oracles.double_integral_direct(valley_z, ge_material, omega, pol_skew)
        assert p_plus(valley_z, ge_material, omega, pol_skew, 1.0) == pytest.approx(
            direct, rel=1e-6
        )


class TestPMinus:
    def test_matches_direct_emission_integral(self, ge_material, valley_z, pol_skew):
        # detailed balance: the emitted power is -e^{-s} times the absorbed one
        s = 1.3
        omega = omega_for_s(s, valley_z.theta)
        direct = oracles.p_minus_direct(valley_z, ge_material, omega, pol_skew, 1.0)
        minus = -math.exp(-s) * p_plus(valley_z, ge_material, omega, pol_skew, 1.0)
        assert minus == pytest.approx(direct, rel=1e-8)


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
        assert joint == pytest.approx(per_valley, rel=1e-12, abs=0)

    def test_ge4_polarization_isotropy(self, ge_material, theta_300):
        vs = mv.load_preset("Ge4").with_population(1e16, theta_300)
        omega = omega_for_s(1.0, theta_300)
        k_z = mv.absorption_impurity(
            vs, ge_material, omega, mv.Polarization.from_vector([0, 0, 1]), "general"
        )
        k_diag = mv.absorption_impurity(
            vs, ge_material, omega, mv.Polarization.from_vector([1, 1, 1]), "general"
        )
        assert k_diag == pytest.approx(k_z, rel=1e-12, abs=0)

    def test_flux_normalization_against_p_plus(self, ge_material, valley_z, pol_skew):
        # K == sum_i (1 - e^-s) p_plus / incident flux, any amplitude
        s = 0.8
        omega = omega_for_s(s, valley_z.theta)
        a0 = 3.7
        k_direct = (
            -math.expm1(-s)
            * p_plus(valley_z, ge_material, omega, pol_skew, a0)
            / incident_flux(omega, a0, ge_material.eps0)
        )
        k = mv.absorption_impurity(
            mv.ValleySet((valley_z,)), ge_material, omega, pol_skew, "general"
        )
        assert k == pytest.approx(k_direct, rel=1e-12, abs=0)


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
        log_term = coulomb_log(x_min(ge_material, theta_300))
        pref = (
            (2.0 * math.pi) ** 1.5
            * E_CHARGE**6
            * ge_material.n_a
            * math.sqrt(ge_material.m_par)
            / (
                ge_material.eps0**2.5
                * C_LIGHT
                * (ge_material.m_par - ge_material.m_perp) ** 2
                * omega**2
            )
        )
        alt = pref * sum(
            v.n
            / v.theta**1.5
            * psi_inf(cos_phi(v, pol_skew) ** 2, ge_material)
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
        assert x_min(mat, theta_300) >= 0.1
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

    @pytest.mark.parametrize("kelvin", [4.2, 300.0, 1e4])
    @pytest.mark.parametrize("omega", [1e97, 1e98, 3e99, 1e100])
    def test_matches_general_at_top_of_range(self, ge_material, kelvin, omega):
        # at s ~ 1e70 and more both regimes are the unscreened Psi(inf) law;
        # (hbar omega)^{3/2} omega^2 in one denominator overflows above ~3e99
        valleys = mv.load_preset("Ge4").with_population(
            [1e16, 2e16, 3e15, 5e16], mv.theta_from_kelvin(kelvin)
        )
        pol = mv.Polarization.from_vector([0.0, 0.0, 1.0])
        kg = mv.absorption_impurity(valleys, ge_material, omega, pol, "general")
        kq = mv.absorption_impurity(valleys, ge_material, omega, pol, "quantum")
        assert kq == pytest.approx(kg, rel=1e-12, abs=0)

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
        assert k_at(phi) == pytest.approx(predicted, rel=1e-10, abs=0)


class TestRelaxationTensor:
    @pytest.mark.parametrize("tau_perp, tau_par", [(0.0, 1e-12), (1e-12, -1e-12),
                                                   (math.nan, 1e-12)])
    def test_non_positive_times_rejected(self, tau_perp, tau_par):
        with pytest.raises(ValueError, match="relaxation times must be positive"):
            RelaxationTensor(tau_perp=tau_perp, tau_par=tau_par)

    def test_rate_linear_in_impurity_density(self, ge_material, theta_300):
        tau = relaxation_impurity(ge_material, theta_300)
        doubled = relaxation_impurity(
            dataclasses.replace(ge_material, n_a=2.0 * ge_material.n_a), theta_300
        )
        assert doubled.tau_perp == pytest.approx(tau.tau_perp / 2.0, rel=1e-14, abs=0)
        assert doubled.tau_par == pytest.approx(tau.tau_par / 2.0, rel=1e-14, abs=0)

    def test_reference_values(self, ge_material, theta_300):
        # frozen arbitrary-precision evaluation for the fixture material
        tau = relaxation_impurity(ge_material, theta_300)
        assert tau.tau_perp == pytest.approx(1.2917939094928605e-12, rel=1e-12, abs=0)
        assert tau.tau_par == pytest.approx(1.5921127582635316e-11, rel=1e-12, abs=0)

    def test_temperature_scaling(self, ge_material, theta_300):
        # tau ~ theta^{3/2} / L(x_min(theta)); two-point arithmetic check
        t1, t2 = theta_300, 2.0 * theta_300
        tau1 = relaxation_impurity(ge_material, t1)
        tau2 = relaxation_impurity(ge_material, t2)
        log1 = coulomb_log(x_min(ge_material, t1))
        log2 = coulomb_log(x_min(ge_material, t2))
        expected = (t2 / t1) ** 1.5 * log1 / log2
        assert tau2.tau_perp / tau1.tau_perp == pytest.approx(expected, rel=1e-13, abs=0)
        assert tau2.tau_par / tau1.tau_par == pytest.approx(expected, rel=1e-13, abs=0)

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
        log_term = coulomb_log(x_min(ge_material, theta_300))
        k_psi = (
            (2.0 * math.pi) ** 1.5
            * E_CHARGE**6
            * ge_material.n_a
            * math.sqrt(ge_material.m_par)
            * v.n
            * psi_inf(cos_phi(v, pol_skew) ** 2, ge_material)
            * log_term
            / (
                ge_material.eps0**2.5
                * C_LIGHT
                * (ge_material.m_par - ge_material.m_perp) ** 2
                * omega**2
                * theta_300**1.5
            )
        )
        assert k_tensor == pytest.approx(k_psi, rel=1e-12)


class TestEndpointDecomposition:
    def test_combination_matches_direct_quadrature(self, ge_material, theta_300):
        # integrating the combined shape function directly must reproduce the
        # affine endpoint combination
        omega = omega_for_s(0.8, theta_300)
        s = 0.8
        endpoints = spectral_endpoints(ge_material, theta_300, omega)
        kappa = math.sqrt(2.0 * ge_material.m_perp * theta_300) / HBAR

        c2 = 0.37

        def g(x):
            q_lo = kappa * (math.sqrt(x + s) - math.sqrt(x))
            q_hi = kappa * (math.sqrt(x + s) + math.sqrt(x))
            return psi(q_hi, c2, ge_material) + psi(q_lo, c2, ge_material)

        direct = oracles.spectral_integral(g, s)
        assert combine_endpoints(endpoints, c2, ge_material) == pytest.approx(
            direct, rel=1e-8
        )


def oracle_endpoints(material, theta, omega):
    """(I1, I2) of spectral_endpoints by the adaptive oracle integral, with b
    from b_param and the scalar shape factors."""
    s = HBAR * omega / theta
    kappa = math.sqrt(2.0 * material.m_perp * theta) / HBAR

    def integrand(shape):
        def g(x):
            # q_min = kappa (sqrt(x+s) - sqrt(x)) without the cancellation at tiny s
            roots = math.sqrt(x + s) + math.sqrt(x)
            return sum(
                shape(b_param(q, material.r_D, material.m_perp, material.m_par).b)
                for q in (kappa * roots, kappa * s / roots)
            )
        return g

    return (oracles.spectral_integral(integrand(shape_b1), s),
            oracles.spectral_integral(integrand(shape_b2), s))


class TestSpectralAccuracy:
    # Ge and Si valley masses (m_perp, m_par) in electron masses
    MASSES = ((0.082, 1.59), (0.19, 0.916))

    def test_matches_adaptive_oracle_across_domain(self):
        # the corners of the documented domain plus seeded interior draws:
        # r_D 1e-7..1e-3 cm, 4.2..1e4 K, omega 1e10..1e17 rad/s
        cases = list(itertools.product(self.MASSES, (1e-7, 1e-3), (4.2, 1e4), (1e10, 1e17)))
        rng = np.random.default_rng(20081)
        for _ in range(48):
            cases.append((
                self.MASSES[rng.integers(2)],
                10.0 ** rng.uniform(-7.0, -3.0),
                math.exp(rng.uniform(math.log(4.2), math.log(1e4))),
                10.0 ** rng.uniform(10.0, 17.0),
            ))
        for (m_perp, m_par), r_D, kelvin, omega in cases:
            material = mv.Material.from_units(
                m_perp_me=m_perp, m_par_me=m_par, eps0=16.0, n_a=1e16,
                tau_perp0=1e-12, tau_par0=1e-12, r_D=r_D,
            )
            theta = mv.theta_from_kelvin(kelvin)
            # a QuadratureError here fails the test
            got = spectral_endpoints(material, theta, omega)
            want = oracle_endpoints(material, theta, omega)
            assert got == pytest.approx(want, rel=1e-9, abs=0), (m_perp, r_D, kelvin, omega)

    @pytest.mark.parametrize("omega", [1e-50, 1e-20, 1e-2])
    @pytest.mark.parametrize("kelvin", [4.2, 300.0, 1e4])
    def test_matches_adaptive_oracle_at_vanishing_frequency(self, ge_material, kelvin, omega):
        # s = hbar omega/theta down to ~1e-66: q_min = kappa (sqrt(x+s) - sqrt(x))
        # would cancel to 0 in floating point
        theta = mv.theta_from_kelvin(kelvin)
        got = spectral_endpoints(ge_material, theta, omega)
        want = oracle_endpoints(ge_material, theta, omega)
        assert got == pytest.approx(want, rel=1e-9, abs=0)


class TestBatchedEndpoints:
    # Grid lengths around the pass size: (passes, offset) -> passes * chunk + offset.
    @pytest.mark.parametrize("passes, offset", [(0, 1), (0, 2), (1, -1), (1, 0), (1, 1), (0, 200)])
    @pytest.mark.parametrize("kelvin", [4.2, 300.0, 1e4])
    def test_batched_matches_one_element_calls(self, ge_material, chunk, passes, offset, kelvin):
        # 1e10-1e17 rad/s spans both layouts (s < 1 and s >= 1) at every temperature
        theta = mv.theta_from_kelvin(kelvin)
        omegas = np.geomspace(1e10, 1e17, passes * chunk + offset).tolist()
        single = np.array([spectral_endpoints(ge_material, theta, w) for w in omegas]).T
        np.testing.assert_allclose(_endpoints(ge_material, theta, omegas), single,
                                   rtol=2e-15, atol=0)

    def test_pass_count(self, ge_material, chunk, monkeypatch):
        # a 200-point single-temperature sweep runs in at most ceil(200/chunk)
        # passes, not one per frequency
        passes = []
        real = quadrature._pass
        monkeypatch.setattr(quadrature, "_pass", lambda *a: passes.append(1) or real(*a))
        omegas = np.geomspace(1e10, 1e17, 200).tolist()
        _endpoints(ge_material, mv.theta_from_kelvin(300.0), omegas)
        assert 1 < len(passes) <= math.ceil(200 / chunk)

    def test_first_failing_frequency_wins(self, ge_material, monkeypatch):
        # a synthetic estimate far above the tolerance at three frequencies in
        # different passes: the error names the first of them in grid order
        theta = mv.theta_from_kelvin(300.0)
        omegas = np.geomspace(1e10, 1e17, 200).tolist()
        failing = [omegas[150], omegas[60], omegas[170]]
        real = quadrature._pass

        def spoiled(g, s, edges):
            value, abserr = real(g, s, edges)
            for w in failing:
                abserr[:, s == HBAR * w / theta] = 1.0
            return value, abserr

        monkeypatch.setattr(quadrature, "_pass", spoiled)
        with pytest.raises(mv.QuadratureError, match=f"at s = {HBAR * omegas[60] / theta:.6e}"):
            _endpoints(ge_material, theta, omegas)

    @pytest.mark.parametrize("kelvin", [4.2, 1e4])
    def test_sweep_raises_no_floating_point_error(self, kelvin):
        # the spectral core runs with numpy over/divide/invalid raising; the
        # batched passes (zero-width padding panels included) must not trip it
        doc = {
            "material": {"m_perp": 0.082, "m_par": 1.59, "eps0": 16.0, "n_a": 1e16,
                         "r_D": 3e-5, "tau_perp0": 1.2e-12, "tau_par0": 9e-13},
            "valleys": {"preset": "Ge4", "n": 1e16, "theta_K": kelvin},
            "polarization": [0, 0, 1], "mechanism": "impurity", "regime": "general",
            "observable": "both",
            "sweep": {"kind": "omega", "min": 1e10, "max": 1e17, "points": 200, "scale": "log"},
        }
        config = mv.parse_config(json.dumps(doc))
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            result = mv.run_sweep(config)
        assert len(result.rows) == 200
        assert all(math.isfinite(v) and v >= 0.0 for row in result.rows for v in row[2:4])


def assert_grid_columns(terms, count):
    factors, columns = terms
    assert len(factors) == count
    assert all(len(column) == count for _, *quantities in columns for column in quantities)


class TestClosedFormsPerCall:
    # a closed form computes what does not depend on omega once per call: the
    # relaxation tensor once per distinct valley temperature, Psi(inf) once
    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []
        for module, name in ((impurity, "relaxation_impurity"), (special, "shape_b1"),
                             (special, "shape_b2")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *a, real=real, name=name: calls.append(name) or real(*a))
        return calls

    @pytest.fixture
    def two_temperatures(self):
        t300, t600 = mv.theta_from_kelvin(300.0), mv.theta_from_kelvin(600.0)
        return mv.load_preset("Ge4").with_population(1e16, [t300, t600, t300, t600])

    def test_classical(self, ge_material, two_temperatures, counted):
        omegas = np.geomspace(1e10, 1e12, 50).tolist()
        terms = impurity._classical_absorption(two_temperatures, ge_material, omegas)
        assert_grid_columns(terms, 50)
        assert counted == ["relaxation_impurity"] * 2

    def test_quantum(self, ge_material, two_temperatures, counted):
        omegas = np.geomspace(1e15, 1e16, 50).tolist()
        terms = impurity._quantum_absorption(two_temperatures, ge_material, omegas)
        assert_grid_columns(terms, 50)
        assert counted == ["shape_b1", "shape_b2"]
