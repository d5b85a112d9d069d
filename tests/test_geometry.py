import json
import math
from pathlib import Path

import numpy as np
import pytest

import multivalley as mv
from multivalley import geometry
from multivalley.errors import ConfigError
from multivalley.geometry import cos_phi, debye_radius, incident_flux

K300 = mv.theta_from_kelvin(300.0)
DOCS = Path(__file__).resolve().parent.parent / "docs"


class TestPresets:
    def test_ge4_axes_are_unit(self):
        vs = mv.load_preset("Ge4")
        assert len(vs) == 4
        for v in vs:
            assert abs(sum(a * a for a in v.axis) - 1.0) < 1e-15

    def test_si6_cos2_sum_is_two(self):
        vs = mv.load_preset("Si6")
        pol = mv.Polarization.from_vector([0.0, 0.0, 1.0])
        total = sum(cos_phi(v, pol) ** 2 for v in vs)
        assert total == pytest.approx(2.0, abs=1e-15)

    def test_ge4_cos2_sum_is_four_thirds_any_polarization(self):
        vs = mv.load_preset("Ge4")
        rng = np.random.default_rng(11)
        for _ in range(6):
            pol = mv.Polarization.from_vector(rng.normal(size=3))
            total = sum(cos_phi(v, pol) ** 2 for v in vs)
            assert abs(total - 4.0 / 3.0) < 1e-12

    def test_si6_cos2_sum_polarization_independent(self):
        vs = mv.load_preset("Si6")
        rng = np.random.default_rng(12)
        for _ in range(6):
            pol = mv.Polarization.from_vector(rng.normal(size=3))
            total = sum(cos_phi(v, pol) ** 2 for v in vs)
            assert abs(total - 2.0) < 1e-12

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            mv.load_preset("GaAs8")

    def test_with_population(self):
        vs = mv.load_preset("Ge4").with_population(2.0e15, K300)
        assert all(v.n == 2.0e15 and v.theta == K300 for v in vs)
        per_valley = mv.load_preset("Si6").with_population(
            [1, 2, 3, 4, 5, 6], K300
        )
        assert [v.n for v in per_valley] == [1, 2, 3, 4, 5, 6]


class TestCosPhi:
    def test_orthogonal(self):
        v = mv.Valley(axis=(0.0, 0.0, 1.0), n=1.0, theta=K300)
        pol = mv.Polarization(q0=(1.0, 0.0, 0.0))
        assert cos_phi(v, pol) == 0.0

    def test_parallel(self):
        v = mv.Valley(axis=(0.0, 0.0, 1.0), n=1.0, theta=K300)
        pol = mv.Polarization(q0=(0.0, 0.0, 1.0))
        assert cos_phi(v, pol) == 1.0

    def test_body_diagonal(self):
        r = 1.0 / math.sqrt(3.0)
        v = mv.Valley(axis=(r, r, r), n=1.0, theta=K300)
        pol = mv.Polarization(q0=(0.0, 0.0, 1.0))
        assert cos_phi(v, pol) == pytest.approx(0.5773503, abs=1e-7)


class TestValidation:
    def test_axis_must_be_unit(self):
        with pytest.raises(ConfigError, match="unit vector"):
            mv.Valley(axis=(1.0, 1.0, 0.0), n=1.0, theta=K300)

    def test_polarization_must_be_unit(self):
        with pytest.raises(ConfigError, match="unit vector"):
            mv.Polarization(q0=(0.0, 0.0, 1.1))

    def test_from_vector_normalizes(self):
        pol = mv.Polarization.from_vector([3.0, 0.0, 4.0])
        assert pol.q0 == pytest.approx((0.6, 0.0, 0.8), rel=1e-6, abs=0)

    def test_mass_ordering_rejected(self):
        with pytest.raises(ConfigError, match="m_par"):
            mv.Material.from_units(
                m_perp_me=1.59, m_par_me=0.082, eps0=16.0, n_a=1e16,
                tau_perp0=1e-12, tau_par0=1e-12,
            )

    def test_negative_concentration_rejected(self):
        with pytest.raises(ConfigError):
            mv.Valley(axis=(0.0, 0.0, 1.0), n=-1.0, theta=K300)

    def test_empty_valley_set_rejected(self):
        with pytest.raises(ConfigError):
            mv.ValleySet(())

    def test_theta_units_exclusive(self):
        with pytest.raises(ConfigError):
            mv.Valley.from_units([0, 0, 1], n=1.0)
        with pytest.raises(ConfigError):
            mv.Valley.from_units([0, 0, 1], n=1.0, theta_K=300.0, theta_eV=0.02)


class TestDebyeRadius:
    def test_inverse_sqrt_in_density(self):
        r1 = debye_radius(16.0, K300, 1e16)
        r2 = debye_radius(16.0, K300, 4e16)
        assert r2 == pytest.approx(r1 / 2.0, rel=1e-14, abs=0)

    def test_sqrt_in_temperature(self):
        r1 = debye_radius(16.0, K300, 1e16)
        r2 = debye_radius(16.0, 4.0 * K300, 1e16)
        assert r2 == pytest.approx(2.0 * r1, rel=1e-14, abs=0)

    def test_reference_value(self):
        # arbitrary-precision evaluation of sqrt(eps0 theta/(4 pi e0^2 n))
        assert debye_radius(16.0, K300, 1e16) == pytest.approx(
            4.7810828902172596e-6, rel=1e-12, abs=0
        )

    def test_monotonicity(self):
        base = debye_radius(16.0, K300, 1e16)
        assert debye_radius(17.0, K300, 1e16) > base
        assert debye_radius(16.0, 1.1 * K300, 1e16) > base
        assert debye_radius(16.0, K300, 2e16) < base

    def test_material_fill(self, theta_300):
        mat = mv.Material.from_units(
            m_perp_me=0.082, m_par_me=1.59, eps0=16.0, n_a=1e16,
            tau_perp0=1e-12, tau_par0=1e-12,
        )
        assert mat.r_D is None
        with pytest.raises(ConfigError, match="r_D"):
            mat.require_r_D()
        filled = mat.with_debye_radius(theta_300, 1e16)
        assert filled.require_r_D() == pytest.approx(4.7810828902172596e-6, rel=1e-12, abs=0)


class TestIncidentFlux:
    def test_quadratic_in_amplitude(self):
        assert incident_flux(1e14, 2.0, 16.0) == pytest.approx(
            4.0 * incident_flux(1e14, 1.0, 16.0), rel=1e-15
        )

    def test_quadratic_in_frequency(self):
        assert incident_flux(2e14, 1.0, 16.0) == pytest.approx(
            4.0 * incident_flux(1e14, 1.0, 16.0), rel=1e-15
        )

    def test_unit_substitution(self):
        assert incident_flux(1.0, 1.0, 1.0) == pytest.approx(
            1.3272093647190362e-12, rel=1e-14, abs=0  # 1/(8 pi c)
        )


class TestProjection:
    # every valley's cos^2 is computed once per polarization, and both
    # observables share it: once per omega sweep, once per phi row
    @pytest.fixture
    def cos_phi_calls(self, monkeypatch):
        calls = []
        real = geometry.cos_phi
        monkeypatch.setattr(geometry, "cos_phi",
                            lambda valley, pol: calls.append(valley) or real(valley, pol))
        return calls

    @staticmethod
    def run_both(name, **overrides):
        doc = {**json.loads((DOCS / name).read_text()), "observable": "both", **overrides}
        return mv.run_sweep(mv.parse_config(json.dumps(doc)))

    def test_omega_sweep_once(self, cos_phi_calls):
        sweep = {"kind": "omega", "min": 1e13, "max": 1e15, "points": 200, "scale": "log"}
        result = self.run_both("config_ge4_spectrum.json", sweep=sweep)
        assert len(result.rows) == 200
        assert len(cos_phi_calls) == 4

    def test_phi_sweep_once_per_row(self, cos_phi_calls):
        result = self.run_both("config_si6_hot_polarization.json")
        assert len(result.rows) == 37
        assert len(cos_phi_calls) == 37 * 6
