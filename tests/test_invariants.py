"""Physics invariants across the documented domain.

* Per-valley Kirchhoff law (detailed balance) for both mechanisms: the
  general absorption coefficient against emission formulas transcribed here,
  independently of ``emission_*``, evaluated in arbitrary precision so that
  e^{-hbar omega/theta} neither underflows nor overflows.
* A seeded property sweep over 4.2 K to 1e4 K, omega from 1e10 to 1e17 rad/s
  and weak to strong screening: every mechanism x regime x observable is
  finite and >= 0 or raises one of the documented errors, and three angles
  fit the A + B cos^2 law.
"""

import json
import math
import re
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import multivalley as mv
from multivalley.constants import C_LIGHT, E_CHARGE, HBAR
from multivalley.geometry import cos_phi
from multivalley.impurity import combine_endpoints, spectral_endpoints

THETAS_K = (4.2, 77.0, 300.0, 3000.0)
OMEGAS = [float(w) for w in np.geomspace(1e10, 1e17, 15)]


def _kirchhoff_absorption(emission, omega, eps0, s):
    """K_i = dW_i/dOmega * 8 pi^3 c^2 (e^s - 1) / (hbar omega^3 sqrt(eps0)),
    in mpmath; ``emission`` is an mpf."""
    factor = 8 * mp.pi**3 * mp.mpf(C_LIGHT) ** 2 / (
        mp.mpf(HBAR) * mp.mpf(omega) ** 3 * mp.sqrt(eps0)
    )
    return emission * mp.expm1(s) * factor


def _single(theta_K):
    valley = mv.Valley(axis=(0.0, 0.0, 1.0), n=1.0e16, theta=mv.theta_from_kelvin(theta_K))
    return valley, mv.ValleySet((valley,))


@pytest.mark.parametrize("theta_K", THETAS_K)
def test_impurity_kirchhoff_per_valley(ge_material, pol_skew, theta_K):
    valley, vs = _single(theta_K)
    c2 = cos_phi(valley, pol_skew) ** 2
    mat = ge_material
    worst = 0.0
    for omega in OMEGAS:
        s = mp.mpf(HBAR) * omega / valley.theta
        integral = combine_endpoints(spectral_endpoints(mat, valley.theta, omega), c2, mat)
        # closed general emission form, as transcribed in test_emission.py
        pref = (
            E_CHARGE**6
            * mat.n_a
            * math.sqrt(mat.m_par)
            / (
                (2.0 * math.pi) ** 1.5
                * mat.eps0**2
                * C_LIGHT**3
                * (mat.m_par - mat.m_perp) ** 2
            )
        )
        emission = mp.mpf(pref * valley.n / math.sqrt(valley.theta) * integral) * mp.exp(-s)
        want = float(_kirchhoff_absorption(emission, omega, mat.eps0, s))
        got = mv.absorption_impurity(vs, mat, omega, pol_skew, "general")
        worst = max(worst, abs(got / want - 1.0))
    assert worst < 1e-12


@pytest.mark.parametrize("theta_K", THETAS_K)
def test_acoustic_kirchhoff_per_valley(ge_material, pol_skew, theta_K):
    valley, vs = _single(theta_K)
    c2 = cos_phi(valley, pol_skew) ** 2
    mat = ge_material
    weight = (1.0 - c2) / (mat.m_perp * mat.tau_perp0) + c2 / (mat.m_par * mat.tau_par0)
    worst = 0.0
    for omega in OMEGAS:
        a = mp.mpf(HBAR) * omega / (2 * mp.mpf(valley.theta))
        # the emission_acoustic docstring: (2 e0^2/3 pi^{5/2} c^3) n theta
        # e^{-2a} {weight} e^a a^2 K2(a)
        emission = (
            2 * mp.mpf(E_CHARGE) ** 2 / (3 * mp.pi**2.5 * mp.mpf(C_LIGHT) ** 3)
            * valley.n * valley.theta * mp.exp(-2 * a) * weight
            * mp.exp(a) * a**2 * mp.besselk(2, a)
        )
        want = float(_kirchhoff_absorption(emission, omega, mat.eps0, 2 * a))
        got = mv.absorption_acoustic(vs, mat, omega, pol_skew, "general")
        worst = max(worst, abs(got / want - 1.0))
    assert worst < 1e-12


# -- seeded property sweep ----------------------------------------------------

DOCUMENTED_ERRORS = (mv.ConfigError, mv.RegimeError, mv.QuadratureError)
COMBINATIONS = [
    (mechanism, regime, observable)
    for mechanism in ("impurity", "acoustic")
    for regime in ("general", "classical", "quantum")
    for observable in ("absorption", "emission")
]
# Below this a value is a subnormal-range remnant of e^{-hbar omega/theta}
# and carries too few significant digits for a 1e-10 fit.
NORMAL_FLOOR = 1e-290


def _observable(mechanism, observable, valleys, material, omega, pol, regime):
    if observable == "absorption":
        fn = mv.absorption_impurity if mechanism == "impurity" else mv.absorption_acoustic
        return fn(valleys, material, omega, pol, regime)
    fn = mv.emission_impurity if mechanism == "impurity" else mv.emission_acoustic
    return fn(valleys, material, omega, pol, regime).dW_dOmega


def _draws(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        theta_K = float(np.exp(rng.uniform(np.log(4.2), np.log(1e4))))
        omega = float(10.0 ** rng.uniform(10.0, 17.0))
        r_D = float(10.0 ** rng.uniform(-8.0, -3.0))   # strong to weak screening
        axis = rng.normal(size=3)
        across = np.cross(axis, rng.normal(size=3))
        yield theta_K, omega, r_D, axis / np.linalg.norm(axis), across / np.linalg.norm(across)


def test_property_sweep_over_documented_domain():
    evaluated = {combo: 0 for combo in COMBINATIONS}
    for theta_K, omega, r_D, axis, across in _draws(60, 20261017):
        material = mv.Material.from_units(
            m_perp_me=0.082, m_par_me=1.59, eps0=16.0, n_a=1e16,
            tau_perp0=1.2e-12, tau_par0=9e-13, r_D=r_D,
        )
        valleys = mv.ValleySet((
            mv.Valley.from_units(axis=axis, n=1e16, theta_K=theta_K),
        ))
        # polarizations at 0, 90 and 60 degrees from the valley axis
        pols = [
            mv.Polarization.from_vector(math.cos(phi) * axis + math.sin(phi) * across)
            for phi in (0.0, math.pi / 2.0, math.pi / 3.0)
        ]
        for combo in COMBINATIONS:
            mechanism, regime, observable = combo
            try:
                par, perp, third = (
                    _observable(mechanism, observable, valleys, material, omega, p, regime)
                    for p in pols
                )
            except DOCUMENTED_ERRORS:
                continue
            where = f"{combo} at {theta_K:.4g} K, omega={omega:.4e}, r_D={r_D:.3e}"
            values = (par, perp, third)
            assert all(math.isfinite(v) and v >= 0.0 for v in values), (where, values)
            if max(values) > NORMAL_FLOOR:
                predicted = perp + (par - perp) * math.cos(math.pi / 3.0) ** 2
                assert third == pytest.approx(predicted, rel=1e-10, abs=0), where
            evaluated[combo] += 1
    # every combination is reached somewhere in the domain, not only refused
    assert min(evaluated.values()) >= 3, evaluated


# -- far outside the documented domain ---------------------------------------

DOCS = Path(__file__).resolve().parent.parent / "docs"


@pytest.mark.parametrize("mechanism, name, valleys, omega", [
    # n_i at the top of the double range: the impurity value overflows to inf
    ("impurity", "config_ge4_spectrum.json",
     {"preset": "Ge4", "n": 1e308, "theta_K": 300.0}, 1e13),
    # theta_i at the top: n_i theta_i overflows and the result is nan
    ("acoustic", "config_si6_hot_polarization.json",
     {"preset": "Si6", "n": 4e16, "theta_K": 1e308}, 1e12),
])
@pytest.mark.parametrize("observable", ["absorption", "emission"])
def test_non_finite_observable_raises(mechanism, name, valleys, omega, observable):
    # the public observables raise what run_sweep raises (CLI exit 4), naming
    # the column and omega, instead of returning inf or nan
    doc = json.loads((DOCS / name).read_text())
    doc["valleys"] = valleys
    doc["material"]["r_D"] = 3e-5
    config = mv.parse_config(json.dumps(doc))
    column = "K_per_cm" if observable == "absorption" else "dW_dOmega_cgs"
    match = f"{column} is (inf|nan) at omega = " + re.escape(f"{omega:.6e}")
    with pytest.raises(FloatingPointError, match=match):
        _observable(mechanism, observable, config.valleys, config.material, omega,
                    config.polarization, "general")
