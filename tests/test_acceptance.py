"""Acceptance suite: every exit criterion, each at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one pass/fail line
per criterion.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

import multivalley as mv
from multivalley import cli, oracles
from multivalley.constants import C_LIGHT, E_CHARGE, HBAR
from multivalley.geometry import cos_phi
from multivalley.impurity import (
    combine_endpoints,
    p_plus,
    relaxation_impurity,
    spectral_endpoints,
    x_min,
)
from multivalley.special import coulomb_log, psi_infinity


def _report(num, ok, detail):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _material(r_D=3.0e-5, **overrides):
    kwargs = dict(
        m_perp_me=0.082, m_par_me=1.59, eps0=16.0, n_a=1.0e16,
        tau_perp0=1.2e-12, tau_par0=9.0e-13, r_D=r_D,
    )
    kwargs.update(overrides)
    return mv.Material.from_units(**kwargs)


THETA = mv.theta_from_kelvin(300.0)


def _omega_s(s):
    return s * THETA / HBAR


def _valley(n=1.0e16):
    return mv.Valley(axis=(0.0, 0.0, 1.0), n=n, theta=THETA)


POL = mv.Polarization.from_vector([0.3, -0.5, 0.9])


def test_criterion_01_angular_integral_certification():
    rng = np.random.default_rng(20260810)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        m_perp = float(rng.uniform(0.05, 0.5))
        ratio = float(rng.uniform(1.5, 20.0))
        mat = mv.Material.from_units(
            m_perp_me=m_perp, m_par_me=m_perp * ratio, eps0=16.0, n_a=1e16,
            tau_perp0=1e-12, tau_par0=1e-12, r_D=float(10 ** rng.uniform(-6.5, -4.0)),
        )
        q_star = float(10 ** rng.uniform(3.5, 6.5))
        a_perp = float(rng.uniform(0.1, 5.0))
        a_par = float(rng.uniform(0.1, 5.0))
        numeric = oracles.angular_integral_numeric(q_star, mat.r_D, mat, a_perp, a_par)
        closed = oracles.angular_integral_closed(q_star, mat.r_D, mat, a_perp, a_par)
        worst = max(worst, abs(numeric / closed - 1.0))
    elapsed = time.perf_counter() - started
    _report(
        1,
        worst <= 1e-8 and elapsed < 60.0,
        f"angular integral closed vs sphere quadrature: max rel err "
        f"{worst:.2e} over 20 draws in {elapsed:.1f} s",
    )


def test_criterion_02_integration_by_parts_certification():
    rng = np.random.default_rng(7070)
    started = time.perf_counter()
    worst = 0.0
    mat = _material()
    for _ in range(10):
        theta = mv.theta_from_kelvin(float(rng.uniform(100.0, 600.0)))
        valley = mv.Valley(axis=(0.0, 0.0, 1.0), n=1e16, theta=theta)
        s = float(rng.uniform(0.05, 4.0))
        omega = s * theta / HBAR
        pol = mv.Polarization.from_vector(rng.normal(size=3))
        double = oracles.double_integral_direct(valley, mat, omega, pol)
        boundary = oracles.boundary_term_integral(valley, mat, omega, pol)
        worst = max(worst, abs(double / boundary - 1.0))
    elapsed = time.perf_counter() - started
    _report(
        2,
        worst <= 1e-6 and elapsed < 120.0,
        f"double integral vs boundary-term reduction: max rel err "
        f"{worst:.2e} over 10 draws in {elapsed:.1f} s",
    )


def test_criterion_03_detailed_balance():
    mat = _material()
    valley = _valley()
    worst = 0.0
    for s in (0.1, 1.0, 5.0):
        omega = _omega_s(s)
        direct = oracles.p_minus_direct(valley, mat, omega, POL, 1.0)
        plus = p_plus(valley, mat, omega, POL, 1.0)
        worst = max(worst, abs(direct / plus / (-math.exp(-s)) - 1.0))
    _report(
        3,
        worst <= 1e-8,
        f"p_minus_direct/p_plus vs -e^-s at s in (0.1, 1, 5): "
        f"max rel err {worst:.2e}",
    )


def test_criterion_04_impurity_classical_limit():
    mat = _material()
    vs = mv.ValleySet((_valley(),))
    xm = x_min(mat, THETA)
    deviations = []
    for s in (1e-1, 1e-2, 1e-3):
        omega = _omega_s(s)
        kg = mv.absorption_impurity(vs, mat, omega, POL, "general")
        kc = mv.absorption_impurity(vs, mat, omega, POL, "classical")
        deviations.append(abs(kg / kc - 1.0))
    monotone = deviations[0] > deviations[1] > deviations[2]
    _report(
        4,
        xm <= 1e-4 and deviations[2] <= 0.15 and monotone,
        f"impurity general vs classical: x_min={xm:.2e}, deviations "
        f"{deviations[0]:.3f} > {deviations[1]:.3f} > {deviations[2]:.3f}, "
        f"final <= 0.15",
    )


def test_criterion_05_impurity_quantum_limit():
    mat = _material()
    vs = mv.ValleySet((_valley(),))
    omega = _omega_s(100.0)
    screening = 2.0 * mat.m_perp * omega * mat.r_D**2 / HBAR
    kg = mv.absorption_impurity(vs, mat, omega, POL, "general")
    kq = mv.absorption_impurity(vs, mat, omega, POL, "quantum")
    ratio_dev = abs(kg / kq - 1.0)
    omegas = np.geomspace(_omega_s(100.0), _omega_s(1000.0), 9)
    ks = [mv.absorption_impurity(vs, mat, float(w), POL, "quantum") for w in omegas]
    slope = float(np.polyfit(np.log(omegas), np.log(ks), 1)[0])
    _report(
        5,
        screening >= 1e3 and ratio_dev <= 0.05 and abs(slope + 3.5) <= 1e-3,
        f"impurity quantum: (q_omega r_D)^2={screening:.1e}, general/quantum "
        f"dev {ratio_dev:.3f} <= 0.05, log-log slope {slope:.5f} vs -3.5",
    )


def test_criterion_06_acoustic_limits():
    mat = _material()
    vs = mv.ValleySet((_valley(),))
    omega_cl = 2.0 * 1e-2 * THETA / HBAR  # a = 1e-2
    dev_cl = abs(
        mv.absorption_acoustic(vs, mat, omega_cl, POL, "general")
        / mv.absorption_acoustic(vs, mat, omega_cl, POL, "classical")
        - 1.0
    )
    omega_q = 2.0 * 20.0 * THETA / HBAR  # a = 20
    dev_q = abs(
        mv.absorption_acoustic(vs, mat, omega_q, POL, "general")
        / mv.absorption_acoustic(vs, mat, omega_q, POL, "quantum")
        - 1.0
    )
    w1, w2 = _omega_s(1e-3), _omega_s(1e-2)
    k1 = mv.absorption_acoustic(vs, mat, w1, POL, "classical")
    k2 = mv.absorption_acoustic(vs, mat, w2, POL, "classical")
    slope = math.log(k2 / k1) / math.log(w2 / w1)
    _report(
        6,
        dev_cl <= 0.01 and dev_q <= 0.03 and abs(slope + 2.0) <= 1e-6,
        f"acoustic: general/classical dev {dev_cl:.4f} <= 1% at a=1e-2, "
        f"general/quantum dev {dev_q:.4f} <= 3% at a=20, classical slope "
        f"{slope:.8f} vs -2",
    )


def test_criterion_07_cubic_symmetry_isotropy():
    mat = _material()
    rng = np.random.default_rng(314159)
    omega = _omega_s(1.0)
    worst = 0.0
    for preset, cos2_sum in (("Ge4", 4.0 / 3.0), ("Si6", 2.0)):
        vs = mv.load_preset(preset).with_population(1e16, THETA)
        pols = [mv.Polarization.from_vector(rng.normal(size=3)) for _ in range(8)]
        sums = [sum(cos_phi(v, p) ** 2 for v in vs) for p in pols]
        assert max(abs(t - cos2_sum) for t in sums) < 1e-12
        for values in (
            [mv.absorption_impurity(vs, mat, omega, p, "general") for p in pols],
            [mv.absorption_acoustic(vs, mat, omega, p, "general") for p in pols],
            [mv.emission_impurity(vs, mat, omega, p, "general").dW_dOmega for p in pols],
            [mv.emission_acoustic(vs, mat, omega, p, "general").dW_dOmega for p in pols],
        ):
            worst = max(worst, (max(values) - min(values)) / values[0])
    _report(
        7,
        worst <= 1e-12,
        f"Ge4/Si6 equal-population isotropy of K and dW/dOmega over 8 random "
        f"polarizations: max rel spread {worst:.2e}",
    )


def test_criterion_08_polarization_law():
    mat = _material()
    vs = mv.ValleySet((_valley(),))
    regimes = {"general": 1.0, "classical": 0.02, "quantum": 40.0}
    worst = 0.0

    def value(mechanism, regime, omega, pol):
        if mechanism == "impurity":
            k = mv.absorption_impurity(vs, mat, omega, pol, regime)
            w = mv.emission_impurity(vs, mat, omega, pol, regime).dW_dOmega
        else:
            k = mv.absorption_acoustic(vs, mat, omega, pol, regime)
            w = mv.emission_acoustic(vs, mat, omega, pol, regime).dW_dOmega
        return k, w

    for mechanism in ("impurity", "acoustic"):
        for regime, s in regimes.items():
            omega = _omega_s(s)
            samples = {}
            for phi in (0.0, math.pi / 2.0, math.pi / 3.0):
                pol = mv.Polarization.from_vector(
                    [math.sin(phi), 0.0, math.cos(phi)]
                )
                samples[phi] = value(mechanism, regime, omega, pol)
            for idx in (0, 1):
                a_coeff = samples[math.pi / 2.0][idx]
                b_coeff = samples[0.0][idx] - a_coeff
                predicted = a_coeff + b_coeff * math.cos(math.pi / 3.0) ** 2
                worst = max(worst, abs(samples[math.pi / 3.0][idx] / predicted - 1.0))
    _report(
        8,
        worst <= 1e-10,
        f"A + B cos^2 fit from two angles predicts a third, all mechanism x "
        f"regime x observable: max rel err {worst:.2e}",
    )


def test_criterion_09_emission_limits():
    mat = _material()
    vs = mv.ValleySet((_valley(),))
    # classical acoustic branch is frequency-flat
    w1 = mv.emission_acoustic(vs, mat, _omega_s(1e-3), POL, "classical").dW_dOmega
    w2 = mv.emission_acoustic(vs, mat, _omega_s(5e-2), POL, "classical").dW_dOmega
    flat_dev = abs(w1 / w2 - 1.0)
    # acoustic general vs classical at a = 1e-2
    omega_a = 2.0 * 1e-2 * THETA / HBAR
    ac_dev = abs(
        mv.emission_acoustic(vs, mat, omega_a, POL, "general").dW_dOmega
        / mv.emission_acoustic(vs, mat, omega_a, POL, "classical").dW_dOmega
        - 1.0
    )
    # impurity general vs classical at s = 1e-3
    omega_i = _omega_s(1e-3)
    imp_dev = abs(
        mv.emission_impurity(vs, mat, omega_i, POL, "general").dW_dOmega
        / mv.emission_impurity(vs, mat, omega_i, POL, "classical").dW_dOmega
        - 1.0
    )
    # the two classical impurity emission forms
    produced = mv.emission_impurity(vs, mat, omega_i, POL, "classical").dW_dOmega
    tau = relaxation_impurity(mat, THETA)
    valley = vs.valleys[0]
    c2 = cos_phi(valley, POL) ** 2
    tensor_form = (
        3.0
        * E_CHARGE**2
        / (16.0 * math.pi**1.5 * C_LIGHT**3)
        * valley.n
        * valley.theta
        * ((1.0 - c2) / (mat.m_perp * tau.tau_perp) + c2 / (mat.m_par * tau.tau_par))
    )
    forms_dev = abs(produced / tensor_form - 1.0)
    _report(
        9,
        flat_dev <= 1e-12 and ac_dev <= 0.01 and imp_dev <= 0.15
        and forms_dev <= 1e-12,
        f"emission limits: classical acoustic flatness {flat_dev:.1e}, "
        f"acoustic general/classical dev {ac_dev:.4f} <= 1%, impurity "
        f"general/classical dev {imp_dev:.3f} <= 15%, classical-form "
        f"equivalence {forms_dev:.1e}",
    )


def test_criterion_10_cross_mechanism_coefficient_ratio():
    tau = relaxation_impurity(_material(), THETA)
    mat = dataclasses.replace(
        _material(), tau_perp0=tau.tau_perp, tau_par0=tau.tau_par
    )
    vs = mv.ValleySet((_valley(),))
    omega = _omega_s(0.01)
    ratio = mv.absorption_impurity(vs, mat, omega, POL, "classical") / (
        mv.absorption_acoustic(vs, mat, omega, POL, "classical")
    )
    dev = abs(ratio / (9.0 * math.pi / 64.0) - 1.0)
    _report(
        10,
        dev <= 1e-12,
        f"classical impurity/acoustic coefficient ratio {ratio:.15f} vs "
        f"9 pi/64, rel dev {dev:.2e}",
    )


def test_criterion_11_cli_determinism(tmp_path):
    doc = {
        "material": {
            "m_perp": 0.082, "m_par": 1.59, "eps0": 16.0, "n_a": 1.0e16,
            "r_D": 3.0e-5, "tau_perp0": 1.2e-12, "tau_par0": 9.0e-13,
        },
        "valleys": {"preset": "Ge4", "n": 1.0e16, "theta_K": 300.0},
        "polarization": [0.0, 0.0, 1.0],
        "mechanism": "impurity",
        "regime": "general",
        "observable": "both",
        "workers": 4,
        "sweep": {"kind": "omega", "min": 1.0e13, "max": 1.0e14, "points": 8,
                  "scale": "log"},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    out1 = tmp_path / "run1.csv"
    out2 = tmp_path / "run2.csv"
    code1 = cli.main(["--config", str(cfg), "--output", str(out1)])
    code2 = cli.main(["--config", str(cfg), "--output", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    _report(
        11,
        code1 == 0 and code2 == 0 and identical,
        f"CLI reruns with 4 worker threads byte-identical: {identical} "
        f"({out1.stat().st_size} bytes)",
    )
