"""Free-carrier absorption under anisotropic ionized-impurity scattering.

The general absorption coefficient is a single semi-infinite quadrature per
valley over the dimensionless electron energy x = eps/theta_i, obtained from
the screened-Coulomb collision integral after reducing the momentum-transfer
integral to boundary terms.  Classical (s = hbar*omega/theta << 1) and
quantum (s >> 1) closed forms replicate the standard asymptotics, including
the Conwell-Weisskopf logarithm and the anisotropic relaxation tensor.

Everything here is affine in cos^2(phi_i): the rate core :func:`_rates`
computes each distinct temperature's transverse/longitudinal endpoint
integrals once, over a whole frequency grid in batched quadrature passes
(``quadrature._endpoints``, the numpy core; the closed forms run without
numpy), and returns per-valley columns of (r_perp, r_par) pairs, which the
one projection, ``geometry._project``, combines linearly, so polarization
laws hold to machine precision rather than quadrature tolerance.
Absorption, the absorbed power ``p_plus`` and (in ``emission``) spontaneous
emission all project from the same rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .constants import C_LIGHT, E_CHARGE, HBAR
from .errors import RegimeError
from .geometry import (
    Material,
    Polarization,
    Valley,
    ValleySet,
    Terms,
    _populated,
    _project,
    _value,
    check_omega,
    incident_flux,
)
from .modes import QUANTUM_SCREENING_MIN, Mechanism, Observable, Regime, check_window
from .special import coulomb_log, psi_infinity

__all__ = [
    "RelaxationTensor",
    "x_min",
    "p_plus",
    "absorption_impurity",
    "relaxation_impurity",
    "spectral_endpoints",
    "combine_endpoints",
    "CLASSICAL_COEFF",
]

# Numeric coefficients of the closed forms.
CLASSICAL_COEFF = 1.5 * math.pi**1.5          # 3 pi^{3/2} / 2
_GENERAL_COEFF = (2.0 * math.pi) ** 1.5
# Quantum limit of the general form: the spectral integral tends to
# 2 sqrt(pi/s) Psi(inf), which turns (2 pi)^{3/2} into 2^{5/2} pi^2.
_QUANTUM_COEFF = 2.0**2.5 * math.pi**2


@dataclass(frozen=True)
class RelaxationTensor:
    """Energy-averaged impurity relaxation times (s)."""

    tau_perp: float
    tau_par: float

    def __post_init__(self) -> None:
        if not self.tau_perp > 0.0 or not self.tau_par > 0.0:
            raise ValueError(f"relaxation times must be positive, got {self}")


def x_min(material: Material, theta: float) -> float:
    """Dimensionless energy below which screening cuts off the Coulomb log.

    x_min = hbar^2 / (8 m_perp theta r_D^2), from q_max(x) r_D = 1.
    """
    r_D = material.require_r_D()
    return HBAR**2 / (8.0 * material.m_perp * theta * r_D**2)


def spectral_endpoints(material: Material, theta: float, omega: float) -> tuple[float, float]:
    """Transverse/longitudinal spectral integrals for one valley temperature.

    Returns (I1, I2) with

        I1 = int_0^inf e^-x [B1(b(q_max)) + B1(b(q_min))] / sqrt(x(x+s)) dx
        I2 = likewise with B2,

    so the polarization-resolved integral is
    (1 - c) I1 + c (2 m_perp/m_par) I2 with c = cos^2(phi).  Splitting this
    way keeps the result exactly affine in c.
    """
    from . import quadrature  # at call time: the closed forms run without numpy

    i1, i2 = quadrature._endpoints(material, theta, [omega]).ravel().tolist()
    return i1, i2


def combine_endpoints(
    endpoints: tuple[float, float], cos2phi: float, material: Material
) -> float:
    """Affine combination of the (I1, I2) endpoint integrals."""
    i1, i2 = endpoints
    return (1.0 - cos2phi) * i1 + cos2phi * 2.0 * (material.m_perp / material.m_par) * i2


def _collision_scale(material: Material) -> float:
    """e0^6 n_a sqrt(m_par) / (eps0^{5/2} c (m_par - m_perp)^2), shared by the
    general form and the Psi(inf) closed forms of both observables."""
    return (
        E_CHARGE**6 * material.n_a * math.sqrt(material.m_par)
        / (material.eps0**2.5 * C_LIGHT * material.mass_contrast**2)
    )


def _rates(valleys: ValleySet, material: Material, omegas: Sequence[float]) -> Terms:
    """General-regime rate core: per populated valley, weights of 1 and the
    pair (r_perp, r_par) at every omega.

    The pair is the valley's absorption coefficient (cm^-1) before the
    stimulated-emission factor 1 - e^{-s}, for polarization across and along
    its axis: the factor (2 pi)^{3/2} :func:`_collision_scale` / (hbar omega^3)
    times n_i / sqrt(theta_i) times I1 or 2 (m_perp/m_par) I2 of
    :func:`spectral_endpoints`, which runs over the whole grid once per
    distinct valley temperature.
    """
    from . import quadrature  # at call time: the closed forms run without numpy

    populated = _populated(valleys)
    endpoints = {theta: quadrature._endpoints(material, theta, omegas).tolist()
                 for theta in dict.fromkeys(v.theta for v in populated)}
    coeff = _GENERAL_COEFF * _collision_scale(material)
    twice_ratio = 2.0 * (material.m_perp / material.m_par)
    columns = []
    for v in populated:
        i1s, i2s = endpoints[v.theta]
        scale = v.n / math.sqrt(v.theta)
        columns.append((v, [1.0] * len(omegas), [scale * i1 for i1 in i1s],
                        [scale * (twice_ratio * i2) for i2 in i2s]))
    return [coeff / (HBAR * omega**3) for omega in omegas], columns


def p_plus(
    valley: Valley,
    material: Material,
    omega: float,
    pol: Polarization,
    A0: float,
) -> float:
    """Power absorbed per unit volume by one valley (erg s^-1 cm^-3): its
    rate before the stimulated-emission factor times the incident flux of a
    wave of amplitude A0."""
    check_omega(omega)
    (factor,), columns = _rates(ValleySet((valley,)), material, [omega])
    terms = [factor * incident_flux(omega, A0, material.eps0)], columns
    ((value,),) = _project(terms, material, [omega], pol, [(Observable.ABSORPTION, None)])
    return value


def check_classical_impurity(valleys: ValleySet, omegas: Sequence[float]) -> None:
    """Guard for the classical impurity closed form; raises RegimeError.  Its
    condition on x_min is :func:`special.coulomb_log`'s, which
    :func:`relaxation_impurity` reaches on the same path."""
    check_window(valleys, omegas, Regime.CLASSICAL, "impurity")


def check_quantum_impurity(valleys: ValleySet, material: Material, omegas: Sequence[float]) -> None:
    """Quantum impurity guards, at each omega screening before the window; raises RegimeError."""
    r_D = material.require_r_D()
    for omega in omegas:
        screening = 2.0 * material.m_perp * omega * r_D**2 / HBAR  # (q_omega r_D)^2
        if screening < QUANTUM_SCREENING_MIN:
            raise RegimeError(
                f"quantum impurity form needs (q_omega r_D)^2 >= {QUANTUM_SCREENING_MIN:g}, "
                f"got {screening:.3e} at omega = {omega:.6e} rad/s"
            )
        check_window(valleys, (omega,), Regime.QUANTUM, "impurity")


def _classical_absorption(valleys: ValleySet, material: Material,
                          omegas: Sequence[float]) -> Terms:
    """Classical closed-form absorption terms: (3 pi^{3/2}/2) e0^2 n_i /
    (sqrt(eps0) c omega^2) times (1/(m_perp tau_perp), 1/(m_par tau_par))."""
    check_classical_impurity(valleys, omegas)
    coeff = CLASSICAL_COEFF * E_CHARGE**2 / math.sqrt(material.eps0)
    populated, count = _populated(valleys), len(omegas)
    taus = {t: relaxation_impurity(material, t) for t in dict.fromkeys(v.theta for v in populated)}
    columns = [(v, [v.n] * count, [1.0 / (material.m_perp * taus[v.theta].tau_perp)] * count,
                [1.0 / (material.m_par * taus[v.theta].tau_par)] * count) for v in populated]
    return [coeff / (C_LIGHT * omega**2) for omega in omegas], columns


def _quantum_absorption(valleys: ValleySet, material: Material,
                        omegas: Sequence[float]) -> Terms:
    """Quantum closed-form absorption terms: the unscreened shape function
    Psi(inf) times n_i / (hbar omega)^{3/2}, an omega^-3.5 law.  The (hbar omega)^{3/2} divides
    the weights, not the factor, whose omega^2 times it would overflow above ~3e99 rad/s."""
    check_quantum_impurity(valleys, material, omegas)
    scale, count = _QUANTUM_COEFF * _collision_scale(material), len(omegas)
    psi_perp, psi_par = psi_infinity(material)
    columns = [(v, [v.n / (HBAR * omega) ** 1.5 for omega in omegas], [psi_perp] * count,
                [psi_par] * count) for v in _populated(valleys)]
    return [scale / omega**2 for omega in omegas], columns


def absorption_impurity(
    valleys: ValleySet,
    material: Material,
    omega: float,
    pol: Polarization,
    regime: Regime | str = Regime.GENERAL,
) -> float:
    """Absorption coefficient K (cm^-1) under ionized-impurity scattering.

    ``general`` projects the rate core net of stimulated emission;
    ``classical`` and ``quantum`` evaluate the closed-form limits and refuse
    to run outside their validity windows (RegimeError) rather than
    extrapolate silently.
    omega outside [1e-50, 1e100] rad/s raises ConfigError (:func:`geometry.check_omega`).
    """
    return _value(Mechanism.IMPURITY, Observable.ABSORPTION, valleys, material, omega, pol, regime)


def relaxation_impurity(material: Material, theta: float) -> RelaxationTensor:
    """Anisotropic impurity relaxation tensor at electron temperature theta.

    1/tau_perp = (8/3) e0^4 sqrt(2 m_par) / (eps0^2 m_perp theta^{3/2})
                 * n_a * (b0/2) [b0 + (1 - b0^2) arctan(1/b0)] * L,
    1/tau_par  = same with m_par and b0 [-b0 + (1 + b0^2) arctan(1/b0)],

    where L is the Conwell-Weisskopf logarithm at x_min(theta).
    """
    log_term = coulomb_log(x_min(material, theta))
    b0 = math.sqrt(material.m_perp / material.mass_contrast)
    at = math.atan2(1.0, b0)
    base = (
        (8.0 / 3.0)
        * E_CHARGE**4
        * math.sqrt(2.0 * material.m_par)
        / (material.eps0**2 * theta**1.5)
        * material.n_a
        * log_term
    )
    inv_tau_perp = base / material.m_perp * 0.5 * b0 * (b0 + (1.0 - b0 * b0) * at)
    inv_tau_par = base / material.m_par * b0 * (-b0 + (1.0 + b0 * b0) * at)
    return RelaxationTensor(tau_perp=1.0 / inv_tau_perp, tau_par=1.0 / inv_tau_par)
