"""Free-carrier absorption under anisotropic ionized-impurity scattering.

The general absorption coefficient is a single semi-infinite quadrature per
valley over the dimensionless electron energy x = eps/theta_i, obtained from
the screened-Coulomb collision integral after reducing the momentum-transfer
integral to boundary terms.  Classical (s = hbar*omega/theta << 1) and
quantum (s >> 1) closed forms replicate the standard asymptotics, including
the Conwell-Weisskopf logarithm and the anisotropic relaxation tensor.

Everything here is affine in cos^2(phi_i): the rate core :func:`_rates`
computes each distinct temperature's transverse/longitudinal endpoint
integrals once and returns per-valley (r_perp, r_par) pairs, which the
shared projection combines linearly, so polarization laws hold to machine
precision rather than quadrature tolerance.  Absorption, the absorbed power
``p_plus`` and (in ``emission``) spontaneous emission all project from the
same rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import C_LIGHT, E_CHARGE, HBAR
from .errors import RegimeError
from .geometry import (
    Material,
    Polarization,
    Valley,
    ValleySet,
    Terms,
    _absorbed,
    _populated,
    _project,
    incident_flux,
)
from .modes import (
    CLASSICAL_S_MAX,
    QUANTUM_S_MIN,
    QUANTUM_SCREENING_MIN,
    XMIN_MAX,
    Regime,
)
from .quadrature import integrate_spectral
from .special import coulomb_log, psi_infinity, shape_b1, shape_b2

__all__ = [
    "RelaxationTensor",
    "x_min",
    "p_plus",
    "p_minus",
    "absorption_impurity",
    "relaxation_impurity",
    "mobility_impurity",
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
_MOBILITY_COEFF = 8.0 / math.sqrt(math.pi)


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
    s = HBAR * omega / theta
    kappa = math.sqrt(2.0 * material.m_perp * theta) / HBAR
    r_D = material.require_r_D()
    b0_sq = material.m_perp / material.mass_contrast
    inv_rd_sq = 1.0 / (r_D * r_D)

    def b_at(q: float) -> float:
        return math.sqrt(b0_sq * (1.0 + inv_rd_sq / (q * q)))

    def window(x: float) -> tuple[float, float]:
        root_x = math.sqrt(x)
        root_xs = math.sqrt(x + s)
        return kappa * (root_xs - root_x), kappa * (root_xs + root_x)

    def g1(x: float) -> float:
        q_lo, q_hi = window(x)
        return shape_b1(b_at(q_hi)) + shape_b1(b_at(q_lo))

    def g2(x: float) -> float:
        q_lo, q_hi = window(x)
        return shape_b2(b_at(q_hi)) + shape_b2(b_at(q_lo))

    return integrate_spectral(g1, s), integrate_spectral(g2, s)


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


def _rates(valleys: ValleySet, material: Material, omega: float) -> Terms:
    """General-regime rate core: per populated valley, (valley, s, r_perp, r_par).

    The pair is the valley's absorption coefficient (cm^-1) before the
    stimulated-emission factor 1 - e^{-s}, for polarization across and along
    its axis: the factor (2 pi)^{3/2} :func:`_collision_scale` / (hbar omega^3)
    times n_i / sqrt(theta_i) times I1 or 2 (m_perp/m_par) I2 of
    :func:`spectral_endpoints`, which runs once per distinct valley
    temperature.
    """
    factor = _GENERAL_COEFF * _collision_scale(material) / (HBAR * omega**3)
    endpoints: dict[float, tuple[float, float]] = {}
    rates = []
    for v in _populated(valleys):
        if v.theta not in endpoints:
            endpoints[v.theta] = spectral_endpoints(material, v.theta, omega)
        scale = v.n / math.sqrt(v.theta)
        rates.append((
            v,
            HBAR * omega / v.theta,
            scale * combine_endpoints(endpoints[v.theta], 0.0, material),
            scale * combine_endpoints(endpoints[v.theta], 1.0, material),
        ))
    return factor, rates


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
    if not omega > 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    factor, rates = _rates(ValleySet((valley,)), material, omega)
    flux = incident_flux(omega, A0, material.eps0)
    return _project((factor * flux, [(v, 1.0, rp, rl) for v, _s, rp, rl in rates]), pol)


def p_minus(
    valley: Valley,
    material: Material,
    omega: float,
    pol: Polarization,
    A0: float,
) -> float:
    """Power emitted per unit volume by one valley; detailed balance gives
    p_minus = -exp(-hbar omega/theta) p_plus (negative: energy leaves the
    electrons)."""
    s = HBAR * omega / valley.theta
    return -math.exp(-s) * p_plus(valley, material, omega, pol, A0)


def check_classical_impurity(valleys: ValleySet, material: Material, omega: float) -> None:
    """Guards for the classical impurity closed form; raises RegimeError."""
    for v in _populated(valleys):
        s = HBAR * omega / v.theta
        if s > CLASSICAL_S_MAX:
            raise RegimeError(
                f"classical impurity form needs hbar*omega/theta <= "
                f"{CLASSICAL_S_MAX}, got {s:.3e} at omega = {omega:.6e} rad/s"
            )
        xm = x_min(material, v.theta)
        if xm >= XMIN_MAX:
            raise RegimeError(
                f"classical impurity form needs x_min < {XMIN_MAX}, got {xm:.3e} "
                "(screening too strong for the logarithmic approximation)"
            )


def check_quantum_impurity(valleys: ValleySet, material: Material, omega: float) -> None:
    """Guards for the quantum impurity closed form; raises RegimeError."""
    r_D = material.require_r_D()
    screening = 2.0 * material.m_perp * omega * r_D**2 / HBAR  # (q_omega r_D)^2
    if screening < QUANTUM_SCREENING_MIN:
        raise RegimeError(
            f"quantum impurity form needs (q_omega r_D)^2 >= "
            f"{QUANTUM_SCREENING_MIN:g}, got {screening:.3e}"
        )
    for v in _populated(valleys):
        s = HBAR * omega / v.theta
        if s < QUANTUM_S_MIN:
            raise RegimeError(
                f"quantum impurity form needs hbar*omega/theta >= "
                f"{QUANTUM_S_MIN}, got {s:.3e} at omega = {omega:.6e} rad/s"
            )


def _classical_absorption(valleys: ValleySet, material: Material, omega: float) -> Terms:
    """Classical closed-form absorption terms: (3 pi^{3/2}/2) e0^2 n_i /
    (sqrt(eps0) c omega^2) times (1/(m_perp tau_perp), 1/(m_par tau_par))."""
    check_classical_impurity(valleys, material, omega)
    pref = CLASSICAL_COEFF * E_CHARGE**2 / math.sqrt(material.eps0) / (C_LIGHT * omega**2)
    terms = []
    for v in _populated(valleys):
        tau = relaxation_impurity(material, v.theta)
        pair = 1.0 / (material.m_perp * tau.tau_perp), 1.0 / (material.m_par * tau.tau_par)
        terms.append((v, v.n, *pair))
    return pref, terms


def _quantum_absorption(valleys: ValleySet, material: Material, omega: float) -> Terms:
    """Quantum closed-form absorption terms: the unscreened shape function
    Psi(inf) times n_i, an omega^-3.5 law."""
    check_quantum_impurity(valleys, material, omega)
    pref = _QUANTUM_COEFF * _collision_scale(material) / (omega**2 * (HBAR * omega) ** 1.5)
    psi_perp, psi_par = psi_infinity(0.0, material), psi_infinity(1.0, material)
    return pref, [(v, v.n, psi_perp, psi_par) for v in _populated(valleys)]


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
    """
    if not omega > 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    regime = Regime(regime)
    if regime is Regime.GENERAL:
        terms = _absorbed(_rates(valleys, material, omega))
    elif regime is Regime.CLASSICAL:
        terms = _classical_absorption(valleys, material, omega)
    else:
        terms = _quantum_absorption(valleys, material, omega)
    return _project(terms, pol)


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


def mobility_impurity(material: Material, theta: float) -> tuple[float, float]:
    """(mu_perp, mu_par) = (8/sqrt(pi)) e0 tau_alpha / m_alpha, CGS units."""
    tau = relaxation_impurity(material, theta)
    mu_perp = _MOBILITY_COEFF * E_CHARGE * tau.tau_perp / material.m_perp
    mu_par = _MOBILITY_COEFF * E_CHARGE * tau.tau_par / material.m_par
    return mu_perp, mu_par
