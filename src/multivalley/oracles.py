"""Brute-force evaluations of the pre-reduction collision integrals.

These exist to certify the analytic reductions used by the production code:
the closed-form angular integral against a direct unit-sphere quadrature, the
integration-by-parts identity behind the single-integral absorbed power, and
the energy-shift relation behind detailed balance.  :func:`spectral_integral`
is the adaptive (QUADPACK) reference for the fixed spectral rule of
``quadrature``.  The module also holds the references that only the
certification evaluates: the unit-sphere rule, the screened shape parameter
:func:`b_param` and the screened shape function :func:`psi`.  They ship with
the library so the certification is reproducible outside CI; nothing on the
runtime path imports this module, and none of it is public API.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate as _sci_integrate

from .constants import C_LIGHT, E_CHARGE, HBAR
from .errors import ConfigError, QuadratureError
from .geometry import Material, Polarization, Valley, cos_phi
from .special import shape_b1, shape_b2

__all__ = [
    "ShapeParams",
    "b_param",
    "psi",
    "integrate_unit_sphere",
    "spectral_integral",
    "angular_integral_numeric",
    "angular_integral_closed",
    "momentum_window_integral",
    "double_integral_direct",
    "boundary_term_integral",
    "collision_prefactor",
    "p_minus_direct",
]

# e^-x envelope truncation for the outer energy integrals.
_X_CUT = 42.0


def _quad(f: Callable[[float], float], a: float, b: float, rel: float) -> float:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", _sci_integrate.IntegrationWarning)
        result = _sci_integrate.quad(f, a, b, epsabs=1e-300, epsrel=rel,
                                     limit=300, full_output=1)
    if len(result) > 3:
        raise QuadratureError(f"oracle quadrature failed: {result[3]}",
                              estimate=result[1])
    return result[0]


@dataclass(frozen=True)
class ShapeParams:
    """Screening/anisotropy parameter pair.

    ``b0`` is the pure mass-anisotropy value, b0^2 = m_perp/(m_par - m_perp);
    ``b`` includes Debye screening, b^2 = b0^2 * (1 + 1/(q* r_D)^2), so
    b >= b0 with equality in the unscreened (q* r_D -> inf) limit.
    """

    b: float
    b0: float


def b_param(q_star: float, r_D: float, m_perp: float, m_par: float) -> ShapeParams:
    """Shape parameters at momentum transfer ``q_star`` (cm^-1).

    ``q_star = math.inf`` is accepted as the unscreened limit and returns
    b = b0 exactly.
    """
    if m_par <= m_perp:
        raise ConfigError(
            f"m_par ({m_par}) must exceed m_perp ({m_perp}): "
            "the shape factors assume prolate valleys"
        )
    b0 = math.sqrt(m_perp / (m_par - m_perp))
    if math.isinf(q_star):
        return ShapeParams(b=b0, b0=b0)
    if q_star <= 0.0 or r_D <= 0.0:
        raise ValueError("q_star and r_D must be positive")
    b = b0 * math.sqrt(1.0 + 1.0 / (q_star * r_D) ** 2)
    return ShapeParams(b=b, b0=b0)


def psi(q_star: float, cos2phi: float, material: Material) -> float:
    """Polarization-weighted shape function at momentum transfer ``q_star``.

    Affine in cos^2(phi): the transverse endpoint is B1(b), the longitudinal
    endpoint is 2 (m_perp/m_par) B2(b).
    """
    if not 0.0 <= cos2phi <= 1.0:
        raise ValueError(f"cos2phi must lie in [0, 1], got {cos2phi}")
    params = b_param(q_star, material.require_r_D(), material.m_perp, material.m_par)
    b1 = shape_b1(params.b)
    b2 = shape_b2(params.b)
    return (1.0 - cos2phi) * b1 + cos2phi * 2.0 * (material.m_perp / material.m_par) * b2


_SPHERE_LEVELS = (8, 16, 32, 64, 128, 256, 512)


def integrate_unit_sphere(
    f: Callable[[np.ndarray], float],
    rel_tol: float = 1e-10,
) -> float:
    """Integral of ``f(direction)`` over the unit sphere.

    Product rule: Gauss-Legendre in cos(theta), uniform trapezoid in azimuth
    (spectrally accurate for periodic integrands).  The node count doubles
    until two successive levels agree to ``rel_tol`` relative.
    """
    previous = None
    for n_polar in _SPHERE_LEVELS:
        nodes, weights = np.polynomial.legendre.leggauss(n_polar)
        n_azimuth = 2 * n_polar
        phis = 2.0 * math.pi * np.arange(n_azimuth) / n_azimuth
        total = 0.0
        for u, w in zip(nodes, weights):
            sin_theta = math.sqrt(max(0.0, 1.0 - u * u))
            ring = 0.0
            for phi in phis:
                direction = np.array(
                    [sin_theta * math.cos(phi), sin_theta * math.sin(phi), u]
                )
                ring += f(direction)
            total += w * ring
        total *= 2.0 * math.pi / n_azimuth
        if previous is not None:
            scale = max(abs(total), abs(previous), 1e-300)
            if abs(total - previous) <= rel_tol * scale:
                return total
        previous = total
    raise QuadratureError(
        f"unit-sphere quadrature did not converge to rel_tol={rel_tol:g} "
        f"within {_SPHERE_LEVELS[-1]} polar nodes",
        estimate=abs(total - previous) if previous is not None else None,
    )


def spectral_integral(g: Callable[[float], float], s: float, rel_tol: float = 1e-12) -> float:
    """Adaptive reference for ``quadrature.integrate_spectral_with_error``:

        int_0^inf e^-x g(x) / sqrt(x (x + s)) dx,  g called with one float x,

    by QUADPACK on the same substitution x = t^2 and the same e^-x envelope
    truncation at x = -ln(rel_tol) + 18.5.
    """
    if s < 0.0:
        raise ValueError(f"s must be non-negative, got {s}")

    def transformed(t: float) -> float:
        x = t * t
        return 2.0 * math.exp(-x) * g(x) / math.sqrt(x + s)

    return _quad(transformed, 0.0, math.sqrt(-math.log(rel_tol) + 18.5), rel_tol)


def angular_integral_numeric(
    q_star: float,
    r_D: float,
    material: Material,
    A_perp: float,
    A_par: float,
    rel_tol: float = 1e-10,
) -> float:
    """Direct angular integral over the deformed momentum-transfer sphere.

    Integrates gamma^2 / (q_lab^2 + 1/r_D^2)^2 over the directions of the
    deformed vector q*, with gamma = A_perp q_x + (m_perp/m_par) A_par q_par
    built from the laboratory components (valley axis along z,
    q_par = sqrt(m_par/m_perp) q*_z, transverse components unchanged).
    """
    if q_star <= 0.0 or r_D <= 0.0:
        raise ValueError("q_star and r_D must be positive")
    stretch = math.sqrt(material.m_par / material.m_perp)
    mass_ratio = material.m_perp / material.m_par
    inv_rd_sq = 1.0 / (r_D * r_D)

    def integrand(direction: np.ndarray) -> float:
        q_x = q_star * direction[0]
        q_y = q_star * direction[1]
        q_par = stretch * q_star * direction[2]
        gamma = A_perp * q_x + mass_ratio * A_par * q_par
        denom = q_x * q_x + q_y * q_y + q_par * q_par + inv_rd_sq
        return gamma * gamma / (denom * denom)

    return integrate_unit_sphere(integrand, rel_tol)


def angular_integral_closed(
    q_star: float,
    r_D: float,
    material: Material,
    A_perp: float,
    A_par: float,
) -> float:
    """Closed form of :func:`angular_integral_numeric`:

    (pi/q*^2) (m_perp/(m_par - m_perp))^2
        { A_perp^2 B1(b) + 2 (m_perp/m_par) A_par^2 B2(b) }.
    """
    return _y_closed(q_star, r_D, material, A_perp**2, A_par**2)


def _y_closed(
    q: float, r_D: float, material: Material, a_perp_sq: float, a_par_sq: float
) -> float:
    """:func:`angular_integral_closed` in the squared amplitudes, with b from
    :func:`b_param`."""
    b = b_param(q, r_D, material.m_perp, material.m_par).b
    bracket = (
        a_perp_sq * shape_b1(b)
        + 2.0 * (material.m_perp / material.m_par) * a_par_sq * shape_b2(b)
    )
    return math.pi / (q * q) * (material.m_perp / material.mass_contrast) ** 2 * bracket


def _amplitudes(pol: Polarization, valley: Valley, A0: float) -> tuple[float, float]:
    c2 = cos_phi(valley, pol) ** 2
    return (1.0 - c2) * A0 * A0, c2 * A0 * A0


def momentum_window_integral(
    x: float,
    valley: Valley,
    material: Material,
    omega: float,
    pol: Polarization,
    A0: float = 1.0,
    rel_tol: float = 1e-11,
) -> float:
    """Inner integral int_{q_min(x)}^{q_max(x)} dq q y(q) at dimensionless
    energy x; zero when the kinematic window has zero width (x = 0)."""
    theta = valley.theta
    s = HBAR * omega / theta
    kappa = math.sqrt(2.0 * material.m_perp * theta) / HBAR
    r_D = material.require_r_D()
    a_perp_sq, a_par_sq = _amplitudes(pol, valley, A0)
    root_x = math.sqrt(x)
    root_xs = math.sqrt(x + s)
    q_lo = kappa * (root_xs - root_x)
    q_hi = kappa * (root_xs + root_x)
    if q_hi <= q_lo:
        return 0.0
    return _quad(
        lambda q: q * _y_closed(q, r_D, material, a_perp_sq, a_par_sq),
        q_lo,
        q_hi,
        rel_tol,
    )


def double_integral_direct(
    valley: Valley,
    material: Material,
    omega: float,
    pol: Polarization,
    A0: float = 1.0,
    rel_tol: float = 1e-10,
) -> float:
    """Nested quadrature of the pre-reduction double integral (absorption
    branch):

        int_0^inf d(eps) e^{-eps/theta}
            int_{q_min(eps)}^{q_max(eps)} dq q y(q).

    Outer integral substituted eps = theta t^2 to remove the sqrt(x)
    endpoint behaviour of the window width.
    """
    theta = valley.theta

    def outer_integrand(t: float) -> float:
        x = t * t
        return (
            2.0
            * t
            * math.exp(-x)
            * momentum_window_integral(
                x, valley, material, omega, pol, A0, rel_tol * 0.1
            )
        )

    outer = _quad(outer_integrand, 0.0, math.sqrt(_X_CUT), rel_tol)
    return theta * outer


def boundary_term_integral(
    valley: Valley,
    material: Material,
    omega: float,
    pol: Polarization,
    A0: float = 1.0,
    rel_tol: float = 1e-11,
) -> float:
    """The integration-by-parts reduction of :func:`double_integral_direct`:

        theta * int_0^inf dx e^-x { [q y(q)]_{q_max} dq_max/dx
                                    - [q y(q)]_{q_min} dq_min/dx }.

    Must agree with the double integral; the boundary terms of the parts
    integration vanish because the window closes at eps = 0.
    """
    theta = valley.theta
    s = HBAR * omega / theta
    kappa = math.sqrt(2.0 * material.m_perp * theta) / HBAR
    r_D = material.require_r_D()
    a_perp_sq, a_par_sq = _amplitudes(pol, valley, A0)

    # With x = t^2 the 1/sqrt(x) in dq/dx cancels against dx = 2 t dt.
    def integrand(t: float) -> float:
        x = t * t
        root_xs = math.sqrt(x + s)
        q_hi = kappa * (t + root_xs)
        q_lo = kappa * (root_xs - t)
        ratio = t / root_xs
        hi = q_hi * _y_closed(q_hi, r_D, material, a_perp_sq, a_par_sq) * (1.0 + ratio)
        lo = q_lo * _y_closed(q_lo, r_D, material, a_perp_sq, a_par_sq) * (1.0 - ratio)
        return math.exp(-x) * kappa * (hi + lo)

    return theta * _quad(integrand, 0.0, math.sqrt(_X_CUT), rel_tol)


def collision_prefactor(valley: Valley, material: Material, omega: float) -> float:
    """Prefactor converting the double integral into absorbed power:

        e0^6 n_a n_i sqrt(m_par) /
            (sqrt(2 pi) theta^{3/2} eps0^2 c^2 hbar omega m_perp^2).
    """
    return (
        E_CHARGE**6
        * material.n_a
        * valley.n
        * math.sqrt(material.m_par)
        / (
            math.sqrt(2.0 * math.pi)
            * valley.theta**1.5
            * material.eps0**2
            * C_LIGHT**2
            * HBAR
            * omega
            * material.m_perp**2
        )
    )


def p_minus_direct(
    valley: Valley,
    material: Material,
    omega: float,
    pol: Polarization,
    A0: float,
    rel_tol: float = 1e-10,
) -> float:
    """Emitted power integrated directly over eps >= hbar*omega, without the
    variable shift; only electrons that can spare a photon contribute.

    Returns the signed power (negative), to be compared against
    -e^{-hbar omega/theta} p_plus.
    """
    theta = valley.theta
    s = HBAR * omega / theta
    kappa = math.sqrt(2.0 * material.m_perp * theta) / HBAR
    r_D = material.require_r_D()
    a_perp_sq, a_par_sq = _amplitudes(pol, valley, A0)

    def window_integral(x: float) -> float:
        # Emission branch: q window at energy x >= s.
        root_x = math.sqrt(x)
        root_xms = math.sqrt(x - s)
        q_lo = kappa * (root_x - root_xms)
        q_hi = kappa * (root_x + root_xms)
        if q_hi <= q_lo:
            return 0.0
        return _quad(
            lambda q: q * _y_closed(q, r_D, material, a_perp_sq, a_par_sq),
            q_lo,
            q_hi,
            rel_tol * 0.1,
        )

    # x = s + t^2: removes the sqrt(x - s) edge at the emission threshold.
    outer = _quad(
        lambda t: 2.0 * t * math.exp(-(s + t * t)) * window_integral(s + t * t),
        0.0,
        math.sqrt(_X_CUT),
        rel_tol,
    )
    return -collision_prefactor(valley, material, omega) * theta * outer
