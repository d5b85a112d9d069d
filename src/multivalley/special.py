"""Closed-form kernels: anisotropy shape factors, screened-Coulomb angular
factors B1/B2, the polarization function Psi, the Conwell-Weisskopf logarithm,
and modified Bessel functions K0/K1/K2 of the second kind.

The Bessel functions are scipy's exponentially scaled ``kve`` (Amos'
algorithm, ACM TOMS 644), with the Hankel asymptotic form beyond x = 1e9,
where ``kve`` returns nan.  Their accuracy contract, relative error <= 1e-12
on x in [1e-6, 700], is certified against mpmath's arbitrary-precision K,
an independent oracle.  Only a^2 K2(a) enters the physics (the acoustic
kernel).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from scipy.special import kve

from .constants import EULER_GAMMA
from .errors import ConfigError, RegimeError
from .modes import XMIN_MAX

if TYPE_CHECKING:  # pragma: no cover
    from .geometry import Material

__all__ = [
    "ShapeParams",
    "b_param",
    "shape_b1",
    "shape_b2",
    "psi",
    "psi_infinity",
    "coulomb_log",
    "bessel_k0",
    "bessel_k1",
    "bessel_k2",
    "bessel_k0e",
    "bessel_k1e",
    "bessel_k2e",
    "acoustic_kernel",
    "acoustic_kernel_scaled",
]


# ---------------------------------------------------------------------------
# Anisotropy shape parameter b and the angular factors B1, B2
# ---------------------------------------------------------------------------

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


# Above this the direct formulas for B1/B2 cancel catastrophically
# (both decay like b^-4 while the individual terms are O(b^-2)).
_B_SERIES_CUTOFF = 8.0


def shape_b1(b: float) -> float:
    """B1(b) = 1/b^2 + ((1 - b^2)/b^3) arctan(1/b); positive, -> 4/(3 b^4)."""
    if b <= 0.0:
        raise ValueError("b must be positive")
    if b > _B_SERIES_CUTOFF:
        # 1/b^2 and the arctan term cancel to O(b^-4); sum the tail series
        # sum_k (-1)^k (4k+4)/((2k+1)(2k+3)) b^-(2k+4) instead.
        u = 1.0 / (b * b)
        total = 0.0
        power = u * u
        for k in range(12):
            total += (-1.0) ** k * (4.0 * k + 4.0) / ((2 * k + 1) * (2 * k + 3)) * power
            power *= u
        return total
    at = math.atan2(1.0, b)
    return 1.0 / (b * b) + (1.0 - b * b) / (b * b * b) * at


def shape_b2(b: float) -> float:
    """B2(b) = -1/(1 + b^2) + arctan(1/b)/b; positive, -> 2/(3 b^4)."""
    if b <= 0.0:
        raise ValueError("b must be positive")
    if b > _B_SERIES_CUTOFF:
        # Tail series: sum_k (-1)^k (2k+2)/(2k+3) b^-(2k+4).
        u = 1.0 / (b * b)
        total = 0.0
        power = u * u
        for k in range(12):
            total += (-1.0) ** k * (2.0 * k + 2.0) / (2 * k + 3) * power
            power *= u
        return total
    at = math.atan2(1.0, b)
    return -1.0 / (1.0 + b * b) + at / b


def psi(q_star: float, cos2phi: float, material: "Material") -> float:
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


def psi_infinity(cos2phi: float, material: "Material") -> float:
    """Unscreened limit of :func:`psi` (b frozen at b0)."""
    if not 0.0 <= cos2phi <= 1.0:
        raise ValueError(f"cos2phi must lie in [0, 1], got {cos2phi}")
    b0 = math.sqrt(material.m_perp / (material.m_par - material.m_perp))
    b1 = shape_b1(b0)
    b2 = shape_b2(b0)
    return (1.0 - cos2phi) * b1 + cos2phi * 2.0 * (material.m_perp / material.m_par) * b2


def coulomb_log(x_min: float) -> float:
    """Conwell-Weisskopf logarithm ln(1/(C1 x_min)) with ln C1 = Euler gamma.

    Only the leading logarithm is kept; the power-series corrections in x_min
    are deliberately dropped, which is why the guard insists x_min << 1.
    """
    if x_min <= 0.0:
        raise ValueError(f"x_min must be positive, got {x_min}")
    if x_min >= XMIN_MAX:
        raise RegimeError(
            f"x_min = {x_min:.3e} >= {XMIN_MAX}: the logarithmic "
            "(Conwell-Weisskopf) approximation is not justified here"
        )
    return -EULER_GAMMA - math.log(x_min)


# ---------------------------------------------------------------------------
# Modified Bessel functions of the second kind, orders 0..2
# ---------------------------------------------------------------------------

_K_MAX_X = 700.0  # e^-x underflows towards double-precision subnormals beyond
# kve returns nan beyond x = 2^30.  There the Hankel expansion
# e^x K_n(x) = sqrt(pi/(2x)) [1 + (mu-1)/(8x) + (mu-1)(mu-9)/(2 (8x)^2) + ...],
# mu = 4 n^2, is exact in double precision: the next term is below 1e-27.
_KVE_MAX_X = 1e9


def _kve(n: int, x: float) -> float:
    if not x > 0.0:
        raise ValueError(f"modified Bessel K requires x > 0, got {x}")
    if x > _KVE_MAX_X:
        mu, t = 4.0 * n * n, 1.0 / (8.0 * x)
        series = 1.0 + (mu - 1.0) * t * (1.0 + 0.5 * (mu - 9.0) * t)
        return math.sqrt(math.pi / (2.0 * x)) * series
    return float(kve(n, x))


def _check_unscaled_domain(x: float) -> None:
    if x > _K_MAX_X:
        raise ValueError(
            f"K_n({x:g}) underflows double precision (x > {_K_MAX_X:g}); "
            "use the exponentially scaled variants"
        )


def bessel_k0e(x: float) -> float:
    """Exponentially scaled e^x K0(x)."""
    return _kve(0, x)


def bessel_k1e(x: float) -> float:
    """Exponentially scaled e^x K1(x)."""
    return _kve(1, x)


def bessel_k2e(x: float) -> float:
    """Exponentially scaled e^x K2(x)."""
    return _kve(2, x)


def bessel_k0(x: float) -> float:
    """Modified Bessel function of the second kind, order 0."""
    _check_unscaled_domain(x)
    return bessel_k0e(x) * math.exp(-x)


def bessel_k1(x: float) -> float:
    """Modified Bessel function of the second kind, order 1.

    Behaves as 1/x for x -> 0 and sqrt(pi/(2x)) e^-x for x -> inf; relative
    accuracy <= 1e-12 over x in [1e-6, 700].
    """
    _check_unscaled_domain(x)
    return bessel_k1e(x) * math.exp(-x)


def bessel_k2(x: float) -> float:
    """Modified Bessel function of the second kind, order 2."""
    _check_unscaled_domain(x)
    return bessel_k2e(x) * math.exp(-x)


def acoustic_kernel(a: float) -> float:
    """a^3 d/da [K1(a)/a], evaluated through the identity
    d/da [K1(a)/a] = -K2(a)/a, i.e. the kernel equals -a^2 K2(a).

    Negative for every a > 0; tends to -2 as a -> 0.
    """
    _check_unscaled_domain(a)
    return -a * a * bessel_k2(a)


def acoustic_kernel_scaled(a: float) -> float:
    """e^a times :func:`acoustic_kernel`, safe for large a."""
    return -a * a * bessel_k2e(a)
