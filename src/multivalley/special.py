"""Scalar kernels in Python floats, without numpy: the angular factors B1/B2,
Psi(inf) and the Conwell-Weisskopf logarithm of the closed forms, and the
general acoustic kernel e^a a^2 K2(a) (:func:`acoustic_kernel`).  The array
form of B1/B2 that the general impurity integrand evaluates,
``quadrature._shape_b12``, lives with the numpy core and sums the same tail
series.  The screened shape function Psi and the shape parameter b, which
only the oracles evaluate, live in ``oracles``.

The modified Bessel functions K0/K1/K2 below are on no computational path:
the acoustic kernel is its own trapezoid rule, :func:`acoustic_kernel`.  They
serve only the benchmark harness in ``perfbench/``, which counts their calls
and times ``bessel_k2e``, and leave with ROADMAP item 1.  They are scipy's
scaled ``kve``, imported on the first call, with the Hankel form beyond
x = 1e9; relative error <= 1e-12 on x in [1e-6, 700] against mpmath.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING

from .constants import EULER_GAMMA
from .errors import QuadratureError, RegimeError
from .modes import XMIN_MAX

if TYPE_CHECKING:  # pragma: no cover
    from .geometry import Material

__all__ = [
    "shape_b1",
    "shape_b2",
    "psi_infinity",
    "coulomb_log",
    "acoustic_kernel",
    "bessel_k0",
    "bessel_k1",
    "bessel_k2",
    "bessel_k0e",
    "bessel_k1e",
    "bessel_k2e",
]


# ---------------------------------------------------------------------------
# The angular factors B1, B2 of the anisotropy shape parameter b
# ---------------------------------------------------------------------------

# Above this the direct formulas for B1/B2 cancel catastrophically
# (both decay like b^-4 while the individual terms are O(b^-2)).
_B_SERIES_CUTOFF = 8.0


# B1/B2 tail series beyond the cutoff, sum_k c_k b^-(2k+4):
# c_k = (-1)^k (4k+4)/((2k+1)(2k+3)) for B1 and (-1)^k (2k+2)/(2k+3) for B2.
_B1_TAIL = tuple((-1.0) ** k * (4.0 * k + 4.0) / ((2 * k + 1) * (2 * k + 3)) for k in range(12))
_B2_TAIL = tuple((-1.0) ** k * (2.0 * k + 2.0) / (2 * k + 3) for k in range(12))


def _tail_series(coeffs: tuple[float, ...], u: float) -> float:
    """sum_k coeffs[k] u^(k+2) for u = b^-2."""
    total = 0.0
    power = u * u
    for c in coeffs:
        total += c * power
        power *= u
    return total


def shape_b1(b: float) -> float:
    """B1(b) = 1/b^2 + ((1 - b^2)/b^3) arctan(1/b); positive, -> 4/(3 b^4)."""
    if b <= 0.0:
        raise ValueError("b must be positive")
    if b > _B_SERIES_CUTOFF:
        # 1/b^2 and the arctan term cancel to O(b^-4); sum the tail series.
        return _tail_series(_B1_TAIL, 1.0 / (b * b))
    at = math.atan2(1.0, b)
    return 1.0 / (b * b) + (1.0 - b * b) / (b * b * b) * at


def shape_b2(b: float) -> float:
    """B2(b) = -1/(1 + b^2) + arctan(1/b)/b; positive, -> 2/(3 b^4)."""
    if b <= 0.0:
        raise ValueError("b must be positive")
    if b > _B_SERIES_CUTOFF:
        return _tail_series(_B2_TAIL, 1.0 / (b * b))
    at = math.atan2(1.0, b)
    return -1.0 / (1.0 + b * b) + at / b


def psi_infinity(material: "Material") -> tuple[float, float]:
    """Unscreened (b = b0) shape function across and along the valley axis, a
    pair fixed by the masses: (B1(b0), 2 (m_perp/m_par) B2(b0)), affine in cos^2(phi)."""
    b0 = math.sqrt(material.m_perp / (material.m_par - material.m_perp))
    return shape_b1(b0), 2.0 * (material.m_perp / material.m_par) * shape_b2(b0)


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
# The acoustic kernel e^a a^2 K2(a)
# ---------------------------------------------------------------------------

# Trapezoid nodes, the one at 0 halved.  Below a = 4, in t of e^a K2(a) =
# int_0^inf e^{-a (cosh t - 1)} cosh 2t dt: (cosh t - 1, cosh 2t) up to t = 23.1,
# where a = 1e-8 is cut.  From a = 4, in v = 2 sqrt(a) sinh(t/2), where it is
# a^-1/2 int_0^inf e^{-v^2/2} (1 + 8w (1 + w)) / sqrt(1 + w) dv, w = v^2/(4a):
# (v^2/4, e^{-v^2/2}) up to v = 9.8.  Both integrands are analytic near the real
# axis, so the error falls geometrically in 1/step: the half-step rule is within 3e-11.
_T_STEP, _V_STEP = 0.15, 0.35
_T_NODES = tuple((2.0 * math.sinh(0.5 * t) ** 2, math.cosh(2.0 * t) / (1 + (t == 0.0)))
                 for t in (k * _T_STEP for k in range(155)))
_V_NODES = tuple((0.25 * v * v, math.exp(-0.5 * v * v) / (1 + (v == 0.0)))
                 for v in (k * _V_STEP for k in range(29)))
_KERNEL_TOL = 1e-9  # the spectral core's default rel_tol, gated at 10x as there


@functools.lru_cache(maxsize=64)
def acoustic_kernel(a: float) -> float:
    """e^a a^2 K2(a) at a = hbar omega / (2 theta) >= 0, memoized for phi sweeps:
    2 + 2a below a = 1e-8 and Hankel's sqrt(pi/2) a^1.5 (1 + 15/(8a)) above 1e9
    (exact in double precision; inf from a ~ 2.7e205), else the trapezoid rule on
    the tables above, whose half-step sum off by 10 rel_tol is a QuadratureError."""
    if a < 1e-8:
        return 2.0 + 2.0 * a
    if a > 1e9:
        return math.sqrt(0.5 * math.pi) * a * math.sqrt(a) * (1.0 + 1.875 / a)
    if a < 4.0:  # t nodes with a (cosh t - 1) > 50 add below 1e-17 of the sum
        count = int(math.acosh(1.0 + 50.0 / a) / _T_STEP) + 2
        terms = [math.exp(-a * c) * w for c, w in _T_NODES[:count]]
    else:
        terms = [g * (1.0 + 8.0 * w * (1.0 + w)) / math.sqrt(1.0 + w)
                 for q, g in _V_NODES for w in (q / a,)]
    total = sum(terms)
    estimate = abs(total - 2.0 * sum(terms[::2])) / total
    if not estimate <= 10.0 * _KERNEL_TOL:
        raise QuadratureError(f"acoustic kernel error estimate {estimate:.3e} exceeds 10 x "
                              f"rel_tol = {_KERNEL_TOL:.1e} at s = {2.0 * a:.6e}", estimate)
    return (a * a * _T_STEP if a < 4.0 else a * math.sqrt(a) * _V_STEP) * total


# ---------------------------------------------------------------------------
# Modified Bessel functions of the second kind, orders 0..2
# ---------------------------------------------------------------------------

_K_MAX_X = 700.0  # e^-x underflows towards double-precision subnormals beyond
# kve returns nan beyond x = 2^30.  There the Hankel expansion
# e^x K_n(x) = sqrt(pi/(2x)) [1 + (mu-1)/(8x) + (mu-1)(mu-9)/(2 (8x)^2) + ...],
# mu = 4 n^2, is exact in double precision: the next term is below 1e-27.
_KVE_MAX_X = 1e9


@functools.cache
def _scipy_kve():
    """scipy's ``kve`` ufunc, imported on the first call only."""
    from scipy.special import kve

    return kve


def _kve(n: float, x: float) -> float:
    # The order is passed as a float: kve has only double loops, and an int
    # argument costs numpy a cast resolution (~0.1 us) on every call.
    if not x > 0.0:
        raise ValueError(f"modified Bessel K requires x > 0, got {x}")
    if x > _KVE_MAX_X:
        mu, t = 4.0 * n * n, 1.0 / (8.0 * x)
        series = 1.0 + (mu - 1.0) * t * (1.0 + 0.5 * (mu - 9.0) * t)
        return math.sqrt(math.pi / (2.0 * x)) * series
    return float(_scipy_kve()(n, x))


def _check_unscaled_domain(x: float) -> None:
    if x > _K_MAX_X:
        raise ValueError(
            f"K_n({x:g}) underflows double precision (x > {_K_MAX_X:g}); "
            "use the exponentially scaled variants"
        )


def bessel_k0e(x: float) -> float:
    """Exponentially scaled e^x K0(x)."""
    return _kve(0.0, x)


def bessel_k1e(x: float) -> float:
    """Exponentially scaled e^x K1(x)."""
    return _kve(1.0, x)


def bessel_k2e(x: float) -> float:
    """Exponentially scaled e^x K2(x)."""
    return _kve(2.0, x)


def bessel_k0(x: float) -> float:
    """Modified Bessel function of the second kind, order 0."""
    _check_unscaled_domain(x)
    return bessel_k0e(x) * math.exp(-x)


def bessel_k1(x: float) -> float:
    """Modified Bessel function of the second kind, order 1."""
    _check_unscaled_domain(x)
    return bessel_k1e(x) * math.exp(-x)


def bessel_k2(x: float) -> float:
    """Modified Bessel function of the second kind, order 2."""
    _check_unscaled_domain(x)
    return bessel_k2e(x) * math.exp(-x)
