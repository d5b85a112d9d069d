"""Free-carrier absorption under anisotropic acoustic-phonon scattering.

The relaxation tensor scales as tau(eps) = tau0 sqrt(theta/eps), so the
whole-frequency-range coefficient collapses to a modified-Bessel kernel,
with a = hbar*omega / (2 theta_i).  The energy integral is

    int_0^inf e^-x (2x + s) sqrt(x (x + s)) dx = 2 e^a a^2 K2(a),   s = 2a,

which follows from x = a (cosh t - 1): e^-x = e^a e^{-a cosh t}, and
int_0^inf e^{-a cosh t} sinh^2 t dt = K1(a)/a gives
int_0^inf e^-x sqrt(x (x + s)) dx = (s/2) e^{s/2} K1(s/2); differentiating
in a brings down cosh t = (2x + s)/s and a^3 d/da [K1(a)/a] = -a^2 K2(a).
The kernel enters scaled, as e^a a^2 K2(a), which keeps each valley's
absorption and emission in Kirchhoff balance and never underflows.  It is
half the energy integral, which the spectral quadrature core evaluates with
g = (2x + s) x (x + s) (:func:`_kernels`).

:func:`_rates` is the general-regime rate core: per valley and frequency, the
absorption rate before stimulated emission across and along the valley axis.
Absorption weighs it with 1 - e^{-s_i}; ``emission`` derives the spontaneous
emission from the same rates by detailed balance.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Sequence

import numpy as np

from .constants import C_LIGHT, E_CHARGE, HBAR
from .errors import RegimeError
from .geometry import (
    Material, Polarization, Terms, ValleySet, _absorbed, _observe, _populated,
)
from .modes import CLASSICAL_S_MAX, QUANTUM_S_MIN, Observable, Regime
from .quadrature import DEFAULT_QUADRATURE, _integrate

__all__ = [
    "tau_acoustic",
    "absorption_acoustic",
    "mobility_acoustic",
    "CLASSICAL_COEFF_ACOUSTIC",
]

_GENERAL_COEFF = 16.0 * math.sqrt(math.pi) / 3.0
CLASSICAL_COEFF_ACOUSTIC = 32.0 * math.sqrt(math.pi) / 3.0
_QUANTUM_COEFF = 4.0 * math.pi / 3.0
_MOBILITY_COEFF = 4.0 / (3.0 * math.sqrt(math.pi))


def tau_acoustic(epsilon: float, theta: float, tau0: float) -> float:
    """Acoustic relaxation time tau0 * sqrt(theta/epsilon) at energy epsilon."""
    if epsilon <= 0.0 or theta <= 0.0 or tau0 <= 0.0:
        raise ValueError("epsilon, theta and tau0 must be positive")
    return tau0 * math.sqrt(theta / epsilon)


def _tensor_pair(material: Material) -> tuple[float, float]:
    """(1/(m_perp tau_perp), 1/(m_par tau_par)) at eps = theta_i.

    tau_alpha(theta_i) = tau_alpha0 by the sqrt(theta/eps) scaling, so the
    pair involves the bare prefactors.
    """
    return (
        1.0 / (material.m_perp * material.tau_perp0),
        1.0 / (material.m_par * material.tau_par0),
    )


def check_classical_acoustic(valleys: ValleySet, omega: float) -> None:
    for v in _populated(valleys):
        s = HBAR * omega / v.theta
        if s > CLASSICAL_S_MAX:
            raise RegimeError(
                f"classical acoustic form needs hbar*omega/theta <= "
                f"{CLASSICAL_S_MAX}, got {s:.3e} at omega = {omega:.6e} rad/s"
            )


def check_quantum_acoustic(valleys: ValleySet, omega: float) -> None:
    for v in _populated(valleys):
        s = HBAR * omega / v.theta
        if s < QUANTUM_S_MIN:
            raise RegimeError(
                f"quantum acoustic form needs hbar*omega/theta >= "
                f"{QUANTUM_S_MIN}, got {s:.3e} at omega = {omega:.6e} rad/s"
            )


def _pow2(s: np.ndarray) -> np.ndarray:
    """The power of two that divides max(s, 1) into [1, 2)."""
    return np.ldexp(0.5, np.frexp(np.maximum(s, 1.0))[1])


def _moment(x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """g = (2x + s) x (x + s), its two factors of size s divided by
    :func:`_pow2` (exactly), so that g stays in range for every finite s."""
    c = _pow2(s)
    return ((2.0 * x + s) / c * x * ((x + s) / c))[None]


def _kernels(s: np.ndarray) -> list[float]:
    """e^a a^2 K2(a) at every s = 2a of ``s``: half the energy integral, in one
    quadrature call, unscaled in Python floats, so that a kernel beyond double
    range (s above ~5e205, or s = inf) is inf without a floating-point trap."""
    s = np.minimum(s, sys.float_info.max)
    values = _integrate(_moment, s, DEFAULT_QUADRATURE.rel_tol)[0][0].tolist()
    return [0.5 * value * c * c for value, c in zip(values, _pow2(s).tolist())]


@functools.lru_cache(maxsize=64)
def _kernel(s: float) -> float:
    """:func:`_kernels` at one s, memoized: a phi sweep asks for it at every row."""
    return _kernels(np.array([s]))[0]


def _rates(valleys: ValleySet, material: Material, omegas: Sequence[float]) -> list[Terms]:
    """General-regime rate core: at each omega, per populated valley,
    (valley, 1, r_perp, r_par): the absorption coefficient before the factor
    1 - e^{-2 a_i}, (16 sqrt(pi)/3 sqrt(eps0)) (e0^2/c hbar omega^3) times
    n_i theta_i e^{a_i} a_i^2 K2(a_i) times :func:`_tensor_pair`.  The kernel
    runs over the grid once per distinct valley temperature, or through the
    memo :func:`_kernel` at a single frequency.
    """
    populated = _populated(valleys)
    pair_perp, pair_par = _tensor_pair(material)
    kernels = {
        theta: [_kernel(HBAR * omegas[0] / theta)] if len(omegas) == 1
        else _kernels(HBAR * np.asarray(omegas, dtype=float) / theta)
        for theta in dict.fromkeys(v.theta for v in populated)
    }
    terms = []
    for j, omega in enumerate(omegas):
        rates = []
        for v in populated:
            scale = v.n * v.theta * kernels[v.theta][j]
            rates.append((v, 1.0, scale * pair_perp, scale * pair_par))
        factor = _GENERAL_COEFF * E_CHARGE**2 / (math.sqrt(material.eps0) * C_LIGHT * HBAR * omega**3)
        terms.append((factor, rates))
    return terms


def _classical_absorption(valleys: ValleySet, material: Material, omega: float) -> Terms:
    check_classical_acoustic(valleys, omega)
    pref = CLASSICAL_COEFF_ACOUSTIC * E_CHARGE**2 / (math.sqrt(material.eps0) * C_LIGHT * omega**2)
    pair = _tensor_pair(material)
    return pref, [(v, v.n, *pair) for v in _populated(valleys)]


def _quantum_absorption(valleys: ValleySet, material: Material, omega: float) -> Terms:
    check_quantum_acoustic(valleys, omega)
    pref = _QUANTUM_COEFF * E_CHARGE**2 / (math.sqrt(material.eps0) * C_LIGHT * omega**2)
    pair = _tensor_pair(material)
    terms = []
    for v in _populated(valleys):
        a = HBAR * omega / (2.0 * v.theta)
        terms.append((v, v.n * math.sqrt(2.0 * a) * (1.0 + 1.5 / a), *pair))
    return pref, terms


def absorption_acoustic(
    valleys: ValleySet,
    material: Material,
    omega: float,
    pol: Polarization,
    regime: Regime | str = Regime.GENERAL,
) -> float:
    """Absorption coefficient K (cm^-1) under acoustic scattering.

    general:   (16 sqrt(pi)/3 sqrt(eps0)) (e0^2/c hbar) sum_i (n_i theta_i /
               omega^3) (1 - e^{-hbar omega/theta_i}) {weight} a_i^2 K2e(a_i),
               K2e(a) = e^a K2(a)
    classical: (32 sqrt(pi)/3) (e0^2/sqrt(eps0) c omega^2) sum_i n_i {weight}
    quantum:   (4 pi/3) (e0^2/sqrt(eps0) c omega^2) sum_i n_i
               sqrt(hbar omega/theta_i) (1 + 3/(2 a_i)) {weight},
               the large-argument form of the scaled kernel: an omega^-1.5
               law with no exponential cut.

    {weight} = (1 - cos^2 phi_i)/(m_perp tau_perp0) + cos^2 phi_i/(m_par tau_par0).
    """
    if not omega > 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    regime = Regime(regime)
    if regime is Regime.GENERAL:
        terms = _absorbed(_rates(valleys, material, [omega])[0], omega)
    elif regime is Regime.CLASSICAL:
        terms = _classical_absorption(valleys, material, omega)
    else:
        terms = _quantum_absorption(valleys, material, omega)
    return _observe(terms, pol, Observable.ABSORPTION, omega)


def mobility_acoustic(material: Material, theta: float) -> tuple[float, float]:
    """(mu_perp, mu_par) = (4/(3 sqrt(pi))) e0 tau_alpha(theta)/m_alpha."""
    tau_perp = tau_acoustic(theta, theta, material.tau_perp0)
    tau_par = tau_acoustic(theta, theta, material.tau_par0)
    mu_perp = _MOBILITY_COEFF * E_CHARGE * tau_perp / material.m_perp
    mu_par = _MOBILITY_COEFF * E_CHARGE * tau_par / material.m_par
    return mu_perp, mu_par
