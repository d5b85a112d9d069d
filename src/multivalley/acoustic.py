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
half the energy integral, a one-parameter integral that
``special.acoustic_kernel`` evaluates in Python floats, so that no regime of
this mechanism imports numpy; only the general regime imports ``special``.

:func:`_rates` is the general-regime rate core: per valley, columns over the
frequency grid of the absorption rate before stimulated emission across and
along the valley axis.  Absorption weighs it with 1 - e^{-s_i}, and emission,
by detailed balance, with e^{-s_i} (``geometry._WEIGHTS``).
"""

from __future__ import annotations

import math
from typing import Sequence

from .constants import C_LIGHT, E_CHARGE, HBAR
from .geometry import Material, Polarization, Terms, Valley, ValleySet, _value
from .modes import Mechanism, Observable, Regime, check_window

__all__ = ["absorption_acoustic", "CLASSICAL_COEFF_ACOUSTIC"]

_GENERAL_COEFF = 16.0 * math.sqrt(math.pi) / 3.0
CLASSICAL_COEFF_ACOUSTIC = 32.0 * math.sqrt(math.pi) / 3.0
_QUANTUM_COEFF = 4.0 * math.pi / 3.0


def _tensor_pair(material: Material) -> tuple[float, float]:
    """(1/(m_perp tau_perp), 1/(m_par tau_par)) at eps = theta_i.

    tau_alpha(theta_i) = tau_alpha0 by the sqrt(theta/eps) scaling, so the
    pair involves the bare prefactors.
    """
    return (
        1.0 / (material.m_perp * material.tau_perp0),
        1.0 / (material.m_par * material.tau_par0),
    )


def check_classical_acoustic(valleys: Sequence[Valley], omegas: Sequence[float]) -> None:
    check_window(valleys, omegas, Regime.CLASSICAL, "acoustic")


def check_quantum_acoustic(valleys: Sequence[Valley], omegas: Sequence[float]) -> None:
    check_window(valleys, omegas, Regime.QUANTUM, "acoustic")


def _rates(valleys: Sequence[Valley], material: Material, omegas: Sequence[float]) -> Terms:
    """General-regime rate core: per valley (populated: ``geometry._terms``), weights
    of 1 and the pair (r_perp, r_par) at every omega: the absorption coefficient before
    the factor 1 - e^{-2 a_i}, (16 sqrt(pi)/3 sqrt(eps0)) (e0^2/c hbar omega^3) times
    n_i theta_i e^{a_i} a_i^2 K2(a_i) times :func:`_tensor_pair`, the kernel evaluated
    over the grid once per distinct valley temperature.
    """
    from .special import acoustic_kernel  # at call time: the closed forms need no special

    pair_perp, pair_par = _tensor_pair(material)
    kernels = {theta: [acoustic_kernel(HBAR * omega / (2.0 * theta)) for omega in omegas]
               for theta in dict.fromkeys(v.theta for v in valleys)}
    columns = [(v, [1.0] * len(omegas), [v.n * v.theta * k * pair_perp for k in kernels[v.theta]],
                [v.n * v.theta * k * pair_par for k in kernels[v.theta]]) for v in valleys]
    root_eps0 = math.sqrt(material.eps0)
    return [_GENERAL_COEFF * E_CHARGE**2 / (root_eps0 * C_LIGHT * HBAR * omega**3)
            for omega in omegas], columns


def _classical_absorption(valleys: Sequence[Valley], material: Material,
                          omegas: Sequence[float]) -> Terms:
    """Classical closed-form terms of the valleys (populated: ``geometry._terms``):
    (32 sqrt(pi)/3) e0^2/(sqrt(eps0) c omega^2) times n_i times :func:`_tensor_pair`."""
    check_classical_acoustic(valleys, omegas)
    coeff, scale = CLASSICAL_COEFF_ACOUSTIC * E_CHARGE**2, math.sqrt(material.eps0) * C_LIGHT
    (pair_perp, pair_par), count = _tensor_pair(material), len(omegas)
    columns = [(v, [v.n] * count, [pair_perp] * count, [pair_par] * count) for v in valleys]
    return [coeff / (scale * omega**2) for omega in omegas], columns


def _quantum_absorption(valleys: Sequence[Valley], material: Material,
                        omegas: Sequence[float]) -> Terms:
    """Quantum closed-form source of the valleys (populated: ``geometry._terms``):
    the leading term of the large-argument kernel, (4 pi/3) e0^2/(sqrt(eps0) c omega^2)
    times n_i sqrt(s_i) times :func:`_tensor_pair`.  Absorption multiplies it by the
    next order, 1 + 3/s_i, and emission by e^{-s_i} (``geometry._WEIGHTS``)."""
    check_quantum_acoustic(valleys, omegas)
    coeff, scale = _QUANTUM_COEFF * E_CHARGE**2, math.sqrt(material.eps0) * C_LIGHT
    (pair_perp, pair_par), count = _tensor_pair(material), len(omegas)
    columns = [(v, [v.n * math.sqrt(HBAR * omega / v.theta) for omega in omegas],
                [pair_perp] * count, [pair_par] * count) for v in valleys]
    return [coeff / (scale * omega**2) for omega in omegas], columns


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
               sqrt(hbar omega/theta_i) (1 + 3 theta_i/(hbar omega)) {weight},
               the large-argument form of the scaled kernel to next order: an
               omega^-1.5 law with no exponential cut.

    {weight} = (1 - cos^2 phi_i)/(m_perp tau_perp0) + cos^2 phi_i/(m_par tau_par0).
    omega outside [1e-50, 1e100] rad/s raises ConfigError (:func:`geometry.check_omega`).
    """
    return _value(Mechanism.ACOUSTIC, Observable.ABSORPTION, valleys, material, omega, pol, regime)
