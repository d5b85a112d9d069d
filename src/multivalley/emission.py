"""Spontaneous emission by hot electrons.

Field-induced emission turns into spontaneous emission by normalizing the
wave amplitude to one photon in the quantization volume and multiplying by
the photon mode density per unit angular frequency and steradian.  The
volume cancels, so results are reported per unit volume.

Per valley this is Kirchhoff's law.  The power a valley absorbs from a wave
of flux F is r_i F, with r_i its absorption rate before stimulated emission
(``_rates`` in ``impurity`` and ``acoustic``); the power it emits into the
same mode is e^{-s_i} r_i F (the energy shift eps -> eps + hbar omega in the
Maxwellian).  One photon carries the flux F = sqrt(eps0) omega c hbar per
unit volume, and the mode density is omega^2/(2 pi c)^3, so

    dW/dOmega = sum_i e^{-s_i} r_i hbar omega^3 sqrt(eps0) / (8 pi^3 c^2),

the same factor for both mechanisms.  With K_i = (1 - e^{-s_i}) r_i, e^{-s_i}
r_i is K_i times the Bose factor 1/(e^{s_i} - 1).  So emission has no formula
of its own: in every regime and for both mechanisms, the one projection
(``geometry._project``) weighs the source of absorption with the entry of
``geometry._WEIGHTS`` and applies the factor above.  Quantum acoustic
emission is Kirchhoff's image of the leading term n_i sqrt(s_i) of its
absorption, which absorption multiplies by 1 + 3/s_i.

Output convention: ``dW_dOmega`` is energy per unit time, per steradian, per
unit angular-frequency interval, per unit volume (erg s^-1 sr^-1 cm^-3 per
rad/s, i.e. erg cm^-3 sr^-1).  Values are magnitudes for a single
polarization direction q0; summing two orthogonal polarizations is the
caller's business.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import C_LIGHT, HBAR
from .geometry import Material, Polarization, ValleySet, _value

# Re-exported: perfbench/tracing.py looks p_plus up in this module.
from .impurity import p_plus  # noqa: F401
from .modes import Mechanism, Observable, Regime, parse

__all__ = [
    "EmissionResult",
    "photon_amplitude",
    "mode_density",
    "emission_impurity",
    "emission_acoustic",
]

@dataclass(frozen=True)
class EmissionResult:
    """Spectral emission intensity at one frequency."""

    dW_dOmega: float  # erg s^-1 sr^-1 cm^-3 per unit angular frequency
    omega: float      # rad/s
    regime: Regime
    mechanism: Mechanism

    def __post_init__(self) -> None:
        if self.dW_dOmega < 0.0:
            raise ValueError(f"emission intensity must be >= 0, got {self.dW_dOmega}")


def photon_amplitude(omega: float, volume: float) -> float:
    """Vector-potential amplitude carrying one photon in ``volume``:
    A0 = 2 c sqrt(2 pi hbar / (V omega))."""
    if omega <= 0.0 or volume <= 0.0:
        raise ValueError("omega and volume must be positive")
    return 2.0 * C_LIGHT * math.sqrt(2.0 * math.pi * HBAR / (volume * omega))


def mode_density(omega: float, volume: float) -> float:
    """Photon mode density V omega^2/(2 pi c)^3 per steradian per unit
    angular frequency."""
    if omega <= 0.0 or volume <= 0.0:
        raise ValueError("omega and volume must be positive")
    return volume * omega**2 / (2.0 * math.pi * C_LIGHT) ** 3


def _emission(
    mechanism: Mechanism, valleys: ValleySet, material: Material, omega: float,
    pol: Polarization, regime: Regime | str,
) -> EmissionResult:
    return EmissionResult(
        dW_dOmega=_value(mechanism, Observable.EMISSION, valleys, material, omega, pol, regime),
        omega=omega, regime=parse(Regime, regime, "regime"), mechanism=mechanism,
    )


def emission_impurity(
    valleys: ValleySet,
    material: Material,
    omega: float,
    pol: Polarization,
    regime: Regime | str = Regime.GENERAL,
) -> EmissionResult:
    """Spontaneous emission intensity under impurity scattering: per valley,
    Kirchhoff's law applied to ``absorption_impurity`` in the same regime.

    general:   e^{-hbar omega/theta_i} times p_plus at the one-photon
               amplitude times the mode density.
    classical: K_i theta_i/(hbar omega), flat in omega.
    quantum:   K_i e^{-hbar omega/theta_i}, a (hbar omega)^{-1/2}
               e^{-hbar omega/theta_i} law, unscreened.

    omega outside [1e-50, 1e100] rad/s raises ConfigError (:func:`geometry.check_omega`).
    """
    return _emission(Mechanism.IMPURITY, valleys, material, omega, pol, regime)


def emission_acoustic(
    valleys: ValleySet,
    material: Material,
    omega: float,
    pol: Polarization,
    regime: Regime | str = Regime.GENERAL,
) -> EmissionResult:
    """Spontaneous emission intensity under acoustic scattering.

    general:   (2 e0^2/3 pi^{5/2} c^3) sum_i n_i theta_i e^{-2 a_i} {weight}
               e^{a_i} a_i^2 K2(a_i), by detailed balance from the acoustic
               rate core (module docstring)
    classical: (4 e0^2/3 pi^{5/2} c^3) sum_i n_i theta_i {weight}: classical
               absorption times theta_i/(hbar omega), flat in omega.
    quantum:   (e0^2/6 pi^2 c^3) sum_i (n_i/sqrt(theta_i)) (hbar omega)^{3/2}
               e^{-hbar omega/theta_i} {weight}: Kirchhoff's image of the
               leading term of quantum absorption, without its 1 + 3/s_i.

    omega outside [1e-50, 1e100] rad/s raises ConfigError (:func:`geometry.check_omega`).
    """
    return _emission(Mechanism.ACOUSTIC, valleys, material, omega, pol, regime)
