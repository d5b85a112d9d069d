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
of its own: in every regime it projects the absorption side with that factor
and the regime's Bose factor (``_BOSE``), quantum acoustic emission being the
one exception (:func:`_quantum_acoustic`).

Output convention: ``dW_dOmega`` is energy per unit time, per steradian, per
unit angular-frequency interval, per unit volume (erg s^-1 sr^-1 cm^-3 per
rad/s, i.e. erg cm^-3 sr^-1).  Values are magnitudes for a single
polarization direction q0; summing two orthogonal polarizations is the
caller's business.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from . import acoustic, impurity
from .constants import C_LIGHT, E_CHARGE, HBAR
from .geometry import (
    Material, Polarization, Terms, ValleySet, _absorbed, _observe, _populated, _weighted,
)

# Re-exported: perfbench/tracing.py looks p_plus up in this module.
from .impurity import p_plus  # noqa: F401
from .modes import Mechanism, Observable, Regime

__all__ = [
    "EmissionResult",
    "photon_amplitude",
    "mode_density",
    "emission_impurity",
    "emission_acoustic",
]

_QUANTUM_ACOUSTIC_COEFF = 1.0 / (6.0 * math.pi**2)


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


# The Bose factor 1/(e^{s} - 1) that turns a valley's absorption into its
# emission.  The general regime applies it exactly, to the rates
# r_i = K_i/(1 - e^{-s_i}), as e^{-s_i}; the closed forms know only K_i and
# apply its asymptote, 1/s_i for s_i << 1 or e^{-s_i} for s_i >> 1.
_BOSE = {
    Regime.GENERAL: lambda s: math.exp(-s),
    Regime.CLASSICAL: lambda s: 1.0 / s,
    Regime.QUANTUM: lambda s: math.exp(-s),
}


def _emitted(terms: Terms, material: Material, omega: float, regime: Regime) -> Terms:
    """Emission terms by Kirchhoff's law: each w_i times the regime's Bose
    factor, and the factor times the flux of one photon times the mode
    density, hbar omega^3 sqrt(eps0)/(8 pi^3 c^2)."""
    factor, per_valley = _weighted(terms, omega, _BOSE[regime])
    kirchhoff = HBAR * omega**3 * math.sqrt(material.eps0) / (8.0 * math.pi**3 * C_LIGHT**2)
    return factor * kirchhoff, per_valley


def _quantum_acoustic(valleys: ValleySet, material: Material, omega: float) -> Terms:
    """(e0^2/6 pi^2 c^3) (n_i/sqrt(theta_i)) (hbar omega)^{3/2}
    e^{-hbar omega/theta_i} times the tensor pair.

    The one emission formula of its own: quantum acoustic absorption keeps
    the 1 + 3/(2 a_i) correction of the large-argument kernel and this form
    does not, so the two are no Kirchhoff pair (23 % apart at s = 10, 7 % at
    s = 40); reconciling them would change the physics of one of them.
    """
    acoustic.check_quantum_acoustic(valleys, omega)
    pref = _QUANTUM_ACOUSTIC_COEFF * E_CHARGE**2 / C_LIGHT**3 * (HBAR * omega) ** 1.5
    pair = acoustic._tensor_pair(material)
    return pref, [
        (v, v.n / math.sqrt(v.theta) * math.exp(-HBAR * omega / v.theta), *pair)
        for v in _populated(valleys)
    ]


def _terms(
    mechanism: Mechanism, regime: Regime, observables: list[Observable],
    valleys: ValleySet, material: Material, omegas: Sequence[float],
) -> Iterator[list[Terms]]:
    """Per-valley terms of each observable (ABSORPTION or EMISSION), one list
    per frequency, yielded in grid order.  Both observables project from one
    evaluation of the source, the mechanism module's ``_rates`` or closed-form
    absorption; quantum acoustic emission alone has its own formula.  The
    general rate core runs over the whole grid before the first yield; a
    closed form runs at each frequency as it is reached, so its regime guards
    fail at the first offending frequency."""
    if (mechanism, regime) == (Mechanism.ACOUSTIC, Regime.QUANTUM):
        forms = {Observable.ABSORPTION: acoustic._quantum_absorption,
                 Observable.EMISSION: _quantum_acoustic}
        for omega in omegas:
            yield [forms[o](valleys, material, omega) for o in observables]
        return
    module = impurity if mechanism is Mechanism.IMPURITY else acoustic
    if regime is Regime.GENERAL:
        sources = module._rates(valleys, material, omegas)
    else:
        form = {Regime.CLASSICAL: module._classical_absorption,
                Regime.QUANTUM: module._quantum_absorption}[regime]
        sources = (form(valleys, material, omega) for omega in omegas)
    for omega, source in zip(omegas, sources):
        absorbed = _absorbed(source, omega) if regime is Regime.GENERAL else source
        yield [
            absorbed if o is Observable.ABSORPTION else _emitted(source, material, omega, regime)
            for o in observables
        ]


def _emission(
    mechanism: Mechanism, valleys: ValleySet, material: Material, omega: float,
    pol: Polarization, regime: Regime | str,
) -> EmissionResult:
    if not omega > 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    regime = Regime(regime)
    ((terms,),) = _terms(mechanism, regime, [Observable.EMISSION], valleys, material, [omega])
    return EmissionResult(
        dW_dOmega=_observe(terms, pol, Observable.EMISSION, omega),
        omega=omega, regime=regime, mechanism=mechanism,
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
               e^{-hbar omega/theta_i} {weight}, not Kirchhoff's image of
               quantum absorption (see ``_quantum_acoustic``)
    """
    return _emission(Mechanism.ACOUSTIC, valleys, material, omega, pol, regime)
