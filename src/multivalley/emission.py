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

the same factor for both mechanisms; with K_i = (1 - e^{-s_i}) r_i this is
dW_i/dOmega = K_i hbar omega^3 sqrt(eps0) / (8 pi^3 c^2 (e^{s_i} - 1)).  The
general regime therefore has no emission formula of its own: it projects
the absorption rate core with weight e^{-s_i} times that factor.  The
classical and quantum closed forms keep their own asymptotic formulas.

Output convention: ``dW_dOmega`` is energy per unit time, per steradian, per
unit angular-frequency interval, per unit volume (erg s^-1 sr^-1 cm^-3 per
rad/s, i.e. erg cm^-3 sr^-1).  Values are magnitudes for a single
polarization direction q0; summing two orthogonal polarizations is the
caller's business.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import acoustic, impurity
from .constants import C_LIGHT, E_CHARGE, HBAR
from .geometry import Material, Polarization, Terms, ValleySet, _absorbed, _populated, _project

# Re-exported: perfbench/tracing.py looks p_plus up in this module.
from .impurity import p_plus  # noqa: F401
from .modes import Mechanism, Observable, Regime
from .quadrature import DEFAULT_QUADRATURE, QuadratureSpec
from .special import coulomb_log, psi_infinity

__all__ = [
    "EmissionResult",
    "photon_amplitude",
    "mode_density",
    "emission_impurity",
    "emission_acoustic",
]

_CLASSICAL_IMPURITY_COEFF = 1.0 / (2.0 * math.pi) ** 1.5
_QUANTUM_IMPURITY_COEFF = 1.0 / (math.sqrt(2.0) * math.pi)
_CLASSICAL_ACOUSTIC_COEFF = 4.0 / (3.0 * math.pi**2.5)
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


def _emitted(rates: Terms, material: Material, omega: float) -> Terms:
    """Emission terms by detailed balance: w_i = e^{-s_i}, and the factor
    gains the flux of one photon times the mode density,
    hbar omega^3 sqrt(eps0)/(8 pi^3 c^2)."""
    factor, per_valley = rates
    kirchhoff = HBAR * omega**3 * math.sqrt(material.eps0) / (8.0 * math.pi**3 * C_LIGHT**2)
    return factor * kirchhoff, [(v, math.exp(-s), rp, rl) for v, s, rp, rl in per_valley]


def _classical_impurity(valleys: ValleySet, material: Material, omega: float) -> Terms:
    """(1/(2 pi)^{3/2}) e0^6 n_a sqrt(m_par) / (eps0^2 c^3 (m_par - m_perp)^2)
    n_i L(x_min(theta_i)) / sqrt(theta_i) times Psi(inf); flat in omega."""
    impurity.check_classical_impurity(valleys, material, omega)
    scale = impurity._collision_scale(material) * math.sqrt(material.eps0) / C_LIGHT**2
    pref = _CLASSICAL_IMPURITY_COEFF * scale
    pair = psi_infinity(0.0, material), psi_infinity(1.0, material)
    terms = []
    for v in _populated(valleys):
        log_term = coulomb_log(impurity.x_min(material, v.theta))
        terms.append((v, v.n / math.sqrt(v.theta) * log_term, *pair))
    return pref, terms


def _quantum_impurity(valleys: ValleySet, material: Material, omega: float) -> Terms:
    """(1/(sqrt 2 pi)) e0^6 n_a sqrt(m_par) / (eps0^2 c^3 (m_par - m_perp)^2
    sqrt(hbar omega)) n_i e^{-hbar omega/theta_i} times Psi(inf)."""
    impurity.check_quantum_impurity(valleys, material, omega)
    scale = impurity._collision_scale(material) * math.sqrt(material.eps0) / C_LIGHT**2
    pref = _QUANTUM_IMPURITY_COEFF * scale / math.sqrt(HBAR * omega)
    pair = psi_infinity(0.0, material), psi_infinity(1.0, material)
    return pref, [(v, v.n * math.exp(-HBAR * omega / v.theta), *pair) for v in _populated(valleys)]


def _classical_acoustic(valleys: ValleySet, material: Material, omega: float) -> Terms:
    """(4 e0^2/3 pi^{5/2} c^3) n_i theta_i times the tensor pair; flat in omega."""
    acoustic.check_classical_acoustic(valleys, omega)
    pref = _CLASSICAL_ACOUSTIC_COEFF * E_CHARGE**2 / C_LIGHT**3
    pair = acoustic._tensor_pair(material)
    return pref, [(v, v.n * v.theta, *pair) for v in _populated(valleys)]


def _quantum_acoustic(valleys: ValleySet, material: Material, omega: float) -> Terms:
    """(e0^2/6 pi^2 c^3) (n_i/sqrt(theta_i)) (hbar omega)^{3/2}
    e^{-hbar omega/theta_i} times the tensor pair."""
    acoustic.check_quantum_acoustic(valleys, omega)
    pref = _QUANTUM_ACOUSTIC_COEFF * E_CHARGE**2 / C_LIGHT**3 * (HBAR * omega) ** 1.5
    pair = acoustic._tensor_pair(material)
    return pref, [
        (v, v.n / math.sqrt(v.theta) * math.exp(-HBAR * omega / v.theta), *pair)
        for v in _populated(valleys)
    ]


_CLOSED_FORMS = {
    (Mechanism.IMPURITY, Regime.CLASSICAL, Observable.ABSORPTION): impurity._classical_absorption,
    (Mechanism.IMPURITY, Regime.QUANTUM, Observable.ABSORPTION): impurity._quantum_absorption,
    (Mechanism.IMPURITY, Regime.CLASSICAL, Observable.EMISSION): _classical_impurity,
    (Mechanism.IMPURITY, Regime.QUANTUM, Observable.EMISSION): _quantum_impurity,
    (Mechanism.ACOUSTIC, Regime.CLASSICAL, Observable.ABSORPTION): acoustic._classical_absorption,
    (Mechanism.ACOUSTIC, Regime.QUANTUM, Observable.ABSORPTION): acoustic._quantum_absorption,
    (Mechanism.ACOUSTIC, Regime.CLASSICAL, Observable.EMISSION): _classical_acoustic,
    (Mechanism.ACOUSTIC, Regime.QUANTUM, Observable.EMISSION): _quantum_acoustic,
}


def _terms(
    mechanism: Mechanism, regime: Regime, observables: list[Observable],
    valleys: ValleySet, material: Material, omega: float, spec: QuadratureSpec,
) -> list[Terms]:
    """Per-valley terms of each observable (ABSORPTION or EMISSION) at one
    frequency.  In the general regime the rate core runs once and every
    observable projects from it; closed forms check their regime guards."""
    if regime is Regime.GENERAL:
        if mechanism is Mechanism.IMPURITY:
            rates = impurity._rates(valleys, material, omega, spec)
        else:
            rates = acoustic._rates(valleys, material, omega)
        return [
            _absorbed(rates) if o is Observable.ABSORPTION else _emitted(rates, material, omega)
            for o in observables
        ]
    return [_CLOSED_FORMS[mechanism, regime, o](valleys, material, omega) for o in observables]


def _emission(
    mechanism: Mechanism, valleys: ValleySet, material: Material, omega: float,
    pol: Polarization, regime: Regime | str, spec: QuadratureSpec,
) -> EmissionResult:
    if not omega > 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    regime = Regime(regime)
    (terms,) = _terms(mechanism, regime, [Observable.EMISSION], valleys, material, omega, spec)
    return EmissionResult(
        dW_dOmega=_project(terms, pol), omega=omega, regime=regime, mechanism=mechanism
    )


def emission_impurity(
    valleys: ValleySet,
    material: Material,
    omega: float,
    pol: Polarization,
    regime: Regime | str = Regime.GENERAL,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> EmissionResult:
    """Spontaneous emission intensity under impurity scattering.

    general:   by detailed balance from the impurity rate core (module
               docstring), i.e. per valley e^{-hbar omega/theta_i} times
               p_plus at the one-photon amplitude times the mode density.
    classical: flat in omega, through the Conwell-Weisskopf logarithm.
    quantum:   (hbar omega)^{-1/2} e^{-hbar omega/theta_i}, unscreened.
    """
    return _emission(Mechanism.IMPURITY, valleys, material, omega, pol, regime, spec)


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
    classical: (4 e0^2/3 pi^{5/2} c^3) sum_i n_i theta_i {weight}; note the
               complete absence of omega: the classical spectrum is flat.
    quantum:   (e0^2/6 pi^2 c^3) sum_i (n_i/sqrt(theta_i)) (hbar omega)^{3/2}
               e^{-hbar omega/theta_i} {weight}
    """
    return _emission(
        Mechanism.ACOUSTIC, valleys, material, omega, pol, regime, DEFAULT_QUADRATURE
    )
