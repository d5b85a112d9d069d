"""Physical constants in Gaussian CGS units, plus unit-conversion factors.

Everything inside the library works in CGS: energies in erg, lengths in cm,
masses in g, charge in esu, time in s.  User-facing helpers accept electron
temperatures in eV or kelvin, masses in electron-mass multiples, and
concentrations in cm^-3; conversion happens once, at construction.
"""

from __future__ import annotations

__all__ = [
    "E_CHARGE",
    "HBAR",
    "C_LIGHT",
    "M_ELECTRON",
    "K_BOLTZMANN",
    "EULER_GAMMA",
    "ERG_PER_EV",
    "theta_from_kelvin",
    "theta_from_ev",
    "mass_from_me",
]

E_CHARGE = 4.80320425e-10       # electron charge (esu)
HBAR = 1.054571817e-27          # erg s
C_LIGHT = 2.99792458e10         # cm/s
M_ELECTRON = 9.1093837015e-28   # g
K_BOLTZMANN = 1.380649e-16      # erg/K
EULER_GAMMA = 0.5772156649015329

ERG_PER_EV = 1.602176634e-12


def theta_from_kelvin(temperature_K: float) -> float:
    """Electron temperature in erg from kelvin."""
    return K_BOLTZMANN * temperature_K


def theta_from_ev(temperature_eV: float) -> float:
    """Electron temperature in erg from eV."""
    return ERG_PER_EV * temperature_eV


def mass_from_me(ratio: float) -> float:
    """Effective mass in grams from an electron-mass multiple."""
    return ratio * M_ELECTRON
