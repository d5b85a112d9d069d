"""Free-carrier light absorption and hot-electron spontaneous emission in
multivalley semiconductors with anisotropic impurity and acoustic scattering.

Absorption coefficients K (cm^-1) and emission intensities dW/dOmega come in
a general quadrature form valid at any frequency, plus
classical and quantum closed-form limits with explicit validity guards.
Internal units are Gaussian CGS throughout.  The package exports what the
README's Public API section lists; everything else stays in its module.
The mechanism-side exports import their module on first use, so that a run
loads only the mechanism it computes.
"""

import importlib

from .config import RunConfig, SweepResult, SweepSpec, parse_config, run_sweep, write_csv
from .constants import theta_from_ev, theta_from_kelvin
from .errors import ConfigError, QuadratureError, RegimeError
from .geometry import Material, Polarization, Valley, ValleySet, load_preset
from .modes import Mechanism, Observable, Regime

_LAZY = {"absorption_impurity": "impurity", "absorption_acoustic": "acoustic",
         "emission_impurity": "emission", "emission_acoustic": "emission",
         "EmissionResult": "emission"}


def __getattr__(name: str):
    """A mechanism-side export, looked up in its module at every access."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"

__all__ = [
    "Material",
    "Valley",
    "ValleySet",
    "Polarization",
    "load_preset",
    "theta_from_kelvin",
    "theta_from_ev",
    "absorption_impurity",
    "absorption_acoustic",
    "emission_impurity",
    "emission_acoustic",
    "EmissionResult",
    "Regime",
    "Mechanism",
    "Observable",
    "RunConfig",
    "SweepSpec",
    "SweepResult",
    "parse_config",
    "run_sweep",
    "write_csv",
    "ConfigError",
    "RegimeError",
    "QuadratureError",
]
