"""Free-carrier light absorption and hot-electron spontaneous emission in
multivalley semiconductors with anisotropic impurity and acoustic scattering.

Absorption coefficients K (cm^-1) and emission intensities dW/dOmega come in
a general quadrature/Bessel-kernel form valid at any frequency, plus
classical and quantum closed-form limits with explicit validity guards.
Internal units are Gaussian CGS throughout.  The package exports what the
README's Public API section lists; everything else stays in its module.
"""

from .acoustic import absorption_acoustic
from .config import RunConfig, SweepResult, SweepSpec, parse_config, run_sweep, write_csv
from .constants import theta_from_ev, theta_from_kelvin
from .emission import EmissionResult, emission_acoustic, emission_impurity
from .errors import ConfigError, QuadratureError, RegimeError
from .geometry import Material, Polarization, Valley, ValleySet, load_preset
from .impurity import absorption_impurity
from .modes import Mechanism, Observable, Regime

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
