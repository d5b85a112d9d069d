"""Free-carrier light absorption and hot-electron spontaneous emission in
multivalley semiconductors with anisotropic impurity and acoustic scattering.

Absorption coefficients K (cm^-1) and emission intensities dW/dOmega come in
a general quadrature/Bessel-kernel form valid at any frequency, plus
classical and quantum closed-form limits with explicit validity guards.
Internal units are Gaussian CGS throughout.
"""

from .acoustic import (
    absorption_acoustic,
    mobility_acoustic,
    tau_acoustic,
)
from .config import (
    RunConfig,
    SweepResult,
    SweepSpec,
    parse_config,
    run_sweep,
    write_csv,
)
from .constants import (
    C_LIGHT,
    E_CHARGE,
    EULER_GAMMA,
    HBAR,
    K_BOLTZMANN,
    M_ELECTRON,
    theta_from_ev,
    theta_from_kelvin,
)
from .emission import (
    EmissionResult,
    emission_acoustic,
    emission_impurity,
    mode_density,
    photon_amplitude,
)
from .errors import ConfigError, QuadratureError, RegimeError
from .geometry import (
    Material,
    Polarization,
    Valley,
    ValleySet,
    cos_phi,
    debye_radius,
    incident_flux,
    load_preset,
)
from .impurity import (
    RelaxationTensor,
    absorption_impurity,
    mobility_impurity,
    p_minus,
    p_plus,
    relaxation_impurity,
    x_min,
)
from .modes import Mechanism, Observable, Regime
from .quadrature import (
    DEFAULT_QUADRATURE,
    QuadratureSpec,
    integrate_spectral,
    integrate_unit_sphere,
)
from .special import (
    ShapeParams,
    acoustic_kernel,
    b_param,
    bessel_k0,
    bessel_k1,
    bessel_k2,
    coulomb_log,
    psi,
    psi_infinity,
    shape_b1,
    shape_b2,
)

__version__ = "0.1.0"

__all__ = [
    "C_LIGHT",
    "DEFAULT_QUADRATURE",
    "ConfigError",
    "E_CHARGE",
    "EULER_GAMMA",
    "EmissionResult",
    "HBAR",
    "K_BOLTZMANN",
    "M_ELECTRON",
    "Material",
    "Mechanism",
    "Observable",
    "Polarization",
    "QuadratureError",
    "QuadratureSpec",
    "Regime",
    "RegimeError",
    "RelaxationTensor",
    "RunConfig",
    "ShapeParams",
    "SweepResult",
    "SweepSpec",
    "Valley",
    "ValleySet",
    "absorption_acoustic",
    "absorption_impurity",
    "acoustic_kernel",
    "b_param",
    "bessel_k0",
    "bessel_k1",
    "bessel_k2",
    "cos_phi",
    "coulomb_log",
    "debye_radius",
    "emission_acoustic",
    "emission_impurity",
    "incident_flux",
    "integrate_spectral",
    "integrate_unit_sphere",
    "load_preset",
    "mobility_acoustic",
    "mobility_impurity",
    "mode_density",
    "p_minus",
    "p_plus",
    "parse_config",
    "photon_amplitude",
    "psi",
    "psi_infinity",
    "relaxation_impurity",
    "run_sweep",
    "shape_b1",
    "shape_b2",
    "tau_acoustic",
    "theta_from_ev",
    "theta_from_kelvin",
    "write_csv",
    "x_min",
]
