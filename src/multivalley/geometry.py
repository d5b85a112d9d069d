"""Material and valley data model, polarization geometry, and flux helpers.

A valley is a conduction-band minimum with a prolate mass ellipsoid
(m_par > m_perp) whose rotation axis points along the unit vector ``axis``
in the laboratory frame.  Electrons in valley i carry their own Maxwellian
temperature theta_i (erg) and concentration n_i (cm^-3), so hot-electron and
pressure-redistributed populations are expressible per valley.

All types are immutable after construction and all operations are pure.

Every observable is projected from per-valley terms, columns over a frequency
grid, by one function, :func:`_project`, which applies the observable's weight
and, for emission, Kirchhoff's factor, and is where the polarization enters;
:func:`_terms` computes the terms from the selected mechanism's module alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

from .constants import (
    C_LIGHT,
    E_CHARGE,
    HBAR,
    K_BOLTZMANN,
    mass_from_me,
    theta_from_ev,
    theta_from_kelvin,
)
from .errors import ConfigError
from .modes import Mechanism, Observable, Regime, parse

__all__ = [
    "Material",
    "Valley",
    "ValleySet",
    "Polarization",
    "PRESET_AXES",
    "load_preset",
    "OMEGA_MIN",
    "OMEGA_MAX",
    "check_omega",
    "cos_phi",
    "debye_radius",
    "incident_flux",
]

_UNIT_NORM_TOL = 1e-12

# omega^3 enters the prefactors: it overflows double precision above ~5.6e102,
# and the Kirchhoff factor hbar omega^3 of emission underflows below ~1e-86.
OMEGA_MIN, OMEGA_MAX = 1e-50, 1e100


def check_omega(omega: float, name: str = "omega") -> None:
    """Raise ConfigError, naming ``name``, unless OMEGA_MIN <= omega <= OMEGA_MAX
    (rad/s): the one frequency domain of the config sweeps and the public
    observables.  NaN and infinities fall outside it; so does omega <= 0,
    and ConfigError is a ValueError."""
    if not OMEGA_MIN <= omega <= OMEGA_MAX:
        raise ConfigError(
            f"{name}: {omega:g} rad/s is outside [{OMEGA_MIN:g}, {OMEGA_MAX:g}], "
            "where omega^3 underflows or overflows double precision"
        )


def _check_unit(vec: tuple[float, float, float], name: str) -> None:
    if len(vec) != 3:
        raise ConfigError(f"{name} must have 3 components, got {len(vec)}")
    norm = math.sqrt(vec[0] ** 2 + vec[1] ** 2 + vec[2] ** 2)
    if not abs(norm - 1.0) <= _UNIT_NORM_TOL:  # NaN fails too
        raise ConfigError(f"{name} must be a unit vector; |{name}| = {norm!r}")


def _as_unit_tuple(vec: Sequence[float], name: str) -> tuple[float, float, float]:
    if len(vec) != 3:
        raise ConfigError(f"{name} must have 3 components, got {len(vec)}")
    x, y, z = (float(v) for v in vec)
    norm = math.hypot(x, y, z)
    if not 0.0 < norm < math.inf:
        raise ConfigError(f"{name} must be a non-zero vector of finite length")
    return (x / norm, y / norm, z / norm)


@dataclass(frozen=True)
class Material:
    """Host-crystal constants, in CGS.

    Attributes
    ----------
    m_perp, m_par : float
        Transverse and longitudinal effective masses (g); m_par > m_perp.
    eps0 : float
        Static dielectric constant.
    n_a : float
        Ionized-impurity concentration (cm^-3).
    r_D : float or None
        Debye screening radius (cm).  May be left None and filled later from
        the electron concentration via :func:`debye_radius`.
    tau_perp0, tau_par0 : float
        Acoustic relaxation-time prefactors (s); the energy dependence is
        tau(eps) = tau0 * sqrt(theta/eps).
    """

    m_perp: float
    m_par: float
    eps0: float
    n_a: float
    tau_perp0: float
    tau_par0: float
    r_D: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.m_perp < math.inf:
            raise ConfigError(f"m_perp must be positive and finite, got {self.m_perp}")
        if not self.m_perp < self.m_par < math.inf:
            raise ConfigError(
                f"m_par ({self.m_par!r}) must be finite and exceed m_perp ({self.m_perp!r}): "
                "oblate valleys are outside this model's domain"
            )
        if not 1.0 <= self.eps0 < math.inf:
            raise ConfigError(f"eps0 must be >= 1 and finite, got {self.eps0}")
        if not 0.0 < self.n_a < math.inf:
            raise ConfigError(f"n_a must be positive and finite, got {self.n_a}")
        if self.r_D is not None and not 0.0 < self.r_D < math.inf:
            raise ConfigError(f"r_D must be positive and finite, got {self.r_D}")
        if not (0.0 < self.tau_perp0 < math.inf and 0.0 < self.tau_par0 < math.inf):
            raise ConfigError("tau_perp0 and tau_par0 must be positive and finite")

    @classmethod
    def from_units(
        cls,
        m_perp_me: float,
        m_par_me: float,
        eps0: float,
        n_a: float,
        tau_perp0: float,
        tau_par0: float,
        r_D: float | None = None,
    ) -> "Material":
        """Construct with masses given as electron-mass multiples."""
        return cls(
            m_perp=mass_from_me(m_perp_me),
            m_par=mass_from_me(m_par_me),
            eps0=eps0,
            n_a=n_a,
            tau_perp0=tau_perp0,
            tau_par0=tau_par0,
            r_D=r_D,
        )

    def require_r_D(self) -> float:
        if self.r_D is None:
            raise ConfigError(
                "Material.r_D is not set; supply it or fill it with "
                "Material.with_debye_radius(theta, n_total)"
            )
        return self.r_D

    def with_debye_radius(self, theta: float, n_total: float) -> "Material":
        """Copy of this material with r_D computed from the screening gas."""
        return replace(self, r_D=debye_radius(self.eps0, theta, n_total))

    @property
    def mass_contrast(self) -> float:
        return self.m_par - self.m_perp


@dataclass(frozen=True)
class Valley:
    """One conduction-band valley: axis (unit vector), n (cm^-3), theta (erg)."""

    axis: tuple[float, float, float]
    n: float
    theta: float

    def __post_init__(self) -> None:
        _check_unit(self.axis, "axis")
        if not 0.0 <= self.n < math.inf:
            raise ConfigError(f"valley concentration must be >= 0 and finite, got {self.n}")
        if not 0.0 < self.theta < math.inf:
            raise ConfigError(f"valley temperature must be positive and finite, got {self.theta}")

    @classmethod
    def from_units(
        cls,
        axis: Sequence[float],
        n: float,
        theta_K: float | None = None,
        theta_eV: float | None = None,
    ) -> "Valley":
        if (theta_K is None) == (theta_eV is None):
            raise ConfigError("give exactly one of theta_K or theta_eV")
        theta = theta_from_kelvin(theta_K) if theta_K is not None else theta_from_ev(theta_eV)
        return cls(axis=_as_unit_tuple(axis, "axis"), n=n, theta=theta)


@dataclass(frozen=True)
class Polarization:
    """Unit vector of the wave's electric-field polarization."""

    q0: tuple[float, float, float]

    def __post_init__(self) -> None:
        _check_unit(self.q0, "q0")

    @classmethod
    def from_vector(cls, vec: Sequence[float]) -> "Polarization":
        return cls(q0=_as_unit_tuple(vec, "q0"))


@dataclass(frozen=True)
class ValleySet:
    """Ordered, non-empty collection of valleys."""

    valleys: tuple[Valley, ...]

    def __post_init__(self) -> None:
        if len(self.valleys) == 0:
            raise ConfigError("a ValleySet needs at least one valley")

    def __iter__(self) -> Iterator[Valley]:
        return iter(self.valleys)

    def __len__(self) -> int:
        return len(self.valleys)

    def total_n(self) -> float:
        return sum(v.n for v in self.valleys)

    def mean_theta(self) -> float:
        """Population-weighted mean temperature (plain mean if unpopulated)."""
        n_tot = self.total_n()
        if n_tot > 0.0:
            return sum(v.n * v.theta for v in self.valleys) / n_tot
        return sum(v.theta for v in self.valleys) / len(self.valleys)

    def with_population(self, n, theta) -> "ValleySet":
        """Copy with per-valley n and theta replaced.

        ``n`` and ``theta`` may be scalars (broadcast to every valley) or
        sequences with one entry per valley.
        """
        ns = _broadcast(n, len(self.valleys), "n")
        thetas = _broadcast(theta, len(self.valleys), "theta")
        return ValleySet(
            tuple(
                Valley(axis=v.axis, n=ni, theta=ti)
                for v, ni, ti in zip(self.valleys, ns, thetas)
            )
        )


def _broadcast(value, count: int, name: str) -> list[float]:
    if isinstance(value, (int, float)):
        return [float(value)] * count
    values = [float(v) for v in value]
    if len(values) != count:
        raise ConfigError(f"{name} needs 1 or {count} entries, got {len(values)}")
    return values


_SQRT3 = math.sqrt(3.0)

# Inequivalent <111> axes for the four L valleys, and the six <100> Delta
# valleys.  Populations and temperatures are placeholders for the config.
PRESET_AXES: dict[str, tuple[tuple[float, float, float], ...]] = {
    "Ge4": (
        (1 / _SQRT3, 1 / _SQRT3, 1 / _SQRT3),
        (1 / _SQRT3, 1 / _SQRT3, -1 / _SQRT3),
        (1 / _SQRT3, -1 / _SQRT3, 1 / _SQRT3),
        (-1 / _SQRT3, 1 / _SQRT3, 1 / _SQRT3),
    ),
    "Si6": (
        (1.0, 0.0, 0.0),
        (-1.0, 0.0, 0.0),
        (0.0, 1.0, 0.0),
        (0.0, -1.0, 0.0),
        (0.0, 0.0, 1.0),
        (0.0, 0.0, -1.0),
    ),
}

_PLACEHOLDER_THETA = K_BOLTZMANN * 300.0


def load_preset(name: str, n: float = 0.0, theta: float = _PLACEHOLDER_THETA) -> ValleySet:
    """Valley geometry for a named preset (``Ge4`` or ``Si6``).

    ``n`` and ``theta`` default to placeholders (empty valleys at 300 K);
    real populations come from the run configuration or
    :meth:`ValleySet.with_population`.
    """
    try:
        axes = PRESET_AXES[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESET_AXES))}"
        ) from None
    return ValleySet(tuple(Valley(axis=a, n=n, theta=theta) for a in axes))


def cos_phi(valley: Valley, pol: Polarization) -> float:
    """Cosine of the angle between the valley axis and the polarization."""
    a, q = valley.axis, pol.q0
    return a[0] * q[0] + a[1] * q[1] + a[2] * q[2]


# Per-valley terms.  Every observable is a common factor times a sum over
# populated valleys of a weight w_i times a polarization-independent pair
# (r_perp_i, r_par_i): the valley's values for polarization across and along
# its axis.  A source gives them for a whole frequency grid as columns,
# (factors, [(valley, ws, r_perps, r_pars), ...]), each list one entry per
# frequency.  The factor is applied once, after the sum, so that tiny weights
# such as e^{-s_i} meet the large pairs while both are still far from underflow.
Terms = tuple[list[float], list[tuple[Valley, list[float], list[float], list[float]]]]
# An observable and its weight, a function of s_i = hbar omega/theta_i, or None.
Weighing = tuple[Observable, Callable[[float], float] | None]


def _populated(valleys: ValleySet) -> list[Valley]:
    return [v for v in valleys if v.n > 0.0]


def _project(terms: Terms, material: Material, omegas: Sequence[float], pol: Polarization,
             weighings: Sequence[Weighing]) -> list[tuple[float, ...]]:
    """The values of the weighed observables at polarization ``pol``, one tuple
    per frequency: factor * sum_i (w_i weight(s_i)) [(1 - c_i^2) r_perp_i +
    c_i^2 r_par_i], summed in valley order and exactly affine in each
    c_i^2 = cos^2(phi_i), which is computed once per valley and call.  For
    emission (Kirchhoff's law) the factor is first multiplied by the flux of
    one photon times the mode density, hbar omega^3 sqrt(eps0)/(8 pi^3 c^2)."""
    factors, columns = terms
    c2s = [cos_phi(valley, pol) ** 2 for valley, *_ in columns]
    rows = []
    for j, (omega, factor) in enumerate(zip(omegas, factors)):
        row = []
        for observable, weight in weighings:
            total = 0.0
            for (valley, ws, r_perps, r_pars), c2 in zip(columns, c2s):
                w = ws[j] if weight is None else ws[j] * weight(HBAR * omega / valley.theta)
                total += w * ((1.0 - c2) * r_perps[j] + c2 * r_pars[j])
            scale = factor
            if observable is Observable.EMISSION:
                scale *= (HBAR * omega**3 * math.sqrt(material.eps0)
                          / (8.0 * math.pi**3 * C_LIGHT**2))
            row.append(scale * total)
        rows.append(tuple(row))
    return rows


# The CSV column of each observable, which also names it in errors.
_COLUMNS = {Observable.ABSORPTION: "K_per_cm", Observable.EMISSION: "dW_dOmega_cgs"}


def _observe(terms: Terms, material: Material, omegas: Sequence[float], pol: Polarization,
             weighings: Sequence[Weighing]) -> list[tuple[float, ...]]:
    """:func:`_project`, checked: FloatingPointError, naming the column and
    omega of the first value in row order that is not finite (inputs far
    outside the documented domain can overflow)."""
    rows = _project(terms, material, omegas, pol, weighings)
    for omega, row in zip(omegas, rows):
        for (observable, _), value in zip(weighings, row):
            if not math.isfinite(value):
                raise FloatingPointError(
                    f"{_COLUMNS[observable]} is {value} at omega = {omega:.6e} rad/s")
    return rows


# The weight of each valley's source term in an observable, a function of
# s_i = hbar omega/theta_i.  The general source is the rate r_i before
# stimulated emission: absorption weighs it with 1 - e^{-s_i}, emission with
# e^{-s_i}.  A closed form's source is K_i, or for quantum acoustic absorption
# its leading term; emission applies the asymptote of the Bose factor
# 1/(e^{s_i} - 1): 1/s_i for s_i << 1, e^{-s_i} for s_i >> 1.  A key that
# also names a mechanism holds for that mechanism alone: quantum acoustic
# absorption multiplies its leading term by the next order of the kernel,
# 1 + 3/s_i, which emission leaves out.
_WEIGHTS = {
    (Regime.GENERAL, Observable.ABSORPTION): lambda s: -math.expm1(-s),
    (Regime.GENERAL, Observable.EMISSION): lambda s: math.exp(-s),
    (Regime.CLASSICAL, Observable.EMISSION): lambda s: 1.0 / s,
    (Regime.QUANTUM, Observable.EMISSION): lambda s: math.exp(-s),
    (Regime.QUANTUM, Observable.ABSORPTION, Mechanism.ACOUSTIC): lambda s: 1.0 + 3.0 / s,
}


def _terms(mechanism: Mechanism, regime: Regime, valleys: ValleySet, material: Material,
           omegas: Sequence[float]) -> Terms:
    """The source of every observable, per-valley columns over the grid: the
    mechanism module's ``_rates`` or closed-form absorption, which checks its
    regime guards at every frequency before it computes a value.  Only the
    selected mechanism's module is imported."""
    if mechanism is Mechanism.IMPURITY:
        from . import impurity as module
    else:
        from . import acoustic as module
    source = (module._rates if regime is Regime.GENERAL else module._classical_absorption
              if regime is Regime.CLASSICAL else module._quantum_absorption)
    return source(valleys, material, omegas)


def _weighings(mechanism: Mechanism, regime: Regime,
               observables: Sequence[Observable]) -> list[Weighing]:
    """Each observable with its ``_WEIGHTS`` entry (None for none), for the projection."""
    return [(o, _WEIGHTS.get((regime, o, mechanism)) or _WEIGHTS.get((regime, o)))
            for o in observables]


def _value(mechanism: Mechanism, observable: Observable, valleys: ValleySet, material: Material,
           omega: float, pol: Polarization, regime: Regime | str) -> float:
    """One observable at one frequency: the body of the four public observables."""
    check_omega(omega)
    regime = parse(Regime, regime, "regime")
    terms = _terms(mechanism, regime, valleys, material, [omega])
    ((value,),) = _observe(terms, material, [omega], pol,
                           _weighings(mechanism, regime, [observable]))
    return value


def debye_radius(eps0: float, theta: float, n_total: float) -> float:
    """Debye screening radius sqrt(eps0 theta / (4 pi e0^2 n_total)) in cm."""
    if eps0 <= 0.0 or theta <= 0.0 or n_total <= 0.0:
        raise ValueError("eps0, theta and n_total must all be positive")
    return math.sqrt(eps0 * theta / (4.0 * math.pi * E_CHARGE**2 * n_total))


def incident_flux(omega: float, A0: float, eps0: float) -> float:
    """Energy flux of the incident wave, (sqrt(eps0)/8 pi) (omega^2/c) A0^2.

    omega in rad/s, A0 the vector-potential amplitude; result in
    erg cm^-2 s^-1.
    """
    check_omega(omega)
    return math.sqrt(eps0) / (8.0 * math.pi) * omega**2 / C_LIGHT * A0**2
