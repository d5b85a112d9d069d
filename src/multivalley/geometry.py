"""Material and valley data model, polarization geometry, and flux helpers.

A valley is a conduction-band minimum with a prolate mass ellipsoid
(m_par > m_perp) whose rotation axis points along the unit vector ``axis``
in the laboratory frame.  Electrons in valley i carry their own Maxwellian
temperature theta_i (erg) and concentration n_i (cm^-3), so hot-electron and
pressure-redistributed populations are expressible per valley.

All types are immutable after construction and all operations are pure.

The observables are computed as per-valley terms and combined by one
projection, :func:`_project`, which is where the polarization enters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

from .constants import E_CHARGE, K_BOLTZMANN, theta_from_ev, theta_from_kelvin
from .errors import ConfigError

__all__ = [
    "Material",
    "Valley",
    "ValleySet",
    "Polarization",
    "PRESET_AXES",
    "load_preset",
    "cos_phi",
    "debye_radius",
    "incident_flux",
]

_UNIT_NORM_TOL = 1e-12


def _check_unit(vec: tuple[float, float, float], name: str) -> None:
    norm = math.sqrt(vec[0] ** 2 + vec[1] ** 2 + vec[2] ** 2)
    if abs(norm - 1.0) > _UNIT_NORM_TOL:
        raise ConfigError(f"{name} must be a unit vector; |{name}| = {norm!r}")


def _as_unit_tuple(vec: Sequence[float], name: str) -> tuple[float, float, float]:
    if len(vec) != 3:
        raise ConfigError(f"{name} must have 3 components, got {len(vec)}")
    x, y, z = (float(v) for v in vec)
    norm = math.sqrt(x * x + y * y + z * z)
    if norm <= 0.0:
        raise ConfigError(f"{name} must be a non-zero vector")
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
        if not self.m_perp > 0.0:
            raise ConfigError(f"m_perp must be positive, got {self.m_perp}")
        if not self.m_par > self.m_perp:
            raise ConfigError(
                f"m_par ({self.m_par!r}) must exceed m_perp ({self.m_perp!r}): "
                "oblate valleys are outside this model's domain"
            )
        if self.eps0 < 1.0:
            raise ConfigError(f"eps0 must be >= 1, got {self.eps0}")
        if not self.n_a > 0.0:
            raise ConfigError(f"n_a must be positive, got {self.n_a}")
        if self.r_D is not None and not self.r_D > 0.0:
            raise ConfigError(f"r_D must be positive, got {self.r_D}")
        if not self.tau_perp0 > 0.0 or not self.tau_par0 > 0.0:
            raise ConfigError("tau_perp0 and tau_par0 must be positive")

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
        from .constants import mass_from_me

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
        if self.n < 0.0:
            raise ConfigError(f"valley concentration must be >= 0, got {self.n}")
        if not self.theta > 0.0:
            raise ConfigError(f"valley temperature must be positive, got {self.theta}")

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
# its axis.  Terms are (factor, [(valley, w_i, r_perp_i, r_par_i), ...]);
# rates have the same shape with s_i = hbar*omega/theta_i in place of w_i,
# before an observable's weight.  The factor is applied once, after the sum,
# so that tiny weights such as e^{-s_i} meet the large pairs while both are
# still far from underflow.
Terms = tuple[float, list[tuple]]


def _populated(valleys: ValleySet) -> list[Valley]:
    return [v for v in valleys if v.n > 0.0]


def _project(terms: Terms, pol: Polarization) -> float:
    """factor * sum_i w_i [(1 - c_i^2) r_perp_i + c_i^2 r_par_i] with
    c_i = cos(phi_i): the value of an observable at polarization ``pol``,
    exactly affine in each c_i^2."""
    factor, per_valley = terms
    total = 0.0
    for valley, w, r_perp, r_par in per_valley:
        c2 = cos_phi(valley, pol) ** 2
        total += w * ((1.0 - c2) * r_perp + c2 * r_par)
    return factor * total


def _absorbed(rates: Terms) -> Terms:
    """Absorption terms: each rate net of stimulated emission, w_i = 1 - e^{-s_i}."""
    factor, per_valley = rates
    return factor, [(v, -math.expm1(-s), r_perp, r_par) for v, s, r_perp, r_par in per_valley]


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
    if not omega > 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    from .constants import C_LIGHT

    return math.sqrt(eps0) / (8.0 * math.pi) * omega**2 / C_LIGHT * A0**2
