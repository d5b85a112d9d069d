"""Mechanism, frequency-regime, and observable selectors.

Regimes are explicit: the caller picks ``general`` (any frequency), ``classical``
(hbar*omega well below the electron temperature) or ``quantum`` (well above).
Closed forms refuse to evaluate outside their validity window
(:func:`check_window`); there is no automatic switching.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Sequence, TypeVar

from .constants import HBAR
from .errors import ConfigError, RegimeError

if TYPE_CHECKING:  # geometry imports this module
    from .geometry import Valley

__all__ = [
    "Regime",
    "Mechanism",
    "Observable",
    "parse",
    "check_window",
    "CLASSICAL_S_MAX",
    "QUANTUM_S_MIN",
    "QUANTUM_SCREENING_MIN",
    "XMIN_MAX",
]

# Validity thresholds for s = hbar*omega/theta.  The asymptotic derivations
# only say "much less/greater than one"; these cutoffs are the policy this
# implementation enforces.
CLASSICAL_S_MAX = 0.1
QUANTUM_S_MIN = 10.0
# The quantum impurity form drops screening; require (q_omega * r_D)^2 large.
QUANTUM_SCREENING_MIN = 1.0e3
# The Conwell-Weisskopf logarithm needs x_min well below one.
XMIN_MAX = 0.1


class Regime(str, Enum):
    GENERAL = "general"
    CLASSICAL = "classical"
    QUANTUM = "quantum"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Mechanism(str, Enum):
    IMPURITY = "impurity"
    ACOUSTIC = "acoustic"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Observable(str, Enum):
    ABSORPTION = "absorption"
    EMISSION = "emission"
    BOTH = "both"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


E = TypeVar("E", bound=Enum)


def parse(selector: type[E], value: E | str, key: str) -> E:
    """The member of ``selector`` named by ``value`` (a member passes through);
    ConfigError naming ``key`` and the allowed values otherwise."""
    try:
        return selector(value)
    except ValueError:
        *names, last = (repr(member.value) for member in selector)
        raise ConfigError(f"{key}: expected {', '.join(names)} or {last}, got {value!r}") from None


def check_window(valleys: Sequence[Valley], omegas: Sequence[float], regime: Regime,
                 form: str) -> None:
    """RegimeError at the first omega, in grid order, where s = hbar*omega/theta_i
    of a valley (populated: ``geometry._terms``) leaves the window of the ``regime``
    closed form: s <= CLASSICAL_S_MAX, or s >= QUANTUM_S_MIN.  ``form`` names the mechanism."""
    classical = regime is Regime.CLASSICAL
    bound, relation = (CLASSICAL_S_MAX, "<=") if classical else (QUANTUM_S_MIN, ">=")
    for omega in omegas:
        for v in valleys:
            s = HBAR * omega / v.theta
            if (s > bound) if classical else (s < bound):
                raise RegimeError(
                    f"{regime.value} {form} form needs hbar*omega/theta {relation} {bound}, "
                    f"got {s:.3e} at omega = {omega:.6e} rad/s"
                )
