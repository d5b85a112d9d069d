"""Mechanism, frequency-regime, and observable selectors.

Regimes are explicit: the caller picks ``general`` (the spectral quadrature
core), ``classical`` (hbar*omega well below the electron temperature) or
``quantum`` (well above).  Closed forms refuse to evaluate outside their
validity window; there is no automatic switching.
"""

from __future__ import annotations

from enum import Enum

__all__ = [
    "Regime",
    "Mechanism",
    "Observable",
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
