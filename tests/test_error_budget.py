"""How far each closed form sits from the general regime at its guard edge.

One Ge valley at 300 K, axis (0, 0, 1), polarization along (0.3, -0.5, 0.9),
at hbar*omega/theta = 0.1 (the classical edge) and 10 (the quantum edge): the
signed relative error closed/general - 1 of each mechanism and observable,
at two screening lengths.  Each entry is an upper
bound on the error's size, on the side it falls; the README lists the same
table.  The acceptance criteria keep their own tolerances.
"""

import dataclasses

import pytest

import multivalley as mv
from multivalley.constants import HBAR

# (regime, mechanism, r_D in cm) -> signed bounds for (K, dW/dOmega).
BUDGET = {
    ("classical", "impurity", 3e-5): (0.53, 0.61),
    ("classical", "impurity", 1e-4): (0.89, 0.99),
    ("classical", "acoustic", 3e-5): (2.1e-4, 0.052),
    ("classical", "acoustic", 1e-4): (2.1e-4, 0.052),
    ("quantum", "impurity", 3e-5): (0.024, 0.024),
    ("quantum", "impurity", 1e-4): (0.024, 0.024),
    ("quantum", "acoustic", 3e-5): (-0.076, -0.29),
    ("quantum", "acoustic", 1e-4): (-0.076, -0.29),
}
GUARD_EDGE_S = {"classical": 0.1, "quantum": 10.0}


@pytest.mark.parametrize("regime,mechanism,r_D", list(BUDGET))
def test_closed_form_error_at_guard_edge(ge_material, single_valley, pol_skew,
                                         regime, mechanism, r_D):
    material = dataclasses.replace(ge_material, r_D=r_D)
    theta = single_valley.valleys[0].theta
    omega = GUARD_EDGE_S[regime] * theta / HBAR
    args = (single_valley, material, omega, pol_skew)
    absorption = getattr(mv, f"absorption_{mechanism}")
    emission = getattr(mv, f"emission_{mechanism}")
    errors = (
        absorption(*args, regime) / absorption(*args, "general") - 1.0,
        emission(*args, regime).dW_dOmega / emission(*args, "general").dW_dOmega - 1.0,
    )
    for error, bound in zip(errors, BUDGET[regime, mechanism, r_D]):
        assert 0.0 < error / bound <= 1.0, (error, bound)
