"""The spectral integration engine:

    int_0^inf e^-x g(x) / sqrt(x (x + s)) dx,

a semi-infinite integral with a 1/sqrt(x) endpoint singularity.  The
substitution x = t^2 removes the singularity, and a fixed composite
15-point Gauss-Kronrod rule, evaluated as one numpy pass, integrates the
smooth transformed integrand.  The panels are graded geometrically towards
the scale sqrt(s), where the integrand turns over; the embedded 7-point
Gauss rule gives every panel QUADPACK's error estimate.  The unit-sphere
rule of the brute-force oracles lives in ``oracles``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import QuadratureError

__all__ = [
    "QuadratureSpec",
    "DEFAULT_QUADRATURE",
    "integrate_spectral",
    "integrate_spectral_with_error",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances of the spectral integrator."""

    rel_tol: float = 1e-9

    def __post_init__(self) -> None:
        if not 0.0 < self.rel_tol <= 1e-3:
            raise ValueError(f"rel_tol must lie in (0, 1e-3], got {self.rel_tol}")


DEFAULT_QUADRATURE = QuadratureSpec()
_ABS_TOL = 1e-300  # absolute slack of the error test, against zero-valued integrands


# QUADPACK's qk15 (Piessens et al., QUADPACK, 1983): the 15-point Kronrod
# rule on [-1, 1] and its embedded 7-point Gauss rule, whose nodes are every
# second Kronrod node.  Listed from the outermost node to the centre.
_XK = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
)
_WK = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
)
_NODES = np.array(_XK + tuple(-v for v in _XK[-2::-1]))
_KRONROD = np.array(_WK + _WK[-2::-1])
_GAUSS = np.zeros(15)
_GAUSS[1::2] = _WG + _WG[-2::-1]
# Columns: the Kronrod weights and the Kronrod-minus-Gauss weights.
_WEIGHTS = np.stack((_KRONROD, _KRONROD - _GAUSS), axis=1)

# Panel layout in t = sqrt(x): one panel [0, t0] with t0 = sqrt(s)/4 (at most
# 1/4), geometric panels of ratio at most 1.6 up to t = 1, then panels at
# most 0.5 wide up to the truncation point.  Below sqrt(s) = 1e-8 (far under
# any photon energy of the documented domain; s = 0 included) the grading
# stops; the error estimate still reports what that costs.
_GEOMETRIC_RATIO = 1.6
_TAIL_WIDTH = 0.5
_ROOT_S_MIN = 1e-8


def _panel_edges(s: float, rel_tol: float) -> np.ndarray:
    # Truncate where the e^-x envelope is far below the tolerance floor; all
    # integrands carry that envelope, so the discarded tail is negligible.
    t_max = math.sqrt(-math.log(rel_tol) + 18.5)
    t0 = 0.25 * min(max(math.sqrt(s), _ROOT_S_MIN), 1.0)
    n_geometric = math.ceil(math.log(1.0 / t0) / math.log(_GEOMETRIC_RATIO))
    ratio = (1.0 / t0) ** (1.0 / n_geometric)
    n_tail = math.ceil((t_max - 1.0) / _TAIL_WIDTH)
    width = (t_max - 1.0) / n_tail
    return np.array(
        [0.0] + [t0 * ratio**k for k in range(n_geometric)]
        + [1.0 + k * width for k in range(n_tail)] + [t_max]
    )


def integrate_spectral_with_error(
    g: Callable[[np.ndarray], np.ndarray],
    s: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> tuple[float, float]:
    """Like :func:`integrate_spectral` but also returns the error estimate.

    The estimate is the sum over panels of QUADPACK's Gauss-Kronrod estimate
    ``resasc * min(1, (200 |K - G| / resasc)^1.5)``; above ``10 rel_tol``
    times the value it raises :class:`QuadratureError`.
    """
    if s < 0.0:
        raise ValueError(f"s must be non-negative, got {s}")
    edges = _panel_edges(s, spec.rel_tol)
    width = edges[1:] - edges[:-1]
    t = (edges[:-1] + 0.5 * width)[:, None] + (0.5 * width)[:, None] * _NODES
    x = t * t
    # x = t^2 turns the weight into 2 e^{-t^2} / sqrt(t^2 + s), finite at the
    # origin for s > 0 and integrable for the g(0) = 0 integrands used at s = 0.
    # The factor 2 times each panel's half-width is its width.
    f = np.exp(-x) * g(x) / np.sqrt(x + s)

    kronrod, k_minus_g = (f @ _WEIGHTS).T
    value = float(width @ kronrod)
    asc = width * (np.abs(f - 0.5 * kronrod[:, None]) @ _KRONROD)
    diff = width * np.abs(k_minus_g)
    abserr = 0.0
    for a, d in zip(asc.tolist(), diff.tolist()):
        abserr += a * min(1.0, (200.0 * d / a) ** 1.5) if a > 0.0 else d

    if not math.isfinite(value) or (
        abserr > 10.0 * spec.rel_tol * abs(value) + _ABS_TOL and abs(value) > 0.0
    ):
        raise QuadratureError(
            f"spectral integral error estimate {abserr:.3e} exceeds the "
            f"requested relative tolerance {spec.rel_tol:.1e} (value {value:.6e})",
            estimate=abserr,
        )
    return value, abserr


def integrate_spectral(
    g: Callable[[np.ndarray], np.ndarray],
    s: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """``int_0^inf e^-x g(x) / sqrt(x (x + s)) dx`` to the spec's rel_tol.

    ``s`` is the dimensionless photon-to-thermal energy ratio; ``g`` maps an
    ndarray of x elementwise, must be bounded on (0, inf) and, for s = 0,
    must vanish at the origin fast enough to keep the integrand integrable.
    """
    return integrate_spectral_with_error(g, s, spec)[0]

