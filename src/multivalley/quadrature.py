"""The spectral integration engine:

    int_0^inf e^-x g(x) / sqrt(x (x + s)) dx,

a semi-infinite integral with a 1/sqrt(x) endpoint singularity.  The
substitution x = t^2 removes the singularity, and a fixed composite
15-point Gauss-Kronrod rule integrates the smooth transformed integrand.
The panels are graded geometrically towards the scale sqrt(s), where the
integrand turns over; the embedded 7-point Gauss rule gives every panel
QUADPACK's error estimate.

The core, :func:`_integrate`, evaluates several integrands at many s in one
numpy pass per chunk of s: every row's panels, the integrands on the
stacked (s x panel x node) array, the Kronrod sums and the per-panel error
estimates as array operations, reduced per s and checked in order of s.
:func:`integrate_spectral_with_error` is its one-element call.  The
unit-sphere rule of the brute-force oracles lives in ``oracles``.

This is the one runtime module that imports numpy, so it also holds the
batched integrand of the general impurity regime: the endpoint integrals
(:func:`_endpoints`, with the array form :func:`_shape_b12` of the angular
factors).  ``impurity`` reaches it through ``modes.spectral_core``, which
imports this module on the first general-regime impurity call, so the closed
forms, the acoustic mechanism in every regime (its kernel is
``special.acoustic_kernel``), config parsing and the CLI's start-up run
without numpy.

Floating-point policy, the library's and the CLI's: :func:`_integrate` traps
overflow, division by zero and nan (not underflow to zero), each a
:class:`QuadratureError` naming it and the first s whose integral fails.
The setup outside it runs in Python floats or clamps first: it cannot trap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .constants import HBAR
from .errors import QuadratureError
from .geometry import Material
from .special import _B1_TAIL, _B2_TAIL, _B_SERIES_CUTOFF

__all__ = [
    "QuadratureSpec",
    "DEFAULT_QUADRATURE",
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
# stops; the error estimate still reports what that costs.  Only the panels
# below t = 1 depend on s, and for s >= 1 none do.
_GEOMETRIC_RATIO = 1.6
_TAIL_WIDTH = 0.5
_ROOT_S_MIN = 1e-8
# Integrals at many s run together, in passes of at most this many nodes:
# 4 s values of the widest layout (55 panels at the default tolerance), 14 of
# the s >= 1 layout (15 panels).  Passes of 3k to 7k nodes measured equally
# fast, and each node costs ~190 bytes of peak memory during a pass.
_CHUNK_NODES = 4 * 55 * _NODES.size


def _tail_edges(rel_tol: float) -> np.ndarray:
    """Right edges of the panels from t = 1 to the truncation point."""
    # Truncate where the e^-x envelope is far below the tolerance floor; all
    # integrands carry that envelope, so the discarded tail is negligible.
    t_max = math.sqrt(-math.log(rel_tol) + 18.5)
    n_tail = math.ceil((t_max - 1.0) / _TAIL_WIDTH)
    width = (t_max - 1.0) / n_tail
    return np.array([1.0 + k * width for k in range(1, n_tail)] + [t_max])


_DEFAULT_TAIL = _tail_edges(DEFAULT_QUADRATURE.rel_tol)


def _integrate(
    g: Callable[[np.ndarray, np.ndarray], np.ndarray], s: np.ndarray, rel_tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Values and error estimates, each of shape (m, len(s)), of the m integrals

        int_0^inf e^-x g(x, s)[i] / sqrt(x (x + s)) dx

    at every s of the 1-d array ``s``.  ``g`` receives the nodes x, of shape
    (k, panels, 15), and the matching s, of shape (k, 1, 1), and returns an
    array of shape (m, k, panels, 15).  The s values are integrated in passes
    of at most ``_CHUNK_NODES`` nodes, each row padded with zero-width panels
    at t = 1 to the longest layout of its pass.  The first s in order at which
    an integral misses the tolerance, or alone trips a trap, raises :class:`QuadratureError`.
    """
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        tail = _DEFAULT_TAIL if rel_tol == DEFAULT_QUADRATURE.rel_tol else _tail_edges(rel_tol)
        t0 = 0.25 * np.minimum(np.maximum(np.sqrt(s), _ROOT_S_MIN), 1.0)
        n_geometric = np.ceil(np.log(1.0 / t0) / math.log(_GEOMETRIC_RATIO))
        ratio = (1.0 / t0) ** (1.0 / n_geometric)
        step = max(1, _CHUNK_NODES // (_NODES.size * (int(n_geometric.max()) + 1 + tail.size)))
        values, errors = [], []
        for start in range(0, s.size, step):
            rows = slice(start, start + step)
            n = n_geometric[rows, None]
            k = np.arange(n.max() + 1.0)
            edges = np.empty((len(n), 1 + k.size + tail.size))
            edges[:, 0] = 0.0
            edges[:, 1:-tail.size] = np.where(k < n, t0[rows, None] * ratio[rows, None] ** k, 1.0)
            edges[:, -tail.size:] = tail
            try:
                value, abserr = _pass(g, s[rows], edges)
            except FloatingPointError as exc:
                for s_j in s[rows] if len(n) > 1 else ():  # each s alone, in order
                    _integrate(g, s_j[None], rel_tol)
                raise QuadratureError(f"spectral integral: {exc} at s = {s[start]:.6e}") from None
            _check(value, abserr, s[rows], rel_tol)
            values.append(value)
            errors.append(abserr)
    if len(values) == 1:
        return values[0], errors[0]
    return np.concatenate(values, axis=1), np.concatenate(errors, axis=1)


def _pass(
    g: Callable[[np.ndarray, np.ndarray], np.ndarray], s: np.ndarray, edges: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod sums and QUADPACK error estimates on the panels between
    ``edges`` (one row per s), summed over the panels of each row."""
    width = edges[:, 1:] - edges[:, :-1]
    half = 0.5 * width
    t = (edges[:, :-1] + half)[..., None] + half[..., None] * _NODES
    x = t * t
    s = s[:, None, None]
    # x = t^2 turns the weight into 2 e^{-t^2} / sqrt(t^2 + s), finite at the
    # origin for s > 0 and integrable for the g(0) = 0 integrands used at s = 0.
    # The factor 2 times each panel's half-width is its width.
    f = np.exp(-x) * g(x, s) / np.sqrt(x + s)

    sums = f @ _WEIGHTS
    kronrod = sums[..., 0]
    value = (width * kronrod).sum(axis=-1)
    asc = width * (np.abs(f - 0.5 * kronrod[..., None]) @ _KRONROD)
    diff = width * np.abs(sums[..., 1])
    # QUADPACK's estimate per panel, resasc * min(1, (200 |K - G| / resasc)^1.5),
    # or |K - G| where resasc is 0 (zero-width panels among them).
    positive = asc > 0.0
    scaled = np.divide(200.0 * diff, asc, out=np.zeros(asc.shape), where=positive)
    abserr = np.where(positive, asc * np.minimum(1.0, scaled**1.5), diff).sum(axis=-1)
    return value, abserr


def _check(value: np.ndarray, abserr: np.ndarray, s: np.ndarray, rel_tol: float) -> None:
    """Raise QuadratureError at the first s, then the first integral, whose
    estimate exceeds 10 rel_tol times its value, or whose value is not finite."""
    for s_j, values, errors in zip(s.tolist(), value.T.tolist(), abserr.T.tolist()):
        for v, e in zip(values, errors):
            if not math.isfinite(v) or (e > 10.0 * rel_tol * abs(v) + _ABS_TOL and abs(v) > 0.0):
                raise QuadratureError(
                    f"spectral integral error estimate {e:.3e} exceeds the requested "
                    f"relative tolerance {rel_tol:.1e} (value {v:.6e}) at s = {s_j:.6e}",
                    estimate=e,
                )


def integrate_spectral_with_error(
    g: Callable[[np.ndarray], np.ndarray],
    s: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> tuple[float, float]:
    """``int_0^inf e^-x g(x) / sqrt(x (x + s)) dx`` to the spec's rel_tol, and
    its error estimate.

    ``s`` is the dimensionless photon-to-thermal energy ratio; ``g`` maps an
    ndarray of x elementwise, must be bounded on (0, inf) and, for s = 0,
    must vanish at the origin fast enough to keep the integrand integrable.
    The estimate is the sum over panels of QUADPACK's Gauss-Kronrod estimate
    ``resasc * min(1, (200 |K - G| / resasc)^1.5)``; above ``10 rel_tol``
    times the value, or on a floating-point trap, it raises :class:`QuadratureError`.
    """
    if s < 0.0:
        raise ValueError(f"s must be non-negative, got {s}")
    value, abserr = _integrate(
        lambda x, _s: np.broadcast_to(g(x), x.shape)[None], np.array([float(s)]), spec.rel_tol
    )
    return float(value[0, 0]), float(abserr[0, 0])


# The batched integrand of the general impurity regime.
_TAILS = np.array((_B1_TAIL, _B2_TAIL))


def _shape_b12(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(B1(b), B2(b)) elementwise for an array of b > 0: the formulas of
    ``special.shape_b1`` and ``special.shape_b2``, the tail series beyond the
    cutoff."""
    b = np.minimum(b, 1e100)  # the tail is 0 beyond (u^2 underflows); b^3 would overflow
    b_sq = b * b
    at = np.arctan2(1.0, b)
    b1 = 1.0 / b_sq + (1.0 - b_sq) / (b_sq * b) * at
    b2 = -1.0 / (1.0 + b_sq) + at / b
    tail = b > _B_SERIES_CUTOFF
    if tail.any():
        u = 1.0 / b_sq[tail]
        # Rows u^2 .. u^13, by the same repeated products as special._tail_series.
        powers = np.cumprod(np.broadcast_to(u, (len(_B1_TAIL) + 1, u.size)), axis=0)[1:]
        b1[tail], b2[tail] = _TAILS @ powers
    return b1, b2


def _endpoints(material: Material, theta: float, omegas: Sequence[float]) -> np.ndarray:
    """(I1, I2) of ``impurity.spectral_endpoints`` at every omega, shape
    (2, len(omegas)).

    One quadrature pass evaluates both integrands, at both ends of the
    momentum window, for many frequencies at once.  The setup runs in Python
    floats and cannot trap: an s beyond double range is inf, and a kappa or
    r_D^2 that underflows is 0, so that the integral traps and names its s.
    """
    kappa = math.sqrt(2.0 * material.m_perp * theta) / HBAR
    r_D = material.require_r_D()
    b0_sq = material.m_perp / material.mass_contrast
    r_d_sq = r_D * r_D

    def sums(x: np.ndarray, s: np.ndarray) -> np.ndarray:
        roots = np.sqrt(x + s) + np.sqrt(x)
        # q_min = kappa (sqrt(x+s) - sqrt(x)), rationalized: no cancellation at tiny s
        q = kappa * np.array((roots, s / roots))
        b1, b2 = _shape_b12(np.sqrt(b0_sq * (1.0 + np.reciprocal(r_d_sq) / (q * q))))
        return np.array((b1[0] + b1[1], b2[0] + b2[1]))

    s = np.array([HBAR * omega / theta for omega in omegas])
    return _integrate(sums, s, DEFAULT_QUADRATURE.rel_tol)[0]

