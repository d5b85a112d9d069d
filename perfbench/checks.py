"""Correctness checks on sweep outputs; they run outside every timed section.

Each check returns a list of problems (empty when the output is correct):

* every value is finite and >= 0;
* a phi sweep fits A + B cos 2phi + C sin 2phi to 1e-9 of its largest value;
* acoustic emission equals its docstring formula, evaluated through
  ``scipy.special.kve``, to 1e-12;
* ``oracle_problems`` compares impurity emission with
  ``oracles.p_minus_direct`` directly, and impurity absorption through
  per-valley Kirchhoff, to 1e-8.

Values read back from a CSV carry its 12-significant-digit rounding, so
their tolerances get ``CSV_ROUNDING`` added; the grid (omega, phi) always
comes from the parsed config, never from the file.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy.special import kve

from multivalley import oracles
from multivalley.constants import C_LIGHT, E_CHARGE, HBAR
from multivalley.emission import mode_density, photon_amplitude
from multivalley.geometry import Polarization, cos_phi
from multivalley.modes import Mechanism, Observable, Regime

CSV_ROUNDING = 5e-12     # half an ulp of the "%.11e" cell format
PHI_FIT_TOL = 1e-9
ACOUSTIC_TOL = 1e-12
ORACLE_TOL = 1e-8
ORACLE_S_RANGE = (1e-3, 30.0)  # where e^{-s} neither underflows nor is trivial

VALUE_COLUMNS = ("K_per_cm", "dW_dOmega_cgs")


def expected_columns(config) -> tuple[str, ...]:
    columns = ["phi_rad"] if config.sweep.kind == "phi" else []
    columns += ["omega_rad_per_s", "hbar_omega_eV"]
    if config.observable in (Observable.ABSORPTION, Observable.BOTH):
        columns.append("K_per_cm")
    if config.observable in (Observable.EMISSION, Observable.BOTH):
        columns.append("dW_dOmega_cgs")
    return tuple(columns + ["regime", "mechanism"])


def grid_points(config) -> list[tuple[float, Polarization, float | None]]:
    """(omega, polarization, phi) per row, built the way ``run_sweep`` does."""
    grid = [float(x) for x in config.sweep.grid()]
    if config.sweep.kind == "omega":
        return [(w, config.polarization, None) for w in grid]
    e1, e2 = config.sweep.plane
    points = []
    for phi in grid:
        vec = [math.cos(phi) * a + math.sin(phi) * b for a, b in zip(e1, e2)]
        points.append((config.sweep.omega, Polarization.from_vector(vec), phi))
    return points


def read_csv(path: str) -> tuple[tuple[str, ...], list[tuple]]:
    """Columns and rows of a sweep CSV, numeric cells as floats."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        columns = tuple(next(reader))
        rows = []
        for cells in reader:
            rows.append(tuple(
                cell if col in ("regime", "mechanism") else float(cell)
                for col, cell in zip(columns, cells)
            ))
    return columns, rows


def _populated(config):
    return [v for v in config.valleys if v.n > 0.0]


def _acoustic_emission(config, omega: float, pol: Polarization) -> float:
    """The emission_acoustic docstring formulas, Bessel kernel from kve."""
    mat = config.material
    total = 0.0
    for v in _populated(config):
        c2 = cos_phi(v, pol) ** 2
        weight = (1.0 - c2) / (mat.m_perp * mat.tau_perp0) + c2 / (mat.m_par * mat.tau_par0)
        if config.regime is Regime.GENERAL:
            a = HBAR * omega / (2.0 * v.theta)
            total += v.n * v.theta * math.exp(-2.0 * a) * weight * a * a * float(kve(2, a))
        elif config.regime is Regime.CLASSICAL:
            total += v.n * v.theta * weight
        else:
            s = HBAR * omega / v.theta
            total += v.n / math.sqrt(v.theta) * (HBAR * omega) ** 1.5 * math.exp(-s) * weight
    coeff = {
        Regime.GENERAL: 2.0 / (3.0 * math.pi**2.5),
        Regime.CLASSICAL: 4.0 / (3.0 * math.pi**2.5),
        Regime.QUANTUM: 1.0 / (6.0 * math.pi**2),
    }[config.regime]
    return coeff * E_CHARGE**2 / C_LIGHT**3 * total


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * max(abs(got), abs(want))


def sweep_problems(config, columns, rows, from_csv: bool = False) -> list[str]:
    """Invariant and formula checks on one sweep's columns and rows."""
    slack = CSV_ROUNDING if from_csv else 0.0
    want_columns = expected_columns(config)
    if tuple(columns) != want_columns:
        return [f"columns {tuple(columns)} != {want_columns}"]
    points = grid_points(config)
    if len(rows) != len(points):
        return [f"{len(rows)} rows for {len(points)} grid points"]
    problems = []
    index = {c: i for i, c in enumerate(columns)}
    for r, (row, (omega, _pol, phi)) in enumerate(zip(rows, points)):
        if not _close(row[index["omega_rad_per_s"]], omega, 1e-15 + slack):
            problems.append(f"row {r}: omega {row[index['omega_rad_per_s']]!r} != grid {omega!r}")
        if phi is not None and not _close(row[index["phi_rad"]], phi, 1e-15 + slack):
            problems.append(f"row {r}: phi {row[index['phi_rad']]!r} != grid {phi!r}")
        if (row[index["regime"]], row[index["mechanism"]]) != (
                config.regime.value, config.mechanism.value):
            problems.append(f"row {r}: regime/mechanism cells {row[-2:]}")
    for col in VALUE_COLUMNS:
        if col not in index:
            continue
        values = np.array([row[index[col]] for row in rows], dtype=float)
        bad = np.flatnonzero(~np.isfinite(values) | (values < 0.0))
        if bad.size:
            problems.append(
                f"{col}: {bad.size} values not finite and >= 0, first {values[bad[0]]!r}")
            continue
        if config.sweep.kind == "phi":
            problems += _phi_fit_problems(col, np.array([p[2] for p in points]), values)
        if col == "dW_dOmega_cgs" and config.mechanism is Mechanism.ACOUSTIC:
            for r, (omega, pol, _phi) in enumerate(points):
                want = _acoustic_emission(config, omega, pol)
                if not _close(values[r], want, ACOUSTIC_TOL + slack):
                    problems.append(
                        f"row {r}: acoustic emission {values[r]!r} != formula {want!r}")
                    break
    return problems


def _phi_fit_problems(col: str, phi: np.ndarray, values: np.ndarray) -> list[str]:
    basis = np.column_stack([np.ones_like(phi), np.cos(2.0 * phi), np.sin(2.0 * phi)])
    coeffs = np.linalg.lstsq(basis, values, rcond=None)[0]
    residual = float(np.max(np.abs(basis @ coeffs - values)))
    scale = float(np.max(np.abs(values)))
    if residual > PHI_FIT_TOL * scale:
        return [f"{col}: cos 2phi fit residual {residual:.3e} > {PHI_FIT_TOL:g} x {scale:.3e}"]
    return []


def oracle_points(config) -> list[int]:
    """Grid indices where every populated valley has s in ORACLE_S_RANGE."""
    lo, hi = ORACLE_S_RANGE
    eligible = []
    for i, (omega, _pol, _phi) in enumerate(grid_points(config)):
        if all(lo <= HBAR * omega / v.theta <= hi for v in _populated(config)):
            eligible.append(i)
    return eligible


def oracle_problems(config, columns, rows, check: str, u: float) -> tuple[list[str], int | None]:
    """Compare one seeded grid point with ``oracles.p_minus_direct``.

    ``check`` is ``emission`` (dW/dOmega directly) or ``kirchhoff`` (K from
    the per-valley emission by Kirchhoff's law).  Returns the problems and
    the grid index used, or None when no point of the sweep is eligible.
    """
    eligible = oracle_points(config)
    if not eligible:
        return [], None
    i = eligible[min(int(u * len(eligible)), len(eligible) - 1)]
    omega, pol, _phi = grid_points(config)[i]
    a0 = photon_amplitude(omega, 1.0)
    rho = mode_density(omega, 1.0)
    mat = config.material
    col = "dW_dOmega_cgs" if check == "emission" else "K_per_cm"
    got = rows[i][columns.index(col)]
    want = 0.0
    for v in _populated(config):
        dw = -oracles.p_minus_direct(v, mat, omega, pol, a0) * rho
        if check == "emission":
            want += dw
        else:
            s = HBAR * omega / v.theta
            want += dw * 8.0 * math.pi**3 * C_LIGHT**2 * math.expm1(s) / (
                HBAR * omega**3 * math.sqrt(mat.eps0))
    if not _close(got, want, ORACLE_TOL):
        return [f"{check} at omega={omega:.6e}: {got!r} vs oracle {want!r}"], i
    return [], i
