"""Run configuration: JSON ingestion, sweep evaluation, CSV output.

The config document is plain JSON.  User-facing units (electron-mass
multiples, eV or kelvin, cm^-3) are converted to internal CGS exactly once,
here.  Sweeps evaluate either a frequency grid at fixed polarization or a
polarization rotation at fixed frequency.

Each sweep row evaluates the per-valley terms of its observables at its
frequency (``emission._terms``; with observable ``both`` the general regime
runs the rate core once, emission following from absorption by detailed
balance) and projects its polarization from them through the cos^2 affine
split.  Rows are emitted in grid order, so identical configs produce
byte-identical CSV files.  The ``workers`` key is accepted and validated,
but evaluation is serial: it changes neither values nor bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .constants import ERG_PER_EV, HBAR, theta_from_kelvin
from .emission import _terms
from .errors import ConfigError
from .geometry import (
    Material,
    Polarization,
    Valley,
    ValleySet,
    _project,
    load_preset,
)
from .modes import Mechanism, Observable, Regime

__all__ = ["SweepSpec", "RunConfig", "SweepResult", "parse_config", "run_sweep", "write_csv"]


@dataclass(frozen=True)
class SweepSpec:
    kind: str                      # "omega" | "phi"
    minimum: float
    maximum: float
    points: int
    scale: str                     # "log" | "linear"
    omega: float | None = None     # fixed frequency for phi sweeps
    plane: tuple[tuple[float, float, float], tuple[float, float, float]] | None = None

    def grid(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.minimum, self.maximum, self.points)
        return np.linspace(self.minimum, self.maximum, self.points)


@dataclass(frozen=True)
class RunConfig:
    material: Material
    valleys: ValleySet
    polarization: Polarization
    sweep: SweepSpec
    mechanism: Mechanism
    regime: Regime
    observable: Observable
    output: str | None = None
    workers: int = 1


@dataclass(frozen=True)
class SweepResult:
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise ConfigError(f"{path}.{key}: required field is missing")
    return doc[key]


def _number(value, path: str, positive: bool = True) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"{path}: must be finite, got {value}")
    if positive and not value > 0.0:
        raise ConfigError(f"{path}: must be positive, got {value}")
    return value


def _vector(value, path: str) -> tuple[float, float, float]:
    if not isinstance(value, list) or len(value) != 3:
        raise ConfigError(f"{path}: expected a 3-vector")
    return tuple(_number(v, f"{path}[{i}]", positive=False) for i, v in enumerate(value))


def _theta_erg(doc: dict, path: str) -> float:
    has_k = "theta_K" in doc
    has_ev = "theta_eV" in doc
    if has_k == has_ev:
        raise ConfigError(f"{path}: give exactly one of theta_K or theta_eV")
    if has_k:
        return theta_from_kelvin(_number(doc["theta_K"], f"{path}.theta_K"))
    return _number(doc["theta_eV"], f"{path}.theta_eV") * ERG_PER_EV


def _scalar_or_list(value, count: int, path: str) -> list[float]:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return [_number(value, path, positive=False)] * count
    if isinstance(value, list):
        if len(value) != count:
            raise ConfigError(f"{path}: expected 1 or {count} entries, got {len(value)}")
        return [_number(v, f"{path}[{i}]", positive=False) for i, v in enumerate(value)]
    raise ConfigError(f"{path}: expected a number or a list of numbers")


def _parse_material(doc: dict) -> Material:
    path = "material"
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected an object")
    m_perp = _number(_require(doc, "m_perp", path), f"{path}.m_perp")
    m_par = _number(_require(doc, "m_par", path), f"{path}.m_par")
    if m_par <= m_perp:
        raise ConfigError(
            f"{path}.m_par ({m_par}) must exceed {path}.m_perp ({m_perp}): "
            "prolate valleys required"
        )
    r_d = None
    if "r_D" in doc and doc["r_D"] is not None:
        r_d = _number(doc["r_D"], f"{path}.r_D")
    return Material.from_units(
        m_perp_me=m_perp,
        m_par_me=m_par,
        eps0=_number(_require(doc, "eps0", path), f"{path}.eps0"),
        n_a=_number(_require(doc, "n_a", path), f"{path}.n_a"),
        tau_perp0=_number(_require(doc, "tau_perp0", path), f"{path}.tau_perp0"),
        tau_par0=_number(_require(doc, "tau_par0", path), f"{path}.tau_par0"),
        r_D=r_d,
    )


def _parse_valleys(doc) -> ValleySet:
    path = "valleys"
    if isinstance(doc, dict):
        preset = _require(doc, "preset", path)
        base = load_preset(preset)
        count = len(base)
        ns = _scalar_or_list(_require(doc, "n", path), count, f"{path}.n")
        for i, n in enumerate(ns):
            if n < 0.0:
                raise ConfigError(f"{path}.n[{i}]: must be >= 0, got {n}")
        if ("theta_K" in doc) == ("theta_eV" in doc):
            raise ConfigError(f"{path}: give exactly one of theta_K or theta_eV")
        key = "theta_K" if "theta_K" in doc else "theta_eV"
        raw = _scalar_or_list(doc[key], count, f"{path}.{key}")
        if key == "theta_K":
            thetas = [theta_from_kelvin(t) for t in raw]
        else:
            thetas = [t * ERG_PER_EV for t in raw]
        return base.with_population(ns, thetas)
    if isinstance(doc, list):
        if not doc:
            raise ConfigError(f"{path}: at least one valley required")
        valleys = []
        for i, entry in enumerate(doc):
            vpath = f"{path}[{i}]"
            if not isinstance(entry, dict):
                raise ConfigError(f"{vpath}: expected an object")
            axis = _vector(_require(entry, "axis", vpath), f"{vpath}.axis")
            n = _number(_require(entry, "n", vpath), f"{vpath}.n", positive=False)
            if n < 0.0:
                raise ConfigError(f"{vpath}.n: must be >= 0, got {n}")
            theta = _theta_erg(entry, vpath)
            norm = math.sqrt(sum(a ** 2 for a in axis))
            if norm <= 0.0:
                raise ConfigError(f"{vpath}.axis: must be a non-zero vector")
            unit = tuple(a / norm for a in axis)
            valleys.append(Valley(axis=unit, n=n, theta=theta))
        return ValleySet(tuple(valleys))
    raise ConfigError(f"{path}: expected a preset object or a list of valleys")


# omega^3 enters the prefactors and overflows double precision above ~5.6e102.
_OMEGA_MAX = 1e100


def _parse_sweep(doc: dict) -> SweepSpec:
    path = "sweep"
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected an object")
    kind = _require(doc, "kind", path)
    if kind not in ("omega", "phi"):
        raise ConfigError(f"{path}.kind: expected 'omega' or 'phi', got {kind!r}")
    minimum = _number(_require(doc, "min", path), f"{path}.min", positive=(kind == "omega"))
    maximum = _number(_require(doc, "max", path), f"{path}.max", positive=(kind == "omega"))
    if not maximum > minimum:
        raise ConfigError(f"{path}: max ({maximum}) must exceed min ({minimum})")
    points = _require(doc, "points", path)
    if not isinstance(points, int) or isinstance(points, bool) or points < 2:
        raise ConfigError(f"{path}.points: expected an integer >= 2, got {points!r}")
    scale = doc.get("scale", "log" if kind == "omega" else "linear")
    if scale not in ("log", "linear"):
        raise ConfigError(f"{path}.scale: expected 'log' or 'linear', got {scale!r}")
    if scale == "log" and minimum <= 0.0:
        raise ConfigError(f"{path}.min: must be positive for a log scale")
    omega = None
    plane = None
    if kind == "phi":
        omega = _number(_require(doc, "omega", path), f"{path}.omega")
        raw_plane = doc.get("plane", [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        if not isinstance(raw_plane, list) or len(raw_plane) != 2:
            raise ConfigError(f"{path}.plane: expected two 3-vectors")
        e1 = Polarization.from_vector(_vector(raw_plane[0], f"{path}.plane[0]")).q0
        e2_raw = np.asarray(_vector(raw_plane[1], f"{path}.plane[1]"))
        # Orthonormalize the second axis against the first.
        e1_arr = np.asarray(e1)
        e2_arr = e2_raw - np.dot(e2_raw, e1_arr) * e1_arr
        norm = float(np.linalg.norm(e2_arr))
        if norm < 1e-12:
            raise ConfigError(f"{path}.plane: the two vectors must be independent")
        e2 = tuple(float(v) for v in e2_arr / norm)
        plane = (e1, e2)
    top, top_path = (maximum, f"{path}.max") if kind == "omega" else (omega, f"{path}.omega")
    if top > _OMEGA_MAX:
        raise ConfigError(
            f"{top_path}: {top:g} rad/s is above {_OMEGA_MAX:g}, "
            "where omega^3 overflows double precision"
        )
    return SweepSpec(
        kind=kind,
        minimum=minimum,
        maximum=maximum,
        points=points,
        scale=scale,
        omega=omega,
        plane=plane,
    )


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config document into internal CGS units.

    Raises ConfigError with the offending field path on any schema, unit or
    mass-ordering violation.  A missing material.r_D is filled from the total
    electron concentration via the Debye formula.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root: expected a JSON object")

    material = _parse_material(_require(doc, "material", "config"))
    valleys = _parse_valleys(_require(doc, "valleys", "config"))

    pol_raw = _vector(_require(doc, "polarization", "config"), "polarization")
    polarization = Polarization.from_vector(pol_raw)

    sweep = _parse_sweep(_require(doc, "sweep", "config"))

    try:
        mechanism = Mechanism(doc.get("mechanism", "impurity"))
    except ValueError:
        raise ConfigError(
            f"mechanism: expected 'impurity' or 'acoustic', got {doc.get('mechanism')!r}"
        ) from None
    try:
        regime = Regime(doc.get("regime", "general"))
    except ValueError:
        raise ConfigError(
            f"regime: expected 'general', 'classical' or 'quantum', "
            f"got {doc.get('regime')!r}"
        ) from None
    try:
        observable = Observable(doc.get("observable", "absorption"))
    except ValueError:
        raise ConfigError(
            f"observable: expected 'absorption', 'emission' or 'both', "
            f"got {doc.get('observable')!r}"
        ) from None

    workers = doc.get("workers", 1)
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        raise ConfigError(f"workers: expected an integer >= 1, got {workers!r}")

    output = doc.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError(f"output: expected a string path, got {output!r}")

    if material.r_D is None:
        n_total = valleys.total_n()
        if n_total <= 0.0:
            raise ConfigError(
                "material.r_D: not given and cannot be computed because no "
                "valley is populated"
            )
        material = material.with_debye_radius(valleys.mean_theta(), n_total)

    return RunConfig(
        material=material,
        valleys=valleys,
        polarization=polarization,
        sweep=sweep,
        mechanism=mechanism,
        regime=regime,
        observable=observable,
        output=output,
        workers=workers,
    )


_COLUMNS = {Observable.ABSORPTION: "K_per_cm", Observable.EMISSION: "dW_dOmega_cgs"}


def run_sweep(config: RunConfig) -> SweepResult:
    """Evaluate the configured sweep; rows are ordered by grid index.

    Each row evaluates the per-valley terms of the requested observables at
    its frequency, once for both observables, and projects its polarization
    from them.  Closed forms check their regime guards at each frequency in
    grid order, so an invalid sweep fails at the first offending frequency
    and names it.
    """
    observables = [
        o for o in (Observable.ABSORPTION, Observable.EMISSION)
        if config.observable in (o, Observable.BOTH)
    ]
    columns = ["phi_rad"] if config.sweep.kind == "phi" else []
    columns += ["omega_rad_per_s", "hbar_omega_eV"]
    columns += [_COLUMNS[o] for o in observables]
    columns += ["regime", "mechanism"]

    grid = config.sweep.grid()
    if config.sweep.kind == "omega":
        points = [(None, float(w), config.polarization) for w in grid]
    else:
        e1, e2 = config.sweep.plane
        points = []
        for phi in grid:
            phi = float(phi)
            vec = tuple(
                math.cos(phi) * a + math.sin(phi) * b for a, b in zip(e1, e2)
            )
            points.append((phi, config.sweep.omega, Polarization.from_vector(vec)))

    rows = []
    for phi, omega, pol in points:
        terms = _terms(
            config.mechanism, config.regime, observables, config.valleys, config.material, omega
        )
        row: list = [] if phi is None else [phi]
        row += [omega, HBAR * omega / ERG_PER_EV]
        row += [_project(t, pol) for t in terms]
        row += [config.regime.value, config.mechanism.value]
        rows.append(tuple(row))

    return SweepResult(columns=tuple(columns), rows=tuple(rows))


def _format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.11e}"  # 12 significant digits
    return str(value)


def write_csv(result: SweepResult, path: str) -> None:
    """Write header plus rows, 12 significant digits, trailing newline."""
    lines = [",".join(result.columns)]
    for row in result.rows:
        lines.append(",".join(_format_cell(v) for v in row))
    with open(path, "w", newline="") as handle:
        handle.write("\n".join(lines) + "\n")
