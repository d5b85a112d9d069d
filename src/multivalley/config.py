"""Run configuration: JSON ingestion, sweep evaluation, CSV output.

The config document is plain JSON.  User-facing units (electron-mass
multiples, eV or kelvin, cm^-3) are converted to internal CGS exactly once,
here.  Sweeps evaluate either a frequency grid at fixed polarization or a
polarization rotation at fixed frequency.  The parser checks JSON types and
field paths; ``SweepSpec`` and ``RunConfig``, like ``Valley`` and
``Material``, check their own domain, so a hand-built or ``replace``d sweep
or run is refused, or runs, as a parsed one would.

An omega sweep evaluates its per-valley terms (``geometry._terms``) once
for the whole grid, a phi sweep once per row; the one projection,
``geometry._project``, weighs them for each requested observable.  Rows come
in grid order, so identical configs produce byte-identical CSV files.  The
``workers`` key is accepted and validated, but evaluation is serial: it
changes neither values nor bytes.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass
from typing import Iterator

from .constants import ERG_PER_EV, HBAR, theta_from_ev, theta_from_kelvin
from .errors import ConfigError
from .geometry import (
    Material,
    Polarization,
    Valley,
    ValleySet,
    _COLUMNS,
    _as_unit_tuple,
    _check_unit,
    _observe,
    _terms,
    _weighings,
    check_omega,
    load_preset,
)
from .modes import Mechanism, Observable, Regime, parse

__all__ = ["SweepSpec", "RunConfig", "SweepResult", "parse_config", "run_sweep", "write_csv"]


# The grid and every row of a sweep are held in memory at once.
_MAX_SWEEP_POINTS = 1_000_000


@dataclass(frozen=True)
class SweepSpec:
    """A frequency or polarization sweep; ConfigError if outside its domain."""

    kind: str                      # "omega" | "phi"
    minimum: float
    maximum: float
    points: int
    scale: str                     # "log" | "linear"
    omega: float | None = None     # fixed frequency for phi sweeps
    plane: tuple[tuple[float, float, float], tuple[float, float, float]] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("omega", "phi"):
            raise ConfigError(f"sweep.kind: expected 'omega' or 'phi', got {self.kind!r}")
        if not self.maximum > self.minimum:
            raise ConfigError(f"sweep: max ({self.maximum}) must exceed min ({self.minimum})")
        if not isinstance(self.points, int) or isinstance(self.points, bool) or self.points < 2:
            raise ConfigError(f"sweep.points: expected an integer >= 2, got {self.points!r}")
        if self.points > _MAX_SWEEP_POINTS:
            raise ConfigError(
                f"sweep.points: at most {_MAX_SWEEP_POINTS} grid points, got {self.points}"
            )
        if self.scale not in ("log", "linear"):
            raise ConfigError(f"sweep.scale: expected 'log' or 'linear', got {self.scale!r}")
        if self.scale == "log" and self.minimum <= 0.0:
            raise ConfigError("sweep.min: must be positive for a log scale")
        if self.kind == "omega":
            check_omega(self.minimum, "sweep.min")
            check_omega(self.maximum, "sweep.max")
            return
        if self.omega is None:
            raise ConfigError("sweep.omega: required field is missing")
        check_omega(self.omega, "sweep.omega")
        if not (math.isfinite(self.minimum) and math.isfinite(self.maximum)):
            raise ConfigError(f"sweep: bounds must be finite, got [{self.minimum}, {self.maximum}]")
        if self.plane is None or len(self.plane) != 2:
            raise ConfigError("sweep.plane: a phi sweep needs a plane of two 3-vectors")
        for i, axis in enumerate(self.plane):
            _check_unit(axis, f"sweep.plane[{i}]")
        if not abs(sum(a * b for a, b in zip(*self.plane))) <= 1e-9:
            raise ConfigError(f"sweep.plane: the two vectors must be orthogonal, got {self.plane}")

    def grid(self) -> list[float]:
        return _grid(self.scale, self.minimum, self.maximum, self.points)


def _grid(scale: str, minimum: float, maximum: float, points: int) -> list[float]:
    """The sweep's points, by the algorithm of numpy's ``linspace`` and
    ``geomspace``: exact ends, and k*step + min between them, on the
    log10 scale for a log grid."""
    if scale == "log":
        exponents = _linspace(math.log10(minimum), math.log10(maximum), points)
        return [minimum, *(10.0**e for e in exponents[1:-1]), maximum]
    return _linspace(minimum, maximum, points)


def _linspace(start: float, stop: float, num: int) -> list[float]:
    div = num - 1
    delta = stop - start
    if delta == math.inf:
        raise OverflowError(f"sweep span {stop} - ({start}) exceeds double range")
    step = delta / div
    if step == 0.0:  # a subnormal span: scale by the fraction k/div instead
        return [k / div * delta + start for k in range(div)] + [stop]
    return [k * step + start for k in range(div)] + [stop]


@dataclass(frozen=True)
class RunConfig:
    """A run.  The selectors are members or their string values, and workers
    an int >= 1; ConfigError, with the parser's message, otherwise."""

    material: Material
    valleys: ValleySet
    polarization: Polarization
    sweep: SweepSpec
    mechanism: Mechanism
    regime: Regime
    observable: Observable
    output: str | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        for key, selector in (("mechanism", Mechanism), ("regime", Regime),
                              ("observable", Observable)):
            object.__setattr__(self, key, parse(selector, getattr(self, key), key))
        if not isinstance(self.workers, int) or isinstance(self.workers, bool) or self.workers < 1:
            raise ConfigError(f"workers: expected an integer >= 1, got {self.workers!r}")


@dataclass(frozen=True)
class SweepResult:
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise ConfigError(f"{path}.{key}: required field is missing")
    return doc[key]


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond double range
        raise ConfigError(f"{path}: integer too large for a double") from None
    if not math.isfinite(value):
        raise ConfigError(f"{path}: must be finite, got {value}")
    return value


def _vector(value, path: str) -> tuple[float, float, float]:
    """A non-zero 3-vector of numbers, scaled to unit length; each refusal names ``path``."""
    if not isinstance(value, list) or len(value) != 3:
        raise ConfigError(f"{path}: expected a 3-vector")
    return _as_unit_tuple([_number(v, f"{path}[{i}]") for i, v in enumerate(value)], path)


def _numbers(value, path: str, count: int | None = None) -> list[float]:
    """A number, as a one-entry list; with a ``count``, a number for every
    entry or a list of ``count`` numbers."""
    if count is not None and isinstance(value, list):
        if len(value) != count:
            raise ConfigError(f"{path}: expected 1 or {count} entries, got {len(value)}")
        return [_number(v, f"{path}[{i}]") for i, v in enumerate(value)]
    return [_number(value, path)] * (count or 1)


@contextlib.contextmanager
def _located(path: str) -> Iterator[None]:
    """Prefix a data-model refusal (ConfigError) with the config path it came from."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _parse_material(doc: dict) -> Material:
    path = "material"
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected an object")
    fields = {
        key: _number(_require(doc, key, path), f"{path}.{key}")
        for key in ("m_perp", "m_par", "eps0", "n_a", "tau_perp0", "tau_par0")
    }
    m_perp, m_par = fields.pop("m_perp"), fields.pop("m_par")
    if not 0.0 < m_perp < m_par:  # in the config's units, which Material does not know
        raise ConfigError(
            f"{path}.m_par ({m_par}) must exceed {path}.m_perp ({m_perp}), which must be "
            "positive: prolate valleys required"
        )
    r_d = None if doc.get("r_D") is None else _number(doc["r_D"], f"{path}.r_D")
    with _located(path):
        return Material.from_units(m_perp_me=m_perp, m_par_me=m_par, r_D=r_d, **fields)


def _valleys(doc: dict, path: str, axes: list, lists: bool = False) -> list[Valley]:
    """The valleys along ``axes``, populated by ``doc``'s ``n`` and one of
    ``theta_K`` or ``theta_eV``: numbers, or if ``lists`` also lists of one
    number per axis.  Their ranges are the Valley's to check."""
    count = len(axes) if lists else None
    ns = _numbers(_require(doc, "n", path), f"{path}.n", count)
    if ("theta_K" in doc) == ("theta_eV" in doc):
        raise ConfigError(f"{path}: give exactly one of theta_K or theta_eV")
    key = "theta_K" if "theta_K" in doc else "theta_eV"
    to_erg = theta_from_kelvin if key == "theta_K" else theta_from_ev
    thetas = [to_erg(t) for t in _numbers(doc[key], f"{path}.{key}", count)]
    with _located(path):
        return [Valley(axis=a, n=n, theta=t) for a, n, t in zip(axes, ns, thetas)]


def _parse_valleys(doc) -> ValleySet:
    path = "valleys"
    if isinstance(doc, dict):
        preset = _require(doc, "preset", path)
        if not isinstance(preset, str):
            raise ConfigError(f"{path}.preset: expected a preset name, got {preset!r}")
        with _located(f"{path}.preset"):
            axes = [v.axis for v in load_preset(preset)]
        return ValleySet(tuple(_valleys(doc, path, axes, lists=True)))
    if isinstance(doc, list):
        if not doc:
            raise ConfigError(f"{path}: at least one valley required")
        valleys = []
        for i, entry in enumerate(doc):
            vpath = f"{path}[{i}]"
            if not isinstance(entry, dict):
                raise ConfigError(f"{vpath}: expected an object")
            axis = _vector(_require(entry, "axis", vpath), f"{vpath}.axis")
            valleys += _valleys(entry, vpath, [axis])
        return ValleySet(tuple(valleys))
    raise ConfigError(f"{path}: expected a preset object or a list of valleys")


def _parse_sweep(doc: dict) -> SweepSpec:
    path = "sweep"
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected an object")
    kind = _require(doc, "kind", path)
    minimum = _number(_require(doc, "min", path), f"{path}.min")
    maximum = _number(_require(doc, "max", path), f"{path}.max")
    points = _require(doc, "points", path)
    scale = doc.get("scale", "log" if kind == "omega" else "linear")
    omega = plane = None
    if kind == "phi":
        omega = _number(_require(doc, "omega", path), f"{path}.omega")
        raw_plane = doc.get("plane", [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        if not isinstance(raw_plane, list) or len(raw_plane) != 2:
            raise ConfigError(f"{path}.plane: expected two 3-vectors")
        # Unit length first: huge components would overflow the norm below.
        e1, e2 = (_vector(axis, f"{path}.plane[{i}]") for i, axis in enumerate(raw_plane))
        # Orthonormalize the second axis against the first.
        overlap = sum(a * b for a, b in zip(e1, e2))
        e2 = [b - overlap * a for a, b in zip(e1, e2)]
        norm = math.sqrt(sum(v * v for v in e2))
        if norm < 1e-6:  # e1.e2 rounds to ~1e-16/norm: keep it below SweepSpec's 1e-9
            raise ConfigError(f"{path}.plane: the two vectors must be independent")
        plane = (e1, tuple(v / norm for v in e2))
    return SweepSpec(kind=kind, minimum=minimum, maximum=maximum, points=points, scale=scale,
                     omega=omega, plane=plane)


def parse_config(text: str | bytes) -> RunConfig:
    """Parse and validate a JSON config document into internal CGS units.

    Raises ConfigError with the offending field path on any schema or
    mass-ordering violation, and on any value the data model refuses (a
    Valley, the Material, the SweepSpec, whose frequencies must lie in
    ``geometry.check_omega``'s range, or the RunConfig).  Bytes are read as
    UTF-8; a document that is not UTF-8, or nests too deeply for the JSON
    decoder, is a ConfigError too.  A missing material.r_D is filled from the
    total electron concentration via the Debye formula.
    """
    try:
        doc = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep, or a huge int
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root: expected a JSON object")

    material = _parse_material(_require(doc, "material", "config"))
    valleys = _parse_valleys(_require(doc, "valleys", "config"))

    polarization = Polarization(_vector(_require(doc, "polarization", "config"), "polarization"))

    sweep = _parse_sweep(_require(doc, "sweep", "config"))

    output = doc.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError(f"output: expected a string path, got {output!r}")

    if material.r_D is None:
        try:
            material = material.with_debye_radius(valleys.mean_theta(), valleys.total_n())
        except (ValueError, ArithmeticError):  # no population, or r_D out of (0, inf)
            raise ConfigError("material.r_D: not given, and not derivable from the populations")

    return RunConfig(
        material=material, valleys=valleys, polarization=polarization, sweep=sweep,
        mechanism=doc.get("mechanism", "impurity"), regime=doc.get("regime", "general"),
        observable=doc.get("observable", "absorption"), output=output,
        workers=doc.get("workers", 1),
    )


def run_sweep(config: RunConfig) -> SweepResult:
    """Evaluate the configured sweep; rows are ordered by grid index.

    An omega sweep evaluates the per-valley terms over the whole grid at
    once, a phi sweep at each row; both observables share them and each
    valley's cos^2 at a polarization.  Every regime checks its guards at
    every frequency in grid order before it computes a value, so an invalid
    sweep fails at its first offending frequency, names it, and evaluates no
    cell; a cell that is not finite raises ``FloatingPointError``.
    """
    observables = [o for o in (Observable.ABSORPTION, Observable.EMISSION)
                   if config.observable in (o, Observable.BOTH)]
    columns = ["phi_rad"] if config.sweep.kind == "phi" else []
    columns += ["omega_rad_per_s", "hbar_omega_eV", *(_COLUMNS[o] for o in observables),
                "regime", "mechanism"]

    model = (config.mechanism, config.regime, config.valleys, config.material)
    weighings = _weighings(config.mechanism, config.regime, observables)
    labels = (config.regime.value, config.mechanism.value)
    grid = config.sweep.grid()
    if config.sweep.kind == "omega":
        terms = _terms(*model, grid)
        values = _observe(terms, config.material, grid, config.polarization, weighings)
        rows = [(omega, HBAR * omega / ERG_PER_EV, *row, *labels)
                for omega, row in zip(grid, values)]
    else:
        omega, (e1, e2) = config.sweep.omega, config.sweep.plane
        rows = []
        for phi in grid:
            pol = Polarization.from_vector(
                tuple(math.cos(phi) * a + math.sin(phi) * b for a, b in zip(e1, e2)))
            terms = _terms(*model, [omega])
            (row,) = _observe(terms, config.material, [omega], pol, weighings)
            rows.append((phi, omega, HBAR * omega / ERG_PER_EV, *row, *labels))

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
