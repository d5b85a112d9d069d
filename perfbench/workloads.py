"""Seeded workload generation for the multivalley benchmark (stdlib only).

Every workload is a closed loop: one client issues its next op only after the
previous one has finished.  An op is one sweep run in-process
(``run_sweep`` plus ``write_csv``) or one ``multivalley`` CLI invocation.
Ops come in rounds.  Every round of a workload has the same composition
(valley sets, observables, mechanisms, point counts, ``workers`` share).
Temperatures and frequency windows are stratified: the range is cut into as
many bins as the round has sweeps, and each sweep draws its value inside one
bin.  Which sweep gets which bin and point count, and the order of the
round, is the workload's fixed layout; the seed draws the values inside the
bins, the populations, valley axes and polarizations.  Seeds and rounds
thus differ in every input but hardly in how much work a round is, so the
run-to-run spread measures the program and not the draw, and a run that
fits one round more or less in its time keeps the same mix.

omega-impurity
    In-process omega sweeps, impurity scattering, general regime.  Ge4, Si6
    and explicit-valley sets, one temperature per sweep drawn log-uniform
    from 4.2 K to 1e4 K, omega windows inside 1e10-1e17 rad/s with 40-200
    log-spaced points, observables absorption, emission and both.  A quarter
    of the sweeps use ``workers=2``.  The adaptive quadrature does nearly all
    the work and every omega is distinct: a faster spectral core, or emission
    that reuses absorption's integrals, shows here; reuse across polarization
    angles cannot.
phi-hot
    In-process phi sweeps of hot valleys, observable both.  The docs Si6
    config verbatim and run as impurity/both, stress-split Si6 populations
    (two distinct temperatures) and Ge4 as explicit valleys with four
    distinct temperatures, impurity and acoustic, 19-91 angles.  The work a
    phi sweep needs is (distinct temperatures) x one omega, but the code
    redoes it at every angle and for every valley: reuse across angles and
    temperatures shows here.  The four-temperature Ge4 sweeps are where
    per-temperature deduplication cannot help.
cli-closed-form
    One ``multivalley`` CLI subprocess per op, one at a time.  Both docs
    configs verbatim, acoustic general sweeps, and classical and quantum
    closed forms of both mechanisms from 4.2 K to 1e4 K.  One config per
    round is deliberately outside its regime window; its correct outcome is
    exit code 3 and no CSV.  One cold acoustic-absorption sweep per round
    reaches a = hbar*omega/2theta > 700; its correct outcome is exit code 0
    and a CSV, and an invocation that does not deliver it counts as failed.
    Each invocation is mostly interpreter start and import, and most configs
    need no quadrature: trimming imports shows here, a faster quadrature
    should move nothing.

Baseline notes.  ``baseline.json`` holds the first baseline, measured at the
commit it names, with the host CPU count.  Its figures differ from the
throwaway min-of-3 timings in ROADMAP.md: for example ``run_sweep`` on the
Ge4 docs config with both observables took 47-52 ms (min of 3) on the
baseline host, against 81 ms there.  At that commit ``failed`` on
cli-closed-form is exactly the one cold acoustic-absorption invocation per
round: ``bessel_k2`` raises ``ValueError`` for a > 700 and the CLI exits 1
with a traceback.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("omega-impurity", "phi-hot", "cli-closed-form")

# CODATA 2018, CGS, as in multivalley.constants: s = hbar*omega/(k_B T).
HBAR_OVER_KB = 1.054571817e-27 / 1.380649e-16  # K s

DOCS_GE4 = "docs/config_ge4_spectrum.json"
DOCS_SI6 = "docs/config_si6_hot_polarization.json"

# Rounds generated per run.  Fixed per workload so that set-up (which parses
# every config) does not depend on --seconds; the loop cycles if it runs out.
ROUNDS = {"omega-impurity": 12, "phi-hot": 24, "cli-closed-form": 6}

GE_MATERIAL = {
    "m_perp": 0.082, "m_par": 1.59, "eps0": 16.0, "n_a": 1e16,
    "r_D": 3e-5, "tau_perp0": 1.2e-12, "tau_par0": 9e-13,
}
SI_MATERIAL = {
    "m_perp": 0.19, "m_par": 0.916, "eps0": 11.7, "n_a": 2e16,
    "tau_perp0": 8e-13, "tau_par0": 6e-13,
}
GE4_AXES = [[s1 / math.sqrt(3), s2 / math.sqrt(3), s3 / math.sqrt(3)]
            for s1, s2, s3 in ((1, 1, 1), (1, 1, -1), (1, -1, 1), (-1, 1, 1))]


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _stratified(rng: random.Random, layout: random.Random, lo: float, hi: float,
                count: int) -> list[float]:
    """One log-uniform draw (``rng``) in each of ``count`` equal log-bins,
    the bins in ``layout`` order."""
    span = math.log(hi / lo) / count
    bins = _shuffled(layout, range(count))
    return [lo * math.exp(span * (k + rng.random())) for k in bins]


def _shuffled(layout: random.Random, values) -> list:
    values = list(values)
    layout.shuffle(values)
    return values


def _spread(lo: int, hi: int, count: int) -> list[int]:
    """``count`` integers evenly spaced from ``lo`` to ``hi``."""
    return [round(lo + (hi - lo) * k / (count - 1)) for k in range(count)]


def _unit(rng: random.Random) -> list[float]:
    while True:
        vec = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(sum(v * v for v in vec))
        if norm > 1e-3:
            return [round(v / norm, 12) for v in vec]


def _window(rng: random.Random, lo: float, hi: float, decades: float,
            place: float | None = None) -> tuple[float, float]:
    """A log window ``decades`` wide inside [lo, hi], its start at fraction
    ``place`` of the free range (uniform when not given)."""
    decades = min(decades, math.log10(hi / lo))
    free = math.log10(hi / lo) - decades
    start = math.log10(lo) + free * (rng.random() if place is None else place)
    return 10.0 ** start, 10.0 ** (start + decades)


def _sig(x: float) -> float:
    """Round to 6 significant digits so configs read like hand-written ones."""
    return float(f"{x:.6g}")


def _doc_text(doc: dict) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def _op(kind: str, label: str, text: str, points: int, expect_exit: int = 0) -> dict:
    return {"kind": kind, "label": label, "config": text, "points": points,
            "expect_exit": expect_exit}


# ---------------------------------------------------------------------------
# omega-impurity
# ---------------------------------------------------------------------------

_OMEGA_SLOTS = [  # (valley set, observable, workers): 12 per round
    (vs, obs, 1) for vs in ("Ge4", "Si6", "explicit")
    for obs in ("absorption", "emission", "both")
] + [("Ge4", "absorption", 2), ("Si6", "emission", 2), ("explicit", "both", 2)]


def _omega_round(rng: random.Random, layout: random.Random) -> list[dict]:
    count = len(_OMEGA_SLOTS)
    thetas = _stratified(rng, layout, 4.2, 1e4, count)
    points = _shuffled(layout, _spread(40, 200, count))
    widths = _shuffled(layout, [1.0 + 3.0 * k / (count - 1) for k in range(count)])
    places = _shuffled(layout, range(count))
    explicit_count = layout.choice((2, 3))
    ops = []
    for k, (vset, obs, workers) in enumerate(_OMEGA_SLOTS):
        theta, npts = thetas[k], points[k]
        theta = _sig(theta)
        n = _sig(_log_uniform(rng, 1e15, 1e17))
        if vset == "Ge4":
            material = dict(GE_MATERIAL)
            valleys = {"preset": "Ge4", "n": n, "theta_K": theta}
        elif vset == "Si6":
            material = dict(SI_MATERIAL)
            valleys = {"preset": "Si6", "n": n, "theta_K": theta}
        else:
            material = dict(GE_MATERIAL, r_D=_sig(_log_uniform(rng, 1e-6, 1e-4)))
            valleys = [
                {"axis": _unit(rng), "n": _sig(n * rng.uniform(0.2, 1.0)), "theta_K": theta}
                for _ in range(explicit_count)
            ]
        lo, hi = _window(rng, 1e10, 1e17, widths[k], (places[k] + rng.random()) / count)
        doc = {
            "material": material,
            "valleys": valleys,
            "polarization": _unit(rng),
            "mechanism": "impurity",
            "regime": "general",
            "observable": obs,
            "sweep": {"kind": "omega", "min": _sig(lo), "max": _sig(hi),
                      "points": npts, "scale": "log"},
            "workers": workers,
        }
        ops.append(_op("inproc", f"{vset}-{obs}-w{workers}", _doc_text(doc), npts))
    return _shuffled(layout, ops)


# ---------------------------------------------------------------------------
# phi-hot
# ---------------------------------------------------------------------------

def _phi_sweep(rng: random.Random, npts: int, omega: float) -> dict:
    e1 = _unit(rng)
    return {"kind": "phi", "min": 0.0, "max": math.pi, "points": npts,
            "scale": "linear", "omega": _sig(omega), "plane": [e1, _unit(rng)]}


def _stress_si6(rng: random.Random, layout: random.Random) -> dict:
    """Si6 with one valley pair (a stress axis) at its own n and theta."""
    t_pair, t_rest = _stratified(rng, layout, 77.0, 3000.0, 2)
    n_pair = _sig(_log_uniform(rng, 1e16, 1e17))
    n_rest = _sig(n_pair * rng.uniform(0.01, 0.3))
    axis = rng.randrange(3)
    ns = [n_pair if i // 2 == axis else n_rest for i in range(6)]
    ts = [_sig(t_pair) if i // 2 == axis else _sig(t_rest) for i in range(6)]
    return {"preset": "Si6", "n": ns, "theta_K": ts}


def _ge4_explicit(rng: random.Random, layout: random.Random) -> list[dict]:
    thetas = _stratified(rng, layout, 77.0, 3000.0, 4)
    return [{"axis": axis, "n": _sig(_log_uniform(rng, 1e15, 1e16)), "theta_K": _sig(t)}
            for axis, t in zip(GE4_AXES, thetas)]


def _phi_round(rng: random.Random, layout: random.Random, docs_si6: str) -> list[dict]:
    impurity_points = _shuffled(layout, _spread(19, 91, 4))
    acoustic_points = _shuffled(layout, _spread(19, 91, 2))
    omegas = _stratified(rng, layout, 1e12, 1e16, 6)
    slots = [("stress-Si6", "impurity"), ("stress-Si6", "impurity"),
             ("Ge4-4theta", "impurity"), ("Ge4-4theta", "impurity"),
             ("stress-Si6", "acoustic"), ("Ge4-4theta", "acoustic")]
    points = impurity_points + acoustic_points
    docs_doc = json.loads(docs_si6)
    ops = [
        _op("inproc", "docs-Si6", docs_si6, docs_doc["sweep"]["points"]),
        _op("inproc", "docs-Si6-impurity-both",
            _doc_text(dict(docs_doc, mechanism="impurity", observable="both")),
            docs_doc["sweep"]["points"]),
    ]
    for (vset, mechanism), npts, omega in zip(slots, points, omegas):
        if vset == "stress-Si6":
            material, valleys = dict(SI_MATERIAL), _stress_si6(rng, layout)
        else:
            material, valleys = dict(GE_MATERIAL), _ge4_explicit(rng, layout)
        doc = {
            "material": material,
            "valleys": valleys,
            "polarization": [1, 0, 0],
            "mechanism": mechanism,
            "regime": "general",
            "observable": "both",
            "sweep": _phi_sweep(rng, npts, omega),
        }
        ops.append(_op("inproc", f"{vset}-{mechanism}", _doc_text(doc), npts))
    return _shuffled(layout, ops)


# ---------------------------------------------------------------------------
# cli-closed-form
# ---------------------------------------------------------------------------

def _s_window(theta: float, s_lo: float, s_hi: float) -> tuple[float, float]:
    """Omega range over which hbar*omega/(k_B theta) spans [s_lo, s_hi]."""
    return s_lo * theta / HBAR_OVER_KB, s_hi * theta / HBAR_OVER_KB


def _closed_form_doc(rng, mechanism, regime, theta, npts, lo, hi, observable) -> dict:
    preset = rng.choice(("Ge4", "Si6"))
    material = dict(GE_MATERIAL) if preset == "Ge4" else dict(SI_MATERIAL, r_D=3e-5)
    return {
        "material": material,
        "valleys": {"preset": preset, "n": _sig(_log_uniform(rng, 1e15, 1e17)),
                    "theta_K": _sig(theta)},
        "polarization": _unit(rng),
        "mechanism": mechanism,
        "regime": regime,
        "observable": observable,
        "sweep": {"kind": "omega", "min": _sig(lo), "max": _sig(hi),
                  "points": npts, "scale": "log"},
    }


def _classical_window(rng, theta):
    # s <= 0.1 at the top of the window (4.2 K still leaves 4.9e10 rad/s).
    return _window(rng, 1e10, _s_window(theta, 0, 0.09)[1], rng.uniform(0.5, 2.0))


def _quantum_window(rng, theta):
    # s >= 10 at the bottom of the window; (q_omega r_D)^2 >= 1e3 needs
    # omega >= 7.8e12 rad/s for r_D = 3e-5 cm and the Ge transverse mass.
    lo_lim = max(1e13, _s_window(theta, 11.0, 0)[0])
    return _window(rng, lo_lim, 1e17, rng.uniform(0.5, 2.0))


def _cli_round(rng: random.Random, layout: random.Random, docs_ge4: str,
               docs_si6: str) -> list[dict]:
    thetas = _stratified(rng, layout, 4.2, 1e4, 5)
    points = _shuffled(layout, _spread(40, 120, 5))
    observables = ("absorption", "emission", "both")
    docs_points = (json.loads(docs_ge4)["sweep"]["points"],
                   json.loads(docs_si6)["sweep"]["points"])
    ops = [_op("cli", "docs-Ge4", docs_ge4, docs_points[0]),
           _op("cli", "docs-Si6", docs_si6, docs_points[1])]

    # Warm acoustic general sweep: a = s/2 stays below 600 everywhere.
    theta = max(thetas[0], 77.0)
    lo, hi = _window(rng, 1e10, min(1e17, _s_window(theta, 0, 1200.0)[1]),
                     rng.uniform(1.0, 4.0))
    doc = _closed_form_doc(rng, "acoustic", "general", theta, points[0], lo, hi,
                           rng.choice(observables))
    ops.append(_op("cli", "acoustic-general", _doc_text(doc), points[0]))

    for (mechanism, regime), theta, npts in zip(
        (("impurity", "classical"), ("impurity", "quantum"),
         ("acoustic", "classical"), ("acoustic", "quantum")),
        thetas[1:], points[1:],
    ):
        if regime == "classical":
            lo, hi = _classical_window(rng, theta)
        else:
            lo, hi = _quantum_window(rng, theta)
        doc = _closed_form_doc(rng, mechanism, regime, theta, npts, lo, hi,
                               rng.choice(observables))
        ops.append(_op("cli", f"{mechanism}-{regime}", _doc_text(doc), npts))

    # Cold acoustic absorption reaching a > 700 at the top of the window.
    theta = _log_uniform(rng, 4.2, 20.0)
    hi = _log_uniform(rng, max(1e16, _s_window(theta, 0, 2000.0)[1]), 1e17)
    doc = _closed_form_doc(rng, "acoustic", "general", theta, 60, hi / 1e3, hi,
                           rng.choice(("absorption", "both")))
    ops.append(_op("cli", "acoustic-general-cold", _doc_text(doc), 60))

    # Deliberately out of window: the regime guard must refuse (exit 3).
    mechanism = rng.choice(("impurity", "acoustic"))
    theta = _log_uniform(rng, 77.0, 3000.0)
    if rng.random() < 0.5:
        regime, (lo, hi) = "classical", _s_window(theta, 0.01, 5.0)
    else:
        regime, (lo, hi) = "quantum", _s_window(theta, 0.5, 50.0)
    doc = _closed_form_doc(rng, mechanism, regime, theta, 60, lo, hi,
                           rng.choice(observables))
    ops.append(_op("cli", f"{mechanism}-{regime}-out-of-window", _doc_text(doc), 60,
                   expect_exit=3))
    return _shuffled(layout, ops)


# ---------------------------------------------------------------------------

def generate(workload: str, seed: int, root: Path) -> dict:
    """The workload's manifest: rounds of ops plus the oracle picks.

    Depends only on ``workload``, ``seed`` and the docs configs under
    ``root``; the same arguments give byte-identical config documents.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}/{seed}")
    docs_ge4 = (root / DOCS_GE4).read_text()
    docs_si6 = (root / DOCS_SI6).read_text()
    rounds = []
    for _ in range(ROUNDS[workload]):
        layout = random.Random(f"{workload}/layout")  # the same for every round
        if workload == "omega-impurity":
            rounds.append(_omega_round(rng, layout))
        elif workload == "phi-hot":
            rounds.append(_phi_round(rng, layout, docs_si6))
        else:
            rounds.append(_cli_round(rng, layout, docs_ge4, docs_si6))
    for r, ops in enumerate(rounds):
        for i, op in enumerate(ops):
            op["id"] = f"r{r:02d}-{i:02d}"

    # Oracle picks: impurity general-regime ops of the first round.  The
    # worker maps ``u`` onto the grid points where the oracle is meaningful.
    picks = []
    for check, wanted in (("emission", ("emission", "both")),
                          ("kirchhoff", ("absorption", "both"))):
        candidates = [op["id"] for op in rounds[0] if _impurity_observable(op) in wanted]
        for op_id in rng.sample(candidates, min(2, len(candidates))):
            picks.append({"op": op_id, "check": check, "u": rng.random()})
    return {"workload": workload, "seed": seed, "rounds": rounds, "oracle": picks}


def _impurity_observable(op: dict) -> str | None:
    """The observable of an impurity general-regime op, else None."""
    doc = json.loads(op["config"])
    if doc.get("mechanism", "impurity") == "impurity" and doc.get("regime", "general") == "general":
        return doc.get("observable", "absorption")
    return None
