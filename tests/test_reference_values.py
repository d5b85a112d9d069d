"""Pinned values: twenty-four sweeps against numbers stored in
``tests/data/reference_values.json``.

Each sweep is a docs config with its mechanism, regime, observable and, for
the closed forms, its frequency sweep overridden: both mechanisms in every
regime on the docs valleys; the closed forms on Ge4 valleys at 4.2 K and at
1e4 K and up to just inside the guards s = 0.1 and s = 10; absorption-only and
emission-only runs; and quantum acoustic emission as a phi sweep of the
unevenly populated Si6 valleys.  Every cell of every row is compared: value
cells at rel=1e-12, abs=0, text cells exactly.  A refactor that claims the
same numbers passes this test unchanged.

To pin values, run this file as a script from the checkout it imports:

    python tests/test_reference_values.py [CASE ...]

It evaluates the named cases, or with no names every case that the data file
lacks, and rewrites only those entries.  The other entries keep their bytes,
and with nothing to do the file is not written.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from multivalley import parse_config, run_sweep

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data" / "reference_values.json"

GE4 = "config_ge4_spectrum.json"
SI6 = "config_si6_hot_polarization.json"


def log_sweep(lo: float, hi: float) -> dict:
    return {"kind": "omega", "min": lo, "max": hi, "points": 12, "scale": "log"}


# Inside the closed-form windows of the docs Ge4 valleys at 300 K
# (theta/hbar = 3.9276e13 rad/s): s <= 0.076 and s >= 12.7.
CLASSICAL_SWEEP = log_sweep(1e10, 3e12)
QUANTUM_SWEEP = log_sweep(5e14, 5e15)
# The same windows ending just inside the guards: s = 0.0999999955 and
# s = 10.0000002.
EDGE_SWEEPS = {"classical": log_sweep(3.92761e10, 3.92761e12),
               "quantum": log_sweep(3.927611e14, 3.927611e15)}
# The docs Ge4 valleys at the temperature corners (theta/hbar = 5.50e11 and
# 1.31e15 rad/s): classical sweeps from s = 1e-3 to 0.098 and 0.099, quantum
# ones from s = 14.5 (where the quantum impurity screening guard lets a 4.2 K
# sweep start) and 10.7 to s ~ 54.
CORNERS = {
    "cold": (4.2, {"classical": log_sweep(5.5e8, 5.4e10), "quantum": log_sweep(8e12, 3e13)}),
    "hot": (1e4, {"classical": log_sweep(1.3e12, 1.3e14), "quantum": log_sweep(1.4e16, 7e16)}),
}
# The docs Si6 phi sweep at s = 14.7 and 21.8 for its hot and cold valleys.
SI6_QUANTUM_PHI = {"kind": "phi", "min": 0.0, "max": 3.141592653589793, "points": 37,
                   "scale": "linear", "omega": 1e15, "plane": [[1, 0, 0], [0, 0, 1]]}

VALUE_COLUMNS = ("K_per_cm", "dW_dOmega_cgs")

# id -> (docs config, overrides)
CASES = {
    f"{name}-{mechanism}-{regime}": (
        config, {"mechanism": mechanism, "regime": regime, "observable": "both",
                 **({} if sweep is None else {"sweep": sweep})},
    )
    for mechanism in ("impurity", "acoustic")
    for name, config, regime, sweep in (
        ("ge4", GE4, "general", None),
        ("si6", SI6, "general", None),
        ("ge4", GE4, "classical", CLASSICAL_SWEEP),
        ("ge4", GE4, "quantum", QUANTUM_SWEEP),
    )
}
for mechanism in ("impurity", "acoustic"):
    for regime in ("classical", "quantum"):
        selectors = {"mechanism": mechanism, "regime": regime, "observable": "both"}
        CASES[f"ge4-edge-{mechanism}-{regime}"] = (
            GE4, {**selectors, "sweep": EDGE_SWEEPS[regime]})
        for corner, (theta_K, sweeps) in CORNERS.items():
            valleys = {"preset": "Ge4", "n": 1e16, "theta_K": theta_K}
            CASES[f"ge4-{corner}-{mechanism}-{regime}"] = (
                GE4, {**selectors, "valleys": valleys, "sweep": sweeps[regime]})
CASES.update({
    "ge4-impurity-general-absorption": (GE4, {"observable": "absorption"}),
    "ge4-acoustic-quantum-absorption": (GE4, {"mechanism": "acoustic", "regime": "quantum",
                                              "observable": "absorption",
                                              "sweep": QUANTUM_SWEEP}),
    "si6-acoustic-general-emission": (SI6, {}),  # the docs config as it is
    "si6-acoustic-quantum-emission": (SI6, {"regime": "quantum", "sweep": SI6_QUANTUM_PHI}),
})


def evaluate(case: str) -> dict:
    config, overrides = CASES[case]
    doc = json.loads((ROOT / "docs" / config).read_text())
    doc.update(overrides)
    # the spectral core's floating-point state: any overflow or nan raises
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        result = run_sweep(parse_config(json.dumps(doc)))
    return {"columns": list(result.columns), "rows": [list(row) for row in result.rows]}


@pytest.fixture(scope="module")
def reference():
    return json.loads(DATA.read_text())


def test_reference_covers_every_case(reference):
    assert sorted(reference) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_sweep_matches_reference(reference, case):
    expected = reference[case]
    actual = evaluate(case)
    assert actual["columns"] == expected["columns"]
    assert len(actual["rows"]) == len(expected["rows"])
    for got_row, want_row in zip(actual["rows"], expected["rows"]):
        assert len(got_row) == len(want_row)
        for column, got, want in zip(expected["columns"], got_row, want_row):
            if isinstance(want, str):
                assert got == want, column
            else:
                if column in VALUE_COLUMNS:  # a zero or subnormal pin would say little
                    assert abs(want) >= sys.float_info.min, (column, want_row[0])
                assert got == pytest.approx(want, rel=1e-12, abs=0), (column, got_row[0])


if __name__ == "__main__":
    unknown = sorted(set(sys.argv[1:]) - set(CASES))
    if unknown:
        sys.exit(f"unknown cases: {', '.join(unknown)}; known: {', '.join(sorted(CASES))}")
    pinned = json.loads(DATA.read_text()) if DATA.exists() else {}
    cases = sys.argv[1:] or [case for case in sorted(CASES) if case not in pinned]
    pinned.update({case: evaluate(case) for case in cases})
    if cases:
        DATA.parent.mkdir(exist_ok=True)
        DATA.write_text(json.dumps(dict(sorted(pinned.items())), indent=1) + "\n")
    print(f"wrote {len(cases)} sweeps to {DATA}: {', '.join(cases) or 'none'}")
