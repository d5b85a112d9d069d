"""Pinned values: eight sweeps against numbers stored in
``tests/data/reference_values.json``.

Each sweep is a docs config with its mechanism, regime, observable and, for
the closed forms, its frequency sweep overridden.  Every cell of every row is
compared: value cells at rel=1e-12, abs=0, text cells exactly.  A refactor
that claims the same numbers passes this test unchanged.

To pin new values after a declared value change, run this file as a script;
it rewrites the data file from the checkout it imports.
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
# Inside the closed-form windows of the docs Ge4 valleys at 300 K:
# s <= 0.076 and s >= 12.7.
CLASSICAL_SWEEP = {"kind": "omega", "min": 1e10, "max": 3e12, "points": 12, "scale": "log"}
QUANTUM_SWEEP = {"kind": "omega", "min": 5e14, "max": 5e15, "points": 12, "scale": "log"}

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
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps({case: evaluate(case) for case in sorted(CASES)}, indent=1) + "\n")
    print(f"wrote {len(CASES)} sweeps to {DATA}")
