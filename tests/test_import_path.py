"""numpy is confined to the general regime's spectral core: importing the
package, parsing a config, the CLI's start-up and every closed-form sweep run
in an interpreter where ``import numpy`` fails.  Needs numpy and pytest only.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from multivalley import parse_config, run_sweep, write_csv

ROOT = Path(__file__).resolve().parents[1]
DOCS = ROOT / "docs"
DOCS_CONFIGS = ["config_ge4_spectrum.json", "config_si6_hot_polarization.json"]
# Inside the closed-form windows of the docs Ge4 valleys at 300 K
# (s <= 0.076 and s >= 12.7), as in test_reference_values.
WINDOWS = {
    "classical": {"kind": "omega", "min": 1e10, "max": 3e12, "points": 12, "scale": "log"},
    "quantum": {"kind": "omega", "min": 5e14, "max": 5e15, "points": 12, "scale": "log"},
}
BLOCK_NUMPY = "import sys\nsys.modules['numpy'] = None  # any import of numpy now fails\n"


def run_child(code: str, env: dict) -> str:
    """The last line the child prints."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def ge4_doc(**overrides) -> dict:
    doc = json.loads((DOCS / "config_ge4_spectrum.json").read_text())
    doc.update(overrides)
    doc.pop("output")
    return doc


def cli_code(config: Path, output: Path) -> str:
    return (
        BLOCK_NUMPY
        + "from multivalley.cli import main\n"
        + f"print(main(['--config', {str(config)!r}, '--output', {str(output)!r}]))\n"
    )


@pytest.mark.parametrize("name", DOCS_CONFIGS)
def test_parse_config_without_numpy(checkout_env, name):
    # the repr rebuilds every float bit for bit, the phi plane of Si6 included
    text = (DOCS / name).read_text()
    code = BLOCK_NUMPY + f"from multivalley import parse_config\nprint(repr(parse_config({text!r})))"
    assert run_child(code, checkout_env) == repr(parse_config(text))


@pytest.mark.parametrize("regime", ["classical", "quantum"])
@pytest.mark.parametrize("mechanism", ["impurity", "acoustic"])
def test_closed_form_cli_without_numpy(checkout_env, tmp_path, mechanism, regime):
    doc = ge4_doc(mechanism=mechanism, regime=regime, sweep=WINDOWS[regime])
    config, output = tmp_path / "config.json", tmp_path / "child.csv"
    config.write_text(json.dumps(doc))
    assert run_child(cli_code(config, output), checkout_env) == "0"
    expected = tmp_path / "in_process.csv"
    write_csv(run_sweep(parse_config(json.dumps(doc))), str(expected))
    assert output.read_bytes() == expected.read_bytes()


def test_out_of_window_cli_without_numpy_exits_three(checkout_env, tmp_path):
    doc = ge4_doc(regime="classical", sweep=WINDOWS["quantum"])
    config, output = tmp_path / "config.json", tmp_path / "child.csv"
    config.write_text(json.dumps(doc))
    assert run_child(cli_code(config, output), checkout_env) == "3"
    assert not output.exists()


@pytest.mark.parametrize("mechanism", ["impurity", "acoustic"])
def test_general_regime_loads_numpy(checkout_env, tmp_path, mechanism):
    config, output = tmp_path / "config.json", tmp_path / "child.csv"
    config.write_text(json.dumps(ge4_doc(mechanism=mechanism, regime="general")))
    code = (
        "import sys\n"
        "from multivalley.cli import main\n"
        "before = 'numpy' in sys.modules\n"
        f"code = main(['--config', {str(config)!r}, '--output', {str(output)!r}])\n"
        "print(before, code, 'numpy' in sys.modules)\n"
    )
    assert run_child(code, checkout_env) == "False 0 True"
