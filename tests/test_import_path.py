"""numpy is confined to the general impurity regime's spectral core:
importing the package, parsing a config, the CLI's start-up, every
closed-form sweep and the acoustic mechanism in every regime run in an
interpreter where ``import numpy`` fails.  A CLI run imports only the
mechanism module it computes, and no argparse.  Needs numpy and pytest only.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from multivalley import absorption_acoustic, emission_acoustic, parse_config, run_sweep, write_csv

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
# General acoustic runs: the docs Si6 phi sweep, a 120-point omega sweep, and
# a sweep of Ge4 valleys at 4.2 K whose kernel argument reaches a ~ 9e3.
ACOUSTIC_GENERAL = {
    "docs-Si6": {},
    "omega-120": {"sweep": {"kind": "omega", "min": 1e11, "max": 1e16, "points": 120,
                            "scale": "log"}},
    "cold": {"valleys": {"preset": "Ge4", "n": 1e16, "theta_K": 4.2}, "observable": "absorption",
             "sweep": {"kind": "omega", "min": 1e12, "max": 1e16, "points": 60, "scale": "log"}},
}


def run_child(code: str, env: dict) -> str:
    """The last line the child prints."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def ge4_doc(**overrides) -> dict:
    return doc_from("config_ge4_spectrum.json", **overrides)


def doc_from(name: str, **overrides) -> dict:
    doc = json.loads((DOCS / name).read_text())
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


@pytest.mark.parametrize("mechanism,loads", [pytest.param("impurity", True, id="impurity"),
                                              pytest.param("acoustic", False, id="acoustic")])
def test_general_regime_loads_numpy(checkout_env, tmp_path, mechanism, loads):
    # only the impurity integrals need the numpy core
    config, output = tmp_path / "config.json", tmp_path / "child.csv"
    config.write_text(json.dumps(ge4_doc(mechanism=mechanism, regime="general")))
    code = (
        "import sys\n"
        "from multivalley.cli import main\n"
        "before = 'numpy' in sys.modules\n"
        f"code = main(['--config', {str(config)!r}, '--output', {str(output)!r}])\n"
        "print(before, code, 'numpy' in sys.modules)\n"
    )
    assert run_child(code, checkout_env) == f"False 0 {loads}"


@pytest.mark.parametrize("overrides", ACOUSTIC_GENERAL.values(), ids=ACOUSTIC_GENERAL.keys())
def test_general_acoustic_cli_without_numpy(checkout_env, tmp_path, overrides):
    doc = doc_from("config_si6_hot_polarization.json", **overrides)
    config, output = tmp_path / "config.json", tmp_path / "child.csv"
    config.write_text(json.dumps(doc))
    assert run_child(cli_code(config, output), checkout_env) == "0"
    expected = tmp_path / "in_process.csv"
    write_csv(run_sweep(parse_config(json.dumps(doc))), str(expected))
    assert output.read_bytes() == expected.read_bytes()


def test_general_acoustic_observables_without_numpy(checkout_env, ge_material, single_valley,
                                                    pol_skew):
    # the dataclass reprs rebuild the same objects, floats bit for bit
    args = (single_valley, ge_material, 3.0e13, pol_skew, "general")
    code = (
        BLOCK_NUMPY
        + "from multivalley import *\n"
        + f"print(repr(absorption_acoustic{args!r}), repr(emission_acoustic{args!r}.dW_dOmega))\n"
    )
    expected = [repr(absorption_acoustic(*args)), repr(emission_acoustic(*args).dW_dOmega)]
    assert run_child(code, checkout_env).split() == expected


# What a run may import, by the short name of each watched module.
WATCHED = ("impurity", "acoustic", "emission", "special", "quadrature", "numpy", "argparse")
# Each kind of CLI run, as overrides of the docs config, with its exit code and
# the watched modules it loads: a closed form of one mechanism loads no module
# of the other, nor emission; an acoustic closed form needs no special; a run
# refused outside its window (exit 3) loads what its closed form loads.
RUN_LOADS = {
    "acoustic-classical": (dict(mechanism="acoustic", regime="classical",
                                sweep=WINDOWS["classical"]), 0, {"acoustic"}),
    "acoustic-quantum": (dict(mechanism="acoustic", regime="quantum",
                              sweep=WINDOWS["quantum"]), 0, {"acoustic"}),
    "acoustic-out-of-window": (dict(mechanism="acoustic", regime="classical",
                                    sweep=WINDOWS["quantum"]), 3, {"acoustic"}),
    "impurity-classical": (dict(regime="classical", sweep=WINDOWS["classical"]), 0,
                           {"impurity", "special"}),
    "impurity-quantum": (dict(regime="quantum", sweep=WINDOWS["quantum"]), 0,
                         {"impurity", "special"}),
    "impurity-out-of-window": (dict(regime="quantum", sweep=WINDOWS["classical"]), 3,
                               {"impurity", "special"}),
    "acoustic-general-docs-Si6": (dict(doc="config_si6_hot_polarization.json"), 0,
                                  {"acoustic", "special"}),
    "impurity-general-docs-Ge4": ({}, 0, {"impurity", "special", "quadrature", "numpy"}),
}


def watched_loaded() -> str:
    """Child code that prints the watched modules in ``sys.modules``."""
    return (f"print(*[m for m in {WATCHED!r}\n"
            "         if m in sys.modules or 'multivalley.' + m in sys.modules])\n")


@pytest.mark.parametrize("overrides,code,loads", RUN_LOADS.values(), ids=RUN_LOADS.keys())
def test_cli_run_loads_only_its_mechanism(checkout_env, tmp_path, overrides, code, loads):
    overrides = dict(overrides)
    doc = doc_from(overrides.pop("doc", "config_ge4_spectrum.json"), **overrides)
    config, output = tmp_path / "config.json", tmp_path / "child.csv"
    config.write_text(json.dumps(doc))
    child = (
        "import sys\n"
        "from multivalley.cli import main\n"
        f"print(main(['--config', {str(config)!r}, '--output', {str(output)!r}]))\n"
        + watched_loaded()
    )
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          env=checkout_env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    *_, exit_line, loaded_line = proc.stdout.splitlines()
    assert exit_line == str(code)
    assert set(loaded_line.split()) == loads


def test_parse_config_loads_no_mechanism(checkout_env):
    text = (DOCS / "config_ge4_spectrum.json").read_text()
    code = ("import sys\nimport multivalley\n"
            f"multivalley.parse_config({text!r})\n" + watched_loaded())
    assert run_child(code, checkout_env) == ""
