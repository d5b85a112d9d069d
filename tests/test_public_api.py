"""The package exports what the README documents, and the names the
benchmark harness in ``perfbench/`` reads keep resolving."""

import dataclasses
import importlib
import importlib.util
import inspect
import re
import subprocess
import sys
from pathlib import Path

import pytest

import multivalley as mv
import multivalley.cli  # noqa: F401  (the harness reads mv.cli)

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

# Names the package exported before its surface was trimmed to the README,
# with the module that still defines each of them.
DROPPED = {
    "constants": ["C_LIGHT", "E_CHARGE", "EULER_GAMMA", "HBAR", "K_BOLTZMANN", "M_ELECTRON"],
    "quadrature": ["DEFAULT_QUADRATURE", "QuadratureSpec"],
    "impurity": ["RelaxationTensor", "p_plus", "relaxation_impurity", "x_min"],
    "special": ["bessel_k0", "bessel_k1", "bessel_k2", "coulomb_log", "psi_infinity",
                "shape_b1", "shape_b2"],
    "geometry": ["cos_phi", "debye_radius", "incident_flux"],
    "emission": ["mode_density", "photon_amplitude"],
    "oracles": ["ShapeParams", "b_param", "psi", "integrate_unit_sphere"],
}
DROPPED_PAIRS = [(m, n) for m, names in DROPPED.items() for n in names]


def _load(path: Path, name: str):
    """Import a perfbench file as a module without putting perfbench on sys.path."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def readme_public_api() -> list[str]:
    """The names listed in the bullets of the README's Public API section."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    bullets = [line for line in section.splitlines() if line.startswith("- **")]
    return [name for line in bullets for name in re.findall(r"`(\w+)`", line)]


def test_all_matches_readme_public_api():
    documented = readme_public_api()
    assert len(documented) == len(set(documented)) == 24
    assert mv.__all__ == documented
    for name in documented:
        assert getattr(mv, name) is not None


@pytest.mark.parametrize("name", mv.__all__)
def test_export_is_its_defining_modules_object(name):
    # the mechanism-side exports load on first use, each the object its module holds
    value = getattr(mv, name)
    assert value is getattr(importlib.import_module(value.__module__), name)


def test_fresh_package_lists_exports_and_imports_nothing_for_dropped_names(checkout_env):
    # before any mechanism module loads, dir() lists all 24 exports; the lazy
    # lookup knows only those, so a dropped name raises AttributeError and
    # imports nothing
    code = (
        "import sys\nimport multivalley as mv\nbefore = set(sys.modules)\n"
        "assert set(mv.__all__) <= set(dir(mv)) and len(mv.__all__) == 24\n"
        f"for name in {[n for _, n in DROPPED_PAIRS]!r}:\n"
        "    assert not hasattr(mv, name), name\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=checkout_env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("module,name", DROPPED_PAIRS)
def test_dropped_name_lives_in_its_module_only(module, name):
    with pytest.raises(AttributeError):
        getattr(mv, name)
    assert getattr(importlib.import_module(f"multivalley.{module}"), name) is not None


def test_oracle_only_code_left_the_runtime_modules():
    from multivalley import quadrature, special

    assert not hasattr(quadrature, "integrate_unit_sphere")
    for name in ("psi", "b_param", "ShapeParams"):
        assert not hasattr(special, name)


def test_tracing_targets_resolve():
    tracing = _load(PERFBENCH / "tracing.py", "_perfbench_tracing")
    assert tracing.TARGETS
    for _metric, module, attr, _mode in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(f"multivalley.{module}"), attr))
    # the tracer reads the quadrature tolerance from the bound `spec` argument
    quad = importlib.import_module("multivalley.quadrature").integrate_spectral_with_error
    assert "spec" in inspect.signature(quad).parameters


def test_checks_imports_cleanly():
    checks = _load(PERFBENCH / "checks.py", "_perfbench_checks")
    assert callable(checks.oracles.p_minus_direct)


def test_runner_package_names_resolve():
    used = set()
    for path in (PERFBENCH / "runner.py", PERFBENCH / "worker.py"):
        source = path.read_text()
        used |= set(re.findall(r"\bself\.mv\.(\w+)", source))
        used |= set(re.findall(r"\bmultivalley\.(\w+)", source)) - {"__file__"}
    assert {"run_sweep", "write_csv", "parse_config", "theta_from_kelvin",
            "Observable", "cli"} <= used
    for name in used:
        assert getattr(mv, name) is not None, name
    # runner.py sets RunConfig.workers through dataclasses.replace
    assert "workers" in {f.name for f in dataclasses.fields(mv.RunConfig)}
