"""One input domain: the public observables and the CLI accept and refuse the
same inputs.  Non-finite valley and material fields and frequencies outside
[OMEGA_MIN, OMEGA_MAX] raise ConfigError in the library and exit 2 in the
CLI, without a warning; the range edges evaluate.  Inputs far outside the
documented domain give the same values, or the same error, in both; a
hand-built RunConfig is read, or refused, as a parsed one is."""

import contextlib
import dataclasses
import io
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import multivalley as mv
from multivalley import cli
from multivalley.config import write_csv
from multivalley.constants import HBAR
from multivalley.errors import ConfigError, QuadratureError, RegimeError
from multivalley.geometry import OMEGA_MAX, OMEGA_MIN
from multivalley.impurity import p_plus
from multivalley.quadrature import _shape_b12

DOCS = Path(__file__).resolve().parent.parent / "docs"

# (mechanism, observable) of each public observable
OBSERVABLES = {
    mv.absorption_impurity: ("impurity", "absorption"),
    mv.absorption_acoustic: ("acoustic", "absorption"),
    mv.emission_impurity: ("impurity", "emission"),
    mv.emission_acoustic: ("acoustic", "emission"),
}
REGIMES = ["general", "classical", "quantum"]
OUTSIDE = [1e-60, 1e101, 1e120, math.inf, math.nan]


def ge4_doc(**overrides):
    doc = json.loads((DOCS / "config_ge4_spectrum.json").read_text())
    doc.update(overrides)
    return doc


def phi_doc(omega, function, regime):
    mechanism, observable = OBSERVABLES[function]
    return ge4_doc(mechanism=mechanism, regime=regime, observable=observable, sweep={
        "kind": "phi", "min": 0.0, "max": 1.5, "points": 2, "omega": omega})


def run_cli(tmp_path, doc):
    """Exit code and stderr of the CLI on ``doc``, with warnings as errors."""
    cfg, err = tmp_path / "config.json", io.StringIO()
    cfg.write_text(json.dumps(doc))  # non-finite numbers as NaN/Infinity, which json reads
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.main(["--config", str(cfg), "--output", str(tmp_path / "x.csv")])
    return code, err.getvalue()


@pytest.fixture
def ge4():
    config = mv.parse_config(json.dumps(ge4_doc()))
    return config.valleys, config.material, config.polarization


def library_raises_config_error(build):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError):
            build()


@pytest.mark.parametrize("field,value", [
    ("n", math.nan), ("n", math.inf), ("theta_K", math.inf),
], ids=["n-nan", "n-inf", "theta-inf"])
def test_non_finite_valley_is_refused(tmp_path, field, value):
    fields = {"n": 1e16, "theta_K": 300.0, field: value}
    library_raises_config_error(lambda: mv.Valley(
        axis=(0.0, 0.0, 1.0), n=fields["n"], theta=mv.theta_from_kelvin(fields["theta_K"])))
    code, err = run_cli(tmp_path, ge4_doc(valleys={"preset": "Ge4", **fields}))
    assert code == 2 and f"valleys.{field}" in err


@pytest.mark.parametrize("field,value", [
    ("eps0", math.nan), ("eps0", math.inf), ("n_a", math.inf), ("m_par", math.inf),
    ("tau_perp0", math.inf), ("r_D", math.inf),
], ids=["eps0-nan", "eps0-inf", "n_a-inf", "m_par-inf", "tau_perp0-inf", "r_D-inf"])
def test_non_finite_material_is_refused(tmp_path, ge4, field, value):
    _, material, _ = ge4
    library_raises_config_error(lambda: dataclasses.replace(material, **{field: value}))
    doc = ge4_doc()
    doc["material"][field] = value
    code, err = run_cli(tmp_path, doc)
    assert code == 2 and f"material.{field}" in err


@pytest.mark.parametrize("omega", OUTSIDE)
@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("function", OBSERVABLES, ids=lambda f: f.__name__)
def test_frequency_outside_range_is_refused(tmp_path, ge4, function, regime, omega):
    valleys, material, pol = ge4
    library_raises_config_error(lambda: function(valleys, material, omega, pol, regime))
    code, err = run_cli(tmp_path, phi_doc(omega, function, regime))
    assert code == 2 and "sweep.omega" in err


@pytest.mark.parametrize("omega", OUTSIDE)
def test_absorbed_power_outside_range_is_refused(ge4, omega):
    valleys, material, pol = ge4
    library_raises_config_error(lambda: p_plus(valleys.valleys[0], material, omega, pol, 1.0))


@pytest.mark.parametrize("omega", [OMEGA_MIN, OMEGA_MAX])
@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("function", OBSERVABLES, ids=lambda f: f.__name__)
def test_range_edges_evaluate(tmp_path, ge4, function, regime, omega):
    # a finite, non-negative value, or a documented error; the CLI agrees
    valleys, material, pol = ge4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = function(valleys, material, omega, pol, regime)
        except RegimeError:
            expected = 3
        except (QuadratureError, FloatingPointError):
            expected = 4
        else:
            value = getattr(value, "dW_dOmega", value)
            assert math.isfinite(value) and value >= 0.0
            expected = 0
    assert run_cli(tmp_path, phi_doc(omega, function, regime))[0] == expected


@pytest.mark.parametrize("omega", [1e-50, 1e-20, 1e-2])
@pytest.mark.parametrize("kelvin", [4.2, 300.0, 1e4])
def test_general_impurity_at_vanishing_frequency(tmp_path, kelvin, omega):
    # hbar omega/theta down to ~1e-66: the momentum window's lower end
    # q_min must not cancel to 0
    doc = ge4_doc(valleys={"preset": "Ge4", "n": 1e16, "theta_K": kelvin},
                  sweep={"kind": "omega", "min": omega, "max": 10.0 * omega, "points": 3})
    assert run_cli(tmp_path, doc) == (0, "")
    config = mv.parse_config(json.dumps(doc))
    args = (config.valleys, config.material, omega, config.polarization)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k = mv.absorption_impurity(*args)
        w = mv.emission_impurity(*args).dW_dOmega
    assert math.isfinite(k) and k > 0.0 and math.isfinite(w) and w > 0.0


@pytest.mark.parametrize("function", OBSERVABLES, ids=lambda f: f.__name__)
def test_unknown_regime_is_refused(tmp_path, ge4, function):
    # the library raises the CLI's refusal, word for word
    valleys, material, pol = ge4
    with pytest.raises(ConfigError) as err:
        function(valleys, material, 1e13, pol, "clasical")
    assert str(err.value) == "regime: expected 'general', 'classical' or 'quantum', got 'clasical'"
    assert run_cli(tmp_path, phi_doc(1e13, function, "clasical")) == (2, f"config error: {err.value}\n")


def assert_regime_refusal(tmp_path, ge4, function, regime, omega, r_d, message):
    """The library and the CLI refuse with ``message`` at ``omega``, named."""
    valleys, material, pol = ge4
    message = f"{message} at omega = {omega:.6e} rad/s"
    with pytest.raises(RegimeError) as err:
        function(valleys, dataclasses.replace(material, r_D=r_d), omega, pol, regime)
    assert str(err.value) == message
    doc = phi_doc(omega, function, regime)
    doc["material"]["r_D"] = r_d
    assert run_cli(tmp_path, doc) == (3, f"regime error: {message}\n")


@pytest.mark.parametrize("regime,relation", [("classical", "<= 0.1"), ("quantum", ">= 10.0")])
@pytest.mark.parametrize("function", OBSERVABLES, ids=lambda f: f.__name__)
def test_window_refusal_names_omega(tmp_path, ge4, function, regime, relation):
    mechanism, _ = OBSERVABLES[function]
    message = f"{regime} {mechanism} form needs hbar*omega/theta {relation}, got 2.546e+00"
    assert_regime_refusal(tmp_path, ge4, function, regime, 1e14, 3e-5, message)


@pytest.mark.parametrize("function", [mv.absorption_impurity, mv.emission_impurity],
                         ids=lambda f: f.__name__)
def test_screening_refusal_names_omega(tmp_path, ge4, function):
    message = "quantum impurity form needs (q_omega r_D)^2 >= 1000, got 1.417e+00"
    assert_regime_refusal(tmp_path, ge4, function, "quantum", 1e15, 1e-7, message)


def sweep(**overrides):
    """Run a valid phi sweep with ``overrides`` applied by hand, not by the parser."""
    doc = ge4_doc(sweep={"kind": "phi", "min": 0.0, "max": 1.5, "points": 3, "omega": 1e13})
    config = mv.parse_config(json.dumps(doc))
    return mv.run_sweep(dataclasses.replace(
        config, sweep=dataclasses.replace(config.sweep, **overrides)))


LOG_OMEGA = {"kind": "omega", "scale": "log", "minimum": 1e12, "maximum": 1e13, "omega": None,
             "plane": None}


@pytest.mark.parametrize("build", [
    lambda: sweep(points=1),
    lambda: sweep(**dict(LOG_OMEGA, maximum=1e200)),
    lambda: sweep(omega=1e200),
    lambda: sweep(**dict(LOG_OMEGA, minimum=-1.0)),
    lambda: sweep(omega=0.0),
    lambda: sweep(omega=math.nan),
    lambda: sweep(kind="freq"),
    lambda: sweep(omega=None),
    lambda: sweep(plane=None),
    lambda: sweep(minimum=2.0, maximum=1.0),
    lambda: sweep(scale="lin"),
    lambda: sweep(plane=((1.0, 0.0, 0.0), (1.0, 0.0, 0.0))),
    lambda: sweep(plane=((2.0, 0.0, 0.0), (0.0, 0.0, 1.0))),
    lambda: sweep(plane=((1.0, 0.0, 0.0),)),
    lambda: sweep(minimum=-math.inf),
    lambda: sweep(maximum=math.inf),
    lambda: mv.Valley(axis=(math.nan, 0.0, 0.0), n=1e16, theta=mv.theta_from_kelvin(300.0)),
    lambda: mv.Polarization(q0=(math.nan, 0.0, 0.0)),
    lambda: mv.Polarization(q0=(1.0, 0.0, 0.0, 5.0)),
    lambda: mv.Polarization(q0=(1.0, 0.0)),
], ids=["points-1", "max-1e200", "phi-omega-1e200", "log-min-negative", "phi-omega-0",
        "phi-omega-nan", "kind-freq", "phi-no-omega", "phi-no-plane", "max-below-min",
        "scale-lin", "plane-parallel", "plane-not-unit", "plane-one-vector", "phi-min-inf",
        "phi-max-inf", "axis-nan", "q0-nan", "q0-four-components", "q0-two-components"])
def test_hand_built_value_is_refused(build):
    # the data model refuses them, not only the parser
    library_raises_config_error(build)


@pytest.mark.parametrize("mechanism", ["impurity", "acoustic"])
def test_refusal_comes_before_values(tmp_path, mechanism):
    # 1e300 electrons per valley overflow every cell below the window's edge;
    # the window is checked over the whole grid before a value is computed
    doc = ge4_doc(mechanism=mechanism, regime="classical", observable="both",
                  valleys={"preset": "Ge4", "n": 1e300, "theta_K": 300.0},
                  sweep={"kind": "omega", "min": 1e-40, "max": 1e14, "points": 40})
    message = (f"classical {mechanism} form needs hbar*omega/theta <= 0.1, got 1.050e-01 "
               "at omega = 4.124626e+12 rad/s")
    assert run_cli(tmp_path, doc) == (3, f"regime error: {message}\n")
    with pytest.raises(RegimeError, match=re.escape(message)):
        mv.run_sweep(mv.parse_config(json.dumps(doc)))


# Docs Ge4 far outside the documented domain, and the CLI's exit code for
# each mechanism.  1e300 electrons per valley with no r_D derive r_D = 2.4e-148
# cm; with that or r_D = 1e-150 cm, screening leaves B1 = B2 = 0 (b beyond
# 1e100), so impurity reads 0.0.  For impurity, r_D^2 = 1e-400 underflows to 0,
# hot valleys overflow q^2, and at 1e-300 K kappa underflows to 0: each a trap
# of the spectral core, named by s.  Acoustic cells of n theta overflow.
EXTREMES = {
    "n-1e300": ({"valleys": {"n": 1e300}, "material": {"r_D": None}},
                {"impurity": 0, "acoustic": 4}),
    "r_D-1e-150": ({"material": {"r_D": 1e-150}}, {"impurity": 0, "acoustic": 0}),
    "r_D-1e-200": ({"material": {"r_D": 1e-200}}, {"impurity": 4, "acoustic": 0}),
    "theta_K-1e300": ({"valleys": {"theta_K": 1e300}}, {"impurity": 4, "acoustic": 4}),
    "theta_K-1e-300": ({"valleys": {"theta_K": 1e-300}}, {"impurity": 4, "acoustic": 4}),
}
ABSORPTION = {"impurity": mv.absorption_impurity, "acoustic": mv.absorption_acoustic}


def extreme_doc(name, mechanism):
    doc = ge4_doc(mechanism=mechanism)
    for section, fields in EXTREMES[name][0].items():
        doc[section].update(fields)
    doc["material"] = {k: v for k, v in doc["material"].items() if v is not None}
    return doc


def library_outcome(call):
    """``call()``, or the numerical error it raises, with warnings as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call()
        except (QuadratureError, FloatingPointError) as exc:
            return exc


def cli_stderr(exc):
    """What the CLI prints for the library's numerical error ``exc``."""
    if isinstance(exc, QuadratureError):
        return f"numerical error: {exc}\n"
    return f"numerical error: {type(exc).__name__}: {exc}\n"


@pytest.mark.parametrize("mechanism", ["impurity", "acoustic"])
@pytest.mark.parametrize("name", EXTREMES)
def test_library_and_cli_agree_far_outside_the_domain(tmp_path, name, mechanism):
    doc = extreme_doc(name, mechanism)
    code, err = run_cli(tmp_path, doc)
    assert code == EXTREMES[name][1][mechanism], err
    config = mv.parse_config(json.dumps(doc))
    result = library_outcome(lambda: mv.run_sweep(config))
    omega = config.sweep.minimum
    value = library_outcome(lambda: ABSORPTION[mechanism](
        config.valleys, config.material, omega, config.polarization))
    if code == 0:
        write_csv(result, str(tmp_path / "library.csv"))
        assert (tmp_path / "x.csv").read_bytes() == (tmp_path / "library.csv").read_bytes()
        assert value == pytest.approx(result.rows[0][2], rel=1e-12, abs=0)
    else:
        # both fail at the first frequency, on the absorption column
        assert err == cli_stderr(result)
        assert type(value) is type(result) and str(value) == str(result)


def test_vanishing_temperature_general_impurity_names_s():
    # kappa = sqrt(2 m_perp theta)/hbar underflows to 0, so every q is 0: the
    # integral is a division by zero at the first s, not a value of 0.0
    doc = extreme_doc("theta_K-1e-300", "impurity")
    config = mv.parse_config(json.dumps(doc))
    s = HBAR * config.sweep.minimum / config.valleys.valleys[0].theta
    message = f"spectral integral: divide by zero encountered in divide at s = {s:.6e}"
    with pytest.raises(QuadratureError, match=re.escape(message)):
        mv.run_sweep(config)
    with pytest.raises(QuadratureError, match=re.escape(message)):
        mv.emission_impurity(config.valleys, config.material, config.sweep.minimum,
                             config.polarization)


@pytest.mark.parametrize("b", [1e120, 1e200, math.inf])
def test_shape_factors_vanish_at_huge_b(b):
    # the tail series is exactly 0 there; the direct formulas it overwrites
    # would overflow in b^3
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        b1, b2 = _shape_b12(np.array([1.0, b]))
    assert b1[1] == 0.0 and b2[1] == 0.0 and b1[0] > 0.0 and b2[0] > 0.0


def docs_config():
    return mv.parse_config(json.dumps(ge4_doc()))


def test_hand_built_regime_string_selects_that_regime():
    # s = 0.25 at the first frequency: the classical window refuses it
    with pytest.raises(RegimeError, match="^classical impurity form needs"):
        mv.run_sweep(dataclasses.replace(docs_config(), regime="classical"))


def test_hand_built_mechanism_string_equals_member():
    by_string = dataclasses.replace(docs_config(), mechanism="acoustic")
    by_member = dataclasses.replace(docs_config(), mechanism=mv.Mechanism.ACOUSTIC)
    assert by_string.mechanism is mv.Mechanism.ACOUSTIC
    assert mv.run_sweep(by_string).rows == mv.run_sweep(by_member).rows


@pytest.mark.parametrize("key,value", [
    ("workers", 0), ("workers", "x"), ("workers", True), ("regime", "bogus"),
    ("observable", None),
])
def test_hand_built_run_is_refused_like_a_parsed_one(key, value):
    with pytest.raises(ConfigError) as parsed:
        mv.parse_config(json.dumps(ge4_doc(**{key: value})))
    with pytest.raises(ConfigError) as built:
        dataclasses.replace(docs_config(), **{key: value})
    assert str(built.value) == str(parsed.value)
