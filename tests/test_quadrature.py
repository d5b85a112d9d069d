import math
import subprocess
import sys

import numpy as np
import pytest

import multivalley as mv
from multivalley.errors import QuadratureError
from multivalley.oracles import integrate_unit_sphere
from multivalley.quadrature import (
    _GAUSS,
    _KRONROD,
    _NODES,
    DEFAULT_QUADRATURE,
    QuadratureSpec,
    integrate_spectral,
    integrate_spectral_with_error,
)


class TestSpectral:
    def test_gamma_one_at_s_zero(self):
        # g(x) = x cancels the 1/x weight at s = 0, leaving Gamma(1) = 1
        assert integrate_spectral(lambda x: x, 0.0) == pytest.approx(1.0, rel=1e-9)

    def test_unit_g_at_s_one(self):
        # frozen from two independent oracles (arbitrary-precision quadrature
        # and the identity with e^{s/2} K0(s/2))
        assert integrate_spectral(lambda x: 1.0, 1.0) == pytest.approx(
            1.5241093857739095, rel=1e-9
        )

    def test_large_s_limit(self):
        s = 4.0e4
        assert integrate_spectral(lambda x: 1.0, s) == pytest.approx(
            math.sqrt(math.pi / s), rel=1e-3
        )

    def test_linearity(self):
        # a tight spec and smooth integrands keep the check meaningful at
        # 1e-12 (the error estimate must stay below 1e-12 too)
        spec = QuadratureSpec(rel_tol=1e-13)
        rng = np.random.default_rng(21)
        for _ in range(5):
            a0, a1, a2 = rng.uniform(-2.0, 2.0, size=3)
            b0, b1, b2 = rng.uniform(-2.0, 2.0, size=3)
            g1 = lambda x: a0 + a1 * x + a2 * x * x
            g2 = lambda x: b0 + b1 * np.exp(-x) + b2 * x
            s = float(rng.uniform(0.2, 4.0))
            combined = integrate_spectral(lambda x: g1(x) + g2(x), s, spec)
            separate = integrate_spectral(g1, s, spec) + integrate_spectral(g2, s, spec)
            assert combined == pytest.approx(separate, rel=1e-12, abs=0)

    def test_error_estimate_within_tolerance(self):
        value, err = integrate_spectral_with_error(lambda x: 1.0 + x, 0.7)
        assert err <= DEFAULT_QUADRATURE.rel_tol * abs(value) * 10.0

    def test_negative_s_rejected(self):
        with pytest.raises(ValueError):
            integrate_spectral(lambda x: 1.0, -0.1)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=1e-2)
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=0.0)

    @pytest.mark.parametrize("g", [
        lambda x: np.where(x > 2.0, 1.0, 0.0),          # a jump inside a panel
        lambda x: 1.0 / (1e-6 + (x - 3.0) ** 2),        # a spike narrower than a panel
    ], ids=["jump", "spike"])
    def test_unresolved_integrand_raises(self, g):
        with pytest.raises(QuadratureError) as err:
            integrate_spectral(g, 0.5)
        assert err.value.estimate > 10.0 * DEFAULT_QUADRATURE.rel_tol

    def test_gauss_kronrod_rule(self):
        # the 7-point Gauss nodes are every second Kronrod node, and the two
        # rules integrate x^k exactly to degree 13 and 22
        gauss_nodes, gauss_weights = np.polynomial.legendre.leggauss(7)
        np.testing.assert_allclose(np.sort(_NODES[1::2]), gauss_nodes, rtol=0, atol=1e-15)
        np.testing.assert_allclose(_GAUSS[1::2], gauss_weights, rtol=0, atol=1e-15)
        assert not _GAUSS[0::2].any()
        for k in range(23):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert _KRONROD @ _NODES**k == pytest.approx(exact, abs=1e-15)
            if k <= 13:
                assert _GAUSS @ _NODES**k == pytest.approx(exact, abs=1e-15)


def _fresh_python(code: str, env: dict) -> str:
    """stdout of ``code`` run in a new interpreter."""
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    return result.stdout.strip()


class TestImportPath:
    def test_scipy_integrate_not_imported(self, checkout_env):
        # only the oracles need scipy.integrate; the runtime path must not load it
        code = "import sys, multivalley; print('scipy.integrate' in sys.modules)"
        assert _fresh_python(code, checkout_env) == "False"

    def test_scipy_not_imported(self, checkout_env):
        # scipy.special loads on the first Bessel call; the heavy modules it
        # pulls in must not load with the package or the CLI
        code = (
            "import sys, multivalley, multivalley.cli\n"
            "heavy = ('scipy', 'concurrent.futures', 'unittest', 'numpy.testing')\n"
            "print(sorted(m for m in sys.modules if m in heavy or m.startswith('scipy.')))"
        )
        assert _fresh_python(code, checkout_env) == "[]"

    def test_first_bessel_call_loads_scipy_special(self, checkout_env, ge_material,
                                                   single_valley, pol_skew):
        # the dataclass reprs rebuild the same objects, floats bit for bit
        args = (single_valley, ge_material, 3.0e13, pol_skew, "general")
        code = (
            "import sys\n"
            "from multivalley import Material, Polarization, Valley, ValleySet, absorption_acoustic\n"
            "before = 'scipy.special' in sys.modules\n"
            f"value = absorption_acoustic{args!r}\n"
            "print(before, 'scipy.special' in sys.modules, repr(value))"
        )
        expected = repr(mv.absorption_acoustic(*args))
        assert _fresh_python(code, checkout_env).split() == ["False", "True", expected]


class TestUnitSphere:
    def test_surface_area(self):
        assert integrate_unit_sphere(lambda n: 1.0) == pytest.approx(
            4.0 * math.pi, rel=1e-12
        )

    def test_cos_squared_moment(self):
        assert integrate_unit_sphere(lambda n: n[2] ** 2) == pytest.approx(
            4.0 * math.pi / 3.0, rel=1e-12
        )

    def test_projection_isotropy(self):
        a = np.array([0.4, -1.1, 2.3])
        result = integrate_unit_sphere(lambda n: float(np.dot(a, n)) ** 2)
        assert result == pytest.approx(
            4.0 * math.pi / 3.0 * float(np.dot(a, a)), rel=1e-10
        )

    def test_nonconvergent_integrand_raises(self):
        # near-delta spike: far too narrow for the largest node count
        def spike(n):
            return 1.0 / (1e-14 + (1.0 - n[2]) ** 2)

        with pytest.raises(QuadratureError):
            integrate_unit_sphere(spike, rel_tol=1e-12)
