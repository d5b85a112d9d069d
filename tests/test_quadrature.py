import math
import subprocess
import sys

import numpy as np
import pytest

import multivalley as mv
from multivalley import quadrature
from multivalley.errors import QuadratureError
from multivalley.oracles import integrate_unit_sphere
from multivalley.quadrature import (
    _GAUSS,
    _KRONROD,
    _NODES,
    _WEIGHTS,
    DEFAULT_QUADRATURE,
    QuadratureSpec,
    _integrate,
    integrate_spectral_with_error,
)


class TestSpectral:
    def test_gamma_one_at_s_zero(self):
        # g(x) = x cancels the 1/x weight at s = 0, leaving Gamma(1) = 1
        value = integrate_spectral_with_error(lambda x: x, 0.0)[0]
        assert value == pytest.approx(1.0, rel=1e-9)

    def test_unit_g_at_s_one(self):
        # frozen from two independent oracles (arbitrary-precision quadrature
        # and the identity with e^{s/2} K0(s/2))
        assert integrate_spectral_with_error(lambda x: 1.0, 1.0)[0] == pytest.approx(
            1.5241093857739095, rel=1e-9
        )

    def test_large_s_limit(self):
        s = 4.0e4
        assert integrate_spectral_with_error(lambda x: 1.0, s)[0] == pytest.approx(
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
            combined = integrate_spectral_with_error(lambda x: g1(x) + g2(x), s, spec)[0]
            separate = (integrate_spectral_with_error(g1, s, spec)[0]
                        + integrate_spectral_with_error(g2, s, spec)[0])
            assert combined == pytest.approx(separate, rel=1e-12, abs=0)

    def test_error_estimate_within_tolerance(self):
        value, err = integrate_spectral_with_error(lambda x: 1.0 + x, 0.7)
        assert err <= DEFAULT_QUADRATURE.rel_tol * abs(value) * 10.0

    def test_negative_s_rejected(self):
        with pytest.raises(ValueError):
            integrate_spectral_with_error(lambda x: 1.0, -0.1)

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
            integrate_spectral_with_error(g, 0.5)
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


def reference_integrate(g, s, rel_tol=DEFAULT_QUADRATURE.rel_tol):
    """The rule one s at a time, with the error estimate summed panel by
    panel in Python: the reference for the batched core.  The panel layout is
    read from the module (the grading floor, the geometric ratio and the tail
    edges), so a change of layout is judged by the sums, not by a copy of it."""
    t0 = 0.25 * min(max(math.sqrt(s), quadrature._ROOT_S_MIN), 1.0)
    n_geometric = math.ceil(math.log(1.0 / t0) / math.log(quadrature._GEOMETRIC_RATIO))
    ratio = (1.0 / t0) ** (1.0 / n_geometric)
    edges = np.array([0.0] + [t0 * ratio**k for k in range(n_geometric)]
                     + [1.0] + quadrature._tail_edges(rel_tol).tolist())
    width = edges[1:] - edges[:-1]
    t = (edges[:-1] + 0.5 * width)[:, None] + (0.5 * width)[:, None] * _NODES
    x = t * t
    f = np.exp(-x) * g(x, s) / np.sqrt(x + s)
    kronrod, k_minus_g = (f @ _WEIGHTS).T
    value = float(width @ kronrod)
    asc = width * (np.abs(f - 0.5 * kronrod[:, None]) @ _KRONROD)
    diff = width * np.abs(k_minus_g)
    abserr = 0.0
    for a, d in zip(asc.tolist(), diff.tolist()):
        abserr += a * min(1.0, (200.0 * d / a) ** 1.5) if a > 0.0 else d
    return value, abserr


# Integrands of x and s (s broadcasts against x), all bounded and smooth.
INTEGRANDS = (
    lambda x, s: 1.0 + 0.0 * x,
    lambda x, s: x / (1.0 + x + s),
    lambda x, s: np.cos(x / (1.0 + s)) + 2.0,
)


def batched(s):
    """_integrate over the INTEGRANDS at every s of ``s``."""
    return _integrate(lambda x, s: np.array([g(x, s) for g in INTEGRANDS]),
                      np.asarray(s, dtype=float), DEFAULT_QUADRATURE.rel_tol)


# Grid lengths around the pass size: (passes, offset) -> passes * chunk + offset.
CHUNK_LENGTHS = [(0, 1), (0, 2), (1, -1), (1, 0), (1, 1), (0, 200)]


class TestBatchedCore:
    # s from 1e-9 to 1e5 spans every layout: graded towards sqrt(s) below 1,
    # fixed from 1 up
    @pytest.mark.parametrize("passes, offset", CHUNK_LENGTHS)
    def test_matches_reference_loop(self, chunk, passes, offset):
        s = np.geomspace(1e-9, 1e5, passes * chunk + offset)
        values, errors = batched(s)
        for i, g in enumerate(INTEGRANDS):
            for j, s_j in enumerate(s.tolist()):
                value, abserr = reference_integrate(g, s_j)
                assert values[i, j] == pytest.approx(value, rel=2e-15, abs=0)
                # estimates near the rounding floor differ by rounding of the value
                assert errors[i, j] == pytest.approx(abserr, rel=1e-9, abs=1e-16 * abs(value))

    def test_rows_are_independent_of_the_batch(self):
        # a row's values do not depend on the s it shares a pass with
        s = np.geomspace(1e-9, 1e5, 200)
        values, _ = batched(s)
        for j in (0, 57, 199):
            np.testing.assert_allclose(values[:, j], batched(s[j:j + 1])[0][:, 0],
                                       rtol=2e-15, atol=0)

    def test_first_failing_s_in_order_wins(self, chunk):
        # a jump inside a panel fails the rule; it is switched on for s > 1
        # only.  s = 0 rows have the widest layout, so the first failing s
        # sits in the second pass, and two later ones in the second and third.
        s = np.zeros(3 * chunk)
        s[chunk + 2], s[chunk + 3], s[2 * chunk + 1] = 3.0, 2.0, 7.0

        def g(x, s):
            return np.array([x * np.exp(-x), np.where((s > 1.0) & (x > 2.0), 1.0, 0.0)])

        with pytest.raises(QuadratureError, match=r"at s = 3\.000000e\+00") as err:
            _integrate(g, s, DEFAULT_QUADRATURE.rel_tol)
        _, expected = reference_integrate(lambda x, s: np.where(x > 2.0, 1.0, 0.0), 3.0)
        assert err.value.estimate == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("order, named", [
        ((0.0, 3.0, 5.0), r"error estimate .* at s = 3\.000000e\+00"),
        ((0.0, 5.0, 3.0), r"^spectral integral: overflow encountered in multiply at s = 5\.0+e"),
    ])
    def test_trap_names_the_first_failing_s(self, order, named):
        # one pass holds s = 3, which misses the tolerance, and s = 5, whose
        # integrand overflows: whichever comes first in order is named, and a
        # trap is a QuadratureError naming its event
        def g(x, s):
            return np.array([x * np.exp(-x), np.where((s > 1.0) & (x > 2.0), 1.0, 0.0),
                             x * np.where(s > 4.0, 1e308, 1.0) * 10.0])

        with pytest.raises(QuadratureError, match=named):
            _integrate(g, np.array(order), DEFAULT_QUADRATURE.rel_tol)

    def test_trap_in_one_element_call(self):
        with pytest.raises(QuadratureError, match=r"^spectral integral: overflow .* at s = 1\.0"):
            integrate_spectral_with_error(lambda x: (x + 1.0) * 1e308 * 10.0, 1.0)
        assert np.geterr()["over"] == "warn"  # the trap ends with the call


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
        # scipy is a test dependency only, and numpy loads with the general
        # regime's first call; neither they nor the other heavy modules may
        # load with the package or the CLI
        code = (
            "import sys, multivalley, multivalley.cli\n"
            "heavy = ('numpy', 'scipy', 'concurrent.futures', 'unittest', 'numpy.testing')\n"
            "print(sorted(m for m in sys.modules if m in heavy or m.startswith('scipy.')))"
        )
        assert _fresh_python(code, checkout_env) == "[]"

    def test_acoustic_general_loads_no_scipy(self, checkout_env, ge_material,
                                            single_valley, pol_skew):
        # the acoustic kernel is its own trapezoid rule, not scipy's Bessel
        # functions; the dataclass reprs rebuild the same objects, floats bit for bit
        args = (single_valley, ge_material, 3.0e13, pol_skew, "general")
        code = (
            "import sys\n"
            "from multivalley import (Material, Polarization, Valley, ValleySet,\n"
            "                         absorption_acoustic, emission_acoustic)\n"
            f"k = absorption_acoustic{args!r}\n"
            f"w = emission_acoustic{args!r}.dW_dOmega\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), repr(k), repr(w))"
        )
        expected = [repr(mv.absorption_acoustic(*args)),
                    repr(mv.emission_acoustic(*args).dW_dOmega)]
        assert _fresh_python(code, checkout_env).split() == ["[]", *expected]


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
