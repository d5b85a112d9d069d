"""The sweep grid and the phi plane, computed in ``math``, against the numpy
calls they replace.  Needs numpy and pytest only.

A log grid's interior points are 10**e, and numpy's AVX-512 loops for
``log10`` and ``power`` round differently from the C library in the last
place; with those loops switched off, numpy's ``geomspace`` and the grid
agree bit for bit.  Likewise ``np.dot`` goes to the BLAS, whose kernel for
AVX-512 machines fuses the multiply-adds; its unfused kernel matches the
plain sums of products of the plane.
"""

import json
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from multivalley import Polarization, parse_config
from multivalley.config import _grid

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__


def grid(scale: str, lo: float, hi: float, points: int) -> list[float]:
    return _grid(scale, lo, hi, points)


def linear_cases(count: int, seed: int = 11):
    rng = random.Random(seed)
    for _ in range(count):
        lo = rng.uniform(-10.0, 10.0) * 10.0 ** rng.uniform(-20.0, 20.0)
        hi = lo + rng.uniform(0.0, 10.0) * 10.0 ** rng.uniform(-20.0, 20.0) + 1e-300
        yield lo, hi, rng.randint(2, 300)


def log_cases(count: int, seed: int = 12):
    rng = random.Random(seed)
    for _ in range(count):
        lo = 10.0 ** rng.uniform(-50.0, 80.0)
        yield lo, lo * 10.0 ** rng.uniform(1e-9, 20.0), rng.randint(2, 300)


@pytest.mark.parametrize("lo,hi,points", [
    (0.0, 5e-324, 7), (-5e-324, 5e-324, 4), (0.0, 2e-310, 1001),  # subnormal spans
    (1e-50, 1e100, 2), (0.0, math.pi, 37), (-1.0, 1.0, 3),
])
def test_linear_edges_match_linspace(lo, hi, points):
    assert grid("linear", lo, hi, points) == np.linspace(lo, hi, points).tolist()


def test_linear_grid_matches_linspace_bit_for_bit():
    for lo, hi, points in linear_cases(2000):
        assert grid("linear", lo, hi, points) == np.linspace(lo, hi, points).tolist()


@pytest.mark.parametrize("scale,lo,hi", [("linear", -1e308, 1e308),
                                         ("log", 1.79769313486e308, 1.7976931348623157e308)])
def test_grid_beyond_double_range_overflows(scale, lo, hi):
    # as numpy did under the CLI's floating-point traps: exit 4, not a nan grid
    with pytest.raises(OverflowError):
        grid(scale, lo, hi, 1000)


def test_log_grid_is_geomspace_within_rounding():
    for lo, hi, points in log_cases(500):
        values = grid("log", lo, hi, points)
        assert len(values) == points and values[0] == lo and values[-1] == hi
        assert all(a < b for a, b in zip(values, values[1:]))
        reference = np.geomspace(lo, hi, points)
        assert np.all(np.abs(np.array(values) - reference) <= 1e-13 * reference)


@pytest.mark.skipif(not __cpu_features__.get("AVX512F"), reason="numpy reports no AVX512F")
def test_log_grid_matches_geomspace_without_avx512(checkout_env):
    # the child numpy dispatches no AVX-512 loop
    disabled = [f for f in __cpu_dispatch__ if f.startswith("AVX512") or f == "X86_V4"]
    code = (
        "import numpy as np, test_grid\n"
        "bad = sum(test_grid.grid('log', lo, hi, n) != np.geomspace(lo, hi, n).tolist()\n"
        "          for lo, hi, n in test_grid.log_cases(500))\n"
        "print(bad)\n"
    )
    env = dict(checkout_env, NPY_DISABLE_CPU_FEATURES=" ".join(disabled),
               PYTHONPATH=os.pathsep.join([os.path.dirname(__file__), checkout_env["PYTHONPATH"]]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


def numpy_plane(v1, v2):
    """The plane as numpy orthonormalized it before: unit vectors, then the
    second made orthogonal to the first with np.dot and np.linalg.norm."""
    e1 = Polarization.from_vector(v1).q0
    e2_raw = np.asarray(Polarization.from_vector(v2).q0)
    e1_arr = np.asarray(e1)
    e2_arr = e2_raw - np.dot(e2_raw, e1_arr) * e1_arr
    return e1, tuple(float(v) for v in e2_arr / float(np.linalg.norm(e2_arr)))


def random_planes(count: int, seed: int = 13):
    rng = random.Random(seed)
    for _ in range(count):
        yield [[rng.gauss(0.0, 1.0) * 10.0 ** rng.uniform(-3.0, 3.0) for _ in range(3)]
               for _ in range(2)]


def plane(v1, v2):
    doc = {
        "material": {"m_perp": 0.19, "m_par": 0.92, "eps0": 11.7, "n_a": 1e16, "r_D": 3e-5,
                     "tau_perp0": 1e-12, "tau_par0": 1e-12},
        "valleys": {"preset": "Si6", "n": 1e16, "theta_K": 300.0},
        "polarization": [1, 0, 0],
        "sweep": {"kind": "phi", "min": 0.0, "max": 3.0, "points": 2, "omega": 1e13,
                  "plane": [v1, v2]},
    }
    return parse_config(json.dumps(doc)).sweep.plane


def test_plane_is_numpy_within_rounding():
    # any BLAS kernel: the products of np.dot may be fused or not, and the
    # rounding of the overlap grows as 1/sin of the angle between the vectors
    for v1, v2 in random_planes(2000):
        e1, e2 = plane(v1, v2)
        old1, old2 = numpy_plane(v1, v2)
        assert e1 == old1
        sine = float(np.linalg.norm(np.cross(e1, Polarization.from_vector(v2).q0)))
        assert max(abs(a - b) for a, b in zip(e2, old2)) <= 1e-15 / sine
        assert abs(math.hypot(*e2) - 1.0) <= 1e-15


def test_plane_matches_numpy_bit_for_bit_on_unfused_blas(checkout_env):
    # OpenBLAS's Haswell kernel sums the three products of np.dot in order,
    # unfused, whatever the CPU
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy < 1.25 reports no build dependencies
        blas = "unknown"
    if "openblas" not in blas:
        pytest.skip(f"numpy's BLAS is {blas}, not OpenBLAS")
    code = (
        "import test_grid\n"
        "print(sum(test_grid.plane(*v) != test_grid.numpy_plane(*v)\n"
        "          for v in test_grid.random_planes(2000)))\n"
    )
    env = dict(checkout_env, OPENBLAS_CORETYPE="Haswell",
               PYTHONPATH=os.pathsep.join([os.path.dirname(__file__), checkout_env["PYTHONPATH"]]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"
