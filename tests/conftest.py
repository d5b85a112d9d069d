import importlib.util
import os
import tokenize

import numpy as np
import pytest

import multivalley as mv
from multivalley.quadrature import _CHUNK_NODES, DEFAULT_QUADRATURE, _integrate

# The test-only dependencies, by the name a test module's code uses for them:
# scipy, the brute-force oracles of multivalley.oracles (which import scipy)
# and mpmath.  The runtime itself needs numpy alone.
TEST_ONLY = {"scipy": "scipy", "oracles": "scipy", "mpmath": "mpmath"}
LEFT_OUT = pytest.StashKey[list]()


def _installed(package: str) -> bool:
    try:
        return importlib.util.find_spec(package) is not None
    except (ImportError, ValueError):  # blocked by an import hook or in sys.modules
        return False


def pytest_ignore_collect(collection_path, config):
    """Leave out a test module whose code (not its strings or comments) names
    a test-only dependency that is not installed, so that on the minimal
    install (numpy and pytest) the suite is every module that can run there."""
    if collection_path.suffix != ".py" or not collection_path.name.startswith("test_"):
        return None
    with tokenize.open(collection_path) as source:
        names = {token.string for token in tokenize.generate_tokens(source.readline)
                 if token.type == tokenize.NAME}
    missing = sorted({TEST_ONLY[name] for name in names & TEST_ONLY.keys()
                      if not _installed(TEST_ONLY[name])})
    if not missing:
        return None
    config.stash.setdefault(LEFT_OUT, []).append(
        f"{collection_path.name} (needs {', '.join(missing)})")
    return True


def pytest_terminal_summary(terminalreporter, config):
    if config.stash.get(LEFT_OUT, []):
        terminalreporter.write_line("not collected, a test-only dependency is not installed: "
                                    + "; ".join(config.stash[LEFT_OUT]))


@pytest.fixture
def checkout_env():
    """Environment for a child interpreter that imports this checkout's multivalley."""
    src = os.path.dirname(os.path.dirname(mv.__file__))
    paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src] + paths))


@pytest.fixture
def ge_material():
    # Ge-like valleys; explicit r_D keeps x_min ~ 5e-5 at 300 K so every
    # closed-form regime in the suite is reachable.
    return mv.Material.from_units(
        m_perp_me=0.082,
        m_par_me=1.59,
        eps0=16.0,
        n_a=1.0e16,
        tau_perp0=1.2e-12,
        tau_par0=9.0e-13,
        r_D=3.0e-5,
    )


@pytest.fixture
def theta_300():
    return mv.theta_from_kelvin(300.0)


@pytest.fixture
def valley_z(theta_300):
    return mv.Valley(axis=(0.0, 0.0, 1.0), n=1.0e16, theta=theta_300)


@pytest.fixture
def single_valley(valley_z):
    return mv.ValleySet((valley_z,))


@pytest.fixture
def pol_skew():
    return mv.Polarization.from_vector([0.3, -0.5, 0.9])


@pytest.fixture
def chunk():
    """s values per quadrature pass when every row has the widest panel
    layout (s = 0)."""
    shapes = []
    _integrate(lambda x, s: shapes.append(x.shape) or x[None], np.array([0.0]),
               DEFAULT_QUADRATURE.rel_tol)
    return _CHUNK_NODES // (shapes[0][1] * shapes[0][2])
