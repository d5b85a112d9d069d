import os

import numpy as np
import pytest

import multivalley as mv
from multivalley.quadrature import _CHUNK_NODES, DEFAULT_QUADRATURE, _integrate


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
