"""Shared fixtures: the 64-node grid and the tuned gaussian wells.

Tuning bisections are cheap but not free; session scope keeps the tuned
couplings and classifications shared across test modules.
"""

import numpy as np
import pytest

from fourthorder.birman_schwinger import classify, make_potential, resonance_tune
from fourthorder.partial_waves import build_grid
from fourthorder.propagator import CorrectionCache, Geometry

GEOMETRIES = (
    Geometry(1.5, 2.5, 0.3),
    Geometry(0.7, 3.1, -0.5),
    Geometry(2.2, 1.1, 0.9),
)


def attractive_gaussian(coupling):
    return make_potential("gaussian", -coupling)


@pytest.fixture(scope="session")
def grid64():
    return build_grid(64, r_max=9.0)


@pytest.fixture(scope="session")
def geometries():
    return GEOMETRIES


@pytest.fixture(scope="session")
def subcritical_potential():
    return attractive_gaussian(2.0)


@pytest.fixture(scope="session")
def resonance_potential(grid64):
    tuned = resonance_tune(attractive_gaussian, 0, grid64, (3.0, 6.0))
    return attractive_gaussian(tuned.coupling)


@pytest.fixture(scope="session")
def eigenvalue_potential(grid64):
    tuned = resonance_tune(attractive_gaussian, 1, grid64, (35.0, 55.0))
    return attractive_gaussian(tuned.coupling)


@pytest.fixture(scope="session")
def resonance_classification(resonance_potential, grid64):
    return classify(resonance_potential, grid64)


@pytest.fixture(scope="session")
def eigenvalue_classification(eigenvalue_potential, grid64):
    return classify(eigenvalue_potential, grid64)


@pytest.fixture(scope="session")
def subcritical_classification(subcritical_potential, grid64):
    return classify(subcritical_potential, grid64)


@pytest.fixture(scope="session")
def resonance_cache(resonance_potential, grid64, resonance_classification):
    return CorrectionCache(resonance_potential, grid64, resonance_classification, GEOMETRIES)


@pytest.fixture(scope="session")
def eigenvalue_cache(eigenvalue_potential, grid64, eigenvalue_classification):
    return CorrectionCache(eigenvalue_potential, grid64, eigenvalue_classification, GEOMETRIES)


@pytest.fixture(scope="session")
def subcritical_cache(subcritical_potential, grid64, subcritical_classification):
    return CorrectionCache(subcritical_potential, grid64, subcritical_classification, GEOMETRIES)


@pytest.fixture(scope="session")
def resonance_data(resonance_cache):
    return resonance_cache.threshold_data


@pytest.fixture(scope="session")
def eigenvalue_data(eigenvalue_cache):
    return eigenvalue_cache.threshold_data
