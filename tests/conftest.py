import numpy as np
import pytest

from hdgbem import (
    Curve,
    MaterialField,
    assemble_layer_operators,
    build_annulus_mesh,
    build_boundary_map,
    build_system,
)


@pytest.fixture(scope="session")
def circles():
    return Curve.circle((0.0, 0.0), 1.0), Curve.circle((0.0, 0.0), 0.5)


@pytest.fixture(scope="session")
def smooth_unit_circle():
    return Curve.from_parametrization(
        lambda s: np.stack([np.cos(s), np.sin(s)], axis=-1),
        lambda s: np.stack([-np.sin(s), np.cos(s)], axis=-1),
        lambda s: np.stack([-np.cos(s), -np.sin(s)], axis=-1))


@pytest.fixture(scope="session")
def ellipse():
    a, b = 1.1, 0.85
    return Curve.from_parametrization(
        lambda s: np.stack([a * np.cos(s), b * np.sin(s)], axis=-1),
        lambda s: np.stack([-a * np.sin(s), b * np.cos(s)], axis=-1),
        lambda s: np.stack([-a * np.cos(s), -b * np.sin(s)], axis=-1))


def _bundle(circles, h, k, fitted=False):
    gamma, gamma0 = circles
    mesh = build_annulus_mesh(gamma, gamma0, h, fitted=fitted)
    bmap = build_boundary_map(mesh, gamma, gamma0, k)
    system = build_system(mesh, bmap, MaterialField.identity(), 1.0, k)
    return mesh, bmap, system


@pytest.fixture(scope="session")
def coarse_k1(circles):
    """Unfitted annulus at h = 0.2, degree 1."""
    return _bundle(circles, 0.2, 1)


@pytest.fixture(scope="session")
def coarse_k2(circles):
    return _bundle(circles, 0.2, 2)


@pytest.fixture(scope="session")
def fitted_k1(circles):
    return _bundle(circles, 0.2, 1, fitted=True)


@pytest.fixture(scope="session")
def ops32(circles):
    return assemble_layer_operators(circles[0], 32)
