"""Non-circular and non-concentric geometries.

The acceptance cases live on concentric circles; these tests drive the
closest-point transfer map, the edge interval table and the quadrature
route of the layer operators on harder geometry.
"""

import numpy as np
import pytest

from hdgbem import (
    TAG_OUTER,
    Curve,
    MaterialField,
    SolverError,
    TrigPolynomial,
    assemble_layer_operators,
    build_annulus_mesh,
    build_boundary_map,
    build_system,
    l2_errors,
    proximity_parameter,
    solve_exterior,
    solve_interior,
)
from hdgbem.bem import _coeff_to_samples
from conftest import ellipse_curve


def test_non_concentric_annulus_patch_test():
    gamma = Curve.circle((0.0, 0.0), 1.0)
    gamma0 = Curve.circle((0.15, -0.1), 0.4)
    mesh = build_annulus_mesh(gamma, gamma0, 0.15)
    bmap = build_boundary_map(mesh, gamma, gamma0, k=1)
    system = build_system(bmap, MaterialField.identity())
    u_ex = lambda p: p[:, 0] - 0.5 * p[:, 1]
    q_ex = lambda p: np.tile([-1.0, 0.5], (len(p), 1))
    fld = solve_interior(system, g_gamma=u_ex, u0_gamma0=u_ex)
    eq, eu = l2_errors(fld, system, u_ex, q_ex)
    assert eq < 1e-9 and eu < 1e-9
    assert proximity_parameter(bmap).R_h < 0.3


def test_ellipse_annulus_patch_test_and_partition(ellipse):
    gamma0 = Curve.circle((0.15, -0.1), 0.4)
    mesh = build_annulus_mesh(ellipse, gamma0, 0.15)
    bmap = build_boundary_map(mesh, ellipse, gamma0, k=2)
    system = build_system(bmap, MaterialField.identity())
    u_ex = lambda p: p[:, 0] ** 2 - p[:, 1] ** 2     # harmonic quadratic
    q_ex = lambda p: np.column_stack([-2.0 * p[:, 0], 2.0 * p[:, 1]])
    fld = solve_interior(system, g_gamma=u_ex, u0_gamma0=u_ex)
    eq, eu = l2_errors(fld, system, u_ex, q_ex)
    assert eq < 1e-9 and eu < 1e-9


@pytest.mark.parametrize("geometry", ["coarse_k1", "ellipse"])
def test_locate_maps_to_a_covering_parent(geometry, request):
    # the interval ends, 0 and just below 2pi each go to the parent of an
    # outer edge whose parameter interval, the shorter arc between its
    # mapped endpoints, contains them
    if geometry == "coarse_k1":
        mesh, bmap, _ = request.getfixturevalue("coarse_k1")
    else:
        gamma, gamma0 = request.getfixturevalue("ellipse"), Curve.circle((0.15, -0.1), 0.4)
        mesh = build_annulus_mesh(gamma, gamma0, 0.15)
        bmap = build_boundary_map(mesh, gamma, gamma0, k=2)
    outer = np.nonzero(bmap.tags == TAG_OUTER)[0]
    s0, s1 = bmap.endpoint_params[outer].T
    d = np.mod(s1 - s0, 2 * np.pi)
    lo = np.where(d <= np.pi, s0, s1)
    hi = lo + np.minimum(d, 2 * np.pi - d)
    s = np.concatenate([[0.0, 2 * np.pi - 1e-12], lo, hi])
    tol = 1e-12
    offset = np.mod(s[:, None] - lo[None, :] + tol, 2 * np.pi) - tol
    contains = (offset >= -tol) & (offset <= (hi - lo)[None, :] + tol)
    assert np.all(contains.any(axis=1))
    for parent, covering in zip(bmap.locate(s), contains):
        assert parent in bmap.parents[outer[covering]]


def test_ellipse_interface_solve_self_convergence(ellipse):
    # quadrature-route oracle: doubling the density degree must not move a
    # spectrally converged solution
    lam_fun = lambda t: np.cos(t) + 0.4 * np.sin(2 * t)
    sols = []
    for n in (24, 48):
        ops = assemble_layer_operators(ellipse, n)
        lam = ops.project(lam_fun(ops.nodes))
        sols.append(solve_exterior(ops, lam))
    t = np.linspace(0.0, 2 * np.pi, 500)
    assert np.abs(sols[0].eval(t) - sols[1].eval(t)).max() < 1e-12
    assert abs(ops.moments @ sols[1].coefficients()) < 1e-12


def test_exterior_solve_refuses_arclength_mean():
    # on an ellipse a density with zero constant coefficient still has an
    # arclength mean; the solve refuses it and accepts its projection
    ops = assemble_layer_operators(ellipse_curve(1.3, 0.9), 16)
    samples = np.cos(2 * ops.nodes) + 0.3 * np.sin(ops.nodes)
    coeff_mean_free = TrigPolynomial.from_samples(samples)
    coeff_mean_free.cos[0] = 0.0
    assert abs(ops.moments @ coeff_mean_free.coefficients()) > 0.1
    with pytest.raises(SolverError, match="mean-zero"):
        solve_exterior(ops, coeff_mean_free)
    lam = ops.project(samples)
    assert abs(ops.moments @ lam.coefficients()) < 1e-14
    both = solve_exterior(ops, lam + ops.project(np.sin(3 * ops.nodes)))
    assert np.all(np.isfinite(both.coefficients()))


def test_single_layer_self_adjoint_in_arclength_pairing(ellipse):
    # the parameter-measure pairing is only symmetric for constant speed;
    # the arclength-weighted pairing is the invariant that generalizes
    n = 24
    ops = assemble_layer_operators(ellipse, n)
    t = np.linspace(0.0, 2 * np.pi, 16 * n, endpoint=False)
    basis = _coeff_to_samples(n, t)
    w = ellipse.speed(t) * (2 * np.pi / len(t))
    gram_w = basis.T @ (w[:, None] * basis)
    M = gram_w @ ops.V
    assert np.abs(M - M.T).max() < 1e-12
