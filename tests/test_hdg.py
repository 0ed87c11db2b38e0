import copy
import re

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from hdgbem import (
    AssemblyError,
    CoverageError,
    DimensionError,
    MaterialField,
    SolverError,
    TAG_INNER,
    UnfittedMesh,
    assemble_layer_operators,
    build_annulus_mesh,
    build_boundary_map,
    build_system,
    l2_errors,
    local_conservation_residual,
    proximity_parameter,
    solve_interior,
    write_coefficients_csv,
    write_vtk,
)
from hdgbem.basis import TriangleBasis, edge_legendre
from hdgbem.coupling import interface_map
from hdgbem.geometry import BoundaryMap
from hdgbem.export import _format_e, _join
from hdgbem.hdg import TAU, DGField, _Discretization, assemble_transfer
from hdgbem.harness import manufactured_case, setup_level
from hdgbem.quadrature import gauss01, triangle_rule
from reference import (
    edge_length,
    edge_vertices,
    hdg_projection,
    j_functional,
    solve_eliminated,
    solve_uncondensed,
    trace_identity_residual,
    write_coefficients_csv_printf,
    write_vtk_printf,
)


def _unit_right_triangle():
    return UnfittedMesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                        np.array([[0, 1, 2]]))


# ---------------------------------------------------------------------------
# local blocks
# ---------------------------------------------------------------------------

def test_k0_mass_block_is_area_times_identity():
    mesh = _unit_right_triangle()
    mass_kinv = _Discretization(mesh, MaterialField.identity(), 0).mass_kinv[0]
    assert np.allclose(mass_kinv, 0.5 * np.eye(2), atol=1e-15)


def test_mass_block_scales_inversely_with_kappa():
    mesh = _unit_right_triangle()
    m1 = _Discretization(mesh, MaterialField.identity(), 0).mass_kinv[0]
    m2 = _Discretization(mesh, MaterialField(2.0), 0).mass_kinv[0]
    assert np.allclose(m2, 0.5 * m1, atol=1e-15)


@pytest.mark.parametrize("kappa", [None, 2.5, [[2.0, 0.3], [0.3, 1.5]]])
def test_constant_kappa_inverse_is_broadcast(kappa):
    # one inverse of the constant, bitwise the per-point inverse
    material = MaterialField(kappa)
    pts = np.random.default_rng(3).uniform(-1.0, 1.0, size=(4, 5, 2))
    inv = material.inv(pts)
    assert inv.shape == (4, 5, 2, 2)
    assert np.array_equal(inv, np.linalg.inv(material.value(pts)))


def test_blocks_match_dense_quadrature_oracle():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(2, 2))
    kappa = A @ A.T + 2.0 * np.eye(2)
    mesh = _unit_right_triangle()
    k = 2
    mass_kinv = _Discretization(mesh, MaterialField(kappa), k).mass_kinv[0]
    # independent oracle: dense high-order rule, direct basis contraction
    basis = TriangleBasis(k)
    pts, w = triangle_rule(12)
    vals = basis.eval(pts)
    kinv = np.linalg.inv(kappa)
    d = basis.dim
    oracle = np.zeros((2 * d, 2 * d))
    for c1 in range(2):
        for c2 in range(2):
            oracle[c1 * d:(c1 + 1) * d, c2 * d:(c2 + 1) * d] = \
                kinv[c1, c2] * np.einsum("q,qa,qb->ab", w, vals, vals)
    assert np.abs(mass_kinv - oracle).max() < 1e-12


# ---------------------------------------------------------------------------
# reference-table blocks against a per-point quadrature oracle
# ---------------------------------------------------------------------------

def _distorted_mesh():
    """Jittered 4 x 4 grid with shuffled vertex numbers and rotated elements."""
    rng = np.random.default_rng(11)
    x, y = np.meshgrid(np.linspace(0.0, 1.0, 4), np.linspace(0.0, 1.0, 4), indexing="ij")
    pts = np.column_stack([x.ravel(), y.ravel()]) + rng.uniform(-0.08, 0.08, (16, 2))
    tris = []
    for i in range(3):
        for j in range(3):
            a, b, c, d = 4 * i + j, 4 * i + j + 4, 4 * i + j + 5, 4 * i + j + 1
            tris += [(a, b, c), (a, c, d)]
    perm = rng.permutation(16)
    tris = [np.roll(t, r) for t, r in zip(perm[np.array(tris)], rng.integers(0, 3, 18))]
    return UnfittedMesh(pts[np.argsort(perm)], np.array(tris))


def _kappa_field(p):
    off = 0.3 * np.sin(p[:, 0] + p[:, 1])
    return np.stack([np.stack([2.0 + p[:, 0] ** 2, off], -1),
                     np.stack([off, 1.0 + p[:, 1] ** 2], -1)], -2)


def _oracle_tables(mesh, material, k):
    """The blocks of _Discretization, quadrature point by point per element.

    Volume integrands use physical gradients; side integrands map the
    physical Gauss points of the global edge back through J^{-1}.
    """
    basis = TriangleBasis(k)
    d = basis.dim
    ref_pts, ref_w = triangle_rule(2 * k + 3)
    vals, grads = basis.eval_grad(ref_pts)
    xg, wg = gauss01(k + 2)
    mu = edge_legendre(k, 2.0 * xg - 1.0)
    out = {key: [] for key in ("mass_kinv", "div", "trace_vals", "side_normals",
                               "E_side", "F_side", "S_elem")}
    for tri, edges in zip(mesh.elements, mesh.element_edges):
        v = mesh.vertices[tri]
        J = np.column_stack([v[1] - v[0], v[2] - v[0]])
        invJ = np.linalg.inv(J)
        mass, div = np.zeros((2 * d, 2 * d)), np.zeros((d, 2 * d))
        for p, w, phi, dphi in zip(v[0] + ref_pts @ J.T, np.linalg.det(J) * ref_w,
                                   vals, grads):
            kinv = np.linalg.inv(material.value(p[None])[0])
            mass += w * np.kron(kinv, np.outer(phi, phi))
            div += w * np.outer(phi, (dphi @ invJ).T.ravel())
        sides = {key: [] for key in ("trace_vals", "side_normals", "E_side", "F_side")}
        S = np.zeros((d, d))
        for e in edges:
            p0, p1 = mesh.vertices[mesh.edges[e]]
            length = np.linalg.norm(p1 - p0)
            tv = basis.eval((p0 + xg[:, None] * (p1 - p0) - v[0]) @ invJ.T)
            nrm = np.array([p1[1] - p0[1], p0[0] - p1[0]]) / length
            if nrm @ (v.mean(axis=0) - 0.5 * (p0 + p1)) > 0:
                nrm = -nrm
            En = length * (wg[:, None] * tv).T @ mu
            sides["trace_vals"].append(tv)
            sides["side_normals"].append(nrm)
            sides["E_side"].append(np.concatenate([nrm[0] * En, nrm[1] * En]))
            sides["F_side"].append(TAU * En)
            S += TAU * length * (wg[:, None] * tv).T @ tv
        for key, val in sides.items():
            out[key].append(val)
        out["mass_kinv"].append(mass)
        out["div"].append(div)
        out["S_elem"].append(S)
    out = {key: np.array(val) for key, val in out.items()}
    length = np.linalg.norm(np.diff(mesh.vertices[mesh.edges], axis=1)[:, 0], axis=1)
    out["edge_mass"] = length[:, None, None] * ((wg[:, None] * mu).T @ mu)
    return out


def _assert_close(actual, expected, rel=1e-13):
    assert actual.shape == expected.shape
    assert np.abs(actual - expected).max() <= rel * np.abs(expected).max()


@pytest.mark.parametrize("kappa", [[[2.0, 0.6], [0.6, 0.5]], _kappa_field],
                         ids=["anisotropic", "callable"])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_reference_tables_match_pointwise_quadrature(k, kappa):
    mesh = _distorted_mesh()
    # every local side meets global edges of both orientations
    along = mesh.elements[:, [1, 2, 0]] == mesh.edges[mesh.element_edges, 0]
    assert np.all(along.any(axis=0)) and not np.any(along.all(axis=0))
    material = MaterialField(kappa)
    disc = _Discretization(mesh, material, k)
    for key, expected in _oracle_tables(mesh, material, k).items():
        _assert_close(getattr(mesh if key == "side_normals" else disc, key), expected)


def _reference_matrix(system):
    """Condensed trace matrix and load map from the oracle blocks, one element at a time."""
    mesh, ne, d = system.mesh, system.ne, system.disc.d
    blocks = _oracle_tables(mesh, system.material, system.k)
    dofs = np.arange(system.n_trace).reshape(mesh.n_edges, ne)
    # columns [trace | load]: element t's load moments sit at n_trace + t d ...
    A = np.zeros((system.n_trace, system.n_trace + len(mesh.elements) * d))
    recovery = []
    for t, edges in enumerate(mesh.element_edges):
        E, F = blocks["E_side"][t], blocks["F_side"][t]
        L = np.block([[blocks["mass_kinv"][t], -blocks["div"][t].T],
                      [blocks["div"][t], blocks["S_elem"][t]]])
        cols = np.concatenate([dofs[edges].ravel(), system.n_trace + t * d + np.arange(d)])
        # trace columns, then the load columns of L^-1
        rec = np.linalg.solve(L, np.hstack([np.vstack([-E[s], F[s]]) for s in range(3)]
                                           + [np.eye(3 * d)[:, 2 * d:]]))
        recovery.append((cols, rec))
        for s, e in enumerate(edges):
            if mesh.boundary_tags[e] < 0:
                A[np.ix_(dofs[e], cols)] += np.hstack([E[s].T, F[s].T]) @ rec
                A[np.ix_(dofs[e], dofs[e])] -= TAU * blocks["edge_mass"][e]
    for row, (e, t) in enumerate(zip(system.bmap.edge_ids, system.bmap.parents)):
        cols, rec = recovery[t]
        A[np.ix_(dofs[e], cols)] -= system.transfer[row].T @ rec[:2 * d]
        A[np.ix_(dofs[e], dofs[e])] += blocks["edge_mass"][e]
    return A[:, :system.n_trace], A[:, system.n_trace:]


@pytest.mark.parametrize("which", ["coarse_k2", "bump"])
def test_trace_matrix_matches_reference_assembly(which, request):
    if which == "bump":
        case = manufactured_case("variable-kappa-bump", degree=1)
        system = setup_level(case, 0.2, 1, n=8).system
    else:
        system = request.getfixturevalue(which)[2]
    matrix, load = _reference_matrix(system)
    _assert_close(system.matrix.toarray(), matrix)
    _assert_close(system.load.toarray(), load)


_LOCAL_KAPPAS = {
    "identity": lambda: MaterialField.identity(),
    "anisotropic": lambda: MaterialField([[2.0, 0.5], [0.5, 1.0]]),
    "bump": lambda: manufactured_case("variable-kappa-bump", degree=1).kappa,
    "matrix-field": lambda: MaterialField(_kappa_field),
}


@pytest.mark.parametrize("kind, k", [
    pytest.param("identity", 1, id="coarse_k1"),
    pytest.param("identity", 2, id="coarse_k2"),
    pytest.param("identity", 3, id="identity_k3"),
    pytest.param("bump", 1, id="bump"),
    *(pytest.param(kind, k, id=f"{kind}_k{k}")
      for kind in ("bump", "anisotropic", "matrix-field") for k in (1, 2, 3)
      if (kind, k) != ("bump", 1)),
])
def test_local_solves_match_inverse_of_local_blocks(kind, k, coarse_k1):
    # local = [L^-1 R | the load columns of L^-1], per element
    disc = _Discretization(coarse_k1[0], _LOCAL_KAPPAS[kind](), k)
    M, d, ne = len(disc.mesh.elements), disc.d, disc.ne
    if k == 3:
        # a cubic bubble has no trace, so S alone is singular and the Schur
        # complement H = S + D A^-1 D^T is definite only through D
        eig = np.linalg.eigvalsh(disc.S_elem)
        assert np.all(eig[:, 0] < 1e-12 * eig[:, -1])
    L = np.block([[disc.mass_kinv, -np.swapaxes(disc.div, 1, 2)],
                  [disc.div, disc.S_elem]])
    R = np.concatenate([-disc.E_side, disc.F_side], axis=2)
    R = np.swapaxes(R, 1, 2).reshape(M, 3 * d, 3 * ne)
    inv = np.linalg.inv(L)
    assert disc.local.shape == (M, 3 * d, 3 * ne + d)
    for got, expect in ((disc.local[:, :, :3 * ne], inv @ R),
                        (disc.local[:, :, 3 * ne:], inv[:, :, 2 * d:])):
        assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("kind", ["identity", "anisotropic", "bump"])
def test_mass_solve_is_the_inverse_of_the_mass_block(kind, k, coarse_k1):
    # constant kappa: the closed form (kappa (x) Mhat^-1) / detJ; callable: a solve
    disc = _Discretization(coarse_k1[0], _LOCAL_KAPPAS[kind](), k)
    M, d = len(disc.mesh.elements), disc.d
    # the mass itself is built only where a solve reads it
    assert ("mass_kinv" in vars(disc)) == (kind == "bump")
    got = disc.solve_mass(np.broadcast_to(np.eye(2 * d), (M, 2 * d, 2 * d)))
    expect = np.linalg.inv(disc.mass_kinv)
    assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


# ---------------------------------------------------------------------------
# transfer couplings
# ---------------------------------------------------------------------------

def _synthetic_boundary_map(mesh, edge_id, d, t_dir, k):
    """Fabricated straight-path degree-k map for the given boundary edge."""
    from hdgbem.quadrature import edge_rule
    xg = edge_rule(k)[0]
    nq = len(xg)
    p = edge_vertices(mesh, edge_id)
    nodes = p[0] + xg[:, None] * (p[1] - p[0])
    t_dir = np.asarray(t_dir, dtype=float)
    return BoundaryMap(
        edge_ids=np.array([edge_id]),
        tags=np.array([0], dtype=np.int8),
        parents=np.array([mesh.edge_elements[edge_id, 0]]),
        nu=t_dir[None, :].copy(),
        nodes=nodes[None, :, :],
        mapped=(nodes + d * t_dir)[None, :, :],
        l=np.full((1, nq), d),
        t=np.tile(t_dir, (1, nq, 1)),
        params=np.zeros((1, nq)),
        endpoint_params=np.zeros((1, 2)),
    )


def test_transfer_constant_flux_straight_path():
    # edge of length L, straight paths of length d, kappa = I, q = (1, 0),
    # t = (1, 0): the path moment of q against mu_0 = 1 is L * d
    mesh = UnfittedMesh(np.array([[0.9, -0.025], [0.9, 0.025], [0.85, 0.0]]),
                        np.array([[0, 1, 2]]))
    edge = next(e for e in mesh.boundary_edge_ids
                if abs(edge_vertices(mesh, e).mean(axis=0)[0] - 0.9) < 1e-12)
    length = edge_length(mesh, edge)
    d = 0.07
    for k in (0, 1, 2):
        disc = _Discretization(mesh, MaterialField.identity(), k)
        bmap = _synthetic_boundary_map(mesh, edge, d, (1.0, 0.0), k)
        moments = assemble_transfer(disc, bmap)
        assert moments.shape == (1, 2 * disc.d, disc.ne)
        qcoeff = np.zeros(2 * disc.d)
        qcoeff[0] = 1.0      # first basis function is 1, so q = (1, 0)
        val = qcoeff @ moments[0, :, 0]
        assert val == pytest.approx(length * d, rel=1e-13)
        # doubling the path length doubles the coupling
        bmap2 = _synthetic_boundary_map(mesh, edge, 2 * d, (1.0, 0.0), k)
        moments2 = assemble_transfer(disc, bmap2)
        assert qcoeff @ moments2[0, :, 0] == pytest.approx(2 * val, rel=1e-13)


def test_transfer_vanishes_on_fitted_edges(fitted_k1):
    # on the inner ring; the outer edges carry their sagitta-long paths
    mesh, bmap, system = fitted_k1
    assert system.transfer.shape == (len(bmap.edge_ids), 2 * system.disc.d, system.ne)
    inner = bmap.tags == TAG_INNER
    assert np.all(system.transfer[inner] == 0.0)
    assert np.all(np.abs(system.transfer[~inner]).max(axis=(1, 2)) > 0.0)


# ---------------------------------------------------------------------------
# system assembly and solves
# ---------------------------------------------------------------------------

def test_fitted_matrix_equals_transfer_free_assembly(circles):
    # with zero transfer paths every inner boundary row is the edge mass
    # block on the edge's own trace dofs and zero elsewhere; an outer row
    # adds its path's coupling to the trace dofs of its parent element
    gamma, gamma0 = circles
    mesh = build_annulus_mesh(gamma, gamma0, 0.25, fitted=True)
    bmap = build_boundary_map(mesh, gamma, gamma0, k=1)
    system = build_system(bmap, MaterialField.identity())
    ne = system.ne
    A = system.matrix.tocsr()
    for e, tag, parent in zip(bmap.edge_ids, bmap.tags, bmap.parents):
        rows = A[e * ne:(e + 1) * ne].toarray()
        expected = np.zeros_like(rows)
        expected[:, e * ne:(e + 1) * ne] = system.disc.edge_mass[e]
        if tag == TAG_INNER:
            assert np.array_equal(rows, expected)
        else:
            cols = np.nonzero(np.any(rows != expected, axis=0))[0]
            assert len(cols) > 0
            assert set(cols // ne) <= set(mesh.element_edges[parent])


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_system_takes_the_degree_of_its_map(circles, k):
    # the map is the one owner of k: its k + 2 nodes per edge and the
    # system's k + 1 trace coefficients per edge follow from it
    gamma, gamma0 = circles
    mesh = build_annulus_mesh(gamma, gamma0, 0.3)
    bmap = build_boundary_map(mesh, gamma, gamma0, k)
    system = build_system(bmap, MaterialField.identity())
    assert bmap.k == system.k == system.disc.k == k
    assert bmap.nodes.shape[1] == k + 2
    assert system.n_trace == mesh.n_edges * (k + 1)


def test_fractional_degree_system_is_refused(coarse_k1, circles):
    # the map refuses the degree, so no system of it can be built
    for k, what in ((1.5, "a whole number, got 1.5"), (-1, "at least 0, got -1")):
        with pytest.raises(DimensionError, match=f"degree must be {what}"):
            build_boundary_map(coarse_k1[0], *circles, k=k)


def test_two_element_mesh_trace_dimension():
    mesh = UnfittedMesh(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
                        np.array([[0, 1, 2], [0, 2, 3]]))
    disc = _Discretization(mesh, MaterialField.identity(), 0)
    assert mesh.n_edges == 5
    assert mesh.n_edges * disc.ne == 5   # one trace unknown per retained edge


def test_condensation_matches_uncondensed_solve(coarse_k1):
    mesh, bmap, system = coarse_k1
    u_ex = lambda p: p[:, 0] / (p[:, 0] ** 2 + p[:, 1] ** 2)
    fld = solve_interior(system, f=None, g_gamma=u_ex, u0_gamma0=u_ex)
    ref = solve_uncondensed(system, f=None, g_gamma=u_ex, u0_gamma0=u_ex)
    scale = max(np.abs(ref.Q).max(), np.abs(ref.U).max())
    assert np.abs(fld.Q - ref.Q).max() <= 1e-10 * scale
    assert np.abs(fld.U - ref.U).max() <= 1e-10 * scale
    assert np.abs(fld.Uhat - ref.Uhat).max() <= 1e-10 * scale


def test_condensation_matches_eliminated_two_field_form(coarse_k2):
    mesh, bmap, system = coarse_k2
    u_ex = lambda p: p[:, 0] ** 2
    fld = solve_interior(system, f=-2.0, g_gamma=u_ex, u0_gamma0=u_ex)
    Q, U = solve_eliminated(system, f=-2.0, g_gamma=u_ex, u0_gamma0=u_ex)
    assert np.abs(Q - fld.Q).max() < 1e-10
    assert np.abs(U - fld.U).max() < 1e-10


def test_zero_data_gives_zero_solution(coarse_k1):
    _, _, system = coarse_k1
    fld = solve_interior(system)
    assert np.abs(fld.Q).max() == 0.0
    assert np.abs(fld.U).max() == 0.0


def test_failed_trace_solve_reports_condition_estimate(circles, monkeypatch):
    # a factorization of the wrong matrix trips the residual guard; the
    # diagnostic must come from the LU factors, not from a dense inverse
    gamma, gamma0 = circles
    mesh = build_annulus_mesh(gamma, gamma0, 0.3)
    bmap = build_boundary_map(mesh, gamma, gamma0, k=1)
    system = build_system(bmap, MaterialField.identity())
    system._lu = spla.splu((1.5 * system.matrix).tocsc())

    def dense_inverse(*args, **kwargs):
        raise MemoryError("dense inverse of the trace matrix")
    monkeypatch.setattr(spla, "inv", dense_inverse)
    with pytest.raises(SolverError, match="condition estimate") as err:
        system.solve_trace(np.ones(system.n_trace))
    cond = float(re.search(r"condition estimate ([^)]+)\)", str(err.value)).group(1))
    assert np.isfinite(cond) and cond >= 1.0


def test_trace_solve_refuses_a_non_finite_rhs(coarse_k1):
    # the residual is |A x - rhs| / max(|rhs|, 1); a NaN in the right-hand
    # side makes x NaN, which is refused, not returned
    system = coarse_k1[2]
    rhs = np.random.default_rng(3).normal(size=system.n_trace)
    x, rel = system.solve_trace(rhs)
    assert rel == np.linalg.norm(system.matrix @ x - rhs) / np.linalg.norm(rhs)
    rhs[5] = np.nan
    with pytest.raises(SolverError, match="trace solve residual nan"):
        system.solve_trace(rhs)


@pytest.mark.parametrize("which", ["coarse_k1", "fitted_k1", "bump", "ellipse"])
def test_trace_matrix_pattern_is_symmetric(which, request, circles):
    # the symmetric-mode ordering (minimum degree on A^T + A) assumes it
    if which == "bump":
        case = manufactured_case("variable-kappa-bump", degree=1)
        system = setup_level(case, 0.2, 1, n=8).system
    elif which == "ellipse":
        gamma = request.getfixturevalue("ellipse")
        mesh = build_annulus_mesh(gamma, circles[1], 0.15)
        bmap = build_boundary_map(mesh, gamma, circles[1], k=2)
        system = build_system(bmap, MaterialField.identity())
    else:
        system = request.getfixturevalue(which)[2]
    pattern, transpose = system.matrix.tocsr(), system.matrix.T.tocsr()
    pattern.sort_indices()
    transpose.sort_indices()
    assert np.array_equal(pattern.indptr, transpose.indptr)
    assert np.array_equal(pattern.indices, transpose.indices)


def test_trace_factor_keeps_diagonal_pivots_and_fills_less(coarse_k1):
    system = coarse_k1[2]
    lu = system.lu
    assert np.array_equal(lu.perm_r, lu.perm_c)
    unsymmetric = spla.splu(system.matrix, permc_spec="MMD_ATA")
    assert lu.L.nnz + lu.U.nnz < unsymmetric.L.nnz + unsymmetric.U.nnz


def test_zero_diagonal_entry_is_pivoted_around(coarse_k1):
    # threshold 0 still pivots off the diagonal at an exactly zero pivot,
    # and the solve passes its residual guard
    system = copy.copy(coarse_k1[2])
    matrix = system.matrix.tolil()
    matrix[1, 1] = 0.0
    system.matrix, system._lu = matrix.tocsc(), None
    _, rel = system.solve_trace(np.ones(system.n_trace))
    assert np.any(system.lu.perm_r != system.lu.perm_c)
    assert rel < 1e-12


def test_patch_test_linear_fitted(fitted_k1):
    mesh, bmap, system = fitted_k1
    u_ex = lambda p: p[:, 0]
    q_ex = lambda p: np.tile([-1.0, 0.0], (len(p), 1))
    fld = solve_interior(system, g_gamma=u_ex, u0_gamma0=u_ex)
    eq, eu = l2_errors(fld, system, u_ex, q_ex)
    assert eq < 1e-10 and eu < 1e-10


def test_patch_test_quadratic_unfitted(coarse_k2):
    mesh, bmap, system = coarse_k2
    u_ex = lambda p: p[:, 0] ** 2
    q_ex = lambda p: np.column_stack([-2.0 * p[:, 0], np.zeros(len(p))])
    fld = solve_interior(system, f=-2.0, g_gamma=u_ex, u0_gamma0=u_ex)
    eq, eu = l2_errors(fld, system, u_ex, q_ex)
    assert eq < 1e-8 and eu < 1e-8


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("fitted", [False, True])
def test_patch_exactness_random_polynomial(circles, k, fitted):
    # consistent pair: u random in P_k, q = -kappa grad u, f = div q
    gamma, gamma0 = circles
    rng = np.random.default_rng(3 * k + fitted)
    kappa = 1.7
    coef = rng.normal(size=(k + 1, k + 1))

    def u_ex(p):
        p = np.atleast_2d(p)
        out = np.zeros(len(p))
        for i in range(k + 1):
            for j in range(k + 1 - i):
                out += coef[i, j] * p[:, 0] ** i * p[:, 1] ** j
        return out

    def grad(p):
        p = np.atleast_2d(p)
        gx = np.zeros(len(p))
        gy = np.zeros(len(p))
        for i in range(k + 1):
            for j in range(k + 1 - i):
                if i:
                    gx += coef[i, j] * i * p[:, 0] ** (i - 1) * p[:, 1] ** j
                if j:
                    gy += coef[i, j] * j * p[:, 0] ** i * p[:, 1] ** (j - 1)
        return np.column_stack([gx, gy])

    def q_ex(p):
        return -kappa * grad(p)

    def f_ex(p):
        p = np.atleast_2d(p)
        lap = np.zeros(len(p))
        for i in range(k + 1):
            for j in range(k + 1 - i):
                if i >= 2:
                    lap += coef[i, j] * i * (i - 1) * p[:, 0] ** (i - 2) * p[:, 1] ** j
                if j >= 2:
                    lap += coef[i, j] * j * (j - 1) * p[:, 0] ** i * p[:, 1] ** (j - 2)
        return -kappa * lap

    mesh = build_annulus_mesh(gamma, gamma0, 0.25, fitted=fitted)
    bmap = build_boundary_map(mesh, gamma, gamma0, k)
    system = build_system(bmap, MaterialField(kappa))
    fld = solve_interior(system, f=f_ex, g_gamma=u_ex, u0_gamma0=u_ex)
    eq, eu = l2_errors(fld, system, u_ex, q_ex)
    assert eq < 1e-9 and eu < 1e-9


# ---------------------------------------------------------------------------
# conservation, trace identity, stability
# ---------------------------------------------------------------------------

def test_local_conservation_and_trace_identity(coarse_k1):
    _, _, system = coarse_k1
    u_ex = lambda p: p[:, 0] / (p[:, 0] ** 2 + p[:, 1] ** 2)
    fld = solve_interior(system, f=None, g_gamma=u_ex, u0_gamma0=u_ex)
    res = local_conservation_residual(fld, system, f=None)
    assert np.abs(res).max() <= 1e-10
    assert trace_identity_residual(fld, system) <= 1e-10


def test_stability_bounded_under_refinement(circles):
    gamma, gamma0 = circles
    u_ex = lambda p: p[:, 0] / (p[:, 0] ** 2 + p[:, 1] ** 2)
    vals = []
    for h in (0.2, 0.1, 0.05):
        mesh = build_annulus_mesh(gamma, gamma0, h)
        bmap = build_boundary_map(mesh, gamma, gamma0, k=1)
        system = build_system(bmap, MaterialField.identity())
        fld = solve_interior(system, f=None, g_gamma=u_ex, u0_gamma0=u_ex)
        mass = np.sqrt(np.sum(system.disc.phys_w
                              * np.einsum("qa,ma->mq", system.disc.vol_vals,
                                          fld.U) ** 2))
        vals.append(j_functional(fld, system) + mass)
    assert max(vals) / min(vals) < 1.5


# ---------------------------------------------------------------------------
# interface flux of the covering parents
# ---------------------------------------------------------------------------

def _interface_flux(system, gamma, u_ex=None, n=16):
    """Interface map flux at its 2n nodes for the interior solve with data u_ex."""
    imap = interface_map(system, assemble_layer_operators(gamma, n))
    rhs = system.rhs(system.disc.f_moments(None), g_gamma=u_ex, u0_gamma0=u_ex)
    uhat, _ = system.solve_trace(rhs)
    return imap.flux(uhat), imap.ops.nodes


def test_extrapolated_flux_of_constant_field(coarse_k1, circles):
    # u = x on the unfitted mesh: q = (-1, 0), n = (cos s, sin s)
    mesh, bmap, system = coarse_k1
    flux, s = _interface_flux(system, circles[0], lambda p: p[:, 0])
    assert np.abs(flux + np.cos(s)).max() < 1e-10


def test_extrapolated_flux_zero_field(coarse_k1, circles):
    mesh, bmap, system = coarse_k1
    flux, _ = _interface_flux(system, circles[0])
    assert np.all(flux == 0.0)


def test_extrapolated_flux_linear_patch(fitted_k1, circles):
    mesh, bmap, system = fitted_k1
    flux, s = _interface_flux(system, circles[0], lambda p: p[:, 0])
    # q = (-1, 0), n = (cos s, sin s) on the circle
    assert np.abs(flux + np.cos(s)).max() < 1e-10


@pytest.mark.parametrize("bundle", ["coarse_k1", "fitted_k1"])
def test_interface_datum_path_is_exact_on_a_linear_patch(bundle, circles, request):
    # u = x through the coupled data path: g = cos s as interface modes read
    # at the mapped curve points, u0 = x on the inner ring; a fitted mesh
    # once read the modes a sagitta from the nodes they applied at (9.0e-3)
    system = request.getfixturevalue(bundle)[2]
    imap = interface_map(system, assemble_layer_operators(circles[0], 16), None,
                         lambda p: p[:, 0])
    c = np.zeros(32)
    c[1] = 1.0
    flux, _ = imap.apply(c)
    assert np.abs(flux + np.cos(imap.ops.nodes)).max() < 1e-10


def test_system_and_proximity_read_the_mesh_of_their_map(circles):
    gamma, gamma0 = circles
    mesh = build_annulus_mesh(gamma, gamma0, 0.3)
    bmap = build_boundary_map(mesh, gamma, gamma0, 1)
    assert (bmap.mesh, bmap.gamma, bmap.gamma0) == (mesh, gamma, gamma0)
    system = build_system(bmap, MaterialField.identity())
    assert system.mesh is system.disc.mesh is mesh
    assert proximity_parameter(bmap).R_h == np.max(bmap.l.max(axis=1) / mesh.h_T[bmap.parents])


def test_uncovered_point_raises(coarse_k1):
    mesh, bmap, system = coarse_k1
    loc = copy.copy(bmap)               # the fixture's table stays intact
    loc.widths = loc.widths * 0.0       # artificially shrink coverage
    with pytest.raises(CoverageError):
        loc.locate(np.array([0.1]))


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("diagnostic", [
    lambda field, system, case: l2_errors(field, system, case.u, case.q),
    lambda field, system, case: local_conservation_residual(field, system)],
    ids=["l2_errors", "local_conservation_residual"])
def test_field_from_another_mesh_is_refused(coarse_k1, fitted_k1, diagnostic):
    # the fitted and unfitted h = 0.2 meshes have the same connectivity, so
    # the fitted field's arrays fit the unfitted system and gave wrong errors
    case = manufactured_case("dipole")
    field = solve_interior(fitted_k1[2], g_gamma=case.u, u0_gamma0=case.u0)
    diagnostic(field, fitted_k1[2], case)
    with pytest.raises(DimensionError, match="another mesh than the system"):
        diagnostic(field, coarse_k1[2], case)


def test_j_functional_zero_perimeter_homogeneity(coarse_k1):
    mesh, bmap, system = coarse_k1
    fld = solve_interior(system)
    assert j_functional(fld, system) == 0.0
    # the fields are changed in place: the unit field, then -3 times a solve
    fld.U[:, 0] = 1.0
    fld.Uhat[:, 0] = 1.0
    perim = sum(edge_length(mesh, e) for e in mesh.boundary_edge_ids)
    assert j_functional(fld, system) == pytest.approx(np.sqrt(perim), rel=1e-12)
    u_ex = lambda p: p[:, 0] / (p[:, 0] ** 2 + p[:, 1] ** 2)
    fld = solve_interior(system, g_gamma=u_ex, u0_gamma0=u_ex)
    j1 = j_functional(fld, system)
    fld.Q *= -3.0
    fld.U *= -3.0
    fld.Uhat *= -3.0
    assert j_functional(fld, system) == pytest.approx(3.0 * j1, rel=1e-12)


# ---------------------------------------------------------------------------
# projection oracle
# ---------------------------------------------------------------------------

VERTS = np.array([[0.1, 0.2], [0.9, 0.15], [0.4, 0.8]])


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_projection_reproduces_polynomial_pairs(k):
    rng = np.random.default_rng(k)
    cu = rng.normal(size=(k + 1, k + 1))
    cqx = rng.normal(size=(k + 1, k + 1))
    cqy = rng.normal(size=(k + 1, k + 1))

    def poly(c, p):
        p = np.atleast_2d(p)
        out = np.zeros(len(p))
        for i in range(k + 1):
            for j in range(k + 1 - i):
                out += c[i, j] * p[:, 0] ** i * p[:, 1] ** j
        return out

    q_fun = lambda p: np.column_stack([poly(cqx, p), poly(cqy, p)])
    u_fun = lambda p: poly(cu, p)
    Qx, Qy, U = hdg_projection(q_fun, u_fun, VERTS, k)
    basis = TriangleBasis(k)
    rp = np.array([[0.25, 0.3], [0.5, 0.12], [0.2, 0.61], [0.33, 0.33]])
    J = np.column_stack([VERTS[1] - VERTS[0], VERTS[2] - VERTS[0]])
    pp = VERTS[0] + rp @ J.T
    vals = basis.eval(rp)
    assert np.abs(vals @ Qx - q_fun(pp)[:, 0]).max() < 1e-12
    assert np.abs(vals @ Qy - q_fun(pp)[:, 1]).max() < 1e-12
    assert np.abs(vals @ U - u_fun(pp)).max() < 1e-12


@pytest.mark.parametrize("k", [1, 2])
def test_projection_order_on_nested_elements(k):
    q_fun = lambda p: np.column_stack([np.sin(p[:, 0] + 2 * p[:, 1]),
                                       np.cos(2 * p[:, 0] - p[:, 1])])
    u_fun = lambda p: np.exp(p[:, 0]) * np.sin(p[:, 1])
    basis = TriangleBasis(k)
    dense = np.array([[x, y] for x in np.linspace(0, 1, 15)
                      for y in np.linspace(0, 1 - x, 15) if y <= 1 - x])
    errs = []
    for lvl in range(4):
        s = 0.5 ** lvl
        verts = np.array([[0.0, 0.0], [s, 0.0], [0.0, s]])
        Qx, Qy, U = hdg_projection(q_fun, u_fun, verts, k)
        pp = verts[0] + dense @ np.column_stack([verts[1] - verts[0],
                                                 verts[2] - verts[0]]).T
        vals = basis.eval(dense)
        err = max(np.abs(vals @ Qx - q_fun(pp)[:, 0]).max(),
                  np.abs(vals @ U - u_fun(pp)).max())
        errs.append(err)
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert rates[-1] > k + 0.7


def test_projection_divergence_free_flux_keeps_zero_scalar():
    # u = 0 and div q = 0 with polynomial q: the scalar projection stays 0
    q_fun = lambda p: np.column_stack([np.atleast_2d(p)[:, 1] ** 2,
                                       np.atleast_2d(p)[:, 0] ** 2])
    u_fun = lambda p: np.zeros(len(np.atleast_2d(p)))
    Qx, Qy, U = hdg_projection(q_fun, u_fun, VERTS, 2)
    assert np.abs(U).max() < 1e-12


# ---------------------------------------------------------------------------
# coefficient classes and exports
# ---------------------------------------------------------------------------

def test_material_field_validation():
    with pytest.raises(AssemblyError):
        MaterialField(np.array([[1.0, 2.0], [0.0, 1.0]]))   # not symmetric
    with pytest.raises(AssemblyError):
        MaterialField(np.array([[1.0, 3.0], [3.0, 1.0]]))   # indefinite
    for kappa in (np.nan, np.inf, [[np.inf, 0.0], [0.0, 1.0]]):
        with pytest.raises(AssemblyError, match="finite"):
            MaterialField(kappa)
    given = np.array([[2.0, 0.5], [0.5, 1.0]])
    mat = MaterialField(given)
    pts = np.zeros((4, 2))
    assert np.allclose(mat.inv(pts) @ mat.value(pts), np.eye(2))
    # the constant is a read-only copy; a callable has none
    given[0, 0] = 5.0
    assert mat.constant[0, 0] == 2.0 and not mat.constant.flags.writeable
    assert MaterialField(lambda p: np.ones(len(p))).constant is None


@pytest.mark.parametrize("bad", [
    pytest.param(-1.0, id="negative"),
    pytest.param(0.0, id="zero"),
    pytest.param(np.nan, id="nan"),
    pytest.param([[np.inf, 0.0], [0.0, 1.0]], id="inf"),
    pytest.param([[1.0, 0.5], [0.0, 1.0]], id="not-symmetric"),
    pytest.param([[1.0, 2.0], [2.0, 1.0]], id="indefinite"),
])
def test_callable_kappa_refuses_a_bad_value(bad, coarse_k1):
    # the value at x > 0.5 is bad; the error names the first such point
    bad = np.asarray(bad, dtype=float)
    if bad.ndim == 0:
        material = MaterialField(lambda p: np.where(p[:, 0] > 0.5, bad, 1.0))
    else:
        material = MaterialField(
            lambda p: np.where((p[:, 0] > 0.5)[:, None, None], bad, np.eye(2)))
    pts = np.array([[0.0, 0.0], [0.75, 0.25], [0.9, 0.2]])
    for read in (material.value, material.inv):
        with pytest.raises(AssemblyError, match=r"positive definite; it is not at "
                                                r"point \(0\.75, 0\.25\)"):
            read(pts)
    with pytest.raises(AssemblyError, match="finite, symmetric and positive definite"):
        _Discretization(coarse_k1[0], material, 1)


def test_field_exports(tmp_path, coarse_k1):
    _, _, system = coarse_k1
    u_ex = lambda p: p[:, 0]
    fld = solve_interior(system, g_gamma=u_ex, u0_gamma0=u_ex)
    vtk = tmp_path / "field.vtk"
    csv = tmp_path / "coeff.csv"
    write_vtk(fld, vtk)
    write_coefficients_csv(fld, csv)
    head = vtk.read_text().splitlines()
    assert head[0] == "# vtk DataFile Version 3.0"
    assert any(line.startswith("DATASET UNSTRUCTURED_GRID") for line in head[:6])
    rows = csv.read_text().splitlines()
    assert rows[0].startswith("element,qx_0")
    assert len(rows) == 1 + len(fld.mesh.elements)


def test_export_contents_match_the_field(tmp_path, coarse_k2):
    # point data is the field on the reference lattice of each element; the
    # coefficient table holds Q and U digit for digit
    _, _, system = coarse_k2
    fld = solve_interior(system, f=lambda p: p[:, 0] * p[:, 1],
                         g_gamma=lambda p: p[:, 0] ** 2, u0_gamma0=lambda p: p[:, 1])
    vtk, csv = tmp_path / "field.vtk", tmp_path / "coeff.csv"
    write_vtk(fld, vtk)
    write_coefficients_csv(fld, csv)
    head, data = vtk.read_text().split("POINT_DATA ", 1)
    u_txt, q_txt = data.split("LOOKUP_TABLE default\n", 1)[1].split("VECTORS q double\n")
    u = np.array(u_txt.split(), dtype=float)
    q = np.array(q_txt.split(), dtype=float).reshape(-1, 3)
    lattice = np.array([(i / 2, j / 2) for i in range(3) for j in range(3 - i)])
    vals = TriangleBasis(2).eval(lattice)
    u_ref = (fld.U @ vals.T).ravel()
    q_ref = np.einsum("mcd,nd->mnc", fld.Q, vals).reshape(-1, 2)
    scale = max(np.abs(u_ref).max(), np.abs(q_ref).max())
    assert int(data.split("\n", 1)[0]) == len(u) == len(u_ref) == len(q)
    assert np.abs(u - u_ref).max() <= 1e-12 * scale
    assert np.abs(q[:, :2] - q_ref).max() <= 1e-12 * scale
    assert np.all(q[:, 2] == 0.0)
    pts = np.array(head.split("double\n", 1)[1].split("CELLS")[0].split(),
                   dtype=float).reshape(-1, 3)[:, :2]
    v = fld.mesh.vertices[fld.mesh.elements]
    pts_ref = v[:, None, 0] + np.einsum("nj,mjc->mnc", lattice, v[:, 1:] - v[:, :1])
    assert np.abs(pts - pts_ref.reshape(-1, 2)).max() <= 1e-14
    table = np.loadtxt(csv, delimiter=",", skiprows=1)
    d = fld.U.shape[1]
    assert np.array_equal(table[:, 0], np.arange(len(fld.mesh.elements)))
    assert np.array_equal(table[:, 1:1 + d], fld.Q[:, 0])
    assert np.array_equal(table[:, 1 + d:1 + 2 * d], fld.Q[:, 1])
    assert np.array_equal(table[:, 1 + 2 * d:], fld.U)


@pytest.mark.parametrize("P", [16, 17])
def test_format_e_matches_printf(P):
    # the array formatter writes '%.{P}e' % x byte for byte, on every family
    # where digit generation goes wrong first: exact rounding ties, carries
    # into the next decade, the ends of the double range and non-finite x
    rng = np.random.default_rng(27)
    n = 8000
    decades = 10.0 ** np.arange(-300, 301)
    bits = rng.integers(0, 2 ** 64, n, dtype=np.uint64).view(np.float64)
    x = np.concatenate([
        rng.standard_normal(n),
        rng.standard_normal(n) * 1e-12,
        np.where(rng.random(n) < 0.5, -1.0, 1.0) * 10.0 ** rng.uniform(-300, 300, n),
        bits[np.isfinite(bits)],
        # odd M/16: exact ties of the last printed digit at P = 16 and 17
        (2 * rng.integers(8 * 10 ** 13, 8 * 10 ** 14, n) + 1) / 16.0,
        (2 * rng.integers(8 * 10 ** 14, 8 * 10 ** 15, n) + 1) / 16.0,
        (2 * rng.integers(1, 2 ** 52, n) + 1) * 2.0 ** rng.integers(-60, 60, n),
        decades, np.nextafter(decades, 0.0), np.nextafter(decades, np.inf),
        9.999999999999999 * decades, 9.9999999999999999 * decades,
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e-280, 1e280,
         1.7976931348623157e308, 1e22, 1e23, np.nan, np.inf, -np.inf]])
    expect = "".join(f"%.{P}e\n" % v for v in x.tolist()).encode()
    assert _join(_format_e(x, P), b"\n") == expect
    assert _format_e(np.empty((0, 2)), P).shape == (0, 2, P + 8)


def test_exports_match_printf_writers(tmp_path, coarse_k1, coarse_k2):
    # the array writers and per-value % formatting write the same bytes, on
    # solved fields and on one with planted zeros, a subnormal, a huge
    # value and a NaN, which the formatter hands to % one by one
    fields = [solve_interior(system, f=lambda p: p[:, 0] * p[:, 1],
                             g_gamma=lambda p: p[:, 0] ** 2, u0_gamma0=lambda p: p[:, 1])
              for _, _, system in (coarse_k1, coarse_k2)]
    fld = fields[-1]
    Q, U = fld.Q.copy(), fld.U.copy()
    planted = [0.0, -0.0, 1e-310, 1e300, np.nan]
    U[0, :5] = Q[1, 0, :5] = Q[2, 1, :5] = planted
    fields.append(DGField(fld.mesh, fld.k, Q, U, fld.Uhat))
    for i, fld in enumerate(fields):
        for write, oracle in ((write_vtk, write_vtk_printf),
                              (write_coefficients_csv, write_coefficients_csv_printf)):
            got, expect = tmp_path / f"{i}_got", tmp_path / f"{i}_expect"
            write(fld, got)
            oracle(fld, expect)
            assert got.read_bytes() == expect.read_bytes(), (i, write.__name__)
