"""Reference code that checks the library by a different route.

The reference solves each assemble a sparse system that the library never
forms and solve it with a direct sparse solver: the uncondensed HDG saddle
system, the two-field form with the trace eliminated, and the bordered
coupled system (trace, interface trace and far-field unknowns at once)
that the monolithic oracle reduces to the interface unknowns.  Beside them
are the tools of the HDG analysis (Cockburn, Gopalakrishnan & Sayas, Math.
Comp. 79, 2010) that only the tests evaluate: the elementwise HDG
projection, the energy functional and the trace identity; and pointwise
diagnostics: the PDE residual of a manufactured case, an element's flux
at given points, and edge geometry; and the export writers by CPython's
per-value ``%`` formatting, which the library's array formatter must
match byte for byte.  All are slow and exist only to pin the library's
answers in the tests.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hdgbem import AssemblyError, TrigPolynomial
from hdgbem.basis import TriangleBasis, edge_legendre
from hdgbem.coupling import interface_map
from hdgbem.export import _reference_lattice
from hdgbem.hdg import DGField, _side_traces
from hdgbem.quadrature import gauss01, triangle_rule


def bordered_monolithic_solve(system, ops, f=None, u0=None):
    """Coupled solve over the trace, g and u_inf unknowns by one sparse LU.

    The interior trace system, the interface equation g = T flux with
    T = -``ops.exterior`` ``ops.P`` (the exterior trace of the projected
    Neumann density -flux), and zero total flux, bordered into one sparse
    matrix.  Returns (field, g, lam, u_inf), like ``monolithic_solve``.
    """
    n_trace, n2 = system.n_trace, 2 * ops.n
    imap = interface_map(system, ops, f, u0)
    T = -ops.exterior @ ops.P
    A = sp.bmat([
        [system.matrix, -imap.B, -imap.B[:, :1]],
        [-sp.csr_matrix(T) @ imap.Z, sp.identity(n2), None],
        [sp.csr_matrix(ops.arc_w[None, :]) @ imap.Z, None, None],
    ], format="csc")
    rhs = np.concatenate([imap.rhs0, T @ imap.z_f, [-(ops.arc_w @ imap.z_f)]])
    x = spla.spsolve(A, rhs)
    uhat = x[:n_trace]
    g = TrigPolynomial(x[n_trace:n_trace + n2])
    field = system.recover(uhat, imap.f_mom)
    return field, g, ops.project(-imap.flux(uhat)), float(x[-1])


def assemble_uncondensed(system, f=None, g_gamma=None, u0_gamma0=None):
    """Full saddle system in (q, u, uhat) without condensation."""
    mesh, disc = system.mesh, system.disc
    d, ne = disc.d, disc.ne
    M = len(mesh.elements)
    nq, nu = 2 * d * M, d * M
    ntr = mesh.n_edges * ne
    N = nq + nu + ntr
    A = sp.lil_matrix((N, N))
    b = np.zeros(N)
    f_mom = disc.f_moments(f)
    data = system.boundary_data_vector(g_gamma, u0_gamma0)
    for t in range(M):
        sq = slice(t * 2 * d, (t + 1) * 2 * d)
        su = slice(nq + t * d, nq + (t + 1) * d)
        A[sq, sq] = disc.mass_kinv[t]
        A[sq, su] = -disc.div[t].T
        A[su, sq] = disc.div[t]
        A[su, su] = disc.S_elem[t]
        b[su] = f_mom[t]
        for s_loc in range(3):
            e = mesh.element_edges[t, s_loc]
            st = slice(nq + nu + e * ne, nq + nu + (e + 1) * ne)
            A[sq, st] = disc.E_side[t, s_loc]
            A[su, st] += -disc.F_side[t, s_loc]
            if mesh.boundary_tags[e] < 0:
                A[st, sq] += disc.E_side[t, s_loc].T
                A[st, su] += disc.F_side[t, s_loc].T
                A[st, st] += -disc.tau[e] * disc.edge_mass[e]
    for row, e in enumerate(system.bmap.edge_ids):
        t = int(system.bmap.parents[row])
        st = slice(nq + nu + e * ne, nq + nu + (e + 1) * ne)
        sq = slice(t * 2 * d, (t + 1) * 2 * d)
        A[st, st] = disc.edge_mass[e]
        A[st, sq] = -system.transfer[row].T
        b[nq + nu + e * ne:nq + nu + (e + 1) * ne] = data[e * ne:(e + 1) * ne]
    return A.tocsc(), b


def solve_uncondensed(system, f=None, g_gamma=None, u0_gamma0=None):
    A, b = assemble_uncondensed(system, f, g_gamma, u0_gamma0)
    x = spla.spsolve(A, b)
    mesh, disc = system.mesh, system.disc
    d, ne = disc.d, disc.ne
    M = len(mesh.elements)
    Q = x[:2 * d * M].reshape(M, 2, d)
    U = x[2 * d * M:3 * d * M].reshape(M, d)
    Uhat = x[3 * d * M:].reshape(mesh.n_edges, ne)
    return DGField(mesh, system.k, Q, U, Uhat)


def assemble_eliminated(system, f=None, g_gamma=None, u0_gamma0=None):
    """Two-field realization with explicit jump/average forms.

    Eliminating the trace from the hybridized equations yields forms in
    (q, u) only: the kappa^{-1} mass plus an interior jump penalty, the
    divergence form with an average coupling, a semi-definite scalar form,
    and the two transfer couplings.  Used as an algebraic oracle for the
    condensed path.
    """
    mesh, disc = system.mesh, system.disc
    d = disc.d
    M = len(mesh.elements)
    nq, nu = 2 * d * M, d * M
    Aq = sp.lil_matrix((nq, nq))
    Bm = sp.lil_matrix((nu, nq))
    Bt = sp.lil_matrix((nu, nq))
    Cm = sp.lil_matrix((nu, nu))
    F1 = np.zeros(nq)
    F2 = np.zeros(nu)
    f_mom = disc.f_moments(f)
    u_trace_mats = np.einsum("msq,msqa,msqb->msab",
                             disc.edge_w[mesh.element_edges],
                             disc.trace_vals, disc.trace_vals)
    for t in range(M):
        sq = slice(t * 2 * d, (t + 1) * 2 * d)
        su = slice(t * d, (t + 1) * d)
        Aq[sq, sq] += disc.mass_kinv[t]
        Bm[su, sq] += -disc.div[t]
        F2[t * d:(t + 1) * d] += -f_mom[t]
        for s_loc in range(3):
            e = mesh.element_edges[t, s_loc]
            Cm[su, su] += disc.tau[e] * u_trace_mats[t, s_loc]
    for e in mesh.interior_edge_ids:
        (t1, t2), sides = mesh.edge_elements[e], mesh.edge_sides[e]
        w = disc.edge_w[e]
        tau_e = disc.tau[e]
        vn, tr, slq, slu = [], [], [], []
        for t, s_loc in zip((t1, t2), sides):
            trv = disc.trace_vals[t, s_loc]
            nrm = mesh.side_normals[t, s_loc]
            vn.append(np.concatenate([nrm[0] * trv, nrm[1] * trv], axis=1))
            tr.append(trv)
            slq.append(slice(t * 2 * d, (t + 1) * 2 * d))
            slu.append(slice(t * d, (t + 1) * d))
        for a in range(2):
            for c in range(2):
                pen = 0.5 / tau_e * np.einsum("q,qi,qj->ij", w, vn[a], vn[c])
                Aq[slq[a], slq[c]] += pen
                avg = 0.5 * np.einsum("q,qi,qj->ij", w, tr[a], vn[c])
                Bm[slu[a], slq[c]] += avg
                Cm[slu[a], slu[c]] += -2.0 * tau_e * 0.25 * np.einsum(
                    "q,qi,qj->ij", w, tr[a], tr[c])
    data = system.boundary_data_vector(g_gamma, u0_gamma0)  # reuse moments
    bm = system.bmap
    for row, e in enumerate(bm.edge_ids):
        t = int(bm.parents[row])
        sq = slice(t * 2 * d, (t + 1) * 2 * d)
        su = slice(t * d, (t + 1) * d)
        tr = disc.trace_vals[t, mesh.edge_sides[e, 0]]
        nrm = bm.nu[row]
        vnb = np.concatenate([nrm[0] * tr, nrm[1] * tr], axis=1)
        # the edge rule reproduces degree-k traces from their Legendre
        # coefficients, so the path integrals and the data integrals tested
        # against v . nu and w are contractions with those coefficients
        coef = np.linalg.solve(disc.edge_mass[e], (disc.edge_w[e][:, None] * disc.mu_vals).T
                               @ np.hstack([vnb, tr]))              # (ne, 3d)
        pm_t = system.transfer[row].T
        Aq[sq, sq] += coef[:, :2 * d].T @ pm_t
        Bt[su, sq] += disc.tau[e] * coef[:, 2 * d:].T @ pm_t
        data_e = data[e * disc.ne:(e + 1) * disc.ne]
        F1[sq] -= data_e @ coef[:, :2 * d]
        F2[su] -= disc.tau[e] * data_e @ coef[:, 2 * d:]
    big = sp.bmat([[Aq.tocsc(), Bm.tocsc().T],
                   [(Bm + Bt).tocsc(), -Cm.tocsc()]]).tocsc()
    rhs = np.concatenate([F1, F2])
    return big, rhs


def solve_eliminated(system, f=None, g_gamma=None, u0_gamma0=None):
    A, b = assemble_eliminated(system, f, g_gamma, u0_gamma0)
    x = spla.spsolve(A, b)
    d = system.disc.d
    M = len(system.mesh.elements)
    Q = x[:2 * d * M].reshape(M, 2, d)
    U = x[2 * d * M:].reshape(M, d)
    return Q, U


# ---------------------------------------------------------------------------
# HDG analysis: projection, energy functional, trace identity
# ---------------------------------------------------------------------------

def hdg_projection(q_fun, u_fun, verts, tau, k):
    """Elementwise projection matching volume moments and stabilized fluxes.

    Solves, on the triangle with the given vertices, for (Pq, Pu) of degree
    k satisfying the degree k-1 volume moments of q and u and the edge
    moments of q.n + tau u.  Returns the coefficient arrays in the modal
    basis.  Its volume and edge rules are exact for degrees 2k + 8 and
    2k + 9.
    """
    verts = np.asarray(verts, dtype=float)
    k = int(k)
    basis = TriangleBasis(k)
    d = basis.dim
    d_low = (k * (k + 1)) // 2
    ref_pts, ref_w = triangle_rule(2 * k + 8)
    J = np.column_stack([verts[1] - verts[0], verts[2] - verts[0]])
    detJ = float(np.linalg.det(J))
    if detJ <= 0:
        verts = verts[[0, 2, 1]]
        J = np.column_stack([verts[1] - verts[0], verts[2] - verts[0]])
        detJ = float(np.linalg.det(J))
    phys = verts[0] + ref_pts @ J.T
    w = detJ * ref_w
    vals = basis.eval(ref_pts)
    tau = np.broadcast_to(np.asarray(tau, dtype=float), (3,))

    n_rows = 2 * d_low + d_low + 3 * (k + 1)
    if n_rows != 3 * d:
        raise AssemblyError("projection system is not square")
    A = np.zeros((3 * d, 3 * d))
    b = np.zeros(3 * d)
    qe = np.asarray(q_fun(phys), dtype=float)
    ue = np.asarray(u_fun(phys), dtype=float)
    r = 0
    if d_low:
        Mlow = np.einsum("q,qa,qb->ab", w, vals[:, :d_low], vals)
        for c in range(2):
            A[r:r + d_low, c * d:(c + 1) * d] = Mlow
            b[r:r + d_low] = np.einsum("q,qa->a", w, vals[:, :d_low] * qe[:, c:c + 1])
            r += d_low
        A[r:r + d_low, 2 * d:] = Mlow
        b[r:r + d_low] = np.einsum("q,qa->a", w, vals[:, :d_low] * ue[:, None])
        r += d_low
    xg, wg = gauss01(k + 5)
    mu = edge_legendre(k, 2.0 * xg - 1.0)
    invJ = np.linalg.inv(J)
    for s_loc in range(3):
        p0, p1 = verts[(s_loc + 1) % 3], verts[(s_loc + 2) % 3]
        pts = p0 + xg[:, None] * (p1 - p0)
        length = np.linalg.norm(p1 - p0)
        t_vec = (p1 - p0) / length
        nrm = np.array([t_vec[1], -t_vec[0]])
        if np.dot(nrm, verts.mean(axis=0) - 0.5 * (p0 + p1)) > 0:
            nrm = -nrm
        ref = (pts - verts[0]) @ invJ.T
        tv = basis.eval(ref)
        wq = wg * length
        qe = np.asarray(q_fun(pts), dtype=float)
        ue = np.asarray(u_fun(pts), dtype=float)
        target = qe @ nrm + tau[s_loc] * ue
        for m in range(k + 1):
            A[r, 0 * d:1 * d] = np.einsum("q,qa->a", wq * mu[:, m] * nrm[0], tv)
            A[r, 1 * d:2 * d] = np.einsum("q,qa->a", wq * mu[:, m] * nrm[1], tv)
            A[r, 2 * d:] = tau[s_loc] * np.einsum("q,qa->a", wq * mu[:, m], tv)
            b[r] = np.sum(wq * mu[:, m] * target)
            r += 1
    try:
        sol = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise AssemblyError("singular projection system") from exc
    return sol[:d], sol[d:2 * d], sol[2 * d:]


def _interior_two_sides(mesh, *side_tables):
    """Interior edge ids and, per (M, 3, ...) table, its values on both sides."""
    e = mesh.interior_edge_ids
    t, s = mesh.edge_elements[e], mesh.edge_sides[e]
    return e, *((tab[t[:, 0], s[:, 0]], tab[t[:, 1], s[:, 1]]) for tab in side_tables)


def j_functional(field, system):
    """Energy-style seminorm combining flux mass, boundary traces and jumps."""
    mesh, disc = system.mesh, system.disc
    qc = field.Q.reshape(len(mesh.elements), 2 * disc.d)
    total = np.einsum("ma,mab,mb->", qc, disc.mass_kinv, qc)

    u_tr, qn_tr = _side_traces(field, disc)
    w_es = disc.edge_w[mesh.element_edges]
    tau_es = disc.tau[mesh.element_edges]
    tags = mesh.boundary_tags[mesh.element_edges]

    bdry = tags >= 0
    total += np.sum(np.where(bdry, tau_es, 0.0)[:, :, None] * w_es * u_tr ** 2)

    # interior terms need both sides of each edge
    e, (u1, u2), (qn1, qn2) = _interior_two_sides(mesh, u_tr, qn_tr)
    w, tau_e = disc.edge_w[e], disc.tau[e]
    mean_u = 0.5 * (u1 + u2)
    total += np.sum(tau_e * np.sum(w * ((u1 - mean_u) ** 2 + (u2 - mean_u) ** 2), axis=1))
    total += np.sum(np.sum(w * (qn1 + qn2) ** 2, axis=1) / tau_e)
    return float(np.sqrt(total))


def trace_identity_residual(field, system):
    """Sup over interior edges of || uhat - jump(q)/(2 tau) - mean(u) ||_e."""
    mesh, disc = system.mesh, system.disc
    u_tr, qn_tr = _side_traces(field, disc)
    e, (u1, u2), (qn1, qn2) = _interior_two_sides(mesh, u_tr, qn_tr)
    uhat = field.Uhat[e] @ disc.mu_vals.T
    target = (0.5 / disc.tau[e])[:, None] * (qn1 + qn2) + 0.5 * (u1 + u2)
    err = np.sqrt(np.sum(disc.edge_w[e] * (uhat - target) ** 2, axis=1))
    return float(err.max(initial=0.0))


# ---------------------------------------------------------------------------
# pointwise diagnostics
# ---------------------------------------------------------------------------

def pde_residual(case, pts):
    """Complex-step residuals of the two first-order equations at points.

    Returns (|div q - f|, |q + kappa grad u|) sampled rows; both should be
    at rounding level for a consistent case.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    h = 1e-30

    def dd(fun, comp, axis):
        shift = np.zeros(2, dtype=complex)
        shift[axis] = 1j * h
        return np.imag(np.asarray(fun(pts + shift))[..., comp]) / h

    div_q = dd(case.q, 0, 0) + dd(case.q, 1, 1)
    if case.f is None:
        fv = np.zeros(len(pts))
    elif np.isscalar(case.f):
        fv = np.full(len(pts), float(case.f))
    else:
        fv = np.asarray(case.f(pts))
    res_div = np.abs(div_q - fv)
    kap = case.kappa.value(pts)
    res_flux = np.linalg.norm(case.q(pts) + np.einsum("pab,pb->pa", kap,
                                                      case.grad_u(pts)), axis=1)
    return res_div, res_flux


def q_at(system, field, elem, pts):
    """Flux q (m, 2) of the field's polynomial on element elem at points (m, 2)."""
    vals = system.disc.basis_at(np.full(len(pts), elem), pts)
    return np.stack([vals @ field.Q[elem, 0], vals @ field.Q[elem, 1]], axis=-1)


def edge_vertices(mesh, edge_id):
    return mesh.vertices[mesh.edges[edge_id]]


def edge_length(mesh, edge_id):
    p = edge_vertices(mesh, edge_id)
    return float(np.linalg.norm(p[1] - p[0]))


def write_vtk_printf(field, path):
    """``export.write_vtk`` by CPython's per-value ``%`` formatting."""
    mesh = field.mesh
    nodes, tris = _reference_lattice(max(field.k, 1))
    vals = TriangleBasis(field.k).eval(nodes)
    pts = mesh.physical_points(nodes).reshape(-1, 2)
    u = (field.U @ vals.T).ravel()
    q = np.swapaxes(field.Q @ vals.T, 1, 2).reshape(-1, 2)
    cells = (len(nodes) * np.arange(len(mesh.elements))[:, None, None] + tris).reshape(-1, 3)
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\ninterior field\nASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {len(pts)} double\n")
        fh.write("%.16e %.16e 0.0\n" * len(pts) % tuple(pts.ravel().tolist()))
        fh.write(f"CELLS {len(cells)} {4 * len(cells)}\n")
        fh.write("3 %d %d %d\n" * len(cells) % tuple(cells.ravel().tolist()))
        fh.write(f"CELL_TYPES {len(cells)}\n")
        fh.write("5\n" * len(cells))
        fh.write(f"POINT_DATA {len(pts)}\n")
        fh.write("SCALARS u double 1\nLOOKUP_TABLE default\n")
        fh.write("%.16e\n" * len(u) % tuple(u.tolist()))
        fh.write("VECTORS q double\n")
        fh.write("%.16e %.16e 0.0\n" * len(q) % tuple(q.ravel().tolist()))


def write_coefficients_csv_printf(field, path):
    """``export.write_coefficients_csv`` by CPython's per-value ``%`` formatting."""
    M, d = field.U.shape
    header = ["element"] + [f"qx_{i}" for i in range(d)] \
        + [f"qy_{i}" for i in range(d)] + [f"u_{i}" for i in range(d)]
    table = np.column_stack([np.arange(M), field.Q[:, 0], field.Q[:, 1], field.U])
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(("%d" + ",%.17e" * (3 * d) + "\n") * M % tuple(table.ravel().tolist()))
