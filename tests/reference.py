"""Reference solves that check the library's solvers by a different route.

Each assembles a sparse system that the library never forms and solves it
with a direct sparse solver: the uncondensed HDG saddle system, the
two-field form with the trace eliminated, and the bordered coupled system
(trace, interface trace and far-field unknowns at once) that the
monolithic oracle reduces to the interface unknowns.  They are slow and
exist only to pin the library's answers in the tests.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hdgbem import TrigPolynomial
from hdgbem.coupling import InterfaceMap
from hdgbem.hdg import DGField


def bordered_monolithic_solve(system, ops, f=None, u0=None):
    """Coupled solve over the trace, g and u_inf unknowns by one sparse LU.

    The interior trace system, the interface equation g = T flux with
    T = -``ops.exterior`` ``ops.P`` (the exterior trace of the projected
    Neumann density -flux), and zero total flux, bordered into one sparse
    matrix.  Returns (field, g, lam, u_inf), like ``monolithic_solve``.
    """
    n_trace, n2 = system.n_trace, 2 * ops.n
    imap = InterfaceMap(system, ops, f, u0)
    resp = imap.response
    T = -ops.exterior @ ops.P
    A = sp.bmat([
        [system.matrix, -resp.B, -resp.B[:, :1]],
        [-sp.csr_matrix(T) @ resp.Z, sp.identity(n2), None],
        [sp.csr_matrix(ops.arc_w[None, :]) @ resp.Z, None, None],
    ], format="csc")
    rhs = np.concatenate([imap.rhs0, T @ imap.z_f, [-(ops.arc_w @ imap.z_f)]])
    x = spla.spsolve(A, rhs)
    uhat = x[:n_trace]
    g = TrigPolynomial.from_coefficients(x[n_trace:n_trace + n2])
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
            nrm = disc.side_normals[t, s_loc]
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
        coef = np.linalg.solve(disc.edge_mass[e], (bm.weights[row][:, None] * disc.mu_vals).T
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
