"""Hybridizable DG discretization of the interior diffusion problem.

The mixed form seeks (q, u, uhat) with q + kappa grad u = 0 and div q = f,
where uhat is a single-valued polynomial trace on the mesh skeleton.  On
interior edges the numerical flux q.nu + tau (u - uhat) is conserved; on the
computational boundary the trace is matched against the Dirichlet datum
carried over from the true boundary along short transfer segments,

    uhat(x) = data(mapped x) + int_0^l(x) kappa^{-1} E q (x + s t) . t ds,

with E the polynomial extrapolation of the parent element.  The transfer
line integral couples the boundary trace to the element flux and is kept in
the system matrix, so the condensed problem stays linear in the trace
unknowns and its factorization is reused for every right-hand side.

Element unknowns are eliminated per element (static condensation); the
global system is posed on the trace coefficients of every edge, boundary
edges included, because the transfer coupling keeps them in the graph.
Its sparsity pattern is symmetric (interior rows couple the edges of both
neighbouring elements, boundary rows the edges of the parent), so it is
factorized once by SuperLU in symmetric mode: minimum degree on A^T + A,
applied with diagonal pivots (threshold 0).  That fills about 2.5x less
than the unsymmetric MMD_ATA ordering with partial pivoting.  A positive
threshold is a fill cliff: the smallest column ratio |a_jj| / max_i |a_ij|
falls roughly like h (5.8e-3 at k=2, h=0.025), and a threshold above it
pivots off the diagonal thousands of times.  SuperLU still pivots off the
diagonal at an exactly zero pivot, and a near-zero pivot trips the
residual guard of ``HDGSystem.solve_trace``.

Elements are straight triangles, so every element and edge block is a
small table on the reference triangle, contracted with the element's detJ,
invJ, edge lengths, side orientations and normals (the tensor
representation of Kirby & Logg, ACM TOMS 32, 2006); only the kappa^{-1}
mass reads the material at the volume quadrature points.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .basis import TriangleBasis, edge_legendre
from .errors import (
    AssemblyError,
    DimensionError,
    SolverError,
    TransferIntegrationError,
)
from .geometry import TAG_OUTER
from .quadrature import edge_rule, gauss01, triangle_rule


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------

class MaterialField:
    """Symmetric positive definite diffusion coefficient kappa(x).

    Accepts the identity (None), a scalar, a constant 2x2 matrix, or a
    callable mapping points (m, 2) to scalars (m,) or matrices (m, 2, 2).
    """

    def __init__(self, kappa=None):
        self._fun = None
        self._const = None
        if kappa is None:
            self._const = np.eye(2)
        elif np.isscalar(kappa):
            self._const = np.diag([float(kappa)] * 2)
        elif callable(kappa):
            self._fun = kappa
        else:
            mat = np.asarray(kappa, dtype=float)
            if mat.shape != (2, 2) or not np.allclose(mat, mat.T):
                raise AssemblyError("constant kappa must be a symmetric 2x2 matrix")
            self._const = mat
        if self._const is not None and not (np.all(np.isfinite(self._const))
                                            and np.linalg.eigvalsh(self._const).min() > 0):
            raise AssemblyError("kappa must be finite and positive definite")

    @classmethod
    def identity(cls):
        return cls(None)

    def value(self, pts):
        pts = np.asarray(pts, dtype=float)
        lead = pts.shape[:-1]
        if self._const is not None:
            return np.broadcast_to(self._const, lead + (2, 2)).copy()
        raw = np.asarray(self._fun(pts.reshape(-1, 2)), dtype=float)
        if raw.ndim == 1:
            out = raw[:, None, None] * np.eye(2)[None, :, :]
        else:
            out = raw
        return out.reshape(lead + (2, 2))

    def inv(self, pts):
        if self._const is not None:
            lead = np.shape(pts)[:-1]
            return np.broadcast_to(np.linalg.inv(self._const), lead + (2, 2))
        return np.linalg.inv(self.value(pts))


class Stabilization:
    """Positive piecewise-constant stabilization on the mesh skeleton."""

    def __init__(self, value=1.0):
        self.value = value

    def on_edges(self, mesh):
        tau = np.asarray(self.value, dtype=float)
        if tau.ndim == 0:
            tau = np.full(mesh.n_edges, float(tau))
        if tau.shape != (mesh.n_edges,):
            raise AssemblyError("tau must be scalar or one value per edge")
        if not np.all(np.isfinite(tau) & (tau > 0)):
            raise AssemblyError("tau must be finite and strictly positive")
        return tau


class DGField:
    """Element-wise (q, u) coefficients plus the single-valued edge trace."""

    def __init__(self, mesh, k, Q, U, Uhat):
        self.mesh = mesh
        self.k = k
        self.Q = Q          # (M, 2, d)
        self.U = U          # (M, d)
        self.Uhat = Uhat    # (E, k+1)
        self._basis = TriangleBasis(k)

    def _ref(self, elem, pts):
        v = self.mesh.vertices[self.mesh.elements[elem]]
        J = np.column_stack([v[1] - v[0], v[2] - v[0]])
        return np.atleast_2d(pts - v[0]) @ np.linalg.inv(J).T

    def q_at(self, elem, pts):
        vals = self._basis.eval(self._ref(elem, pts))
        return np.stack([vals @ self.Q[elem, 0], vals @ self.Q[elem, 1]], axis=-1)


# ---------------------------------------------------------------------------
# reference tables and the discretization cache
# ---------------------------------------------------------------------------

# gradients of the barycentric coordinates on the reference triangle
_REF_GRAD_LAMBDA = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])


class _ReferenceTables:
    """Degree-k basis integrals on the reference triangle and its sides.

    Side s runs from reference vertex s+1 to s+2 (mod 3); orientation 1
    swaps its ends, for a global edge that runs against the side.
    """

    def __init__(self, k):
        basis = TriangleBasis(k)
        d = basis.dim
        self.vol_pts, self.vol_w = triangle_rule(2 * k + 3)
        self.vals, grads = basis.eval_grad(self.vol_pts)                 # (nq,d), (nq,d,2)
        self.products = (self.vals[:, :, None] * self.vals[:, None, :]).reshape(-1, d * d)
        self.grad_moments = np.einsum("q,qa,qbc->cab", self.vol_w, self.vals, grads)
        q1, self.edge_w = edge_rule(k)
        self.mu = edge_legendre(k, 2.0 * q1 - 1.0)                       # (qe, ne)
        self.edge_mass = (self.edge_w[:, None] * self.mu).T @ self.mu
        a = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])            # side starts
        pts = a[:, None] + q1[:, None] * (np.roll(a, -1, axis=0) - a)[:, None]
        vals = basis.eval(pts.reshape(-1, 2)).reshape(3, len(q1), d)
        # the Gauss nodes are symmetric, so a reversed side reads them backwards
        self.side_vals = np.stack([vals, vals[:, ::-1]], axis=1)         # (3,2,qe,d)
        self.side_mu = np.einsum("q,soqa,qm->soam", self.edge_w, self.side_vals, self.mu)
        self.side_mass = np.einsum("q,sqa,sqb->sab", self.edge_w, vals, vals)


class _Discretization:
    """Element and edge blocks for one (mesh, material, tau, k).

    Each block is a table of ``_ReferenceTables(k)`` scaled by the
    element's geometry.
    """

    def __init__(self, mesh, material, tau, k):
        self.mesh = mesh
        self.material = material
        self.k = int(k)
        stab = tau if isinstance(tau, Stabilization) else Stabilization(tau)
        self.tau = stab.on_edges(mesh)
        self.basis = TriangleBasis(k)
        ref = _ReferenceTables(self.k)
        d = self.d = self.basis.dim
        self.ne = self.k + 1
        M = len(mesh.elements)

        # volume blocks
        verts = mesh.vertices[mesh.elements]                       # (M,3,2)
        J = np.stack([verts[:, 1] - verts[:, 0], verts[:, 2] - verts[:, 0]], axis=2)
        detJ = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        if np.any(detJ <= 0):
            raise AssemblyError("element with non-positive Jacobian")
        self.invJ = invJ = np.linalg.inv(J)
        self.phys_pts = verts[:, None, 0, :] + ref.vol_pts @ np.swapaxes(J, 1, 2)
        self.phys_w = detJ[:, None] * ref.vol_w                    # (M,nq)
        self.vol_vals = ref.vals
        # kappa^{-1}-weighted vector mass, grouped [x-block | y-block]
        wk = self.phys_w[:, None, None, :] * np.moveaxis(
            material.inv(self.phys_pts), 1, 3)                     # (M,2,2,nq)
        self.mass_kinv = (wk.reshape(-1, len(ref.vol_w)) @ ref.products).reshape(
            M, 2, 2, d, d).transpose(0, 1, 3, 2, 4).reshape(M, 2 * d, 2 * d)
        # (w, div q) = detJ invJ[c, e] (phi_a, d_c phi_b)_ref, columns [x | y]
        gj = np.swapaxes(detJ[:, None, None] * invJ, 1, 2)          # (M,e,c)
        self.div = (gj.reshape(-1, 2) @ ref.grad_moments.reshape(2, -1)).reshape(
            M, 2, d, d).transpose(0, 2, 1, 3).reshape(M, d, 2 * d)

        # edge blocks: Gauss nodes along the canonical edge direction
        ends = mesh.vertices[mesh.edges]
        edge_len = np.linalg.norm(ends[:, 1] - ends[:, 0], axis=1)
        self.edge_w = edge_len[:, None] * ref.edge_w               # (E,qe)
        self.mu_vals = ref.mu
        self.edge_mass = edge_len[:, None, None] * ref.edge_mass

        # per (element, side): orientation 1 where the edge runs against the side
        side_edges = mesh.element_edges                             # (M,3)
        orient = (mesh.elements[:, [1, 2, 0]] != mesh.edges[side_edges, 0]).astype(int)
        s3 = np.arange(3)
        self.trace_vals = ref.side_vals[s3, orient]                 # (M,3,qe,d)
        # outward normals -invJ^T grad(lambda_s), outward because detJ > 0
        nrm = -(_REF_GRAD_LAMBDA @ invJ)
        self.side_normals = nrm / np.linalg.norm(nrm, axis=2, keepdims=True)

        # E_e (2d x ne) and F_e (d x ne) per (element, side); S (d x d)
        len_es = edge_len[side_edges]
        tau_es = self.tau[side_edges]
        En = len_es[:, :, None, None] * ref.side_mu[s3, orient]     # (M,3,d,ne)
        self.E_side = np.concatenate([self.side_normals[:, :, :1, None] * En,
                                      self.side_normals[:, :, 1:, None] * En], axis=2)
        self.F_side = tau_es[:, :, None, None] * En
        self.S_elem = ((tau_es * len_es) @ ref.side_mass.reshape(3, -1)).reshape(M, d, d)

        # static condensation: one solve of the local blocks L against the
        # trace columns R and the load columns [0; I], so that
        # (q, u) = local @ [uhat_loc; f_mom]
        L = np.block([[self.mass_kinv, -np.swapaxes(self.div, 1, 2)],
                      [self.div, self.S_elem]])
        R = np.concatenate([-self.E_side, self.F_side], axis=2)     # (M,3,3d,ne)
        R = np.swapaxes(R, 1, 2).reshape(M, 3 * d, 3 * self.ne)
        load = np.broadcast_to(np.eye(3 * d, d, -2 * d), (M, 3 * d, d))
        try:
            self.local = np.linalg.solve(L, np.concatenate([R, load], axis=2))
        except np.linalg.LinAlgError as exc:
            raise AssemblyError("singular element local solver") from exc

    def f_moments(self, f):
        """Element load vectors (M, d) for callable/constant/zero f."""
        if f is None:
            return np.zeros((len(self.mesh.elements), self.d))
        fv = float(f) if np.isscalar(f) else np.asarray(
            f(self.phys_pts.reshape(-1, 2)), dtype=float).reshape(self.phys_w.shape)
        return (self.phys_w * fv) @ self.vol_vals


def _block_matrix(shape, *blocks):
    """COO matrix summing dense blocks (rows (K, a), cols (K, b), vals (K, a, b))."""
    rows, cols, vals = (np.concatenate(part) for part in zip(*(
        (np.broadcast_to(r[:, :, None], v.shape).ravel(),
         np.broadcast_to(c[:, None, :], v.shape).ravel(), v.ravel())
        for r, c, v in blocks)))
    return sp.coo_matrix((vals, (rows, cols)), shape=shape)


# ---------------------------------------------------------------------------
# transfer couplings
# ---------------------------------------------------------------------------

def assemble_transfer(disc, bmap):
    """Path moments (B, 2d, ne) of every boundary-map row.

    Entry (c, m) is the line integral of the extrapolated flux component c
    along the transfer paths, tested against the edge trace basis mu_m; it
    is zero on rows with zero-length paths (fitted edges).
    """
    mesh = disc.mesh
    d, ne = disc.d, disc.ne
    B = len(bmap.edge_ids)
    lmax = bmap.l.max(axis=1, initial=0.0)
    leaves = lmax > 3.0 * mesh.h_T[bmap.parents]
    if np.any(leaves):
        raise TransferIntegrationError(
            f"transfer path on edge {int(bmap.edge_ids[np.argmax(leaves)])} "
            f"is longer than 3 h_T of its parent element")
    path_moments = np.zeros((B, 2 * d, ne))
    rows = np.nonzero(lmax > 0.0)[0]
    if len(rows) == 0:
        return path_moments
    parents = bmap.parents[rows]
    nodes, l, t = bmap.nodes[rows], bmap.l[rows], bmap.t[rows]
    qs, ws = edge_rule(disc.k)
    # path points (b, nq, ns, 2) and the inner integral of kappa^{-1} phi . t
    pts = nodes[:, :, None, :] + (l[:, :, None] * qs)[..., None] * t[:, :, None, :]
    kt = np.einsum("bqsxy,bqy->bqsx", disc.material.inv(pts), t)  # kappa^{-1} t
    v0 = mesh.vertices[mesh.elements[parents, 0]]
    ref = (pts.reshape(len(rows), -1, 2) - v0[:, None, :]) @ np.swapaxes(
        disc.invJ[parents], 1, 2)
    phi = disc.basis.eval(ref.reshape(-1, 2)).reshape(pts.shape[:3] + (d,))
    # inner[b, q, c, a] = int_0^l (kappa^{-1} t)_c phi_a ds, flattened over (c, a)
    inner = np.einsum("s,bq,bqsc,bqsa->bqca", ws, l, kt, phi).reshape(
        len(rows), -1, 2 * d)
    path_moments[rows] = np.einsum("bq,bqc,qm->bcm", bmap.weights[rows], inner,
                                   disc.mu_vals)
    return path_moments


# ---------------------------------------------------------------------------
# condensed global system
# ---------------------------------------------------------------------------

class HDGSystem:
    """Condensed trace system with reusable factorization.

    The matrix couples the single-valued trace coefficients of all edges:
    flux-continuity rows on interior edges, transfer rows on boundary
    edges.  ``load`` (n_trace x M d) maps the element load moments into the
    same rows; right-hand sides are the Dirichlet data evaluated at the
    mapped boundary points minus ``load @ f_mom.ravel()``, so repeated
    solves with fresh data reuse the one-time factorization.  Every trace
    map reads an element through ``disc.local`` over ``_elem_cols``, its
    3 ne side-trace dofs followed by n_trace plus its d load dofs.
    """

    def __init__(self, mesh, bmap, material, tau, k):
        if bmap.nodes.shape[1] != int(k) + 2:
            raise DimensionError(
                f"boundary map has {bmap.nodes.shape[1]} nodes per edge; "
                f"degree {k} needs {int(k) + 2}")
        self.mesh = mesh
        self.bmap = bmap
        self.material = material
        self.k = int(k)
        self.disc = _Discretization(mesh, material, tau, k)
        self.ne = self.disc.ne
        self.n_trace = mesh.n_edges * self.ne
        self.transfer = assemble_transfer(self.disc, bmap)
        self._assemble()
        self._lu = None
        # coupling.InterfaceResponse per LayerOperatorSet, shared by all runs
        self.interface_responses = {}

    # -- assembly ---------------------------------------------------------

    def _assemble(self):
        mesh, disc, bmap = self.mesh, self.disc, self.bmap
        n, ne, d, M = self.n_trace, disc.ne, disc.d, len(mesh.elements)
        trace_dofs = self._trace_dofs = np.arange(n).reshape(mesh.n_edges, ne)
        side_dofs = trace_dofs[mesh.element_edges]                    # (M,3,ne)
        self._elem_cols = elem_cols = np.hstack([
            side_dofs.reshape(M, 3 * ne), n + np.arange(M * d).reshape(M, d)])
        # interior (element, side) pairs, ordered by side, then element
        sides, elems = np.nonzero((mesh.boundary_tags[mesh.element_edges] < 0).T)
        interior = mesh.interior_edge_ids
        bdry, parents = bmap.edge_ids, bmap.parents
        # side functionals C_side = [E^T | F^T] of every (element, side)
        side_fun = np.concatenate([np.swapaxes(disc.E_side, 2, 3),
                                   np.swapaxes(disc.F_side, 2, 3)], axis=3)
        # element blocks over the columns [uhat_loc | f_mom]: flux continuity
        # C_side local on interior sides, and on boundary edges the transfer
        # part of  M_e uhat_e - T^t q(uhat, f) = data
        blocks = [(side_dofs[elems, sides], elem_cols[elems],
                   (side_fun @ disc.local[:, None])[elems, sides]),
                  (trace_dofs[bdry], elem_cols[parents],
                   -(np.swapaxes(self.transfer, 1, 2) @ disc.local[parents, :2 * d]))]
        (flux, trans), load = ([(r, c[:, :3 * ne], v[..., :3 * ne]) for r, c, v in blocks],
                               [(r, c[:, 3 * ne:] - n, v[..., 3 * ne:]) for r, c, v in blocks])
        self.matrix = _block_matrix(
            (n, n), flux,
            # interior diagonal  -2 tau M_e
            (trace_dofs[interior], trace_dofs[interior],
             (-2.0 * disc.tau[interior])[:, None, None] * disc.edge_mass[interior]),
            trans, (trace_dofs[bdry], trace_dofs[bdry], disc.edge_mass[bdry])).tocsc()
        self.load = _block_matrix((n, M * d), *load).tocsc()

    @property
    def lu(self):
        if self._lu is None:
            try:
                self._lu = spla.splu(
                    self.matrix, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                    options={"SymmetricMode": True})
            except RuntimeError as exc:
                raise SolverError(f"trace factorization failed: {exc}") from exc
        return self._lu

    # -- right-hand sides ---------------------------------------------------

    def _edge_moments(self, rows, vals):
        """Moments <vals, mu>_e (b, ne, ...) of values at the nodes of map rows."""
        return np.einsum("bq,bq...,qm->bm...", self.bmap.weights[rows], vals,
                         self.disc.mu_vals)

    def boundary_data_vector(self, g_gamma=None, u0_gamma0=None):
        """Moments <data(mapped x), mu>_e for every boundary edge.

        ``g_gamma`` supplies the datum on the outer interface, ``u0_gamma0``
        on the inner problem boundary; each is a callable of points (m, 2).
        """
        bmap = self.bmap
        rhs = np.zeros((self.mesh.n_edges, self.ne))
        outer = bmap.tags == TAG_OUTER
        for rows, fun in ((outer, g_gamma), (~outer, u0_gamma0)):
            if fun is None or not np.any(rows):
                continue
            vals = np.asarray(fun(bmap.mapped[rows].reshape(-1, 2)), dtype=float)
            rhs[bmap.edge_ids[rows]] = self._edge_moments(
                rows, vals.reshape(bmap.weights[rows].shape))
        return rhs.ravel()

    def interface_operator(self, modes):
        """Sparse B (n_trace x m): B c is the right-hand side of the datum sum_j c_j mode_j.

        ``modes`` maps curve parameters (b, q) to the values (b, q, m) of m
        interface modes; B reads them at the outer nodes' curve parameters.
        """
        out = np.nonzero(self.bmap.tags == TAG_OUTER)[0]
        moments = self._edge_moments(out, modes(self.bmap.params[out]))  # (b, ne, m)
        m = moments.shape[-1]
        return _block_matrix((self.n_trace, m), (
            self._trace_dofs[self.bmap.edge_ids[out]],
            np.broadcast_to(np.arange(m), (len(out), m)), moments)).tocsr()

    def rhs(self, f_mom, g_gamma=None, u0_gamma0=None):
        """Trace right-hand side of element loads f_mom and the boundary data."""
        return self.boundary_data_vector(g_gamma, u0_gamma0) - self.load @ f_mom.ravel()

    # -- solve and recovery ---------------------------------------------------

    def solve_trace(self, rhs):
        """Trace coefficients for ``rhs`` and the relative residual of the solve.

        ``rhs`` is one right-hand side or a 2-D array of them, one per
        column.  Each column's residual is scaled by max(|rhs column|, 1) and
        the worst column is reported; a non-finite solution or a residual
        above 1e-8 raises SolverError with a condition estimate.
        """
        x = self.lu.solve(rhs)
        res = np.atleast_1d(np.linalg.norm(self.matrix @ x - rhs, axis=0))
        norm = np.atleast_1d(np.linalg.norm(rhs, axis=0))
        rel = res / np.maximum(norm, 1.0)
        j = int(np.argmax(rel))
        if not np.all(np.isfinite(x)) or rel[j] > 1e-8:
            raise SolverError(
                f"trace solve residual {res[j]:.3e} (rhs norm {norm[j]:.3e}, "
                f"condition estimate {self._condition_estimate():.3e})")
        return x, float(rel[j])

    def _condition_estimate(self):
        """1-norm condition number estimate that reuses the LU factors."""
        lu = self.lu
        inverse = spla.LinearOperator(
            self.matrix.shape, matvec=lu.solve,
            rmatvec=lambda b: lu.solve(b, trans="T"), dtype=float)
        try:
            return spla.onenormest(self.matrix) * spla.onenormest(inverse)
        except ValueError:
            return np.inf

    def recover(self, uhat, f_mom):
        mesh, d = self.mesh, self.disc.d
        qu = np.einsum("mab,mb->ma", self.disc.local,
                       np.concatenate([uhat, f_mom.ravel()])[self._elem_cols])
        Q = qu[:, :2 * d].reshape(len(mesh.elements), 2, d)
        return DGField(mesh, self.k, Q, qu[:, 2 * d:], uhat.reshape(mesh.n_edges, self.ne))

    def point_flux(self, parents, points, normals):
        """Normal flux nu . q at p points, each from its parent element's polynomial.

        Returns (Z, Z_f): the flux of trace uhat and element loads f_mom is
        Z @ uhat + Z_f @ f_mom.ravel(), with Z (p x n_trace) and Z_f
        (p x M d) sparse.
        """
        disc, mesh, n = self.disc, self.mesh, self.n_trace
        verts = mesh.vertices[mesh.elements[parents]]
        ref = np.einsum("pd,ped->pe", points - verts[:, 0], disc.invJ[parents])
        vals = disc.basis.eval(ref)
        flux_rows = np.concatenate([normals[:, :1] * vals, normals[:, 1:] * vals], axis=1)
        z_loc = np.einsum("pc,pcj->pj", flux_rows, disc.local[parents, :2 * disc.d])
        full = _block_matrix((len(parents), n + self.load.shape[1]), (
            np.arange(len(parents))[:, None], self._elem_cols[parents],
            z_loc[:, None, :])).tocsr()
        return full[:, :n], full[:, n:]


def build_system(mesh, bmap, material, tau, k):
    """Assemble the condensed trace system (factorization happens lazily)."""
    return HDGSystem(mesh, bmap, material, tau, k)


def solve_interior(system, f=None, g_gamma=None, u0_gamma0=None):
    """Solve the interior problem with transferred Dirichlet data.

    ``g_gamma`` and ``u0_gamma0`` are evaluated at the mapped points on the
    true curves (composition with the boundary map happens here).
    """
    f_mom = system.disc.f_moments(f)
    uhat, _ = system.solve_trace(system.rhs(f_mom, g_gamma, u0_gamma0))
    return system.recover(uhat, f_mom)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def _interior_two_sides(mesh, *side_tables):
    """Interior edge ids and, per (M, 3, ...) table, its values on both sides."""
    e = mesh.interior_edge_ids
    t, s = mesh.edge_elements[e], mesh.edge_sides[e]
    return e, *((tab[t[:, 0], s[:, 0]], tab[t[:, 1], s[:, 1]]) for tab in side_tables)


def _side_traces(field, disc):
    """Traces of u and of q . n at the edge nodes of every (element, side)."""
    u_tr = np.einsum("msqa,ma->msq", disc.trace_vals, field.U)
    qn_tr = np.einsum("msqa,msd,mda->msq",
                      disc.trace_vals, disc.side_normals, field.Q)
    return u_tr, qn_tr


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


def local_conservation_residual(field, system, f=None):
    """Per-element defect of <qhat.nu, 1>_dT = (f, 1)_T."""
    mesh, disc = system.mesh, system.disc
    f_mom = disc.f_moments(f)
    f_int = f_mom[:, 0]        # first basis function is identically 1
    u_tr, qn_tr = _side_traces(field, disc)
    uhat_tr = field.Uhat[mesh.element_edges] @ disc.mu_vals.T
    w_es = disc.edge_w[mesh.element_edges]
    tau_es = disc.tau[mesh.element_edges]
    flux = np.einsum("msq,msq->m",
                     w_es, qn_tr + tau_es[:, :, None] * (u_tr - uhat_tr))
    return flux - f_int


def trace_identity_residual(field, system):
    """Sup over interior edges of || uhat - jump(q)/(2 tau) - mean(u) ||_e."""
    mesh, disc = system.mesh, system.disc
    u_tr, qn_tr = _side_traces(field, disc)
    e, (u1, u2), (qn1, qn2) = _interior_two_sides(mesh, u_tr, qn_tr)
    uhat = field.Uhat[e] @ disc.mu_vals.T
    target = (0.5 / disc.tau[e])[:, None] * (qn1 + qn2) + 0.5 * (u1 + u2)
    err = np.sqrt(np.sum(disc.edge_w[e] * (uhat - target) ** 2, axis=1))
    return float(err.max(initial=0.0))


def l2_errors(field, system, u_exact, q_exact):
    """Weighted flux error ||kappa^{-1/2}(q - q_h)|| and scalar L2 error."""
    disc = system.disc
    pts = disc.phys_pts
    M, nq, _ = pts.shape
    uv = np.einsum("qa,ma->mq", disc.vol_vals, field.U)
    qv = np.einsum("qa,mca->mqc", disc.vol_vals, field.Q)
    ue = np.asarray(u_exact(pts.reshape(-1, 2)), dtype=float).reshape(M, nq)
    qe = np.asarray(q_exact(pts.reshape(-1, 2)), dtype=float).reshape(M, nq, 2)
    diff = qv - qe
    kinv = system.material.inv(pts)
    err_q = np.sqrt(np.einsum("mq,mqc,mqcd,mqd->", disc.phys_w, diff, kinv, diff))
    err_u = np.sqrt(np.sum(disc.phys_w * (uv - ue) ** 2))
    return float(err_q), float(err_u)


# ---------------------------------------------------------------------------
# elementwise projection oracle
# ---------------------------------------------------------------------------

def hdg_projection(q_fun, u_fun, verts, tau, k):
    """Elementwise projection matching volume moments and stabilized fluxes.

    Solves, on the triangle with the given vertices, for (Pq, Pu) of degree
    k satisfying the degree k-1 volume moments of q and u and the edge
    moments of q.n + tau u.  Returns the coefficient arrays in the modal
    basis.  Intended as a test oracle; its volume and edge rules are exact
    for degrees 2k + 8 and 2k + 9.
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


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def _reference_lattice(r):
    """Lattice (i/r, j/r), i + j <= r, and its r^2 congruent triangles."""
    ij = [(i, j) for i in range(r + 1) for j in range(r + 1 - i)]
    idx = {p: n for n, p in enumerate(ij)}
    tris = []
    for i, j in ij:
        if i + j < r:
            tris.append((idx[(i, j)], idx[(i + 1, j)], idx[(i, j + 1)]))
        if i + j < r - 1:
            tris.append((idx[(i + 1, j)], idx[(i + 1, j + 1)], idx[(i, j + 1)]))
    return np.array(ij, dtype=float) / r, np.array(tris)


def write_vtk(field, path):
    """Legacy ASCII unstructured-grid file with u point data and q vectors.

    Each element is subdivided into k^2 congruent triangles (one for k = 0)
    and the discontinuous fields are written as per-element point data; the
    basis is evaluated once on the shared reference lattice.
    """
    mesh = field.mesh
    nodes, tris = _reference_lattice(max(field.k, 1))
    vals = field._basis.eval(nodes)                                  # (n, d)
    v = mesh.vertices[mesh.elements]
    J = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=2)     # (M,2,2)
    pts = (v[:, None, 0] + nodes @ np.swapaxes(J, 1, 2)).reshape(-1, 2)
    u = (field.U @ vals.T).ravel()
    q = np.einsum("mcd,nd->mnc", field.Q, vals).reshape(-1, 2)
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


def write_coefficients_csv(field, path):
    """Regression dump: one row per element with its coefficient block."""
    M, d = field.U.shape
    header = ["element"] + [f"qx_{i}" for i in range(d)] \
        + [f"qy_{i}" for i in range(d)] + [f"u_{i}" for i in range(d)]
    table = np.column_stack([np.arange(M), field.Q[:, 0], field.Q[:, 1], field.U])
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(("%d" + ",%.17e" * (3 * d) + "\n") * M % tuple(table.ravel().tolist()))
