"""Hybridizable DG discretization of the interior diffusion problem.

The mixed form seeks (q, u, uhat) with q + kappa grad u = 0 and div q = f,
where uhat is a single-valued polynomial trace on the mesh skeleton.  On
interior edges the numerical flux q.nu + TAU (u - uhat) is conserved, with
one stabilization TAU = 1 on every edge; on the computational boundary the
trace is matched against the Dirichlet datum carried over from the true
boundary along short transfer segments,

    uhat(x) = data(mapped x) + int_0^l(x) kappa^{-1} E q (x + s t) . t ds,

with E the polynomial extrapolation of the parent element.  The transfer
line integral couples the boundary trace to the element flux and is kept in
the system matrix, so the condensed problem stays linear in the trace
unknowns and its factorization is reused for every right-hand side.

Element unknowns are eliminated per element (static condensation, Cockburn,
Gopalakrishnan & Lazarov, SIAM J. Numer. Anal. 47, 2009), the flux first:
u solves the d x d SPD Schur complement H = S + D A^{-1} D^T of the
kappa^{-1} mass A, and q follows from A^{-1}.  For a constant kappa, A^{-1}
is the closed form (kappa (x) Mhat^{-1}) / detJ, one reference matrix for
every element; a callable kappa solves each 2d x 2d block A.  The global
system is posed on the trace coefficients of every edge, boundary edges
included, because the transfer coupling keeps them in the graph.
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

import functools

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .basis import TriangleBasis, edge_legendre
from .errors import AssemblyError, DimensionError, SolverError
# perfbench calls and traces these writers as hdg attributes
from .export import write_coefficients_csv, write_vtk  # noqa: F401
from .geometry import TAG_OUTER
from .quadrature import edge_rule, triangle_rule

# the stabilization tau of the numerical flux, the same on every edge
TAU = 1.0


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------

class MaterialField:
    """Symmetric positive definite diffusion coefficient kappa(x).

    Accepts the identity (None), a scalar, a constant 2x2 matrix, or a
    callable mapping points (m, 2) to scalars (m,) or matrices (m, 2, 2).
    A constant is checked here, a callable's values wherever it is read.
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
            mat = np.array(kappa, dtype=float)
            if mat.shape != (2, 2) or not np.allclose(mat, mat.T):
                raise AssemblyError("constant kappa must be a symmetric 2x2 matrix")
            self._const = mat
        if self._const is not None:
            if not (np.all(np.isfinite(self._const))
                    and np.linalg.eigvalsh(self._const).min() > 0):
                raise AssemblyError("kappa must be finite and positive definite")
            self._const.setflags(write=False)

    @classmethod
    def identity(cls):
        return cls(None)

    constant = property(lambda self: self._const,
                        doc="The constant kappa (2, 2), read-only; None for a callable.")

    def value(self, pts):
        """kappa (..., 2, 2) at points (..., 2)."""
        if self._const is not None:
            lead = np.shape(pts)[:-1]
            return np.broadcast_to(self._const, lead + (2, 2)).copy()
        return self._checked_values(pts)[0]

    def inv(self, pts):
        """kappa^{-1} (..., 2, 2) at points (..., 2); a callable's by adjugate over det."""
        if self._const is not None:
            lead = np.shape(pts)[:-1]
            return np.broadcast_to(np.linalg.inv(self._const), lead + (2, 2))
        kap, det = self._checked_values(pts)
        adj = np.stack([np.stack([kap[..., 1, 1], -kap[..., 0, 1]], axis=-1),
                        np.stack([-kap[..., 1, 0], kap[..., 0, 0]], axis=-1)], axis=-2)
        return adj / det[..., None, None]

    def _checked_values(self, pts):
        """The callable's values (..., 2, 2) and their determinants (...).

        A value that is not finite, symmetric and positive definite (a > 0
        and det > 0) raises AssemblyError naming the first such point.
        """
        pts = np.asarray(pts, dtype=float)
        flat = pts.reshape(-1, 2)
        raw = np.asarray(self._fun(flat), dtype=float)
        kap = raw[:, None, None] * np.eye(2) if raw.ndim == 1 else raw
        a, b, c, d = kap[:, 0, 0], kap[:, 0, 1], kap[:, 1, 0], kap[:, 1, 1]
        # a non-finite entry leaves det inf or NaN, so a finite det covers it
        with np.errstate(invalid="ignore", over="ignore"):
            det = a * d - b * c
            good = np.isfinite(det) & (det > 0) & (a > 0) & np.isclose(b, c)
        if not np.all(good):
            x, y = flat[np.argmin(good)]
            raise AssemblyError(f"kappa must be finite, symmetric and positive definite; "
                                f"it is not at point ({x:.6g}, {y:.6g})")
        lead = pts.shape[:-1]
        return kap.reshape(lead + (2, 2)), det.reshape(lead)


class DGField:
    """Element-wise (q, u) coefficients plus the single-valued edge trace."""

    def __init__(self, mesh, k, Q, U, Uhat):
        self.mesh = mesh
        self.k = k
        self.Q = Q          # (M, 2, d)
        self.U = U          # (M, d)
        self.Uhat = Uhat    # (E, k+1)


# ---------------------------------------------------------------------------
# the discretization cache
# ---------------------------------------------------------------------------

class _Discretization:
    """Element and edge blocks for one (mesh, material, k).

    Each block is a degree-k basis integral on the reference triangle or
    one of its sides, scaled by the element's geometry, which the mesh
    holds (``invJ``, ``detJ``, ``physical_points``, ``side_normals``,
    ``edge_len``), and by TAU.  Side s runs from reference vertex s+1 to
    s+2 (mod 3); orientation 1 swaps its ends, for a global edge that runs
    against the side.
    """

    def __init__(self, mesh, material, k):
        self.mesh = mesh
        self.material = material
        self.k = int(k)
        basis = self.basis = TriangleBasis(self.k)
        d = self.d = basis.dim
        self.ne = self.k + 1
        M = len(mesh.elements)

        # volume blocks; the mesh keeps every element counterclockwise
        vol_pts, vol_w = triangle_rule(2 * self.k + 3)
        self.vol_vals, grads = basis.eval_grad(vol_pts)                 # (nq,d), (nq,d,2)
        self._products = (self.vol_vals[:, :, None] * self.vol_vals[:, None, :]).reshape(-1, d * d)
        invJ, detJ = mesh.invJ, mesh.detJ
        self.phys_pts = mesh.physical_points(vol_pts)
        self.phys_w = detJ[:, None] * vol_w                        # (M,nq)
        # the closed-form inverse factor of mass_kinv for a constant kappa,
        # see solve_mass
        kappa = material.constant
        self._kappa_mhat_inv = None if kappa is None else np.kron(
            kappa, np.linalg.inv((self._products.T @ vol_w).reshape(d, d)))
        # (w, div q) = detJ invJ[c, e] (phi_a, d_c phi_b) on T_ref, columns [x | y]
        grad_moments = np.einsum("q,qa,qbc->cab", vol_w, self.vol_vals, grads)
        gj = np.swapaxes(detJ[:, None, None] * invJ, 1, 2)          # (M,e,c)
        self.div = (gj.reshape(-1, 2) @ grad_moments.reshape(2, -1)).reshape(
            M, 2, d, d).transpose(0, 2, 1, 3).reshape(M, d, 2 * d)

        # edge blocks: Gauss nodes along the canonical edge direction
        q1, w1 = edge_rule(self.k)
        self.mu_vals = edge_legendre(self.k, 2.0 * q1 - 1.0)       # (qe,ne)
        edge_len = mesh.edge_len
        self.edge_w = edge_len[:, None] * w1                       # (E,qe)
        self.edge_mass = edge_len[:, None, None] * ((w1[:, None] * self.mu_vals).T @ self.mu_vals)

        # per (element, side): orientation 1 where the edge runs against the side
        side_edges = mesh.element_edges                             # (M,3)
        orient = (mesh.elements[:, [1, 2, 0]] != mesh.edges[side_edges, 0]).astype(int)
        a = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])            # side starts
        pts = a[:, None] + q1[:, None] * (np.roll(a, -1, axis=0) - a)[:, None]
        vals = basis.eval(pts.reshape(-1, 2)).reshape(3, len(q1), d)
        # the Gauss nodes are symmetric, so a reversed side reads them backwards
        side_vals = np.stack([vals, vals[:, ::-1]], axis=1)              # (3,2,qe,d)
        s3 = np.arange(3)
        self.trace_vals = side_vals[s3, orient]                     # (M,3,qe,d)

        # E_e (2d x ne) and F_e (d x ne) per (element, side); S (d x d)
        side_mu = np.einsum("q,soqa,qm->soam", w1, side_vals, self.mu_vals)
        side_mass = np.einsum("q,sqa,sqb->sab", w1, vals, vals)
        len_es = edge_len[side_edges]
        En = len_es[:, :, None, None] * side_mu[s3, orient]         # (M,3,d,ne)
        nrm = mesh.side_normals
        self.E_side = np.concatenate([nrm[:, :, :1, None] * En, nrm[:, :, 1:, None] * En],
                                     axis=2)
        self.F_side = TAU * En
        self.S_elem = ((TAU * len_es) @ side_mass.reshape(3, -1)).reshape(M, d, d)

        # static condensation: the element solve of L = [[A, -D^T], [D, S]]
        # (A = mass_kinv, D = div) against the trace columns R = [R_q; R_u]
        # and the load columns [0; I], with the flux block eliminated:
        #   u = H^{-1} ((R_u - D A^{-1} R_q) uhat_loc + f_mom),  H = S + D A^{-1} D^T,
        #   q = A^{-1} (D^T u + R_q uhat_loc),
        # so that (q, u) = local @ [uhat_loc; f_mom].  H is d x d and SPD: S
        # alone is only semidefinite for k >= 3, D A^{-1} D^T fills it.
        ne3 = 3 * self.ne
        R_q = -np.swapaxes(self.E_side, 1, 2).reshape(M, 2 * d, ne3)
        R_u = np.swapaxes(self.F_side, 1, 2).reshape(M, d, ne3)
        X = np.concatenate([np.swapaxes(self.div, 1, 2), R_q], axis=2)  # (M,2d,d+3ne)
        try:
            Y = self.solve_mass(X)
            DY = self.div @ Y
            H_inv = np.linalg.inv(self.S_elem + DY[:, :, :d])
        except np.linalg.LinAlgError as exc:
            raise AssemblyError("singular element local solver") from exc
        self.local = np.empty((M, 3 * d, ne3 + d))
        Q, U = self.local[:, :2 * d], self.local[:, 2 * d:]
        U[:, :, :ne3] = H_inv @ (R_u - DY[:, :, d:])
        U[:, :, ne3:] = H_inv
        np.matmul(Y[:, :, :d], U, out=Q)
        Q[:, :, :ne3] += Y[:, :, d:]

    @functools.cached_property
    def mass_kinv(self):
        """kappa^{-1}-weighted vector mass (M, 2d, 2d), grouped [x-block | y-block].

        Built on first read: a constant kappa never needs it (``solve_mass``).
        """
        M, nq = self.phys_w.shape
        d = self.d
        wk = self.phys_w[:, None, None, :] * np.moveaxis(
            self.material.inv(self.phys_pts), 1, 3)                # (M,2,2,nq)
        return (wk.reshape(-1, nq) @ self._products).reshape(
            M, 2, 2, d, d).transpose(0, 1, 3, 2, 4).reshape(M, 2 * d, 2 * d)

    def solve_mass(self, X):
        """A^{-1} X per element, for A = ``mass_kinv`` and X (M, 2d, c).

        A constant kappa makes A = detJ (kappa^{-1} (x) Mhat), Mhat the
        reference mass, so A^{-1} = (kappa (x) Mhat^{-1}) / detJ is one
        matrix for every element; a callable kappa solves each A.
        """
        if self._kappa_mhat_inv is None:
            return np.linalg.solve(self.mass_kinv, X)
        return self._kappa_mhat_inv @ X / self.mesh.detJ[:, None, None]

    def basis_at(self, parents, pts):
        """Basis values (p, ..., d) of each parent element at its points (p, ..., 2).

        A point x of parent t has reference coordinates (x - v_0) J^{-T};
        outside t this is the element polynomial's extrapolation.
        """
        v0 = self.mesh.vertices[self.mesh.elements[parents, 0]]
        ref = (pts.reshape(len(parents), -1, 2) - v0[:, None, :]) @ np.swapaxes(
            self.mesh.invJ[parents], 1, 2)
        return self.basis.eval(ref.reshape(-1, 2)).reshape(pts.shape[:-1] + (self.d,))

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
    is zero on rows with zero-length paths (a fitted mesh's inner edges).
    The paths are taken as given: ``build_boundary_map`` has refused any
    longer than 3 h_T of its parent element.
    """
    d, ne = disc.d, disc.ne
    path_moments = np.zeros((len(bmap.edge_ids), 2 * d, ne))
    rows = np.nonzero(bmap.l.max(axis=1, initial=0.0) > 0.0)[0]
    if len(rows) == 0:
        return path_moments
    parents = bmap.parents[rows]
    nodes, l, t = bmap.nodes[rows], bmap.l[rows], bmap.t[rows]
    qs, ws = edge_rule(disc.k)
    # path points (b, nq, ns, 2) and the inner integral of kappa^{-1} phi . t
    pts = nodes[:, :, None, :] + (l[:, :, None] * qs)[..., None] * t[:, :, None, :]
    kt = np.einsum("bqsxy,bqy->bqsx", disc.material.inv(pts), t)  # kappa^{-1} t
    phi = disc.basis_at(parents, pts)
    # inner[b, q, c, a] = int_0^l (kappa^{-1} t)_c phi_a ds, flattened over (c, a)
    inner = np.einsum("s,bq,bqsc,bqsa->bqca", ws, l, kt, phi).reshape(
        len(rows), -1, 2 * d)
    path_moments[rows] = np.einsum("bq,bqc,qm->bcm", disc.edge_w[bmap.edge_ids[rows]],
                                   inner, disc.mu_vals)
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
    The system is built on the boundary map's ``mesh`` and degree ``k``.
    """

    def __init__(self, bmap, material):
        self.mesh = mesh = bmap.mesh
        self.bmap = bmap
        self.material = material
        self.k = bmap.k
        self.disc = _Discretization(mesh, material, self.k)
        self.ne = self.disc.ne
        self.n_trace = mesh.n_edges * self.ne
        self.transfer = assemble_transfer(self.disc, bmap)
        self._assemble()
        self._lu = None
        # coupling.InterfaceMap per LayerOperatorSet, shared by all runs
        self.interface_maps = {}

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
             (-2.0 * TAU) * disc.edge_mass[interior]),
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
        return np.einsum("bq,bq...,qm->bm...", self.disc.edge_w[self.bmap.edge_ids[rows]],
                         vals, self.disc.mu_vals)

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
                rows, vals.reshape(bmap.l[rows].shape))
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
        """Trace coefficients for ``rhs`` and the relative residual of the
        solve, checked by ``residual``."""
        x = self.lu.solve(rhs)
        return x, self.residual(x, rhs)

    def residual(self, x, rhs):
        """Checked relative residual |A x - rhs| / max(|rhs|, 1) of trace
        coefficients x for ``rhs``; a non-finite x or a residual above 1e-8
        raises SolverError with a condition estimate.
        """
        res, norm = np.linalg.norm(self.matrix @ x - rhs), np.linalg.norm(rhs)
        rel = res / max(norm, 1.0)
        if not np.all(np.isfinite(x)) or rel > 1e-8:
            raise SolverError(
                f"trace solve residual {res:.3e} (rhs norm {norm:.3e}, "
                f"condition estimate {self._condition_estimate():.3e})")
        return float(rel)

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
        v = np.concatenate([uhat, f_mom.ravel()])[self._elem_cols]
        qu = np.matmul(self.disc.local, v[..., None])[..., 0]
        Q = qu[:, :2 * d].reshape(len(mesh.elements), 2, d)
        return DGField(mesh, self.k, Q, qu[:, 2 * d:], uhat.reshape(mesh.n_edges, self.ne))

    def point_flux(self, parents, points, normals):
        """Normal flux nu . q at p points, each from its parent element's polynomial.

        Returns (Z, Z_f): the flux of trace uhat and element loads f_mom is
        Z @ uhat + Z_f @ f_mom.ravel(), with Z (p x n_trace) and Z_f
        (p x M d) sparse.
        """
        disc, n = self.disc, self.n_trace
        vals = disc.basis_at(parents, points)
        flux_rows = np.concatenate([normals[:, :1] * vals, normals[:, 1:] * vals], axis=1)
        z_loc = np.einsum("pc,pcj->pj", flux_rows, disc.local[parents, :2 * disc.d])
        full = _block_matrix((len(parents), n + self.load.shape[1]), (
            np.arange(len(parents))[:, None], self._elem_cols[parents],
            z_loc[:, None, :])).tocsr()
        return full[:, :n], full[:, n:]


def build_system(bmap, material):
    """Assemble the condensed trace system on the map's mesh, of the map's
    degree (factorization happens lazily)."""
    return HDGSystem(bmap, material)


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

def _side_traces(field, disc):
    """Traces of u and of q . n at the edge nodes of every (element, side)."""
    u_tr = np.einsum("msqa,ma->msq", disc.trace_vals, field.U)
    qn_tr = np.einsum("msqa,msd,mda->msq",
                      disc.trace_vals, disc.mesh.side_normals, field.Q)
    return u_tr, qn_tr


def local_conservation_residual(field, system, f=None):
    """Per-element defect of <qhat.nu, 1>_dT = (f, 1)_T; a field on another
    mesh than the system's raises DimensionError."""
    mesh, disc = system.mesh, system.disc
    if field.mesh is not mesh:
        raise DimensionError("the field is on another mesh than the system")
    f_mom = disc.f_moments(f)
    f_int = f_mom[:, 0]        # first basis function is identically 1
    u_tr, qn_tr = _side_traces(field, disc)
    uhat_tr = field.Uhat[mesh.element_edges] @ disc.mu_vals.T
    w_es = disc.edge_w[mesh.element_edges]
    flux = np.einsum("msq,msq->m", w_es, qn_tr + TAU * (u_tr - uhat_tr))
    return flux - f_int


def l2_errors(field, system, u_exact, q_exact):
    """Weighted flux error ||kappa^{-1/2}(q - q_h)|| and scalar L2 error;
    a field on another mesh than the system's raises DimensionError."""
    disc = system.disc
    if field.mesh is not system.mesh:
        raise DimensionError("the field is on another mesh than the system")
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
