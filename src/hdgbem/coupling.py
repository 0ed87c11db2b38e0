"""Relaxed alternating coupling of the interior and exterior solvers.

One cycle maps the interface Dirichlet trace g (a mean-zero trigonometric
polynomial plus a separately tracked far-field constant) to a new trace:

  1. solve the interior problem with Dirichlet data g + u_inf on the
     interface and the problem datum on the inner boundary;
  2. sample the interior normal flux at the interface nodes, project it
     onto mean-zero densities and flip the sign to obtain the exterior
     Neumann density, then solve the boundary integral equation for the
     new trace;
  3. relax:  g  <-  omega * g_tilde + (1 - omega) * g.

Steps 1 and 2 up to the exterior solve are one ``InterfaceMap``: an affine
map from interface data to flux samples that recovers no element field.
Its data-independent part, an ``InterfaceResponse``, is kept once per
(system, operator set) and shared by every run on it, so a sweep over
weights pays for it once.  An application costs one trace solve until the
solves on the pair reach 2n; then the dense 2n x 2n response is built by
one block solve and every later application is a matvec.  The iteration
recovers the field once, for the converged trace, from a real solve.

The constant mode cannot travel through the mean-zero integral equation,
so it is driven by the radiation-condition compatibility "total interface
flux = 0": its update is an exact Newton step using the flux response to a
unit constant datum (one extra interior solve per response).  A fixed
point of the relaxed map is a fixed point of the unrelaxed one, so
converged answers do not depend on the relaxation weight.

``monolithic_solve`` assembles the same coupling conditions, from the same
``InterfaceMap``, into a single linear system and is the equivalence
oracle for the iteration's limit.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .bem import TrigPolynomial, _coeff_to_samples, _samples_to_coeff, solve_exterior
from .errors import DimensionError, DivergenceError, EstimationError, SolverError
from .geometry import TAG_OUTER
from .hdg import PatchLocator

TWO_PI = 2.0 * np.pi
# largest bordered system (trace, reduced density and far-field unknowns)
# that monolithic_solve factors directly
MONOLITHIC_SIZE_LIMIT = 400000


class CouplingConfig:
    """Iteration controls: relaxation weight, cap, tolerance, density degree."""

    def __init__(self, omega=0.5, max_iterations=100, tol=1e-8, n=32,
                 g0=None, u_inf0=0.0, aitken=False):
        if not 0.0 < omega <= 1.0:
            raise ValueError(f"relaxation weight must lie in (0, 1], got {omega}")
        if tol <= 0.0:
            raise ValueError("tolerance must be positive")
        self.omega = float(omega)
        self.max_iterations = int(max_iterations)
        self.tol = float(tol)
        self.n = int(n)
        self.g0 = g0
        self.u_inf0 = float(u_inf0)
        self.aitken = bool(aitken)


class CouplingState:
    """Current densities, far-field estimate and convergence history."""

    def __init__(self, n):
        self.iteration = 0
        self.g = TrigPolynomial.zero(n)
        self.lam = TrigPolynomial.zero(n)
        self.u_inf = 0.0
        self.history = []
        self.u_inf_history = []
        self.residual_history = []
        self.lambda_mean_max = 0.0
        self.mean_flux = 0.0
        self.field = None
        self.converged = False
        self.omega = None


def _packed(g, u_inf):
    """Packed coefficients of the interface datum g + u_inf."""
    c = g.coefficients()
    c[0] += u_inf
    return c


class InterfaceResponse:
    """The f/u0-independent part of the interface map of one (system, ops).

    ``B`` (n_trace x 2n) holds the edge moments of each density basis
    function on the interface rows.  Row j of ``Z`` evaluates the flux of
    node j's patch parent element, extrapolated to the node, from that
    element's trace coefficients.  ``P`` maps flux samples to mean-zero
    density coefficients and ``arc_w`` integrates samples over the interface.

    Every trace solve made through it is counted, over all runs on the
    pair.  Once the count reaches 2n, the column count of ``B``, one block
    solve builds the dense response F = Z A^{-1} B (2n x 2n), so a flux then
    costs a small matvec instead of a sparse solve: F is bought only after
    the one-solve path has spent as many solves as F costs columns.  Use
    ``of`` to get the one instance a system keeps per operator set.
    """

    def __init__(self, system, ops):
        self.system = system
        self.n = n = ops.n
        curve = ops.curve
        disc, mesh = system.disc, system.mesh
        d, ne = disc.d, disc.ne

        bmap = system.bmap
        out = np.nonzero(bmap.tags == TAG_OUTER)[0]
        params = bmap.params[out]
        basis = _coeff_to_samples(n, params.ravel()).reshape(params.shape + (2 * n,))
        moments = np.einsum("rq,rqc,qm->rmc", bmap.weights[out], basis, disc.mu_vals)
        rows = bmap.edge_ids[out][:, None] * ne + np.arange(ne)
        self.B = sp.csr_matrix(
            (moments.ravel(), (np.repeat(rows.ravel(), 2 * n),
                               np.tile(np.arange(2 * n), rows.size))),
            shape=(system.n_trace, 2 * n))

        self.params = ops.nodes
        self.parents = parents = PatchLocator(bmap, system.patches).locate(self.params)
        verts = mesh.vertices[mesh.elements[parents]]
        ref = np.einsum("pd,ped->pe", curve.point(self.params) - verts[:, 0],
                        disc.invJ[parents])
        vals = disc.basis.eval(ref)
        normals = curve.normal(self.params)
        self.flux_rows = np.concatenate([normals[:, :1] * vals,
                                         normals[:, 1:] * vals], axis=1)  # (2n, 2d)
        z_loc = np.einsum("pc,pcj->pj", self.flux_rows,
                          disc.recovery[parents, :2 * d])
        cols = mesh.element_edges[parents][:, :, None] * ne + np.arange(ne)
        self.Z = sp.csr_matrix(
            (z_loc.ravel(), (np.repeat(np.arange(2 * n), 3 * ne), cols.ravel())),
            shape=(2 * n, system.n_trace))

        self.P = ops.injection @ _samples_to_coeff(n, np.eye(2 * n))[1:]
        self.arc_w = curve.speed(self.params) * np.pi / n
        self.solves = 0
        self.F = None
        self.F_residual = None
        self._chi = None

    @classmethod
    def of(cls, system, ops):
        """The response of (system, ops), built on first use and kept on the system."""
        if ops not in system.interface_responses:
            system.interface_responses[ops] = cls(system, ops)
        return system.interface_responses[ops]

    def solve(self, rhs):
        """Counted trace solve: coefficients and the relative residual."""
        self.solves += 1
        return self.system.solve_trace(rhs)

    def dense(self):
        """F once the solves on this pair reach 2n (built then), else None."""
        if self.F is None and self.solves >= self.B.shape[1]:
            uhat, self.F_residual = self.solve(self.B.toarray())
            self.F = self.Z @ uhat
        return self.F

    def data(self, g, u_inf):
        """Trace right-hand side of the interface datum g + u_inf alone."""
        return self.B @ _packed(g, u_inf)

    def mean_flux(self, samples):
        return float(self.arc_w @ samples)

    def project(self, samples):
        """Mean-zero density interpolating the samples up to a constant."""
        return TrigPolynomial.from_coefficients(self.P @ samples, mean_zero=True)

    @property
    def chi(self):
        """Mean-flux response to a unit constant datum (far-field channel)."""
        if self._chi is None:
            if self.F is not None:
                self._chi = self.mean_flux(self.F[:, 0])
            else:
                uhat, _ = self.solve(self.data(TrigPolynomial.zero(self.n), 1.0))
                self._chi = self.mean_flux(self.Z @ uhat)
        return self._chi


class InterfaceMap:
    """Affine map from interface data (g, u_inf) to interface flux samples.

    With c the packed coefficients of g + u_inf and A the trace system
    matrix, the normal flux at the 2n density nodes is

        flux = Z A^{-1} (rhs0 + B c) + z_f  =  flux0 + F c.

    ``response`` is the shared ``InterfaceResponse`` of (system, ops) that
    holds B, Z and F; ``rhs0`` carries the load f and the inner datum u0,
    ``z_f`` adds each parent element's particular solution.  ``apply``
    applies the map with one trace solve until the response holds F, and
    with ``flux0`` (one solve, on first use) plus F c after that.
    """

    def __init__(self, system, ops, f=None, u0=None):
        self.response = resp = InterfaceResponse.of(system, ops)
        disc = system.disc
        d = disc.d
        self.f_mom = disc.f_moments(f)
        rhs_f, _ = system.rhs(f_mom=self.f_mom)
        self.rhs0 = rhs_f + system.boundary_data_vector(None, u0)
        part = np.einsum("pab,pb->pa", disc.local_inv[resp.parents, :2 * d, 2 * d:],
                         self.f_mom[resp.parents])
        self.z_f = np.einsum("pc,pc->p", resp.flux_rows, part)
        self._flux0 = None

    def solve(self, g, u_inf):
        """Interior trace for interface datum g + u_inf, and its residual."""
        return self.response.solve(self.rhs0 + self.response.data(g, u_inf))

    def flux(self, uhat):
        """Flux samples of the interior trace uhat."""
        return self.response.Z @ uhat + self.z_f

    def apply(self, g, u_inf):
        """Flux samples for datum g + u_inf and the residual of the solve behind them.

        Served by F, the residual is that of F's worst column.
        """
        resp = self.response
        F = resp.dense()
        if F is None:
            uhat, residual = self.solve(g, u_inf)
            return self.flux(uhat), residual
        if self._flux0 is None:
            uhat0, _ = resp.solve(self.rhs0)
            self._flux0 = self.flux(uhat0)
        return self._flux0 + F @ _packed(g, u_inf), resp.F_residual


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------

def dtn_step(imap, g, u_inf=0.0):
    """Interior flux at the interface nodes and its mean-zero projection.

    Returns (lam, mean_flux, residual): lam is the negated projected normal
    flux, the Neumann density handed to the exterior solver, and residual
    the relative residual of the trace solve behind the flux.
    """
    samples, residual = imap.apply(g, u_inf)
    resp = imap.response
    return resp.project(-samples), resp.mean_flux(samples), residual


def ntd_step(ops, lam):
    """Exterior solve: the new Dirichlet trace."""
    return solve_exterior(ops, lam)


def relax_update(g_old, g_tilde, omega):
    """Convex combination omega * g_tilde + (1 - omega) * g_old."""
    if g_old.n != g_tilde.n:
        raise DimensionError("relaxation requires equal density degrees")
    out = omega * g_tilde + (1.0 - omega) * g_old
    out.mean_zero = g_old.mean_zero and g_tilde.mean_zero
    return out


def estimate_contraction(history):
    """Geometric-mean ratio of successive updates over the tail half."""
    if len(history) < 3:
        raise EstimationError("need at least three update norms")
    tail = np.asarray(history[len(history) // 2:], dtype=float)
    num, den = tail[1:], tail[:-1]
    keep = den > 0
    if not np.any(keep):
        return 0.0
    ratios = num[keep] / den[keep]
    if np.any(ratios == 0):
        return 0.0
    return float(np.exp(np.mean(np.log(ratios))))


# ---------------------------------------------------------------------------
# fixed-point driver
# ---------------------------------------------------------------------------

def run_fixed_point(system, ops, f=None, u0=None, config=None):
    """Iterate interior/exterior solves with relaxation until the trace settles.

    Raises DivergenceError (carrying the state and its history) when the
    iteration cap is hit; callers may retry with a smaller weight.
    """
    config = config or CouplingConfig(n=ops.n)
    n = ops.n
    if config.g0 is not None and config.g0.n != n:
        raise DimensionError("initial trace degree does not match the operator set")
    speed = ops.curve.radius if ops.curve.is_circle else \
        ops.curve.length() / TWO_PI
    imap = InterfaceMap(system, ops, f, u0)
    chi = imap.response.chi
    if abs(chi) < 1e-12:
        raise SolverError("degenerate far-field channel: zero flux response")

    state = CouplingState(n)
    state.omega = config.omega
    g = config.g0 if config.g0 is not None else TrigPolynomial.zero(n)
    u_inf = config.u_inf0
    omega = config.omega
    prev_resid = None
    for it in range(1, config.max_iterations + 1):
        state.iteration = it
        lam, mflux, lin_res = dtn_step(imap, g, u_inf)
        state.lambda_mean_max = max(state.lambda_mean_max,
                                    abs(ops.moments @ lam.coefficients()))
        g_tilde = ntd_step(ops, lam)
        u_inf_new = u_inf - mflux / chi
        if config.aitken and prev_resid is not None:
            resid = (g_tilde - g).coefficients()
            dr = resid - prev_resid
            denom = float(dr @ dr)
            if denom > 0:
                omega = float(np.clip(-omega * (prev_resid @ dr) / denom, 0.05, 1.0))
            prev_resid = resid
        elif config.aitken:
            prev_resid = (g_tilde - g).coefficients()
        g_new = relax_update(g, g_tilde, omega)
        delta = g_new - g
        delta.cos[0] += u_inf_new - u_inf
        update = delta.l2_norm(speed=speed)
        g, u_inf = g_new, u_inf_new

        state.history.append(update)
        state.u_inf_history.append(u_inf)
        state.residual_history.append(lin_res)
        state.g, state.lam = g, lam
        state.u_inf = u_inf
        state.mean_flux = mflux

        trace = TrigPolynomial(g.cos.copy(), g.sin.copy())
        trace.cos[0] += u_inf
        if update <= config.tol * max(1.0, trace.l2_norm(speed=speed)):
            state.converged = True
            break
    if not state.converged:
        raise DivergenceError(
            f"no convergence in {config.max_iterations} iterations "
            f"(last update {state.history[-1]:.3e})", state=state)
    # the field and density of the converged trace, from a real trace solve
    uhat, lin_res = imap.solve(g, u_inf)
    samples = imap.flux(uhat)
    state.field = system.recover(uhat, imap.f_mom)
    state.lam = imap.response.project(-samples)
    state.mean_flux = imap.response.mean_flux(samples)
    state.residual_history.append(lin_res)
    return state


def write_iteration_log(state, path):
    """CSV rows (iter, update-norm, u_inf estimate, interior residual).

    The interior residual is that of the iteration's trace solve.  Once the
    trace solves on a (system, operators) pair, summed over runs, reach 2n,
    the dense interface response is built and serves every later
    iteration; those iterations log the largest column residual of its
    block solve.
    """
    with open(path, "w") as fh:
        fh.write("iter,update_norm,u_inf,interior_residual\n")
        for i, upd in enumerate(state.history):
            res = state.residual_history[i] if i < len(state.residual_history) else ""
            fh.write(f"{i + 1},{upd:.17e},{state.u_inf_history[i]:.17e},{res:.3e}\n")


# ---------------------------------------------------------------------------
# monolithic oracle
# ---------------------------------------------------------------------------

def monolithic_solve(system, ops, f=None, u0=None):
    """Solve interior, interface equation and flux compatibility at once.

    Unknowns are the interior trace coefficients, the mean-zero interface
    trace and the far-field constant; the interface map supplies every
    coupling block.  Returns (field, g, lam, u_inf).
    """
    n_trace = system.n_trace
    n_red = 2 * ops.n - 1
    if n_trace + n_red + 1 > MONOLITHIC_SIZE_LIMIT:
        raise SolverError("coupled system exceeds the desk-scale limit")
    imap = InterfaceMap(system, ops, f, u0)
    resp = imap.response
    Zinj = ops.injection
    # lam = -P flux  =>  (1/2 - K) g - V P (Z uhat + z_f) = 0, tested on
    # mean-zero densities
    VP = Zinj.T @ (ops.gram[:, None] * ops.V) @ resp.P
    A = sp.bmat([
        [system.matrix, -resp.B @ sp.csr_matrix(Zinj), -resp.B[:, :1]],
        [-sp.csr_matrix(VP) @ resp.Z, sp.csr_matrix(ops.reduced), None],
        [sp.csr_matrix(resp.arc_w[None, :]) @ resp.Z, None, None],
    ], format="csc")
    rhs = np.concatenate([imap.rhs0, VP @ imap.z_f, [-(resp.arc_w @ imap.z_f)]])
    x = spla.spsolve(A, rhs)
    if not np.all(np.isfinite(x)):
        raise SolverError("monolithic coupled solve produced non-finite values")
    uhat = x[:n_trace]
    g = TrigPolynomial.from_coefficients(Zinj @ x[n_trace:n_trace + n_red],
                                         mean_zero=True)
    u_inf = float(x[-1])
    field = system.recover(uhat, imap.f_mom)
    lam = resp.project(-imap.flux(uhat))
    return field, g, lam, u_inf
