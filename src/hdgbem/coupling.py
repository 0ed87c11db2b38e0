"""Relaxed alternating coupling of the interior and exterior solvers.

One cycle maps the interface Dirichlet trace g (a mean-zero trigonometric
polynomial plus a separately tracked far-field constant) to a new trace:

  1. solve the interior problem with Dirichlet data g + u_inf on the
     interface and the problem datum on the inner boundary;
  2. sample the interior normal flux at the interface nodes, project it
     with the operator set's ``project`` onto densities of zero arclength
     mean and flip the sign to obtain the exterior Neumann density, then
     solve the boundary integral equation for the new trace;
  3. relax:  g  <-  omega * g_tilde + (1 - omega) * g.

Steps 1 and 2 up to the exterior solve are one ``InterfaceMap``: an affine
map from interface data to flux samples that recovers no element field.
Each layer owns its part of it: ``HDGSystem`` the data operator B, the
point-flux map Z and its load part z_f; ``LayerOperatorSet`` the node arc
weights of the mean-flux integral and ``trace_from_flux``, the exterior
trace of flux samples, which ``monolithic_solve`` uses as its g-block.
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

from .bem import TrigPolynomial, solve_exterior
from .errors import DimensionError, DivergenceError, EstimationError, SolverError

# largest bordered system (trace, interface trace and far-field unknowns)
# that monolithic_solve factors directly
MONOLITHIC_SIZE_LIMIT = 400000


class CouplingConfig:
    """Iteration controls: relaxation weight, cap, tolerance, density degree.

    ``n=None`` takes the degree of the operator set the run is given; any
    other value must equal it.  Every run starts from g = 0 and u_inf = 0.
    """

    def __init__(self, omega=0.5, max_iterations=100, tol=1e-8, n=None):
        if not 0.0 < omega <= 1.0:
            raise ValueError(f"relaxation weight must lie in (0, 1], got {omega}")
        if not 0.0 < tol < np.inf:
            raise ValueError(f"tolerance must be positive and finite, got {tol}")
        if max_iterations < 1:
            raise ValueError(f"iteration cap must be at least 1, got {max_iterations}")
        self.omega = float(omega)
        self.max_iterations = int(max_iterations)
        self.tol = float(tol)
        self.n = None if n is None else int(n)


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

    ``B`` (n_trace x 2n) maps density coefficients to the trace right-hand
    side (``HDGSystem.interface_operator``).  Row j of ``Z`` reads the
    normal flux at node j from the trace coefficients of the element that
    ``BoundaryMap.locate`` finds for it (``HDGSystem.point_flux``, which
    also gives ``flux_load``, the part of element loads).

    Every trace solve made through it is counted, over all runs on the
    pair.  Once the count reaches 2n, the column count of ``B``, one block
    solve builds the dense response F = Z A^{-1} B (2n x 2n), so a flux then
    costs a small matvec instead of a sparse solve: F is bought only after
    the one-solve path has spent as many solves as F costs columns.  The
    system keeps one per operator set, built by the first ``InterfaceMap``.
    """

    def __init__(self, system, ops):
        self.system = system
        self.ops = ops
        self.B = system.interface_operator(ops.modes)
        self.Z, self.flux_load = system.point_flux(
            system.bmap.locate(ops.nodes), ops.curve.point(ops.nodes),
            ops.curve.normal(ops.nodes))
        self.solves = 0
        self.F = None
        self.F_residual = None
        self._chi = None

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

    @property
    def chi(self):
        """Mean-flux response to a unit constant datum (far-field channel)."""
        if self._chi is None:
            uhat, _ = self.solve(self.data(TrigPolynomial.zero(self.ops.n), 1.0))
            self._chi = float(self.ops.arc_w @ (self.Z @ uhat))
        return self._chi


class InterfaceMap:
    """Affine map from interface data (g, u_inf) to interface flux samples.

    With c the packed coefficients of g + u_inf and A the trace system
    matrix, the normal flux at the 2n density nodes is

        flux = Z A^{-1} (rhs0 + B c) + z_f  =  flux0 + F c.

    ``response`` is the shared ``InterfaceResponse`` of (system, ops) that
    holds B, Z and F, and ``ops`` the operator set; ``rhs0`` carries the
    load f and the inner datum u0, ``z_f`` adds each parent element's
    particular solution.  ``apply`` applies the map with one trace solve
    until the response holds F, and with ``flux0`` (one solve, on first
    use) plus F c after that.
    """

    def __init__(self, system, ops, f=None, u0=None):
        self.ops = ops
        if ops not in system.interface_responses:
            system.interface_responses[ops] = InterfaceResponse(system, ops)
        self.response = system.interface_responses[ops]
        self.f_mom = system.disc.f_moments(f)
        self.rhs0 = system.rhs(self.f_mom, u0_gamma0=u0)
        self.z_f = self.response.flux_load(self.f_mom)
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
    return imap.ops.project(-samples), float(imap.ops.arc_w @ samples), residual


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
    config = config or CouplingConfig()
    n = ops.n
    if config.n is not None and config.n != n:
        raise DimensionError(f"configured density degree {config.n} does not "
                             f"match the operator set's {n}")
    speed = ops.curve.mean_speed()
    imap = InterfaceMap(system, ops, f, u0)
    chi = imap.response.chi
    if abs(chi) < 1e-12:
        raise SolverError("degenerate far-field channel: zero flux response")

    state = CouplingState(n)
    state.omega = config.omega
    g, u_inf = TrigPolynomial.zero(n), 0.0
    omega = config.omega
    for it in range(1, config.max_iterations + 1):
        state.iteration = it
        lam, mflux, lin_res = dtn_step(imap, g, u_inf)
        state.lambda_mean_max = max(state.lambda_mean_max,
                                    abs(ops.moments @ lam.coefficients()))
        g_tilde = solve_exterior(ops, lam)
        u_inf_new = u_inf - mflux / chi
        g_new = omega * g_tilde + (1.0 - omega) * g
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
    state.lam = ops.project(-samples)
    state.mean_flux = float(ops.arc_w @ samples)
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
        for i, (upd, u_inf, res) in enumerate(zip(
                state.history, state.u_inf_history, state.residual_history), 1):
            fh.write(f"{i},{upd:.17e},{u_inf:.17e},{res:.3e}\n")


# ---------------------------------------------------------------------------
# monolithic oracle
# ---------------------------------------------------------------------------

def monolithic_solve(system, ops, f=None, u0=None):
    """Solve interior, interface equation and flux compatibility at once.

    Unknowns are the interior trace coefficients, the 2n coefficients of
    the interface trace g and the far-field constant; the interface map
    supplies the interior blocks and the operator set's ``trace_from_flux``
    T the exterior one, g = T flux.  Returns (field, g, lam, u_inf).
    """
    n_trace, n2 = system.n_trace, 2 * ops.n
    if n_trace + n2 + 1 > MONOLITHIC_SIZE_LIMIT:
        raise SolverError("coupled system exceeds the desk-scale limit")
    imap = InterfaceMap(system, ops, f, u0)
    resp = imap.response
    T = ops.trace_from_flux
    A = sp.bmat([
        [system.matrix, -resp.B, -resp.B[:, :1]],
        [-sp.csr_matrix(T) @ resp.Z, sp.identity(n2), None],
        [sp.csr_matrix(ops.arc_w[None, :]) @ resp.Z, None, None],
    ], format="csc")
    rhs = np.concatenate([imap.rhs0, T @ imap.z_f, [-(ops.arc_w @ imap.z_f)]])
    x = spla.spsolve(A, rhs)
    if not np.all(np.isfinite(x)):
        raise SolverError("monolithic coupled solve produced non-finite values")
    uhat = x[:n_trace]
    g = TrigPolynomial.from_coefficients(x[n_trace:n_trace + n2])
    u_inf = float(x[-1])
    field = system.recover(uhat, imap.f_mom)
    lam = ops.project(-imap.flux(uhat))
    return field, g, lam, u_inf
