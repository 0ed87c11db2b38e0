"""Relaxed alternating coupling of the interior and exterior solvers.

Both drivers work on one packed iterate x = (g coefficients, u_inf) of
length 2n + 1: g, the mean-zero part of the interface Dirichlet trace, and
the separately tracked far-field constant u_inf.  The interface datum is
c = g + u_inf e_0.  The interior solve with datum c on the interface is
affine in c, and so is its normal flux at the 2n density nodes:

    uhat = uhat0 + A^{-1} B c,    flux = flux0 + F c,    F = Z A^{-1} B,

with A the trace system matrix and uhat0 = A^{-1} rhs0 the solve for the
load and the inner datum alone.  ``InterfaceMap`` is this map, and its
``coupling_residual`` turns a flux into the residual
r(x) = (g - g_tilde, arc_w . flux) of the coupling conditions, where
g_tilde is the exterior trace of the negated projected flux.  ``HDGSystem``
owns B, Z and the load part z_f; ``LayerOperatorSet`` the arc weights and
the exterior solve.

``run_fixed_point`` steps x <- x - D r(x) with D = (omega, .., omega,
1/chi), a damped Richardson iteration, and ``monolithic_solve`` solves the
linear system r(x) = 0 by GMRES.  The constant mode cannot travel through
the mean-zero integral equation, so the last entry of D is an exact Newton
step on "total interface flux = 0", with chi the mean-flux response to a
unit constant datum.  The fixed point does not depend on D, so converged
answers do not depend on the relaxation weight.
"""

import numpy as np
import scipy.sparse.linalg as spla

from .bem import TrigPolynomial, solve_exterior
from .errors import DimensionError, DivergenceError, EstimationError, SolverError


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
        if not (float(max_iterations).is_integer() and max_iterations >= 1):
            raise ValueError(f"iteration cap must be a whole number >= 1, got {max_iterations}")
        if n is not None and not float(n).is_integer():
            raise ValueError(f"density degree must be a whole number, got {n}")
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
        self.field = None
        self.converged = False


def _datum(x):
    """Interface datum c = g + u_inf e_0 of the packed iterate x = (g, u_inf)."""
    c = x[:-1].copy()
    c[0] += x[-1]
    return c


class InterfaceResponse:
    """The f/u0-independent part of the interface map of one (system, ops).

    ``B`` (n_trace x 2n) maps density coefficients to the trace right-hand
    side (``HDGSystem.interface_operator``).  Row j of ``Z`` reads the
    normal flux at node j from the trace coefficients of the element that
    ``BoundaryMap.locate`` finds for it, and row j of ``Z_f`` reads it
    from that element's load moments (both from ``HDGSystem.point_flux``).

    ``solves`` counts, over all runs on the pair, the trace solves that the
    dense response could replace: the far-field response chi and each flux
    that ``InterfaceMap.apply`` solves for.  Once the count reaches n, half
    the column count of ``B``, one block solve of all 2n columns gives
    U = A^{-1} B and the dense response F = Z U (2n x 2n), so a flux then
    costs a small matvec instead of a sparse solve.  This is the
    ski-rental rule (Karlin et al., Algorithmica 3, 1988): rent single
    solves until they have cost what F costs, then buy F.  The block solve,
    in blocks of 8 columns (``HDGSystem.solve_trace``), costs about n
    single solves (perfbench workloads, one BLAS thread on a 2-core Xeon;
    per workload the medians of three runs of 9 rounds of n single solves
    and one block):

        workload       single solve   2n-column block          in single solves
        bump-sweep     2.7-3.7 ms     64 columns, 98-129 ms    1.08-1.22 n
        dipole-fine    5.8-8.5 ms     64 columns, 224-309 ms   1.01-1.20 n
        ellipse-near   4.3-6.6 ms     128 columns, 380-444 ms  1.05-1.45 n

    ``U`` is kept, n_trace x 2n doubles (11.8 MB on bump-sweep), so that
    the lift A^{-1} B c of a closing solve is a matvec.  ``zero_trace``
    keeps the latest uhat0 = A^{-1} rhs0 and its residual, which every map
    with the same f and u0 reuses.  The system keeps one response per
    operator set, built by the first ``InterfaceMap``.
    """

    def __init__(self, system, ops):
        self.system = system
        self.ops = ops
        self.B = system.interface_operator(ops.modes)
        self.Z, self.Z_f = system.point_flux(
            system.bmap.locate(ops.nodes), ops.curve.point(ops.nodes),
            ops.curve.normal(ops.nodes))
        self.solves = 0
        self.U = None
        self.F = None
        self.F_residual = None
        self._chi = None
        self._zero = None

    def solve(self, rhs):
        """Counted trace solve: coefficients and the relative residual."""
        self.solves += 1
        return self.system.solve_trace(rhs)

    def dense(self):
        """F once the solves on this pair reach n (built then), else None."""
        if self.F is None and self.solves >= self.ops.n:
            self.U, self.F_residual = self.solve(self.B.toarray())
            self.F = self.Z @ self.U
        return self.F

    def zero_trace(self, rhs0):
        """(uhat0, its residual): one uncounted solve of rhs0 unless it is bitwise the last."""
        if self._zero is None or self._zero[0].tobytes() != rhs0.tobytes():
            self._zero = rhs0.copy(), self.system.solve_trace(rhs0)
        return self._zero[1]

    @property
    def chi(self):
        """Mean-flux response to a unit constant datum (far-field channel)."""
        if self._chi is None:
            uhat, _ = self.solve(self.B @ np.eye(self.B.shape[1])[0])
            self._chi = float(self.ops.arc_w @ (self.Z @ uhat))
        return self._chi


class InterfaceMap:
    """The affine map from interface datum c to interior trace and flux:

        uhat = uhat0 + A^{-1} B c,    flux = flux0 + F c.

    ``rhs0`` carries the load f and the inner datum u0, ``z_f`` = Z_f f_mom
    is the load's direct part of each parent element's flux, and
    ``uhat0`` = A^{-1} rhs0, its solve's ``residual0`` and
    ``flux0`` = Z uhat0 + z_f are fixed when the map is built.  ``response``
    is the shared ``InterfaceResponse`` of (system, ops), which holds B, Z,
    U and F.  One lift c -> A^{-1} B c, U c once the response holds U and
    one trace solve before, serves ``linear`` (F c), ``apply``
    (flux0 + F c, counted until F exists) and ``trace_solve``.  The map
    keeps the last solved lift, keyed on the bytes of c: GMRES ends with a
    matvec at its answer, whose closing ``trace_solve`` then reuses it.
    """

    def __init__(self, system, ops, f=None, u0=None):
        self.ops = ops
        if ops not in system.interface_responses:
            system.interface_responses[ops] = InterfaceResponse(system, ops)
        self.response = system.interface_responses[ops]
        self.f_mom = system.disc.f_moments(f)
        self.rhs0 = system.rhs(self.f_mom, u0_gamma0=u0)
        self.z_f = self.response.Z_f @ self.f_mom.ravel()
        self.uhat0, self.residual0 = self.response.zero_trace(self.rhs0)
        self.flux0 = self.flux(self.uhat0)
        self._last_lift = None

    def _lift(self, c):
        """A^{-1} B c and the residual of the solve behind it: U c once the
        response holds U, else one trace solve unless c is bitwise the last."""
        resp = self.response
        if resp.U is not None:
            return resp.U @ c, resp.F_residual
        key = c.tobytes()
        if self._last_lift is None or self._last_lift[0] != key:
            self._last_lift = key, resp.system.solve_trace(resp.B @ c)
        return self._last_lift[1]

    def flux(self, uhat):
        """Flux samples of the interior trace uhat."""
        return self.response.Z @ uhat + self.z_f

    def linear(self, c):
        """F c, never counted, so that it alone never makes the response build F."""
        resp = self.response
        return resp.F @ c if resp.F is not None else resp.Z @ self._lift(c)[0]

    def apply(self, c):
        """flux0 + F c and the residual of the solve behind it.

        Until F exists the lift is one trace solve, which the response
        counts; served by F, the residual is that of F's worst column.
        """
        resp = self.response
        if resp.dense() is not None:
            return self.flux0 + resp.F @ c, resp.F_residual
        resp.solves += 1
        lift, residual = self._lift(c)
        return self.flux0 + resp.Z @ lift, residual

    def trace_solve(self, c):
        """Interior trace uhat0 + A^{-1} B c, its flux samples and its true residual.

        The residual |A uhat - rhs0 - B c| goes through the same check as a
        solve's (``HDGSystem.residual``).  The solve is not counted.
        """
        resp = self.response
        uhat = self.uhat0 + self._lift(c)[0]
        return uhat, self.flux(uhat), resp.system.residual(uhat, self.rhs0 + resp.B @ c)

    def coupling_residual(self, x, flux):
        """Residual r = (g - g_tilde, arc_w . flux) of x = (g, u_inf) under flux, and lam.

        lam is the negated projected flux, the Neumann density handed to
        the exterior solve, and g_tilde that solve's trace.
        """
        lam = self.ops.project(-flux)
        g_tilde = solve_exterior(self.ops, lam).coefficients()
        return np.append(x[:-1] - g_tilde, self.ops.arc_w @ flux), lam


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
    n2 = 2 * ops.n
    if config.n is not None and config.n != ops.n:
        raise DimensionError(f"configured density degree {config.n} does not "
                             f"match the operator set's {ops.n}")
    speed = ops.curve.mean_speed()
    imap = InterfaceMap(system, ops, f, u0)
    chi = imap.response.chi
    if abs(chi) < 1e-12:
        raise SolverError("degenerate far-field channel: zero flux response")

    state = CouplingState(ops.n)
    D = np.append(np.full(n2, config.omega), 1.0 / chi)
    x = np.zeros(n2 + 1)
    for it in range(1, config.max_iterations + 1):
        state.iteration = it
        # x starts at 0, whose flux is flux0
        flux, residual = imap.apply(_datum(x)) if it > 1 else (imap.flux0, imap.residual0)
        r, state.lam = imap.coupling_residual(x, flux)
        state.lambda_mean_max = max(state.lambda_mean_max,
                                    abs(ops.moments @ state.lam.coefficients()))
        step = D * r
        x = x - step
        update = TrigPolynomial.from_coefficients(_datum(step)).l2_norm(speed=speed)

        state.history.append(update)
        state.u_inf_history.append(float(x[n2]))
        state.residual_history.append(residual)
        trace = TrigPolynomial.from_coefficients(_datum(x)).l2_norm(speed=speed)
        if update <= config.tol * max(1.0, trace):
            state.converged = True
            break
    state.g, state.u_inf = TrigPolynomial.from_coefficients(x[:n2]), float(x[n2])
    if not state.converged:
        raise DivergenceError(
            f"no convergence in {config.max_iterations} iterations "
            f"(last update {state.history[-1]:.3e})", state=state)
    # the field and density of the converged trace, with its true residual
    uhat, flux, residual = imap.trace_solve(_datum(x))
    state.field = system.recover(uhat, imap.f_mom)
    state.lam = ops.project(-flux)
    state.residual_history.append(residual)
    return state


def write_iteration_log(state, path):
    """CSV rows (iter, update-norm, u_inf estimate, interior residual).

    One row per iteration.  The interior residual is that of the solve
    behind the iteration's flux: the solve of uhat0 in the first
    iteration, then the lift's solve of B c until the response holds F,
    and F's worst column after.  The closing solve of a converged run has
    no row: its true residual is the last entry of ``state.residual_history``.
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

    With flux = flux0 + F c, the residual r that ``run_fixed_point``
    steps on is affine in x = (g, u_inf), and r = 0 is the linear system

        r(x, F c) = -r(0, flux0),

    solved by full-memory GMRES over ``imap.linear`` (at most 2n + 1
    steps, so exact up to rounding).  GMRES ends with a matvec at its
    answer, whose lift the closing ``trace_solve`` reuses; it gives the
    field and the true residual of the answer, which must be below 1e-10
    of the right-hand side, or SolverError is raised with it.  No
    solve is counted, so the shared response's count, U and F stay as they
    are, and the map reuses the uhat0 that a run with the same f and u0
    left on it.  Returns (field, g, lam, u_inf).
    """
    n2 = 2 * ops.n
    imap = InterfaceMap(system, ops, f, u0)
    b = -imap.coupling_residual(np.zeros(n2 + 1), imap.flux0)[0]
    b_norm = np.linalg.norm(b)

    def matvec(x):
        return imap.coupling_residual(x, imap.linear(_datum(x)))[0]

    x, _ = spla.gmres(spla.LinearOperator((n2 + 1, n2 + 1), matvec=matvec), b,
                      rtol=1e-13, atol=0.0, restart=n2 + 1, maxiter=1)
    uhat, flux, _ = imap.trace_solve(_datum(x))
    r, lam = imap.coupling_residual(x, flux)
    r_norm = np.linalg.norm(r)
    if not r_norm <= 1e-10 * b_norm:
        raise SolverError(
            f"coupled GMRES did not solve the interface system: residual "
            f"{r_norm:.3e} against right-hand side {b_norm:.3e}")
    g = TrigPolynomial.from_coefficients(x[:n2])
    return system.recover(uhat, imap.f_mom), g, lam, float(x[n2])
