"""Relaxed alternating coupling of the interior and exterior solvers.

Both drivers work on one packed iterate x = (g coefficients, u_inf) of
length 2n + 1: g, the mean-zero part of the interface Dirichlet trace, and
the separately tracked far-field constant u_inf.  The interface datum is
c = g + u_inf e_0.  Both read one step from an ``InterfaceMap``:

  1. the flux: the interior solve with Dirichlet data c on the interface
     and the problem datum on the inner boundary, sampled as normal flux
     at the interface nodes (``apply``, or ``linear`` for its part F c);
  2. the coupling residual (``coupling_residual``): the negated flux,
     projected onto densities of zero arclength mean, is the exterior
     Neumann density lam, whose exterior trace g_tilde gives the residual
     r(x, flux) = (g - g_tilde, total flux) of the coupling conditions;
  3. the closing solve (``trace_solve``) of the final datum, which gives
     the interior trace for the field, the flux samples and the residual.

``run_fixed_point`` steps x <- x - D r with D = (omega, .., omega, 1/chi),
a damped Richardson iteration.  Each layer owns its part of the map:
``HDGSystem`` the data operator B, the point-flux map Z and its load part
z_f; ``LayerOperatorSet`` the node arc weights of the mean-flux integral
and the exterior solve.  The map's data-independent part, an
``InterfaceResponse``, is kept once per (system, operator set) and shared
by every run on it, so a sweep over weights pays for it once.  It counts
the trace solves that its dense form F could replace: the far-field
response and each flux of ``apply``.  Until the count reaches n a flux
costs one trace solve; then one block solve gives U = A^{-1} B and the
dense 2n x 2n F = Z U, and every later flux is a matvec.  The closing
solve needs the trace itself, so it is not counted; once U exists it is
uhat0 + U c, with a true residual check.  The iteration recovers the field
once, for the converged trace.

The constant mode cannot travel through the mean-zero integral equation,
so it is driven by the radiation-condition compatibility "total interface
flux = 0": its update, with the last entry 1/chi of D, is an exact
Newton step using the flux response chi to a unit constant datum (one
extra interior solve per response).  The fixed point r = 0 does not
depend on D, so converged answers do not depend on the relaxation weight.

``monolithic_solve`` is the equivalence oracle for the iteration's limit.
It solves the same residual r = 0 as one linear system on x by
full-memory GMRES over ``linear``: at most 2n + 1 steps, each one trace
solve on the existing factorization or a 2n x 2n matvec once the response
holds F.  It never builds F itself.
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
    solves until they have cost what F costs, then buy F.  The block solve
    costs about n single solves (perfbench workloads, one BLAS thread on a
    2-core Xeon, medians of rounds of n single solves and one block):

        workload       single solve   2n-column block          in single solves
        bump-sweep     4.5 ms         64 columns, 164-169 ms   1.15-1.18 n
        dipole-fine    7.5-8.0 ms     64 columns, 284-304 ms   1.18-1.19 n
        ellipse-near   5.9-6.7 ms     128 columns, 456-498 ms  1.16-1.21 n

    ``U`` is kept, n_trace x 2n doubles (11.8 MB on bump-sweep), so that a
    closing solve is a matvec (``InterfaceMap.trace_solve``).  So is the
    latest solve uhat0 = A^{-1} rhs0 of a map's load and inner datum
    (``zero_trace``): every run with the same f and u0 reuses it, and a
    run with other data replaces it, so one trace vector is kept.  The
    system keeps one response per operator set, built by the first
    ``InterfaceMap``.
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
        """uhat0 = A^{-1} rhs0, one uncounted solve unless rhs0 is bitwise the last one."""
        if self._zero is None or self._zero[0].tobytes() != rhs0.tobytes():
            self._zero = rhs0.copy(), self.system.solve_trace(rhs0)[0]
        return self._zero[1]

    @property
    def chi(self):
        """Mean-flux response to a unit constant datum (far-field channel)."""
        if self._chi is None:
            uhat, _ = self.solve(self.B @ np.eye(self.B.shape[1])[0])
            self._chi = float(self.ops.arc_w @ (self.Z @ uhat))
        return self._chi


class InterfaceMap:
    """One step of the coupling, from interface datum c to the exterior trace.

    With A the trace system matrix, the normal flux at the 2n density nodes
    for datum coefficients c is

        flux = Z A^{-1} (rhs0 + B c) + Z_f f_mom  =  flux0 + F c.

    ``response`` is the shared ``InterfaceResponse`` of (system, ops) that
    holds B, Z, Z_f, U and F, and ``ops`` the operator set; ``rhs0``
    carries the load f and the inner datum u0, and ``z_f`` = Z_f f_mom the
    load's direct part of each parent element's flux.  ``apply`` gives the
    flux with one counted trace solve until the response holds F, and with
    flux0 plus F c after that, where flux0 is the flux of uhat0, the
    response's solve of rhs0 (``InterfaceResponse.zero_trace``); ``linear``
    gives F c alone, never counted; ``coupling_residual`` is the residual
    both drivers read; ``trace_solve`` is the uncounted closing solve.
    """

    def __init__(self, system, ops, f=None, u0=None):
        self.ops = ops
        if ops not in system.interface_responses:
            system.interface_responses[ops] = InterfaceResponse(system, ops)
        self.response = system.interface_responses[ops]
        self.f_mom = system.disc.f_moments(f)
        self.rhs0 = system.rhs(self.f_mom, u0_gamma0=u0)
        self.z_f = self.response.Z_f @ self.f_mom.ravel()
        self._zero = None

    def _zero_datum(self):
        """(uhat0, flux0) of datum c = 0, from the response's solve of rhs0."""
        if self._zero is None:
            uhat0 = self.response.zero_trace(self.rhs0)
            self._zero = uhat0, self.flux(uhat0)
        return self._zero

    def trace_solve(self, c):
        """Interior trace for datum c, its flux samples and the solve's residual.

        Once the response holds U the trace is uhat0 + U c, and its true
        residual |A uhat - rhs| goes through the same check as a solve's
        (``HDGSystem.residual``); before, it is one trace solve.  The
        response counts this solve only when ``apply`` makes it.
        """
        resp = self.response
        rhs = self.rhs0 + resp.B @ c
        if resp.U is None:
            uhat, residual = resp.system.solve_trace(rhs)
        else:
            uhat = self._zero_datum()[0] + resp.U @ c
            residual = resp.system.residual(uhat, rhs)
        return uhat, self.flux(uhat), residual

    def flux(self, uhat):
        """Flux samples of the interior trace uhat."""
        return self.response.Z @ uhat + self.z_f

    def linear(self, c):
        """F c: flux samples of datum coefficients c, without load or u0.

        The linear part of the map.  Read from F when the response holds
        it; otherwise one trace solve that the response does not count, so
        that a caller of this method alone never makes the response build F.
        """
        resp = self.response
        if resp.F is not None:
            return resp.F @ c
        uhat, _ = resp.system.solve_trace(resp.B @ c)
        return resp.Z @ uhat

    def apply(self, c):
        """Flux samples for datum c and the residual of the solve behind them.

        Until F exists this is one trace solve, which the response counts.
        Served by F, the residual is that of F's worst column.
        """
        resp = self.response
        if resp.dense() is None:
            resp.solves += 1
            return self.trace_solve(c)[1:]
        return self._zero_datum()[1] + self.linear(c), resp.F_residual

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
        flux, residual = imap.apply(_datum(x))
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
    # the field and density of the converged trace, from a real trace solve
    uhat, flux, residual = imap.trace_solve(_datum(x))
    state.field = system.recover(uhat, imap.f_mom)
    state.lam = ops.project(-flux)
    state.residual_history.append(residual)
    return state


def write_iteration_log(state, path):
    """CSV rows (iter, update-norm, u_inf estimate, interior residual).

    One row per iteration.  The interior residual is that of the
    iteration's trace solve.  Once the counted trace solves on a (system,
    operators) pair, summed over runs, reach n, the dense interface
    response is built and serves every later iteration; those iterations
    log the largest column residual of its block solve.  The closing solve
    of a converged run has no row: its residual, the true residual of
    uhat0 + U c once the response holds U, is the last entry of
    ``state.residual_history``.
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

    The unknowns are x = (g coefficients, u_inf), with datum c = g + u_inf
    e_0.  The residual r(x, flux) = (g - g_tilde, arc_w . flux) that
    ``run_fixed_point`` steps on, ``imap.coupling_residual``, makes the
    coupled system r(x, flux0 + F c) = 0 linear:

        r(x, F c) = -r(0, flux0),

    with F c = ``imap.linear(c)`` and flux0 the flux of the load and inner
    datum alone.  It is solved by GMRES with full memory (2n + 1 steps at
    most, so exact up to rounding).  The true residual of the answer, read
    from the closing trace solve that also gives the field, must be below
    1e-10 of the right-hand side, or SolverError is raised with it.  Trace
    solves go to the system uncounted: flux0 (none when a run with the same
    f and u0 has left uhat0 on the response), one per GMRES step until F
    exists, the closing residual of GMRES and the field (uhat0 + U c, with
    its true residual, when a sweep has built U); the shared response's
    solve count, U and F stay as they are.  Returns (field, g, lam, u_inf).
    """
    n2 = 2 * ops.n
    imap = InterfaceMap(system, ops, f, u0)
    b = -imap.coupling_residual(np.zeros(n2 + 1), imap._zero_datum()[1])[0]
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
