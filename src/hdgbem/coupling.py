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
supplies B, Z and Z_f, and ``LayerOperatorSet`` the arc weights and the
exterior solve.  Every flux F c, for both drivers and for chi, comes from
the span of solved directions that the map keeps (``InterfaceMap``), and
every closing trace, a run's and the oracle's, from the lifts of those
directions.

``run_fixed_point`` steps x <- x - D r(x) with D = (omega, .., omega,
1/chi), a damped Richardson iteration, and ``monolithic_solve`` solves the
linear system r(x) = 0 by a least-squares fit over that span, grown by the
fit's own residual.
The constant mode cannot travel through the mean-zero integral equation,
so the last entry of D is an exact Newton step on "total interface
flux = 0", with chi the mean-flux response to a unit constant datum.  The
fixed point does not depend on D, so converged answers do not depend on
the relaxation weight.
"""

import functools

import numpy as np

from .bem import TrigPolynomial, solve_exterior
from .errors import DimensionError, DivergenceError, EstimationError, SolverError
# perfbench calls and traces this writer as a coupling attribute
from .export import write_iteration_log  # noqa: F401

# A datum whose part outside the span of solved directions is at most
# SPAN_TOL of its norm is served from the span, with a flux error of at
# most |F| SPAN_TOL |c|.  Measured on the perfbench workloads after the two
# Gram-Schmidt passes: the leftover of data in the span is at most 4e-16 of
# them on dipole-fine and 3e-14 on ellipse-near, and new directions leave
# at least 1.6e-13 and 1.1e-12.  On bump-sweep's slowest run (omega 0.1)
# rounding makes the leftover creep from 5e-16 to 1.3e-13 over seven
# iterations, faster with direct solves; one solve then resets it.
SPAN_TOL = 1e-13


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


class InterfaceMap:
    """The interface map of one (system, operator set): the affine map from
    interface datum c to interior trace and flux,

        uhat = uhat0 + A^{-1} B c,    flux = flux0 + F c,    F = Z A^{-1} B.

    ``B`` (n_trace x 2n) maps density coefficients to the trace right-hand
    side (``HDGSystem.interface_operator``).  Row j of ``Z`` reads the
    normal flux at node j from the trace coefficients of the element that
    ``BoundaryMap.locate`` finds for it, and row j of ``Z_f`` reads it
    from that element's load moments (both from ``HDGSystem.point_flux``).

    Every flux F c and every trace comes from the span of the data
    directions solved so far: an orthonormal basis ``Q[:, :m]`` (2n x m),
    its fluxes ``FQ[:, :m]`` = F Q and ``lifts``, the list of the m
    solve outputs A^{-1} B q, kept as the solves return them.  ``_coords``
    projects c onto Q with two classical Gram-Schmidt passes.  If the part
    left over is at most SPAN_TOL |c|, c is served from its coordinates
    y = Q^T c: the flux ``span_flux`` is FQ y, a small matvec, and the
    trace ``trace_solve`` is uhat0 + sum_j y_j lifts[j].  Otherwise one
    trace solve of B q, for the normalized leftover q, appends a
    direction.  The relaxed iterates soon stop adding directions, so a
    run pays one solve per new direction, not one per iteration (Krylov
    subspace recycling: Parks et al., SIAM J. Sci. Comput. 28, 2006), and
    at m = 2n the span is F.  The oracle's residual directions extend it
    as well, and a later run or oracle reuses them.  The
    lifts hold m x n_trace doubles, at most 2n x n_trace; after a perfbench
    replay m is 7 to 19 and they hold 1.85 to 3.34 MiB.
    ``span_residual`` is the worst residual of the span's solves.

    ``load(f, u0)`` sets the load f and inner datum u0: their load moments
    ``f_mom``, ``rhs0``, ``uhat0`` = A^{-1} rhs0 with its solve's
    ``residual0``, ``z_f`` = Z_f f_mom, the load's direct part of each
    parent element's flux, and ``flux0`` = Z uhat0 + z_f.  The system
    keeps one map per operator set (``interface_map``), shared by every
    run on it.
    """

    def __init__(self, system, ops):
        self.system = system
        self.ops = ops
        self.B = system.interface_operator(ops.modes)
        self.Z, self.Z_f = system.point_flux(
            system.bmap.locate(ops.nodes), ops.curve.point(ops.nodes),
            ops.curve.normal(ops.nodes))
        n2 = self.B.shape[1]
        self.Q, self.FQ = np.empty((n2, n2)), np.empty((n2, n2))
        self.lifts = []
        self.m = 0
        self.span_residual = 0.0
        self._key = None

    def load(self, f, u0):
        """This map with load f and inner datum u0; returns the map.

        The latest load is kept while (f, u0) equals its key; else its
        moments, rhs0 and one solve of it replace it, but only once that
        solve has passed, so a failed load leaves the previous one in
        place.  f and u0 are taken to be pure functions (or constants), so
        that equal ones give equal data.  The key compares with ==, not
        identity: a bound method such as ``ManufacturedCase.u0`` is a new
        object on every access, and equal when its object and function are
        the same.
        """
        if self._key != (f, u0):
            f_mom = self.system.disc.f_moments(f)
            rhs0 = self.system.rhs(f_mom, u0_gamma0=u0)
            uhat0, residual0 = self.system.solve_trace(rhs0)
            self._key = (f, u0)
            self.f_mom, self.rhs0, self.uhat0, self.residual0 = f_mom, rhs0, uhat0, residual0
            self.z_f = self.Z_f @ f_mom.ravel()
            self.flux0 = self.flux(uhat0)
        return self

    @functools.cached_property
    def chi(self):
        """Mean-flux response to a unit constant datum (far-field channel)."""
        return float(self.ops.arc_w @ self.span_flux(np.eye(self.B.shape[1])[0]))

    def _coords(self, c):
        """Coordinates y of c in the span, c = Q[:, :m] y up to SPAN_TOL |c|,
        by two classical Gram-Schmidt passes; a c outside the span first
        extends it by one trace solve, for the direction of its leftover."""
        m = self.m
        Q = self.Q[:, :m]
        y = Q.T @ c
        r = c - Q @ y
        y2 = Q.T @ r
        r -= Q @ y2
        y += y2
        leftover = np.linalg.norm(r)
        if leftover <= SPAN_TOL * np.linalg.norm(c) or m == len(c):
            return y
        q = r / leftover
        lift, residual = self.system.solve_trace(self.B @ q)
        self.Q[:, m], self.FQ[:, m] = q, self.Z @ lift
        self.lifts.append(lift)
        self.m += 1
        self.span_residual = max(self.span_residual, residual)
        return np.append(y, leftover)

    def span_flux(self, c):
        """F c from the span of solved directions, which a c outside it
        extends by one trace solve."""
        y = self._coords(c)
        return self.FQ[:, :self.m] @ y

    def flux(self, uhat):
        """Flux samples of the interior trace uhat."""
        return self.Z @ uhat + self.z_f

    def apply(self, c):
        """flux0 + F c from the span, and the worst residual of the solves
        behind it, max(residual0, span_residual), the log's
        ``interior_residual``.  At c = 0 it returns flux0 with no solve."""
        return self.flux0 + self.span_flux(c), max(self.residual0, self.span_residual)

    def trace_solve(self, c):
        """Interior trace uhat = uhat0 + A^{-1} B c from the span's lifts,
        its flux samples Z uhat + z_f and its true residual for rhs0 + B c,
        checked by ``HDGSystem.residual`` (SolverError above 1e-8).  A c
        outside the span first extends it by one trace solve; one inside it
        costs none.  The flux comes from the lifts, not from FQ."""
        uhat = self.uhat0.copy()
        for y_j, lift in zip(self._coords(c), self.lifts):
            uhat += y_j * lift
        return uhat, self.flux(uhat), self.system.residual(uhat, self.rhs0 + self.B @ c)

    def coupling_residual(self, x, flux):
        """Residual r = (g - g_tilde, arc_w . flux) of x = (g, u_inf) under flux, and lam.

        lam is the negated projected flux, the Neumann density handed to
        the exterior solve, and g_tilde that solve's trace.
        """
        lam = self.ops.project(-flux)
        g_tilde = solve_exterior(self.ops, lam).coefficients()
        return np.append(x[:-1] - g_tilde, self.ops.arc_w @ flux), lam


def interface_map(system, ops, f=None, u0=None):
    """The system's one ``InterfaceMap`` for ``ops``, loaded with (f, u0)."""
    if ops not in system.interface_maps:
        system.interface_maps[ops] = InterfaceMap(system, ops)
    return system.interface_maps[ops].load(f, u0)


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
    imap = interface_map(system, ops, f, u0)
    chi = imap.chi
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
        update = TrigPolynomial(_datum(step)).l2_norm(speed=speed)

        state.history.append(update)
        state.u_inf_history.append(float(x[n2]))
        state.residual_history.append(residual)
        trace = TrigPolynomial(_datum(x)).l2_norm(speed=speed)
        if update <= config.tol * max(1.0, trace):
            state.converged = True
            break
    state.g, state.u_inf = TrigPolynomial(x[:n2]), float(x[n2])
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


# ---------------------------------------------------------------------------
# monolithic oracle
# ---------------------------------------------------------------------------

def monolithic_solve(system, ops, f=None, u0=None):
    """Solve interior, interface equation and flux compatibility at once.

    With flux = flux0 + F c, the residual r that ``run_fixed_point``
    steps on is affine in x = (g, u_inf) and linear in (x, flux), and
    r = 0 is the linear system

        J x = r(x, F C x) = b,    b = -r(0, flux0),

    solved by minimal residuals over the span of solved directions, grown
    by its own residual: GCR (Eisenstat, Elman & Schultz, SIAM J. Numer.
    Anal. 20, 1983) on a recycled subspace (Parks et al., SIAM J. Sci.
    Comput. 28, 2006).  The space W = {x : C x in span Q}, with
    C x = g + u_inf e_0 the datum, has the m + 1 columns [Q; 0] and, last,
    the kernel direction (-e_0, 1) of C; its images J W are m + 1 calls of
    ``coupling_residual`` on the span's fluxes FQ (0 for the kernel
    direction), with no trace solve, each computed once.  x = W y with y
    the least-squares fit of J W y to b.  If its residual r = b - J W y
    is above 1e-13 |b|, ``span_flux`` of the datum of r adds that
    direction to the span by one trace solve, and the fit is made again
    over the larger W.  The loop also stops once the span does not grow,
    because the datum of r lies in it already or m = 2n.  After a
    converged run or an oracle on the same system the span holds the
    answer, and the first fit makes no solve.  b = 0 gives x = 0.

    The answer's datum lies in the span by construction, so the closing
    ``trace_solve`` serves its trace from the lifts with no solve, and
    checks the trace's true residual.  Its flux, from that trace and not
    from FQ, gives the coupling residual of the answer, which must be at
    most 1e-10 |b|, or SolverError is raised with it; so a span whose
    fluxes FQ are not F Q cannot pass.  Returns (field, g, lam, u_inf).
    """
    n2 = 2 * ops.n
    imap = interface_map(system, ops, f, u0)

    def J(x, flux):
        return imap.coupling_residual(x, flux)[0]

    b = -J(np.zeros(n2 + 1), imap.flux0)
    b_norm = np.linalg.norm(b)
    x = np.zeros(n2 + 1)
    if b_norm > 0:
        kernel = np.zeros(n2 + 1)
        kernel[0], kernel[n2] = -1.0, 1.0
        images, kernel_image = [], J(kernel, np.zeros(n2))
        m = None
        while m != imap.m:               # until the span stops growing
            m = imap.m
            images += [J(np.append(imap.Q[:, j], 0.0), imap.FQ[:, j])
                       for j in range(len(images), m)]
            JW = np.column_stack(images + [kernel_image])
            y = np.linalg.lstsq(JW, b)[0]
            r = b - JW @ y
            if np.linalg.norm(r) > 1e-13 * b_norm:
                imap.span_flux(_datum(r))
        W = np.zeros((n2 + 1, m + 1))
        W[:n2, :m], W[:, m] = imap.Q[:, :m], kernel
        x = W @ y
    uhat, flux, _ = imap.trace_solve(_datum(x))
    r, lam = imap.coupling_residual(x, flux)
    r_norm = np.linalg.norm(r)
    if not r_norm <= 1e-10 * b_norm:
        raise SolverError(
            f"coupled oracle did not solve the interface system: residual "
            f"{r_norm:.3e} against right-hand side {b_norm:.3e}")
    g = TrigPolynomial(x[:n2])
    return system.recover(uhat, imap.f_mom), g, lam, float(x[n2])
