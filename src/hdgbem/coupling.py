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

Until the dense F is built (``InterfaceResponse.dense``), fluxes come
from the span of the data directions solved so far: an orthonormal basis
Q of those directions and their fluxes F Q.  A datum within SPAN_TOL of
the span costs a small matvec, and one outside it one trace solve, which
adds its direction.  The span keeps fluxes, 2n long, rather than lifts
A^{-1} B Q, n_trace long, since the iteration needs only fluxes.
SPAN_TOL = 1e-13 lies above the leftover of data in the span (at most
3e-14 on dipole-fine and ellipse-near) and below the new directions of
those runs (at least 1.6e-13).  Until F exists, the ``interior_residual``
column of the iteration log holds the worst residual of the span's solves.

``run_fixed_point`` steps x <- x - D r(x) with D = (omega, .., omega,
1/chi), a damped Richardson iteration, and ``monolithic_solve`` solves the
linear system r(x) = 0 by GMRES augmented by the span of solved
directions, whose fluxes cost no solve: after a converged run the span
holds the answer, and the oracle's one trace solve is its closing one.
The constant mode cannot travel through the mean-zero integral equation,
so the last entry of D is an exact Newton step on "total interface
flux = 0", with chi the mean-flux response to a unit constant datum.  The
fixed point does not depend on D, so converged answers do not depend on
the relaxation weight.
"""

import numpy as np

from .bem import TrigPolynomial, solve_exterior
from .errors import DimensionError, DivergenceError, EstimationError, SolverError

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


class InterfaceResponse:
    """The f/u0-independent part of the interface map of one (system, ops).

    ``B`` (n_trace x 2n) maps density coefficients to the trace right-hand
    side (``HDGSystem.interface_operator``).  Row j of ``Z`` reads the
    normal flux at node j from the trace coefficients of the element that
    ``BoundaryMap.locate`` finds for it, and row j of ``Z_f`` reads it
    from that element's load moments (both from ``HDGSystem.point_flux``).

    Until the dense response F = Z A^{-1} B exists, fluxes come from the
    span of the data directions solved so far: an orthonormal basis
    ``Q[:, :m]`` (2n x m) and its fluxes ``FQ[:, :m]`` = F Q.
    ``span_flux`` projects a datum c onto Q with two classical Gram-Schmidt
    passes.  If the part left over is at most SPAN_TOL |c|, the flux is
    FQ Q^T c, a small matvec; otherwise one trace solve of B q, for the
    normalized leftover q, appends a column.  The relaxed iterates soon
    stop adding directions, so a run pays one solve per new direction, not
    one per iteration (Krylov subspace recycling: Parks et al., SIAM J.
    Sci. Comput. 28, 2006).  SPAN_TOL = 1e-13 lies above the leftover of
    data in the span (at most 3e-14) and below new directions (at least
    1.6e-13) on dipole-fine and ellipse-near (see its comment).  The span
    keeps fluxes, 2n long, not lifts A^{-1} B q, n_trace long: those would
    add up to n_trace x 2n doubles more, as much as U, and the only lift a
    run needs, that of its converged datum, is one solve.
    ``span_residual`` is the worst residual of the span's solves, which
    the ``interior_residual`` column of the iteration log holds until F
    exists.

    ``solves`` counts, over all runs on the pair, the flux requests that
    the dense response could replace: the far-field response chi and each
    ``InterfaceMap.apply``, whether the span serves it or not.  Once the
    count reaches n, half the column count of ``B``, one block solve of
    all 2n columns gives U = A^{-1} B and F = Z U (2n x 2n), so a flux
    then costs a small matvec whatever its direction.  This is the
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
        n2 = self.B.shape[1]
        self.Q, self.FQ = np.empty((n2, n2)), np.empty((n2, n2))
        self.m = 0
        self.span_residual = 0.0
        self.solves = 0
        self.U = None
        self.F = None
        self.F_residual = None
        self._chi = None
        self._zero = None

    def dense(self):
        """F once the counted requests on this pair reach n (built then), else None."""
        if self.F is None and self.solves >= self.ops.n:
            self.solves += 1
            self.U, self.F_residual = self.system.solve_trace(self.B.toarray())
            self.F = self.Z @ self.U
        return self.F

    def span_flux(self, c, extend=True):
        """F c from the span of solved directions, which a c outside it
        extends by one trace solve; None for such a c when not ``extend``."""
        m = self.m
        Q = self.Q[:, :m]
        y = Q.T @ c
        r = c - Q @ y
        y2 = Q.T @ r
        r -= Q @ y2
        y += y2
        leftover = np.linalg.norm(r)
        if leftover <= SPAN_TOL * np.linalg.norm(c) or m == len(c):
            return self.FQ[:, :m] @ y
        if not extend:
            return None
        self.Q[:, m] = r / leftover
        lift, residual = self.system.solve_trace(self.B @ self.Q[:, m])
        self.FQ[:, m] = self.Z @ lift
        self.m += 1
        self.span_residual = max(self.span_residual, residual)
        return self.FQ[:, :m + 1] @ np.append(y, leftover)

    def zero_trace(self, rhs0):
        """(uhat0, its residual): one uncounted solve of rhs0 unless it is bitwise the last."""
        if self._zero is None or self._zero[0].tobytes() != rhs0.tobytes():
            self._zero = rhs0.copy(), self.system.solve_trace(rhs0)
        return self._zero[1]

    @property
    def chi(self):
        """Mean-flux response to a unit constant datum (far-field channel), counted."""
        if self._chi is None:
            self.solves += 1
            self._chi = float(self.ops.arc_w @ self.span_flux(np.eye(self.B.shape[1])[0]))
        return self._chi


class InterfaceMap:
    """The affine map from interface datum c to interior trace and flux:

        uhat = uhat0 + A^{-1} B c,    flux = flux0 + F c.

    ``rhs0`` carries the load f and the inner datum u0, ``z_f`` = Z_f f_mom
    is the load's direct part of each parent element's flux, and
    ``uhat0`` = A^{-1} rhs0, its solve's ``residual0`` and
    ``flux0`` = Z uhat0 + z_f are fixed when the map is built.  ``response``
    is the shared ``InterfaceResponse`` of (system, ops), which holds B, Z,
    the span of solved directions (Q, FQ = F Q) and, once built, U and F.

    ``apply`` (flux0 + F c, counted until F exists) reads F, else the span,
    which a c more than SPAN_TOL = 1e-13 outside it (data in it leave at
    most 3e-14 on dipole-fine and ellipse-near) extends by one solve, and
    reports the worst residual of the span's solves, the log's
    ``interior_residual`` until F exists.  The span holds fluxes, not
    n_trace-long lifts, since the iteration needs only fluxes, so it
    cannot serve a trace.

    ``linear`` (F c, for the oracle) reads F or the span but never extends
    the span: GMRES's late Arnoldi vectors are rounding-noise directions,
    each of which would cost a solve and stay in the span for every later
    request.  Outside the span it makes one trace solve of B c and keeps
    nothing of it.  ``trace_solve`` solves the lift c -> A^{-1} B c, U c
    once the response holds U, else one trace solve.
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

    def flux(self, uhat):
        """Flux samples of the interior trace uhat."""
        return self.response.Z @ uhat + self.z_f

    def linear(self, c):
        """F c, never counted and never extending the span, so that it alone
        never makes the response build F or grow: F c or the span's flux,
        else one trace solve."""
        resp = self.response
        if resp.F is not None:
            return resp.F @ c
        flux = resp.span_flux(c, extend=False)
        return flux if flux is not None else resp.Z @ resp.system.solve_trace(resp.B @ c)[0]

    def apply(self, c):
        """flux0 + F c and the residual of the solves behind it.

        The request is counted until F exists.  Until then the flux comes
        from the span, which c may extend by one solve, and the residual is
        the worst of the span's solves; served by F, that of F's worst
        column.
        """
        resp = self.response
        if resp.dense() is not None:
            return self.flux0 + resp.F @ c, resp.F_residual
        resp.solves += 1
        flux = self.flux0 + resp.span_flux(c)
        return flux, resp.span_residual

    def trace_solve(self, c):
        """Interior trace uhat0 + A^{-1} B c, its flux samples and its true residual.

        The residual |A uhat - rhs0 - B c| goes through the same check as a
        solve's (``HDGSystem.residual``).  The solve is not counted.
        """
        resp = self.response
        uhat = self.uhat0 + (resp.U @ c if resp.U is not None
                             else resp.system.solve_trace(resp.B @ c)[0])
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

    One row per iteration.  The interior residual is that of the solves
    behind the iteration's flux: the solve of uhat0 in the first
    iteration; then, until the response holds F, the worst residual of
    the solves behind the span of data directions that serves the flux
    (the span keeps the fluxes of those directions, not their lifts, since
    the iteration needs only fluxes, and serves a datum within
    SPAN_TOL = 1e-13 of it, above the at most 3e-14 that data in the span
    leave on dipole-fine and ellipse-near); and F's worst column after.  The
    closing solve of a converged run has no row: its true residual is the
    last entry of ``state.residual_history``.
    """
    with open(path, "w") as fh:
        fh.write("iter,update_norm,u_inf,interior_residual\n")
        for i, (upd, u_inf, res) in enumerate(zip(
                state.history, state.u_inf_history, state.residual_history), 1):
            fh.write(f"{i},{upd:.17e},{u_inf:.17e},{res:.3e}\n")


# ---------------------------------------------------------------------------
# monolithic oracle
# ---------------------------------------------------------------------------

def _orth(B, v):
    """v less its projection on the orthonormal columns of B, by two passes."""
    v = v - B @ (B.T @ v)
    return v - B @ (B.T @ v)


def monolithic_solve(system, ops, f=None, u0=None):
    """Solve interior, interface equation and flux compatibility at once.

    With flux = flux0 + F c, the residual r that ``run_fixed_point``
    steps on is affine in x = (g, u_inf) and linear in (x, flux), and
    r = 0 is the linear system

        J x = r(x, F C x) = b,    b = -r(0, flux0),

    solved by GMRES augmented by the span of solved directions (Saad, SIAM
    J. Matrix Anal. Appl. 18, 1997).  The augmentation space
    W = {x : C x in span Q}, with C x = g + u_inf e_0 the datum, has the
    m + 1 columns [Q; 0] and the kernel direction (-e_0, 1) of C; its
    images J W are m + 1 calls of ``coupling_residual`` on the span's
    fluxes FQ (0 for the kernel direction), with no trace solve.  Arnoldi
    runs on J from b, as plain GMRES does, so the Krylov vectors are
    plain GMRES's, and after k = 0, 1, .. matvecs x minimizes |b - J x|
    over W + K_k(J, b).  The images are orthonormalized as they come (an
    image within SPAN_TOL of the earlier ones adds none, which can only
    overstate the minimum), so the minimum is the norm of what is left of
    b after projecting it on them.  The loop stops once that is at most
    1e-13 |b|, at k = 2n + 1, or at an Arnoldi breakdown, and x is then
    one small least-squares solve over the images.  The search space
    contains plain GMRES's, so the loop never takes more Krylov steps, and
    each step's matvec ``imap.linear`` is the one plain GMRES makes: at
    most one trace solve, none in the span or once F exists.  After a
    converged run the span holds the answer, and the loop stops at k = 0.
    b = 0 gives x = 0.

    No matvec is made at the answer, so the closing ``trace_solve`` is a
    solve of its own (U c once U exists).  It gives the field and the true
    residual of the answer, which must be at most 1e-10 |b|, or
    SolverError is raised with it; so a span whose fluxes FQ are not F Q
    cannot pass.  No solve is counted and the span is read but not
    extended, so the shared response's count, span, U and F stay as they
    are, and the map reuses the uhat0 that a run with the same f and u0
    left on it.  Returns (field, g, lam, u_inf).
    """
    n2 = 2 * ops.n
    imap = InterfaceMap(system, ops, f, u0)
    resp, m = imap.response, imap.response.m

    def J(x, flux):
        return imap.coupling_residual(x, flux)[0]

    b = -J(np.zeros(n2 + 1), imap.flux0)
    b_norm = np.linalg.norm(b)
    x = np.zeros(n2 + 1)
    if b_norm > 0:
        W = np.zeros((n2 + 1, m + 1))
        W[:n2, :m] = resp.Q[:, :m]
        W[0, m], W[n2, m] = -1.0, 1.0
        JW = np.column_stack([J(W[:, j], resp.FQ[:, j]) for j in range(m)]
                             + [J(W[:, m], np.zeros(n2))])
        O = np.linalg.qr(JW)[0]          # orthonormal basis of the images
        left = _orth(O, b)               # b less its best fit by them
        V, JV = [b / b_norm], []         # Krylov vectors and their images
        while np.linalg.norm(left) > 1e-13 * b_norm and len(JV) <= n2:
            JV.append(J(V[-1], imap.linear(_datum(V[-1]))))
            w = _orth(np.column_stack(V), JV[-1])
            o = _orth(O, JV[-1])
            o_norm = np.linalg.norm(o)
            if o_norm > SPAN_TOL * np.linalg.norm(JV[-1]):
                O = np.column_stack([O, o / o_norm])
                left = _orth(O[:, -1:], left)
            if not np.linalg.norm(w) > 0:    # Arnoldi breakdown: K is invariant
                break
            V.append(w / np.linalg.norm(w))
        coef = np.linalg.lstsq(np.column_stack([JW] + JV), b)[0]
        x = np.column_stack([W] + V[:len(JV)]) @ coef
    uhat, flux, _ = imap.trace_solve(_datum(x))
    r, lam = imap.coupling_residual(x, flux)
    r_norm = np.linalg.norm(r)
    if not r_norm <= 1e-10 * b_norm:
        raise SolverError(
            f"coupled GMRES did not solve the interface system: residual "
            f"{r_norm:.3e} against right-hand side {b_norm:.3e}")
    g = TrigPolynomial.from_coefficients(x[:n2])
    return system.recover(uhat, imap.f_mom), g, lam, float(x[n2])
