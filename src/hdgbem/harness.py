"""Manufactured solutions, convergence studies and relaxation sweeps.

The manufactured cases live on the annulus between circles of radius 1/2
and 1.  The workhorse is a dipole field x . d / |x|^2 (optionally plus a
constant), which is harmonic off the origin, decays to its constant at
infinity, and has the closed interface traces

    g(theta) = cos(theta),   flux q . n = cos(theta),
    exterior Neumann density = -cos(theta),   u_inf = c.

A variable-coefficient variant multiplies the identity by a radial bump
compactly supported inside the annulus (the source term follows in closed
form), and polynomial cases exercise the discrete-exactness paths.
"""

import numpy as np

from .bem import assemble_layer_operators
from .coupling import (
    CouplingConfig,
    estimate_contraction,
    run_fixed_point,
)
from .errors import DivergenceError
# perfbench calls and traces this writer as a harness attribute
from .export import write_sweep_csv  # noqa: F401
from .geometry import (
    Curve,
    build_annulus_mesh,
    build_boundary_map,
    proximity_parameter,
)
from .hdg import MaterialField, build_system, l2_errors, solve_interior

CASE_IDS = ("dipole", "dipole-plus-constant", "variable-kappa-bump",
            "polynomial-patch")


class ManufacturedCase:
    """Exact solution bundle: fields, induced data and interface traces."""

    def __init__(self, case_id, kappa, f, u, q, grad_u, u_inf, gamma, gamma0,
                 supports_coupling, description=""):
        self.id = case_id
        self.kappa = kappa
        self.f = f
        self.u = u
        self.q = q
        self.grad_u = grad_u
        self.u_inf = u_inf
        self.gamma = gamma
        self.gamma0 = gamma0
        self.supports_coupling = supports_coupling
        self.description = description

    def u0(self, pts):
        """Dirichlet datum on the inner problem boundary."""
        return self.u(pts)

    def g_exact(self, ops):
        """Mean-zero part of the exact interface trace, as ``ops`` projects it."""
        return ops.project(self.u(self.gamma.point(ops.nodes)))

    def lam_exact(self, ops):
        """Exterior Neumann density: projected negated interface normal flux."""
        t = ops.nodes
        return ops.project(-np.einsum("pd,pd->p", self.q(self.gamma.point(t)),
                                      self.gamma.normal(t)))


def _bump(r):
    # kappa - 1 = 0.3 exp(1 - 1/(1 - z^2)) on 0.55 < r < 0.95, and its r-derivative;
    # complex-step safe: the support test uses the real part only
    mid, half = 0.75, 0.5 * (0.95 - 0.55)
    z = (r - mid) / half
    inside = np.abs(np.real(z)) < 1.0
    zi = np.where(inside, z, 0.0)
    body = 0.3 * np.exp(1.0 - 1.0 / (1.0 - zi ** 2))
    zero = np.zeros_like(z)
    return (np.where(inside, body, zero),
            np.where(inside, body * (-2.0 * zi / (1.0 - zi ** 2) ** 2) / half, zero))


def manufactured_case(case_id, degree=1, constant=None):
    """Build one of the named verification cases.

    ``degree`` selects the polynomial for the patch case: x for 1, x^2 for
    any whole degree >= 2, and ValueError otherwise; ``constant`` is
    the far-field constant of the plus-constant and bump variants, None for
    their own (3.0 and 1.0).
    """
    gamma = Curve.circle((0.0, 0.0), 1.0)
    gamma0 = Curve.circle((0.0, 0.0), 0.5)

    if case_id in ("dipole", "dipole-plus-constant", "variable-kappa-bump"):
        c = {"dipole": 0.0, "dipole-plus-constant": 3.0,
             "variable-kappa-bump": 1.0}[case_id]
        if constant is not None and case_id != "dipole":
            c = float(constant)

        def u(p):
            p = np.atleast_2d(p)
            return p[:, 0] / (p[:, 0] ** 2 + p[:, 1] ** 2) + c

        def grad_u(p):
            p = np.atleast_2d(p)
            r2 = p[:, 0] ** 2 + p[:, 1] ** 2
            return np.column_stack([(p[:, 1] ** 2 - p[:, 0] ** 2) / r2 ** 2,
                                    -2.0 * p[:, 0] * p[:, 1] / r2 ** 2])

        if case_id == "variable-kappa-bump":
            def kval(p):
                p = np.atleast_2d(p)
                r = np.sqrt(p[:, 0] ** 2 + p[:, 1] ** 2)   # analytic radius
                return 1.0 + _bump(r)[0]

            kappa = MaterialField(lambda p: np.real(kval(p)))

            def q(p):
                return -kval(p)[:, None] * grad_u(p)

            def f(p):
                # div q = kappa'(r) cos(theta)/r^2 for the radial coefficient
                p = np.atleast_2d(p)
                r = np.sqrt(p[:, 0] ** 2 + p[:, 1] ** 2)
                return _bump(r)[1] * (p[:, 0] / r) / r ** 2
        else:
            kappa = MaterialField.identity()

            def q(p):
                return -grad_u(p)

            f = None
        return ManufacturedCase(case_id, kappa, f, u, q, grad_u, c, gamma,
                                gamma0, supports_coupling=True,
                                description="dipole-type exterior field")

    if case_id == "polynomial-patch":
        if not (float(degree).is_integer() and degree >= 1):
            raise ValueError(f"polynomial degree must be a whole number >= 1, got {degree}")
        if degree == 1:
            u = lambda p: np.atleast_2d(p)[:, 0]
            grad_u = lambda p: np.tile([1.0, 0.0], (len(np.atleast_2d(p)), 1))
            f = None
        else:
            u = lambda p: np.atleast_2d(p)[:, 0] ** 2
            grad_u = lambda p: np.column_stack(
                [2.0 * np.atleast_2d(p)[:, 0], np.zeros(len(np.atleast_2d(p)))])
            f = -2.0
        q = lambda p: -np.asarray(grad_u(p))
        return ManufacturedCase("polynomial-patch", MaterialField.identity(),
                                f, u, q, grad_u, 0.0, gamma, gamma0,
                                supports_coupling=False,
                                description=f"global degree-{min(int(degree), 2)} polynomial")
    raise KeyError(f"unknown case id {case_id!r}; choose from {CASE_IDS}")


# ---------------------------------------------------------------------------
# level setup
# ---------------------------------------------------------------------------

class SolverBundle:
    """Everything needed to solve one refinement level."""

    def __init__(self, mesh, bmap, system, ops, proximity):
        self.mesh = mesh
        self.bmap = bmap
        self.system = system
        self.ops = ops
        self.proximity = proximity


def setup_level(case, target_h, k, n=32, fitted=False):
    """Mesh, degree-k boundary map, trace system (stabilization ``hdg.TAU``)
    and layer operators for one level; the system and the proximity report
    read the mesh, curves and degree from the map.  The layer operators
    come first, so a density degree they refuse costs no mesh."""
    ops = assemble_layer_operators(case.gamma, n)
    mesh = build_annulus_mesh(case.gamma, case.gamma0, target_h, fitted=fitted)
    bmap = build_boundary_map(mesh, case.gamma, case.gamma0, k)
    system = build_system(bmap, case.kappa)
    return SolverBundle(mesh, bmap, system, ops, proximity_parameter(bmap))


# ---------------------------------------------------------------------------
# study report
# ---------------------------------------------------------------------------

_MACHINE_FLOOR = 1e-12


class StudyReport:
    """Per-level errors plus successive log2 rates between halved levels."""

    columns = ("level", "h", "R_h", "err_q", "err_u", "rate_q", "rate_u",
               "iters", "ratio")

    def __init__(self, case_id, k, n):
        self.case_id = case_id
        self.k = k
        self.n = n
        self.rows = []

    def rate(self, key, i):
        """log2 error ratio between rows i-1 and i; None when not defined."""
        if i == 0:
            return None
        e0, e1 = self.rows[i - 1][key], self.rows[i][key]
        if not (np.isfinite(e0) and np.isfinite(e1)):
            return None
        if e0 < _MACHINE_FLOOR or e1 < _MACHINE_FLOOR:
            return None      # exactness regime, rate meaningless
        return float(np.log2(e0 / e1))

    def summary(self):
        lines = [f"case={self.case_id} k={self.k} n={self.n}",
                 "level      h        R_h      err_q      err_u    rate_q rate_u iters  ratio"]
        for i, row in enumerate(self.rows):
            rq = self.rate("err_q", i)
            ru = self.rate("err_u", i)
            ratio = f"{row['ratio']:6.3f}" if np.isfinite(row["ratio"]) else "   --"
            lines.append(
                f"{i:5d} {row['h']:8.4f} {row['R_h']:8.4f} "
                f"{row['err_q']:10.3e} {row['err_u']:10.3e} "
                f"{'  --  ' if rq is None else f'{rq:6.2f}'} "
                f"{'  --  ' if ru is None else f'{ru:6.2f}'} "
                f"{row['iters']:5d} {ratio}")
        return "\n".join(lines)


def _relaxed_run(bundle, case, config):
    """Run the relaxed fixed point: (state, converged, contraction estimate).

    A DivergenceError is caught and its state returned.  The estimate is
    nan below three updates.
    """
    try:
        state, converged = run_fixed_point(bundle.system, bundle.ops, f=case.f,
                                           u0=case.u0, config=config), True
    except DivergenceError as err:
        state, converged = err.state, False
    ratio = estimate_contraction(state.history) \
        if len(state.history) >= 3 else np.nan
    return state, converged, float(ratio)


def convergence_study(case, k, hs, n=32, config=None, fitted=False):
    """Solve the case on a sequence of meshes and tabulate errors and rates.

    Coupled cases run the relaxed fixed point per level; interior-only
    cases (polynomial patches) solve the interior problem with the exact
    interface trace as data.  A diverging level is recorded with its
    iteration count and contraction estimate, and the study continues.
    An empty ``hs``, or one not strictly decreasing or holding an h that is
    not positive and finite, raises ValueError first.
    """
    if (len(hs) == 0 or any(b >= a for a, b in zip(hs, hs[1:]))
            or not all(0.0 < h < np.inf for h in hs)):
        raise ValueError(f"a study needs one or more strictly decreasing h, each "
                         f"positive and finite, got {list(hs)}")
    config = config or CouplingConfig()
    report = StudyReport(case.id, k, n)
    for target_h in hs:
        bundle = setup_level(case, target_h, k, n=n, fitted=fitted)
        iters, ratio, conv = 1, np.nan, True
        err_g, err_uinf = np.nan, np.nan
        if case.supports_coupling:
            state, conv, ratio = _relaxed_run(bundle, case, config)
            field, iters = state.field, state.iteration
            if conv:
                err_g = (state.g - case.g_exact(bundle.ops)).l2_norm(
                    speed=case.gamma.mean_speed())
                err_uinf = abs(state.u_inf - case.u_inf)
        else:
            field = solve_interior(bundle.system, f=case.f,
                                   g_gamma=case.u, u0_gamma0=case.u0)
        err_q, err_u = l2_errors(field, bundle.system, case.u, case.q) \
            if conv else (np.nan, np.nan)
        report.rows.append(dict(h=float(target_h), mesh_h=bundle.mesh.h,
                                R_h=bundle.proximity.R_h, n=n,
                                dofs=bundle.system.n_trace, err_q=err_q,
                                err_u=err_u, err_g=err_g, err_uinf=err_uinf,
                                iters=iters, ratio=ratio, converged=conv))
    return report


def omega_sweep(bundle, case, omegas, tol=1e-8, max_iterations=100):
    """Convergence behavior of the relaxed iteration across weights.

    Every weight runs on the one level ``bundle`` (from ``setup_level``).
    Divergent weights are recorded, not raised.  An empty ``omegas``, or
    any weight ``CouplingConfig`` refuses, raises ValueError before the
    first run.  Returns a list of dicts (omega, converged, iterations,
    ratio) plus the best-performing weight.
    """
    if len(omegas) == 0:
        raise ValueError("omega_sweep needs at least one relaxation weight")
    configs = [CouplingConfig(omega=omega, tol=tol, max_iterations=max_iterations)
               for omega in omegas]
    rows = []
    for cfg in configs:
        state, converged, ratio = _relaxed_run(bundle, case, cfg)
        rows.append({"omega": cfg.omega, "converged": converged,
                     "iterations": state.iteration, "ratio": ratio})
    converged_rows = [r for r in rows if r["converged"]]
    best = min(converged_rows, key=lambda r: r["iterations"]) \
        if converged_rows else None
    return rows, best
