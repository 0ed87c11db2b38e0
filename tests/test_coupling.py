import copy

import numpy as np
import pytest

from hdgbem import (
    CouplingConfig,
    Curve,
    DimensionError,
    DivergenceError,
    EstimationError,
    HDGSystem,
    InterfaceMap,
    ManufacturedCase,
    SolverError,
    TrigPolynomial,
    dtn_step,
    estimate_contraction,
    manufactured_case,
    monolithic_solve,
    run_fixed_point,
    setup_level,
    solve_exterior,
    write_iteration_log,
)
from reference import bordered_monolithic_solve

N = 16


@pytest.fixture(scope="module")
def dipole_bundle():
    case = manufactured_case("dipole-plus-constant", constant=3.0)
    return case, setup_level(case, 0.12, 1, n=N)


# ---------------------------------------------------------------------------
# individual steps
# ---------------------------------------------------------------------------

def test_dtn_zero_data(dipole_bundle):
    _, bundle = dipole_bundle
    imap = InterfaceMap(bundle.system, bundle.ops)
    lam, mflux, _ = dtn_step(imap, TrigPolynomial.zero(N), 0.0)
    uhat, _ = imap.solve(TrigPolynomial.zero(N), 0.0)
    assert np.abs(lam.coefficients()).max() == 0.0
    assert mflux == 0.0
    assert np.abs(uhat).max() == 0.0
    assert np.abs(imap.flux(uhat)).max() == 0.0


def test_constant_flux_projects_to_zero_density(dipole_bundle):
    # the projection is a matrix product, so a constant leaves rounding
    lam = dipole_bundle[1].ops.project(-np.full(2 * N, 2.7))
    assert np.abs(lam.coefficients()).max() <= 1e-15 * 2.7


def test_dtn_at_exact_fixed_point(dipole_bundle):
    case, bundle = dipole_bundle
    imap = InterfaceMap(bundle.system, bundle.ops, f=case.f, u0=case.u0)
    lam, mflux, _ = dtn_step(imap, case.g_exact(bundle.ops), case.u_inf)
    exact = case.lam_exact(bundle.ops)
    assert np.abs((lam - exact).coefficients()).max() < 3e-2   # flux-level error
    assert abs(mflux) < 5e-3
    assert abs(bundle.ops.moments @ lam.coefficients()) < 1e-14


def test_interface_map_data_matches_boundary_moments(dipole_bundle):
    # on the unit circle the datum g + u_inf = cos s + 3 is x + 3 at the
    # mapped points, so its edge moments are those of the callable datum
    case, bundle = dipole_bundle
    imap = InterfaceMap(bundle.system, bundle.ops)
    want = bundle.system.boundary_data_vector(g_gamma=lambda p: p[:, 0] + 3.0)
    assert np.abs(imap.response.data(case.g_exact(bundle.ops), 3.0) - want).max() < 1e-13


def test_interface_map_matches_recovered_field(dipole_bundle):
    # Z uhat + z_f is the normal flux of each node's parent element
    # polynomial, extrapolated to the node, with a load in the particular part
    case, bundle = dipole_bundle
    system = bundle.system
    f = lambda pts: 1.0 + pts[:, 0] * pts[:, 1]
    imap = InterfaceMap(system, bundle.ops, f=f, u0=case.u0)
    uhat, _ = imap.solve(case.g_exact(bundle.ops), case.u_inf)
    field = system.recover(uhat, imap.f_mom)
    params = imap.ops.nodes
    pts = case.gamma.point(params)
    normals = case.gamma.normal(params)
    parents = system.bmap.locate(params)
    direct = np.array([field.q_at(int(t), p[None, :])[0] @ nu
                       for t, p, nu in zip(parents, pts, normals)])
    assert np.abs(imap.flux(uhat) - direct).max() <= 1e-12 * np.abs(direct).max()
    assert np.abs(imap.z_f).max() > 0.0


def test_ntd_closed_forms(dipole_bundle):
    _, bundle = dipole_bundle
    zero = solve_exterior(bundle.ops, TrigPolynomial.zero(N))
    assert np.abs(zero.coefficients()).max() == 0.0
    lam = TrigPolynomial.zero(N)
    lam.cos[1] = 1.0
    g = solve_exterior(bundle.ops, lam)
    assert g.cos[1] == pytest.approx(-1.0, abs=1e-13)
    lam2 = bundle.ops.project(np.sin(2 * bundle.ops.nodes))
    g2 = solve_exterior(bundle.ops, lam2)
    assert g2.sin[1] == pytest.approx(-0.5, abs=1e-13)


def test_config_rejects_degenerate_weight():
    with pytest.raises(ValueError):
        CouplingConfig(omega=0.0)
    with pytest.raises(ValueError):
        CouplingConfig(omega=1.5)
    with pytest.raises(ValueError):
        CouplingConfig(tol=0.0)


@pytest.mark.parametrize("tol", [np.inf, np.nan])
def test_config_rejects_non_finite_tolerance(tol):
    # an infinite tolerance accepts the first update, a NaN one none
    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        CouplingConfig(tol=tol)


def test_config_degree_must_match_operators(dipole_bundle):
    # n=None takes the operators' degree; any other degree is refused
    case, bundle = dipole_bundle
    assert CouplingConfig().n is None
    with pytest.raises(DimensionError, match="density degree 64"):
        run_fixed_point(bundle.system, bundle.ops, f=case.f, u0=case.u0,
                        config=CouplingConfig(n=4 * N))


@pytest.mark.parametrize("cap", [0, -3])
def test_config_rejects_empty_iteration_cap(cap):
    # a run with no iteration has no update norm to report
    with pytest.raises(ValueError, match="iteration cap"):
        CouplingConfig(max_iterations=cap)
    assert CouplingConfig(max_iterations=1).max_iterations == 1


# ---------------------------------------------------------------------------
# contraction estimation
# ---------------------------------------------------------------------------

def test_contraction_estimate_geometric():
    assert estimate_contraction([1.0, 0.5, 0.25, 0.125]) == pytest.approx(0.5)


def test_contraction_estimate_stagnation():
    assert estimate_contraction([1.0, 1.0, 1.0]) == pytest.approx(1.0)


def test_contraction_estimate_needs_history():
    with pytest.raises(EstimationError):
        estimate_contraction([1.0, 0.5])


# ---------------------------------------------------------------------------
# fixed point
# ---------------------------------------------------------------------------

def test_zero_data_converges_immediately(dipole_bundle):
    _, bundle = dipole_bundle
    state = run_fixed_point(bundle.system, bundle.ops,
                            config=CouplingConfig(n=N))
    assert state.converged and state.iteration == 1
    assert np.abs(state.g.coefficients()).max() == 0.0
    assert state.u_inf == 0.0


def test_dipole_fixed_point_geometric_decay(dipole_bundle):
    case, bundle = dipole_bundle
    state = run_fixed_point(bundle.system, bundle.ops, f=case.f, u0=case.u0,
                            config=CouplingConfig(omega=0.5, tol=1e-9, n=N))
    assert state.converged
    assert state.g.cos[1] == pytest.approx(1.0, abs=5e-3)
    assert state.u_inf == pytest.approx(3.0, abs=5e-3)
    ratio = estimate_contraction(state.history)
    assert 0.0 < ratio < 0.6
    # mean-zero invariant held at every iteration
    assert state.lambda_mean_max <= 1e-12 * max(state.lam.l2_norm(), 1e-30)


def test_limit_independent_of_relaxation_weight(dipole_bundle):
    case, bundle = dipole_bundle
    s1 = run_fixed_point(bundle.system, bundle.ops, f=case.f, u0=case.u0,
                         config=CouplingConfig(omega=0.35, tol=1e-10, n=N))
    s2 = run_fixed_point(bundle.system, bundle.ops, f=case.f, u0=case.u0,
                         config=CouplingConfig(omega=0.6, tol=1e-10, n=N))
    assert (s1.g - s2.g).l2_norm() <= 1e-8
    assert abs(s1.u_inf - s2.u_inf) <= 1e-8


def test_divergence_reports_history(dipole_bundle):
    case, bundle = dipole_bundle
    with pytest.raises(DivergenceError) as err:
        run_fixed_point(bundle.system, bundle.ops, f=case.f, u0=case.u0,
                        config=CouplingConfig(omega=0.95, max_iterations=25, n=N))
    hist = err.value.state.history
    assert len(hist) == 25
    assert hist[-1] > hist[0]
    assert err.value.state.field is None


def test_iteration_log(tmp_path, dipole_bundle):
    case, bundle = dipole_bundle
    state = run_fixed_point(bundle.system, bundle.ops, f=case.f, u0=case.u0,
                            config=CouplingConfig(n=N))
    path = tmp_path / "iters.csv"
    write_iteration_log(state, path)
    rows = path.read_text().splitlines()
    assert rows[0] == "iter,update_norm,u_inf,interior_residual"
    assert len(rows) == 1 + len(state.history)


def test_converged_run_recovers_the_field_once(monkeypatch):
    # one solve for the far-field response, one per iteration, one for the
    # converged trace; only the last is recovered to an element field.  A
    # fresh system: solves made by earlier runs on a shared one would count
    # toward its dense response
    case = manufactured_case("dipole-plus-constant", constant=3.0)
    bundle = setup_level(case, 0.12, 1, n=N)
    calls = {"solve_trace": 0, "recover": 0}
    for name in calls:
        original = getattr(HDGSystem, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)
        monkeypatch.setattr(HDGSystem, name, counted)
    state = run_fixed_point(bundle.system, bundle.ops, f=case.f, u0=case.u0,
                            config=CouplingConfig(omega=0.5, tol=1e-9, n=N))
    assert state.converged
    assert calls == {"solve_trace": state.iteration + 2, "recover": 1}


def _sweep(case, omegas, bundle_for, calls):
    """Coupled runs, one per weight, and the solve_trace calls after each."""
    states, marks = [], []
    for omega in omegas:
        bundle = bundle_for()
        cfg = CouplingConfig(omega=omega, tol=1e-10, n=N, max_iterations=25)
        try:
            states.append(run_fixed_point(bundle.system, bundle.ops, f=case.f,
                                          u0=case.u0, config=cfg))
        except DivergenceError as err:
            states.append(err.state)
        marks.append(len(calls))
    return states, np.diff([0] + marks)


def test_shared_response_matches_fresh_systems(monkeypatch):
    # one system swept over weights builds its dense response once its trace
    # solves reach 2n = 32, in the second run; fresh systems per weight stay
    # below 2n, so they take the one-solve-per-iteration path throughout.
    # The case has a load, so the particular flux z_f is not zero
    case = manufactured_case("variable-kappa-bump", degree=1)
    omegas = (0.3, 0.4, 0.35, 0.95, 0.45)         # 0.95 diverges in 25
    calls = []
    original = HDGSystem.solve_trace

    def counted(self, rhs):
        calls.append(np.ndim(rhs))
        return original(self, rhs)
    monkeypatch.setattr(HDGSystem, "solve_trace", counted)
    fresh_bundles = []

    def fresh():
        fresh_bundles.append(setup_level(case, 0.12, 1, n=N))
        return fresh_bundles[-1]
    ref, _ = _sweep(case, omegas, fresh, calls)
    assert all(b.system.interface_responses[b.ops].F is None for b in fresh_bundles)

    calls.clear()
    bundle = setup_level(case, 0.12, 1, n=N)
    states, per_run = _sweep(case, omegas, lambda: bundle, calls)
    assert [s.iteration for s in states] == [s.iteration for s in ref]
    assert [s.converged for s in states] == [True, True, True, False, True]
    for s, r in zip(states, ref):
        if r.converged:
            gs, gr = s.g.coefficients(), r.g.coefficients()
            assert np.abs(gs - gr).max() <= 1e-12 * np.abs(gr).max()
            assert abs(s.u_inf - r.u_inf) <= 1e-12 * abs(r.u_inf)
        else:
            hs, hr = np.array(s.history), np.array(r.history)
            assert np.all(np.abs(hs - hr) <= 1e-10 * hr)

    # solves before the crossing, one block solve, then per run one for its
    # own data and one for a converged trace; chi is solved once, in run 0
    assert calls.count(2) == 1
    block = calls.index(2)
    assert 2 * N <= block <= 2 * N + 1
    crossing = int(np.searchsorted(np.cumsum(per_run), block, side="right"))
    before = [s.iteration + 1 for s in states[:crossing]]
    before[0] += 1
    assert list(per_run[:crossing]) == before
    after = [1 + s.converged for s in states[crossing:]]
    assert len(calls) - block - 1 == sum(after)
    assert list(per_run[crossing + 1:]) == after[1:]
    # iterations served by the response log its worst column residual
    resp = bundle.system.interface_responses[bundle.ops]
    assert states[-1].residual_history[:-1] == \
        [resp.F_residual] * states[-1].iteration


# ---------------------------------------------------------------------------
# monolithic oracle
# ---------------------------------------------------------------------------

def test_monolithic_zero_data(dipole_bundle):
    _, bundle = dipole_bundle
    field, g, lam, u_inf = monolithic_solve(bundle.system, bundle.ops)
    assert np.abs(field.U).max() < 1e-14
    assert np.abs(g.coefficients()).max() < 1e-14
    assert u_inf == pytest.approx(0.0, abs=1e-14)


def _assert_monolithic_matches_fixed_point(case, bundle):
    state = run_fixed_point(bundle.system, bundle.ops, f=case.f, u0=case.u0,
                            config=CouplingConfig(omega=0.5, tol=1e-11,
                                                  max_iterations=200))
    field, g, lam, u_inf = monolithic_solve(bundle.system, bundle.ops,
                                            f=case.f, u0=case.u0)
    scale = max(np.abs(field.Q).max(), 1.0)
    assert np.abs(state.field.Q - field.Q).max() <= 1e-8 * scale
    assert np.abs(state.field.U - field.U).max() <= 1e-8 * scale
    assert (state.g - g).l2_norm() <= 1e-8
    assert abs(state.u_inf - u_inf) <= 1e-8


def test_monolithic_matches_fixed_point(dipole_bundle):
    _assert_monolithic_matches_fixed_point(*dipole_bundle)


@pytest.mark.parametrize("k", [1, 2])
def test_monolithic_matches_fixed_point_on_ellipse(ellipse, k):
    # off the circle K is not trivial and the mean-zero injection touches
    # every mode, so the oracle's exterior block is exercised in full
    base = manufactured_case("dipole-plus-constant", constant=3.0)
    case = ManufacturedCase("ellipse", base.kappa, base.f, base.u, base.q,
                            base.grad_u, base.u_inf, ellipse, base.gamma0,
                            supports_coupling=True)
    _assert_monolithic_matches_fixed_point(case, setup_level(case, 0.1, k, n=32))


def _ellipse_case(center):
    # the dipole-plus-constant fields with a 1.3 x 0.9 elliptic interface
    (cx, cy), a, b = center, 1.3, 0.9
    gamma = Curve.from_parametrization(
        lambda s: np.stack([cx + a * np.cos(s), cy + b * np.sin(s)], axis=-1),
        lambda s: np.stack([-a * np.sin(s), b * np.cos(s)], axis=-1),
        lambda s: np.stack([-a * np.cos(s), -b * np.sin(s)], axis=-1))
    base = manufactured_case("dipole-plus-constant", constant=3.0)
    return ManufacturedCase("ellipse", base.kappa, base.f, base.u, base.q,
                            base.grad_u, base.u_inf, gamma, base.gamma0,
                            supports_coupling=True)


@pytest.mark.parametrize("k", [1, 2])
def test_monolithic_matches_fixed_point_on_shifted_ellipse(k):
    # no symmetry of the interface about the obstacle's centre is left
    case = _ellipse_case((0.15, 0.1))
    _assert_monolithic_matches_fixed_point(case, setup_level(case, 0.1, k, n=32))


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("interface", ["circle", "ellipse"])
def test_monolithic_matches_bordered_reference(interface, k):
    # GMRES on the interface unknowns against one sparse LU of the bordered
    # system over trace, interface and far-field unknowns
    case = manufactured_case("dipole-plus-constant", constant=3.0) \
        if interface == "circle" else _ellipse_case((0.0, 0.0))
    bundle = setup_level(case, 0.1, k, n=32)
    got = monolithic_solve(bundle.system, bundle.ops, f=case.f, u0=case.u0)
    ref = bordered_monolithic_solve(bundle.system, bundle.ops, f=case.f, u0=case.u0)
    for a, b in ((got[0].Q, ref[0].Q), (got[0].U, ref[0].U),
                 (got[1].coefficients(), ref[1].coefficients())):
        assert np.linalg.norm(a - b) <= 1e-11 * np.linalg.norm(b)
    assert abs(got[3] - ref[3]) <= 1e-11 * abs(ref[3])


def _count_trace_solves(system, monkeypatch):
    calls = []
    solve = system.solve_trace

    def counted(rhs):
        calls.append(1)
        return solve(rhs)
    monkeypatch.setattr(system, "solve_trace", counted)
    return calls


def test_monolithic_never_builds_the_dense_response(monkeypatch):
    # flux0, at most 2n + 1 GMRES steps, GMRES's closing residual and the
    # field: the oracle never spends the 2n solves that F would cost, and
    # the response it shares with the iteration is left as it was
    n = 8
    case = manufactured_case("dipole-plus-constant", constant=3.0)
    bundle = setup_level(case, 0.2, 1, n=n)
    calls = _count_trace_solves(bundle.system, monkeypatch)
    monolithic_solve(bundle.system, bundle.ops, f=case.f, u0=case.u0)
    resp = bundle.system.interface_responses[bundle.ops]
    assert len(calls) <= 2 * n + 4
    assert resp.solves == 0 and resp.F is None

    # once a run has built F, GMRES steps are matvecs with it
    run_fixed_point(bundle.system, bundle.ops, f=case.f, u0=case.u0)
    F, solves = resp.F, resp.solves
    assert F is not None
    del calls[:]
    monolithic_solve(bundle.system, bundle.ops, f=case.f, u0=case.u0)
    assert len(calls) <= 2
    assert resp.F is F and resp.solves == solves


def test_monolithic_refuses_an_unsolved_system():
    # zero T and arc weights orthogonal to the flux of a constant datum make
    # the u_inf column vanish while the zero-flux row still asks for
    # arc_w . flux0 = 0, which no (g, u_inf) meets; GMRES stalls on an
    # iterate that only rounding keeps finite, and the oracle refuses it
    case = manufactured_case("dipole-plus-constant", constant=3.0)
    bundle = setup_level(case, 0.2, 1, n=8)
    ops = bundle.ops
    unit = InterfaceMap(bundle.system, ops).linear(np.eye(2 * ops.n)[0])
    bad = copy.copy(ops)
    bad.trace_from_flux = np.zeros_like(ops.trace_from_flux)
    bad.arc_w = ops.arc_w - (ops.arc_w @ unit) / (unit @ unit) * unit
    flux0 = InterfaceMap(bundle.system, bad, f=case.f, u0=case.u0).apply(
        TrigPolynomial.zero(ops.n), 0.0)[0]
    assert abs(bad.arc_w @ flux0) > 1e-3 * np.abs(bad.arc_w).sum() * np.abs(flux0).max()
    with pytest.raises(SolverError, match=r"coupled GMRES .* residual \d\.\d+e[+-]\d+"):
        monolithic_solve(bundle.system, bad, f=case.f, u0=case.u0)


@pytest.mark.parametrize("fitted", [False, True])
def test_monolithic_constant_solution_exact(fitted):
    # u = 3 globally is the one polynomial compatible with the full coupled
    # system: zero flux, zero densities, far field constant 3
    case = manufactured_case("dipole-plus-constant", constant=3.0)
    bundle = setup_level(case, 0.2, 1, n=N, fitted=fitted)
    u0 = lambda pts: np.full(len(np.atleast_2d(pts)), 3.0)
    field, g, lam, u_inf = monolithic_solve(bundle.system, bundle.ops, u0=u0)
    assert abs(u_inf - 3.0) <= 1e-9
    assert np.abs(g.coefficients()).max() <= 1e-9
    assert np.abs(lam.coefficients()).max() <= 1e-9
    assert np.abs(field.Q).max() <= 1e-9
    assert np.abs(field.U[:, 0] - 3.0).max() <= 1e-9
    assert np.abs(field.U[:, 1:]).max() <= 1e-9
