import copy

import numpy as np
import pytest

from hdgbem import (
    CouplingConfig,
    DimensionError,
    DivergenceError,
    EstimationError,
    HDGSystem,
    InterfaceMap,
    ManufacturedCase,
    SolverError,
    TrigPolynomial,
    estimate_contraction,
    manufactured_case,
    monolithic_solve,
    run_fixed_point,
    setup_level,
    solve_exterior,
    write_iteration_log,
)
from hdgbem import coupling
from hdgbem.coupling import InterfaceResponse
from conftest import ellipse_curve
from reference import bordered_monolithic_solve, q_at

N = 16


@pytest.fixture(scope="module")
def dipole_bundle():
    case = manufactured_case("dipole-plus-constant", constant=3.0)
    return case, setup_level(case, 0.12, 1, n=N)


def _datum(g, u_inf):
    """Packed coefficients of the interface datum g + u_inf."""
    c = g.coefficients()
    c[0] += u_inf
    return c


# ---------------------------------------------------------------------------
# individual steps
# ---------------------------------------------------------------------------

def test_dtn_zero_data(dipole_bundle):
    _, bundle = dipole_bundle
    imap = InterfaceMap(bundle.system, bundle.ops)
    r, lam = imap.coupling_residual(np.zeros(2 * N + 1), imap.apply(np.zeros(2 * N))[0])
    mflux = r[-1]
    uhat, flux, _ = imap.trace_solve(np.zeros(2 * N))
    assert np.abs(lam.coefficients()).max() == 0.0
    assert mflux == 0.0
    assert np.abs(uhat).max() == 0.0
    assert np.abs(flux).max() == 0.0


def test_constant_flux_projects_to_zero_density(dipole_bundle):
    # the projection is a matrix product, so a constant leaves rounding
    lam = dipole_bundle[1].ops.project(-np.full(2 * N, 2.7))
    assert np.abs(lam.coefficients()).max() <= 1e-15 * 2.7


def test_dtn_at_exact_fixed_point(dipole_bundle):
    case, bundle = dipole_bundle
    imap = InterfaceMap(bundle.system, bundle.ops, f=case.f, u0=case.u0)
    g = case.g_exact(bundle.ops)
    r, lam = imap.coupling_residual(np.append(g.coefficients(), case.u_inf),
                                    imap.apply(_datum(g, case.u_inf))[0])
    mflux = r[-1]
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
    c = _datum(case.g_exact(bundle.ops), 3.0)
    assert np.abs(imap.response.B @ c - want).max() < 1e-13


def test_interface_map_matches_recovered_field(dipole_bundle):
    # Z uhat + z_f is the normal flux of each node's parent element
    # polynomial, extrapolated to the node, with a load in the particular part
    case, bundle = dipole_bundle
    system = bundle.system
    f = lambda pts: 1.0 + pts[:, 0] * pts[:, 1]
    imap = InterfaceMap(system, bundle.ops, f=f, u0=case.u0)
    c = _datum(case.g_exact(bundle.ops), case.u_inf)
    uhat, flux, _ = imap.trace_solve(c)
    field = system.recover(uhat, imap.f_mom)
    params = imap.ops.nodes
    pts = case.gamma.point(params)
    normals = case.gamma.normal(params)
    parents = system.bmap.locate(params)
    direct = np.array([q_at(system, field, int(t), p[None, :])[0] @ nu
                       for t, p, nu in zip(parents, pts, normals)])
    assert np.abs(flux - direct).max() <= 1e-12 * np.abs(direct).max()
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
    # a fractional degree is refused, not truncated to the one below
    with pytest.raises(ValueError, match="density degree must be a whole number, got 2.5"):
        CouplingConfig(n=2.5)


@pytest.mark.parametrize("cap", [0, -3, 2.5])
def test_config_rejects_empty_iteration_cap(cap):
    # a run with no iteration has no update norm to report, and a
    # fractional cap would be truncated silently
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
    # one solve of the load and inner datum for uhat0, one per direction of
    # the span (the far-field response's among them) until the counted
    # requests reach n = N, and the block solve of the dense response; the
    # converged trace is uhat0 + U c and the only one recovered to an
    # element field.  A fresh system: requests made by earlier runs on a
    # shared one would count toward its dense response
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
    resp = bundle.system.interface_responses[bundle.ops]
    assert state.converged and state.iteration > N and resp.F is not None
    assert 2 <= resp.m < N
    assert calls == {"solve_trace": resp.m + 2, "recover": 1}


def test_response_counts_only_the_solves_its_dense_form_replaces():
    # chi and one flux per iteration after the first (whose flux is flux0)
    # are counted, served by the span or not, until the count reaches n = N;
    # then the block solve, counted once, builds F.  Later fluxes read F,
    # and neither the uhat0 solve nor the closing solve of the converged
    # trace is counted
    case = manufactured_case("dipole-plus-constant", constant=3.0)
    bundle = setup_level(case, 0.12, 1, n=N)
    state = run_fixed_point(bundle.system, bundle.ops, f=case.f, u0=case.u0,
                            config=CouplingConfig(omega=0.5, tol=1e-9, n=N))
    resp = bundle.system.interface_responses[bundle.ops]
    assert state.converged and state.iteration > N and resp.F is not None
    assert resp.solves == N + 1


def _bump_run(monkeypatch):
    """A fresh bump run of at least 20 iterations, its response and the
    (ndim, response.solves) of every solve_trace call it made."""
    case = manufactured_case("variable-kappa-bump", degree=1)
    bundle = setup_level(case, 0.12, 1, n=N)
    resp = InterfaceMap(bundle.system, bundle.ops).response
    calls = []
    original = HDGSystem.solve_trace

    def counted(self, rhs):
        calls.append((np.ndim(rhs), resp.solves))
        return original(self, rhs)
    monkeypatch.setattr(HDGSystem, "solve_trace", counted)
    state = run_fixed_point(bundle.system, bundle.ops, f=case.f, u0=case.u0,
                            config=CouplingConfig(omega=0.3, tol=1e-10, n=N))
    monkeypatch.undo()
    assert state.converged and state.iteration >= 20
    return case, bundle, resp, calls


def test_dense_response_is_built_at_n_counted_solves(monkeypatch):
    # n single solves cost about one 2n-column block solve, so the block is
    # solved when the counted requests reach n.  The uncounted uhat0 solve
    # of the load and inner datum comes first, then one solve per direction
    # of the span, fewer than the requests; the closing solve is uhat0 + U c
    _, _, resp, calls = _bump_run(monkeypatch)
    assert 2 <= resp.m < N
    assert [d for d, _ in calls] == [1] * (resp.m + 1) + [2]
    assert calls[0][1] == 0              # uhat0, not counted
    assert calls[-1][1] == N + 1         # counted as it is made
    assert resp.solves == N + 1
    assert np.array_equal(resp.F, resp.Z @ resp.U)


def _assert_trace_matches_a_trace_solve(case, bundle):
    """uhat0 plus the lift A^{-1} B c is a solve of rhs0 + B c up to
    rounding and reports its true residual; returns the map and c."""
    system = bundle.system
    imap = InterfaceMap(system, bundle.ops, f=case.f, u0=case.u0)
    c = np.random.default_rng(3).normal(size=2 * N)
    uhat, flux, residual = imap.trace_solve(c)
    rhs = imap.rhs0 + imap.response.B @ c
    want, _ = system.solve_trace(rhs)
    assert np.linalg.norm(uhat - want) <= 1e-12 * np.linalg.norm(want)
    want_flux = imap.flux(want)
    assert np.linalg.norm(flux - want_flux) <= 1e-12 * np.linalg.norm(want_flux)
    true = np.linalg.norm(system.matrix @ uhat - rhs) / max(np.linalg.norm(rhs), 1.0)
    assert residual == pytest.approx(true, rel=1e-12, abs=0.0)
    return imap, c


def test_served_trace_matches_a_trace_solve(monkeypatch):
    # the lift is U c once the response holds U; a wrong U fails the same
    # 1e-8 residual gate
    case, bundle, resp, _ = _bump_run(monkeypatch)
    imap, c = _assert_trace_matches_a_trace_solve(case, bundle)
    bad = copy.copy(imap)
    bad.response = copy.copy(resp)
    bad.response.U = resp.U.copy()
    bad.response.U[:, 1] *= 1.0 + 1e-3
    with pytest.raises(SolverError, match="trace solve residual"):
        bad.trace_solve(c)


def test_lifted_trace_matches_a_trace_solve_before_U():
    # before the response holds U the lift is one trace solve of B c
    case = manufactured_case("variable-kappa-bump", degree=1)
    bundle = setup_level(case, 0.12, 1, n=N)
    imap, _ = _assert_trace_matches_a_trace_solve(case, bundle)
    assert imap.response.U is None


# ---------------------------------------------------------------------------
# span of solved data directions
# ---------------------------------------------------------------------------

def _direct_flux(resp, c, extend=True):
    """F c by one trace solve of B c, in place of the span."""
    return resp.Z @ resp.system.solve_trace(resp.B @ c)[0]


def test_span_flux_matches_a_direct_solve(monkeypatch):
    # a datum outside the span adds one direction by one trace solve, and
    # one inside it is served by FQ Q^T c with none; either flux is
    # Z A^{-1} B c of a direct solve up to rounding, and Q stays orthonormal
    case = manufactured_case("variable-kappa-bump", degree=1)
    bundle = setup_level(case, 0.12, 1, n=N)
    resp = InterfaceMap(bundle.system, bundle.ops).response
    calls = _count_trace_solves(bundle.system, monkeypatch)
    rng = np.random.default_rng(5)

    def check(c, solves):
        want = _direct_flux(resp, c)
        before = len(calls)
        got = resp.span_flux(c)
        assert len(calls) - before == solves
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    for m in range(1, 5):
        check(rng.normal(size=2 * N), 1)
        assert resp.m == m
    for _ in range(4):
        check(resp.Q[:, :4] @ rng.normal(size=4), 0)
    assert resp.m == 4
    Q = resp.Q[:, :4]
    assert np.abs(Q.T @ Q - np.eye(4)).max() <= 1e-14


def test_span_never_exceeds_2n_directions(monkeypatch):
    # with no tolerance every datum leaves the span by rounding at least;
    # the span stops at 2n directions, which hold every datum, and its
    # fluxes still match direct solves
    monkeypatch.setattr(coupling, "SPAN_TOL", 0.0)
    case = manufactured_case("dipole-plus-constant", constant=3.0)
    n = 8
    bundle = setup_level(case, 0.2, 1, n=n)
    resp = InterfaceMap(bundle.system, bundle.ops).response
    for c in np.random.default_rng(6).normal(size=(2 * n + 3, 2 * n)):
        got = resp.span_flux(c)
        want = _direct_flux(resp, c)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert resp.m == 2 * n
    assert np.abs(resp.Q.T @ resp.Q - np.eye(2 * n)).max() <= 1e-14


def test_run_under_n_requests_solves_once_per_direction(monkeypatch):
    # a fresh run that stays under n counted requests never builds F: it
    # solves for uhat0, once per direction of the span (chi's among them),
    # fewer than its iterations, and for its closing trace.  It takes the
    # iterations of a reference whose every flux is a direct solve and
    # agrees with it to rounding
    case = manufactured_case("dipole-plus-constant", constant=3.0)
    n = 2 * N
    cfg = CouplingConfig(omega=0.5, tol=1e-10, n=n)
    ref_bundle = setup_level(case, 0.12, 1, n=n)
    with monkeypatch.context() as m:
        m.setattr(InterfaceResponse, "span_flux", _direct_flux)
        ref = run_fixed_point(ref_bundle.system, ref_bundle.ops, f=case.f,
                              u0=case.u0, config=cfg)
    bundle = setup_level(case, 0.12, 1, n=n)
    calls = _count_trace_solves(bundle.system, monkeypatch)
    state = run_fixed_point(bundle.system, bundle.ops, f=case.f, u0=case.u0,
                            config=cfg)
    resp = bundle.system.interface_responses[bundle.ops]
    assert state.converged and resp.F is None and resp.solves < n
    assert 2 <= resp.m < state.iteration
    assert len(calls) == resp.m + 2
    assert state.iteration == ref.iteration
    g, g_ref = state.g.coefficients(), ref.g.coefficients()
    assert np.abs(g - g_ref).max() <= 1e-12 * np.abs(g_ref).max()
    assert abs(state.u_inf - ref.u_inf) <= 1e-12 * abs(ref.u_inf)
    # the log's last served iteration holds the worst residual of the span
    assert state.residual_history[-2] == resp.span_residual

    # the oracle reads the span but leaves it as it was, and gives the
    # answer of an oracle on a response without one
    m, Q = resp.m, resp.Q[:, :resp.m].copy()
    field, g, _, u_inf = monolithic_solve(bundle.system, bundle.ops, f=case.f, u0=case.u0)
    assert resp.m == m and np.array_equal(resp.Q[:, :m], Q)
    assert ref_bundle.system.interface_responses[ref_bundle.ops].m == 0
    want = monolithic_solve(ref_bundle.system, ref_bundle.ops, f=case.f, u0=case.u0)
    for a, b in ((field.Q, want[0].Q), (field.U, want[0].U),
                 (g.coefficients(), want[1].coefficients())):
        assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)
    assert abs(u_inf - want[3]) <= 1e-12 * abs(want[3])


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
    # one system swept over weights builds its dense response once its
    # counted requests reach n = 16, in the first run; the reference takes
    # one trace solve per iteration throughout, on fresh systems whose
    # response neither keeps a span nor builds F.  The case has a load, so
    # the particular flux z_f is not zero
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
    with monkeypatch.context() as m:
        m.setattr(InterfaceResponse, "dense", lambda self: None)
        m.setattr(InterfaceResponse, "span_flux", _direct_flux)
        ref, ref_runs = _sweep(case, omegas, fresh, calls)
    assert all(b.system.interface_responses[b.ops].F is None for b in fresh_bundles)
    assert list(ref_runs) == [1 + s.iteration + s.converged for s in ref]

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

    # one solve of uhat0, which every later run shares since their data are
    # the same, then one solve per direction of the span (chi's among them)
    # until the counted requests reach n, and one block solve; a converged
    # trace is uhat0 + U c, no solve.  Run 0 crosses n
    resp = bundle.system.interface_responses[bundle.ops]
    assert calls.count(2) == 1 and resp.m < N
    assert calls.index(2) == resp.m + 1 and states[0].iteration > N
    assert list(per_run) == [resp.m + 2] + [0] * (len(omegas) - 1)
    # the first iteration logs the residual of uhat0's solve, the iterations
    # served by the span the worst residual of its solves so far, and those
    # served by F its worst column residual
    residual0 = InterfaceMap(bundle.system, bundle.ops, f=case.f, u0=case.u0).residual0
    spanned = states[0].residual_history[1:N]
    assert spanned == sorted(spanned) and spanned[-1] == resp.span_residual
    assert states[0].residual_history[N] == resp.F_residual
    assert states[-1].residual_history[:-1] == \
        [residual0] + [resp.F_residual] * (states[-1].iteration - 1)


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
    gamma = ellipse_curve(1.3, 0.9, center)
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
    # uhat0, at most 2n + 1 GMRES steps and the closing solve of the field:
    # none is counted, so the oracle never builds F though it may make more
    # than the n solves at which a run would, and the response it shares
    # with the iteration is left as it was
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


def test_monolithic_fresh_system_solves_per_matvec_and_to_close(monkeypatch):
    # uhat0, then one solve per Krylov matvec, since the span of a fresh
    # response is empty and the oracle never extends it, and one closing
    # solve at the answer, which no matvec reached: 1 + k + 1 solves, the
    # total of plain GMRES, whose closing solve reused the lift of its
    # final matvec at the answer
    case = manufactured_case("dipole-plus-constant", constant=3.0)
    bundle = setup_level(case, 0.2, 1, n=8)
    calls = _count_trace_solves(bundle.system, monkeypatch)
    matvecs = []
    linear = InterfaceMap.linear

    def counted(self, c):
        matvecs.append(1)
        return linear(self, c)
    monkeypatch.setattr(InterfaceMap, "linear", counted)
    monolithic_solve(bundle.system, bundle.ops, f=case.f, u0=case.u0)
    assert len(matvecs) >= 2
    assert len(calls) == 1 + len(matvecs) + 1 == 10
    assert bundle.system.interface_responses[bundle.ops].m == 0


def _converged_span_run():
    """A converged run that leaves a span and no F (h = 0.2, k = 1, n = 32)."""
    case = manufactured_case("dipole-plus-constant", constant=3.0)
    bundle = setup_level(case, 0.2, 1, n=32)
    run_fixed_point(bundle.system, bundle.ops, f=case.f, u0=case.u0,
                    config=CouplingConfig(omega=0.5, tol=1e-10, n=32))
    resp = bundle.system.interface_responses[bundle.ops]
    assert resp.F is None and resp.m >= 2
    return case, bundle, resp


def _assert_same_oracle_answer(got, want, rtol):
    for a, b in ((got[0].Q, want[0].Q), (got[0].U, want[0].U),
                 (got[1].coefficients(), want[1].coefficients())):
        assert np.linalg.norm(a - b) <= rtol * np.linalg.norm(b)
    assert abs(got[3] - want[3]) <= rtol * abs(want[3])


def test_monolithic_after_a_converged_run_makes_one_solve(monkeypatch):
    # the span of a converged run holds the answer, so the augmented GMRES
    # stops before its first Krylov matvec; its one solve is the closing
    # one.  The answer is that of an oracle on a fresh system and of the
    # bordered reference, within the oracle's 1e-11 against the reference:
    # a fresh oracle lies about 2e-12 from it here
    case, bundle, resp = _converged_span_run()
    calls = _count_trace_solves(bundle.system, monkeypatch)
    got = monolithic_solve(bundle.system, bundle.ops, f=case.f, u0=case.u0)
    assert len(calls) == 1
    fresh = setup_level(case, 0.2, 1, n=32)
    _assert_same_oracle_answer(
        got, monolithic_solve(fresh.system, fresh.ops, f=case.f, u0=case.u0), 1e-11)
    _assert_same_oracle_answer(
        got, bordered_monolithic_solve(fresh.system, fresh.ops, f=case.f, u0=case.u0), 1e-11)


def test_monolithic_on_a_partial_span_solves_no_more_than_on_a_fresh_system(monkeypatch):
    # Q[:, :j] and FQ[:, :j] are the span after its first j solves; on each
    # the oracle makes no more solves than on a fresh system, less the
    # uhat0 solve that the run leaves, and gives the same answer
    case, bundle, resp = _converged_span_run()
    fresh = setup_level(case, 0.2, 1, n=32)
    calls = _count_trace_solves(fresh.system, monkeypatch)
    want = monolithic_solve(fresh.system, fresh.ops, f=case.f, u0=case.u0)
    alone = len(calls) - 1
    calls = _count_trace_solves(bundle.system, monkeypatch)
    m = resp.m
    for j in range(m + 1):
        resp.m = j
        del calls[:]
        got = monolithic_solve(bundle.system, bundle.ops, f=case.f, u0=case.u0)
        assert 1 <= len(calls) <= alone
        _assert_same_oracle_answer(got, want, 1e-11)
    assert len(calls) == 1


def test_monolithic_refuses_a_wrong_span_flux():
    # a flux column off by 1e-6 moves the answer, which the closing solve's
    # true residual exposes
    case, bundle, resp = _converged_span_run()
    resp.FQ[:, 0] *= 1.0 + 1e-6
    with pytest.raises(SolverError, match=r"coupled GMRES .* residual \d\.\d+e[+-]\d+"):
        monolithic_solve(bundle.system, bundle.ops, f=case.f, u0=case.u0)


def test_monolithic_reuses_the_uhat0_of_a_run(monkeypatch):
    # a run leaves uhat0 of its f and u0 on the shared response, so the
    # oracle after it makes one solve fewer than on a fresh system.  The
    # run stops after two iterations, before it builds F, with the span
    # {e_0, c_2} of chi and x_1 = D b, b = -r(0); it holds the datum of
    # b / |b|, GMRES's first matvec, which therefore makes no solve.  Every
    # other matvec leaves the span and makes the same solve as on a fresh
    # system
    case = manufactured_case("dipole-plus-constant", constant=3.0)
    fresh = setup_level(case, 0.2, 1, n=8)
    calls = _count_trace_solves(fresh.system, monkeypatch)
    monolithic_solve(fresh.system, fresh.ops, f=case.f, u0=case.u0)
    alone = len(calls)

    bundle = setup_level(case, 0.2, 1, n=8)
    with pytest.raises(DivergenceError):
        run_fixed_point(bundle.system, bundle.ops, f=case.f, u0=case.u0,
                        config=CouplingConfig(max_iterations=2))
    resp = bundle.system.interface_responses[bundle.ops]
    assert resp.F is None and resp.m == 2
    calls = _count_trace_solves(bundle.system, monkeypatch)
    monolithic_solve(bundle.system, bundle.ops, f=case.f, u0=case.u0)
    assert len(calls) == alone - 2


def test_maps_with_equal_data_share_one_zero_datum_solve(monkeypatch):
    # the response keeps the latest (rhs0, uhat0): a map whose rhs0 is
    # bitwise equal reuses it, a map with other data replaces it
    case = manufactured_case("dipole-plus-constant", constant=3.0)
    bundle = setup_level(case, 0.2, 1, n=8)
    calls = _count_trace_solves(bundle.system, monkeypatch)

    def zero(u0):
        imap = InterfaceMap(bundle.system, bundle.ops, f=case.f, u0=u0)
        return imap.uhat0, imap.flux0
    uhat0, flux0 = zero(case.u0)
    assert len(calls) == 1
    again = zero(case.u0)
    assert len(calls) == 1 and again[0] is uhat0
    assert np.array_equal(again[1], flux0)
    other = zero(lambda p: 2.0 * case.u0(p))
    assert len(calls) == 2 and not np.array_equal(other[0], uhat0)
    assert np.array_equal(zero(case.u0)[0], uhat0)
    assert len(calls) == 3


def test_monolithic_refuses_an_unsolved_system():
    # a zero exterior solve (so zero T, flux -> g) and arc weights orthogonal
    # to the flux of a constant datum make the u_inf column vanish while the
    # zero-flux row still asks for arc_w . flux0 = 0, which no (g, u_inf)
    # meets; GMRES stalls on an iterate that only rounding keeps finite, and
    # the oracle refuses it
    case = manufactured_case("dipole-plus-constant", constant=3.0)
    bundle = setup_level(case, 0.2, 1, n=8)
    ops = bundle.ops
    unit = InterfaceMap(bundle.system, ops).linear(np.eye(2 * ops.n)[0])
    bad = copy.copy(ops)
    bad.exterior = np.zeros_like(ops.exterior)
    bad.arc_w = ops.arc_w - (ops.arc_w @ unit) / (unit @ unit) * unit
    flux0 = InterfaceMap(bundle.system, bad, f=case.f, u0=case.u0).apply(
        np.zeros(2 * ops.n))[0]
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
