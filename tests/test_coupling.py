import copy

import numpy as np
import pytest

from hdgbem import (
    CoverageError,
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
    estimate_contraction,
    manufactured_case,
    monolithic_solve,
    run_fixed_point,
    setup_level,
    solve_exterior,
    write_iteration_log,
)
from hdgbem import bem, coupling
from hdgbem.coupling import interface_map
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
    imap = interface_map(bundle.system, bundle.ops)
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
    imap = interface_map(bundle.system, bundle.ops, f=case.f, u0=case.u0)
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
    imap = interface_map(bundle.system, bundle.ops)
    want = bundle.system.boundary_data_vector(g_gamma=lambda p: p[:, 0] + 3.0)
    c = _datum(case.g_exact(bundle.ops), 3.0)
    assert np.abs(imap.B @ c - want).max() < 1e-13


def test_interface_map_matches_recovered_field(dipole_bundle):
    # Z uhat + z_f is the normal flux of each node's parent element
    # polynomial, extrapolated to the node, with a load in the particular part
    case, bundle = dipole_bundle
    system = bundle.system
    f = lambda pts: 1.0 + pts[:, 0] * pts[:, 1]
    imap = interface_map(system, bundle.ops, f=f, u0=case.u0)
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


@pytest.mark.parametrize("driver", [run_fixed_point, monolithic_solve],
                         ids=["fixed-point", "monolithic"])
def test_operators_on_another_curve_are_refused(dipole_bundle, driver):
    # the ellipse's node parameters fall in the circle's outer edge
    # intervals too, so the run converged to a wrong u_inf and the oracle
    # agreed with it
    case, bundle = dipole_bundle
    ops = bem.assemble_layer_operators(ellipse_curve(1.3, 0.9), N)
    with pytest.raises(CoverageError, match="not the boundary map's gamma"):
        driver(bundle.system, ops, f=case.f, u0=case.u0)
    assert ops not in bundle.system.interface_maps


@pytest.mark.parametrize("curve", [
    lambda: Curve.circle((0.0, 0.0), 1.0),
    lambda: Curve.from_parametrization(
        lambda s: np.stack([np.cos(s), np.sin(s)], axis=-1),
        lambda s: np.stack([-np.sin(s), np.cos(s)], axis=-1),
        lambda s: np.stack([-np.cos(s), -np.sin(s)], axis=-1))],
    ids=["circle", "parametrized"])
def test_operators_on_an_equal_curve_built_again_couple(dipole_bundle, curve):
    # the refusal compares points, not Curve objects
    case, bundle = dipole_bundle
    ops = bem.assemble_layer_operators(curve(), N)
    assert ops.curve is not bundle.system.bmap.gamma
    config = CouplingConfig(tol=1e-10, n=N)
    again = run_fixed_point(bundle.system, ops, f=case.f, u0=case.u0, config=config)
    first = run_fixed_point(bundle.system, bundle.ops, f=case.f, u0=case.u0, config=config)
    assert (again.g - first.g).l2_norm() <= 1e-8
    assert abs(again.u_inf - first.u_inf) <= 1e-8
    field = monolithic_solve(bundle.system, ops, f=case.f, u0=case.u0)[0]
    assert np.abs(field.U - first.field.U).max() <= 1e-8


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


def test_exterior_sum_vanishes_inside_after_a_converged_run(dipole_bundle):
    # extinction: for Cauchy data of an exterior field D g - S lam is zero
    # inside the curve, so on Gamma0 the log-free trapezoidal sum of the
    # converged densities returns u_inf up to the run's tolerance (measured
    # 6.3e-11); a g off by 1e-3 cos 2t shows at its own size
    case, bundle = dipole_bundle
    state = run_fixed_point(bundle.system, bundle.ops, f=case.f, u0=case.u0,
                            config=CouplingConfig(omega=0.5, tol=1e-10, n=N))
    pts = case.gamma0.point(np.linspace(0.0, 2.0 * np.pi, 200, endpoint=False))
    lam_c = state.lam.coefficients()

    def extinction(g):
        psi, _ = bem._cauchy_density(bundle.ops, g.coefficients(), lam_c)
        return np.abs(bem._log_free_sum(bundle.ops, psi, pts)).max()

    assert extinction(state.g) <= 2e-10
    wrong = state.g + bundle.ops.project(1e-3 * np.cos(2.0 * bundle.ops.nodes))
    assert extinction(wrong) >= 1e-5


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
    # one solve of the load and inner datum for uhat0 and one per direction
    # of the span (the far-field response's among them); the converged
    # trace, the only one recovered to an element field, comes from the
    # span's lifts.  A fresh system: a shared one keeps the span of earlier
    # runs
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
    imap = bundle.system.interface_maps[bundle.ops]
    assert state.converged and state.iteration > N
    assert 2 <= imap.m < N
    assert calls == {"solve_trace": imap.m + 1, "recover": 1}


def _assert_trace_matches_a_trace_solve(imap, c):
    """The trace of a datum c is that of a solve of rhs0 + B c to 1e-12,
    and it reports its true residual."""
    uhat, flux, residual = imap.trace_solve(c)
    rhs = imap.rhs0 + imap.B @ c
    want = imap.system.lu.solve(rhs)
    assert np.linalg.norm(uhat - want) <= 1e-12 * np.linalg.norm(want)
    want_flux = imap.flux(want)
    assert np.linalg.norm(flux - want_flux) <= 1e-12 * np.linalg.norm(want_flux)
    matrix = imap.system.matrix
    true = np.linalg.norm(matrix @ uhat - rhs) / max(np.linalg.norm(rhs), 1.0)
    assert residual == pytest.approx(true, rel=1e-12, abs=0.0)


def test_lifted_trace_matches_a_trace_solve_before_U():
    # on a fresh system, before any direction is solved (the span took the
    # place of the dense lift U), the trace of c is served from the one
    # direction that its solve adds to the span
    case = manufactured_case("variable-kappa-bump", degree=1)
    bundle = setup_level(case, 0.12, 1, n=N)
    imap = interface_map(bundle.system, bundle.ops, f=case.f, u0=case.u0)
    _assert_trace_matches_a_trace_solve(imap, np.random.default_rng(3).normal(size=2 * N))
    assert imap.m == 1


def test_served_trace_matches_a_trace_solve():
    # the trace is that of a solve of rhs0 + B c also on a system whose run
    # left its span and the zero datum that the map is served
    case = manufactured_case("variable-kappa-bump", degree=1)
    bundle = setup_level(case, 0.12, 1, n=N)
    run_fixed_point(bundle.system, bundle.ops, f=case.f, u0=case.u0,
                    config=CouplingConfig(omega=0.3, tol=1e-10, n=N))
    imap = interface_map(bundle.system, bundle.ops, f=case.f, u0=case.u0)
    _assert_trace_matches_a_trace_solve(imap, np.random.default_rng(3).normal(size=2 * N))
    assert imap.m >= 2


def test_served_trace_on_a_partial_span(monkeypatch):
    # on the first j directions of a run's span, a datum in them is served
    # from their lifts with no solve, and one outside them with the one
    # solve that extends the span
    case, bundle, imap = _converged_span_run()
    calls = _count_trace_solves(bundle.system, monkeypatch)
    j = imap.m // 2
    imap.lifts, imap.m = imap.lifts[:j], j
    rng = np.random.default_rng(7)
    _assert_trace_matches_a_trace_solve(imap, imap.Q[:, :j] @ rng.normal(size=j))
    assert len(calls) == 0
    _assert_trace_matches_a_trace_solve(imap, rng.normal(size=2 * bundle.ops.n))
    assert len(calls) == 1 and imap.m == len(imap.lifts) == j + 1


def test_served_trace_after_a_sweep(monkeypatch):
    # after nine weights on one system, three of them divergent, the
    # converged data and the span's other data are served from its many
    # lifts with no solve, as exactly as a direct solve
    case = manufactured_case("variable-kappa-bump", degree=1)
    bundle = setup_level(case, 0.12, 1, n=N)
    converged = []
    for omega in np.linspace(0.1, 0.9, 9):
        cfg = CouplingConfig(omega=omega, tol=1e-10, n=N)
        try:
            converged.append(run_fixed_point(bundle.system, bundle.ops, f=case.f,
                                             u0=case.u0, config=cfg))
        except DivergenceError:
            pass
    imap = interface_map(bundle.system, bundle.ops, f=case.f, u0=case.u0)
    assert len(converged) == 6 and 2 * N > imap.m >= 10
    calls = _count_trace_solves(bundle.system, monkeypatch)
    rng = np.random.default_rng(8)
    for c in [_datum(s.g, s.u_inf) for s in converged] + [
            imap.Q[:, :imap.m] @ rng.normal(size=imap.m) for _ in range(3)]:
        _assert_trace_matches_a_trace_solve(imap, c)
    assert len(calls) == 0


def test_a_wrong_lift_is_refused_by_the_true_residual():
    # a lift off by 1e-6 moves the served trace off the solve of rhs0 + B c
    # by far more than the 1e-8 that its true residual allows, so the run
    # and the oracle that read it raise SolverError
    case, bundle, imap = _converged_span_run()
    imap.lifts[0] *= 1.0 + 1e-6
    with pytest.raises(SolverError, match=r"trace solve residual \d\.\d+e[+-]\d+"):
        run_fixed_point(bundle.system, bundle.ops, f=case.f, u0=case.u0,
                        config=CouplingConfig(omega=0.5, tol=1e-10, n=32))
    with pytest.raises(SolverError, match=r"trace solve residual \d\.\d+e[+-]\d+"):
        monolithic_solve(bundle.system, bundle.ops, f=case.f, u0=case.u0)


def test_span_keeps_one_lift_per_direction(monkeypatch):
    # the span keeps the output of each of its solves, uncopied, one per
    # direction, after an oracle, a run and a failed load
    case = manufactured_case("dipole-plus-constant", constant=3.0)
    bundle = setup_level(case, 0.2, 1, n=N)
    outputs = []
    solve = bundle.system.solve_trace

    def kept(rhs):
        result = solve(rhs)
        outputs.append(result[0])
        return result
    monkeypatch.setattr(bundle.system, "solve_trace", kept)

    def check():
        imap = bundle.system.interface_maps[bundle.ops]
        assert len(imap.lifts) == imap.m > 0
        assert all(any(lift is out for out in outputs) for lift in imap.lifts)
    monolithic_solve(bundle.system, bundle.ops, f=case.f, u0=case.u0)
    check()
    run_fixed_point(bundle.system, bundle.ops, f=case.f, u0=case.u0,
                    config=CouplingConfig(omega=0.5, tol=1e-10, n=N))
    check()
    nan = lambda pts: np.full(len(np.atleast_2d(pts)), np.nan)
    with pytest.raises(SolverError, match="trace solve residual"):
        interface_map(bundle.system, bundle.ops, f=case.f, u0=nan)
    check()


# ---------------------------------------------------------------------------
# span of solved data directions
# ---------------------------------------------------------------------------

def _direct_flux(imap, c):
    """F c by one trace solve of B c, in place of the span; F 0 = 0 with
    no solve, as the span serves it."""
    if not c.any():
        return np.zeros(imap.Z.shape[0])
    return imap.Z @ imap.system.solve_trace(imap.B @ c)[0]


def test_span_flux_matches_a_direct_solve(monkeypatch):
    # a datum outside the span adds one direction by one trace solve, and
    # one inside it is served by FQ Q^T c with none; either flux is
    # Z A^{-1} B c of a direct solve up to rounding, and Q stays orthonormal
    case = manufactured_case("variable-kappa-bump", degree=1)
    bundle = setup_level(case, 0.12, 1, n=N)
    imap = interface_map(bundle.system, bundle.ops)
    calls = _count_trace_solves(bundle.system, monkeypatch)
    rng = np.random.default_rng(5)

    def check(c, solves):
        want = _direct_flux(imap, c)
        before = len(calls)
        got = imap.span_flux(c)
        assert len(calls) - before == solves
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    for m in range(1, 5):
        check(rng.normal(size=2 * N), 1)
        assert imap.m == m
    for _ in range(4):
        check(imap.Q[:, :4] @ rng.normal(size=4), 0)
    assert imap.m == 4
    Q = imap.Q[:, :4]
    assert np.abs(Q.T @ Q - np.eye(4)).max() <= 1e-14


def test_span_never_exceeds_2n_directions(monkeypatch):
    # with no tolerance every datum leaves the span by rounding at least;
    # the span stops at 2n directions, which hold every datum, and its
    # fluxes still match direct solves
    monkeypatch.setattr(coupling, "SPAN_TOL", 0.0)
    case = manufactured_case("dipole-plus-constant", constant=3.0)
    n = 8
    bundle = setup_level(case, 0.2, 1, n=n)
    imap = interface_map(bundle.system, bundle.ops)
    for c in np.random.default_rng(6).normal(size=(2 * n + 3, 2 * n)):
        got = imap.span_flux(c)
        want = _direct_flux(imap, c)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert imap.m == 2 * n
    assert np.abs(imap.Q.T @ imap.Q - np.eye(2 * n)).max() <= 1e-14


def test_run_under_n_requests_solves_once_per_direction(monkeypatch):
    # a fresh run of fewer than n iterations solves for uhat0 and once per
    # direction of the span (chi's among them and its closing trace's, if
    # that one leaves it), fewer than its iterations.  It takes the
    # iterations of a reference
    # whose every flux is a direct solve and agrees with it to rounding
    case = manufactured_case("dipole-plus-constant", constant=3.0)
    n = 2 * N
    cfg = CouplingConfig(omega=0.5, tol=1e-10, n=n)
    ref_bundle = setup_level(case, 0.12, 1, n=n)
    with monkeypatch.context() as m:
        m.setattr(InterfaceMap, "span_flux", _direct_flux)
        ref = run_fixed_point(ref_bundle.system, ref_bundle.ops, f=case.f,
                              u0=case.u0, config=cfg)
    bundle = setup_level(case, 0.12, 1, n=n)
    calls = _count_trace_solves(bundle.system, monkeypatch)
    state = run_fixed_point(bundle.system, bundle.ops, f=case.f, u0=case.u0,
                            config=cfg)
    imap = bundle.system.interface_maps[bundle.ops]
    assert state.converged and state.iteration < n
    assert 2 <= imap.m < state.iteration
    assert len(calls) == imap.m + 1
    assert state.iteration == ref.iteration
    g, g_ref = state.g.coefficients(), ref.g.coefficients()
    assert np.abs(g - g_ref).max() <= 1e-12 * np.abs(g_ref).max()
    assert abs(state.u_inf - ref.u_inf) <= 1e-12 * abs(ref.u_inf)
    # the log's last iteration holds the worst residual of the solves
    # behind its flux, uhat0's and the span's
    assert state.residual_history[-2] == max(imap.residual0, imap.span_residual)

    # the oracle finds the answer in the span, so it leaves the span as it
    # was, and gives the answer of an oracle on a map whose span holds only
    # the direction of the reference's closing trace
    m, Q = imap.m, imap.Q[:, :imap.m].copy()
    field, g, _, u_inf = monolithic_solve(bundle.system, bundle.ops, f=case.f, u0=case.u0)
    assert imap.m == m and np.array_equal(imap.Q[:, :m], Q)
    assert ref_bundle.system.interface_maps[ref_bundle.ops].m == 1
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
    # one system swept over weights shares one span; the reference takes
    # one trace solve per iteration throughout, on fresh systems whose
    # span holds only the direction of a converged run's closing trace.
    # The case has a load, so the particular flux z_f is not zero
    case = manufactured_case("variable-kappa-bump", degree=1)
    omegas = (0.3, 0.4, 0.35, 0.95, 0.45)         # 0.95 diverges in 25
    calls = []
    original = HDGSystem.solve_trace

    def counted(self, rhs):
        result = original(self, rhs)
        calls.append(result[1])
        return result
    monkeypatch.setattr(HDGSystem, "solve_trace", counted)
    fresh_bundles = []

    def fresh():
        fresh_bundles.append(setup_level(case, 0.12, 1, n=N))
        return fresh_bundles[-1]
    with monkeypatch.context() as m:
        m.setattr(InterfaceMap, "span_flux", _direct_flux)
        ref, ref_runs = _sweep(case, omegas, fresh, calls)
    assert [b.system.interface_maps[b.ops].m for b in fresh_bundles] == \
        [s.converged for s in ref]
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
    # the same, and one solve per direction of the span (chi's and the
    # closing traces' among them)
    imap = bundle.system.interface_maps[bundle.ops]
    assert sum(per_run) == 1 + imap.m
    assert 2 <= imap.m < 2 * N
    # every iteration logs the worst residual of the solves behind its
    # flux, uhat0's and the span's so far
    residual0 = interface_map(bundle.system, bundle.ops, f=case.f, u0=case.u0).residual0
    served = [r for s in states for r in s.residual_history[:s.iteration]]
    assert served == sorted(served) and served[0] >= residual0
    assert set(served) <= set(calls)
    assert served[-1] == max(residual0, imap.span_residual)


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
    # the oracle's fit over the span against one sparse LU of the bordered
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


def test_monolithic_extends_the_span_by_its_out_of_span_matvecs_only(monkeypatch):
    # uhat0 and at most 2n residual directions that leave the span: the
    # oracle extends the span that it shares with the iteration by the
    # datum of each fit residual that makes a solve (a matvec F c), and by
    # nothing else; the answer lies in the span, so its field takes no
    # solve.  After a run, whose
    # span holds the answer, the oracle makes no solve and the span stays
    # as it was
    n = 8
    case = manufactured_case("dipole-plus-constant", constant=3.0)
    bundle = setup_level(case, 0.2, 1, n=n)
    calls = _count_trace_solves(bundle.system, monkeypatch)
    monolithic_solve(bundle.system, bundle.ops, f=case.f, u0=case.u0)
    imap = bundle.system.interface_maps[bundle.ops]
    assert len(calls) <= 2 * n + 1
    assert imap.m == len(calls) - 1 > 0

    run_fixed_point(bundle.system, bundle.ops, f=case.f, u0=case.u0)
    m = imap.m
    Q, FQ = imap.Q[:, :m].copy(), imap.FQ[:, :m].copy()
    del calls[:]
    monolithic_solve(bundle.system, bundle.ops, f=case.f, u0=case.u0)
    assert len(calls) == 0
    assert imap.m == m and np.array_equal(imap.Q[:, :m], Q)
    assert np.array_equal(imap.FQ[:, :m], FQ)


def test_monolithic_fresh_system_solves_once_per_matvec(monkeypatch):
    # uhat0, then one solve per matvec F c, one for the datum of each fit
    # residual, since the span of a fresh map is empty and each residual's
    # datum leaves the span of the earlier ones: 1 + k solves, and none for
    # the closing trace at the answer, which lies in the span
    case = manufactured_case("dipole-plus-constant", constant=3.0)
    bundle = setup_level(case, 0.2, 1, n=8)
    calls = _count_trace_solves(bundle.system, monkeypatch)
    matvecs = []
    span_flux = InterfaceMap.span_flux

    def counted(self, c):
        matvecs.append(1)
        return span_flux(self, c)
    monkeypatch.setattr(InterfaceMap, "span_flux", counted)
    monolithic_solve(bundle.system, bundle.ops, f=case.f, u0=case.u0)
    assert len(matvecs) >= 2
    assert len(calls) == 1 + len(matvecs) == 9
    assert bundle.system.interface_maps[bundle.ops].m == len(matvecs)


def test_monolithic_leaves_its_directions_in_the_span(monkeypatch):
    # the residual directions of an oracle stay in the shared span: a
    # second oracle finds the answer there and makes no solve, and a run
    # after it makes fewer solves than on a fresh system,
    # with the same iterations and answer
    case = manufactured_case("dipole-plus-constant", constant=3.0)
    bundle = setup_level(case, 0.2, 1, n=8)
    calls = _count_trace_solves(bundle.system, monkeypatch)
    first = monolithic_solve(bundle.system, bundle.ops, f=case.f, u0=case.u0)
    assert len(calls) == 9
    assert bundle.system.interface_maps[bundle.ops].m > 0
    del calls[:]
    second = monolithic_solve(bundle.system, bundle.ops, f=case.f, u0=case.u0)
    assert len(calls) == 0
    _assert_same_oracle_answer(second, first, 1e-12)

    del calls[:]
    state = run_fixed_point(bundle.system, bundle.ops, f=case.f, u0=case.u0)
    fresh = setup_level(case, 0.2, 1, n=8)
    fresh_calls = _count_trace_solves(fresh.system, monkeypatch)
    ref = run_fixed_point(fresh.system, fresh.ops, f=case.f, u0=case.u0)
    assert len(calls) < len(fresh_calls)
    assert state.iteration == ref.iteration
    g, g_ref = state.g.coefficients(), ref.g.coefficients()
    assert np.abs(g - g_ref).max() <= 1e-12 * np.abs(g_ref).max()
    assert abs(state.u_inf - ref.u_inf) <= 1e-12 * abs(ref.u_inf)


def _converged_span_run():
    """A converged run that leaves a span (h = 0.2, k = 1, n = 32)."""
    case = manufactured_case("dipole-plus-constant", constant=3.0)
    bundle = setup_level(case, 0.2, 1, n=32)
    run_fixed_point(bundle.system, bundle.ops, f=case.f, u0=case.u0,
                    config=CouplingConfig(omega=0.5, tol=1e-10, n=32))
    imap = bundle.system.interface_maps[bundle.ops]
    assert imap.m >= 2
    return case, bundle, imap


def _assert_same_oracle_answer(got, want, rtol):
    for a, b in ((got[0].Q, want[0].Q), (got[0].U, want[0].U),
                 (got[1].coefficients(), want[1].coefficients())):
        assert np.linalg.norm(a - b) <= rtol * np.linalg.norm(b)
    assert abs(got[3] - want[3]) <= rtol * abs(want[3])


def test_monolithic_after_a_converged_run_makes_no_solve(monkeypatch):
    # the span of a converged run holds the answer, so the oracle's first
    # fit over it leaves no residual to solve for, and the field of the answer
    # comes from the span's lifts: no solve, for this oracle and a second
    # one.  The answer is that of an oracle on a fresh system and of the
    # bordered reference, within the oracle's 1e-11 against the reference:
    # a fresh oracle lies about 2e-12 from it here
    case, bundle, imap = _converged_span_run()
    calls = _count_trace_solves(bundle.system, monkeypatch)
    got = monolithic_solve(bundle.system, bundle.ops, f=case.f, u0=case.u0)
    again = monolithic_solve(bundle.system, bundle.ops, f=case.f, u0=case.u0)
    assert len(calls) == 0
    _assert_same_oracle_answer(again, got, 0.0)
    fresh = setup_level(case, 0.2, 1, n=32)
    _assert_same_oracle_answer(
        got, monolithic_solve(fresh.system, fresh.ops, f=case.f, u0=case.u0), 1e-11)
    _assert_same_oracle_answer(
        got, bordered_monolithic_solve(fresh.system, fresh.ops, f=case.f, u0=case.u0), 1e-11)


def test_monolithic_on_a_partial_span_solves_no_more_than_on_a_fresh_system(monkeypatch):
    # Q[:, :j], FQ[:, :j] and lifts[:j] are the run's span after its first
    # j solves (restored each time, since the oracle extends the span); on
    # each the oracle makes no more solves than on a fresh system, less the
    # uhat0 solve that the run leaves, and gives the same answer
    case, bundle, imap = _converged_span_run()
    fresh = setup_level(case, 0.2, 1, n=32)
    calls = _count_trace_solves(fresh.system, monkeypatch)
    want = monolithic_solve(fresh.system, fresh.ops, f=case.f, u0=case.u0)
    alone = len(calls) - 1
    calls = _count_trace_solves(bundle.system, monkeypatch)
    m = imap.m
    Q, FQ, lifts = imap.Q[:, :m].copy(), imap.FQ[:, :m].copy(), imap.lifts[:]
    for j in range(m + 1):
        imap.Q[:, :m], imap.FQ[:, :m], imap.lifts, imap.m = Q, FQ, lifts[:j], j
        del calls[:]
        got = monolithic_solve(bundle.system, bundle.ops, f=case.f, u0=case.u0)
        assert len(calls) <= alone
        _assert_same_oracle_answer(got, want, 1e-11)
    assert len(calls) == 0


def test_monolithic_refuses_a_wrong_span_flux():
    # a flux column off by 1e-6 moves the answer, whose flux, taken from the
    # lifts and not from FQ, exposes it in the coupling residual
    case, bundle, imap = _converged_span_run()
    imap.FQ[:, 0] *= 1.0 + 1e-6
    with pytest.raises(SolverError, match=r"coupled oracle .* residual \d\.\d+e[+-]\d+"):
        monolithic_solve(bundle.system, bundle.ops, f=case.f, u0=case.u0)


def test_monolithic_reuses_the_uhat0_of_a_run(monkeypatch):
    # a run leaves uhat0 of its f and u0 on the shared map, so the
    # oracle after it makes one solve fewer than on a fresh system.  The
    # run stops after two iterations with the span {e_0, c_2} of chi and
    # x_1 = D b, b = -r(0); it holds the datum of b and so that of a fresh
    # oracle's first residual, b less its part along the image (-e_0, 0)
    # of the kernel direction, which therefore makes no solve either
    case = manufactured_case("dipole-plus-constant", constant=3.0)
    fresh = setup_level(case, 0.2, 1, n=8)
    calls = _count_trace_solves(fresh.system, monkeypatch)
    monolithic_solve(fresh.system, fresh.ops, f=case.f, u0=case.u0)
    alone = len(calls)

    bundle = setup_level(case, 0.2, 1, n=8)
    with pytest.raises(DivergenceError):
        run_fixed_point(bundle.system, bundle.ops, f=case.f, u0=case.u0,
                        config=CouplingConfig(max_iterations=2))
    imap = bundle.system.interface_maps[bundle.ops]
    assert imap.m == 2
    calls = _count_trace_solves(bundle.system, monkeypatch)
    monolithic_solve(bundle.system, bundle.ops, f=case.f, u0=case.u0)
    assert len(calls) == alone - 2


@pytest.mark.parametrize("name, k, n, fresh, after_run", [
    ("circle", 1, 8, 8, 5),
    ("bump", 2, 16, 9, 6),
    ("ellipse", 2, 32, 10, 7),
])
def test_monolithic_trace_solves_on_a_fresh_and_a_partial_span(
        monkeypatch, name, k, n, fresh, after_run):
    # the trace solves of the oracle on a fresh system (uhat0 and one per
    # residual direction; its closing trace is served from the span) and
    # after a 3-iteration run, whose span and uhat0 it reuses: each fit
    # over the span makes no solve, so the run's directions save solves
    case = {"circle": manufactured_case("dipole-plus-constant", constant=3.0),
            "bump": manufactured_case("variable-kappa-bump", degree=2),
            "ellipse": _ellipse_case((0.15, 0.1))}[name]
    closing = []
    trace_solve = InterfaceMap.trace_solve

    def counted(self, c):
        before = len(calls)
        result = trace_solve(self, c)
        closing.append(len(calls) - before)
        return result
    monkeypatch.setattr(InterfaceMap, "trace_solve", counted)
    bundle = setup_level(case, 0.1, k, n=n)
    calls = _count_trace_solves(bundle.system, monkeypatch)
    want = monolithic_solve(bundle.system, bundle.ops, f=case.f, u0=case.u0)
    assert len(calls) == fresh and closing == [0]

    bundle = setup_level(case, 0.1, k, n=n)
    with pytest.raises(DivergenceError):
        run_fixed_point(bundle.system, bundle.ops, f=case.f, u0=case.u0,
                        config=CouplingConfig(max_iterations=3))
    calls = _count_trace_solves(bundle.system, monkeypatch)
    got = monolithic_solve(bundle.system, bundle.ops, f=case.f, u0=case.u0)
    assert len(calls) == after_run
    _assert_same_oracle_answer(got, want, 1e-11)


def test_maps_with_equal_data_share_one_zero_datum_solve(monkeypatch):
    # the map keeps the zero datum (load moments, rhs0, uhat0) of the
    # latest (f, u0): a load with equal f and u0 reuses it (the bound method
    # case.u0 is a new object on every access, but an equal one), and a load
    # with other data replaces it
    case = manufactured_case("dipole-plus-constant", constant=3.0)
    bundle = setup_level(case, 0.2, 1, n=8)
    calls = _count_trace_solves(bundle.system, monkeypatch)

    def zero(u0):
        imap = interface_map(bundle.system, bundle.ops, f=case.f, u0=u0)
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


def test_a_failed_load_leaves_the_previous_one_in_place(monkeypatch):
    # a load whose uhat0 solve fails raises SolverError and keeps the
    # previous load and the span, so the next run with the first f and u0
    # is served its uhat0, its fluxes and its closing trace: no trace
    # solve, and the first answer
    case = manufactured_case("dipole-plus-constant", constant=3.0)
    bundle = setup_level(case, 0.2, 1, n=N)
    cfg = CouplingConfig(omega=0.5, tol=1e-10, n=N)
    first = run_fixed_point(bundle.system, bundle.ops, f=case.f, u0=case.u0, config=cfg)
    nan = lambda pts: np.full(len(np.atleast_2d(pts)), np.nan)
    with pytest.raises(SolverError, match="trace solve residual"):
        run_fixed_point(bundle.system, bundle.ops, f=case.f, u0=nan, config=cfg)
    calls = _count_trace_solves(bundle.system, monkeypatch)
    again = run_fixed_point(bundle.system, bundle.ops, f=case.f, u0=case.u0, config=cfg)
    assert len(calls) == 0
    for a, b in ((again.g.coefficients(), first.g.coefficients()),
                 (again.field.Q, first.field.Q), (again.field.U, first.field.U)):
        assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)
    assert abs(again.u_inf - first.u_inf) <= 1e-12 * abs(first.u_inf)


def test_a_new_load_keeps_the_span_of_the_old(monkeypatch):
    # run B (constant 1) after run A (constant 3) on one system reloads the
    # shared map and keeps A's span as it was: B takes the iterations of B
    # on a fresh system and its answer, with one solve for its uhat0 and one
    # per direction it adds, fewer than on a fresh system
    a = manufactured_case("dipole-plus-constant", constant=3.0)
    b = manufactured_case("dipole-plus-constant", constant=1.0)
    cfg = CouplingConfig(omega=0.5, tol=1e-10, n=N)
    fresh = setup_level(b, 0.2, 1, n=N)
    fresh_calls = _count_trace_solves(fresh.system, monkeypatch)
    want = run_fixed_point(fresh.system, fresh.ops, f=b.f, u0=b.u0, config=cfg)

    bundle = setup_level(a, 0.2, 1, n=N)
    run_fixed_point(bundle.system, bundle.ops, f=a.f, u0=a.u0, config=cfg)
    imap = bundle.system.interface_maps[bundle.ops]
    m, Q = imap.m, imap.Q[:, :imap.m].copy()
    calls = _count_trace_solves(bundle.system, monkeypatch)
    got = run_fixed_point(bundle.system, bundle.ops, f=b.f, u0=b.u0, config=cfg)
    assert got.iteration == want.iteration
    assert len(calls) == 1 + (imap.m - m) < len(fresh_calls)
    assert np.array_equal(imap.Q[:, :m], Q)
    for x, y in ((got.g.coefficients(), want.g.coefficients()),
                 (got.field.Q, want.field.Q)):
        assert np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(y)
    assert abs(got.u_inf - want.u_inf) <= 1e-12 * abs(want.u_inf)


def test_load_is_evaluated_once_per_f_and_u0():
    # a sweep of runs on one system and the oracle after it share the load
    # moments of one evaluation of f, since their f and u0 are the same
    case = manufactured_case("variable-kappa-bump", degree=1)
    bundle = setup_level(case, 0.2, 1, n=8)
    evaluations = []

    def f(pts):
        evaluations.append(len(pts))
        return case.f(pts)
    for omega in (0.3, 0.4, 0.5):
        state = run_fixed_point(bundle.system, bundle.ops, f=f, u0=case.u0,
                                config=CouplingConfig(omega=omega, tol=1e-10))
        assert state.converged
    monolithic_solve(bundle.system, bundle.ops, f=f, u0=case.u0)
    assert len(evaluations) == 1


def test_span_stays_under_2n_in_a_slow_run(monkeypatch):
    # rounding lets the data of a slow run creep out of the span, one more
    # direction every several iterations (see SPAN_TOL); at omega = 0.1 the
    # span still stays under 2n directions, the run makes one solve per
    # direction besides uhat0's, and it takes the
    # iterations of a run whose every flux is a direct solve and agrees
    # with it to rounding
    case = manufactured_case("variable-kappa-bump", degree=1)
    cfg = CouplingConfig(omega=0.1, tol=1e-10, n=N)
    ref_bundle = setup_level(case, 0.12, 1, n=N)
    with monkeypatch.context() as m:
        m.setattr(InterfaceMap, "span_flux", _direct_flux)
        ref = run_fixed_point(ref_bundle.system, ref_bundle.ops, f=case.f,
                              u0=case.u0, config=cfg)
    bundle = setup_level(case, 0.12, 1, n=N)
    calls = _count_trace_solves(bundle.system, monkeypatch)
    state = run_fixed_point(bundle.system, bundle.ops, f=case.f, u0=case.u0,
                            config=cfg)
    imap = bundle.system.interface_maps[bundle.ops]
    assert state.converged and state.iteration >= 50
    assert len(calls) == imap.m + 1
    assert 2 <= imap.m < 2 * N
    assert state.iteration == ref.iteration
    g, g_ref = state.g.coefficients(), ref.g.coefficients()
    assert np.abs(g - g_ref).max() <= 1e-12 * np.abs(g_ref).max()
    assert abs(state.u_inf - ref.u_inf) <= 1e-12 * abs(ref.u_inf)


def test_monolithic_refuses_an_unsolved_system():
    # a zero exterior solve (so zero T, flux -> g) and arc weights orthogonal
    # to the flux of a constant datum make the u_inf column vanish while the
    # zero-flux row still asks for arc_w . flux0 = 0, which no (g, u_inf)
    # meets; the fit stalls once its residual adds no direction to the span,
    # on an iterate that only rounding keeps finite, and the oracle refuses it
    case = manufactured_case("dipole-plus-constant", constant=3.0)
    bundle = setup_level(case, 0.2, 1, n=8)
    ops = bundle.ops
    unit = interface_map(bundle.system, ops).span_flux(np.eye(2 * ops.n)[0])
    bad = copy.copy(ops)
    bad.exterior = np.zeros_like(ops.exterior)
    bad.arc_w = ops.arc_w - (ops.arc_w @ unit) / (unit @ unit) * unit
    flux0 = interface_map(bundle.system, bad, f=case.f, u0=case.u0).apply(
        np.zeros(2 * ops.n))[0]
    assert abs(bad.arc_w @ flux0) > 1e-3 * np.abs(bad.arc_w).sum() * np.abs(flux0).max()
    with pytest.raises(SolverError, match=r"coupled oracle .* residual \d\.\d+e[+-]\d+"):
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
