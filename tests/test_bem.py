import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.special import iv

from hdgbem import (
    Curve,
    DimensionError,
    DomainError,
    SolverError,
    TrigPolynomial,
    assemble_layer_operators,
    evaluate_exterior,
    solve_exterior,
    write_density_csv,
)
from hdgbem import bem
from hdgbem.bem import EVAL_BAND, EVAL_CHUNK, LayerOperatorSet
from conftest import ellipse_curve

N = 32


def nodes(n=N):
    return np.arange(2 * n) * np.pi / n


# ---------------------------------------------------------------------------
# trig polynomials and the mean-zero projection
# ---------------------------------------------------------------------------

def test_interpolation_round_trip():
    rng = np.random.default_rng(0)
    samples = rng.normal(size=2 * N)
    poly = TrigPolynomial.from_samples(samples)
    assert np.abs(poly.eval(nodes()) - samples).max() < 1e-12
    assert len(poly.coefficients()) == 2 * N


@pytest.mark.parametrize("n", [1, 2, 7])
def test_eval_matches_mode_sum(n):
    # the coefficient matrix product against the mode-by-mode sum, on a
    # 2-D parameter array whose shape it keeps
    rng = np.random.default_rng(n)
    poly = TrigPolynomial(rng.normal(size=2 * n))
    t = rng.uniform(-7.0, 7.0, size=(3, 5))
    expect = poly.cos[0] + sum(poly.cos[m] * np.cos(m * t) for m in range(1, n + 1)) \
        + sum(poly.sin[m - 1] * np.sin(m * t) for m in range(1, n))
    assert np.abs(poly.eval(t) - expect).max() <= 1e-14 * np.abs(poly.coefficients()).sum()
    assert np.shape(poly.eval(0.5)) == ()


@pytest.mark.parametrize("op", ["add", "sub"])
def test_polynomials_of_different_degrees_do_not_combine(op):
    # this ended in numpy's broadcast error
    a, b = TrigPolynomial.zero(4), TrigPolynomial.zero(8)
    with pytest.raises(DimensionError, match="degrees 4 and 8"):
        a + b if op == "add" else a - b


def test_projection_kills_constants(ops32):
    # the projection is a matrix product, so a constant leaves rounding
    out = ops32.project(np.full(2 * N, 4.2))
    assert np.abs(out.coefficients()).max() <= 1e-15 * 4.2
    assert ops32.moments @ out.coefficients() == 0.0


def test_projection_keeps_mean_zero_modes(ops32):
    out = ops32.project(np.cos(3 * nodes()))
    expect = np.zeros(2 * N)
    expect[3] = 1.0
    assert np.abs(out.coefficients() - expect).max() < 1e-14


def test_projection_removes_mean_keeps_rest(ops32):
    out = ops32.project(np.cos(3 * nodes()) + 5.0)
    expect = np.zeros(2 * N)
    expect[3] = 1.0
    assert np.abs(out.coefficients() - expect).max() < 1e-14


def test_projection_idempotent(ops32):
    # projecting the node samples of a projected density gives it back
    rng = np.random.default_rng(1)
    out1 = ops32.project(rng.normal(size=2 * N))
    out2 = ops32.project(out1.eval(ops32.nodes))
    c1 = out1.coefficients()
    assert np.abs(out2.coefficients() - c1).max() <= 1e-14 * np.abs(c1).max()


def test_projection_dimension_errors(ops32):
    with pytest.raises(DimensionError):
        ops32.project(np.zeros(2 * N + 2))
    with pytest.raises(DimensionError):
        TrigPolynomial.from_samples(np.zeros(9))


@pytest.mark.parametrize("make", [lambda: TrigPolynomial([]), lambda: TrigPolynomial.zero(0)],
                         ids=["empty", "zero-0"])
def test_empty_trig_polynomial_is_refused(make):
    # it was built, and its l2_norm and eval raised numpy's IndexError and ValueError
    with pytest.raises(DimensionError, match="even length >= 2"):
        make()


@pytest.mark.parametrize("n", [-1, 1.5, np.float64(2.0)])
def test_zero_trig_polynomial_of_a_bad_degree_is_refused(n):
    # np.zeros raised its own ValueError and TypeError
    with pytest.raises(DimensionError, match="degree must be a whole number"):
        TrigPolynomial.zero(n)


@pytest.mark.parametrize("n", [1, 8.7])
def test_layer_operator_degree_is_refused(smooth_unit_circle, n):
    # a fractional degree was truncated to the one below
    with pytest.raises(DimensionError, match=f"whole number >= 2, got {n}"):
        assemble_layer_operators(smooth_unit_circle, n)


def test_weighted_mean_zero_on_curve(smooth_unit_circle):
    ops = assemble_layer_operators(smooth_unit_circle, N)
    out = ops.project(np.cos(nodes()) + 2.0)
    assert abs(ops.moments @ out.coefficients()) < 1e-13


# ---------------------------------------------------------------------------
# operator matrices
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [16, 32, 64])
@pytest.mark.parametrize("curve", [
    Curve.circle((0.0, 0.0), 1.0),
    Curve.circle((0.7, -1.3), 2.5),
    ellipse_curve(1.3, 0.9),
    ellipse_curve(1.1, 0.85),
], ids=["circle", "shifted-circle", "ellipse-1.3x0.9", "ellipse-1.1x0.85"])
def test_double_layer_maps_constants_to_one_half(curve, n):
    # Gauss's lemma in this sign convention: K 1 = +1/2 on any closed curve.
    # Off the circle the kernel varies and its diagonal is the curvature
    # limit, so a 1% error there shows as about 4e-5 in K 1.
    expect = np.zeros(2 * n)
    expect[0] = 0.5
    ops = assemble_layer_operators(curve, n)
    assert np.abs(ops.K[:, 0] - expect).max() <= 1e-13


def test_circle_fourier_eigenvalues(ops32):
    for m in range(1, N):
        lam = TrigPolynomial.zero(N)
        lam.cos[m] = 1.0
        out = ops32.V @ lam.coefficients()
        expect = np.zeros(2 * N)
        expect[m] = 1.0 / (2 * m)
        assert np.abs(out - expect).max() <= 1e-12


def test_double_layer_annihilates_mean_zero_on_circle(ops32):
    rng = np.random.default_rng(2)
    coeff = rng.normal(size=2 * N)
    coeff[0] = 0.0
    assert np.abs(ops32.K @ coeff).max() <= 1e-12


def test_radius_scaling_of_single_layer():
    R = 2.5
    ops = assemble_layer_operators(Curve.circle((0, 0), R), 8)
    lam = TrigPolynomial.zero(8)
    lam.cos[2] = 1.0
    out = ops.V @ lam.coefficients()
    assert out[2] == pytest.approx(R / 4.0, abs=1e-14)
    const = np.zeros(16)
    const[0] = 1.0
    assert (ops.V @ const)[0] == pytest.approx(-R * np.log(R), abs=1e-14)


def closed_form_circle_operators(R, n):
    """V and K of a circle of radius R on degree-n densities, from their Fourier diagonalization."""
    m = np.concatenate([np.arange(1, n + 1), np.arange(1, n)])
    V = np.diag(np.concatenate([[-R * np.log(R)], R / (2.0 * m)]))
    K = np.zeros((2 * n, 2 * n))
    K[0, 0] = 0.5
    return V, K


def test_galerkin_symmetry_and_diagonality(smooth_unit_circle, ops32):
    smooth = assemble_layer_operators(smooth_unit_circle, N)
    for ops in (ops32, smooth):
        GV = ops.gram[:, None] * ops.V
        assert np.abs(GV - GV.T).max() <= 1e-12
        off_V = ops.V - np.diag(np.diag(ops.V))
        off_K = ops.K - np.diag(np.diag(ops.K))
        assert np.abs(off_V).max() <= 1e-12
        assert np.abs(off_K).max() <= 1e-12


def test_smooth_path_matches_analytic_circle(smooth_unit_circle):
    smooth = assemble_layer_operators(smooth_unit_circle, N)
    V, K = closed_form_circle_operators(1.0, N)
    assert np.abs(smooth.V - V).max() < 1e-12
    assert np.abs(smooth.K - K).max() < 1e-12


@pytest.mark.parametrize("center, R", [((0.0, 0.0), 1.0), ((0.0, 0.0), 2.5), ((0.7, -1.3), 2.5)])
def test_circle_operators_match_closed_form(center, R):
    ops = assemble_layer_operators(Curve.circle(center, R), N)
    V, K = closed_form_circle_operators(R, N)
    assert np.abs(ops.V - V).max() < 1e-12
    assert np.abs(ops.K - K).max() < 1e-12


# ---------------------------------------------------------------------------
# exterior solve
# ---------------------------------------------------------------------------

def test_zero_density_gives_zero_trace(ops32):
    g = solve_exterior(ops32, TrigPolynomial.zero(N))
    assert np.abs(g.coefficients()).max() == 0.0


@pytest.mark.parametrize("m", [1, 2, 3, 7])
def test_cos_mode_solution(ops32, m):
    lam = TrigPolynomial.zero(N)
    lam.cos[m] = 1.0
    g = solve_exterior(ops32, lam)
    expect = np.zeros(2 * N)
    expect[m] = -1.0 / m
    assert np.abs(g.coefficients() - expect).max() < 1e-13


def test_sin_mode_solution(ops32):
    lam = ops32.project(np.sin(2 * nodes()))
    g = solve_exterior(ops32, lam)
    assert g.sin[1] == pytest.approx(-0.5, abs=1e-13)
    assert g.l2_norm() == pytest.approx(0.5 * np.sqrt(np.pi), rel=1e-12)


def test_solution_is_mean_zero(ops32):
    rng = np.random.default_rng(3)
    lam = ops32.project(rng.normal(size=2 * N))
    g = solve_exterior(ops32, lam)
    assert abs(ops32.moments @ g.coefficients()) <= 1e-13 * max(g.l2_norm(), 1e-30)


def test_rejects_non_mean_zero_density(ops32):
    lam = TrigPolynomial.zero(N)
    lam.cos[0] = 1.0
    with pytest.raises(SolverError, match="mean-zero"):
        solve_exterior(ops32, lam)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rejects_non_finite_density(ops32, bad):
    # the mean-zero test compares False for NaN, so it must be refused first
    lam = ops32.project(np.cos(ops32.nodes))
    lam.cos[1] = bad
    with pytest.raises(SolverError, match="finite density"):
        solve_exterior(ops32, lam)


def test_accepts_sum_of_projected_densities(ops32):
    # mean-zero is a property of the coefficients, so it survives arithmetic
    rng = np.random.default_rng(4)
    lam = ops32.project(rng.normal(size=2 * N)) + ops32.project(rng.normal(size=2 * N))
    g = solve_exterior(ops32, 0.5 * lam)
    assert np.abs(g.coefficients() - (-2.0 * ops32.V @ (0.5 * lam).coefficients())).max() < 1e-13


def test_degree_mismatch(ops32):
    with pytest.raises(DimensionError):
        solve_exterior(ops32, TrigPolynomial.zero(N // 2))


def _reduced_interface_solve(ops, lam_c):
    """g for one density: an LU solve of (1/2 - K) g = -V lam on the mean-zero space."""
    n2 = 2 * ops.n
    Z = np.zeros((n2, n2 - 1))
    Z[1:] = np.eye(n2 - 1)
    Z[0] -= ops.moments[1:] / ops.moments[0]
    reduced = Z.T @ (ops.gram[:, None] * (0.5 * np.eye(n2) - ops.K)) @ Z
    lu = scipy.linalg.lu_factor(reduced)
    return Z @ scipy.linalg.lu_solve(lu, Z.T @ (ops.gram * (-ops.V @ lam_c)))


@pytest.mark.parametrize("curve", ["circle", "ellipse"])
def test_exterior_matrix_is_the_interface_solve_of_every_mode(curve, ops32, ellipse):
    ops = ops32 if curve == "circle" else assemble_layer_operators(ellipse, N)
    modes = np.eye(2 * N)
    ref = np.column_stack([_reduced_interface_solve(ops, e) for e in modes])
    assert np.abs(ops.exterior - ref).max() <= 1e-13 * np.abs(ref).max()


def test_singular_interface_system_is_refused_at_construction(ops32):
    with pytest.raises(SolverError, match="singular reduced interface system"):
        LayerOperatorSet(ops32.curve, N, ops32.V, 0.5 * np.eye(2 * N))


def test_non_finite_interface_solve_column_is_refused(ops32):
    # a NaN residual fails every "above the bound" test, so it needs its own
    K = ops32.K.copy()
    K[3, 5] = np.nan
    with pytest.raises(SolverError, match="interface solve column \\d+: residual nan"):
        LayerOperatorSet(ops32.curve, N, ops32.V, K)


def test_spectral_accuracy_entire_density(ops32):
    # lambda = exp(cos t) - I0(1) has Bessel coefficients 2 I_m(1);
    # the exact trace follows from the Fourier diagonalization
    lam = ops32.project(np.exp(np.cos(nodes())))
    g = solve_exterior(ops32, lam)
    t = np.linspace(0, 2 * np.pi, 1001)
    exact = np.zeros_like(t)
    for m in range(1, 60):
        exact -= 2.0 * iv(m, 1.0) * np.cos(m * t) / m
    assert np.abs(g.eval(t) - exact).max() <= 1e-12


# ---------------------------------------------------------------------------
# exterior evaluation
# ---------------------------------------------------------------------------

def test_constant_field_evaluation(ops32):
    pts = np.array([[2.0, 0.0], [0.0, -3.0], [5.0, 5.0]])
    vals = evaluate_exterior(ops32, TrigPolynomial.zero(N),
                             TrigPolynomial.zero(N), 5.0, pts)
    assert np.abs(vals - 5.0).max() == 0.0


def test_dipole_representation(ops32):
    c = 3.0
    g = TrigPolynomial.zero(N)
    g.cos[1] = 1.0
    lam = TrigPolynomial.zero(N)
    lam.cos[1] = -1.0
    pts = np.array([[2.0, 0.0], [0.0, 2.0], [-1.3, 1.1], [4.0, -3.0]])
    vals = evaluate_exterior(ops32, g, lam, c, pts)
    exact = pts[:, 0] / np.sum(pts ** 2, axis=1) + c
    assert np.abs(vals - exact).max() <= 1e-8


def test_far_field_monotone_decay(ops32):
    g = TrigPolynomial.zero(N)
    g.cos[1] = 1.0
    lam = TrigPolynomial.zero(N)
    lam.cos[1] = -1.0
    v10, v100 = evaluate_exterior(ops32, g, lam, 2.0,
                                  np.array([[10.0, 0.0], [100.0, 0.0]]))
    assert abs(v100 - 2.0) < abs(v10 - 2.0)
    assert abs(v10 - 2.0) == pytest.approx(0.1, rel=1e-6)
    assert abs(v100 - 2.0) == pytest.approx(0.01, rel=1e-6)


# poles of the field below, all within 0.36 of the origin, so inside both
# the unit circle and the 1.3 x 0.9 ellipse
POLES = (0.2 + 0.1j, -0.15 - 0.2j, 0.25 - 0.15j, -0.2 + 0.2j)


def harmonic_field(p):
    """u - u_inf = Re(1/z + c/(z - p1)^2 + 0.2i/(z - p4)) + log|z - p2| / 2 - log|z - p3| / 2,
    harmonic outside the poles and decaying at infinity; with its gradient."""
    p1, p2, p3, p4 = POLES
    c = 0.3 * np.exp(0.7j)
    z = p[..., 0] + 1j * p[..., 1]
    u = (1 / z + c / (z - p1) ** 2 + 0.2j / (z - p4)).real \
        + 0.5 * np.log(np.abs((z - p2) / (z - p3)))
    du = -1 / z ** 2 - 2 * c / (z - p1) ** 3 + 0.5 / (z - p2) - 0.5 / (z - p3) \
        - 0.2j / (z - p4) ** 2
    return u, np.stack([du.real, -du.imag], axis=-1)


def cauchy_data(ops):
    """Densities (g, lam) interpolating the field's exact Cauchy data."""
    y = ops.curve.point(ops.nodes)
    u, grad = harmonic_field(y)
    lam = np.sum(grad * ops.curve.normal(ops.nodes), axis=1)
    return TrigPolynomial.from_samples(u), ops.project(lam)


@pytest.fixture(scope="module")
def ops64_both():
    return {"circle": assemble_layer_operators(Curve.circle((0.0, 0.0), 1.0), 64),
            "ellipse": assemble_layer_operators(ellipse_curve(1.3, 0.9), 64)}


@pytest.fixture(scope="module")
def lobed64():
    """n = 64 operators of the non-convex three-lobed curve r = 1 + 0.15 cos 3s."""
    def polar(s, a, b):
        # a (cos s, sin s) + b (-sin s, cos s)
        return np.stack([a * np.cos(s) - b * np.sin(s), a * np.sin(s) + b * np.cos(s)], axis=-1)

    def r(s):
        return 1.0 + 0.15 * np.cos(3.0 * s)

    def dr(s):
        return -0.45 * np.sin(3.0 * s)

    curve = Curve.from_parametrization(
        lambda s: polar(s, r(s), 0.0),
        lambda s: polar(s, dr(s), r(s)),
        lambda s: polar(s, -1.35 * np.cos(3.0 * s) - r(s), 2.0 * dr(s)))
    return assemble_layer_operators(curve, 64)


@pytest.fixture(params=["circle", "ellipse"])
def ops64(request, ops64_both):
    return ops64_both[request.param]


def test_chunked_evaluation_is_bounded_and_pointwise(ops64_both):
    # 20k points span many blocks of both sums: the traced peak stays
    # small, and every point, block ends included, gets its own value,
    # here the exact field's to rounding from d = 1e-5 out
    rng = np.random.default_rng(5)
    d = 10.0 ** rng.uniform(-5.0, np.log10(3.0), 20000)
    s = rng.uniform(0.0, 2.0 * np.pi, 20000)
    pts = (1.0 + d)[:, None] * np.column_stack([np.cos(s), np.sin(s)])
    circle64 = ops64_both["circle"]
    g, lam = cauchy_data(circle64)
    tracemalloc.start()
    try:
        vals = evaluate_exterior(circle64, g, lam, 0.7, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    exact = harmonic_field(pts)[0] + 0.7
    scale = np.abs(exact).max()
    assert np.abs(vals - exact).max() <= 1e-12 * scale
    # a one-point call can run other BLAS kernels: measured 1.5e-15 of max |u|
    ends = np.arange(EVAL_CHUNK, len(pts), EVAL_CHUNK)
    for i in np.concatenate([[0, len(pts) - 1], ends - 1, ends]):
        one = evaluate_exterior(circle64, g, lam, 0.7, pts[i])
        assert abs(one - vals[i]) <= 1e-14 * scale


@pytest.mark.parametrize("d", [1e-5, 1e-3, 1e-2, 0.1, 1.0])
def test_evaluation_off_the_circle_matches_node_sums(ops64_both, lobed64, d):
    # exact Cauchy data at n = 64 on the circle, the ellipse and the
    # non-convex three-lobed curve: the barycentric rule near the curve and
    # the log-free trapezoidal sum away from it both reach rounding
    rng = np.random.default_rng(7)
    s = rng.uniform(0.0, 2.0 * np.pi, 3 * EVAL_CHUNK + 5)
    for ops in [*ops64_both.values(), lobed64]:
        pts = ops.curve.point(s) + d * ops.curve.normal(s)
        g, lam = cauchy_data(ops)
        vals = evaluate_exterior(ops, g, lam, -0.3, pts)
        exact = harmonic_field(pts)[0] - 0.3
        scale = np.abs(exact).max()
        assert np.abs(vals - exact).max() <= 1e-12 * scale
        # a one-point call sums in another order; a repeated call in the same
        for i in [0, EVAL_CHUNK - 1, EVAL_CHUNK, len(pts) - 1]:
            one = evaluate_exterior(ops, g, lam, -0.3, pts[i])
            assert abs(one - vals[i]) <= 1e-14 * scale
        assert np.array_equal(evaluate_exterior(ops, g, lam, -0.3, pts), vals)


@pytest.mark.parametrize("side", [0.98, 1.02])
def test_band_edge_is_accurate_on_both_sides(ops64, side):
    # just inside the band the barycentric rule serves, just outside the
    # trapezoidal sum, at the fastest node's spacing where its error is largest
    m = len(ops64.quad_points)
    spacing = np.max(ops64.curve.speed(np.arange(m) * 2.0 * np.pi / m)) * 2.0 * np.pi / m
    s = np.linspace(0.0, 2.0 * np.pi, 4 * m, endpoint=False)
    pts = ops64.curve.point(s) + side * EVAL_BAND * spacing * ops64.curve.normal(s)
    g, lam = cauchy_data(ops64)
    exact = harmonic_field(pts)[0]
    vals = evaluate_exterior(ops64, g, lam, 0.0, pts)
    assert np.abs(vals - exact).max() <= 1e-12 * np.abs(exact).max()


def laurent_ring_error(ops, g, lam):
    """Max |evaluate_exterior - direct sum| over rings at 0.98 and 1.02 times
    EVAL_LAURENT R about the nodes' centroid, the inner ring on the direct
    sum and the outer one on the Laurent series; with max |u - u_inf| there
    and the values."""
    ring = np.exp(2j * np.pi * np.arange(400) / 400)
    z = ops.centre + np.concatenate([0.98 * ring, 1.02 * ring]) * bem.EVAL_LAURENT * ops.radius
    pts = np.column_stack([z.real, z.imag])
    vals = evaluate_exterior(ops, g, lam, 0.0, pts)
    psi, _ = bem._cauchy_density(ops, g.coefficients(), lam.coefficients())
    direct = bem._log_free_sum(ops, psi, pts)
    return np.abs(vals - direct).max(), np.abs(vals).max(), pts, vals


# both sums err by rounding on either side of the exact discrete sum: against
# it in extended precision each is within 3.1 eps of max |u - u_inf| here,
# and they differ by up to 4.2 eps
LAURENT_TOL = 8.0 * np.finfo(float).eps


def test_laurent_series_matches_the_direct_sum(ops64):
    g, lam = cauchy_data(ops64)
    err, scale, pts, vals = laurent_ring_error(ops64, g, lam)
    assert err <= LAURENT_TOL * scale
    exact = harmonic_field(pts)[0]
    assert np.abs(vals - exact).max() <= 1e-12 * np.abs(exact).max()


def test_laurent_series_needs_all_its_terms(ops64_both, monkeypatch):
    # Cauchy data of an exterior field has moments that decay like the
    # field's Laurent coefficients, (0.36 / R)^k here, so fewer terms would
    # do for it; a cardinal g with lam = 0 is no such data, its moments do
    # not decay, and it needs the worst-case EVAL_TERMS rows of the power
    # table (measured at n = 64 on the ellipse: 4.8 eps with them, 125 eps
    # with 20 fewer)
    ops = ops64_both["ellipse"]
    g, lam = TrigPolynomial.from_samples(np.eye(2 * ops.n)[0]), TrigPolynomial.zero(ops.n)
    err, scale, _, _ = laurent_ring_error(ops, g, lam)
    assert err <= LAURENT_TOL * scale
    assert len(ops.laurent_powers) == bem.EVAL_TERMS
    monkeypatch.setattr(ops, "laurent_powers", ops.laurent_powers[:-20])
    err, scale, _, _ = laurent_ring_error(ops, g, lam)
    assert err > LAURENT_TOL * scale


def test_band_points_beyond_the_laurent_radius_stay_on_the_close_rule():
    # at n = 8 the band around the unit circle reaches r = 1.56, past
    # EVAL_LAURENT R = 1.5: points between take the barycentric rule, exact
    # here for u = Re(a1 / z + a2 / z^2 + a3 / z^3), whose Cauchy data has degree 3
    ops = assemble_layer_operators(Curve.circle((0.0, 0.0), 1.0), 8)
    a = np.array([0.3, 0.2 - 0.1j, 0.05j])
    k = np.arange(1, 4)

    def field(p):
        z = p[..., 0] + 1j * p[..., 1]
        return (a / z[..., None] ** k).sum(axis=-1).real, \
            (-k * a / z[..., None] ** (k + 1)).sum(axis=-1)

    y = ops.curve.point(ops.nodes)
    du = field(y)[1]
    lam = np.sum(np.column_stack([du.real, -du.imag]) * ops.curve.normal(ops.nodes), axis=1)
    g, lam = TrigPolynomial.from_samples(field(y)[0]), ops.project(lam)
    s = np.linspace(0.0, 2.0 * np.pi, 300, endpoint=False)
    r = np.linspace(1.51, 1.55, 300)
    pts = r[:, None] * np.column_stack([np.cos(s), np.sin(s)])
    spacing = 2.0 * np.pi / len(ops.quad_points)
    assert r.min() >= bem.EVAL_LAURENT and r.max() - 1.0 < EVAL_BAND * spacing
    vals = evaluate_exterior(ops, g, lam, 0.0, pts)
    psi, dpsi = bem._cauchy_density(ops, g.coefficients(), lam.coefficients())
    close = bem._close_sum(ops, bem._boundary_values(ops, psi, dpsi), pts)
    assert np.array_equal(vals, close)
    exact = field(pts)[0]
    assert np.abs(vals - exact).max() <= 1e-12 * np.abs(exact).max()


def test_boundary_values_match_the_trace(ops64):
    # for Cauchy data of an exterior field, Re v is g at the nodes
    g, lam = cauchy_data(ops64)
    psi, dpsi = bem._cauchy_density(ops64, g.coefficients(), lam.coefficients())
    v = bem._boundary_values(ops64, psi, dpsi)
    assert np.abs(v.real - ops64.quad_modes @ g.coefficients()).max() <= 1e-12


def test_density_with_a_mean_is_refused(ops32):
    # Lambda is periodic only for a mean-zero lam; solve_exterior's rule
    lam = ops32.project(np.sin(ops32.nodes))
    lam.cos[0] = 1e-6
    with pytest.raises(SolverError, match="exterior evaluation requires a mean-zero density"):
        evaluate_exterior(ops32, TrigPolynomial.zero(N), lam, 0.0, np.array([[5.0, 0.0]]))


@pytest.mark.parametrize("curve", ["circle", "ellipse"])
def test_point_whose_square_overflows_is_refused(ops32, ops_ellipse32, curve):
    # |x|^2 enters the expanded r^2, so it must be finite; this point gave
    # NaN on the circle and a closest-point error on the ellipse
    ops = ops32 if curve == "circle" else ops_ellipse32
    g, lam = ops.project(np.cos(ops.nodes)), ops.project(np.sin(ops.nodes))
    with pytest.raises(DomainError, match="squared norm overflows"):
        evaluate_exterior(ops, g, lam, 0.0, np.array([[5.0, 0.0], [1e200, 0.0]]))
    # a point whose square is finite is summed: the field decays like 1/|x|
    far = evaluate_exterior(ops, g, lam, 0.0, np.array([[1e150, 0.0]]))
    assert np.isfinite(far) and 0.0 < abs(far) < 1e-149


@pytest.fixture(scope="module")
def ops_ellipse32():
    return assemble_layer_operators(ellipse_curve(1.3, 0.9), N)


def test_evaluate_exterior_on_no_points(ops32):
    vals = evaluate_exterior(ops32, TrigPolynomial.zero(N), TrigPolynomial.zero(N),
                             0.0, np.empty((0, 2)))
    assert vals.shape == (0,)
    assert evaluate_exterior(ops32, TrigPolynomial.zero(N), TrigPolynomial.zero(N),
                             0.0, []).shape == (0,)


def test_inside_point_rejected(ops32):
    with pytest.raises(DomainError):
        evaluate_exterior(ops32, TrigPolynomial.zero(N), TrigPolynomial.zero(N),
                          0.0, np.array([[0.5, 0.0]]))


@pytest.mark.parametrize("points", [np.full((1, 3), 5.0), np.full(3, 5.0),
                                    np.full((1, 1, 2), 5.0)],
                         ids=["1x3", "3", "1x1x2"])
def test_bad_point_shape_rejected(ops32, points):
    # these ended in numpy's broadcast error, or for (1, 1, 2) in a
    # DomainError about the interface
    with pytest.raises(DimensionError, match=re.escape(f"got shape {points.shape}")):
        evaluate_exterior(ops32, TrigPolynomial.zero(N), TrigPolynomial.zero(N),
                          0.0, points)


@pytest.mark.parametrize("point", [[np.nan, 0.0], [np.inf, 0.0], [3.0, np.nan]],
                         ids=["nan", "inf", "nan-y"])
def test_non_finite_point_rejected(ops32, point):
    # NaN compares False against the standoff, so it must be refused first
    with pytest.raises(DomainError, match="not finite"):
        evaluate_exterior(ops32, TrigPolynomial.zero(N), TrigPolynomial.zero(N),
                          0.0, np.array([[5.0, 0.0], point]))


@pytest.mark.parametrize("which, bad", [("u_inf", np.nan), ("u_inf", np.inf),
                                        ("g", np.nan), ("lam", np.inf)])
def test_non_finite_data_rejected(ops32, which, bad):
    data = {"g": ops32.project(np.cos(ops32.nodes)),
            "lam": ops32.project(np.sin(ops32.nodes)), "u_inf": 0.5}
    if which == "u_inf":
        data["u_inf"] = bad
    else:
        data[which].cos[2] = bad
    with pytest.raises(SolverError, match="finite u_inf and densities"):
        evaluate_exterior(ops32, data["g"], data["lam"], data["u_inf"],
                          np.array([[5.0, 0.0]]))


@pytest.mark.parametrize("u_inf", [np.array([1.0, 2.0]), np.array([1.0])], ids=["2", "1"])
def test_non_scalar_u_inf_rejected(ops32, u_inf):
    # a 2-vector ended in numpy's truth-value error; a 1-vector was broadcast
    with pytest.raises(DimensionError, match="u_inf must be a scalar"):
        evaluate_exterior(ops32, TrigPolynomial.zero(N), TrigPolynomial.zero(N),
                          u_inf, np.array([[5.0, 0.0]]))


@pytest.mark.parametrize("u_inf", ["a", b"x", None], ids=["str", "bytes", "none"])
def test_non_numeric_u_inf_rejected(ops32, u_inf):
    # np.isfinite raised its own TypeError
    with pytest.raises(DimensionError, match="u_inf must be a scalar and real"):
        evaluate_exterior(ops32, TrigPolynomial.zero(N), TrigPolynomial.zero(N),
                          u_inf, np.array([[5.0, 0.0]]))


@pytest.mark.parametrize("u_inf", [1.0 + 2.0j, np.complex128(3.0)], ids=["python", "numpy"])
def test_complex_u_inf_rejected(ops32, u_inf):
    # adding it to the real values ended in numpy's UFuncTypeError
    with pytest.raises(DimensionError, match="u_inf must be a scalar and real"):
        evaluate_exterior(ops32, TrigPolynomial.zero(N), TrigPolynomial.zero(N),
                          u_inf, np.array([[5.0, 0.0]]))


def test_circle_measures_only_the_prefiltered_points(ops32, monkeypatch):
    # the radius prefilter holds on a circle too: a point beyond the
    # farthest node plus one spacing plus the band is never measured
    curve, asked = ops32.curve, []
    measure = curve.signed_distance
    monkeypatch.setattr(curve, "signed_distance",
                        lambda pts: asked.append(len(pts)) or measure(pts))
    pts = np.array([[1.05, 0.0], [0.0, 3.0], [5.0, 0.0], [-2.0, -2.0]])
    vals = evaluate_exterior(ops32, TrigPolynomial.zero(N), TrigPolynomial.zero(N), 1.0, pts)
    assert asked == [1]
    assert np.array_equal(vals, np.ones(4))


@pytest.mark.parametrize("which", ["g", "lam"])
def test_density_of_another_degree_rejected(ops32, which):
    # both densities are read through the operators' one mode table
    data = {"g": TrigPolynomial.zero(N), "lam": TrigPolynomial.zero(N)}
    data[which] = TrigPolynomial.zero(N // 2)
    with pytest.raises(DimensionError, match=f"densities need {2 * N} coefficients"):
        evaluate_exterior(ops32, data["g"], data["lam"], 0.0, np.array([[5.0, 0.0]]))


# ---------------------------------------------------------------------------
# interpolation basis and csv interfaces
# ---------------------------------------------------------------------------

def test_lagrange_cardinal_and_mean_zero_combinations():
    # the interpolant of the j-th unit sample vector is the cardinal
    # function of node t_j
    n = 8
    tj = np.arange(2 * n) * np.pi / n
    cardinal = lambda j: TrigPolynomial.from_samples(np.eye(2 * n)[j])
    for j in (0, 3, 11):
        expect = np.zeros(2 * n)
        expect[j] = 1.0
        assert np.abs(cardinal(j).eval(tj) - expect).max() < 1e-13
    t = np.linspace(0, 2 * np.pi, 400, endpoint=False)
    for j in (1, 5):
        diff = cardinal(j).eval(t) - cardinal(0).eval(t)
        assert abs(np.mean(diff)) < 1e-14      # mean-zero basis member


def test_density_csv(tmp_path):
    g = TrigPolynomial.zero(N)
    g.cos[1] = 1.0
    g.sin[2] = -0.25
    path = tmp_path / "density.csv"
    write_density_csv(g, path)
    rows = path.read_text().splitlines()
    assert rows[0] == "mode,cos,sin"
    assert len(rows) == N + 2
    # every real as printf's %.17e, the sines padded with 0.0 at modes 0 and N
    sin = [0.0, *g.sin, 0.0]
    assert rows[1:] == [f"{m},{g.cos[m]:.17e},{sin[m]:.17e}" for m in range(N + 1)]
