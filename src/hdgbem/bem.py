"""Spectral boundary-integral solver for the exterior Laplace problem.

The exterior solution is represented by a double-layer density g and a
single-layer density lam on the artificial interface plus a far-field
constant,

    u_ext = D g - S lam + u_inf,

and the interface equation (1/2 - K) g = -V lam is solved on the space of
mean-zero trigonometric polynomials; the constant mode is annihilated by
the mean-zero test space and is recovered by the coupling's zero-mean-flux
condition instead.  ``LayerOperatorSet`` solves it once, for every density
mode, into the matrix ``exterior`` (lam coefficients to g coefficients),
so an exterior solve is one matvec.  "Mean-zero" always means zero
arclength mean, and the operator set owns the rule: its ``moments``
measure the mean, ``P`` builds mean-zero densities, and ``solve_exterior``
refuses a density whose mean is not zero.  It also owns what the coupling
reads of the exterior side: the node arc weights and the matrix from
interface flux samples to the exterior trace.
Parametric kernels (2 pi periodic, G the Green function of the minus
Laplacian):

    V(s,t) = -log|y(s) - y(t)| / (2 pi)
    K(s,t) = (y(s) - y(t)) . n(y(s)) / (2 pi |y(s) - y(t)|^2).

Every curve, circles included, uses the periodic-log splitting: the
singular part is applied through its exact Fourier multipliers, the smooth
remainder and K by the trapezoidal rule, both spectrally accurate.  Both
trapezoidal kernels read one table of differences y(s) - y(t) on the
quadrature grid, and each diagonal is set by index to its s -> t limit:
-log|y'| / (2 pi) for V's remainder -log(|y(s) - y(t)| / 2|sin((s-t)/2)|)
/ (2 pi), and the curvature term -y''.n / (4 pi y'.y') for K.  On a circle
of radius R the result is, to rounding, the Fourier diagonalization: V
maps cos/sin of mode m to R/(2m) times itself (constants to -R log R) and
K annihilates mean-zero densities.

Densities live in the span of {1, cos t .. cos nt, sin t .. sin (n-1)t}
with 2n real coefficients; the 2n equispaced nodes t_j = j pi / n carry the
sample <-> coefficient transforms.

``evaluate_exterior`` sums the field without logarithms: integrating the
single layer by parts turns D g - S lam into Re Phi(z), the Cauchy integral
Phi(z) = (1/2 pi) int W / (z - zeta) ds in complex notation, z = x1 + i x2
and zeta(s) the curve, with W = (Lambda - i g) zeta' and Lambda the
antiderivative of lam |zeta'|, periodic because lam is mean-zero.  Three
rules sum it, chosen per point, for m = max(8n, 64) nodes of radius R about
their centroid:

- within EVAL_BAND node spacings of the curve, the barycentric rule for
  Cauchy integrals, O(m) per point;
- outside that band and at least EVAL_LAURENT R from the centroid, the
  Laurent series of the trapezoidal sum, O(EVAL_TERMS) per point after one
  O(EVAL_TERMS m) set of moments;
- elsewhere, the trapezoidal sum itself, O(m) per point.

A one-point call and a blocked call agree to the last bits, not bit for bit.
"""

import numpy as np

from .errors import DimensionError, DomainError, SolverError
# perfbench calls and traces this writer as a bem attribute
from .export import write_density_csv  # noqa: F401

TWO_PI = 2.0 * np.pi
# the operator quadrature uses OVERSAMPLE times the 2n density nodes
OVERSAMPLE = 2
# evaluation points per block of evaluate_exterior: a block's (block, 2m)
# product and (2, block, m) differences are then 1 MB each at n = 64 (m = 8n
# nodes), so its working set stays near a 2 MB per-core L2 cache instead of
# streaming through memory
EVAL_CHUNK = 128
# evaluate_exterior refuses points within EVAL_STANDOFF * diameter of the curve
EVAL_STANDOFF = 1e-6
# width of the band around the curve, in node spacings at the fastest node,
# inside which evaluate_exterior takes the barycentric close rule: at distance
# d the trapezoidal rule's error decays like exp(-2 pi d / spacing), so it
# reaches rounding at ln(1/eps) / 2 pi = 5.7 spacings
EVAL_BAND = np.log(1.0 / np.finfo(float).eps) / TWO_PI
# points outside the band and at least EVAL_LAURENT times the nodes' radius R
# from their centroid take the far sum's Laurent series: its term k = 0, 1, ...
# is at most EVAL_LAURENT^-(k+1) mean |W_j| / R, so the tail after EVAL_TERMS
# terms is below (eps / 4) / (EVAL_LAURENT - 1) = eps / 2 of mean |W_j| / R,
# the rounding level of the direct sum
EVAL_LAURENT = 1.5
EVAL_TERMS = int(np.ceil(np.log(np.finfo(float).eps / 4.0) / np.log(1.0 / EVAL_LAURENT)))


# ---------------------------------------------------------------------------
# trigonometric polynomials
# ---------------------------------------------------------------------------

class TrigPolynomial:
    """Real trigonometric polynomial a0 + sum a_m cos(mt) + b_m sin(mt).

    Cosine coefficients run to degree n, sine coefficients to n-1, for 2n
    real degrees of freedom matching 2n equispaced samples, held as the one
    packed vector [a0..an, b1..b_{n-1}] of which ``cos`` and ``sin`` are views.
    ``TrigPolynomial(vec)`` wraps a packed vector of length 2n, uncopied.
    """

    def __init__(self, vec):
        self._c = np.asarray(vec, dtype=float)
        if self._c.ndim != 1 or len(self._c) % 2:
            raise DimensionError("packed coefficient vector must have even length")
        self.n = len(self._c) // 2

    cos = property(lambda self: self._c[:self.n + 1], doc="a0..an, a view")
    sin = property(lambda self: self._c[self.n + 1:], doc="b1..b_{n-1}, a view")

    @classmethod
    def zero(cls, n):
        return cls(np.zeros(2 * n))

    @classmethod
    def from_samples(cls, samples):
        """Trigonometric interpolant of 2n equispaced samples on [0, 2 pi)."""
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 1 or len(samples) % 2 or len(samples) < 4:
            raise DimensionError("need an even number (>= 4) of equispaced samples")
        return cls(_samples_to_coeff(len(samples) // 2, samples[:, None])[:, 0])

    def coefficients(self):
        """A copy of the packed vector."""
        return self._c.copy()

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        return (_coeff_to_samples(self.n, t.ravel()) @ self._c).reshape(t.shape)

    def l2_norm(self, speed=1.0):
        """L2(Gamma) norm; ``speed`` is |y'| (a scalar for circles)."""
        s2 = TWO_PI * self.cos[0] ** 2 + np.pi * (np.sum(self.cos[1:] ** 2)
                                                  + np.sum(self.sin ** 2))
        return float(np.sqrt(speed * s2))

    def __add__(self, other):
        return TrigPolynomial(self._c + self._same_degree(other)._c)

    def __sub__(self, other):
        return TrigPolynomial(self._c - self._same_degree(other)._c)

    def _same_degree(self, other):
        if other.n != self.n:
            raise DimensionError(f"cannot combine trigonometric polynomials of "
                                 f"degrees {self.n} and {other.n}")
        return other

    def __mul__(self, a):
        return TrigPolynomial(a * self._c)

    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# operator assembly
# ---------------------------------------------------------------------------

def _coeff_to_samples(n, t):
    """Values (t.shape + (2n,)) of the packed degree-n modes at parameters t."""
    t = np.asarray(t, dtype=float)
    cols = [np.ones_like(t)]
    cols += [np.cos(m * t) for m in range(1, n + 1)]
    cols += [np.sin(m * t) for m in range(1, n)]
    return np.stack(cols, axis=-1)


def _samples_to_coeff(n_out, samples_matrix):
    """Fourier truncation of columns sampled on their own equispaced grid."""
    m = samples_matrix.shape[0]
    F = np.fft.rfft(samples_matrix, axis=0)[:n_out + 1]
    cos_c = 2.0 * F.real / m
    cos_c[0] /= 2.0
    if n_out == m // 2:
        cos_c[n_out] /= 2.0
    sin_c = -2.0 * F[1:n_out].imag / m
    return np.vstack([cos_c, sin_c])


class LayerOperatorSet:
    """Discrete single/double layer operators on degree-n densities.

    ``V`` and ``K`` are 2n x 2n matrices acting on packed coefficient
    vectors and returning packed coefficients of the boundary traces.  The
    Galerkin inner product in the 2 pi-periodic parameter is diagonal:
    gram = diag(2 pi, pi, ..., pi).  The set also holds what every exterior
    solve reuses: the arclength ``moments`` of the basis and ``exterior``
    (2n x 2n), the interface solve applied to every density mode, so that
    g = exterior @ lam.  For the coupling it holds the node arc weights
    ``arc_w`` of the total-flux integral over 2n flux samples, and for the
    exterior evaluation the max(8n, 64) trapezoidal nodes' ``quad_points``,
    curve derivatives ``quad_dzeta`` as complex numbers and mode table
    ``quad_modes``.

    It is the one owner of the mean-zero rule: a density is mean-zero when
    its arclength mean ``moments @ c`` vanishes, ``P`` (2n x 2n) maps 2n
    node samples to the coefficients of the mean-zero density that
    interpolates them up to a constant, and ``solve_exterior`` refuses any
    other density.
    """

    def __init__(self, curve, n, V, K):
        self.curve = curve
        self.n = int(n)
        self.V = V
        self.K = K
        self.nodes = np.arange(2 * self.n) * np.pi / self.n
        self.gram = np.full(2 * self.n, np.pi)
        self.gram[0] = TWO_PI
        # the exterior quadrature: the trapezoidal rule on max(8n, 64) nodes,
        # with their points, complex derivatives and mode table, read by the
        # arclength moments and by every evaluate_exterior call
        t = np.linspace(0.0, TWO_PI, max(8 * self.n, 64), endpoint=False)
        self.quad_modes = _coeff_to_samples(self.n, t)
        self.quad_points, self.quad_dzeta = curve.point(t), curve.derivative(t) @ [1.0, 1j]
        self.moments = _arc_moments(curve, curve.speed(t), self.quad_modes)
        injection = _mean_zero_injection(self.moments)
        self.exterior = _exterior_map(V, K, self.gram, injection)
        self.P = injection @ _samples_to_coeff(self.n, np.eye(2 * self.n))[1:]
        self.arc_w = curve.speed(self.nodes) * np.pi / self.n

    def modes(self, t):
        """Values (t.shape + (2n,)) of the 2n packed density modes at parameters t."""
        return _coeff_to_samples(self.n, t)

    def project(self, samples):
        """Mean-zero density interpolating the 2n node samples up to a constant."""
        samples = np.asarray(samples, dtype=float)
        if samples.shape != (2 * self.n,):
            raise DimensionError(f"expected {2 * self.n} samples, got shape {samples.shape}")
        return TrigPolynomial(self.P @ samples)


def assemble_layer_operators(curve, n):
    """Build the coefficient-space layer operator matrices.

    Every curve uses the periodic log splitting on a grid of 2 OVERSAMPLE n
    points, so that products of degree-n densities are integrated exactly.
    """
    if not (float(n).is_integer() and n >= 2):
        raise DimensionError(f"density degree must be a whole number >= 2, got {n}")
    n = int(n)
    N = OVERSAMPLE * n
    t = np.arange(2 * N) * np.pi / N
    speed = curve.speed(t)
    T = _coeff_to_samples(n, t)                    # coeff -> samples (2N x 2n)
    dens = speed[:, None] * T                      # (lambda |y'|) samples

    # singular log part via exact Fourier multipliers on the 2N grid
    mult = np.zeros(N + 1)
    mult[1:] = 1.0 / (2.0 * np.arange(1, N + 1))
    Fd = np.fft.rfft(dens, axis=0)
    log_part = np.fft.irfft(mult[:, None] * Fd, axis=0, n=2 * N)

    # smooth remainder of V and all of K by the trapezoidal rule from one table
    # y(s) - y(t), s integrating and t target; r2 and gap get 1 on the diagonal
    # before dividing, and each kernel its limit after
    y = curve.point(t)
    nrm = curve.normal(t)
    diff = y[:, None, :] - y[None, :, :]
    r2 = np.sum(diff * diff, axis=-1)
    gap = 2.0 * np.abs(np.sin(0.5 * (t[:, None] - t[None, :])))
    ii = np.arange(2 * N)
    r2[ii, ii] = gap[ii, ii] = 1.0
    smooth = -np.log(np.sqrt(r2) / gap) / TWO_PI
    smooth[ii, ii] = -np.log(speed) / TWO_PI
    Kk = np.sum(diff * nrm[:, None, :], axis=-1) / (TWO_PI * r2)
    dy = curve.derivative(t)
    Kk[ii, ii] = -np.sum(curve.second_derivative(t) * nrm, axis=-1) \
        / (2.0 * TWO_PI * np.sum(dy * dy, axis=-1))
    w_trap = np.pi / N
    V_samples = log_part + w_trap * smooth.T @ dens
    K_samples = w_trap * Kk.T @ dens
    V = _samples_to_coeff(n, V_samples)
    K = _samples_to_coeff(n, K_samples)
    return LayerOperatorSet(curve, n, V, K)


# ---------------------------------------------------------------------------
# solves
# ---------------------------------------------------------------------------

def _arc_moments(curve, speed, modes):
    """Arclength integrals of the packed basis functions, by the trapezoidal
    rule on equispaced nodes with curve speeds ``speed`` and mode table ``modes``.

    On a circle of radius R they are exactly (2 pi R, 0, ..., 0); the
    quadrature would leave about 1e-17 in the others, and the mean of a
    projected density would then not be exactly zero.
    """
    if curve.is_circle:
        moments = np.zeros(modes.shape[1])
        moments[0] = TWO_PI * curve.radius
        return moments
    return (speed[:, None] * modes).mean(axis=0) * TWO_PI


def _mean_zero_injection(moments):
    """Columns spanning the coefficients with zero arclength mean."""
    n2 = len(moments)
    Z = np.zeros((n2, n2 - 1))
    Z[1:, :] = np.eye(n2 - 1)
    Z[0, :] -= moments[1:] / moments[0]
    return Z


def _exterior_map(V, K, gram, injection):
    """Solutions g (2n x 2n) of (1/2 - K) g = -V lam for every density mode lam.

    Both sides are tested against the mean-zero space and g is sought in
    it: one dense solve of the reduced (2n-1)^2 system for all 2n right-hand
    sides.  An exactly singular system or a column residual that is not
    finite or above 1e-12 of its right-hand side raises SolverError.
    """
    ZtG = injection.T * gram
    reduced = ZtG @ (0.5 * np.eye(len(gram)) - K) @ injection
    rhs = -ZtG @ V
    try:
        sol = np.linalg.solve(reduced, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverError("singular reduced interface system") from exc
    res = np.linalg.norm(reduced @ sol - rhs, axis=0)
    scale = np.linalg.norm(rhs, axis=0)
    bad = ~np.isfinite(res) | ((res > 1e-12 * scale) & (scale > 0))
    if np.any(bad):
        j = int(np.argmax(bad))
        raise SolverError(f"interface solve column {j}: residual {res[j]:.3e} "
                          f"vs scale {scale[j]:.3e}")
    return injection @ sol


def solve_exterior(ops, lam):
    """Dirichlet trace of the exterior field with mean-zero Neumann density.

    Applies the operator set's ``exterior`` matrix.  A density with a
    non-finite coefficient, or whose arclength mean exceeds 1e-12 of
    |moments| |c|, is refused with SolverError.
    """
    if lam.n != ops.n:
        raise DimensionError("density degree does not match the operator set")
    lam_c = lam.coefficients()
    if not np.all(np.isfinite(lam_c)):
        raise SolverError("exterior solve requires a finite density")
    _require_mean_zero(ops, lam_c, "exterior solve")
    return TrigPolynomial(ops.exterior @ lam_c)


def _require_mean_zero(ops, c, what):
    """SolverError unless the arclength mean of the finite coefficients c
    is at most 1e-12 of |moments| |c|."""
    mean = abs(ops.moments @ c)
    if mean > 1e-12 * np.linalg.norm(ops.moments) * np.linalg.norm(c):
        raise SolverError(f"{what} requires a mean-zero density "
                          f"(arclength mean integral {mean:.3e})")


def evaluate_exterior(ops, g, lam, u_inf, points):
    """Exterior representation D g - S lam + u_inf at points outside the curve.

    ``points`` is an (m, 2) array or one (2,) point; any other shape raises
    DimensionError, and so do densities g and lam of another degree than
    ``ops`` and a ``u_inf`` that is not a scalar.  A non-finite ``u_inf``
    or coefficient of g or lam raises
    SolverError, and so does a lam that fails ``solve_exterior``'s
    mean-zero rule.  All points are checked before any is evaluated: a
    non-finite point, or one whose squared norm overflows, raises
    DomainError, and so does one at signed distance at most EVAL_STANDOFF
    times the curve's diameter.  No points give an empty array.

    The field is u - u_inf = Re Phi(z), the Cauchy integral of the module
    docstring, which needs lam mean-zero.  Each point takes one of three
    rules, over m = max(8n, 64) nodes of radius R about their centroid:

    - within EVAL_BAND node spacings of the curve, the barycentric rule,
      spectrally accurate up to the curve (``_close_sum``), O(m) per point;
    - outside the band and at least EVAL_LAURENT R from the centroid, the
      Laurent series of the trapezoidal sum (``_laurent_sum``),
      EVAL_TERMS = 93 terms per point, its tail below the sum's rounding;
    - elsewhere, the trapezoidal sum (``_log_free_sum``), O(m) per point.

    The band test comes first: on coarse curves the band reaches past
    EVAL_LAURENT R.  The two O(m) rules run over blocks of EVAL_CHUNK
    points and the series over all its points at once, so memory is
    O(points) with no points x nodes term.  A one-point call runs other
    BLAS kernels and numpy loops than a block, so their values can differ
    in the last bits: with exact data at n = 64 on the unit circle and the
    1.3 x 0.9 ellipse, for distances d from 1e-5 to 3, by at most 3.5e-15
    of max |u| (the trapezoidal sum at d = 0.1, just outside the band), by
    at most 2e-16 on the Laurent series (d >= 1), and not at all in the band.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape not in ((0,), (2,)) and (pts.ndim != 2 or pts.shape[1] != 2):
        raise DimensionError(f"evaluation points must be an (m, 2) array or one "
                             f"(2,) point, got shape {pts.shape}")
    gc, lc = g.coefficients(), lam.coefficients()
    if len(gc) != 2 * ops.n or len(lc) != 2 * ops.n:
        raise DimensionError(f"densities need {2 * ops.n} coefficients, the operators' "
                             f"2n; got {len(gc)} and {len(lc)}")
    if np.ndim(u_inf) != 0:
        raise DimensionError(f"u_inf must be a scalar, got shape {np.shape(u_inf)}")
    if not (np.isfinite(u_inf) and np.all(np.isfinite(gc)) and np.all(np.isfinite(lc))):
        raise SolverError("exterior evaluation requires finite u_inf and densities")
    _require_mean_zero(ops, lc, "exterior evaluation")
    pts = pts.reshape(-1, 2)
    if len(pts) == 0:
        return np.empty(0)
    if not np.all(np.isfinite(pts)):
        raise DomainError("evaluation point is not finite")
    with np.errstate(over="ignore"):
        if not np.all(np.isfinite(np.einsum("ij,ij->i", pts, pts))):
            raise DomainError("evaluation point too far out: its squared norm overflows")
    centre, radius = _node_disk(ops)
    z = pts[:, 0] + 1j * pts[:, 1] - centre
    r = np.abs(z)
    close = _close_points(ops, pts, r, radius)
    laurent = ~close & (r >= EVAL_LAURENT * radius)
    direct = ~(close | laurent)
    psi, dpsi = _cauchy_density(ops, gc, lc)
    vals = np.empty(len(pts))
    if np.any(laurent):
        vals[laurent] = _laurent_sum(ops, psi, z[laurent], centre, radius)
    vals[direct] = _log_free_sum(ops, psi, pts[direct])
    if np.any(close):
        vals[close] = _close_sum(ops, _boundary_values(ops, psi, dpsi), pts[close])
    vals += u_inf
    return vals if np.ndim(points) > 1 else float(vals[0])


def _node_disk(ops):
    """Centroid z0 of the quadrature nodes, as a complex number, and their
    largest distance R from it."""
    nodes = ops.quad_points[:, 0] + 1j * ops.quad_points[:, 1]
    centre = nodes.mean()
    return centre, np.max(np.abs(nodes - centre))


def _close_points(ops, pts, r, radius):
    """Mask of the points within EVAL_BAND node spacings of the curve.

    ``r`` holds the points' distances from the nodes' centroid and
    ``radius`` the farthest node's.  The spacing is that of the fastest
    node.  A circle measures every distance in closed form.  On other
    curves a point farther from the centroid than the farthest node plus
    one spacing plus the band is outside both the curve and the band,
    since every curve point lies within half a spacing of a node; only the
    others take the Newton search of ``signed_distance``.  A point at
    signed distance at most EVAL_STANDOFF times the diameter raises
    DomainError.
    """
    curve, nodes = ops.curve, ops.quad_points
    spacing = np.max(np.abs(ops.quad_dzeta)) * TWO_PI / len(nodes)
    band = EVAL_BAND * spacing
    if curve.is_circle:
        dist = curve.signed_distance(pts)
    else:
        near = r <= radius + spacing + band
        dist = np.full(len(pts), np.inf)
        dist[near] = curve.signed_distance(pts[near])
    if np.any(dist <= EVAL_STANDOFF * curve.diameter()):
        raise DomainError("evaluation point inside or too close to the interface")
    return dist < band


def _cauchy_density(ops, gc, lc):
    """psi = Lambda - i g and its derivative at the quadrature nodes.

    Lambda is the antiderivative of lam |zeta'| with zero mean and psi' is
    lam |zeta'| - i g', both by FFT on the nodes; W = psi zeta'.
    """
    m = len(ops.quad_points)
    g = ops.quad_modes @ gc
    flux = (ops.quad_modes @ lc) * np.abs(ops.quad_dzeta)
    ik = 1j * np.arange(m // 2 + 1)
    ik[-1] = 0.0                              # the Nyquist mode has no derivative
    inv = np.zeros_like(ik)
    inv[1:-1] = 1.0 / ik[1:-1]
    antiderivative = np.fft.irfft(inv * np.fft.rfft(flux), n=m)
    derivative = np.fft.irfft(ik * np.fft.rfft(g), n=m)
    return antiderivative - 1j * g, flux - 1j * derivative


def _log_free_sum(ops, psi, pts):
    """(1/m) sum_j Re(W_j / (z - zeta_j)) at each point, with W = psi zeta'.

    In real form the term is (x - y_j).a_j / |x - y_j|^2 with a_j = W_j / m.
    A block's numerators and expanded |x - y_j|^2 = |x|^2 - 2 x.y_j +
    |y_j|^2 are one BLAS product [x, y, 1, |x|^2] @ T with the (4, 2m)
    table T; one division and one row sum follow.  Outside the band the
    expansion moves the sum by at most 8.4e-15 of max |u - u_inf| against
    coordinate differences (exact data at n = 64).
    """
    nodes = ops.quad_points
    m = len(nodes)
    a = psi * ops.quad_dzeta / m
    table = np.zeros((4, 2 * m))
    table[0, :m], table[1, :m] = a.real, a.imag
    table[2, :m] = -(nodes[:, 0] * a.real + nodes[:, 1] * a.imag)
    table[:2, m:] = -2.0 * nodes.T
    table[2, m:] = np.einsum("ij,ij->i", nodes, nodes)
    table[3, m:] = 1.0
    xy1 = np.ones((len(pts), 4))
    xy1[:, :2] = pts
    xy1[:, 3] = np.einsum("ij,ij->i", pts, pts)
    size = min(len(pts), EVAL_CHUNK)
    prod, quot, ones = np.empty((size, 2 * m)), np.empty((size, m)), np.ones(m)
    vals = np.empty(len(pts))
    for i in range(0, len(pts), EVAL_CHUNK):
        b = min(EVAL_CHUNK, len(pts) - i)
        np.matmul(xy1[i:i + b], table, out=prod[:b])
        np.divide(prod[:b, :m], prod[:b, m:], out=quot[:b])
        np.matmul(quot[:b], ones, out=vals[i:i + b])
    return vals


def _laurent_sum(ops, psi, z, centre, radius):
    """The sum of ``_log_free_sum`` by its Laurent series about the nodes'
    centroid z0 = ``centre``, at points whose offsets z - z0 are ``z``, each
    at least EVAL_LAURENT R from z0, R = ``radius`` the farthest node's.

    With s_j = (zeta_j - z0) / R and w = R / (z - z0),
    (1/m) sum_j W_j / (z - zeta_j) = sum_k b_k w^(k+1) / R with the scaled
    moments b_k = (1/m) sum_j W_j s_j^k (Greengard & Rokhlin, J. Comput.
    Phys. 73, 1987).  The first EVAL_TERMS moments cost EVAL_TERMS m once;
    each point then takes EVAL_TERMS complex multiply-adds by Horner's rule.
    """
    nodes = ops.quad_points[:, 0] + 1j * ops.quad_points[:, 1]
    powers = np.empty((EVAL_TERMS, len(nodes)), dtype=complex)
    powers[0] = 1.0
    powers[1:] = (nodes - centre) / radius
    np.cumprod(powers, axis=0, out=powers)
    b = powers @ (psi * ops.quad_dzeta) / len(nodes)
    w = radius / z
    acc = np.full(len(z), b[-1])
    for bk in b[-2::-1]:
        acc *= w
        acc += bk
    acc *= w
    return acc.real / radius


def _boundary_values(ops, psi, dpsi):
    """Phi's exterior boundary values v at the quadrature nodes.

    By the Plemelj formula v = -i C_ext[psi] with the smooth form
    C_ext[psi](s_j) = (1 / 2 pi i) int (psi(s) - psi(s_j)) zeta'(s) /
    (zeta(s) - zeta(s_j)) ds, whose diagonal term is psi'(s_j), summed by
    the trapezoidal rule.  For Cauchy data of an exterior field Re v is g.
    """
    nodes, dz = ops.quad_points, ops.quad_dzeta
    s = _cauchy_sums(nodes, np.column_stack([dz * psi, dz]), nodes, skip_self=True)
    return -(s[:, 0] - psi * s[:, 1] + dpsi) / len(dz)


def _close_sum(ops, v, pts):
    """Re Phi by the exterior barycentric rule of Barnett, Wu & Veerapaneni
    (SIAM J. Sci. Comput. 37, 2015; Helsing & Ojala, J. Comput. Phys. 227, 2008),

        Phi(z) = sum v_j zeta'_j / (zeta_j - z) / (-i m + sum zeta'_j / (zeta_j - z)),

    with the trapezoidal weights 2 pi / m scaled out and the boundary values v.
    """
    dz = ops.quad_dzeta
    s = _cauchy_sums(ops.quad_points, np.column_stack([dz * v, dz]), pts)
    return (s[:, 0] / (s[:, 1] - 1j * len(dz))).real


def _cauchy_sums(nodes, cols, z, skip_self=False):
    """sum_j cols[j] / (zeta_j - z) for each target z, as (len(z), c) complex.

    Real arithmetic on the coordinate differences zeta_j - z, in blocks of
    EVAL_CHUNK targets.  A block's two difference tables are one batched
    product [1, -x, 0; 0, -y, 1] @ [y_x; 1; y_y], exact because each entry
    sums one node coordinate, one point coordinate and a zero; r^2 is
    summed from their squares, and the tables times 1 / r^2 are one product
    with the (m, 2c) table of the columns' real and imaginary parts.  With
    ``skip_self`` the targets are the nodes themselves and term j = i of
    target i is left out.
    """
    m, c = cols.shape
    table = np.concatenate([cols.real, cols.imag], axis=1)
    rows = np.zeros((2, len(z), 3))
    rows[0, :, 0] = rows[1, :, 2] = 1.0
    rows[:, :, 1] = -z.T
    coords = np.vstack([nodes[:, 0], np.ones(m), nodes[:, 1]])
    size = min(len(z), EVAL_CHUNK)
    flat, inv_r2 = np.empty(2 * size * m), np.empty((size, m))
    out = np.empty((len(z), c), dtype=complex)
    for i in range(0, len(z), EVAL_CHUNK):
        b = min(EVAL_CHUNK, len(z) - i)
        dxy, inv = flat[:2 * b * m].reshape(2, b, m), inv_r2[:b]
        np.matmul(rows[:, i:i + b], coords, out=dxy)
        np.einsum("kij,kij->ij", dxy, dxy, out=inv)
        if skip_self:
            inv[np.arange(b), i + np.arange(b)] = np.inf
        np.reciprocal(inv, out=inv)
        dxy *= inv
        # c (dx - i dy) / r^2 = (cr dx + ci dy + i (ci dx - cr dy)) / r^2
        p = dxy.reshape(2 * b, m) @ table
        out[i:i + b].real = p[:b, :c] + p[b:, c:]
        out[i:i + b].imag = p[:b, c:] - p[b:, :c]
    return out
