"""Spectral boundary-integral solver for the exterior Laplace problem.

The exterior solution is represented by a double-layer density g and a
single-layer density lam on the artificial interface plus a far-field
constant,

    u_ext = D g - S lam + u_inf,

and the interface equation (1/2 - K) g = -V lam is solved on the space of
mean-zero trigonometric polynomials; the constant mode is annihilated by
the mean-zero test space and is recovered by the coupling's zero-mean-flux
condition instead.
Parametric kernels (2 pi periodic, G the Green function of the minus
Laplacian):

    V(s,t) = -log|y(s) - y(t)| / (2 pi)
    K(s,t) = (y(s) - y(t)) . n(y(s)) / (2 pi |y(s) - y(t)|^2),

with the curvature limit on the diagonal of K.  On a circle of radius R
both operators diagonalize in the Fourier basis: V maps cos/sin of mode m
to R/(2m) times itself (constants to -R log R) and K annihilates mean-zero
densities.  General smooth curves use the periodic-log splitting: the
singular part is applied through its exact Fourier multipliers, the smooth
remainder and K by the trapezoidal rule, both spectrally accurate.

Densities live in the span of {1, cos t .. cos nt, sin t .. sin (n-1)t}
with 2n real coefficients; the 2n equispaced nodes t_j = j pi / n carry the
sample <-> coefficient transforms.
"""

import numpy as np
import scipy.linalg

from .errors import DimensionError, DomainError, SolverError

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# trigonometric polynomials
# ---------------------------------------------------------------------------

class TrigPolynomial:
    """Real trigonometric polynomial a0 + sum a_m cos(mt) + b_m sin(mt).

    Cosine coefficients run to degree n, sine coefficients to n-1, for 2n
    real degrees of freedom matching 2n equispaced samples.
    """

    def __init__(self, cos_coeff, sin_coeff, mean_zero=False):
        self.cos = np.asarray(cos_coeff, dtype=float)
        self.sin = np.asarray(sin_coeff, dtype=float)
        self.n = len(self.cos) - 1
        if len(self.sin) != max(self.n - 1, 0):
            raise DimensionError(
                f"degree {self.n} needs {self.n - 1} sine coefficients, "
                f"got {len(self.sin)}")
        self.mean_zero = bool(mean_zero)

    @classmethod
    def zero(cls, n, mean_zero=True):
        return cls(np.zeros(n + 1), np.zeros(max(n - 1, 0)), mean_zero=mean_zero)

    @classmethod
    def from_samples(cls, samples):
        """Trigonometric interpolant of 2n equispaced samples on [0, 2 pi)."""
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 1 or len(samples) % 2 or len(samples) < 4:
            raise DimensionError("need an even number (>= 4) of equispaced samples")
        return cls.from_coefficients(
            _samples_to_coeff(len(samples) // 2, samples[:, None])[:, 0])

    @classmethod
    def from_coefficients(cls, vec, mean_zero=False):
        """From the packed vector [a0..an, b1..b_{n-1}] of length 2n."""
        vec = np.asarray(vec, dtype=float)
        if len(vec) % 2:
            raise DimensionError("packed coefficient vector must have even length")
        n = len(vec) // 2
        return cls(vec[:n + 1], vec[n + 1:], mean_zero=mean_zero)

    def coefficients(self):
        return np.concatenate([self.cos, self.sin])

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        out = np.full(t.shape, self.cos[0])
        for m in range(1, self.n + 1):
            out = out + self.cos[m] * np.cos(m * t)
        for m in range(1, self.n):
            out = out + self.sin[m - 1] * np.sin(m * t)
        return out

    def nodes(self):
        return np.arange(2 * self.n) * np.pi / self.n

    def l2_norm(self, speed=1.0):
        """L2(Gamma) norm; ``speed`` is |y'| (a scalar for circles)."""
        s2 = TWO_PI * self.cos[0] ** 2 + np.pi * (np.sum(self.cos[1:] ** 2)
                                                  + np.sum(self.sin ** 2))
        return float(np.sqrt(speed * s2))

    def weighted_mean(self, curve=None):
        """Arclength mean integral of the polynomial over the curve."""
        if curve is None:
            return TWO_PI * self.cos[0]
        t = np.linspace(0.0, TWO_PI, 8 * self.n, endpoint=False)
        w = curve.speed(t)
        return float(np.mean(self.eval(t) * w) * TWO_PI)

    def __add__(self, other):
        return TrigPolynomial(self.cos + other.cos, self.sin + other.sin)

    def __sub__(self, other):
        return TrigPolynomial(self.cos - other.cos, self.sin - other.sin)

    def __mul__(self, a):
        return TrigPolynomial(a * self.cos, a * self.sin, mean_zero=self.mean_zero)

    __rmul__ = __mul__


def project_mean_zero(data, curve=None, n=None):
    """L2 projection onto mean-zero trigonometric polynomials.

    ``data`` is either 2n equispaced samples, a packed coefficient vector,
    or a TrigPolynomial; sample input is interpolated first.  Mean removal
    uses the arclength measure of ``curve`` when given (for circles, and by
    default, this is plain removal of the constant coefficient).  The
    operation is idempotent.
    """
    if isinstance(data, TrigPolynomial):
        poly = data
    else:
        arr = np.asarray(data, dtype=float)
        if n is not None and len(arr) != 2 * n:
            raise DimensionError(f"expected {2 * n} samples, got {len(arr)}")
        poly = TrigPolynomial.from_samples(arr)
    if curve is None or curve.is_circle:
        cos_c = poly.cos.copy()
        cos_c[0] = 0.0
        return TrigPolynomial(cos_c, poly.sin.copy(), mean_zero=True)
    total = curve.length()
    mean = poly.weighted_mean(curve) / total
    cos_c = poly.cos.copy()
    cos_c[0] -= mean
    return TrigPolynomial(cos_c, poly.sin.copy(), mean_zero=True)


# ---------------------------------------------------------------------------
# parametric kernels
# ---------------------------------------------------------------------------

def kernel_single(curve, s, t):
    """V(s, t); log-singular at s = t."""
    ys, yt = curve.point(s), curve.point(t)
    return -np.log(np.linalg.norm(ys - yt, axis=-1)) / TWO_PI


def kernel_double(curve, s, t):
    """K(s, t) with the curvature limit on the diagonal."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    ys, yt = curve.point(s), curve.point(t)
    ns = curve.normal(s)
    diff = ys - yt
    r2 = np.sum(diff * diff, axis=-1)
    near = np.isclose(np.mod(s - t, TWO_PI), 0.0, atol=1e-12) \
        | np.isclose(np.mod(s - t, TWO_PI), TWO_PI, atol=1e-12)
    safe = np.where(near, 1.0, r2)
    val = np.sum(diff * ns, axis=-1) / (TWO_PI * safe)
    if np.any(near):
        dps = curve.derivative(s)
        dds = curve.second_derivative(s)
        lim = -np.sum(dds * ns, axis=-1) / (2.0 * TWO_PI * np.sum(dps * dps, axis=-1))
        val = np.where(near, lim, val)
    return val


# ---------------------------------------------------------------------------
# operator assembly
# ---------------------------------------------------------------------------

def _coeff_to_samples(n, t):
    """Matrix mapping packed coefficients to values at parameters t."""
    t = np.asarray(t, dtype=float)
    cols = [np.ones_like(t)]
    cols += [np.cos(m * t) for m in range(1, n + 1)]
    cols += [np.sin(m * t) for m in range(1, n)]
    return np.stack(cols, axis=1)


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
    solve reuses: the arclength ``moments`` of the basis, the ``injection``
    (2n x 2n-1) of the zero-mean coefficients, ``bie`` = 1/2 - K, and the
    ``reduced`` interface matrix injection^T gram bie injection with its LU
    factors.
    """

    def __init__(self, curve, n, V, K):
        self.curve = curve
        self.n = int(n)
        self.V = V
        self.K = K
        self.nodes = np.arange(2 * self.n) * np.pi / self.n
        self.gram = np.full(2 * self.n, np.pi)
        self.gram[0] = TWO_PI
        self.moments = _arc_moments(curve, self.n)
        self.injection = _mean_zero_injection(self.moments)
        self.bie = 0.5 * np.eye(2 * self.n) - K
        self.reduced = self.injection.T @ (self.gram[:, None] * self.bie) @ self.injection
        self.reduced_lu = scipy.linalg.lu_factor(self.reduced, check_finite=False)

    @property
    def is_circle(self):
        return self.curve.is_circle


def assemble_layer_operators(curve, n, oversample=2):
    """Build the coefficient-space layer operator matrices.

    Circles get the exact Fourier diagonalization; smooth curves use the
    periodic log splitting with an oversampled grid so that products of
    degree-n densities are integrated exactly.
    """
    n = int(n)
    if n < 2:
        raise DimensionError("density degree must be at least 2")
    if curve.is_circle:
        R = curve.radius
        V = np.zeros((2 * n, 2 * n))
        K = np.zeros((2 * n, 2 * n))
        V[0, 0] = -R * np.log(R)
        for m in range(1, n + 1):
            V[m, m] = R / (2.0 * m)
        for m in range(1, n):
            V[n + m, n + m] = R / (2.0 * m)
        K[0, 0] = 0.5
        return LayerOperatorSet(curve, n, V, K)

    N = oversample * n
    t = np.arange(2 * N) * np.pi / N
    speed = curve.speed(t)
    T = _coeff_to_samples(n, t)                    # coeff -> samples (2N x 2n)
    dens = speed[:, None] * T                      # (lambda |y'|) samples

    # singular log part via exact Fourier multipliers on the 2N grid
    mult = np.zeros(N + 1)
    mult[1:] = 1.0 / (2.0 * np.arange(1, N + 1))
    Fd = np.fft.rfft(dens, axis=0)
    log_part = np.fft.irfft(mult[:, None] * Fd, axis=0, n=2 * N)

    # smooth remainder of V and all of K by the trapezoidal rule
    S, Tm = np.meshgrid(t, t, indexing="ij")       # S integration, Tm target
    gap = 2.0 * np.abs(np.sin(0.5 * (S - Tm)))
    ys = curve.point(t)
    dist = np.linalg.norm(ys[:, None, :] - ys[None, :, :], axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        smooth = -np.log(dist / gap) / TWO_PI
    diag = -np.log(curve.speed(t)) / TWO_PI
    ii = np.arange(2 * N)
    smooth[ii, ii] = diag
    w_trap = np.pi / N
    V_samples = log_part + w_trap * smooth.T @ dens
    Kk = kernel_double(curve, S.ravel(), Tm.ravel()).reshape(2 * N, 2 * N)
    K_samples = w_trap * Kk.T @ dens
    V = _samples_to_coeff(n, V_samples)
    K = _samples_to_coeff(n, K_samples)
    return LayerOperatorSet(curve, n, V, K)


# ---------------------------------------------------------------------------
# solves
# ---------------------------------------------------------------------------

def _arc_moments(curve, n):
    """Arclength integrals of the packed degree-n basis functions.

    On a circle of radius R they are exactly (2 pi R, 0, ..., 0).
    """
    if curve.is_circle:
        moments = np.zeros(2 * n)
        moments[0] = TWO_PI * curve.radius
        return moments
    t = np.linspace(0.0, TWO_PI, 8 * n, endpoint=False)
    return (curve.speed(t)[:, None] * _coeff_to_samples(n, t)).mean(axis=0) * TWO_PI


def _mean_zero_injection(moments):
    """Columns spanning the coefficients with zero arclength mean."""
    n2 = len(moments)
    Z = np.zeros((n2, n2 - 1))
    Z[1:, :] = np.eye(n2 - 1)
    Z[0, :] -= moments[1:] / moments[0]
    return Z


def solve_exterior(ops, lam):
    """Dirichlet trace of the exterior field with mean-zero Neumann density.

    Solves the second-kind interface equation tested against the mean-zero
    trigonometric space, with the operator set's reduced LU factors.
    """
    if not lam.mean_zero:
        raise SolverError("exterior solve requires a mean-zero density")
    if lam.n != ops.n:
        raise DimensionError("density degree does not match the operator set")
    rhs_c = -ops.V @ lam.coefficients()
    Z = ops.injection
    r = Z.T @ (ops.gram * rhs_c)
    if np.any(np.diag(ops.reduced_lu[0]) == 0.0):
        raise SolverError("singular reduced interface system")
    g_c = Z @ scipy.linalg.lu_solve(ops.reduced_lu, r, check_finite=False)
    res = np.linalg.norm(Z.T @ (ops.gram * (ops.bie @ g_c - rhs_c)))
    scale = np.linalg.norm(r)
    if res > 1e-12 * max(scale, 1e-300) and scale > 0:
        raise SolverError(f"interface solve residual {res:.3e} vs scale {scale:.3e}")
    return TrigPolynomial.from_coefficients(g_c, mean_zero=True)


def evaluate_exterior(ops, g, lam, u_inf, points, standoff=1e-6, n_quad=None):
    """Exterior representation D g - S lam + u_inf at points outside the curve."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    sd = ops.curve.signed_distance(pts)
    if np.any(sd <= standoff * ops.curve.diameter()):
        raise DomainError("evaluation point inside or too close to the interface")
    m = n_quad if n_quad is not None else max(8 * ops.n, 64)
    t = np.linspace(0.0, TWO_PI, m, endpoint=False)
    y = ops.curve.point(t)
    nrm = ops.curve.normal(t)
    sp = ops.curve.speed(t)
    gv = g.eval(t)
    lv = lam.eval(t)
    w = TWO_PI / m
    diff = pts[:, None, :] - y[None, :, :]
    r2 = np.sum(diff * diff, axis=2)
    single = -np.log(r2) / (2.0 * TWO_PI)             # G(x, y)
    double = np.sum(diff * nrm[None, :, :], axis=2) / (TWO_PI * r2)
    vals = w * (double @ (gv * sp)) - w * (single @ (lv * sp)) + u_inf
    return vals if np.ndim(points) > 1 else float(vals[0])


# ---------------------------------------------------------------------------
# csv interfaces
# ---------------------------------------------------------------------------

def write_density_csv(poly, path):
    """Rows of (mode index, cosine coefficient, sine coefficient)."""
    with open(path, "w") as fh:
        fh.write("mode,cos,sin\n")
        for m in range(poly.n + 1):
            s = poly.sin[m - 1] if 1 <= m <= poly.n - 1 else 0.0
            fh.write(f"{m},{poly.cos[m]:.17e},{s:.17e}\n")

