"""Modal polynomial bases on the reference triangle and on edges.

The volume basis is a Dubiner-type orthogonal basis on the reference
triangle {x, y >= 0, x + y <= 1},

    phi_{ij}(x, y) = P_i(a) (1-y)^i P_j^{(2i+1,0)}(2y - 1),   a = 2x/(1-y) - 1,

scaled so the first function is identically 1 (no L2 normalisation; local
mass matrices stay diagonal and the constant mode keeps unit coefficient).
The i-direction factor is evaluated through the homogenised Legendre
recurrence L_i(u, v) = P_i(u/v) v^i with u = 2x + y - 1, v = 1 - y, which is
polynomial in (u, v) and therefore stable at and beyond the collapsed
vertex.  This matters here: extrapolation onto the boundary map's slivers
evaluates the basis outside the element.

Edges carry Legendre polynomials in the canonical edge parameter s in
[-1, 1].
"""

import numpy as np


def jacobi(nmax, alpha, beta, x):
    """Values of P_n^(alpha,beta) for n = 0..nmax; shape (nmax+1,) + x.shape."""
    x = np.asarray(x, dtype=float)
    out = np.empty((nmax + 1,) + x.shape)
    out[0] = 1.0
    if nmax == 0:
        return out
    out[1] = 0.5 * (alpha - beta) + 0.5 * (alpha + beta + 2.0) * x
    for n in range(2, nmax + 1):
        c = 2.0 * n + alpha + beta
        a1 = 2.0 * n * (n + alpha + beta) * (c - 2.0)
        a2 = (c - 1.0) * (alpha * alpha - beta * beta)
        a3 = (c - 1.0) * c * (c - 2.0)
        a4 = 2.0 * (n + alpha - 1.0) * (n + beta - 1.0) * c
        out[n] = ((a2 + a3 * x) * out[n - 1] - a4 * out[n - 2]) / a1
    return out


def jacobi_deriv(nmax, alpha, beta, x):
    """x-derivatives of P_n^(alpha,beta) for n = 0..nmax."""
    x = np.asarray(x, dtype=float)
    out = np.zeros((nmax + 1,) + x.shape)
    if nmax == 0:
        return out
    shifted = jacobi(nmax - 1, alpha + 1.0, beta + 1.0, x)
    for n in range(1, nmax + 1):
        out[n] = 0.5 * (n + alpha + beta + 1.0) * shifted[n - 1]
    return out


def legendre(nmax, x):
    return jacobi(nmax, 0.0, 0.0, x)


def _homogenised_legendre(nmax, u, v, du, dv):
    """L_i(u, v) = P_i(u/v) v^i with (value, d/dxi, d/deta) triples.

    du, dv are the constant gradients of u, v with respect to the reference
    coordinates.
    """
    shape = u.shape
    val = np.empty((nmax + 1,) + shape)
    grad = np.zeros((nmax + 1,) + shape + (2,))
    val[0] = 1.0
    if nmax == 0:
        return val, grad
    val[1] = u
    grad[1, ..., 0] = du[0]
    grad[1, ..., 1] = du[1]
    v2 = v * v
    for m in range(1, nmax):
        c1 = (2.0 * m + 1.0) / (m + 1.0)
        c2 = m / (m + 1.0)
        val[m + 1] = c1 * u * val[m] - c2 * v2 * val[m - 1]
        for d in range(2):
            grad[m + 1, ..., d] = c1 * (u * grad[m, ..., d] + du[d] * val[m]) - c2 * (
                v2 * grad[m - 1, ..., d] + 2.0 * v * dv[d] * val[m - 1]
            )
    return val, grad


class TriangleBasis:
    """Dubiner-type modal basis of total degree <= k on the reference triangle."""

    def __init__(self, k):
        self.k = int(k)
        self.index = [(i, d - i) for d in range(self.k + 1) for i in range(d + 1)]
        self.dim = len(self.index)

    def eval(self, pts):
        """Basis values at reference points; shape (npts, dim)."""
        return self.eval_grad(pts)[0]

    def eval_grad(self, pts):
        """Values (npts, dim) and reference gradients (npts, dim, 2)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        xi, eta = pts[:, 0], pts[:, 1]
        u = 2.0 * xi + eta - 1.0
        v = 1.0 - eta
        b = 2.0 * eta - 1.0
        L, dL = _homogenised_legendre(self.k, u, v, du=(2.0, 1.0), dv=(0.0, -1.0))
        vals = np.empty((pts.shape[0], self.dim))
        grads = np.empty((pts.shape[0], self.dim, 2))
        # group by i so each Jacobi family P_j^(2i+1,0) is evaluated once
        jmax_by_i = {}
        for i, j in self.index:
            jmax_by_i[i] = max(j, jmax_by_i.get(i, 0))
        pj = {i: jacobi(jm, 2.0 * i + 1.0, 0.0, b) for i, jm in jmax_by_i.items()}
        dpj = {i: jacobi_deriv(jm, 2.0 * i + 1.0, 0.0, b) for i, jm in jmax_by_i.items()}
        for m, (i, j) in enumerate(self.index):
            P, dP = pj[i][j], dpj[i][j]
            vals[:, m] = L[i] * P
            grads[:, m, 0] = dL[i, :, 0] * P
            grads[:, m, 1] = dL[i, :, 1] * P + L[i] * dP * 2.0
        return vals, grads


def edge_legendre(k, s):
    """Legendre values P_0..P_k at edge parameters s in [-1, 1]; (npts, k+1)."""
    return legendre(int(k), np.asarray(s, dtype=float)).T
