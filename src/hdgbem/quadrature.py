"""Gauss quadrature rules on intervals and on the reference triangle.

The reference triangle is {(x, y) : x >= 0, y >= 0, x + y <= 1}.  Triangle
rules are built by a Duffy (collapsed square) transform of a tensor
Gauss-Legendre rule; a rule of parameter ``n`` integrates bivariate
polynomials of total degree 2n - 2 exactly.
"""

import numpy as np

from .errors import DimensionError


def gauss_legendre(n):
    """Nodes and weights on [-1, 1]."""
    return np.polynomial.legendre.leggauss(int(n))


def gauss01(n):
    """Nodes and weights on [0, 1]."""
    x, w = gauss_legendre(n)
    return 0.5 * (x + 1.0), 0.5 * w


def edge_rule(k):
    """The k + 2 Gauss points on [0, 1] of every degree-k edge integral."""
    if k < 0:
        raise DimensionError(f"polynomial degree must be at least 0, got {k}")
    if not float(k).is_integer():
        raise DimensionError(f"polynomial degree must be a whole number, got {k}")
    return gauss01(k + 2)


def triangle_rule(degree):
    """Rule on the reference triangle, exact for total degree ``degree``.

    Returns (points, weights) with points of shape (m, 2); the weights sum
    to the reference area 1/2.
    """
    n = max(1, (int(degree) + 2 + 1) // 2)  # ceil((degree+2)/2)
    u, wu = gauss01(n)
    v, wv = gauss01(n)
    U, V = np.meshgrid(u, v, indexing="ij")
    WU, WV = np.meshgrid(wu, wv, indexing="ij")
    x = (U * (1.0 - V)).ravel()
    y = V.ravel()
    w = (WU * WV * (1.0 - V)).ravel()
    return np.column_stack([x, y]), w

