"""The interface equation on the circle, solved spectrally.

The layer operators come from the periodic-log quadrature that every
curve uses.  On a circle they reproduce, to rounding, the Fourier
diagonalization: the single layer maps mode m to R/(2m) of itself and the
double layer annihilates mean-zero densities, so the interface equation
has the closed solution g = -2 V lambda.  For an entire density the
trigonometric solve converges faster than any power of 1/n; the table
shows the sup error against the Bessel-series solution for
lambda = exp(cos t), mean removed.  The closed-form checks at the end may
move in the last printed digit.
"""

import numpy as np
from scipy.special import iv

from hdgbem import Curve, assemble_layer_operators, solve_exterior

circle = Curve.circle((0.0, 0.0), 1.0)
t_dense = np.linspace(0.0, 2.0 * np.pi, 2001)
exact = np.zeros_like(t_dense)
for m in range(1, 80):
    exact -= 2.0 * iv(m, 1.0) * np.cos(m * t_dense) / m

print("   n    sup error")
for n in (4, 6, 8, 12, 16, 24, 32):
    ops = assemble_layer_operators(circle, n)
    grid = np.arange(2 * n) * np.pi / n
    lam = ops.project(np.exp(np.cos(grid)))
    g = solve_exterior(ops, lam)
    err = np.abs(g.eval(t_dense) - exact).max()
    print(f"{n:4d}   {err:.3e}")

print("\nclosed-form checks at n = 32:")
ops = assemble_layer_operators(circle, 32)
grid = np.arange(64) * np.pi / 32
for label, samples, coeff, expect in (
        ("cos t   ", np.cos(grid), ("cos", 1), -1.0),
        ("sin 2t  ", np.sin(2 * grid), ("sin", 2), -0.5)):
    g = solve_exterior(ops, ops.project(samples))
    got = g.cos[coeff[1]] if coeff[0] == "cos" else g.sin[coeff[1] - 1]
    print(f"  lambda = {label} ->  coefficient {got:+.15f}  (exact {expect:+.1f})")
