"""How the relaxation weight controls convergence of the alternating map.

The unrelaxed interface map is an affine contraction only for favorable
geometry.  Relaxation scales an eigenmode of slope mu by 1 - omega (1 - mu).
On this annulus the slopes lie in about [-5/3, -0.49] (the eigenvalues of
the unrelaxed iteration map at n = 32), so plain iteration diverges and the
relaxed map contracts exactly for weights below about 0.75.  The sweep
records every weight, divergent ones included.
"""

from hdgbem import manufactured_case, omega_sweep, setup_level

case = manufactured_case("dipole")
rows, best = omega_sweep(setup_level(case, 0.1, k=1, n=32), case,
                         omegas=[0.1 * i for i in range(1, 10)],
                         tol=1e-8, max_iterations=100)

print("omega  converged  iterations  estimated ratio")
for r in rows:
    print(f"{r['omega']:5.2f}  {str(r['converged']):>9}  "
          f"{r['iterations']:10d}  {r['ratio']:10.4f}")
print(f"\nbest weight: {best['omega']:.2f} "
      f"({best['iterations']} iterations, ratio {best['ratio']:.3f})")

# where the sweep diverges the slowest mode dominates, so its slope is read
# off the measured ratio |1 - omega (1 - mu_min)|; the mildest slope is the
# other end of the spectrum above.  Weights balancing the two ends are best
# for data that excites every mode (Richardson's optimal weight).
top = rows[-1]
mu_min = 1.0 - (1.0 + top["ratio"]) / top["omega"]
mu_max = -0.49
w_star = 2.0 / (2.0 - mu_min - mu_max)
print(f"theory: slowest slope {mu_min:.3f} (from omega={top['omega']:.2f}); "
      f"alone it would vanish at omega={1.0 / (1.0 - mu_min):.3f}, but with the "
      f"mildest slope {mu_max} the best worst-case weight is "
      f"2/(2 - mu_min - mu_max) = {w_star:.2f}, ratio {1.0 - w_star * (1.0 - mu_max):.2f}")
