"""Build unfitted meshes of the annulus and watch the boundary gap shrink.

The triangulation never touches the true curves: every boundary edge sits
a little inside, and a pointwise map carries its quadrature nodes onto the
curve along short transfer segments.  Refining the target size drives both
the proximity ratio R_h = max dist(edge, boundary)/diam(parent) and the
facet-normal deviation to zero, which is exactly what the transfer-path
discretization needs.
"""

from hdgbem import (
    Curve,
    build_annulus_mesh,
    build_boundary_map,
    proximity_parameter,
    save_mesh,
)

gamma = Curve.circle((0.0, 0.0), 1.0)    # artificial interface
gamma0 = Curve.circle((0.0, 0.0), 0.5)   # problem boundary

print("    h   elements   mesh_h      R_h   max|n_h-n|    max l")
for target_h in (0.2, 0.1, 0.05, 0.025):
    mesh = build_annulus_mesh(gamma, gamma0, target_h)
    bmap = build_boundary_map(mesh, gamma, gamma0, k=2)
    rep = proximity_parameter(bmap)
    # the longest transfer segment shrinks like h^(3/2)
    print(f"{target_h:5.3f} {len(mesh.elements):10d} {mesh.h:8.4f} "
          f"{rep.R_h:8.4f} {rep.normal_deviation:12.4e} {bmap.l.max():10.3e}")

save_mesh(mesh, "annulus_mesh.txt")
print("\nfinest mesh written to annulus_mesh.txt "
      "(plain-text: header, vertices, elements, boundary tags)")

fitted = build_annulus_mesh(gamma, gamma0, 0.1, fitted=True)
fmap = build_boundary_map(fitted, gamma, gamma0, k=2)
print(f"fitted variant: R_h = {proximity_parameter(fmap).R_h:.4f} "
      "(the inner polygon is the obstacle's boundary; outer nodes map across "
      "the O(h^2) sagitta of their chords)")
