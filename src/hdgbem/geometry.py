"""Unfitted computational domains for an annular region between two curves.

The physical domain is the annulus Omega bounded by an inner curve (the
problem boundary) and an outer artificial interface.  The computational
domain is a polygonal triangulation that stays strictly inside Omega; every
boundary edge carries a pointwise map onto the nearby true curve and short
straight transfer segments across the sliver between the polygon and the
curve.  Every curve, a circle included, is a smooth 2pi-periodic map, and
the map sends a point to its closest curve point (a circle's centre, where
every curve point is closest, is refused).  The boundary map applies it to
the nodes of the degree-k edge rule (``edge_rule(k)``), refuses slivers
that overlap along a curve or fold, and finds the edge whose sliver covers
a point of the outer curve.

Construction is a structured boundary-aligned layering between the two
curves: vertices are placed on blended offset rings so that the distance
from the computational boundary to the true boundary shrinks like
h^(3/2) under refinement (the edge-distance/element-diameter ratio then
decays like sqrt(h), and the facet normals converge to the curve normals
like h).  A mesh built with ``fitted=True`` places its boundary vertices on
the curves and declares the polygon itself to be the domain boundary, in
which case all transfer distances are exactly zero.  The plain-text mesh
format records that flag in its header.
"""

from types import SimpleNamespace

import numpy as np

from .errors import (
    CoverageError,
    GeometryInfeasibleError,
    MapConstructionError,
    MeshingFailureError,
    PatchConstructionError,
)
from .quadrature import edge_rule, gauss01

TWO_PI = 2.0 * np.pi
# Newton steps of the closest-point search (it stops early once converged)
NEWTON_STEPS = 30


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

class Curve:
    """Closed counterclockwise curve given by a smooth 2pi-periodic map.

    The position, first and second derivative callables each accept an
    array of parameters of shape (m,) and return (m, 2) arrays.  A curve
    built by ``circle`` also records ``center`` and ``radius`` and sets
    ``is_circle``, which selects closed forms that are faster or exact.
    """

    is_circle = False

    def __init__(self, position, derivative, second_derivative):
        self._position = position
        self._derivative = derivative
        self._second_derivative = second_derivative
        sample = np.linspace(0.0, TWO_PI, 64, endpoint=False)
        if not (np.all(np.isfinite(self.point(sample)))
                and np.all(np.isfinite(self.derivative(sample)))
                and np.all(np.isfinite(self.second_derivative(sample)))):
            raise GeometryInfeasibleError("curve parametrization is not finite")
        if np.min(self.speed(sample)) <= 0.0:
            raise GeometryInfeasibleError("curve parametrization has a vanishing derivative")

    @classmethod
    def circle(cls, center, radius):
        if not 0.0 < radius < np.inf:
            raise GeometryInfeasibleError("circle radius must be positive and finite")
        c, R = np.asarray(center, dtype=float), float(radius)
        curve = cls(lambda s: c + R * np.stack([np.cos(s), np.sin(s)], axis=-1),
                    lambda s: R * np.stack([-np.sin(s), np.cos(s)], axis=-1),
                    lambda s: -R * np.stack([np.cos(s), np.sin(s)], axis=-1))
        curve.is_circle, curve.center, curve.radius = True, c, R
        return curve

    @classmethod
    def from_parametrization(cls, position, derivative, second_derivative):
        return cls(position, derivative, second_derivative)

    def point(self, s):
        return np.asarray(self._position(np.asarray(s, dtype=float)), dtype=float)

    def derivative(self, s):
        return np.asarray(self._derivative(np.asarray(s, dtype=float)), dtype=float)

    def second_derivative(self, s):
        return np.asarray(self._second_derivative(np.asarray(s, dtype=float)), dtype=float)

    def speed(self, s):
        return np.linalg.norm(self.derivative(s), axis=-1)

    def normal(self, s):
        """Unit normal pointing out of the region enclosed by the curve."""
        d = self.derivative(s)
        n = np.stack([d[..., 1], -d[..., 0]], axis=-1)
        return n / np.linalg.norm(n, axis=-1, keepdims=True)

    def closest_parameter(self, pts):
        """Parameter of the closest curve point for each row of pts.

        A circle uses the closed form.  Any other curve seeds each point
        with the closest of 256 equispaced parameters and refines it by
        Newton's method on (x - y(s)) . y'(s) = 0, for at most NEWTON_STEPS
        steps.  It stops once no step exceeds 1e-14: quadratic convergence
        then leaves only rounding, and a tighter test can fail for good on
        points whose step jitters at a few ulp of s.  A non-finite point,
        or one so far off that its squared distance overflows, raises
        MapConstructionError.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if not np.all(np.isfinite(pts)):
            raise MapConstructionError("closest point undefined at a non-finite point")
        if self.is_circle:
            # closed form, faster than the grid search and Newton; at the
            # centre every curve point is closest, and arctan2 would return
            # 0 for it silently
            rel = pts - self.center
            if np.any(np.all(rel == 0.0, axis=1)):
                raise MapConstructionError("radial map undefined at the circle center")
            return np.mod(np.arctan2(rel[:, 1], rel[:, 0]), TWO_PI)
        s = self._grid_parameter(pts)
        for _ in range(NEWTON_STEPS):
            y, dy, ddy = self.point(s), self.derivative(s), self.second_derivative(s)
            r = pts - y
            g = -(r * dy).sum(axis=1)
            h = (dy * dy).sum(axis=1) - (r * ddy).sum(axis=1)
            step = g / np.where(np.abs(h) > 1e-300, h, 1.0)
            s = np.mod(s - step, TWO_PI)
            if np.max(np.abs(step)) < 1e-14:
                break
        return s

    def _grid_parameter(self, pts):
        """Closest of 256 equispaced parameters, by one k-d tree query (Bentley 1975)."""
        # imported here: scipy.spatial adds about 7.5 MB of resident memory,
        # which only curves other than circles need
        from scipy.spatial import cKDTree
        grid = np.linspace(0.0, TWO_PI, 256, endpoint=False)
        dist, idx = cKDTree(self.point(grid)).query(pts)
        if not np.all(np.isfinite(dist)):     # the tree finds no sample then
            raise MapConstructionError("closest point search overflows at a far point")
        return grid[idx]

    def distance(self, pts):
        """Unsigned distance from each point to the curve."""
        return np.abs(self.signed_distance(pts))

    def signed_distance(self, pts):
        """Negative inside the enclosed region, positive outside."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.is_circle:
            # closed form, about 100x faster than the closest-point search
            return np.linalg.norm(pts - self.center, axis=1) - self.radius
        s = self.closest_parameter(pts)
        r = pts - self.point(s)
        return np.sign((r * self.normal(s)).sum(axis=1)) * np.linalg.norm(r, axis=1)

    def length(self):
        s = np.linspace(0.0, TWO_PI, 512, endpoint=False)
        return float(np.mean(self.speed(s)) * TWO_PI)

    def mean_speed(self):
        """Mean |y'| over the parameter, length / 2 pi."""
        return self.length() / TWO_PI

    def diameter(self):
        pts = self.point(np.linspace(0.0, TWO_PI, 128, endpoint=False))
        return float(np.max(pts.max(axis=0) - pts.min(axis=0)))


# ---------------------------------------------------------------------------
# mesh container
# ---------------------------------------------------------------------------

TAG_OUTER = 0   # boundary edge facing the artificial interface
TAG_INNER = 1   # boundary edge facing the problem boundary


class UnfittedMesh:
    """Triangulation of the computational domain with edge connectivity.

    Edges are stored as sorted vertex pairs ordered lexicographically by
    (min vertex index, max vertex index); this ordering is the canonical
    edge numbering used by exports and by all trace unknowns.
    ``edge_elements`` (E, 2) lists the elements of each edge, the lower one
    first, and ``edge_sides`` (E, 2) the edge's local side in each, so that
    ``element_edges[edge_elements[e, i], edge_sides[e, i]] == e``; boundary
    edges have -1 in slot 1.  ``edge_len`` (E,) holds the edge lengths,
    and ``J`` (M, 2, 2) and ``detJ`` (M,) each element's affine map
    x = v_0 + J xi from the reference triangle: the one copy of each that
    the boundary map, assembly and export read.
    """

    def __init__(self, vertices, elements, fitted=False, regularity_bound=None):
        self.vertices = np.asarray(vertices, dtype=float)
        elements = np.asarray(elements, dtype=np.int64)
        v = self.vertices[elements]
        J = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=2)
        detJ = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        # enforce counterclockwise orientation: swapping vertices 1 and 2
        # swaps the columns of J and negates detJ exactly
        flip = detJ < 0
        elements[flip] = elements[flip][:, [0, 2, 1]]
        J[flip] = J[flip][:, :, ::-1]
        detJ[flip] = -detJ[flip]
        self.elements, self.J, self.detJ = elements, J, detJ
        self.fitted = bool(fitted)
        self._build_edges()
        self._geometry_tables(regularity_bound)
        self.boundary_tags = np.full(self.n_edges, -1, dtype=np.int8)

    # -- connectivity -------------------------------------------------------

    def _build_edges(self):
        """Number the edges and tabulate their elements and sides.

        Each sorted vertex pair (lo, hi) gets the int64 key lo * n_vertices
        + hi, which sorts in the pairs' lexicographic order, so one 1-D
        ``np.unique`` of the keys gives the canonical edge numbering (the
        same as a row-wise unique of the pairs, at a fraction of its cost).
        """
        elems = self.elements
        nv = len(self.vertices)
        # local edge m joins vertices (m+1, m+2) mod 3, opposite vertex m
        raw = np.sort(np.concatenate([elems[:, [1, 2]], elems[:, [2, 0]], elems[:, [0, 1]]]),
                      axis=1)
        keys, inverse = np.unique(raw[:, 0] * nv + raw[:, 1], return_inverse=True)
        self.edges = np.stack([keys // nv, keys % nv], axis=1)
        ends = self.vertices[self.edges]
        self.edge_len = np.linalg.norm(ends[:, 1] - ends[:, 0], axis=1)
        m = len(elems)
        self.element_edges = np.stack(
            [inverse[:m], inverse[m:2 * m], inverse[2 * m:]], axis=1)
        self.n_edges = len(self.edges)
        flat = self.element_edges.ravel()
        counts = np.bincount(flat, minlength=self.n_edges)
        if counts.max() > 2:
            raise MeshingFailureError("non-manifold edge in triangulation")
        # (element, local side) of each edge, lower element in slot 0
        by_edge = np.argsort(flat, kind="stable")
        slot = np.arange(len(flat)) - np.repeat(np.cumsum(counts) - counts, counts)
        self.edge_elements = np.full((self.n_edges, 2), -1, dtype=np.int64)
        self.edge_sides = np.full((self.n_edges, 2), -1, dtype=np.int64)
        self.edge_elements[flat[by_edge], slot] = by_edge // 3
        self.edge_sides[flat[by_edge], slot] = by_edge % 3
        self.boundary_edge_ids = np.nonzero(counts == 1)[0]
        self.interior_edge_ids = np.nonzero(counts == 2)[0]

    def _geometry_tables(self, regularity_bound):
        # side lengths, side m opposite vertex m
        a, b, c = self.edge_len[self.element_edges].T
        area2 = self.detJ                                    # twice the area
        if np.any(area2 <= 0):
            raise MeshingFailureError("degenerate element",
                                      element=int(np.argmin(area2)))
        circum = a * b * c / (2.0 * area2)
        inrad = area2 / (a + b + c)
        self.h_T = 2.0 * circum
        self.h = float(self.h_T.max())
        self.regularity = circum / inrad
        if regularity_bound is not None:
            worst = int(np.argmax(self.regularity))
            if self.regularity[worst] > regularity_bound:
                raise MeshingFailureError(
                    f"element {worst} has circumradius/inradius "
                    f"{self.regularity[worst]:.2f} > bound {regularity_bound:.2f}",
                    element=worst)


# ---------------------------------------------------------------------------
# mesh generation
# ---------------------------------------------------------------------------

# largest circumradius/inradius ratio of a generated element
REGULARITY_BOUND = 10.0
# unfitted rings sit INSET_COEFF * target_h^(3/2) inside the curves
INSET_COEFF = 0.3


def build_annulus_mesh(gamma, gamma0, target_h, fitted=False):
    """Triangulate the region between gamma0 (inner) and gamma (outer).

    The unfitted variant offsets both boundary rings into the annulus by
    INSET_COEFF * target_h^(3/2) so every element is strictly interior;
    ``fitted=True`` puts the rings exactly on the curves and declares the
    polygon to be the domain boundary.
    """
    if not 0.0 < target_h < np.inf:
        raise GeometryInfeasibleError(
            f"target_h must be positive and finite, got {target_h}")
    probe = np.linspace(0.0, TWO_PI, 256, endpoint=False)
    p_in, p_out = gamma0.point(probe), gamma.point(probe)
    if np.any(gamma.signed_distance(p_in) >= 0):
        raise GeometryInfeasibleError("inner curve is not strictly inside outer curve")
    gap = np.linalg.norm(p_out - p_in, axis=1)
    inset = 0.0 if fitted else INSET_COEFF * target_h ** 1.5
    if gap.min() - 2.0 * inset <= 1.05 * target_h:
        raise GeometryInfeasibleError(
            f"gap {gap.min():.3g} leaves no room for a layer of elements at "
            f"target_h={target_h:.3g}")

    n_theta = max(9, int(round(0.5 * (gamma.length() + gamma0.length()) / TWO_PI
                               * TWO_PI / target_h)))
    if n_theta % 2 == 0:
        # an odd sector count breaks the half-turn symmetry of the layered
        # grid; exact error cancellations would otherwise flatten the
        # convergence histories measured by the verification studies
        n_theta += 1
    n_layer = max(2, int(round(gap.mean() / target_h)) + 1)  # rings, >= 1 layer

    theta = np.linspace(0.0, TWO_PI, n_theta, endpoint=False)
    ring_in = gamma0.point(theta) + inset * gamma0.normal(theta)
    ring_out = gamma.point(theta) - inset * gamma.normal(theta)
    sigma = np.linspace(0.0, 1.0, n_layer)
    verts = ((1.0 - sigma)[:, None, None] * ring_in[None, :, :]
             + sigma[:, None, None] * ring_out[None, :, :]).reshape(-1, 2)

    # each (layer, sector) quad splits along alternating diagonals
    i, j = np.meshgrid(np.arange(n_layer - 1), np.arange(n_theta), indexing="ij")
    v00 = i * n_theta + j
    v01 = i * n_theta + (j + 1) % n_theta
    v10, v11 = v00 + n_theta, v01 + n_theta
    even = ((i + j) % 2 == 0)[..., None]
    tris = np.stack([
        np.where(even, np.stack([v00, v01, v11], -1), np.stack([v00, v01, v10], -1)),
        np.where(even, np.stack([v00, v11, v10], -1), np.stack([v01, v11, v10], -1)),
    ], axis=2).reshape(-1, 3)
    mesh = UnfittedMesh(verts, tris, fitted=fitted, regularity_bound=REGULARITY_BOUND)

    if not fitted:
        _check_strictly_inside(mesh, gamma, gamma0)
    classify_boundary_edges(mesh, gamma, gamma0)
    return mesh


def _check_strictly_inside(mesh, gamma, gamma0):
    p = mesh.vertices[mesh.edges[mesh.boundary_edge_ids]]          # (B, 2, 2)
    frac = np.linspace(0.0, 1.0, 5)
    on_edges = p[:, None, 0] + frac[None, :, None] * (p[:, None, 1] - p[:, None, 0])
    pts = np.vstack([mesh.vertices, on_edges.reshape(-1, 2)])
    if np.any(gamma.signed_distance(pts) >= 0) or np.any(gamma0.signed_distance(pts) <= 0):
        raise MeshingFailureError("mesh is not strictly inside the annulus")


def classify_boundary_edges(mesh, gamma, gamma0):
    """Tag boundary edges by which curve they face (ties go to the outer one).

    Distances are evaluated at edge midpoints; exact ties fall back to the
    edge endpoints before applying the tie rule.
    """
    ids = mesh.boundary_edge_ids
    p = mesh.vertices[mesh.edges[ids]]                              # (B, 2, 2)
    mid = 0.5 * (p[:, 0] + p[:, 1])
    d_out, d_in = gamma.distance(mid), gamma0.distance(mid)
    tie = np.abs(d_out - d_in) < 1e-12 * np.maximum(d_out + d_in, 1e-30)
    if np.any(tie):
        ends = p[tie].reshape(-1, 2)
        d_out[tie] = gamma.distance(ends).reshape(-1, 2).sum(axis=1)
        d_in[tie] = gamma0.distance(ends).reshape(-1, 2).sum(axis=1)
    mesh.boundary_tags[ids] = np.where(d_out <= d_in, TAG_OUTER, TAG_INNER)
    return mesh


# ---------------------------------------------------------------------------
# boundary map
# ---------------------------------------------------------------------------

# nodes of the fold test: N_ALONG Gauss points along each edge resolve the
# curved side of its sliver; the sliver map is affine across the transfer
# direction, so N_ACROSS points suffice there
N_ALONG, N_ACROSS = 12, 2
# slack of the overlap and coverage tests on curve parameter intervals
ARC_SLACK = 1e-9


class BoundaryMap(SimpleNamespace):
    """Pointwise map from boundary-edge quadrature nodes onto the true curves.

    The nodes are those of the degree-k edge rule, q = k + 2 per edge, so a
    map serves only systems of its degree.  All arrays are indexed by
    position in ``edge_ids`` (the mesh's boundary edges in canonical order)
    and by node within the edge:

    edge_ids (B,), tags (B,), parents (B,), nu (B,2) outward edge normals,
    nodes/mapped (B,q,2), l (B,q), t (B,q,2) unit transfer directions (the
    annulus's outward normal at the mapped node, nu where l = 0), params
    (B,q) curve parameters of the mapped nodes, and endpoint_params (B,2)
    curve parameters of the mapped edge endpoints.  The edge quadrature
    weights belong to the discretization (``edge_w``).

    starts (K,), widths (K,) and owners (K,) are the outer edges' shortest
    parameter intervals between their mapped endpoints, sorted by start
    (mod 2pi), and their parent elements: the table behind ``locate``.
    """

    def locate(self, params):
        """Parent element of an outer edge whose interval covers each parameter."""
        s = np.mod(np.asarray(params, dtype=float), TWO_PI)

        def covers(i):
            return np.mod(s - self.starts[i], TWO_PI) <= self.widths[i] + ARC_SLACK

        # the interval starting at or before s (index -1 wraps to the last
        # one), or else the next one if s falls within the slack before it
        idx = np.searchsorted(self.starts, s, side="right") - 1
        idx = np.where(covers(idx), idx, (idx + 1) % len(self.starts))
        if not np.all(covers(idx)):
            raise CoverageError("interface point not covered by any outer edge interval")
        return self.owners[idx]


def _map_points(pts, curve):
    """Map points near a curve to their closest curve points; returns (mapped, params)."""
    params = curve.closest_parameter(pts)
    return curve.point(params), params


def _map_point_derivative(pts, params, curve):
    """2x2 Jacobians d(mapped)/d(x) at pts, whose curve parameters are params."""
    y, dy, ddy = (curve.point(params), curve.derivative(params),
                  curve.second_derivative(params))
    denom = (dy * dy).sum(axis=1) - ((pts - y) * ddy).sum(axis=1)
    return dy[:, :, None] * dy[:, None, :] / denom[:, None, None]


def _edge_intervals(endpoint_params):
    """One curve's edge intervals: sorted (starts, widths) and their order.

    Each edge spans the shorter parameter interval between its mapped
    endpoints; two intervals that overlap raise PatchConstructionError.
    """
    s0, s1 = endpoint_params.T
    d = np.mod(s1 - s0, TWO_PI)
    short = d <= np.pi
    lo = np.mod(np.where(short, s0, s1), TWO_PI)
    width = np.where(short, d, TWO_PI - d)
    order = np.lexsort((width, lo))
    lo, width = lo[order], width[order]
    following = np.append(lo[1:], lo[0] + TWO_PI)
    if np.any(following < lo + width - ARC_SLACK):
        raise PatchConstructionError("edge intervals overlap along the curve")
    return lo, width, order


def _folds(p, curve):
    """Whether the sliver map of each edge p (b, 2, 2) folds.

    The sliver point at (edge fraction a, transfer fraction b) is x(a) + b
    (map(x(a)) - x(a)), with x(a) on the edge; the map folds where its
    Jacobian determinant takes both signs on the N_ALONG x N_ACROSS nodes.
    """
    x1d, x2d = gauss01(N_ALONG)[0], gauss01(N_ACROSS)[0]
    e_vec = p[:, 1] - p[:, 0]
    x = (p[:, None, 0] + x1d[None, :, None] * e_vec[:, None, :]).reshape(-1, 2)
    mapped, s = _map_points(x, curve)
    delta = (mapped - x).reshape(-1, N_ALONG, 2)
    dmap = _map_point_derivative(x, s, curve).reshape(-1, N_ALONG, 2, 2)
    ddelta = np.einsum("bnij,bj->bni", dmap, e_vec) - e_vec[:, None, :]
    side = e_vec[:, None, None, :] + x2d[:, None] * ddelta[:, :, None, :]  # (b, n, c, 2)
    det = side[..., 0] * delta[:, :, None, 1] - side[..., 1] * delta[:, :, None, 0]
    sign = np.sign(det).reshape(len(p), -1)
    return np.any(sign > 0, axis=1) & np.any(sign < 0, axis=1)


# smallest admissible t . nu of a transfer direction t
TANGENCY_FLOOR = 0.1


def build_boundary_map(mesh, gamma, gamma0, k):
    """Build the node-to-curve transfer map of the degree-k method.

    Each boundary edge carries the k + 2 nodes of ``edge_rule(k)``.  For
    fitted meshes the map is the identity (zero transfer length, the
    transfer direction degenerates to the edge normal by convention).
    Raises MapConstructionError when a transfer direction is nearly
    tangent to its edge, and PatchConstructionError when two edge
    intervals of a curve overlap or the sliver map of an edge folds.
    """
    xg = edge_rule(k)[0]
    nq = len(xg)
    scale = max(gamma.diameter(), 1.0)
    edge_ids = np.array(mesh.boundary_edge_ids, dtype=np.int64)
    tags = mesh.boundary_tags[edge_ids].copy()
    bad = (tags != TAG_OUTER) & (tags != TAG_INNER)
    if np.any(bad):
        e = int(edge_ids[np.argmax(bad)])
        raise MapConstructionError(f"boundary edge {e} has tag {mesh.boundary_tags[e]}; "
                                   "classify it as TAG_OUTER or TAG_INNER first", edge=e)
    parents = mesh.edge_elements[edge_ids, 0].copy()
    p = mesh.vertices[mesh.edges[edge_ids]]                         # (B, 2, 2)
    tang = p[:, 1] - p[:, 0]
    nodes = p[:, None, 0] + xg[None, :, None] * tang[:, None, :]    # (B, q, 2)
    # outward edge normals: away from the parent element's centroid
    nu = np.stack([tang[:, 1], -tang[:, 0]], axis=1)
    nu /= mesh.edge_len[edge_ids, None]
    centroid = mesh.vertices[mesh.elements[parents]].mean(axis=1)
    nu[np.einsum("bd,bd->b", nu, centroid - 0.5 * (p[:, 0] + p[:, 1])) > 0] *= -1.0

    mapped, params = np.empty_like(nodes), np.empty(nodes.shape[:2])
    endpoint_params = np.empty((len(edge_ids), 2))
    curves = ((TAG_OUTER, gamma), (TAG_INNER, gamma0))
    for tag, curve in curves:
        rows = tags == tag
        if not np.any(rows):
            continue
        n_node = rows.sum() * nq
        y, s = _map_points(np.vstack([nodes[rows].reshape(-1, 2), p[rows].reshape(-1, 2)]),
                           curve)
        mapped[rows] = y[:n_node].reshape(-1, nq, 2)
        params[rows] = s[:n_node].reshape(-1, nq)
        endpoint_params[rows] = s[n_node:].reshape(-1, 2)
    if mesh.fitted:
        mapped = nodes.copy()
    delta = mapped - nodes
    l = np.linalg.norm(delta, axis=2)
    far = l > 1e-14 * scale
    t = np.where(far[..., None], delta / np.where(l > 0, l, 1.0)[..., None],
                 nu[:, None, :])
    l = np.where(far, l, 0.0)
    dot = np.einsum("bqd,bd->bq", t, nu)
    tangent = np.any(dot < TANGENCY_FLOOR, axis=1)
    if np.any(tangent):
        row = int(np.argmax(tangent))
        raise MapConstructionError(
            f"transfer direction nearly tangent on edge {int(edge_ids[row])} "
            f"(min t.nu = {dot[row].min():.3f} < floor {TANGENCY_FLOOR})",
            edge=int(edge_ids[row]))
    lookup, folds = {}, np.zeros(len(edge_ids), dtype=bool)
    live = l.max(axis=1) > 0.0
    for tag, curve in curves:
        rows = np.nonzero(tags == tag)[0]
        if len(rows) == 0:
            continue
        starts, widths, order = _edge_intervals(endpoint_params[rows])
        if tag == TAG_OUTER:
            lookup = dict(starts=starts, widths=widths, owners=parents[rows[order]])
        rows = rows[live[rows]]
        if len(rows):
            folds[rows] = _folds(p[rows], curve)
    if np.any(folds):
        raise PatchConstructionError(
            f"sliver of edge {int(edge_ids[np.argmax(folds)])} self-intersects "
            "(map folds)")
    return BoundaryMap(
        edge_ids=edge_ids, tags=tags, parents=parents, nu=nu, nodes=nodes,
        mapped=mapped, l=l, t=t, params=params, endpoint_params=endpoint_params,
        **lookup)


# ---------------------------------------------------------------------------
# proximity diagnostics
# ---------------------------------------------------------------------------

class ProximityReport:
    def __init__(self, R_h, normal_deviation):
        self.R_h = R_h
        self.normal_deviation = normal_deviation

    def __repr__(self):
        return (f"ProximityReport(R_h={self.R_h:.4g}, "
                f"normal_deviation={self.normal_deviation:.4g})")


def proximity_parameter(mesh, bmap):
    """Max ratio of edge-to-boundary distance over parent element diameter.

    Also reports the sup over boundary nodes of |n_h - n|, the deviation of
    the facet normal from the annulus's outward normal at the mapped point,
    which is the transfer direction t (nu itself on a fitted map).
    """
    per_edge = bmap.l.max(axis=1, initial=0.0) / mesh.h_T[bmap.parents]
    dev = np.linalg.norm(bmap.t - bmap.nu[:, None, :], axis=2)
    return ProximityReport(float(per_edge.max(initial=0.0)),
                           float(dev.max(initial=0.0)))


# ---------------------------------------------------------------------------
# plain-text mesh format
# ---------------------------------------------------------------------------

def save_mesh(mesh, path):
    """Write the plain-text mesh format.

    Header ``vertices N / elements M / boundary B / fitted F`` with F 1 for
    a fitted mesh and 0 otherwise, then coordinate rows, 0-based element
    index triples, and boundary rows ``edge-id tag`` with tag 0 for
    outer-facing and 1 for inner-facing edges.  Edge ids refer to the
    canonical lexicographic edge ordering.
    """
    lines = [f"vertices {len(mesh.vertices)} / elements {len(mesh.elements)} "
             f"/ boundary {len(mesh.boundary_edge_ids)} / fitted {int(mesh.fitted)}"]
    for x, y in mesh.vertices:
        lines.append(f"{float(x)!r} {float(y)!r}")
    for tri in mesh.elements:
        lines.append(f"{tri[0]} {tri[1]} {tri[2]}")
    for e in mesh.boundary_edge_ids:
        lines.append(f"{e} {mesh.boundary_tags[e]}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_mesh(path):
    """Read a mesh written by save_mesh and restore its boundary tags.

    A malformed file, a non-finite vertex coordinate, an element vertex
    index outside the vertex table or a boundary tag other than 0 or 1
    raises MeshingFailureError naming the file.
    """
    with open(path) as fh:
        header = fh.readline().split()
        try:
            n_v, n_e, n_b = int(header[1]), int(header[4]), int(header[7])
            fitted = {"fitted 0": False, "fitted 1": True}[" ".join(header[9:])]
        except (IndexError, KeyError, ValueError) as exc:
            raise MeshingFailureError(f"malformed mesh header in {path}") from exc

        def table(rows, cols, conv):
            return np.array([[conv(t) for t in fh.readline().split()] for _ in range(rows)],
                            dtype=conv).reshape(rows, cols)
        try:
            verts, elems, tags = table(n_v, 2, float), table(n_e, 3, int), table(n_b, 2, int)
        except ValueError as exc:
            raise MeshingFailureError(f"truncated or malformed mesh body in {path}") from exc
    if not np.all(np.isfinite(verts)):
        raise MeshingFailureError(f"non-finite vertex coordinate in {path}")
    if np.any((elems < 0) | (elems >= n_v)):
        raise MeshingFailureError(f"element vertex index outside [0, {n_v}) in {path}")
    mesh = UnfittedMesh(verts, elems, fitted=fitted)
    if sorted(tags[:, 0].tolist()) != sorted(mesh.boundary_edge_ids.tolist()):
        raise MeshingFailureError(f"boundary rows in {path} do not match the mesh")
    if np.any((tags[:, 1] != TAG_OUTER) & (tags[:, 1] != TAG_INNER)):
        raise MeshingFailureError(f"boundary tag other than {TAG_OUTER} or {TAG_INNER} in {path}")
    mesh.boundary_tags[tags[:, 0]] = tags[:, 1]
    return mesh
