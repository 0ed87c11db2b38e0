"""Unfitted computational domains for an annular region between two curves.

The physical domain is the annulus Omega bounded by an inner curve (the
problem boundary) and an outer artificial interface.  The computational
domain is a polygonal triangulation that stays strictly inside Omega; every
boundary edge carries a pointwise map onto the nearby true curve, short
straight transfer segments, and an extension patch tiling the sliver
between the polygon and the curve.

Construction is a structured boundary-aligned layering between the two
curves: vertices are placed on blended offset rings so that the distance
from the computational boundary to the true boundary shrinks like
h^(3/2) under refinement (the edge-distance/element-diameter ratio then
decays like sqrt(h), and the facet normals converge to the curve normals
like h).  A mesh built with ``fitted=True`` places its boundary vertices on
the curves and declares the polygon itself to be the domain boundary, in
which case all transfer distances are exactly zero.
"""

import numpy as np

from .errors import (
    GeometryInfeasibleError,
    MapConstructionError,
    MeshingFailureError,
    PatchConstructionError,
)
from .quadrature import gauss01, gauss_legendre

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

class Curve:
    """Closed counterclockwise curve: a circle or a smooth 2pi-periodic map.

    Parametrised curves supply position, first and second derivative
    callables, each accepting an array of parameters of shape (m,) and
    returning (m, 2) arrays.
    """

    def __init__(self, kind, center=None, radius=None,
                 position=None, derivative=None, second_derivative=None):
        self.kind = kind
        if kind == "circle":
            if radius is None or radius <= 0:
                raise GeometryInfeasibleError("circle radius must be positive")
            self.center = np.asarray(center if center is not None else (0.0, 0.0), dtype=float)
            self.radius = float(radius)
        elif kind == "parametrized":
            self._position = position
            self._derivative = derivative
            self._second_derivative = second_derivative
            sample = self.speed(np.linspace(0.0, TWO_PI, 64, endpoint=False))
            if np.min(sample) <= 0.0:
                raise GeometryInfeasibleError("curve parametrization has a vanishing derivative")
        else:
            raise ValueError(f"unknown curve kind {kind!r}")

    @classmethod
    def circle(cls, center, radius):
        return cls("circle", center=center, radius=radius)

    @classmethod
    def from_parametrization(cls, position, derivative, second_derivative):
        return cls("parametrized", position=position, derivative=derivative,
                   second_derivative=second_derivative)

    @property
    def is_circle(self):
        return self.kind == "circle"

    def point(self, s):
        s = np.asarray(s, dtype=float)
        if self.is_circle:
            return self.center + self.radius * np.stack([np.cos(s), np.sin(s)], axis=-1)
        return np.asarray(self._position(s), dtype=float)

    def derivative(self, s):
        s = np.asarray(s, dtype=float)
        if self.is_circle:
            return self.radius * np.stack([-np.sin(s), np.cos(s)], axis=-1)
        return np.asarray(self._derivative(s), dtype=float)

    def second_derivative(self, s):
        s = np.asarray(s, dtype=float)
        if self.is_circle:
            return -self.radius * np.stack([np.cos(s), np.sin(s)], axis=-1)
        return np.asarray(self._second_derivative(s), dtype=float)

    def speed(self, s):
        return np.linalg.norm(self.derivative(s), axis=-1)

    def normal(self, s):
        """Unit normal pointing out of the region enclosed by the curve."""
        d = self.derivative(s)
        n = np.stack([d[..., 1], -d[..., 0]], axis=-1)
        return n / np.linalg.norm(n, axis=-1, keepdims=True)

    def closest_parameter(self, pts, newton_steps=30):
        """Parameter of the closest curve point for each row of pts."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.is_circle:
            rel = pts - self.center
            return np.mod(np.arctan2(rel[:, 1], rel[:, 0]), TWO_PI)
        grid = np.linspace(0.0, TWO_PI, 256, endpoint=False)
        yg = self.point(grid)
        d2 = ((pts[:, None, :] - yg[None, :, :]) ** 2).sum(axis=2)
        s = grid[np.argmin(d2, axis=1)]
        for _ in range(newton_steps):
            y, dy, ddy = self.point(s), self.derivative(s), self.second_derivative(s)
            r = pts - y
            g = -(r * dy).sum(axis=1)
            h = (dy * dy).sum(axis=1) - (r * ddy).sum(axis=1)
            step = g / np.where(np.abs(h) > 1e-300, h, 1.0)
            s = np.mod(s - step, TWO_PI)
            if np.max(np.abs(step)) < 1e-15:
                break
        return s

    def distance(self, pts):
        """Unsigned distance from each point to the curve."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.is_circle:
            return np.abs(np.linalg.norm(pts - self.center, axis=1) - self.radius)
        s = self.closest_parameter(pts)
        return np.linalg.norm(pts - self.point(s), axis=1)

    def signed_distance(self, pts):
        """Negative inside the enclosed region, positive outside."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.is_circle:
            return np.linalg.norm(pts - self.center, axis=1) - self.radius
        s = self.closest_parameter(pts)
        r = pts - self.point(s)
        return np.sign((r * self.normal(s)).sum(axis=1)) * np.linalg.norm(r, axis=1)

    def length(self):
        s = np.linspace(0.0, TWO_PI, 512, endpoint=False)
        return float(np.mean(self.speed(s)) * TWO_PI)

    def diameter(self):
        if self.is_circle:
            return 2.0 * self.radius
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
    edges have -1 in slot 1.
    """

    def __init__(self, vertices, elements, fitted=False, regularity_bound=None):
        self.vertices = np.asarray(vertices, dtype=float)
        elements = np.asarray(elements, dtype=np.int64)
        # enforce counterclockwise orientation
        v = self.vertices
        e1 = v[elements[:, 1]] - v[elements[:, 0]]
        e2 = v[elements[:, 2]] - v[elements[:, 0]]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        flip = det < 0
        elements[flip] = elements[flip][:, [0, 2, 1]]
        self.elements = elements
        self.fitted = bool(fitted)
        self._build_edges()
        self._geometry_tables(regularity_bound)
        self.boundary_tags = np.full(self.n_edges, -1, dtype=np.int8)

    # -- connectivity -------------------------------------------------------

    def _build_edges(self):
        elems = self.elements
        # local edge m joins vertices (m+1, m+2) mod 3, opposite vertex m
        raw = np.concatenate([elems[:, [1, 2]], elems[:, [2, 0]], elems[:, [0, 1]]])
        raw_sorted = np.sort(raw, axis=1)
        edges, inverse = np.unique(raw_sorted, axis=0, return_inverse=True)
        order = np.lexsort((edges[:, 1], edges[:, 0]))
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        self.edges = edges[order]
        inverse = rank[inverse]
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
        v = self.vertices[self.elements]                     # (M, 3, 2)
        a = np.linalg.norm(v[:, 1] - v[:, 2], axis=1)
        b = np.linalg.norm(v[:, 2] - v[:, 0], axis=1)
        c = np.linalg.norm(v[:, 0] - v[:, 1], axis=1)
        f1 = v[:, 1] - v[:, 0]
        f2 = v[:, 2] - v[:, 0]
        area2 = f1[:, 0] * f2[:, 1] - f1[:, 1] * f2[:, 0]
        if np.any(area2 <= 0):
            raise MeshingFailureError("degenerate element",
                                      element=int(np.argmin(area2)))
        self.areas = 0.5 * area2
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

    def area(self):
        return float(self.areas.sum())

    def edge_vertices(self, edge_id):
        return self.vertices[self.edges[edge_id]]

    def edge_length(self, edge_id):
        p = self.edge_vertices(edge_id)
        return float(np.linalg.norm(p[1] - p[0]))

    def edges_with_tag(self, tag):
        return self.boundary_edge_ids[
            self.boundary_tags[self.boundary_edge_ids] == tag]


# ---------------------------------------------------------------------------
# mesh generation
# ---------------------------------------------------------------------------

def build_annulus_mesh(gamma, gamma0, target_h, regularity_bound=10.0,
                       fitted=False, inset_coeff=0.3):
    """Triangulate the region between gamma0 (inner) and gamma (outer).

    The unfitted variant offsets both boundary rings into the annulus by
    inset_coeff * target_h^(3/2) so every element is strictly interior;
    ``fitted=True`` puts the rings exactly on the curves and declares the
    polygon to be the domain boundary.
    """
    if target_h <= 0:
        raise GeometryInfeasibleError("target_h must be positive")
    probe = np.linspace(0.0, TWO_PI, 256, endpoint=False)
    p_in, p_out = gamma0.point(probe), gamma.point(probe)
    if np.any(gamma.signed_distance(p_in) >= 0):
        raise GeometryInfeasibleError("inner curve is not strictly inside outer curve")
    gap = np.linalg.norm(p_out - p_in, axis=1)
    inset = 0.0 if fitted else inset_coeff * target_h ** 1.5
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

    tris = []
    for i in range(n_layer - 1):
        for j in range(n_theta):
            jp = (j + 1) % n_theta
            v00 = i * n_theta + j
            v01 = i * n_theta + jp
            v10 = (i + 1) * n_theta + j
            v11 = (i + 1) * n_theta + jp
            if (i + j) % 2 == 0:
                tris += [(v00, v01, v11), (v00, v11, v10)]
            else:
                tris += [(v00, v01, v10), (v01, v11, v10)]
    mesh = UnfittedMesh(verts, np.asarray(tris), fitted=fitted,
                        regularity_bound=regularity_bound)

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

class BoundaryMap:
    """Pointwise map from boundary-edge quadrature nodes onto the true curves.

    All arrays are indexed by position in ``edge_ids`` (the mesh's boundary
    edges in canonical order) and by node within the edge:

    edge_ids (B,), tags (B,), parents (B,), nu (B,2) outward edge normals,
    nodes/mapped (B,q,2), l (B,q), t (B,q,2), params (B,q) curve parameters
    of the mapped nodes, normals (B,q,2) true curve normals there,
    weights (B,q) edge Gauss weights including the edge length, and
    endpoint_params (B,2) for the patch corners.
    """

    def __init__(self, **arrays):
        self.__dict__.update(arrays)


def _curve_for_tag(tag, gamma, gamma0):
    return gamma if tag == TAG_OUTER else gamma0


def _outward_normal_sign(tag):
    # the outward normal of the annulus along the inner curve points into the
    # hole, i.e. against that curve's own counterclockwise normal
    return 1.0 if tag == TAG_OUTER else -1.0


def _map_points(pts, curve, strategy):
    """Map points near a curve onto it; returns (mapped, params)."""
    if strategy == "radial":
        if not curve.is_circle:
            raise MapConstructionError("radial strategy requires a circle")
        rel = pts - curve.center
        rho = np.linalg.norm(rel, axis=1)
        if np.any(rho == 0):
            raise MapConstructionError("radial map undefined at the circle center")
        mapped = curve.center + curve.radius * rel / rho[:, None]
        params = np.mod(np.arctan2(rel[:, 1], rel[:, 0]), TWO_PI)
        return mapped, params
    params = curve.closest_parameter(pts)
    return curve.point(params), params


def _map_point_derivative(pts, curve, strategy):
    """d(mapped)/d(x) applied to a direction, returned as 2x2 Jacobians."""
    pts = np.atleast_2d(pts)
    if strategy == "radial":
        rel = pts - curve.center
        rho = np.linalg.norm(rel, axis=1)
        rhat = rel / rho[:, None]
        eye = np.eye(2)[None, :, :]
        proj = eye - rhat[:, :, None] * rhat[:, None, :]
        return (curve.radius / rho)[:, None, None] * proj
    s = curve.closest_parameter(pts)
    y, dy, ddy = curve.point(s), curve.derivative(s), curve.second_derivative(s)
    denom = (dy * dy).sum(axis=1) - ((pts - y) * ddy).sum(axis=1)
    return dy[:, :, None] * dy[:, None, :] / denom[:, None, None]


def _row_lengths(vecs):
    """Lengths of the rows of (B, 2) vecs, rounded as np.linalg.norm of one row."""
    return np.sqrt(vecs[:, None, :] @ vecs[:, :, None])[:, 0, 0]


def build_boundary_map(mesh, gamma, gamma0, strategy="auto", n_nodes=6,
                       tangency_floor=0.1):
    """Build the node-to-curve transfer map for every boundary edge.

    For fitted meshes the map is the identity (zero transfer length, the
    transfer direction degenerates to the edge normal by convention).
    """
    xg, wg = gauss01(n_nodes)
    scale = max(gamma.diameter(), 1.0)
    edge_ids = np.array(mesh.boundary_edge_ids, dtype=np.int64)
    tags = mesh.boundary_tags[edge_ids].copy()
    if np.any(tags < 0):
        raise MapConstructionError("boundary edges must be classified first",
                                   edge=int(edge_ids[np.argmax(tags < 0)]))
    parents = mesh.edge_elements[edge_ids, 0].copy()
    p = mesh.vertices[mesh.edges[edge_ids]]                         # (B, 2, 2)
    tang = p[:, 1] - p[:, 0]
    length = _row_lengths(tang)
    nodes = p[:, None, 0] + xg[None, :, None] * tang[:, None, :]    # (B, q, 2)
    # outward edge normals: away from the parent element's centroid
    nu = np.stack([tang[:, 1], -tang[:, 0]], axis=1)
    nu /= _row_lengths(nu)[:, None]
    centroid = mesh.vertices[mesh.elements[parents]].mean(axis=1)
    nu[np.einsum("bd,bd->b", nu, centroid - 0.5 * (p[:, 0] + p[:, 1])) > 0] *= -1.0

    mapped, params = np.empty_like(nodes), np.empty(nodes.shape[:2])
    endpoint_params, normals = np.empty((len(edge_ids), 2)), np.empty_like(nodes)
    for tag in (TAG_OUTER, TAG_INNER):
        rows = tags == tag
        if not np.any(rows):
            continue
        curve = _curve_for_tag(tag, gamma, gamma0)
        strat = strategy
        if strat == "auto":
            strat = "radial" if curve.is_circle else "closest-point"
        n_node = rows.sum() * n_nodes
        y, s = _map_points(np.vstack([nodes[rows].reshape(-1, 2), p[rows].reshape(-1, 2)]),
                           curve, strat)
        mapped[rows] = y[:n_node].reshape(-1, n_nodes, 2)
        params[rows] = s[:n_node].reshape(-1, n_nodes)
        endpoint_params[rows] = s[n_node:].reshape(-1, 2)
        normals[rows] = (_outward_normal_sign(tag) * curve.normal(s[:n_node])).reshape(
            -1, n_nodes, 2)
    if mesh.fitted:
        mapped = nodes.copy()
        normals = np.repeat(nu[:, None, :], n_nodes, axis=1)
    delta = mapped - nodes
    l = np.linalg.norm(delta, axis=2)
    far = l > 1e-14 * scale
    t = np.where(far[..., None], delta / np.where(l > 0, l, 1.0)[..., None],
                 nu[:, None, :])
    l = np.where(far, l, 0.0)
    dot = np.einsum("bqd,bd->bq", t, nu)
    tangent = np.any(dot < tangency_floor, axis=1)
    if np.any(tangent):
        row = int(np.argmax(tangent))
        raise MapConstructionError(
            f"transfer direction nearly tangent on edge {int(edge_ids[row])} "
            f"(min t.nu = {dot[row].min():.3f} < floor {tangency_floor})",
            edge=int(edge_ids[row]))
    return BoundaryMap(
        edge_ids=edge_ids, tags=tags, parents=parents, nu=nu, nodes=nodes,
        mapped=mapped, l=l, t=t, params=params, normals=normals,
        weights=wg[None, :] * length[:, None], endpoint_params=endpoint_params,
        strategy=strategy, n_nodes=n_nodes)


# ---------------------------------------------------------------------------
# extension patches
# ---------------------------------------------------------------------------

class ExtensionPatch:
    """Sliver between a boundary edge and the true curve.

    Holds the owning edge, its parent element, the four corner points, the
    parameter interval of the curved side, a quadrature rule over the patch
    and its area computed independently via Green's theorem.
    """

    def __init__(self, edge_id, parent, corners, param_interval,
                 points, weights, area):
        self.edge_id = edge_id
        self.parent = parent
        self.corners = corners
        self.param_interval = param_interval
        self.points = points
        self.weights = weights
        self.area = area


def _unwrap_interval(s0, s1):
    """Shortest arc interval (lo, hi) with hi >= lo covering both parameters."""
    d = np.mod(s1 - s0, TWO_PI)
    if d <= np.pi:
        return s0, s0 + d
    return s1, s1 + (TWO_PI - d)


def build_extension_patches(mesh, bmap, gamma, gamma0, n_along=12, n_across=2):
    """One quadrature-carrying patch per boundary edge.

    The patch is parametrised by (edge fraction, transfer fraction); the
    geometry is affine across the transfer direction, so two Gauss points
    suffice there, while ``n_along`` points resolve the curved side.
    """
    patches = []
    x1d, w1d = gauss01(n_along)
    x2d, w2d = gauss01(n_across)
    arc_x, arc_w = gauss_legendre(16)
    for row, e in enumerate(bmap.edge_ids):
        tag = bmap.tags[row]
        curve = _curve_for_tag(tag, gamma, gamma0)
        strat = bmap.strategy
        if strat == "auto":
            strat = "radial" if curve.is_circle else "closest-point"
        p = mesh.edge_vertices(e)
        e_vec = p[1] - p[0]
        length = np.linalg.norm(e_vec)
        s0, s1 = _unwrap_interval(*bmap.endpoint_params[row])
        if mesh.fitted or np.max(bmap.l[row]) == 0.0:
            patches.append(ExtensionPatch(int(e), int(bmap.parents[row]),
                                          np.array([p[0], p[1], p[1], p[0]]),
                                          (s0, s1), np.zeros((0, 2)),
                                          np.zeros(0), 0.0))
            continue
        base = p[0] + x1d[:, None] * e_vec
        mapped, _ = _map_points(base, curve, strat)
        delta = mapped - base                       # transfer vectors l*t
        dmap = _map_point_derivative(base, curve, strat)
        ddelta = np.einsum("nij,j->ni", dmap, e_vec) - e_vec[None, :]
        pts = np.empty((n_along * n_across, 2))
        wts = np.empty(n_along * n_across)
        idx = 0
        sign_ref = None
        for i in range(n_along):
            for jj in range(n_across):
                s2 = x2d[jj]
                d1 = e_vec + s2 * ddelta[i]
                d2 = delta[i]
                det = d1[0] * d2[1] - d1[1] * d2[0]
                if det != 0.0:
                    sgn = np.sign(det)
                    if sign_ref is None:
                        sign_ref = sgn
                    elif sgn != sign_ref:
                        raise PatchConstructionError(
                            f"patch of edge {int(e)} self-intersects (map folds)")
                pts[idx] = base[i] + s2 * delta[i]
                wts[idx] = w1d[i] * w2d[jj] * abs(det)
                idx += 1
        # independent area: signed Green's theorem around the closed loop
        # p0 -> p1 -> map(p1) -> (arc back to map(p0)) -> p0
        sA, sB = bmap.endpoint_params[row]
        d = np.mod(sA - sB + np.pi, TWO_PI) - np.pi      # short way from sB to sA
        sm = sB + d * 0.5 * (arc_x + 1.0)
        y, dy = curve.point(sm), curve.derivative(sm)
        arc = 0.25 * d * np.sum(arc_w * (y[:, 0] * dy[:, 1] - y[:, 1] * dy[:, 0]))
        xbar_A, xbar_B = curve.point(np.array([sA, sB]))

        def seg(a, b):
            return 0.5 * (a[0] * b[1] - a[1] * b[0])

        area = abs(seg(p[0], p[1]) + seg(p[1], xbar_B) + arc + seg(xbar_A, p[0]))
        patches.append(ExtensionPatch(int(e), int(bmap.parents[row]),
                                      np.array([p[0], p[1], xbar_B, xbar_A]),
                                      (s0, s1), pts, wts, float(area)))
    _check_disjoint_arcs(patches, bmap)
    return patches


def _check_disjoint_arcs(patches, bmap):
    for tag in (TAG_OUTER, TAG_INNER):
        rows = [i for i in range(len(patches)) if bmap.tags[i] == tag]
        ivals = []
        for i in rows:
            lo, hi = patches[i].param_interval
            lo_m = np.mod(lo, TWO_PI)
            ivals.append((lo_m, lo_m + (hi - lo)))
        ivals.sort()
        for k, (a0, a1) in enumerate(ivals):
            b0, b1 = ivals[(k + 1) % len(ivals)]
            if k + 1 == len(ivals):
                b0, b1 = b0 + TWO_PI, b1 + TWO_PI
            if b0 < a1 - 1e-9:
                raise PatchConstructionError("extension patches overlap along the curve")


# ---------------------------------------------------------------------------
# proximity diagnostics
# ---------------------------------------------------------------------------

class ProximityReport:
    def __init__(self, R_h, normal_deviation, per_edge):
        self.R_h = R_h
        self.normal_deviation = normal_deviation
        self.per_edge = per_edge

    def __repr__(self):
        return (f"ProximityReport(R_h={self.R_h:.4g}, "
                f"normal_deviation={self.normal_deviation:.4g})")


def proximity_parameter(mesh, bmap):
    """Max ratio of edge-to-boundary distance over parent element diameter.

    Also reports the sup over boundary nodes of |n_h - n|, the deviation of
    the facet normal from the curve normal at the mapped point.
    """
    per_edge = bmap.l.max(axis=1, initial=0.0) / mesh.h_T[bmap.parents]
    dev = np.linalg.norm(bmap.normals - bmap.nu[:, None, :], axis=2)
    return ProximityReport(float(per_edge.max(initial=0.0)),
                           float(dev.max(initial=0.0)), per_edge)


# ---------------------------------------------------------------------------
# plain-text mesh format
# ---------------------------------------------------------------------------

def save_mesh(mesh, path):
    """Write the plain-text mesh format.

    Header ``vertices N / elements M / boundary B``, then coordinate rows,
    0-based element index triples, and boundary rows ``edge-id tag`` with
    tag 0 for outer-facing and 1 for inner-facing edges.  Edge ids refer to
    the canonical lexicographic edge ordering.
    """
    lines = [f"vertices {len(mesh.vertices)} / elements {len(mesh.elements)} "
             f"/ boundary {len(mesh.boundary_edge_ids)}"]
    for x, y in mesh.vertices:
        lines.append(f"{float(x)!r} {float(y)!r}")
    for tri in mesh.elements:
        lines.append(f"{tri[0]} {tri[1]} {tri[2]}")
    for e in mesh.boundary_edge_ids:
        lines.append(f"{e} {mesh.boundary_tags[e]}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_mesh(path, fitted=False):
    """Read a mesh written by save_mesh and restore its boundary tags."""
    with open(path) as fh:
        header = fh.readline().split()
        try:
            n_v, n_e, n_b = int(header[1]), int(header[4]), int(header[7])
        except (IndexError, ValueError) as exc:
            raise MeshingFailureError(f"malformed mesh header in {path}") from exc
        verts = np.array([[float(t) for t in fh.readline().split()] for _ in range(n_v)])
        elems = np.array([[int(t) for t in fh.readline().split()] for _ in range(n_e)])
        tags = [tuple(int(t) for t in fh.readline().split()) for _ in range(n_b)]
    mesh = UnfittedMesh(verts, elems, fitted=fitted)
    listed = sorted(e for e, _ in tags)
    if listed != sorted(mesh.boundary_edge_ids.tolist()):
        raise MeshingFailureError(f"boundary rows in {path} do not match the mesh")
    for e, tag in tags:
        mesh.boundary_tags[e] = tag
    return mesh
