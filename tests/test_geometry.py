import tracemalloc
import types

import numpy as np
import pytest

from hdgbem import geometry
from hdgbem import (
    Curve,
    GeometryInfeasibleError,
    MapConstructionError,
    MeshingFailureError,
    TAG_INNER,
    TAG_OUTER,
    UnfittedMesh,
    build_annulus_mesh,
    build_boundary_map,
    load_mesh,
    proximity_parameter,
    save_mesh,
)
from conftest import ellipse_curve
from reference import edge_vertices


def test_build_keeps_vertices_in_band_and_edges_near_curves(circles):
    gamma, gamma0 = circles
    mesh = build_annulus_mesh(gamma, gamma0, 0.1)
    r = np.linalg.norm(mesh.vertices, axis=1)
    assert r.min() > 0.5 and r.max() < 1.0
    bmap = build_boundary_map(mesh, gamma, gamma0, k=2)
    rep = proximity_parameter(bmap)
    # every boundary edge within C * (parent diameter) of its curve
    for row, e in enumerate(bmap.edge_ids):
        assert bmap.l[row].max() <= rep.R_h * mesh.h_T[bmap.parents[row]] + 1e-14


def test_too_thin_gap_is_infeasible():
    with pytest.raises(GeometryInfeasibleError):
        build_annulus_mesh(Curve.circle((0, 0), 1.0), Curve.circle((0, 0), 0.9), 0.5)


@pytest.mark.parametrize("target_h", [np.nan, np.inf])
def test_non_finite_target_h_is_infeasible(circles, target_h):
    with pytest.raises(GeometryInfeasibleError, match="positive and finite"):
        build_annulus_mesh(*circles, target_h)


@pytest.mark.parametrize("target_h", [1e-300, 5e-324])
def test_tiny_target_h_is_refused_before_allocating(circles, target_h):
    # the vertex count is checked before anything of mesh size is allocated
    tracemalloc.start()
    try:
        with pytest.raises(GeometryInfeasibleError,
                           match=rf"target_h={target_h:.3g} needs about .*e\d+ mesh vertices"):
            build_annulus_mesh(*circles, target_h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6


def test_vertex_bound_counts_mesh_vertices(circles, monkeypatch):
    # a bound just above a mesh's vertex count lets it be built, and the
    # next finer mesh, with about twice the vertices, is refused
    count = len(build_annulus_mesh(*circles, 0.1).vertices)
    monkeypatch.setattr(geometry, "MAX_MESH_VERTICES", int(1.2 * count))
    assert len(build_annulus_mesh(*circles, 0.1).vertices) == count
    with pytest.raises(GeometryInfeasibleError, match=f"more than {int(1.2 * count)}$"):
        build_annulus_mesh(*circles, 0.07)


def test_curves_not_nested_is_infeasible():
    with pytest.raises(GeometryInfeasibleError):
        build_annulus_mesh(Curve.circle((0, 0), 0.5), Curve.circle((0, 0), 1.0), 0.05)


def _chord_sagitta(mesh, bmap, radius):
    """Per boundary-map row, the sagitta of its edge as a chord of the circle."""
    half = 0.5 * mesh.edge_len[bmap.edge_ids]
    return radius - np.sqrt(radius ** 2 - half ** 2)


def test_fitted_mesh_round_trips_with_zero_proximity(circles, tmp_path):
    # the loaded mesh is fitted: zero paths on the inner ring, and on the
    # outer ring paths no longer than the sagitta of each chord, ~ h^2 / (8 R)
    gamma, gamma0 = circles
    mesh = build_annulus_mesh(gamma, gamma0, 0.15, fitted=True)
    path = tmp_path / "fitted.txt"
    save_mesh(mesh, path)
    loaded = load_mesh(path)
    assert loaded.fitted
    bmap = build_boundary_map(loaded, gamma, gamma0, k=2)
    inner = bmap.tags == TAG_INNER
    assert np.all(bmap.l[inner] == 0.0)
    lmax = bmap.l.max(axis=1)
    sag = _chord_sagitta(loaded, bmap, gamma.radius)
    assert np.all((lmax[~inner] > 0.0) & (lmax[~inner] <= sag[~inner] * (1 + 1e-9)))
    rep = proximity_parameter(bmap)
    assert rep.R_h == np.max(lmax / loaded.h_T[bmap.parents])


def test_mesh_header_without_fitted_flag_is_malformed(circles, tmp_path):
    mesh = build_annulus_mesh(*circles, 0.3)
    path = tmp_path / "mesh.txt"
    save_mesh(mesh, path)
    lines = path.read_text().splitlines(keepends=True)
    assert lines[0].endswith(" / fitted 0\n")
    path.write_text(lines[0].replace(" / fitted 0", "") + "".join(lines[1:]))
    with pytest.raises(MeshingFailureError, match="malformed mesh header"):
        load_mesh(path)


@pytest.mark.parametrize("header", ["vertices 0 / elements 0 / boundary 0 / fitted 0",
                                    "vertices 3 / elements -1 / boundary 0 / fitted 0",
                                    "vertices -1 / elements 1 / boundary 0 / fitted 0",
                                    "vertices 3 / elements 1 / boundary -2 / fitted 0"],
                         ids=["no-elements", "negative-elements", "negative-vertices",
                              "negative-boundary"])
def test_mesh_header_with_no_elements_or_a_negative_count_names_the_file(tmp_path, header):
    # numpy raised its bare "zero-size array to reduction operation" error
    path = tmp_path / "mesh.txt"
    path.write_text(header + "\n0.0 0.0\n1.0 0.0\n0.0 1.0\n0 1 2\n")
    with pytest.raises(MeshingFailureError,
                       match="mesh header in .*mesh.txt declares no elements or a negative"):
        load_mesh(path)


@pytest.mark.parametrize("elements", [np.empty((0, 3), dtype=int), []], ids=["0x3", "empty"])
def test_mesh_without_elements_is_refused(elements):
    with pytest.raises(MeshingFailureError, match="mesh has no elements"):
        UnfittedMesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), elements)


@pytest.mark.parametrize("cut", ["half", "vertex-row", "element-row", "tag-row", "trailing-row"])
def test_truncated_or_malformed_mesh_body_names_the_file(circles, tmp_path, cut):
    mesh = build_annulus_mesh(*circles, 0.3)
    path = tmp_path / "mesh.txt"
    save_mesh(mesh, path)
    lines = path.read_text().splitlines(keepends=True)
    n_v, n_e = len(mesh.vertices), len(mesh.elements)
    if cut == "half":
        lines = lines[:len(lines) // 2]
    elif cut == "trailing-row":
        lines.append("garbage row\n")
    else:
        row = {"vertex-row": 1, "element-row": 1 + n_v, "tag-row": 1 + n_v + n_e}[cut]
        lines[row] = lines[row].split()[0] + "\n"
    path.write_text("".join(lines))
    with pytest.raises(MeshingFailureError, match="mesh body in .*mesh.txt"):
        load_mesh(path)


@pytest.mark.parametrize("index", ["past-end", "negative"])
def test_mesh_element_vertex_index_out_of_range_names_the_file(circles, tmp_path, index):
    # numpy would raise a bare IndexError past the end and wrap a negative
    # index to another vertex
    mesh = build_annulus_mesh(*circles, 0.3)
    path = tmp_path / "mesh.txt"
    save_mesh(mesh, path)
    lines = path.read_text().splitlines(keepends=True)
    row = 1 + len(mesh.vertices)
    bad = {"past-end": len(mesh.vertices), "negative": -1}[index]
    lines[row] = f"{bad} " + " ".join(lines[row].split()[1:]) + "\n"
    path.write_text("".join(lines))
    with pytest.raises(MeshingFailureError, match=r"vertex index outside .* in .*mesh.txt"):
        load_mesh(path)


def test_mesh_non_finite_vertex_coordinate_names_the_file(circles, tmp_path):
    # a NaN vertex gives NaN edge lengths, and the boundary map would then
    # report overlapping edge intervals without naming the file
    mesh = build_annulus_mesh(*circles, 0.3)
    path = tmp_path / "mesh.txt"
    save_mesh(mesh, path)
    lines = path.read_text().splitlines(keepends=True)
    lines[1 + int(mesh.edges[mesh.boundary_edge_ids[0], 0])] = "nan 0.3\n"
    path.write_text("".join(lines))
    with pytest.raises(MeshingFailureError, match="non-finite vertex coordinate in .*mesh.txt"):
        load_mesh(path)


def test_mesh_boundary_tag_other_than_outer_or_inner_names_the_file(circles, tmp_path):
    mesh = build_annulus_mesh(*circles, 0.3)
    path = tmp_path / "mesh.txt"
    save_mesh(mesh, path)
    lines = path.read_text().splitlines(keepends=True)
    row = 1 + len(mesh.vertices) + len(mesh.elements)
    lines[row] = lines[row].split()[0] + " 7\n"
    path.write_text("".join(lines))
    with pytest.raises(MeshingFailureError, match="boundary tag other than 0 or 1 in .*mesh.txt"):
        load_mesh(path)


def test_mesh_boundary_rows_naming_an_interior_edge_name_the_file(circles, tmp_path):
    mesh = build_annulus_mesh(*circles, 0.3)
    path = tmp_path / "mesh.txt"
    save_mesh(mesh, path)
    lines = path.read_text().splitlines(keepends=True)
    row = 1 + len(mesh.vertices) + len(mesh.elements)
    lines[row] = f"{mesh.interior_edge_ids[0]} {lines[row].split()[1]}\n"
    path.write_text("".join(lines))
    with pytest.raises(MeshingFailureError,
                       match="boundary rows in .*mesh.txt do not match the mesh"):
        load_mesh(path)


def test_boundary_map_refuses_unknown_tag_naming_the_edge(circles):
    # an edge tagged neither outer nor inner would keep an unset map row
    mesh = build_annulus_mesh(*circles, 0.3)
    edge = int(mesh.boundary_edge_ids[3])
    mesh.boundary_tags[edge] = 7
    with pytest.raises(MapConstructionError, match=f"boundary edge {edge} has tag 7") as err:
        build_boundary_map(mesh, *circles, k=1)
    assert err.value.edge == edge


def _one_triangle_mesh(v0, v1, v2):
    return UnfittedMesh(np.array([v0, v1, v2], dtype=float),
                        np.array([[0, 1, 2]]))


def test_clockwise_elements_are_stored_counterclockwise_with_their_map():
    # the flip swaps J's columns and negates detJ, bit for bit a fresh
    # computation from the stored vertex order
    verts = np.array([[0.1, 0.2], [0.9, 0.15], [0.4, 0.8], [0.3, -0.4]])
    mesh = UnfittedMesh(verts, np.array([[0, 2, 1], [0, 1, 3], [1, 2, 3]]))
    assert np.array_equal(mesh.elements, [[0, 1, 2], [0, 3, 1], [1, 2, 3]])
    v = verts[mesh.elements]
    J = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=2)
    assert np.array_equal(mesh.J, J)
    assert np.array_equal(mesh.detJ, J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0])
    assert np.all(mesh.detJ > 0)


def test_edge_shared_by_three_elements_is_refused():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.5, 2.0]])
    with pytest.raises(MeshingFailureError, match="non-manifold edge"):
        UnfittedMesh(verts, np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]]))


def test_degenerate_element_is_refused_by_index():
    # element 1's vertices are collinear: detJ = 0
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(MeshingFailureError, match="degenerate element") as err:
        UnfittedMesh(verts, np.array([[0, 1, 2], [0, 1, 3]]))
    assert err.value.element == 1


def test_fitted_rings_are_not_strictly_inside(circles):
    # the chords of a fitted mesh's inner ring cut into the obstacle
    mesh = build_annulus_mesh(*circles, 0.2, fitted=True)
    with pytest.raises(MeshingFailureError, match="mesh is not strictly inside the annulus"):
        geometry._check_strictly_inside(mesh, *circles)


@pytest.mark.parametrize("fitted", [False, True], ids=["unfitted", "fitted"])
@pytest.mark.parametrize("outer", ["circle", "shifted-ellipse"])
def test_ring_tags_face_the_nearer_curve_and_normals_point_out(circles, outer, fitted):
    # the ring rule tags what the nearest-curve test would, and the one
    # outward normal per side is the boundary map's nu
    gamma0 = circles[1]
    gamma = circles[0] if outer == "circle" else ellipse_curve(1.3, 0.9, (0.15, 0.1))
    mesh = build_annulus_mesh(gamma, gamma0, 0.1, fitted=fitted)
    ids = mesh.boundary_edge_ids
    tags = mesh.boundary_tags[ids]
    assert np.any(tags == TAG_OUTER) and np.any(tags == TAG_INNER)
    mid = mesh.vertices[mesh.edges[ids]].mean(axis=1)
    nearer_outer = np.abs(gamma.signed_distance(mid)) < np.abs(gamma0.signed_distance(mid))
    assert np.array_equal(tags == TAG_OUTER, nearer_outer)
    v = mesh.vertices[mesh.elements]
    side_mid = 0.5 * (np.roll(v, -1, axis=1) + np.roll(v, -2, axis=1))    # side s
    away = np.einsum("msd,msd->ms", mesh.side_normals,
                     side_mid - v.mean(axis=1, keepdims=True))
    assert np.all(away > 0)
    assert np.allclose(np.linalg.norm(mesh.side_normals, axis=2), 1.0)
    bmap = build_boundary_map(mesh, gamma, gamma0, k=1)
    assert np.array_equal(bmap.nu, mesh.side_normals[bmap.parents,
                                                     mesh.edge_sides[bmap.edge_ids, 0]])


def test_radial_map_values(circles):
    from hdgbem.geometry import _map_points
    gamma, _ = circles
    mapped, params = _map_points(np.array([[0.9, 0.0], [0.0, 0.95]]), gamma)
    assert np.allclose(mapped, [[1.0, 0.0], [0.0, 1.0]], atol=1e-15)
    assert np.allclose(params, [0.0, np.pi / 2])


def test_map_consistency_invariant(circles):
    gamma, gamma0 = circles
    mesh = build_annulus_mesh(gamma, gamma0, 0.1)
    bmap = build_boundary_map(mesh, gamma, gamma0, k=3)
    err = np.abs(bmap.nodes + bmap.l[..., None] * bmap.t - bmap.mapped).max()
    assert err <= 1e-12 * gamma.diameter()
    assert np.allclose(np.linalg.norm(bmap.t, axis=2), 1.0)
    # never tangent
    dots = np.einsum("bqd,bd->bq", bmap.t, bmap.nu)
    assert dots.min() >= 0.1


@pytest.mark.parametrize("outer", ["circle", "ellipse"])
def test_transfer_direction_is_the_outward_curve_normal(outer, circles, request):
    # the normal deviation reads t as the annulus's outward normal at the
    # mapped node: the outer curve's normal there, minus the inner curve's
    gamma0 = circles[1]
    gamma = circles[0] if outer == "circle" else request.getfixturevalue("ellipse")
    mesh = build_annulus_mesh(gamma, gamma0, 0.1)
    bmap = build_boundary_map(mesh, gamma, gamma0, k=2)
    for tag, curve, sign in ((TAG_OUTER, gamma, 1.0), (TAG_INNER, gamma0, -1.0)):
        rows = bmap.tags == tag
        live = bmap.l[rows] > 0.0
        assert np.any(live)
        normal = sign * curve.normal(bmap.params[rows][live])
        assert np.abs(bmap.t[rows][live] - normal).max() <= 1e-10


def test_fitted_map_convention(circles):
    # the identity on inner rows; outer nodes map to the interface
    gamma, gamma0 = circles
    mesh = build_annulus_mesh(gamma, gamma0, 0.2, fitted=True)
    bmap = build_boundary_map(mesh, gamma, gamma0, k=2)
    inner = bmap.tags == TAG_INNER
    assert np.all(bmap.l[inner] == 0.0)
    assert np.allclose(bmap.t[inner], np.broadcast_to(bmap.nu[inner, None, :],
                                                      bmap.t[inner].shape))
    assert np.array_equal(bmap.nodes[inner], bmap.mapped[inner])
    outer = ~inner
    assert np.allclose(np.linalg.norm(bmap.mapped[outer], axis=-1), gamma.radius,
                       rtol=0.0, atol=1e-14)
    sag = _chord_sagitta(mesh, bmap, gamma.radius)
    assert np.all(bmap.l[outer].max(axis=1) <= sag[outer] * (1 + 1e-9))


def test_tangency_floor_violation_names_edge(circles):
    gamma, gamma0 = circles
    # bottom edge runs along the x axis: radial transfer is tangent to it
    mesh = _one_triangle_mesh((0.8, 0.0), (0.95, 0.0), (0.875, 0.05))
    mesh.boundary_tags[mesh.boundary_edge_ids] = TAG_OUTER
    with pytest.raises(MapConstructionError) as err:
        build_boundary_map(mesh, gamma, gamma0, k=1)
    assert err.value.edge is not None


def test_tag_partition(circles):
    gamma, gamma0 = circles
    mesh = build_annulus_mesh(gamma, gamma0, 0.1)
    tags = mesh.boundary_tags[mesh.boundary_edge_ids]
    assert np.all(tags >= 0)
    assert (tags == TAG_OUTER).sum() + (tags == TAG_INNER).sum() == len(tags)


@pytest.mark.parametrize("bundle", ["coarse_k1", "fitted_k1"])
def test_edge_table_inverts_element_edges(bundle, request):
    mesh = request.getfixturevalue(bundle)[0]
    elems, sides = mesh.edge_elements, mesh.edge_sides
    assert elems.shape == sides.shape == (mesh.n_edges, 2)
    assert np.array_equal(elems < 0, sides < 0)
    e, slot = np.nonzero(elems >= 0)
    assert np.array_equal(mesh.element_edges[elems[e, slot], sides[e, slot]], e)
    assert np.all(elems[:, 0] >= 0)
    inner = mesh.interior_edge_ids
    assert np.all(elems[inner, 0] < elems[inner, 1])       # lower element first
    assert np.all(elems[mesh.boundary_edge_ids, 1] == -1)
    assert np.all(sides[mesh.boundary_edge_ids, 1] == -1)


def test_layered_elements_match_loop_reference(circles):
    gamma, gamma0 = circles
    mesh = build_annulus_mesh(gamma, gamma0, 0.2)
    n_theta = int(np.sum(mesh.boundary_tags == TAG_INNER))
    n_layer = len(mesh.vertices) // n_theta
    tris = []
    for i in range(n_layer - 1):
        for j in range(n_theta):
            v00, v01 = i * n_theta + j, i * n_theta + (j + 1) % n_theta
            v10, v11 = v00 + n_theta, v01 + n_theta
            if (i + j) % 2 == 0:
                tris += [(v00, v01, v11), (v00, v11, v10)]
            else:
                tris += [(v00, v01, v10), (v01, v11, v10)]
    assert np.array_equal(UnfittedMesh(mesh.vertices, tris).elements, mesh.elements)


def test_proximity_parameter_synthetic_ratio():
    fake_mesh = types.SimpleNamespace(h_T=np.array([0.1, 0.1]))
    bmap = types.SimpleNamespace(
        mesh=fake_mesh,
        edge_ids=np.array([0, 1]),
        parents=np.array([0, 1]),
        l=np.array([[0.02, 0.01], [0.001, 0.002]]),
        t=np.zeros((2, 2, 2)),
        nu=np.zeros((2, 2)),
    )
    rep = proximity_parameter(bmap)
    assert rep.R_h == pytest.approx(0.2)


def test_refinement_trends(circles):
    gamma, gamma0 = circles
    R_hs, devs = [], []
    for h in (0.2, 0.1, 0.05):
        mesh = build_annulus_mesh(gamma, gamma0, h)
        bmap = build_boundary_map(mesh, gamma, gamma0, k=2)
        rep = proximity_parameter(bmap)
        R_hs.append(rep.R_h)
        devs.append(rep.normal_deviation)
    assert R_hs[0] >= R_hs[1] >= R_hs[2]
    assert devs[0] > devs[1] > devs[2]


def test_mesh_io_round_trip(circles, tmp_path):
    gamma, gamma0 = circles
    mesh = build_annulus_mesh(gamma, gamma0, 0.15)
    path = tmp_path / "mesh.txt"
    save_mesh(mesh, path)
    with open(path) as fh:
        header = fh.readline()
    assert header.startswith(f"vertices {len(mesh.vertices)} / elements")
    loaded = load_mesh(path)
    assert np.allclose(loaded.vertices, mesh.vertices)
    assert np.array_equal(loaded.elements, mesh.elements)
    assert np.array_equal(loaded.boundary_tags, mesh.boundary_tags)


def test_regularity_bound_violation_reports_element(circles, monkeypatch):
    # the generator applies the bound, the mesh container does not: a bound
    # below the layered grid's worst ratio refuses that element by name
    gamma, gamma0 = circles
    mesh = build_annulus_mesh(gamma, gamma0, 0.2)
    worst = int(np.argmax(mesh.regularity))
    assert 1.5 < mesh.regularity[worst] <= geometry.REGULARITY_BOUND
    monkeypatch.setattr(geometry, "REGULARITY_BOUND", 1.5)
    with pytest.raises(MeshingFailureError,
                       match=f"element {worst} has circumradius/inradius "
                             f"{mesh.regularity[worst]:.2f} > bound 1.50") as err:
        build_annulus_mesh(gamma, gamma0, 0.2)
    assert err.value.element == worst


def test_parametrized_curve_matches_circle(smooth_unit_circle):
    circle = Curve.circle((0.0, 0.0), 1.0)
    s = np.linspace(0, 2 * np.pi, 17)
    assert np.allclose(smooth_unit_circle.point(s), circle.point(s))
    assert np.allclose(smooth_unit_circle.normal(s), circle.normal(s))
    pts = np.array([[1.4, 0.3], [0.2, -0.9]])
    assert np.allclose(smooth_unit_circle.closest_parameter(pts),
                       circle.closest_parameter(pts), atol=1e-12)
    assert np.allclose(smooth_unit_circle.signed_distance(pts),
                       circle.signed_distance(pts), atol=1e-12)


def _spoiled_unit_circle(part, value):
    """The unit circle with value in its position (part 0), derivative (1) or
    second derivative (2) for s > 3."""
    fns = [lambda s: np.stack([np.cos(s), np.sin(s)], axis=-1),
           lambda s: np.stack([-np.sin(s), np.cos(s)], axis=-1),
           lambda s: -np.stack([np.cos(s), np.sin(s)], axis=-1)]
    good = fns[part]
    fns[part] = lambda s: np.where(s[:, None] > 3.0, value, good(s))
    return Curve.from_parametrization(*fns)


@pytest.mark.parametrize("make", [
    lambda: Curve.circle((0.0, 0.0), np.nan),
    lambda: Curve.circle((0.0, 0.0), np.inf),
    lambda: Curve.circle((np.nan, 0.0), 1.0),
    lambda: _spoiled_unit_circle(1, np.nan),
    lambda: _spoiled_unit_circle(0, np.inf),
    lambda: _spoiled_unit_circle(2, np.nan),
], ids=["nan-radius", "inf-radius", "nan-center", "nan-derivative", "inf-position",
        "nan-second-derivative"])
def test_non_finite_curve_is_infeasible(make):
    with pytest.raises(GeometryInfeasibleError, match="finite"):
        make()


def test_vanishing_derivative_is_infeasible():
    with pytest.raises(GeometryInfeasibleError, match="vanishing derivative"):
        _spoiled_unit_circle(1, 0.0)


@pytest.mark.parametrize("outer", ["circle", "ellipse"])
def test_no_points_give_empty_closest_parameters_and_distances(circles, outer):
    # off the circle, Newton and its stop test run on an empty step
    curve = circles[0] if outer == "circle" else ellipse_curve(1.3, 0.9)
    none = np.empty((0, 2))
    assert curve.closest_parameter(none).shape == (0,)
    assert curve.signed_distance(none).shape == (0,)


@pytest.mark.parametrize("center", [(0.0, 0.0), (0.3, -0.2)])
def test_map_refuses_the_circle_center(center):
    curve = Curve.circle(center, 1.0)
    pts = np.array([[0.9, 0.1], center])
    with pytest.raises(MapConstructionError, match="radial map undefined at the circle center"):
        geometry._map_points(pts, curve)


@pytest.mark.parametrize("point", [[np.nan, 0.0], [np.inf, 0.0], [1e300, 1e300]],
                         ids=["nan", "inf", "overflow"])
def test_closest_point_refuses_non_finite_and_overflowing_points(ellipse, point):
    # NaN would run Newton on NaN, and a squared distance that overflows
    # leaves the k-d tree without a nearest sample
    with pytest.raises(MapConstructionError, match="non-finite|overflows"):
        ellipse.closest_parameter(np.array([[2.0, 0.0], point]))


def test_grid_search_matches_unblocked_distance_bitwise(ellipse):
    # the k-d tree must pick the same grid parameter as the argmin of the
    # (npts, 256, 2) squared-difference sum
    rng = np.random.default_rng(12)
    n = 3149
    s = rng.uniform(0.0, 2 * np.pi, n)
    pts = ellipse.point(s) + rng.uniform(-0.3, 0.3, n)[:, None] * ellipse.normal(s)
    grid = np.linspace(0.0, 2 * np.pi, 256, endpoint=False)
    d2 = ((pts[:, None, :] - ellipse.point(grid)[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(ellipse._grid_parameter(pts), grid[np.argmin(d2, axis=1)])


def test_closest_point_search_stops_at_rounding():
    # one vertex's step jitters at a few ulp of s, so a stop rule below
    # rounding would run all NEWTON_STEPS steps on every call
    gamma = ellipse_curve(1.3, 0.9)
    mesh = build_annulus_mesh(gamma, Curve.circle((0.0, 0.0), 0.5), 0.025)
    x = mesh.vertices
    steps = []
    second = gamma.second_derivative
    gamma.second_derivative = lambda s: steps.append(len(s)) or second(s)
    try:
        s = gamma.closest_parameter(x)
    finally:
        del gamma.second_derivative
    assert 0 < len(steps) <= 8
    dy = gamma.derivative(s)
    stationarity = np.abs(((x - gamma.point(s)) * dy).sum(axis=1))
    scale = np.abs(x).max() * np.linalg.norm(dy, axis=1).max()
    assert stationarity.max() <= 8 * np.finfo(float).eps * scale


def _rowwise_edge_table(elements):
    """edges, element_edges, edge_elements and edge_sides, by a row-wise unique and a loop."""
    raw = np.concatenate([elements[:, [1, 2]], elements[:, [2, 0]], elements[:, [0, 1]]])
    edges, inverse = np.unique(np.sort(raw, axis=1), axis=0, return_inverse=True)
    element_edges = inverse.reshape(3, -1).T
    edge_elements = np.full((len(edges), 2), -1, dtype=np.int64)
    edge_sides = np.full((len(edges), 2), -1, dtype=np.int64)
    for t, row in enumerate(element_edges):
        for side, e in enumerate(row):
            slot = int(edge_elements[e, 0] >= 0)
            edge_elements[e, slot], edge_sides[e, slot] = t, side
    return edges, element_edges, edge_elements, edge_sides


@pytest.mark.parametrize("relabel", [False, True], ids=["annulus", "relabelled"])
def test_key_edge_table_matches_rowwise_unique_bitwise(ellipse, relabel):
    mesh = build_annulus_mesh(ellipse, Curve.circle((0.0, 0.0), 0.5), 0.1)
    verts, elems = mesh.vertices, mesh.elements
    if relabel:
        new = np.random.default_rng(5).permutation(len(verts))
        verts, elems = np.empty_like(verts), new[elems]
        verts[new] = mesh.vertices
        mesh = UnfittedMesh(verts, elems)
    ref = _rowwise_edge_table(mesh.elements)
    for name, want in zip(("edges", "element_edges", "edge_elements", "edge_sides"), ref):
        got = getattr(mesh, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def test_overlapping_patches_raise(circles, monkeypatch):
    # moving one mapped endpoint's curve parameter by 0.5 stretches the
    # intervals of its two edges over their neighbours
    gamma, gamma0 = circles
    mesh = build_annulus_mesh(gamma, gamma0, 0.2)
    end = edge_vertices(mesh, mesh.boundary_edge_ids[0])[1]
    map_points = geometry._map_points

    def tampered(pts, curve):
        mapped, params = map_points(pts, curve)
        params[np.all(pts == end, axis=1)] += 0.5
        return mapped, params

    build_boundary_map(mesh, gamma, gamma0, k=1)
    monkeypatch.setattr(geometry, "_map_points", tampered)
    with pytest.raises(MapConstructionError, match="edge intervals overlap along the curve"):
        build_boundary_map(mesh, gamma, gamma0, k=1)


def test_folding_patch_map_raises(circles, monkeypatch):
    # a map Jacobian flipped on one edge's nodes turns the transfer vector's
    # derivative against the edge: the sliver map then reverses orientation
    # between the two across nodes, and that edge's map must be refused
    gamma, gamma0 = circles
    mesh = build_annulus_mesh(gamma, gamma0, 0.2)
    bmap = build_boundary_map(mesh, gamma, gamma0, k=1)
    edge = int(bmap.edge_ids[np.nonzero(bmap.tags == TAG_INNER)[0][3]])
    a, b = edge_vertices(mesh, edge)
    along, normal = b - a, np.array([a[1] - b[1], b[0] - a[0]])
    derivative = geometry._map_point_derivative

    def flipped(pts, params, curve):
        jac = derivative(pts, params, curve)
        frac = (pts - a) @ along / (along @ along)
        on_edge = (frac > 0) & (frac < 1) & (np.abs((pts - a) @ normal) < 1e-12)
        jac[on_edge] *= -1.0
        return jac

    monkeypatch.setattr(geometry, "_map_point_derivative", flipped)
    with pytest.raises(MapConstructionError,
                       match=f"sliver of edge {edge} self-intersects") as err:
        build_boundary_map(mesh, gamma, gamma0, k=1)
    assert err.value.edge == edge


def test_transfer_path_longer_than_3_h_T_is_refused_by_the_map(circles):
    # a fine mesh of the annulus between radii 0.5 and 0.8, mapped to the
    # unit circle: its outer paths, about 0.2 long, are over 5 diameters of
    # their parents, and the map itself refuses them
    gamma, gamma0 = circles
    mesh = build_annulus_mesh(Curve.circle((0.0, 0.0), 0.8), gamma0, 0.025)
    with pytest.raises(MapConstructionError,
                       match="transfer path on edge .* is longer than 3 h_T") as err:
        build_boundary_map(mesh, gamma, gamma0, k=2)
    assert err.value.edge in mesh.boundary_edge_ids
    assert mesh.boundary_tags[err.value.edge] == TAG_OUTER


@pytest.mark.parametrize("outer", ["circle", "ellipse"])
def test_map_point_derivative_matches_finite_differences(outer, circles):
    # the circle's and the ellipse's Jacobians come from the same formula
    curve = circles[0] if outer == "circle" else ellipse_curve(1.1, 0.85)
    rng = np.random.default_rng(5)
    s = rng.uniform(0.0, 2 * np.pi, 16)
    pts = curve.point(s) - rng.uniform(0.01, 0.1, 16)[:, None] * curve.normal(s)
    jac = geometry._map_point_derivative(pts, geometry._map_points(pts, curve)[1], curve)
    step = 1e-6
    for axis in range(2):
        shift = step * np.eye(2)[axis]
        fd = (geometry._map_points(pts + shift, curve)[0]
              - geometry._map_points(pts - shift, curve)[0]) / (2 * step)
        assert np.abs(jac[:, :, axis] - fd).max() < 1e-8
