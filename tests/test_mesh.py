"""Swept tube meshes: combinatorics, orientation, round trips."""

import numpy as np
import pytest

from treescan import (
    TreeParams,
    ZeroLengthEdgeError,
    generate_skeleton,
    load_obj,
    save_obj,
    sweep_mesh,
)
from treescan.errors import InvalidParameterError, ObjParseError
from treescan.skeleton import SkeletonGraph, SkeletonNode

from .conftest import make_cylinder_skeleton


def point_to_line_distance(points, origin, direction):
    # independent of the library's own segment-axis helper
    direction = np.asarray(direction) / np.linalg.norm(direction)
    rel = points - origin
    return np.linalg.norm(np.cross(rel, direction), axis=1)


def signed_volume(mesh):
    """Divergence-theorem volume; positive iff triangles wind outward."""
    v0, v1, v2 = mesh.corners()
    return float(np.einsum("ij,ij->i", v0, np.cross(v1, v2)).sum() / 6.0)


def prism_volume(radius, length, sides):
    # closed sweep of a regular `sides`-gon: exact enclosed volume
    polygon_area = 0.5 * sides * radius**2 * np.sin(2.0 * np.pi / sides)
    return polygon_area * length


def path_graph(positions, radius):
    nodes = [SkeletonNode(i, np.asarray(p, dtype=float), radius) for i, p in enumerate(positions)]
    edges = [(i, i + 1) for i in range(len(positions) - 1)]
    return SkeletonGraph(nodes=nodes, edges=edges, root=0)


def test_single_edge_counts_sides_8():
    mesh = sweep_mesh(make_cylinder_skeleton(), sides=8)
    assert len(mesh.vertices) == 2 * 8 + 2  # two rings plus two cap apexes
    assert len(mesh.triangles) == 2 * 8 + 2 * 8  # tube quads plus two fans


def test_vertex_count_formula_on_a_tree():
    sides = 12
    g = generate_skeleton(TreeParams.preset("small", seed=2))
    mesh = sweep_mesh(g, sides=sides)
    kids = g.children()
    root_caps = sum(1 for p, _ in g.edges if p == g.root)
    leaf_caps = sum(1 for nid in kids if not kids[nid])
    assert len(mesh.vertices) == len(g.edges) * 2 * sides + root_caps + leaf_caps


def test_ring_vertices_sit_at_node_radius():
    r = 0.1
    mesh = sweep_mesh(make_cylinder_skeleton(radius=r), sides=16)
    ring = mesh.vertices[:32]  # caps are appended after both rings
    d = point_to_line_distance(ring, np.zeros(3), [0.0, 0.0, 1.0])
    assert np.allclose(d, r, rtol=1e-9)


def test_colinear_path_keeps_radius_everywhere():
    r = 0.25
    g = path_graph([[0, 0, 0], [0, 0, 1], [0, 0, 2]], r)
    mesh = sweep_mesh(g, sides=10)
    # cap apexes are the only vertices allowed off the tube wall
    on_axis = np.isclose(
        point_to_line_distance(mesh.vertices, np.zeros(3), [0, 0, 1]), 0.0
    )
    wall = mesh.vertices[~on_axis]
    d = point_to_line_distance(wall, np.zeros(3), [0.0, 0.0, 1.0])
    assert np.allclose(d, r, rtol=1e-9)


def test_closed_tube_is_watertight_and_outward():
    sides = 24
    r, length = 0.1, 1.0
    mesh = sweep_mesh(make_cylinder_skeleton(r, length), sides=sides)
    # watertight: every undirected edge shared by exactly two triangles
    e = np.concatenate(
        [mesh.triangles[:, [0, 1]], mesh.triangles[:, [1, 2]], mesh.triangles[:, [2, 0]]]
    )
    und = np.sort(e, axis=1)
    _, counts = np.unique(und, axis=0, return_counts=True)
    assert np.all(counts == 2)
    # outward winding: positive enclosed volume, exactly the polygon prism
    assert np.isclose(signed_volume(mesh), prism_volume(r, length, sides), rtol=1e-9)


def test_no_degenerate_triangles_even_at_sides_3():
    mesh = sweep_mesh(make_cylinder_skeleton(), sides=3)
    areas, _ = mesh.areas_normals()
    assert np.all(areas > 0.0)


def test_frames_carry_without_twist():
    # nearly straight two-edge path: ring vertex 0 must not jump azimuth
    g = path_graph([[0, 0, 0], [0, 0, 1], [0.05, 0, 2]], 0.2)
    sides = 16
    mesh = sweep_mesh(g, sides=sides)
    first_ring0 = mesh.vertices[0]
    third_ring0 = mesh.vertices[2 * sides + 1]  # after rings + one cap apex
    azimuth = lambda p: np.arctan2(p[1], p[0])  # noqa: E731
    assert abs(azimuth(first_ring0) - azimuth(third_ring0)) < 0.2


def test_sides_below_three_rejected():
    with pytest.raises(InvalidParameterError):
        sweep_mesh(make_cylinder_skeleton(), sides=2)


def test_zero_length_edge_rejected():
    nodes = [SkeletonNode(0, np.zeros(3), 1.0), SkeletonNode(1, np.zeros(3), 1.0)]
    g = SkeletonGraph(nodes=nodes, edges=[(0, 1)], root=0)
    with pytest.raises(ZeroLengthEdgeError):
        sweep_mesh(g, sides=8)


def test_obj_round_trip(tmp_path):
    mesh = sweep_mesh(generate_skeleton(TreeParams.preset("small", seed=4)), sides=6)
    path = tmp_path / "m.obj"
    save_obj(mesh, path)
    back = load_obj(path)
    assert np.array_equal(mesh.triangles, back.triangles)
    assert np.allclose(mesh.vertices, back.vertices, atol=1e-8)


def test_obj_reader_handles_slashes_and_polygons(tmp_path):
    path = tmp_path / "quad.obj"
    path.write_text(
        "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1/1/1 2/2/2 3/3/3 4/4/4\n"
    )
    mesh = load_obj(path)
    assert len(mesh.vertices) == 4
    assert [list(t) for t in mesh.triangles] == [[0, 1, 2], [0, 2, 3]]

    # a negative index counts back from the last vertex read so far
    path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nf 1 2 -1\nv 0 1 0\nf -4 -2/2 -1//1\n")
    assert [list(t) for t in load_obj(path).triangles] == [[0, 1, 2], [0, 2, 3]]

    triangle = "v 0 0 0\nv 1 0 0\nv 1 1 0\n"
    for bad, line in [
        ("f 1 2 0\n", 4),
        ("f 1 2 4\n", 4),
        ("f 1 2 9\n", 4),
        ("f 1 2 -4\n", 4),
        ("f 1 2 x\n", 4),
        ("f 1 2\n", 4),
        ("f 1 2 3\nf 1 2 3 4\n", 5),
        ("v 0 0 x\n", 4),
        ("v 0 0\n", 4),
        ("v 0 nan 0\n", 4),
        ("v inf 0 0\n", 4),
    ]:
        path.write_text(triangle + bad)
        with pytest.raises(ObjParseError, match=f"^line {line}: ") as err:
            load_obj(path)
        assert err.value.line_no == line


def test_bbox_and_diagonal():
    mesh = sweep_mesh(make_cylinder_skeleton(0.1, 1.0), sides=8)
    lo, hi = mesh.bbox()
    assert np.allclose(lo[:2], -0.1, atol=1e-9) and np.isclose(lo[2], 0.0)
    assert np.allclose(hi[:2], 0.1, atol=1e-9) and np.isclose(hi[2], 1.0)
    assert np.isclose(np.linalg.norm(hi - lo), np.sqrt(0.2**2 + 0.2**2 + 1.0))
