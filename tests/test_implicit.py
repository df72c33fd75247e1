"""Weighted affine fits, octree construction, blending, and the binary cache."""

import hashlib
import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from treescan import PipelineConfig, TreeParams, generate_skeleton, implicit, sweep_mesh
from treescan.errors import (
    EmptyMeshError,
    InsufficientTrianglesError,
    InvalidParameterError,
    SurfaceCacheError,
)
from treescan.geometry import dist_points_to_triangles, flat_triangles, triangle_areas_normals
from treescan.implicit import (
    DEFAULT_EPSILON_SCALE,
    FitConfig,
    ImplicitSurface,
    _batched_affines,
    _pair_distances,
    _pair_moments,
    _quadrature_points,
    build_surface,
    load_surface,
    save_surface,
    surface_key,
    weight,
)
from treescan.mesh import TriangleMesh
from treescan.primitives import icosphere
from treescan.rng import derive_seed

from .conftest import CACHE_FAULTS, damaged_cache

# a generic skewed triangle roughly unit distance from the origin
SKEW_TRI = np.array(
    [[0.10, -0.20, 1.00], [0.50, 0.05, 1.05], [0.25, 0.30, 0.90]], dtype=np.float64
)


# -- oracles -------------------------------------------------------------------


def mc_weight_moments(center, tri, epsilon, n=1_000_000, seed=987123):
    """Monte-Carlo estimates of integral(w) and integral(x*w) over one triangle.

    Uniform barycentric sampling; the estimate is area * mean(integrand).
    Entirely independent of the quadrature rule under test.
    """
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    v = rng.random(n)
    flip = u + v > 1.0
    u[flip] = 1.0 - u[flip]
    v[flip] = 1.0 - v[flip]
    v0, v1, v2 = np.asarray(tri, dtype=np.float64)
    pts = v0 + u[:, None] * (v1 - v0) + v[:, None] * (v2 - v0)
    area = 0.5 * np.linalg.norm(np.cross(v1 - v0, v2 - v0))
    w = 1.0 / (np.sum((pts - np.asarray(center)) ** 2, axis=1) + epsilon**2) ** 2
    return area * w.mean(), area * (pts * w[:, None]).mean(axis=0)


def sampled_tri_distance(point, tri, grid=160):
    """Upper bound on dist(point, triangle) from a dense barycentric grid."""
    ii, jj = np.meshgrid(np.arange(grid + 1), np.arange(grid + 1), indexing="ij")
    keep = ii + jj <= grid
    a = ii[keep] / grid
    b = jj[keep] / grid
    v0, v1, v2 = np.asarray(tri, dtype=np.float64)
    pts = v0 + a[:, None] * (v1 - v0) + b[:, None] * (v2 - v0)
    return float(np.sqrt(np.min(np.sum((pts - point) ** 2, axis=1))))


def plane_grid_mesh(n=8, half=1.0, z=0.0):
    """n*n quads in the plane z=const, all normals +z."""
    xs = np.linspace(-half, half, n + 1)
    verts = np.array([[x, y, z] for x in xs for y in xs])
    tris = []
    for i in range(n):
        for j in range(n):
            a = i * (n + 1) + j
            b = (i + 1) * (n + 1) + j
            tris.append([a, b, b + 1])
            tris.append([a, b + 1, a + 1])
    return TriangleMesh(verts, np.array(tris))


def roof_mesh(n=4, span=1.0):
    """Two 45-degree slopes meeting at a crease along the y axis.

    Each slope is an n*n quad grid; normals point up and away from the
    ridge, (side, 0, 1)/sqrt(2) for the slope on that side.
    """
    verts = []
    tris = []
    for side in (-1.0, 1.0):
        base = len(verts)
        for i in range(n + 1):
            u = span * i / n
            for j in range(n + 1):
                verts.append([side * u, j / n, -u])
        for i in range(n):
            for j in range(n):
                a = base + i * (n + 1) + j
                b = base + (i + 1) * (n + 1) + j
                if side > 0:
                    tris.append([a, b, b + 1])
                    tris.append([a, b + 1, a + 1])
                else:
                    tris.append([a, b + 1, b])
                    tris.append([a, a + 1, b + 1])
    mesh = TriangleMesh(np.array(verts), np.array(tris))
    # fixture sanity: every facet must face up toward its own side
    _, normals = mesh.areas_normals()
    sides = np.sign(mesh.vertices[mesh.triangles].mean(axis=1)[:, 0])
    want = np.stack([sides, np.zeros_like(sides), np.ones_like(sides)], axis=1)
    assert np.all(np.einsum("ij,ij->i", normals, want) > 0.5)
    return mesh


def brute_force_coverage_gap(points, surface):
    """max over points of min over cells of (|p - c| - R); <= 0 means covered."""
    d = np.linalg.norm(points[:, None, :] - surface.centers[None, :, :], axis=2)
    return float(np.max(np.min(d - surface.radii[None, :], axis=1)))


# -- weight function -----------------------------------------------------------


def test_weight_pinned_values():
    t = np.zeros(3)
    assert weight(t, t, 1.0) == 1.0
    assert weight(np.array([1.0, 0.0, 0.0]), t, 1.0) == 0.25
    assert weight(t, t, 0.1) == pytest.approx(1e4, rel=1e-12)


def test_weight_broadcasts_over_rows():
    t = np.array([0.0, 0.0, 1.0])
    xs = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [3.0, 0.0, 1.0]])
    got = weight(xs, t, 1.0)
    assert got.shape == (3,)
    assert np.allclose(got, [1.0, 0.25, 1.0 / 100.0])


def test_weight_rejects_bad_epsilon():
    with pytest.raises(InvalidParameterError):
        weight(np.zeros(3), np.zeros(3), 0.0)
    with pytest.raises(InvalidParameterError):
        weight(np.zeros(3), np.zeros(3), -1.0)


@given(
    near=st.floats(min_value=0.0, max_value=50.0),
    gap=st.floats(min_value=1e-6, max_value=50.0),
    eps=st.floats(min_value=1e-3, max_value=10.0),
)
def test_weight_decreases_with_distance(near, gap, eps):
    # strict monotone falloff along a ray through the centre
    t = np.zeros(3)
    x1 = np.array([near, 0.0, 0.0])
    x2 = np.array([near + gap, 0.0, 0.0])
    w1, w2 = weight(x1, t, eps), weight(x2, t, eps)
    assert w1 > w2 > 0.0


# -- quadrature vs Monte-Carlo ---------------------------------------------------


def tri_moments(center, tri, epsilon):
    """The fit kernel's (int_w, int_xw, area) for one (center, triangle) pair."""
    v0, v1, v2 = tri[None, 0], tri[None, 1], tri[None, 2]
    areas, _ = triangle_areas_normals(v0, v1, v2)
    quad_pts, omega = _quadrature_points(v0, v1, v2)
    int_w, int_xw = _pair_moments(np.asarray(center)[None], quad_pts, omega, areas, epsilon)
    return int_w[0], int_xw[0], areas[0]


def test_moments_match_monte_carlo():
    center = np.zeros(3)
    eps = 0.05
    mc_w, mc_xw = mc_weight_moments(center, SKEW_TRI, eps)
    int_w, int_xw, _ = tri_moments(center, SKEW_TRI, eps)
    assert abs(int_w - mc_w) / mc_w <= 1e-3
    assert np.linalg.norm(int_xw - mc_xw) / np.linalg.norm(mc_xw) <= 1e-3


def test_moments_zero_area_triangle():
    tri = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [2.0, 0.0, 1.0]])
    int_w, int_xw, area = tri_moments(np.zeros(3), tri, 0.05)
    assert area == 0.0
    assert int_w == 0.0
    assert np.all(int_xw == 0.0)


# -- per-cell fits ---------------------------------------------------------------


def triangle_soup(*tris):
    """A mesh of separate triangles, each given as a (3, 3) vertex array."""
    tris = np.asarray(tris, dtype=np.float64)
    return TriangleMesh(tris.reshape(-1, 3), np.arange(3 * len(tris)).reshape(-1, 3))


def set_octree(monkeypatch, **settings):
    """Set the octree's constants by the names they had as fit config
    fields: max_depth sets `MAX_DEPTH`, and so on."""
    for name, value in settings.items():
        monkeypatch.setattr(implicit, name.upper(), value)


def one_cell_surface(*tris, **fit):
    """The surface of a few triangles that the root cell holds alone."""
    surf = build_surface(triangle_soup(*tris), FitConfig(**fit))
    assert surf.diagnostics["cells"] == 1
    return surf


def kernel_fit(mesh, center, members, epsilon):
    """The fit kernel on one cell: (normal, offset) from its members' moments,
    summed in the order given."""
    v0, v1, v2 = mesh.corners()
    areas, tri_normals = triangle_areas_normals(v0, v1, v2)
    quad_pts, omega = _quadrature_points(v0, v1, v2)
    cells = np.zeros(len(members), dtype=np.int64)
    normals, offsets = _batched_affines(center[None], cells, members, quad_pts, omega, areas, tri_normals, epsilon)
    return normals[0], offsets[0]


def test_fit_cell_planar_is_exact():
    tri = np.array([[-1.0, -1.0, 0.0], [2.0, -0.5, 0.0], [0.3, 1.7, 0.0]])
    surf = one_cell_surface(tri, epsilon=0.05)
    assert np.array_equal(surf.normals[0], [0.0, 0.0, 1.0])
    assert surf.offsets[0] == 0.0
    # two probes inside the cell's sphere, one outside it (no field there)
    probes = np.array([[0.0, 0.0, 0.25], [1.0, -2.0, -0.75], [5.0, 5.0, 0.0]])
    assert np.array_equal(surf.eval_many(probes), [*probes[:2, 2], np.nan], equal_nan=True)


def test_fit_cell_two_coplanar_triangles():
    z = 0.25
    surf = one_cell_surface(
        [[0.0, 0.0, z], [1.0, 0.0, z], [0.0, 1.0, z]],
        [[2.0, 2.0, z], [3.0, 2.0, z], [2.0, 3.0, z]],
        epsilon=0.05,
    )
    assert np.allclose(surf.normals[0], [0.0, 0.0, 1.0], atol=1e-15)
    assert surf.offsets[0] == pytest.approx(z, abs=1e-12)
    on_plane = np.array([[0.4, 0.2, z], [2.5, 2.2, z]])
    assert np.max(np.abs(surf.eval_many(on_plane))) <= 1e-12


def test_fit_cell_opposing_normals_fall_back_to_nearest():
    up = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    down = np.array([[0.0, 0.0, -1.0], [0.0, 1.0, -1.0], [1.0, 0.0, -1.0]])
    # the cell sits midway; the averaged normal cancels, and the nearest
    # triangle, the first on the tie, lends its normal
    for first, normal in ((up, [0.0, 0.0, 1.0]), (down, [0.0, 0.0, -1.0])):
        second = down if first is up else up
        surf = one_cell_surface(first, second, epsilon=0.05)
        assert np.array_equal(surf.centers[0], [0.5, 0.5, 0.0])
        assert np.allclose(surf.normals[0], normal)


def test_fit_cell_all_degenerate_rejected(monkeypatch):
    # the degenerate triangle, far from the other, gets a cell of its own
    set_octree(monkeypatch, max_triangles_per_cell=1)
    line = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [2.0, 0.0, 1.0]]) + np.array([10.0, 0.0, 0.0])
    with pytest.raises(InsufficientTrianglesError, match="degenerate"):
        build_surface(triangle_soup(SKEW_TRI, line), FitConfig(epsilon=0.05))


def test_fit_cell_radius_carried(monkeypatch):
    # the root cell's sphere: SPHERE_RADIUS_SCALE x its box diagonal
    set_octree(monkeypatch, sphere_radius_scale=0.7)
    surf = one_cell_surface(SKEW_TRI, epsilon=0.05)
    assert surf.radii[0] == pytest.approx(0.7 * surf.bbox_diagonal(), rel=1e-15)


def test_fit_cell_is_the_build_kernel(monkeypatch, sphere_mesh_320, sphere_surface_320):
    # every cell is fitted on the triangles within its radius, in ascending
    # id order
    set_octree(monkeypatch, sphere_radius_scale=0.6)
    narrow = build_surface(sphere_mesh_320, FitConfig())
    v0, v1, v2 = sphere_mesh_320.corners()
    for surf in (sphere_surface_320, narrow):
        for center, radius, normal, offset in zip(surf.centers, surf.radii, surf.normals, surf.offsets):
            d = dist_points_to_triangles(np.broadcast_to(center[:, None], (3, len(v0))), v0.T, v1.T, v2.T)
            members = np.flatnonzero(d <= radius)
            want_normal, want_offset = kernel_fit(sphere_mesh_320, center, members, surf.epsilon)
            assert np.array_equal(want_normal, normal)
            assert want_offset == offset


@pytest.mark.parametrize(
    "kwargs",
    [
        {"epsilon": 0.0},
        {"epsilon": -0.1},
        {"max_depth": 0},
        {"max_depth": 22},
        {"max_triangles_per_cell": 0},
        {"epsilon": float("nan")},
        {"sphere_radius_scale": float("nan")},
        {"sphere_radius_scale": 0.0},
        {"sphere_radius_scale": 0.3},
        {"sphere_radius_scale": 0.5},
    ],
)
def test_fit_config_validation(kwargs):
    # a bad epsilon fails validation; the octree's depth cap, triangle cap
    # and sphere radius scale are constants, and a fit section asking for
    # any other value of them is refused as a retired key
    with pytest.raises(InvalidParameterError):
        PipelineConfig.from_dict({"fit": kwargs}).validate()


# -- octree construction ----------------------------------------------------------


def test_build_single_triangle_single_cell(monkeypatch):
    set_octree(monkeypatch, max_depth=1)
    mesh = TriangleMesh(SKEW_TRI, np.array([[0, 1, 2]]))
    surf = build_surface(mesh, FitConfig())
    assert surf.diagnostics["cells"] == 1
    # the lone cell must actually reach its triangle
    assert sampled_tri_distance(surf.centers[0], SKEW_TRI) <= surf.radii[0]


def test_build_sphere_covers_every_vertex(sphere_mesh_320, sphere_surface_320):
    gap = brute_force_coverage_gap(sphere_mesh_320.vertices, sphere_surface_320)
    assert gap <= 1e-12
    assert np.all(np.linalg.norm(sphere_surface_320.normals, axis=1) > 0.0)


def test_build_rejects_empty_and_degenerate_meshes():
    with pytest.raises(EmptyMeshError):
        build_surface(TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64)))
    line = TriangleMesh(
        np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]),
        np.array([[0, 1, 2]]),
    )
    with pytest.raises(EmptyMeshError, match="non-degenerate"):
        build_surface(line)


@pytest.mark.parametrize("scale", [0.51, 1.0])
@pytest.mark.parametrize("shape", ["sphere", "small preset"])
def test_field_is_defined_on_every_mesh_point(monkeypatch, sphere_mesh_320, shape, scale):
    # with SPHERE_RADIUS_SCALE > 0.5 the descent alone covers the mesh: each
    # point of a triangle lies strictly inside its own leaf's sphere
    set_octree(monkeypatch, sphere_radius_scale=scale)
    mesh = sphere_mesh_320 if shape == "sphere" else small_preset_mesh()
    surf = build_surface(mesh, FitConfig())
    quad_pts, _ = _quadrature_points(*mesh.corners())
    assert np.all(np.isfinite(surf.eval_many(mesh.vertices)))
    assert np.all(np.isfinite(surf.eval_many(quad_pts.reshape(-1, 3))))
    # no sphere is grown or regrown; the tracer still reads both keys
    assert surf.diagnostics["grown_spheres"] == 0
    assert surf.diagnostics["coverage_regrown"] == 0


def test_build_auto_epsilon_rule(sphere_mesh_320, sphere_surface_320):
    lo, hi = sphere_mesh_320.bbox()
    want = DEFAULT_EPSILON_SCALE * np.linalg.norm(hi - lo)
    assert sphere_surface_320.epsilon == pytest.approx(want, rel=1e-12)
    assert sphere_surface_320.diagnostics["epsilon"] == sphere_surface_320.epsilon


def test_build_is_deterministic(sphere_mesh_320):
    a = build_surface(sphere_mesh_320, FitConfig())
    b = build_surface(sphere_mesh_320, FitConfig())
    assert np.array_equal(a.centers, b.centers)
    assert np.array_equal(a.radii, b.radii)
    assert np.array_equal(a.normals, b.normals)
    assert np.array_equal(a.offsets, b.offsets)


@pytest.mark.parametrize(
    "block, pairs", [(1, 2000), (7, 2000), (implicit._DIST_BLOCK, 2 * implicit._DIST_BLOCK + 5)]
)
def test_pair_distances_are_block_independent(monkeypatch, sphere_mesh_320, block, pairs):
    # the fit's distances run in blocks; a pair's distance must not depend
    # on the block it lands in, so any block size gives the bits of one call
    corners = tuple(np.ascontiguousarray(v.T) for v in sphere_mesh_320.corners())
    rng = np.random.default_rng(23)
    points = rng.uniform(-1.5, 1.5, (3, pairs))  # every vertex, edge and face region
    tri_ids = rng.integers(corners[0].shape[1], size=pairs)
    whole = dist_points_to_triangles(points, *(v[:, tri_ids] for v in corners))
    monkeypatch.setattr(implicit, "_DIST_BLOCK", block)
    assert np.array_equal(_pair_distances(points, tri_ids, corners, flat_triangles(*corners)), whole)


def small_preset_mesh(master_seed=1):
    """The tube mesh the pipeline makes for the small preset."""
    tree = TreeParams.preset("small", seed=derive_seed(master_seed, "skeleton"))
    return sweep_mesh(generate_skeleton(tree), sides=PipelineConfig().sides)


def test_fit_memory_peak_is_bounded():
    # the fit works in bounded pieces: the descent in batches under a pair
    # budget, the moments in small blocks, the cell index in sphere chunks.
    # Holding a whole level's pairs and a 262,144-pair moment batch at once
    # peaked at 130 MB here.
    mesh = small_preset_mesh()
    tracemalloc.start()
    try:
        surf = build_surface(mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert surf.diagnostics["cells"] > 10_000
    assert peak <= 40e6


@pytest.mark.parametrize(
    "fit",
    [
        {},
        # at this scale a cell splits less; a low cap takes it deep again
        {"sphere_radius_scale": 0.6, "max_triangles_per_cell": 4},
    ],
)
def test_fit_is_piece_size_independent(monkeypatch, fit):
    # tiny moment blocks, index chunks and descent batches give the bits of
    # the default sizes: each piece's results depend on its own pairs alone,
    # and the descent puts its leaves back in level order
    mesh = sweep_mesh(generate_skeleton(TreeParams(branch_levels=1, nodes_per_curve=4, seed=3)), sides=8)
    set_octree(monkeypatch, **fit)
    cfg = FitConfig()
    whole = build_surface(mesh, cfg)
    monkeypatch.setattr(implicit, "_MOMENT_BLOCK", 3)
    monkeypatch.setattr(implicit, "_INDEX_CHUNK", 7)
    monkeypatch.setattr(implicit, "_DESCENT_PAIRS", 16)
    pieces = build_surface(mesh, cfg)

    # the tree splits to depth 5 or more, so many batches ran
    assert whole.radii.min() <= implicit.SPHERE_RADIUS_SCALE * whole.bbox_diagonal() / 16
    for name in ("centers", "radii", "normals", "offsets"):
        assert np.array_equal(getattr(pieces, name), getattr(whole, name))
    assert np.array_equal(pieces.index.csr_cells, whole.index.csr_cells)
    assert np.array_equal(pieces.index.csr_start, whole.index.csr_start)


def random_triangles(rng, n):
    """(3, n) corner arrays: generic triangles, and triangles collapsed to
    a segment with a third vertex on its line, to a segment by a repeated
    vertex, and to a point, a quarter of each."""
    v0, v1, v2 = rng.uniform(-1.0, 1.0, (3, 3, n))
    kind = np.arange(n) % 4
    t = rng.uniform(-0.5, 1.5, n)
    v2[:, kind == 1] = (v0 + t * (v1 - v0))[:, kind == 1]
    v1[:, kind == 2] = v0[:, kind == 2]
    v1[:, kind == 3] = v2[:, kind == 3] = v0[:, kind == 3]
    return v0, v1, v2


def test_child_cull_never_drops_a_child_the_kernel_reaches():
    # the half-space bound from the parent's closest point never exceeds the
    # kernel's distance at a child center, on exactly collinear, repeated-
    # vertex and one-point triangles too, so a child drops a triangle only
    # when the kernel puts it beyond the child's radius
    rng = np.random.default_rng(11)
    n = 20_000
    corners = random_triangles(rng, n)
    x = rng.uniform(-2.0, 2.0, (3, n))
    sizes = rng.uniform(0.01, 2.0, (3, n))
    diff = np.empty((3, n))
    d = dist_points_to_triangles(x, *corners, diff=diff)
    # the output vector is p minus a point of the triangle, of norm d
    assert np.array_equal(np.sqrt(diff[0] * diff[0] + diff[1] * diff[1] + diff[2] * diff[2]), d)
    child_d = np.stack(
        [dist_points_to_triangles(x + (offset * sizes.T).T, *corners) for offset in implicit._CHILD_OFFSETS],
        axis=1,
    )
    # radii at and about the children's distances put the bound's edge
    # where it is tested
    radii = child_d[np.arange(n), rng.integers(8, size=n)] * rng.choice([1.0, 1.0 - 1e-12, 0.9, 0.5], n)
    keep = implicit._child_keep(x, sizes, diff, d, np.arange(n), corners, radii, 0.0)
    dropped = ~keep
    assert dropped.sum() > n  # the bound has work to do here
    assert np.all(child_d[dropped] > np.repeat(radii[:, None], 8, axis=1)[dropped] - 1e-12)


def small_mesh_with_collinear_triangles(count=400, seed=7):
    """The small preset's mesh plus `count` zero-area triangles, each laid
    along one of its edges with the third vertex on that edge, so every
    cell that reaches one also reaches a triangle with area."""
    mesh = small_preset_mesh()
    rng = np.random.default_rng(seed)
    tris = mesh.triangles[rng.integers(len(mesh.triangles), size=count)]
    a, b = tris[:, 0], tris[:, 1]
    t = rng.uniform(0.0, 1.0, count)
    on_line = mesh.vertices[a] + t[:, None] * (mesh.vertices[b] - mesh.vertices[a])
    third = len(mesh.vertices) + np.arange(count)
    return TriangleMesh(
        np.concatenate([mesh.vertices, on_line]),
        np.concatenate([mesh.triangles, np.stack([a, b, third], axis=1)]),
    )


@pytest.mark.parametrize(
    "mesh, fit",
    [
        ("small", {}),
        ("small", {"sphere_radius_scale": 0.51}),
        # the depth caps keep each of these fits to a second or two
        ("small", {"sphere_radius_scale": 2.0, "max_depth": 7}),
        ("small", {"max_triangles_per_cell": 1, "max_depth": 8}),
        ("collinear", {}),
    ],
)
def test_child_cull_keeps_the_fit_bits(monkeypatch, mesh, fit):
    # the descent with the half-space bound gives the bits of the descent
    # without it (an infinite slack keeps every pair)
    mesh = small_preset_mesh() if mesh == "small" else small_mesh_with_collinear_triangles()
    set_octree(monkeypatch, **fit)
    cfg = FitConfig()
    culled = build_surface(mesh, cfg)
    monkeypatch.setattr(implicit, "_CULL_SLACK", np.inf)
    whole = build_surface(mesh, cfg)
    for name in ("centers", "radii", "normals", "offsets"):
        assert np.array_equal(getattr(culled, name), getattr(whole, name))


def test_child_cull_halves_the_descents_pairs(monkeypatch):
    # small master seed 1 took 1,423,280 kernel pairs without the bound
    # and 678,534 with it
    pairs = []
    kernel = implicit.dist_points_to_triangles

    def counted(*args, **kwargs):
        d = kernel(*args, **kwargs)
        pairs[-1] += len(d)
        return d

    monkeypatch.setattr(implicit, "dist_points_to_triangles", counted)
    mesh = small_preset_mesh()
    for slack in (np.inf, implicit._CULL_SLACK):
        monkeypatch.setattr(implicit, "_CULL_SLACK", slack)
        pairs.append(0)
        build_surface(mesh)
    whole, culled = pairs
    assert culled <= 0.6 * whole


# -- cell index ----------------------------------------------------------------------


def sphere_set_surface(centers, radii):
    """A surface over bare spheres: every cell is the plane z = 0."""
    return ImplicitSurface(
        centers,
        radii,
        np.tile([0.0, 0.0, 1.0], (len(centers), 1)),
        np.zeros(len(centers)),
        np.zeros(3),
        np.ones(3),
        0.01,
    )


def mixed_spheres():
    """300 small spheres plus 4 far wider than the voxel (sized by the
    median radius)."""
    rng = np.random.default_rng(5)
    centers = rng.uniform(0.0, 1.0, (304, 3))
    radii = np.concatenate([rng.uniform(0.02, 0.06, 300), [0.5, 0.7, 0.9, 1.2]])
    return centers, radii


VOXEL_16 = 1.0 / 16.0


def corner_spheres():
    """Spheres on the exact grid lo = 0, voxel 1/16, dims 16 whose surfaces
    pass through voxel corners: centers on grid nodes (or face centers) and
    radii of 1, 3, 5 (or 2.5) voxels, Pythagorean in voxel units."""
    v = VOXEL_16
    frame = [([1, 1, 1], 1), ([15, 15, 15], 1)]  # pins the grid to [0, 1]
    unit = [((i, j, k), 1) for i in (2, 5, 8, 11, 14) for j in (2, 5, 8, 11, 14) for k in (2, 5, 8, 11, 14)]
    three = [((i, j, k), 3) for i in (4, 8, 12) for j in (4, 8, 12) for k in (4, 8, 12)]
    wide = [((8, 8, 8), 5), ((6, 7, 9), 5), ((5.5, 8, 8), 2.5), ((9, 4.5, 10), 2.5)]
    spheres = frame + unit + three + wide
    centers = np.array([c for c, _ in spheres], dtype=np.float64) * v
    radii = np.array([r for _, r in spheres], dtype=np.float64) * v
    return centers, radii


def assert_pairs_match_brute_force(surf, pts):
    rows, cells, r = surf._pairs(pts)
    dist = np.linalg.norm(pts[:, None, :] - surf.centers[None, :, :], axis=2)
    want_rows, want_cells = np.nonzero(dist < surf.radii[None, :])
    # same pairs in the same order (by point, then ascending cell), so the
    # blend's sums are accumulated in one fixed order
    assert np.array_equal(rows, want_rows)
    assert np.array_equal(cells, want_cells)
    assert np.array_equal(r, dist[want_rows, want_cells])
    return want_rows


def test_cell_index_pairs_match_brute_force():
    # every sphere, however wide, must be found through the one grid
    centers, radii = mixed_spheres()
    surf = sphere_set_surface(centers, radii)
    assert np.all(radii[300:] > 8.0 * surf.index.voxel)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.5, 2.5, (3000, 3))
    grid_hi = surf.index.lo + surf.index.voxel * surf.index.dims
    outside = np.any((pts < surf.index.lo) | (pts >= grid_hi), axis=1)
    assert outside.sum() >= 100
    want_rows = assert_pairs_match_brute_force(surf, pts)
    # the grid spans every sphere's box, so no sphere holds a point outside it
    assert not np.any(outside[want_rows])

    # queries on voxel faces, edges and corners, exactly and one ulp off,
    # against spheres whose surfaces pass through voxel corners
    surf = sphere_set_surface(*corner_spheres())
    assert np.array_equal(surf.index.lo, np.zeros(3))
    assert surf.index.voxel == VOXEL_16 and np.array_equal(surf.index.dims, [16, 16, 16])
    ticks = np.arange(33) * (VOXEL_16 / 2.0)  # corners, edge midpoints, face centers
    lattice = np.stack(np.meshgrid(ticks, ticks, ticks, indexing="ij"), axis=-1).reshape(-1, 3)
    nodes = lattice[np.all(np.isin(lattice, ticks[::2]), axis=1)]
    pts = np.concatenate([lattice, np.nextafter(nodes, -np.inf), np.nextafter(nodes, np.inf)])
    on_surface = np.abs(
        np.linalg.norm(nodes[:, None, :] - surf.centers[None], axis=2) - surf.radii[None]
    ) == 0.0
    assert on_surface.sum() >= 500
    assert_pairs_match_brute_force(surf, pts)


@pytest.mark.parametrize("scale", [1e-6, 1e6])
def test_pair_prefilter_matches_brute_force_far_from_unit_scale(scale):
    # the exact r < R test must hold at any scale: voxel corners on sphere
    # surfaces, exactly and one ulp off, with the whole set shrunk or
    # blown up
    centers, radii = corner_spheres()
    surf = sphere_set_surface(centers * scale, radii * scale)
    ticks = np.arange(17) * (VOXEL_16 * scale)
    nodes = np.stack(np.meshgrid(ticks, ticks, ticks, indexing="ij"), axis=-1).reshape(-1, 3)
    pts = np.concatenate([nodes, np.nextafter(nodes, -np.inf), np.nextafter(nodes, np.inf)])
    assert len(assert_pairs_match_brute_force(surf, pts)) > 0


def test_pair_prefilter_matches_brute_force_one_ulp_from_surfaces():
    # points one ulp (per coordinate) inside and outside random sphere
    # surfaces: their distances straddle R by a few ulp, and the exact
    # r < R test must decide them as the brute force does
    centers, radii = mixed_spheres()
    surf = sphere_set_surface(centers, radii)
    rng = np.random.default_rng(29)
    pick = rng.integers(len(centers), size=2000)
    u = rng.normal(size=(2000, 3))
    u /= np.linalg.norm(u, axis=1)[:, None]
    on = centers[pick] + radii[pick, None] * u
    inward = np.where(u > 0.0, -np.inf, np.inf)
    pts = np.concatenate([np.nextafter(on, inward), np.nextafter(on, -inward)])
    assert_pairs_match_brute_force(surf, pts)
    r = np.linalg.norm(pts - np.tile(centers[pick], (2, 1)), axis=1)
    big_r = np.tile(radii[pick], 2)
    near = np.abs(r - big_r) <= 64 * np.spacing(big_r)
    assert np.sum(near & (r < big_r)) >= 500 and np.sum(near & (r >= big_r)) >= 500


def test_pair_prefilter_keeps_spheres_whose_square_underflows():
    # R * R of these radii rounds to 0 or to a subnormal; a test on that
    # square would drop points that r < R keeps
    centers, radii = mixed_spheres()
    tiny = np.array([1e-170, 1e-160])
    assert tiny[0] * tiny[0] == 0.0 and tiny[1] * tiny[1] < np.finfo(np.float64).tiny
    surf = sphere_set_surface(np.vstack([centers, np.zeros((2, 3))]), np.concatenate([radii, tiny]))
    steps = np.array([0.0, 0.25, 0.5, 0.999, 1.0, 1.5, 3.0])
    axes = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
    pts = (steps[:, None, None, None] * tiny[None, :, None, None] * axes[None, None]).reshape(-1, 3)
    assert_pairs_match_brute_force(surf, pts)
    _, cells, _ = surf._pairs(pts)
    assert np.sum(cells == len(radii)) >= 4 and np.sum(cells == len(radii) + 1) >= 4


@pytest.mark.parametrize("spheres", [mixed_spheres, corner_spheres])
def test_cell_index_lists_the_voxels_each_ball_reaches(spheres):
    # a sphere is listed in a voxel exactly when its ball reaches the voxel:
    # every voxel at gap < radius, none past a rounding margin (far below
    # the gap of a box corner), each voxel's cells ascending
    centers, radii = spheres()
    index = sphere_set_surface(centers, radii).index
    n_vox = int(np.prod(index.dims))
    entry_vox = np.repeat(np.arange(n_vox), np.diff(index.csr_start))
    assert np.all((np.diff(index.csr_cells) > 0) | (np.diff(entry_vox) > 0))
    listed = index.csr_cells.astype(np.int64) * n_vox + entry_vox

    must, may = [], []
    margin = 1e-6 * index.voxel
    for i, (c, r) in enumerate(zip(centers, radii)):
        lo = np.clip(np.floor((c - r - index.lo) / index.voxel).astype(int), 0, index.dims - 1)
        hi = np.clip(np.floor((c + r - index.lo) / index.voxel).astype(int), 0, index.dims - 1)
        gaps = []
        for axis in range(3):
            face = index.lo[axis] + np.arange(lo[axis], hi[axis] + 1) * index.voxel
            gaps.append(np.maximum(np.maximum(face - c[axis], c[axis] - face - index.voxel), 0.0))
        gap = np.sqrt(gaps[0][:, None, None] ** 2 + gaps[1][None, :, None] ** 2 + gaps[2][None, None, :] ** 2)
        ax, ay, az = np.meshgrid(*(np.arange(lo[a], hi[a] + 1) for a in range(3)), indexing="ij")
        key = i * n_vox + (ax * index.dims[1] + ay) * index.dims[2] + az
        must.append(key[gap < r])
        may.append(key[gap < r + margin])
    must, may = np.concatenate(must), np.concatenate(may)
    assert np.all(np.isin(must, listed))
    assert np.all(np.isin(listed, may))


# -- field evaluation ----------------------------------------------------------


def test_eval_planar_zero_on_plane(plane_surface):
    rng = np.random.default_rng(7)
    pts = np.column_stack([rng.uniform(-0.9, 0.9, 64), rng.uniform(-0.9, 0.9, 64), np.zeros(64)])
    assert np.max(np.abs(plane_surface.eval_many(pts))) <= 1e-9


def test_eval_plane_sign_convention(plane_surface):
    above, below = plane_surface.eval_many(np.array([[0.0, 0.0, 0.3], [0.0, 0.0, -0.3]]))
    assert above > 0.0
    assert below < 0.0


def test_eval_sphere_signs(sphere_surface_320):
    inside, outside, far = sphere_surface_320.eval_many(
        np.array([[0.0, 0.0, 0.9], [0.0, 0.0, 1.1], [0.0, 0.0, 2.0]])
    )
    assert inside < 0.0
    assert outside > 0.0
    assert np.isnan(far)  # outside every sphere


def test_partition_of_unity_reproduces_shared_affine():
    # every cell of a flat grid fits exactly s(x) = z - 0.4, so the blend
    # must return that same affine no matter how many cells overlap
    z = 0.4
    surf = build_surface(plane_grid_mesh(n=8, z=z))
    assert surf.diagnostics["cells"] >= 2
    rng = np.random.default_rng(11)
    pts = np.column_stack(
        [
            rng.uniform(-0.9, 0.9, 400),
            rng.uniform(-0.9, 0.9, 400),
            rng.uniform(z - 0.2, z + 0.2, 400),
        ]
    )
    probe = surf.eval_many(pts)
    covered = ~np.isnan(probe)
    assert covered.sum() >= 50
    assert np.max(np.abs(probe[covered] - (pts[covered, 2] - z))) <= 1e-12


def test_vertex_residuals_within_five_epsilon(sphere_mesh_320, sphere_surface_320):
    f = sphere_surface_320.eval_many(sphere_mesh_320.vertices)
    assert np.max(np.abs(f)) <= 5.0 * sphere_surface_320.epsilon


def test_larger_epsilon_smooths_the_crease_more():
    mesh = roof_mesh(n=4)
    crease = np.array([[0.0, 0.3, 0.0], [0.0, 0.5, 0.0], [0.0, 0.7, 0.0]])
    residuals = []
    for eps in (0.005, 0.02, 0.08, 0.3):
        surf = build_surface(mesh, FitConfig(epsilon=eps))
        residuals.append(float(np.max(np.abs(surf.eval_many(crease)))))
    for lo, hi in zip(residuals, residuals[1:]):
        assert hi >= lo - 1e-12
    assert residuals[-1] > residuals[0]


def test_field_is_nan_outside_every_sphere(sphere_surface_320):
    # the blend is defined only where some sphere strictly holds the point;
    # covered points keep their values whatever else shares the call
    surf = sphere_surface_320
    covered = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.97], [0.3, -0.2, 0.9]])
    outside = np.array([[10.0, 0.0, 0.0], [0.0, -7.0, 3.0], [5.0, 5.0, 5.0], [0.0, 0.0, 0.0]])
    assert all(brute_force_coverage_gap(p[None], surf) >= 0.0 for p in outside)
    mixed = np.vstack([covered[:2], outside, covered[2:]])
    at = [0, 1, len(mixed) - 1]
    f, g = surf.eval_many(mixed), surf.gradient_many(mixed)
    assert np.all(np.isnan(np.delete(f, at)))
    assert np.all(np.isnan(np.delete(g, at, axis=0)))
    assert np.array_equal(f[at], surf.eval_many(covered))
    assert np.array_equal(g[at], surf.gradient_many(covered))
    assert np.all(np.isfinite(f[at])) and np.all(np.isfinite(g[at]))


def test_field_calls_are_batch_independent(sphere_surface_320):
    # a point's value and gradient must not depend on the other points of
    # its call: the scanner's march evaluates whichever rays are still
    # active, in batches of every size
    rng = np.random.default_rng(31)
    u = rng.normal(size=(400, 3))
    pts = u / np.linalg.norm(u, axis=1)[:, None] * rng.uniform(0.0, 2.5, (400, 1))
    assert np.any(np.isnan(sphere_surface_320.eval_many(pts)))
    calls = [sphere_surface_320.eval_many, sphere_surface_320.gradient_many]
    splits = [np.arange(1, 400)]  # one point per call
    splits += [np.sort(rng.choice(np.arange(1, 400), size=k, replace=False)) for k in (1, 5, 40)]
    for call in calls:
        whole = call(pts)
        for cuts in splits:
            parts = np.concatenate([call(part) for part in np.split(pts, cuts)])
            assert np.array_equal(parts, whole, equal_nan=True)


def test_shape_values_sum_in_einsums_order():
    # `ImplicitSurface._blend` writes <p, n> out as (x x' + z z') + y y', the
    # order in which numpy's einsum("ij,ij->i") sums three products, so the
    # field kept its einsum bits.  On a numpy that sums in another order
    # this fails, instead of every scan digest moving unnoticed.
    rng = np.random.default_rng(41)

    def rows(m):
        return rng.normal(size=(m, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, (m, 1))

    cases = [(rows(m), rows(m)) for m in range(1, 71)]
    # gathered (row, cell) pairs, as the blend takes them
    points, normals = rows(2000), rows(500)
    cases.append((points[rng.integers(2000, size=300_000)], normals[rng.integers(500, size=300_000)]))
    for a, b in cases:
        (ax, ay, az), (bx, by, bz) = implicit._axes(a), implicit._axes(b)
        s = ax * bx + az * bz
        s += ay * by
        assert np.array_equal(s, np.einsum("ij,ij->i", a, b))


def einsum_blend(surf, points):
    """Reference: the blend's values and gradients with <p, n> an einsum."""
    n = len(points)
    rows, cells, r = surf._pairs(points)
    radii = surf.radii[cells]
    u = r / radii
    inner = u <= (1.0 / 3.0)
    q = np.where(inner, 0.75 - 2.25 * u * u, 1.125 * (1.0 - u) ** 2)
    s = np.einsum("ij,ij->i", points[rows], surf.normals[cells]) - surf.offsets[cells]
    num = np.bincount(rows, weights=q * s, minlength=n)
    den = np.bincount(rows, weights=q, minlength=n)
    covered = den > 0.0
    den_safe = np.where(covered, den, 1.0)
    f = np.where(covered, num / den_safe, np.nan)
    safe_r = np.where(r == 0.0, 1.0, r)
    gq_scale = np.where(inner, -4.5 / (radii * radii), -2.25 * (1.0 - u) / (radii * safe_r))
    grad_q = gq_scale[:, None] * (points[rows] - surf.centers[cells])
    grad_num, grad_den = np.zeros((n, 3)), np.zeros((n, 3))
    for d in range(3):
        grad_num[:, d] = np.bincount(rows, weights=grad_q[:, d] * s + q * surf.normals[cells, d], minlength=n)
        grad_den[:, d] = np.bincount(rows, weights=grad_q[:, d], minlength=n)
    grad = (grad_num * den_safe[:, None] - num[:, None] * grad_den) / (den_safe**2)[:, None]
    grad[~covered] = np.nan
    return f, grad


def test_field_has_the_bits_of_the_einsum_blend(sphere_surface_320):
    rng = np.random.default_rng(43)
    u = rng.normal(size=(20_000, 3))
    pts = u / np.linalg.norm(u, axis=1)[:, None] * rng.uniform(0.0, 1.5, (20_000, 1))
    f, grad = einsum_blend(sphere_surface_320, pts)
    assert 0 < np.count_nonzero(np.isnan(f)) < len(pts) // 4
    assert np.array_equal(sphere_surface_320.eval_many(pts), f, equal_nan=True)
    assert np.array_equal(sphere_surface_320.gradient_many(pts), grad, equal_nan=True)


# -- gradients ----------------------------------------------------------------------


def test_gradient_planar_parallel_to_normal(plane_surface):
    rng = np.random.default_rng(3)
    pts = np.column_stack(
        [rng.uniform(-0.9, 0.9, 32), rng.uniform(-0.9, 0.9, 32), rng.uniform(-0.05, 0.05, 32)]
    )
    pts = np.vstack([pts, [[40.0, 0.0, 0.0]]])  # outside every sphere
    g = plane_surface.gradient_many(pts)
    assert np.all(np.isnan(g[-1]))
    unit = g[:-1] / np.linalg.norm(g[:-1], axis=1, keepdims=True)
    assert np.min(unit[:, 2]) >= 1.0 - 1e-9


def test_gradient_sphere_is_radial(sphere_surface):
    g = sphere_surface.gradient_many(np.array([[0.0, 0.0, 1.0]]))[0]
    cos = g[2] / np.linalg.norm(g)
    assert cos >= np.cos(np.radians(2.0))


def test_gradient_matches_central_differences(sphere_surface):
    rng = np.random.default_rng(19)
    dirs = rng.normal(size=(200, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts = dirs * rng.uniform(0.97, 1.03, 200)[:, None]
    covered = ~np.isnan(sphere_surface.eval_many(pts))
    pts = pts[covered]
    assert len(pts) >= 150
    h = 1e-5 * sphere_surface.bbox_diagonal()
    fd = np.empty((len(pts), 3))
    for d in range(3):
        step = np.zeros(3)
        step[d] = h
        fd[:, d] = (
            sphere_surface.eval_many(pts + step) - sphere_surface.eval_many(pts - step)
        ) / (2.0 * h)
    g = sphere_surface.gradient_many(pts)
    norms = np.linalg.norm(g, axis=1)
    mask = norms > 1e-6
    rel = np.linalg.norm(g[mask] - fd[mask], axis=1) / np.linalg.norm(fd[mask], axis=1)
    assert np.max(rel) <= 1e-4


# -- cache ----------------------------------------------------------------------------


def test_surface_cache_round_trip(tmp_path, sphere_surface_320):
    path = tmp_path / "sphere.mpuf"
    save_surface(sphere_surface_320, path)
    back = load_surface(path)
    assert np.array_equal(back.centers, sphere_surface_320.centers)
    assert np.array_equal(back.radii, sphere_surface_320.radii)
    assert np.array_equal(back.normals, sphere_surface_320.normals)
    assert np.array_equal(back.offsets, sphere_surface_320.offsets)
    assert back.epsilon == sphere_surface_320.epsilon
    assert np.array_equal(back.bbox_lo, sphere_surface_320.bbox_lo)
    assert np.array_equal(back.bbox_hi, sphere_surface_320.bbox_hi)
    pts = np.array([[0.0, 0.0, 1.0], [0.3, -0.2, 0.9], [4.0, 0.0, 0.0]])
    f = back.eval_many(pts)
    assert np.isnan(f[2])  # outside every sphere
    assert np.array_equal(f, sphere_surface_320.eval_many(pts), equal_nan=True)


def test_surface_cache_rejects_corruption(tmp_path, sphere_surface_320):
    path = tmp_path / "sphere.mpuf"
    save_surface(sphere_surface_320, path)
    blob = path.read_bytes()

    bad_magic = tmp_path / "magic.mpuf"
    bad_magic.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(SurfaceCacheError):
        load_surface(bad_magic)

    truncated = tmp_path / "short.mpuf"
    truncated.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(SurfaceCacheError, match="truncated"):
        load_surface(truncated)

    stub = tmp_path / "stub.mpuf"
    stub.write_bytes(blob[:20])
    with pytest.raises(SurfaceCacheError):
        load_surface(stub)

    for version in (1, 2, 999):
        bad_version = tmp_path / "version.mpuf"
        bad_version.write_bytes(blob[:4] + struct.pack("<I", version) + blob[8:])
        with pytest.raises(SurfaceCacheError, match="version"):
            load_surface(bad_version)


@pytest.mark.parametrize("fault", CACHE_FAULTS)
def test_surface_cache_refuses_a_bad_value_or_length(tmp_path, sphere_surface_320, fault):
    # each is refused whole, as a SurfaceCacheError: the pipeline refits on it
    path = tmp_path / "sphere.mpuf"
    save_surface(sphere_surface_320, path, bytes(range(32)))
    path.write_bytes(damaged_cache(path.read_bytes(), fault))
    with pytest.raises(SurfaceCacheError, match=CACHE_FAULTS[fault]):
        load_surface(path, bytes(range(32)))


def test_surface_cache_key(tmp_path, sphere_surface_320):
    mesh = triangle_soup([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    key = surface_key(mesh, FitConfig())
    assert len(key) == 32
    assert surface_key(triangle_soup([[0, 0, 0], [1, 0, 0], [0, 1, 0]]), FitConfig()) == key
    # the key reads the arrays the fit reads, bit for bit, not their text
    nudged = triangle_soup([[0, 0, 0], [np.nextafter(1.0, 2.0), 0, 0], [0, 1, 0]])
    assert surface_key(nudged, FitConfig()) != key
    assert surface_key(TriangleMesh(mesh.vertices, [[0, 2, 1]]), FitConfig()) != key
    assert surface_key(mesh, FitConfig(epsilon=0.01)) != key

    path = tmp_path / "keyed.mpuf"
    save_surface(sphere_surface_320, path, key)
    assert np.array_equal(load_surface(path, key).centers, sphere_surface_320.centers)
    assert np.array_equal(load_surface(path).centers, sphere_surface_320.centers)
    with pytest.raises(SurfaceCacheError, match="key"):
        load_surface(path, surface_key(mesh, FitConfig(epsilon=0.01)))
    unkeyed = tmp_path / "unkeyed.mpuf"
    save_surface(sphere_surface_320, unkeyed)
    with pytest.raises(SurfaceCacheError, match="key"):
        load_surface(unkeyed, key)
    # the key sits in the header; the cell arrays are written as before
    assert path.read_bytes()[40:] == unkeyed.read_bytes()[40:]


def test_surface_key_hashes_the_octree_constants_as_config_fields(monkeypatch):
    # the key hashes the vertex count and the mesh arrays, then the fit
    # config with the octree's constants under their old field names; a
    # change to a constant changes the key, so every cache fitted under it refits
    mesh = triangle_soup([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    old = {"epsilon": None, "max_depth": 10, "max_triangles_per_cell": 32, "sphere_radius_scale": 1.0}
    arrays = struct.pack("<Q", 3) + mesh.vertices.tobytes() + mesh.triangles.tobytes()
    key = surface_key(mesh, FitConfig())
    assert key == hashlib.sha256(arrays + json.dumps(old, sort_keys=True).encode("utf-8")).digest()
    for name, value in (("max_depth", 9), ("max_triangles_per_cell", 16), ("sphere_radius_scale", 0.8)):
        with monkeypatch.context() as patch:
            set_octree(patch, **{name: value})
            assert surface_key(mesh, FitConfig()) != key, name
