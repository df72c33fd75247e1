"""Geometry kernels against closed forms and a sampling oracle."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial import cKDTree

from treescan import geometry
from treescan.cloud import PointCloud
from treescan.degrade import UnevenParams, uneven_density
from treescan.geometry import (
    dist_points_to_triangles,
    least_aligned_axis,
    normalize,
    perpendicular_frame,
    principal_axes,
    rotate_align,
    tree_order_neighbours,
    triangle_areas_normals,
)

finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
vec3 = arrays(np.float64, 3, elements=finite)


def sampled_triangle_min_distance(p, v0, v1, v2, grid=160):
    """Oracle: min distance over a dense barycentric grid.

    Always an upper bound on the true distance; its error is bounded by the
    grid spacing times the longest edge.
    """
    i, j = np.meshgrid(np.arange(grid + 1), np.arange(grid + 1), indexing="ij")
    keep = (i + j) <= grid
    a = i[keep] / grid
    b = j[keep] / grid
    c = 1.0 - a - b
    pts = a[:, None] * v0 + b[:, None] * v1 + c[:, None] * v2
    return float(np.min(np.linalg.norm(pts - p, axis=1)))


def test_triangle_distance_closed_forms():
    v0 = np.array([0.0, 0.0, 0.0])
    v1 = np.array([2.0, 0.0, 0.0])
    v2 = np.array([0.0, 2.0, 0.0])
    cases = [
        (np.array([0.5, 0.5, 3.0]), 3.0),  # above the interior
        (np.array([-1.0, -1.0, 0.0]), np.sqrt(2.0)),  # beyond vertex A
        (np.array([3.0, -1.0, 0.0]), np.sqrt(2.0)),  # beyond vertex B
        (np.array([1.0, -2.0, 0.0]), 2.0),  # beyond edge AB
        (np.array([0.25, 0.25, 0.0]), 0.0),  # on the face
        (np.array([2.0, 2.0, 0.0]), np.sqrt(2.0)),  # beyond edge BC
    ]
    p = np.array([c[0] for c in cases])
    want = np.array([c[1] for c in cases])
    n = len(cases)
    got = dist_points_to_triangles(p.T, *(np.tile(v[:, None], (1, n)) for v in (v0, v1, v2)))
    assert np.allclose(got, want, atol=1e-12)


@settings(max_examples=40)
@given(vec3, vec3, vec3, vec3)
def test_triangle_distance_matches_sampling_oracle(p, v0, v1, v2):
    edges = max(
        np.linalg.norm(v1 - v0), np.linalg.norm(v2 - v0), np.linalg.norm(v2 - v1)
    )
    got = float(dist_points_to_triangles(p[:, None], v0[:, None], v1[:, None], v2[:, None])[0])
    upper = sampled_triangle_min_distance(p, v0, v1, v2)
    assert got >= -1e-12
    assert got <= upper + 1e-9
    assert upper - got <= edges / 160 + 1e-9


@settings(max_examples=40)
@given(vec3, vec3, vec3, st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_points_on_triangle_have_zero_distance(v0, v1, v2, a, b):
    # the closest-point routine promises exact containment only for proper
    # triangles; collapsed ones are covered by the finiteness test below
    area = 0.5 * np.linalg.norm(np.cross(v1 - v0, v2 - v0))
    assume(area > 1e-6)
    if a + b > 1.0:
        a, b = 1.0 - a, 1.0 - b
    p = a * v0 + b * v1 + (1.0 - a - b) * v2
    d = float(dist_points_to_triangles(p[:, None], v0[:, None], v1[:, None], v2[:, None])[0])
    scale = 1.0 + max(np.abs([v0, v1, v2]).max(), np.abs(p).max())
    assert d <= 1e-9 * scale


# (point, v0, v1, v2) collapsed to a segment, to a point, and with A == B
DEGENERATE_CASES = [
    ([0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [1.0, 0.0, 0.0]),
    ([3.0, 4.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
    ([0.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]),
]


def test_degenerate_triangle_distance_is_finite():
    # must not blow up or go NaN; with A == B the triangle is the segment
    # AC, and the point projects inside it
    p, v0, v1, v2 = (np.array(c).T for c in zip(*DEGENERATE_CASES))
    seg, pt, ac = dist_points_to_triangles(p, v0, v1, v2)
    assert np.isclose(seg, 1.0)
    assert np.isclose(pt, 5.0)
    assert np.isclose(ac, np.sqrt(2.0 / 3.0))


def test_collinear_triangles_read_the_distance_to_their_segment():
    # exactly collinear triangles, the third vertex on the line through the
    # first two: the triangle is the segment its extreme vertices span, and
    # its nearest point is p's projection on the line, clipped to it.  The
    # face formula read more than that on 3,041 of these 200,000 cases, by
    # up to 1.37
    rng = np.random.default_rng(0)
    n = 200_000
    a = rng.uniform(-1.0, 1.0, (3, n))
    b = rng.uniform(-1.0, 1.0, (3, n))
    t = rng.uniform(-0.5, 1.5, n)
    c = a + t * (b - a)
    p = rng.uniform(-2.0, 2.0, (3, n))
    assert np.all(geometry.flat_triangles(a, b, c))
    ab = b - a
    s = np.clip(np.sum((p - a) * ab, axis=0) / np.sum(ab * ab, axis=0), np.minimum(0.0, t), np.maximum(1.0, t))
    want = np.linalg.norm(p - (a + s * ab), axis=0)
    got = dist_points_to_triangles(p, a, b, c)
    assert np.abs(got - want).max() <= 1e-12


def test_only_flat_triangles_leave_the_face_formula():
    # the swept meshes' flattest triangle has area / longest edge^2 = 0.0127;
    # the test is set far below it, and a triangle is flat by its corners alone
    v0 = np.zeros((3, 4))
    v1 = np.tile([[1.0], [0.0], [0.0]], 4)
    v2 = np.array([[0.5, 0.5, 0.5, 0.5], [0.0127, 1e-9, 1e-12, 0.0], [0.0, 0.0, 0.0, 0.0]])
    # areas 0.00635, 5e-10, 5e-13, 0 of a unit longest edge
    assert geometry.flat_triangles(v0, v1, v2).tolist() == [False, False, True, True]


def scalar_triangle_distance(p, a, b, c):
    """Ericson's routine for one pair in plain Python floats: (region,
    distance, p minus the closest point).

    Regions in claim order: vertices A, B, C (0-2), edges AB, AC, BC (3-5),
    face (6).  Every sum is written out as x + y + z, as the kernel's are.
    """

    def sub(u, v):
        return [u[0] - v[0], u[1] - v[1], u[2] - v[2]]

    def dot(u, v):
        return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]

    def along(o, t, e):
        return [o[0] + t * e[0], o[1] + t * e[1], o[2] + t * e[2]]

    ab, ac = sub(b, a), sub(c, a)
    ap, bp, cp = sub(p, a), sub(p, b), sub(p, c)
    d1, d2 = dot(ab, ap), dot(ac, ap)
    d3, d4 = dot(ab, bp), dot(ac, bp)
    d5, d6 = dot(ab, cp), dot(ac, cp)
    va = d3 * d6 - d5 * d4
    vb = d5 * d2 - d1 * d6
    vc = d1 * d4 - d3 * d2
    if d1 <= 0.0 and d2 <= 0.0:
        region, q = 0, a
    elif d3 >= 0.0 and d4 <= d3:
        region, q = 1, b
    elif d6 >= 0.0 and d5 <= d6:
        region, q = 2, c
    elif vc <= 0.0 and d1 >= 0.0 and d3 <= 0.0 and d1 != d3:
        region, q = 3, along(a, d1 / (d1 - d3), ab)
    elif vb <= 0.0 and d2 >= 0.0 and d6 <= 0.0:
        den = d2 - d6
        region, q = 4, along(a, d2 / (den if den != 0.0 else 1.0), ac)
    elif va <= 0.0 and (d4 - d3) >= 0.0 and (d5 - d6) >= 0.0:
        num = d4 - d3
        den = num + (d5 - d6)
        region, q = 5, along(b, num / (den if den != 0.0 else 1.0), sub(c, b))
    else:
        den = va + vb + vc
        den = den if den != 0.0 else 1.0
        region, q = 6, along(along(a, vb / den, ab), vc / den, ac)
    dx, dy, dz = sub(p, q)
    return region, math.sqrt(dx * dx + dy * dy + dz * dz), [dx, dy, dz]


def test_triangle_distance_is_the_scalar_routine_bit_for_bit():
    # pins the kernel's arithmetic order: each distance, region by region,
    # and each p minus the closest point equal the scalar routine's exactly.
    # The degenerate cases are flat, so the kernel takes them as their
    # edges; on these three that gives the scalar routine's bits too
    rng = np.random.default_rng(5)
    pts = rng.uniform(-2.0, 2.0, (3000, 3)).tolist()
    corners = rng.uniform(-1.0, 1.0, (3, 3000, 3)).tolist()
    cases = [*zip(pts, *corners), *DEGENERATE_CASES]
    p, v0, v1, v2 = (np.array(c).T for c in zip(*cases))
    diff = np.empty_like(p)
    got = dist_points_to_triangles(p, v0, v1, v2, diff=diff)
    regions, want, want_diff = zip(*(scalar_triangle_distance(*case) for case in cases))
    assert set(regions) == set(range(7))
    assert np.array_equal(got, np.array(want))
    assert np.array_equal(diff, np.array(want_diff).T)
    # the output leaves the distances as they are without it
    assert np.array_equal(dist_points_to_triangles(p, v0, v1, v2), got)


def test_normalize_units_and_zero_passthrough():
    v = np.array([[3.0, 4.0, 0.0], [0.0, 0.0, 0.0]])
    out = normalize(v)
    assert np.allclose(out[0], [0.6, 0.8, 0.0])
    assert np.array_equal(out[1], [0.0, 0.0, 0.0])


def test_least_aligned_axis_picks_smallest_component():
    assert np.array_equal(least_aligned_axis(np.array([0.9, 0.1, 0.4])), [0, 1, 0])
    assert np.array_equal(least_aligned_axis(np.array([0.0, 0.0, 1.0])), [1, 0, 0])


@settings(max_examples=40)
@given(vec3)
def test_perpendicular_frame_is_right_handed(d):
    n = np.linalg.norm(d)
    if n < 1e-6:
        return
    d = d / n
    u, v = perpendicular_frame(d)
    assert abs(np.dot(u, d)) < 1e-12
    assert abs(np.dot(v, d)) < 1e-12
    assert abs(np.linalg.norm(u) - 1.0) < 1e-12
    assert np.allclose(np.cross(u, v), d, atol=1e-12)


@settings(max_examples=40)
@given(vec3, vec3)
def test_rotate_align_preserves_angle_to_direction(a, b):
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na < 1e-6 or nb < 1e-6:
        return
    a, b = a / na, b / nb
    u, _ = perpendicular_frame(a)
    u2 = rotate_align(u, a, b)
    assert abs(np.linalg.norm(u2) - 1.0) < 1e-9
    assert abs(np.dot(u2, b)) < 1e-9  # stays perpendicular to the new direction


def test_rotate_align_identity_and_flip():
    d = np.array([0.0, 0.0, 1.0])
    u = np.array([1.0, 0.0, 0.0])
    assert np.array_equal(rotate_align(u, d, d), u)
    flipped = rotate_align(u, d, -d)
    assert abs(np.linalg.norm(flipped) - 1.0) < 1e-12
    assert abs(np.dot(flipped, d)) < 1e-12


def test_triangle_areas_normals_reference_triangle():
    v0 = np.array([[0.0, 0.0, 0.0]])
    v1 = np.array([[1.0, 0.0, 0.0]])
    v2 = np.array([[0.0, 1.0, 0.0]])
    areas, normals = triangle_areas_normals(v0, v1, v2)
    assert np.isclose(areas[0], 0.5)
    assert np.allclose(normals[0], [0.0, 0.0, 1.0])
    # degenerate triangle: zero area, normal left unnormalized but finite
    areas, normals = triangle_areas_normals(v0, v0, v2)
    assert areas[0] == 0.0
    assert np.all(np.isfinite(normals))


def ragged_neighbourhoods(seed=3, m=40):
    """A cloud and CSR neighbourhoods of 1 to 30 points, some repeating indices."""
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(200, 3)) * [1.0, 0.3, 0.01]
    sizes = rng.integers(1, 31, m)
    neighbours = rng.integers(0, len(points), sizes.sum())
    return points, neighbours, np.cumsum(sizes) - sizes


def test_principal_axes_match_per_neighbourhood_eigh():
    points, neighbours, starts = ragged_neighbourhoods()
    centroids, eigvals, eigvecs = principal_axes(points, neighbours, starts)
    for j, part in enumerate(np.split(neighbours, starts[1:])):
        neigh = points[part]
        centered = neigh - neigh.mean(axis=0)
        vals, vecs = np.linalg.eigh(centered.T @ centered / len(part))
        assert np.allclose(centroids[j], neigh.mean(axis=0), rtol=0.0, atol=1e-12)
        assert np.allclose(eigvals[j], vals, rtol=0.0, atol=1e-12)
        # eigenvectors up to sign, where the eigenvalue is simple
        for col in range(3):
            gaps = np.abs(vals - vals[col])
            if np.all(np.delete(gaps, col) > 1e-6):
                assert abs(abs(eigvecs[j, :, col] @ vecs[:, col]) - 1.0) < 1e-12
    assert np.allclose(np.linalg.norm(eigvecs, axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("budget", [1, 7])
def test_principal_axes_chunking_is_bit_identical(monkeypatch, budget):
    # budgets below most neighbourhoods' sizes: one neighbourhood a batch
    points, neighbours, starts = ragged_neighbourhoods(seed=4, m=30)
    whole = principal_axes(points, neighbours, starts)
    monkeypatch.setattr(geometry, "_PCA_ENTRIES", budget)
    for a, b in zip(whole, principal_axes(points, neighbours, starts)):
        assert np.array_equal(a, b)


def test_usable_cores_counts_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(geometry.os, "sched_getaffinity", lambda pid: {3, 5}, raising=False)
    assert geometry.usable_cores() == 2


QUERY_SPLITS = [
    pytest.param(1, None, id="1"),
    pytest.param(2, None, id="2"),
    pytest.param(None, 1, id="1-row"),
    pytest.param(None, 7, id="7-rows"),
]


@pytest.mark.parametrize("threads, budget", QUERY_SPLITS)
def test_tree_order_balls_are_the_lone_queries(monkeypatch, threads, budget):
    points = np.random.default_rng(6).random((3000, 3))
    where = points[:, 0] < 0.4
    cloud = PointCloud(points, normalize(points - 0.5))
    params = UnevenParams(region=((0.0, 0.0, 0.0), (0.4, 1.0, 1.0)), r=0.08, seed=2)
    want_diagnostics = {}
    want = uneven_density(cloud, params, want_diagnostics)
    if threads is not None:
        monkeypatch.setattr(geometry, "_query_threads", threads)
    if budget is not None:
        monkeypatch.setattr(geometry, "_QUERY_ROWS", budget)
    chunks = list(tree_order_neighbours(points, r=0.08, where=where))
    assert all(len(rows) == len(balls) <= geometry._QUERY_ROWS for rows, balls in chunks)
    rows = np.concatenate([rows for rows, _ in chunks])
    assert np.array_equal(np.sort(rows), np.flatnonzero(where))
    tree = cKDTree(points)
    for i, ball in zip(rows, (ball for _, balls in chunks for ball in balls)):
        # member order feeds the PCA sums, so it must be the lone query's
        assert list(ball) == tree.query_ball_point(points[i], 0.08, return_sorted=False)
    diagnostics = {}
    got = uneven_density(cloud, params, diagnostics)
    assert np.array_equal(got.points, want.points)
    assert np.array_equal(got.normals, want.normals)
    assert diagnostics == want_diagnostics
