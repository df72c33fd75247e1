"""Virtual scanning: viewpoints, ray marching, merging, and normal recovery."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components, minimum_spanning_tree
from scipy.spatial import cKDTree

from treescan import FitConfig, build_surface, geometry, scanner, sweep_mesh
from treescan.cloud import PointCloud
from treescan.degrade import density_variants
from treescan.errors import (
    InvalidParameterError,
    MissingNormalsError,
    TooFewPointsError,
)
from treescan.geometry import neighbour_distances, principal_axes
from treescan.implicit import ImplicitSurface
from treescan.scanner import (
    ScanConfig,
    estimate_normals,
    orient_normals,
    scan_surface,
    scan_view,
    viewpoints,
)

from .conftest import diagonal_feature, fibonacci_sphere, make_cylinder_skeleton

UNIT_BOX = (np.array([-1.0, -1.0, -1.0]), np.array([1.0, 1.0, 1.0]))


def angles_between_rows(d):
    dots = np.clip(d @ d.T, -1.0, 1.0)
    return np.degrees(np.arccos(dots))


# -- viewpoints ------------------------------------------------------------------


def test_two_viewpoints_are_antipodal():
    a, b = viewpoints(UNIT_BOX, 2)
    assert np.linalg.norm(a.position + b.position) <= 1e-9


def test_six_viewpoints_spread_out():
    poses = viewpoints(UNIT_BOX, 6)
    dirs = np.array([p.position / np.linalg.norm(p.position) for p in poses])
    ang = angles_between_rows(dirs)
    np.fill_diagonal(ang, 180.0)
    assert ang.min() >= 40.0


def test_viewpoints_look_at_centroid_and_keep_standoff():
    lo = np.array([1.0, 2.0, 3.0])
    hi = np.array([3.0, 6.0, 4.0])
    centroid = (lo + hi) / 2.0
    radius = 0.5 * np.linalg.norm(hi - lo)
    for pose in viewpoints((lo, hi), 5, standoff=2.0):
        to_center = centroid - pose.position
        dist = np.linalg.norm(to_center)
        assert dist == pytest.approx(2.0 * radius, rel=1e-12)
        assert np.linalg.norm(pose.forward - to_center / dist) <= 1e-9
        # orthonormal right-handed frame
        assert abs(np.linalg.norm(pose.right) - 1.0) <= 1e-12
        assert abs(pose.forward @ pose.right) <= 1e-12
        assert np.linalg.norm(np.cross(pose.right, pose.forward) - pose.up) <= 1e-12


def test_viewpoints_reject_zero_views():
    with pytest.raises(InvalidParameterError):
        viewpoints(UNIT_BOX, 0)


# -- single rays -----------------------------------------------------------------


def whole_rays(surface, origins, directions):
    """The rays' spans of the march domain: with these as their windows,
    `_march_batch` is the plain march of every stride."""
    return scanner._ray_sphere_spans(origins, directions, *scanner._domain_sphere(surface))


def march_one(surface, origin, direction, min_feature):
    """The hit point of one whole ray through `_march_batch`, or None."""
    origins, directions = np.array([origin]), np.array([direction])
    spans = whole_rays(surface, origins, directions)
    hit, points = scanner._march_batch(surface, origins, directions, min_feature, spans, spans)
    return points[0] if hit[0] else None


def test_ray_hits_sphere_front_face(sphere_surface):
    hit = march_one(sphere_surface, [0.0, 0.0, -2.0], [0.0, 0.0, 1.0], diagonal_feature(sphere_surface))
    assert hit is not None
    assert np.linalg.norm(hit - np.array([0.0, 0.0, -1.0])) <= 5e-3
    assert abs(float(sphere_surface.eval_many(hit[None])[0])) <= scanner.HIT_TOLERANCE


def test_ray_misses_off_axis(sphere_surface):
    assert march_one(sphere_surface, [0.0, 5.0, -2.0], [0.0, 0.0, 1.0], diagonal_feature(sphere_surface)) is None


def test_ray_cast_explicit_feature_size(sphere_surface):
    hit = march_one(sphere_surface, [0.0, 0.0, -2.0], [0.0, 0.0, 1.0], min_feature=0.1)
    assert hit is not None
    assert np.linalg.norm(hit - np.array([0.0, 0.0, -1.0])) <= 5e-3


# -- the march rule --------------------------------------------------------------


def reference_march(surface, origin, direction, t_lo, t_hi, feature):
    """The documented two-level march of one ray, one field point per call.

    Coarse strides of _COARSE_STEPS fine steps run from t_lo to t_hi. A
    stride with either end at or below the guard band is walked in fine
    steps, in order, up to its end. The first positive-to-nonpositive pair
    brackets the hit, and at most 60 bisection steps settle it to the hit
    tolerance. Returns the hit point, or None.
    """

    def field(t):
        f = surface.eval_many((origin + t * direction)[None])[0]
        return 1.0 if np.isnan(f) else f  # outside every support: exterior

    step = scanner.MARCH_STEP * feature
    stride = step * scanner._COARSE_STEPS
    guard = 2.0 * stride
    t, f = t_lo, field(t_lo)
    bracket = None
    while bracket is None:
        t_next = min(t + stride, t_hi)
        f_next = field(t_next)
        if min(f, f_next) <= guard:
            fine = [t + k * step for k in range(1, scanner._COARSE_STEPS)]
            prev = (t, f)
            for tk in [tk for tk in fine if tk < t_next] + [t_next]:
                cur = (tk, f_next if tk == t_next else field(tk))
                if prev[1] > 0.0 and cur[1] <= 0.0:
                    bracket = (prev[0], cur[0])
                    break
                prev = cur
        if bracket is None and t_next >= t_hi:
            return None
        t, f = t_next, f_next
    lo, hi = bracket
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        f_mid = field(mid)
        if abs(f_mid) <= scanner.HIT_TOLERANCE:
            return origin + mid * direction
        if f_mid > 0.0:
            lo = mid
        else:
            hi = mid
    return None


class Slabs:
    """Field sin(z / width): slabs pi * width thick, 2 pi * width apart, so
    a ray along z enters several of them in one stride."""

    def __init__(self, width):
        self.width = width
        self.bbox_lo = np.array([-1.0, -1.0, -1.0])
        self.bbox_hi = np.array([1.0, 1.0, 1.0])

    def bbox_diagonal(self):
        return float(np.linalg.norm(self.bbox_hi - self.bbox_lo))

    def eval_many(self, points):
        return np.sin(points[:, 2] / self.width)


def sphere_rays(rng, n):
    u = rng.normal(size=(n, 3))
    return 3.0 * u / np.linalg.norm(u, axis=1)[:, None], rng.uniform(-1.2, 1.2, (n, 3))


def tube_rays(rng, n):
    # from around the tube of radius 0.1 towards points near its axis: most
    # rays enter and leave it inside one stride
    a = rng.uniform(0.0, 2.0 * np.pi, n)
    sources = np.column_stack([0.8 * np.cos(a), 0.8 * np.sin(a), rng.uniform(0.0, 1.0, n)])
    targets = np.column_stack([rng.uniform(-0.13, 0.13, (n, 2)), rng.uniform(-0.1, 1.1, n)])
    return sources, targets


def slab_rays(rng, n):
    sources = np.column_stack([rng.uniform(-0.5, 0.5, (n, 2)), np.full(n, -3.0)])
    return sources, rng.uniform(-0.5, 0.5, (n, 3))


@pytest.mark.parametrize("case", ["sphere", "thin tube", "slabs"])
def test_march_follows_the_documented_rule(case, sphere_surface_320, cylinder_surface):
    surface, rays, feature = {
        "sphere": (sphere_surface_320, sphere_rays, diagonal_feature(sphere_surface_320)),
        "thin tube": (cylinder_surface, tube_rays, 0.1),
        # a stride of 2 * feature spans more than two slabs
        "slabs": (Slabs(0.006), slab_rays, 0.05),
    }[case]
    origins, targets = rays(np.random.default_rng(23), 300)
    directions = targets - origins
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    t_lo, t_hi = spans = whole_rays(surface, origins, directions)
    hit, points = scanner._march_batch(surface, origins, directions, feature, spans, spans)

    expected = [
        reference_march(surface, o, d, a, b, feature) if a < b else None
        for o, d, a, b in zip(origins, directions, t_lo, t_hi)
    ]
    assert np.array_equal(hit, [p is not None for p in expected])
    assert np.any(hit)
    assert np.array_equal(points[hit], np.array([p for p in expected if p is not None]))


# -- the live-chord cull ---------------------------------------------------------


def plain_windows(surface, pose, tan_half, res, directions, spans):
    """`_live_windows` for the plain march: every ray's window is its span."""
    return spans


def recorded(monkeypatch, name):
    """Replace scanner.<name> by a wrapper that records (args, result) of each call."""
    calls = []
    real = getattr(scanner, name)

    def wrapper(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(scanner, name, wrapper)
    return calls


def counted_evals(monkeypatch):
    """Count the points every ImplicitSurface.eval_many call evaluates."""
    count = [0]
    real = ImplicitSurface.eval_many

    def eval_many(self, points):
        count[0] += len(points)
        return real(self, points)

    monkeypatch.setattr(ImplicitSurface, "eval_many", eval_many)
    return count


def culled_and_plain_scans(monkeypatch, surface, cfg, feature):
    """(views, merged scan, march results) of `scan_view` per pose and of
    `scan_surface`, once with the cull and once with the plain march."""
    poses = viewpoints((surface.bbox_lo, surface.bbox_hi), cfg.views, cfg.standoff)
    runs = []
    for windows in (scanner._live_windows, plain_windows):
        with monkeypatch.context() as m:
            m.setattr(scanner, "_live_windows", windows)
            marches = recorded(m, "_march_batch")
            views = [scan_view(surface, pose, cfg, feature) for pose in poses]
            runs.append((views, scan_surface(surface, cfg, feature), marches))
    return runs


def assert_same_scans(culled, plain):
    views, merged, marches = culled
    plain_views, plain_merged, plain_marches = plain
    assert len(marches) == len(plain_marches)
    for (_, (hit, points)), (_, (plain_hit, plain_points)) in zip(marches, plain_marches):
        assert np.array_equal(hit, plain_hit)
        assert np.array_equal(points[hit], plain_points[plain_hit])
    for a, b in [*zip(views, plain_views), (merged, plain_merged)]:
        assert np.array_equal(a.points, b.points)
        assert a.has_normals() == b.has_normals()
        if a.has_normals():
            assert np.array_equal(a.normals, b.normals)


@pytest.mark.parametrize("normal_mode", ["analytic", "pca-mst"])
def test_culled_scans_match_the_plain_march(cylinder_surface, normal_mode, monkeypatch):
    cfg = ScanConfig(resolution=40, views=3, normal_mode=normal_mode)
    culled, plain = culled_and_plain_scans(monkeypatch, cylinder_surface, cfg, 0.1)
    assert_same_scans(culled, plain)
    assert len(culled[1]) >= scanner.PCA_K
    # the cull is not vacuous: most rays of the thin tube's views have no
    # live chord, and a hit ray's window is shorter than its span
    for args, (hit, _) in culled[2]:
        (t_lo, t_hi), (w_lo, w_hi) = args[4], args[5]
        assert np.mean(w_lo > w_hi) > 0.5
        assert np.all(w_hi[hit] - w_lo[hit] < t_hi[hit] - t_lo[hit])


def test_the_splat_holds_every_ray_that_meets_a_sphere():
    # spheres in front of a camera at the origin looking down +z, some
    # partly off the image: every pixel whose ray meets one lies in its box
    res, tan_half = 30, 0.7
    ndc = (np.arange(res) + 0.5) / res * 2.0 - 1.0
    v, u = np.meshgrid(ndc, ndc, indexing="ij")
    dirs = np.column_stack([u.ravel() * tan_half, v.ravel() * tan_half, np.ones(res * res)])
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    rng = np.random.default_rng(4)
    z = rng.uniform(0.5, 3.0, 400)
    r = rng.uniform(0.01, 0.45, 400) * z
    x, y = rng.uniform(-1.0, 1.0, (2, 400)) * z
    row0, row1 = scanner._pixel_range(y, z, r, tan_half, res)
    col0, col1 = scanner._pixel_range(x, z, r, tan_half, res)
    met = 0
    for i in range(400):
        b = dirs @ np.array([x[i], y[i], z[i]])
        rows, cols = np.divmod(np.flatnonzero(b * b - (x[i] ** 2 + y[i] ** 2 + z[i] ** 2 - r[i] ** 2) > 0.0), res)
        met += len(rows)
        assert np.all((rows >= row0[i]) & (rows <= row1[i]) & (cols >= col0[i]) & (cols <= col1[i]))
    assert met > 1000


def brute_force_windows(surface, origin, directions, spans):
    """`_live_windows` by its definition, over every (ray, cell) pair and
    with no slack: the least entry and greatest exit of the ray's chords
    whose s is nonpositive at an end, clipped to the ray's span."""
    oc = origin - surface.centers
    s_origin = surface.normals @ origin - surface.offsets
    windows = []
    for rows in np.array_split(np.arange(len(directions)), max(1, len(directions) // 64)):
        d = directions[rows]
        b = d @ oc.T
        disc = b * b - (np.einsum("ij,ij->i", oc, oc) - surface.radii**2)
        root = np.sqrt(np.maximum(disc, 0.0))
        enter = np.maximum(-b - root, spans[0][rows, None])
        leave = np.minimum(-b + root, spans[1][rows, None])
        nd = d @ surface.normals.T
        s_min = np.minimum(s_origin + enter * nd, s_origin + leave * nd)
        live = (disc > 0.0) & (enter <= leave) & (s_min <= 0.0)
        windows.append((np.where(live, enter, np.inf).min(axis=1), np.where(live, leave, -np.inf).max(axis=1)))
    return tuple(np.concatenate(w) for w in zip(*windows))


@pytest.mark.parametrize("standoff", [1.1, 1.5])
def test_live_windows_match_a_brute_force_over_every_pair(cylinder_surface, standoff, monkeypatch):
    windows = recorded(monkeypatch, "_live_windows")
    cfg = ScanConfig(resolution=24, views=2, standoff=standoff)
    scan_surface(cylinder_surface, cfg, 0.1)
    for (_, pose, _, _, directions, spans), (w_lo, w_hi) in windows:
        lo, hi = brute_force_windows(cylinder_surface, pose.position, directions, spans)
        live = lo <= hi
        assert np.array_equal(w_lo <= w_hi, live) and np.any(live)
        assert np.allclose(w_lo[live], lo[live], rtol=0.0, atol=1e-6)
        assert np.allclose(w_hi[live], hi[live], rtol=0.0, atol=1e-6)


def test_a_ray_with_no_live_chord_costs_no_field_evaluation(cylinder_surface, monkeypatch):
    pose = viewpoints((cylinder_surface.bbox_lo, cylinder_surface.bbox_hi), 1)[0]
    windows = recorded(monkeypatch, "_live_windows")
    scan_view(cylinder_surface, pose, ScanConfig(resolution=40), 0.1)
    (_, _, _, _, directions, (t_lo, t_hi)), (w_lo, w_hi) = windows[0]
    dead = (t_lo < t_hi) & (w_lo > w_hi)  # in the domain, with no live chord
    assert np.count_nonzero(dead) > 100
    origins = np.broadcast_to(pose.position, directions[dead].shape)
    spans = (t_lo[dead], t_hi[dead])
    evals = counted_evals(monkeypatch)
    hit, _ = scanner._march_batch(cylinder_surface, origins, directions[dead], 0.1, spans, (w_lo[dead], w_hi[dead]))
    assert evals[0] == 0 and not np.any(hit)
    # the plain march evaluates these rays, and finds no hit on them either
    hit, _ = scanner._march_batch(cylinder_surface, origins, directions[dead], 0.1, spans, spans)
    assert evals[0] > 0 and not np.any(hit)


@pytest.mark.parametrize("standoff", [1.1, 1.5])
def test_a_cell_around_the_camera_takes_the_whole_image(plane_surface, standoff, monkeypatch):
    # the quad's one support sphere holds the camera above it: its splat is
    # the whole image, and the scan still matches the plain march
    cfg = ScanConfig(resolution=60, views=1, standoff=standoff)
    for pose in viewpoints((plane_surface.bbox_lo, plane_surface.bbox_hi), cfg.views, cfg.standoff):
        assert np.any(np.linalg.norm(plane_surface.centers - pose.position, axis=1) < plane_surface.radii)
    culled, plain = culled_and_plain_scans(monkeypatch, plane_surface, cfg, 0.2)
    assert_same_scans(culled, plain)
    assert len(culled[1]) > 10


# -- whole views -----------------------------------------------------------------


def test_scan_view_plane_hits_lie_on_plane(plane_surface):
    cfg = ScanConfig(resolution=24, views=1)
    pose = viewpoints((plane_surface.bbox_lo, plane_surface.bbox_hi), 1, 2.5)[0]
    cloud = scan_view(plane_surface, pose, cfg, min_feature=0.2)
    assert len(cloud) > 50
    assert np.max(np.abs(cloud.points[:, 2])) <= scanner.HIT_TOLERANCE + 1e-12


def test_scan_view_resolution_scaling(sphere_surface_320):
    pose = viewpoints((sphere_surface_320.bbox_lo, sphere_surface_320.bbox_hi), 1)[0]
    feature = diagonal_feature(sphere_surface_320)
    low = scan_view(sphere_surface_320, pose, ScanConfig(resolution=20), feature)
    high = scan_view(sphere_surface_320, pose, ScanConfig(resolution=40), feature)
    assert len(high) >= 3 * len(low)


def test_scan_view_hits_satisfy_field_tolerance(sphere_surface_320):
    cfg = ScanConfig(resolution=30)
    pose = viewpoints((sphere_surface_320.bbox_lo, sphere_surface_320.bbox_hi), 1)[0]
    cloud = scan_view(sphere_surface_320, pose, cfg, diagonal_feature(sphere_surface_320))
    residuals = np.abs(sphere_surface_320.eval_many(cloud.points))
    assert np.max(residuals) <= scanner.HIT_TOLERANCE + 1e-15


def test_scan_view_sphere_points_on_shell(sphere_surface):
    pose = viewpoints((sphere_surface.bbox_lo, sphere_surface.bbox_hi), 1)[0]
    cloud = scan_view(sphere_surface, pose, ScanConfig(resolution=40), diagonal_feature(sphere_surface))
    r = np.linalg.norm(cloud.points, axis=1)
    assert np.max(np.abs(r - 1.0)) <= 5e-3


def test_scan_view_rejects_interior_viewpoint(sphere_surface_320):
    pose = viewpoints((sphere_surface_320.bbox_lo, sphere_surface_320.bbox_hi), 1)[0]
    inside = type(pose)(
        position=np.zeros(3), forward=pose.forward, right=pose.right, up=pose.up
    )
    with pytest.raises(InvalidParameterError, match="inside"):
        scan_view(sphere_surface_320, inside, ScanConfig(resolution=10), diagonal_feature(sphere_surface_320))


@pytest.mark.parametrize("feature", [0.0, -0.05, np.nan])
def test_scans_refuse_a_feature_size_that_is_not_positive_and_finite(sphere_surface_320, feature):
    pose = viewpoints((sphere_surface_320.bbox_lo, sphere_surface_320.bbox_hi), 1)[0]
    cfg = ScanConfig(resolution=10, views=1)
    for scan in (
        lambda: scan_view(sphere_surface_320, pose, cfg, feature),
        lambda: scan_surface(sphere_surface_320, cfg, feature),
        lambda: density_variants(sphere_surface_320, cfg, feature),
    ):
        with pytest.raises(InvalidParameterError, match="min_feature"):
            scan()


def test_analytic_normals_face_the_sensor(sphere_surface_320):
    pose = viewpoints((sphere_surface_320.bbox_lo, sphere_surface_320.bbox_hi), 1)[0]
    cloud = scan_view(sphere_surface_320, pose, ScanConfig(resolution=30), diagonal_feature(sphere_surface_320))
    assert cloud.has_normals()
    assert np.allclose(np.linalg.norm(cloud.normals, axis=1), 1.0, atol=1e-9)
    grads = sphere_surface_320.gradient_many(cloud.points)
    cross = np.linalg.norm(np.cross(cloud.normals, grads), axis=1)
    assert np.max(cross / np.linalg.norm(grads, axis=1)) <= 1e-9
    toward_sensor = np.einsum("ij,ij->i", cloud.normals, pose.position - cloud.points)
    assert np.min(toward_sensor) > 0.0


def test_a_view_that_hits_nothing_has_empty_analytic_normals():
    # a thin tube seen end-on through a 2 x 2 ray grid: every ray passes by it
    surface = build_surface(sweep_mesh(make_cylinder_skeleton(0.1, 1.0), sides=24), FitConfig())
    cfg = ScanConfig(resolution=2)
    for pose in viewpoints((surface.bbox_lo, surface.bbox_hi), 2, 1.5):
        cloud = scan_view(surface, pose, cfg, 0.1)
        assert len(cloud) == 0
        assert cloud.normals.shape == (0, 3)


# -- merging ---------------------------------------------------------------------


def test_scan_surface_concatenates_views_in_order(sphere_surface_320):
    cfg = ScanConfig(resolution=20, views=2)
    feature = diagonal_feature(sphere_surface_320)
    poses = viewpoints((sphere_surface_320.bbox_lo, sphere_surface_320.bbox_hi), cfg.views, cfg.standoff)
    scans = [scan_view(sphere_surface_320, p, cfg, feature) for p in poses]
    assert all(len(s) > 0 for s in scans)
    merged = scan_surface(sphere_surface_320, cfg, feature)
    assert np.array_equal(merged.points, np.concatenate([s.points for s in scans]))
    assert np.array_equal(merged.normals, np.concatenate([s.normals for s in scans]))


def test_merged_sphere_scan_covers_most_directions(sphere_scan):
    # 18 x 36 spherical histogram of hit directions; good multi-view
    # coverage means nearly every bin sees at least one point
    p = sphere_scan.points
    r = np.linalg.norm(p, axis=1)
    theta = np.arccos(np.clip(p[:, 2] / r, -1.0, 1.0))
    phi = np.arctan2(p[:, 1], p[:, 0])
    ti = np.clip((theta / np.pi * 18).astype(int), 0, 17)
    pi_ = np.clip(((phi + np.pi) / (2 * np.pi) * 36).astype(int), 0, 35)
    occupied = len(set(zip(ti.tolist(), pi_.tolist())))
    assert occupied / (18 * 36) >= 0.95


def test_scan_surface_is_deterministic(sphere_surface_320):
    cfg = ScanConfig(resolution=25, views=2)
    a = scan_surface(sphere_surface_320, cfg, diagonal_feature(sphere_surface_320))
    b = scan_surface(sphere_surface_320, cfg, diagonal_feature(sphere_surface_320))
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.normals, b.normals)


# -- normal estimation -------------------------------------------------------------


def test_pca_normals_on_plane():
    rng = np.random.default_rng(5)
    pts = np.column_stack([rng.uniform(-1, 1, 2000), rng.uniform(-1, 1, 2000), np.zeros(2000)])
    cloud = estimate_normals(PointCloud(pts), k=12)
    assert np.all(np.abs(cloud.normals[:, 2]) >= np.cos(np.radians(1.0)))
    assert np.allclose(np.linalg.norm(cloud.normals, axis=1), 1.0, atol=1e-12)


def test_pca_normals_on_sphere_radial():
    pts = fibonacci_sphere(10_000)
    cloud = estimate_normals(PointCloud(pts), k=16)
    radial = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    cos = np.abs(np.einsum("ij,ij->i", cloud.normals, radial))
    assert np.min(cos) >= np.cos(np.radians(5.0))


def test_pca_normals_flag_colinear_neighborhoods():
    pts = np.column_stack([np.linspace(0, 1, 50), np.zeros(50), np.zeros(50)])
    cloud = estimate_normals(PointCloud(pts), k=5)
    assert np.allclose(np.linalg.norm(cloud.normals, axis=1), 1.0)


def test_pca_normals_input_validation():
    pts = np.zeros((5, 3))
    with pytest.raises(InvalidParameterError):
        estimate_normals(PointCloud(pts), k=2)
    with pytest.raises(TooFewPointsError):
        estimate_normals(PointCloud(pts), k=16)


# -- normal orientation --------------------------------------------------------------


def test_orientation_unifies_plane_signs():
    rng = np.random.default_rng(9)
    pts = np.column_stack([rng.uniform(-1, 1, 500), rng.uniform(-1, 1, 500), np.zeros(500)])
    flip = rng.random(500) < 0.5
    normals = np.where(flip[:, None], [[0.0, 0.0, -1.0]], [[0.0, 0.0, 1.0]])
    oriented = orient_normals(PointCloud(pts, normals), k=8)
    signs = np.sign(oriented.normals[:, 2])
    assert np.all(signs == signs[0])


def test_orientation_sphere_mostly_outward():
    pts = fibonacci_sphere(2000)
    cloud = orient_normals(estimate_normals(PointCloud(pts), k=16), k=16)
    radial = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    outward = np.einsum("ij,ij->i", cloud.normals, radial) > 0.0
    assert outward.mean() >= 0.99


def bfs_orient(points, normals, k):
    """Reference orientation: queue-based BFS over MST adjacency lists, one
    component at a time, seeded in (highest z, lowest index) order."""
    n = len(points)
    normals = normals.copy()
    kk = min(k, n - 1)
    dist, nbr = cKDTree(points).query(points, k=kk + 1)
    rows = np.repeat(np.arange(n), kk)
    graph = coo_matrix((np.maximum(dist[:, 1:].ravel(), 1e-300), (rows, nbr[:, 1:].ravel())), shape=(n, n))
    mst = minimum_spanning_tree(graph).tocoo()
    adj = [[] for _ in range(n)]
    for a, b in zip(mst.row, mst.col):
        adj[a].append(b)
        adj[b].append(a)
    for neighbors in adj:
        neighbors.sort()
    centroid = points.mean(axis=0)
    visited = np.zeros(n, dtype=bool)
    for seed in np.lexsort((np.arange(n), -points[:, 2])):
        if visited[seed]:
            continue
        outward = points[seed] - centroid
        if np.linalg.norm(outward) < 1e-12:
            outward = np.array([0.0, 0.0, 1.0])
        if normals[seed] @ outward < 0.0:
            normals[seed] *= -1.0
        visited[seed] = True
        queue = [seed]
        while queue:
            here = queue.pop(0)
            for other in adj[here]:
                if visited[other]:
                    continue
                if normals[other] @ normals[here] < 0.0:
                    normals[other] *= -1.0
                visited[other] = True
                queue.append(other)
    return normals


def test_orientation_matches_bfs_on_separate_patches():
    rng = np.random.default_rng(13)
    patches = []
    for center in ([0.0, 0.0, 0.0], [5.0, 0.0, 1.0], [0.0, 5.0, 2.0]):
        u, v = rng.uniform(-1.0, 1.0, (2, 300))
        patches.append(np.column_stack([u, v, 0.3 * u * v]) + center)
    pts = np.concatenate(patches)
    cloud = estimate_normals(PointCloud(pts), k=12)
    flipped = cloud.normals * rng.choice([-1.0, 1.0], (len(pts), 1))
    oriented = orient_normals(PointCloud(pts, flipped), k=12)
    assert np.array_equal(oriented.normals, bfs_orient(pts, flipped, 12))
    # each patch ends up with one consistent side
    for part in np.split(oriented.normals[:, 2], 3):
        assert np.all(part > 0.0) or np.all(part < 0.0)


def parent_estimate_normals(points, k):
    """Reference: one single-threaded query in input order."""
    n = len(points)
    _, nbr = cKDTree(points).query(points, k=k)
    _, _, eigvecs = principal_axes(points, nbr.ravel(), np.arange(0, n * k, k))
    normals = eigvecs[:, :, 0]
    lengths = np.linalg.norm(normals, axis=1, keepdims=True)
    return normals / np.where(lengths > 0.0, lengths, 1.0)


def parent_orient_normals(points, normals, k):
    """Reference: graph rows in input order, from one single-threaded query."""
    n = len(points)
    normals = normals.copy()
    kk = min(k, n - 1)
    dist, nbr = cKDTree(points).query(points, k=kk + 1)
    weights = np.maximum(dist[:, 1:].ravel(), 1e-300)
    graph = coo_matrix((weights, (np.repeat(np.arange(n), kk), nbr[:, 1:].ravel())), shape=(n, n))
    mst = minimum_spanning_tree(graph).tocoo()
    _, labels = connected_components(mst, directed=False)
    order = np.lexsort((np.arange(n), -points[:, 2]))
    _, first = np.unique(labels[order], return_index=True)
    seeds = order[first]
    edges = (np.concatenate([mst.row, np.full(len(seeds), n)]), np.concatenate([mst.col, seeds]))
    tree_graph = coo_matrix((np.ones(len(edges[0])), edges), shape=(n + 1, n + 1)).tocsr()
    _, parent = breadth_first_order(tree_graph, n, directed=False, return_predecessors=True)
    outward = points[seeds] - points.mean(axis=0)
    outward[np.linalg.norm(outward, axis=1) < 1e-12] = (0.0, 0.0, 1.0)
    up = np.append(parent[:n], n)
    reference = normals[np.minimum(up[:n], n - 1)]
    reference[seeds] = outward
    flip = np.append(np.einsum("ij,ij->i", normals, reference) < 0.0, False)
    while np.any(up != n):
        flip ^= flip[up]
        up = up[up]
    normals[flip[:n]] *= -1.0
    return normals


@pytest.fixture(scope="module")
def shuffled_noisy_cylinder():
    rng = np.random.default_rng(71)
    n = 20_000
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    radial = np.column_stack([np.cos(theta), np.sin(theta), np.zeros(n)])
    pts = radial * (0.5 + 0.005 * rng.normal(size=(n, 1))) + np.outer(rng.uniform(0.0, 3.0, n), [0.0, 0.0, 1.0])
    return pts[rng.permutation(n)]


QUERY_SPLITS = [
    pytest.param(None, None, id="None"),
    pytest.param(1, None, id="1"),
    pytest.param(2, None, id="2"),
    pytest.param(None, 1, id="1-row"),
    pytest.param(None, 7, id="7-rows"),
]


def split_queries(monkeypatch, threads, budget):
    if threads is not None:
        monkeypatch.setattr(geometry, "_query_threads", threads)
    if budget is not None:
        monkeypatch.setattr(geometry, "_QUERY_ROWS", budget)


@pytest.mark.parametrize("threads, budget", QUERY_SPLITS)
def test_tree_order_queries_give_the_input_order_results(shuffled_noisy_cylinder, monkeypatch, threads, budget):
    pts = shuffled_noisy_cylinder
    want = parent_estimate_normals(pts, 16)
    # random normals: each flip is the parity along the MST path from the
    # seed, so any other spanning tree shows
    scattered = np.random.default_rng(3).normal(size=(len(pts), 3))
    split_queries(monkeypatch, threads, budget)
    est = estimate_normals(PointCloud(pts), 16)
    assert np.array_equal(est.normals, want)
    oriented = orient_normals(PointCloud(pts, scattered), 16)
    assert np.array_equal(oriented.normals, parent_orient_normals(pts, scattered, 16))


@pytest.mark.parametrize("copies", [0, 150])
@pytest.mark.parametrize("k", [4, 16])
def test_orientation_on_a_lattice_plane_matches_the_coo_graph(k, copies):
    # the graph keeps one entry of each mutual pair: on a lattice, many
    # distances tie with a row's k-th, where the query's pick decides
    # whether the pair is mutual, and copies add zero distances whose row
    # may drop another point than itself as its first column
    rng = np.random.default_rng(37)
    ticks = np.arange(50.0)
    x, y = (a.ravel() for a in np.meshgrid(ticks, ticks))
    plane = np.column_stack([x, y, 0.5 * x - 0.25 * y])[rng.choice(2500, size=900, replace=False)]
    pts = np.concatenate([plane, plane[rng.integers(900, size=copies)]])[rng.permutation(900 + copies)]
    dist, nbr = cKDTree(pts).query(pts, k=k + 1)
    earlier = nbr[:, 1:] < np.arange(len(pts))[:, None]
    assert np.count_nonzero(earlier & (dist[:, 1:] == dist[:, -1][nbr[:, 1:]])) >= 100
    scattered = rng.normal(size=(len(pts), 3))
    oriented = orient_normals(PointCloud(pts, scattered), k)
    assert np.array_equal(oriented.normals, parent_orient_normals(pts, scattered, k))


@pytest.mark.parametrize("threads, budget", QUERY_SPLITS)
def test_orientation_with_duplicated_points_matches_the_coo_graph(monkeypatch, threads, budget):
    # copies of a point sit at distance 0, so a row's first neighbour can be
    # another copy and the point itself a later column: the graph then holds
    # a self-loop and zero weights floored at 1e-300
    rng = np.random.default_rng(29)
    theta, z = rng.uniform(0.0, 2.0 * np.pi, 600), rng.uniform(0.0, 2.0, 600)
    base = np.column_stack([np.cos(theta), np.sin(theta), z])
    pts = np.concatenate([base, base[:200], base[:50]])[rng.permutation(850)]
    _, nbr = cKDTree(pts).query(pts, k=17)
    assert np.any(nbr[:, 0] != np.arange(len(pts)))
    assert np.any(nbr[:, 1:] == np.arange(len(pts))[:, None])
    want = parent_estimate_normals(pts, 16)
    scattered = rng.normal(size=(len(pts), 3))
    split_queries(monkeypatch, threads, budget)
    assert np.array_equal(estimate_normals(PointCloud(pts), 16).normals, want)
    oriented = orient_normals(PointCloud(pts, scattered), 16)
    assert np.array_equal(oriented.normals, parent_orient_normals(pts, scattered, 16))


def duplicated_cylinder():
    """The input of the duplicated-points test: 600 points, 250 copies."""
    rng = np.random.default_rng(29)
    theta, z = rng.uniform(0.0, 2.0 * np.pi, 600), rng.uniform(0.0, 2.0, 600)
    base = np.column_stack([np.cos(theta), np.sin(theta), z])
    return np.concatenate([base, base[:200], base[:50]])[rng.permutation(850)]


def lattice_plane(copies):
    """The input of the lattice test: 900 points of a tilted plane lattice
    and copies of them."""
    rng = np.random.default_rng(37)
    ticks = np.arange(50.0)
    x, y = (a.ravel() for a in np.meshgrid(ticks, ticks))
    plane = np.column_stack([x, y, 0.5 * x - 0.25 * y])[rng.choice(2500, size=900, replace=False)]
    return np.concatenate([plane, plane[rng.integers(900, size=copies)]])[rng.permutation(900 + copies)]


TIED_INPUTS = [
    pytest.param(duplicated_cylinder, 16, id="duplicated-cylinder"),
    pytest.param(lambda: lattice_plane(0), 4, id="lattice-0-k4"),
    pytest.param(lambda: lattice_plane(0), 16, id="lattice-0-k16"),
    pytest.param(lambda: lattice_plane(150), 4, id="lattice-150-k4"),
    pytest.param(lambda: lattice_plane(150), 16, id="lattice-150-k16"),
]


def count_queries(monkeypatch) -> list:
    """Record the k of every tree_order_neighbours call the scanner makes."""
    calls = []

    def counted(points, k=None, **kwargs):
        calls.append(k)
        return geometry.tree_order_neighbours(points, k=k, **kwargs)

    monkeypatch.setattr(scanner, "tree_order_neighbours", counted)
    return calls


@pytest.mark.parametrize("make, k", TIED_INPUTS)
@pytest.mark.parametrize("threads, budget", QUERY_SPLITS)
def test_the_carried_graph_orients_as_a_fresh_query(monkeypatch, make, k, threads, budget):
    # ties and copies send rows back to a k-query for the PCA, while the
    # carried rows stay the (k+1)-query's
    pts = make()
    scattered = np.random.default_rng(3).normal(size=(len(pts), 3))
    split_queries(monkeypatch, threads, budget)
    calls = count_queries(monkeypatch)
    est = estimate_normals(PointCloud(pts), k)
    assert np.array_equal(est.normals, parent_estimate_normals(pts, k))
    est.normals = scattered  # random signs show any other spanning tree
    oriented = orient_normals(est, k)
    assert calls == [k + 1]
    assert np.array_equal(oriented.normals, orient_normals(PointCloud(est.points.copy(), scattered), k).normals)
    assert np.array_equal(oriented.normals, parent_orient_normals(pts, scattered, k))


def test_an_estimate_is_read_only():
    est = estimate_normals(PointCloud(duplicated_cylinder()), 16)
    assert est.neighbours.shape == (850, 17) and est.neighbours.dtype == np.int32
    with pytest.raises(ValueError):
        est.points[0, 0] = 1.0
    with pytest.raises(ValueError):
        est.neighbours[0, 0] = 1


def test_a_rebuilt_cloud_queries_afresh(monkeypatch):
    pts = duplicated_cylinder()
    est = estimate_normals(PointCloud(pts), 16)
    moved = pts[::-1] + 1.0
    calls = count_queries(monkeypatch)
    assert np.array_equal(orient_normals(est, 16).normals, parent_orient_normals(pts, est.normals, 16))
    assert calls == []
    # another k needs rows of another width
    assert np.array_equal(orient_normals(est, 8).normals, parent_orient_normals(pts, est.normals, 8))
    assert calls == [9]
    rebuilt = [
        (replace(est, points=pts), pts),
        (replace(est, points=moved), moved),
        (PointCloud(est.points, est.normals), pts),
    ]
    for cloud, points in rebuilt:
        calls.clear()
        assert np.array_equal(orient_normals(cloud, 16).normals, parent_orient_normals(points, est.normals, 16))
        assert calls == [17]
    est.points = moved
    calls.clear()
    assert np.array_equal(orient_normals(est, 16).normals, parent_orient_normals(moved, est.normals, 16))
    assert calls == [17]


def test_an_estimate_of_k_points_carries_no_graph():
    pts = fibonacci_sphere(16)
    est = estimate_normals(PointCloud(pts), 16)
    assert est.neighbours is None
    assert np.array_equal(est.normals, parent_estimate_normals(pts, 16))
    oriented = orient_normals(est, 16)
    assert np.array_equal(oriented.normals, parent_orient_normals(pts, est.normals, 16))


@pytest.mark.parametrize("budget", [None, 7])
def test_recomputed_weights_are_the_query_distances(monkeypatch, budget):
    split_queries(monkeypatch, None, budget)
    rng = np.random.default_rng(41)
    scaled = rng.normal(size=(2000, 3)) * 10.0 ** rng.integers(-3, 4, (1, 3))
    for pts in (scaled, lattice_plane(150), duplicated_cylinder()):
        dist, nbr = cKDTree(pts).query(pts, k=17)
        assert np.array_equal(neighbour_distances(pts, nbr), dist)


def test_orientation_single_point_noop():
    cloud = PointCloud(np.array([[1.0, 2.0, 3.0]]), np.array([[0.0, 0.0, -1.0]]))
    out = orient_normals(cloud)
    assert np.array_equal(out.points, cloud.points)
    assert np.array_equal(out.normals, cloud.normals)


def test_orientation_requires_normals():
    with pytest.raises(MissingNormalsError):
        orient_normals(PointCloud(np.zeros((3, 3))))


def test_pca_mst_scan_mode(sphere_surface_320):
    cfg = ScanConfig(resolution=25, views=2, normal_mode="pca-mst")
    cloud = scan_surface(sphere_surface_320, cfg, diagonal_feature(sphere_surface_320))
    assert cloud.has_normals()
    radial = cloud.points / np.linalg.norm(cloud.points, axis=1, keepdims=True)
    outward = np.einsum("ij,ij->i", cloud.normals, radial) > 0.0
    assert outward.mean() >= 0.9


@pytest.mark.parametrize("normal_mode", ["analytic", "pca-mst"])
@pytest.mark.parametrize("resolution, hits", [(2, 0), (4, 4)])
def test_scans_too_small_for_pca_normals(sphere_surface_320, normal_mode, resolution, hits):
    # one view of a 2 x 2 ray grid misses the sphere, and a 4 x 4 grid hits
    # it 4 times: every empty scan carries (0, 3) normals, and a pca-mst
    # scan of 1 to PCA_K - 1 points refuses rather than drop its normals
    cfg = ScanConfig(resolution=resolution, views=1, normal_mode=normal_mode)
    feature = diagonal_feature(sphere_surface_320)
    if hits and normal_mode == "pca-mst":
        with pytest.raises(TooFewPointsError):
            scan_surface(sphere_surface_320, cfg, feature)
        return
    cloud = scan_surface(sphere_surface_320, cfg, feature)
    assert len(cloud) == hits
    assert cloud.normals.shape == (hits, 3)


# -- config validation -----------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"resolution": 1},
        {"views": 0},
        {"standoff": 1.0},
        {"normal_mode": "guess"},
        # cameras at the march domain's margin sit on or inside its sphere
        {"standoff": 1.05},
    ],
)
def test_scan_config_validation(kwargs):
    with pytest.raises(InvalidParameterError):
        ScanConfig(**kwargs).validate()
