"""Controlled degradations: noise inserts, occlusion balls, uneven density."""

import numpy as np
import pytest
from dataclasses import replace
from scipy.spatial import cKDTree

from treescan import degrade
from treescan.cloud import PointCloud
from treescan.degrade import (
    DENSITY_RESOLUTIONS,
    STREAM_REGION,
    STREAM_UNEVEN_L1,
    STREAM_UNEVEN_L2,
    NoiseParams,
    OcclusionParams,
    UnevenParams,
    add_noise,
    default_region,
    density_variants,
    occlude,
    occlude_with_balls,
    occlusion_balls,
    uneven_density,
)
from treescan.errors import (
    EmptyCloudError,
    InvalidParameterError,
    MissingNormalsError,
    TooFewPointsError,
)
from treescan.rng import uniform, uniform_int
from treescan.scanner import ScanConfig, scan_surface

from .conftest import diagonal_feature


def unit_normal_cloud(n, seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, (n, 3))
    nrm = rng.normal(size=(n, 3))
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    return PointCloud(pts, nrm)


def rotation_about(axis, angle):
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    k = np.array(
        [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
    )
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def moved(cloud, rotation, translation):
    """The cloud under the rigid motion x -> R x + t (normals turn by R)."""
    return PointCloud(cloud.points @ rotation.T + translation, cloud.normals @ rotation.T)


# -- noise -------------------------------------------------------------------


def test_noise_insert_count_and_untouched_prefix():
    cloud = unit_normal_cloud(1003)
    out = add_noise(cloud, NoiseParams(s=0.02, d=10, seed=3))
    assert len(out) == 1003 + 101  # ceil(1003 / 10)
    assert np.array_equal(out.points[:1003], cloud.points)
    assert np.array_equal(out.normals[:1003], cloud.normals)


def test_noise_zero_scale_duplicates_donors():
    cloud = unit_normal_cloud(40)
    out = add_noise(cloud, NoiseParams(s=0.0, d=4, seed=1))
    donors = np.arange(0, 40, 4)
    assert np.array_equal(out.points[40:], cloud.points[donors])
    assert np.array_equal(out.normals[40:], cloud.normals[donors])


def test_noise_single_insert_when_stride_covers_cloud():
    cloud = unit_normal_cloud(25)
    out = add_noise(cloud, NoiseParams(s=0.01, d=25, seed=0))
    assert len(out) == 26


def test_noise_displacement_lies_on_normal_line():
    cloud = unit_normal_cloud(200, seed=7)
    out = add_noise(cloud, NoiseParams(s=0.05, d=5, seed=9))
    donors = np.arange(0, 200, 5)
    disp = out.points[200:] - cloud.points[donors]
    off_axis = np.linalg.norm(np.cross(disp, cloud.normals[donors]), axis=1)
    assert np.max(off_axis) <= 1e-12
    assert np.array_equal(out.normals[200:], cloud.normals[donors])


def test_noise_mean_magnitude_is_half_normal():
    cloud = unit_normal_cloud(20_000, seed=11)
    s = 0.02
    out = add_noise(cloud, NoiseParams(s=s, d=2, seed=5))
    disp = np.linalg.norm(out.points[20_000:] - cloud.points[::2], axis=1)
    expected = s * np.sqrt(2.0 / np.pi)
    assert abs(disp.mean() - expected) / expected <= 0.05


def test_noise_requires_normals():
    with pytest.raises(MissingNormalsError):
        add_noise(PointCloud(np.zeros((5, 3))), NoiseParams())


@pytest.mark.parametrize("kwargs", [{"s": -0.1}, {"d": 0}])
def test_noise_param_validation(kwargs):
    with pytest.raises(InvalidParameterError):
        NoiseParams(**kwargs).validate()


def test_noise_is_deterministic():
    cloud = unit_normal_cloud(64)
    p = NoiseParams(s=0.03, d=7, seed=21)
    assert np.array_equal(add_noise(cloud, p).points, add_noise(cloud, p).points)


def test_noise_commutes_with_rigid_motion():
    cloud = unit_normal_cloud(90, seed=2)
    p = NoiseParams(s=0.04, d=3, seed=13)
    rot = rotation_about([1.0, 2.0, 0.5], 0.8)
    t = np.array([0.3, -1.2, 2.0])
    before = moved(add_noise(cloud, p), rot, t)
    after = add_noise(moved(cloud, rot, t), p)
    assert np.allclose(before.points, after.points, atol=1e-12)
    assert np.allclose(before.normals, after.normals, atol=1e-12)


# -- occlusion -----------------------------------------------------------------


def test_occlusion_zero_balls_is_identity():
    cloud = unit_normal_cloud(100)
    out, balls = occlude(cloud, cloud.bbox(), OcclusionParams(N=0))
    assert balls == []
    assert np.array_equal(out.points, cloud.points)
    assert np.array_equal(out.normals, cloud.normals)


def test_occlusion_survivors_verified_exhaustively():
    cloud = unit_normal_cloud(2000, seed=31)
    p = OcclusionParams(N=2, lam=0.05, seed=4)
    out, balls = occlude(cloud, cloud.bbox(), p)
    assert len(balls) == 2
    keep = np.ones(len(cloud), dtype=bool)
    for center, radius in balls:
        keep &= np.linalg.norm(cloud.points - center, axis=1) >= radius
    assert np.array_equal(out.points, cloud.points[keep])
    assert np.array_equal(out.normals, cloud.normals[keep])
    assert len(out) < len(cloud)  # the balls must actually remove something
    lo, hi = cloud.bbox()
    assert balls[0][1] == pytest.approx(0.05 * np.linalg.norm(hi - lo))


def test_occlusion_ball_centers_are_cloud_points():
    cloud = unit_normal_cloud(300, seed=17)
    balls = occlusion_balls(cloud, cloud.bbox(), OcclusionParams(N=5, lam=0.02, seed=8))
    for center, _ in balls:
        assert np.any(np.all(cloud.points == center, axis=1))


def test_occlusion_total_cover_removes_everything():
    cloud = unit_normal_cloud(50)
    out, _ = occlude(cloud, cloud.bbox(), OcclusionParams(N=3, lam=2.0, seed=0))
    assert len(out) == 0


def test_occlusion_empty_cloud():
    empty = PointCloud(np.zeros((0, 3)))
    with pytest.raises(EmptyCloudError):
        occlusion_balls(empty, (np.zeros(3), np.ones(3)), OcclusionParams(N=1))
    out, balls = occlude(empty, (np.zeros(3), np.ones(3)), OcclusionParams(N=0))
    assert len(out) == 0 and balls == []


def test_occlusion_idempotent_with_recorded_balls():
    cloud = unit_normal_cloud(800, seed=23)
    out, balls = occlude(cloud, cloud.bbox(), OcclusionParams(N=2, lam=0.06, seed=6))
    again = occlude_with_balls(out, balls)
    assert np.array_equal(again.points, out.points)


@pytest.mark.parametrize("kwargs", [{"N": -1}, {"lam": 0.0}, {"lam": -0.5}])
def test_occlusion_param_validation(kwargs):
    with pytest.raises(InvalidParameterError):
        OcclusionParams(**kwargs).validate()


def test_occlusion_commutes_under_translation():
    cloud = unit_normal_cloud(400, seed=3)
    p = OcclusionParams(N=3, lam=0.05, seed=12)
    t = np.array([5.0, -2.0, 1.0])
    lo, hi = cloud.bbox()
    base, _ = occlude(cloud, (lo, hi), p)
    shifted, _ = occlude(
        PointCloud(cloud.points + t, cloud.normals), (lo + t, hi + t), p
    )
    assert np.array_equal(shifted.points, base.points + t)


# -- uneven density ----------------------------------------------------------------


def test_uneven_without_a_region_uses_the_default_region():
    cloud = unit_normal_cloud(2000)
    p = UnevenParams(r=0.2, seed=9)
    out = uneven_density(cloud, p)
    want = uneven_density(cloud, replace(p, region=default_region(cloud, p.seed)))
    assert len(out) > len(cloud)
    assert np.array_equal(out.points, want.points) and np.array_equal(out.normals, want.normals)


def test_uneven_disjoint_region_is_identity():
    cloud = unit_normal_cloud(120)
    region = (np.array([50.0, 50.0, 50.0]), np.array([51.0, 51.0, 51.0]))
    diag: dict = {}
    out = uneven_density(cloud, UnevenParams(region=region, r=0.1), diagnostics=diag)
    assert np.array_equal(out.points, cloud.points)
    assert diag["inserted"] == 0


def test_uneven_full_region_doubles_dense_cloud():
    rng = np.random.default_rng(41)
    pts = rng.uniform(0.0, 1.0, (800, 3))
    cloud = PointCloud(pts)
    region = (np.full(3, -1.0), np.full(3, 2.0))
    diag: dict = {}
    out = uneven_density(cloud, UnevenParams(region=region, r=0.2), diagnostics=diag)
    assert diag["skipped"] == 0
    assert diag["inserted"] == 800
    assert len(out) == 1600
    assert np.array_equal(out.points[:800], pts)


def test_uneven_colinear_cloud_inserts_along_the_line():
    region = (np.array([-1.0, -1.0, -1.0]), np.array([2.0, 3.0, 2.0]))
    lines = [
        ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), np.arange(60) * 0.01, 0.05, 2),
        # off the axes, S_D would be whatever LAPACK returns across the line
        ((0.5, 2.0, 0.0), (0.36, -0.48, 0.8), np.linspace(0.0, 1.0, 41), 0.1, 8),
    ]
    for origin, direction, t, r, seed in lines:
        direction = np.asarray(direction)
        pts = np.asarray(origin) + t[:, None] * direction
        n = len(pts)
        diag: dict = {}
        out = uneven_density(PointCloud(pts), UnevenParams(region=region, r=r, seed=seed), diagnostics=diag)
        assert diag["inserted"] == n
        assert diag["degenerate"] >= 1
        disp = out.points[n:] - pts
        along = disp @ direction
        perp = np.linalg.norm(disp - along[:, None] * direction, axis=1)
        assert np.max(np.abs(along)) <= r / 2 + 1e-12
        assert np.max(perp) <= 1e-12

        # independent check of the leading principal direction at an interior point
        i = n // 2
        nbr = np.flatnonzero(np.linalg.norm(pts - pts[i], axis=1) <= r)
        centered = pts[nbr] - pts[nbr].mean(axis=0)
        _, vecs = np.linalg.eigh(centered.T @ centered / len(nbr))
        assert abs(vecs[:, 2] @ direction) >= 1.0 - 1e-9


def test_uneven_region_bounds_are_inclusive():
    # donor sits exactly on the region's hi corner; its neighbors are outside
    corner = np.array([1.0, 1.0, 1.0])
    shifts = np.array(
        [[0.01, 0.0, 0.0], [0.0, 0.01, 0.0], [0.0, 0.0, 0.01], [0.01, 0.01, 0.0]]
    )
    cloud = PointCloud(np.vstack([corner, corner + shifts]))
    region = (np.zeros(3), corner)
    diag: dict = {}
    out = uneven_density(cloud, UnevenParams(region=region, r=0.1), diagnostics=diag)
    assert diag["inserted"] == 1
    assert len(out) == 6


def test_uneven_sparse_donors_are_skipped():
    pts = np.array([[0.5, 0.5, 0.5], [10.0, 0.0, 0.0], [11.0, 0.0, 0.0], [12.0, 0.0, 0.0]])
    region = (np.zeros(3), np.ones(3))
    diag: dict = {}
    out = uneven_density(PointCloud(pts), UnevenParams(region=region, r=0.05), diagnostics=diag)
    assert diag["skipped"] == 1
    assert diag["inserted"] == 0
    assert len(out) == 4


@pytest.mark.parametrize(
    "kwargs",
    [
        {"r": 0.0},
        {"r": -1.0},
        {"region": (np.zeros(3), np.zeros(3)), "r": 0.1},
        {"region": (np.zeros(3), np.ones(3)), "r": 0.1, "lambda1_range": (0.5, -0.5)},
        {"region": (np.zeros(3), np.ones(3)), "r": 0.1, "lambda2_range": (0.5, -0.5)},
    ],
)
def test_uneven_param_validation(kwargs):
    with pytest.raises(InvalidParameterError):
        UnevenParams(**kwargs).validate()


def test_uneven_is_deterministic():
    cloud = unit_normal_cloud(300, seed=19)
    p = UnevenParams(region=(np.full(3, -1.0), np.ones(3)), r=0.15, seed=77)
    assert np.array_equal(uneven_density(cloud, p).points, uneven_density(cloud, p).points)


def test_uneven_translation_equivariance():
    cloud = unit_normal_cloud(250, seed=29)
    t = np.array([3.0, -4.0, 5.0])
    region = (np.full(3, -1.0), np.ones(3))
    p = UnevenParams(region=region, r=0.15, seed=5)
    p_shift = replace(p, region=(region[0] + t, region[1] + t))
    base = uneven_density(cloud, p)
    shifted = uneven_density(PointCloud(cloud.points + t, cloud.normals), p_shift)
    assert len(base) == len(shifted)
    assert np.allclose(shifted.points, base.points + t, atol=1e-9)


def test_uneven_inherits_donor_normals():
    cloud = unit_normal_cloud(200, seed=37)
    p = UnevenParams(region=(np.full(3, -2.0), np.full(3, 2.0)), r=0.3, seed=1)
    diag: dict = {}
    out = uneven_density(cloud, p, diagnostics=diag)
    assert diag["inserted"] > 0
    assert out.has_normals()
    assert np.array_equal(out.normals[: len(cloud)], cloud.normals)


def loop_uneven(cloud, p):
    """Reference uneven density: one ball query, eigh and pair of draws per point."""
    lo, hi = np.asarray(p.region[0]), np.asarray(p.region[1])
    lam1_lo, lam1_hi = p.lambda1_range if p.lambda1_range is not None else (-p.r / 2, p.r / 2)
    lam2_lo, lam2_hi = p.lambda2_range if p.lambda2_range is not None else (-p.r / 2, p.r / 2)
    in_region = np.all((cloud.points >= lo) & (cloud.points <= hi), axis=1)
    tree = cKDTree(cloud.points)
    diag = {"degenerate": 0, "skipped": 0}
    donors, inserts = [], []
    for i in np.flatnonzero(in_region):
        nbr = tree.query_ball_point(cloud.points[i], p.r)
        if len(nbr) < 4:
            diag["skipped"] += 1
            continue
        neigh = cloud.points[nbr]
        centroid = neigh.mean(axis=0)
        centered = neigh - centroid
        vals, vecs = np.linalg.eigh(centered.T @ centered / len(nbr))
        pd, sd = vecs[:, 2], vecs[:, 1]
        colinear = vals[1] <= 1e-12 * vals[2]  # no second direction: insert on the line
        offset = cloud.points[i] - centroid
        flipped = False
        for v in (pd,) if colinear else (pd, sd):
            d = float(v @ offset)
            if abs(d) > 1e-12 * p.r:
                if d < 0.0:
                    v *= -1.0
            else:
                big = np.flatnonzero(np.abs(v) > 1e-12)
                if len(big) and v[big[0]] < 0.0:
                    v *= -1.0
                flipped = True
        diag["degenerate"] += flipped
        lam1 = lam1_lo + float(uniform(p.seed, STREAM_UNEVEN_L1, i)) * (lam1_hi - lam1_lo)
        lam2 = lam2_lo + float(uniform(p.seed, STREAM_UNEVEN_L2, i)) * (lam2_hi - lam2_lo)
        donors.append(i)
        inserts.append(cloud.points[i] + lam1 * pd + (0.0 if colinear else lam2 * sd))
    diag["inserted"] = len(inserts)
    return np.array(inserts).reshape(-1, 3), cloud.normals[np.array(donors, dtype=int)], diag


def test_uneven_matches_the_per_point_loop():
    rng = np.random.default_rng(53)
    plane = np.column_stack([rng.uniform(0.0, 1.0, (400, 2)), 0.02 * rng.normal(size=400)])
    line = np.column_stack([np.linspace(0.0, 1.0, 41), np.full(41, 2.0), np.zeros(41)])
    sparse = rng.uniform(0.0, 1.0, (30, 3)) * [1.0, 1.0, 10.0] + [0.0, 4.0, 0.0]
    # tilted stars: the centre sits on its neighbourhood's centroid, so both
    # axes take the fallback sign, and the spreads keep the axes well defined
    stars = []
    for x in np.linspace(0.3, 0.8, 6):
        axes = np.linalg.qr(rng.normal(size=(3, 3)))[0].T * [[0.04], [0.02], [0.01]]
        stars.append(np.concatenate([np.zeros((1, 3)), axes, -axes]) + [x, 3.0, 0.0])
    pts = np.concatenate([plane, line, sparse, *stars])
    nrm = rng.normal(size=pts.shape)
    cloud = PointCloud(pts, nrm / np.linalg.norm(nrm, axis=1, keepdims=True))
    region = (np.array([0.2, -1.0, -1.0]), np.array([0.9, 5.0, 10.0]))
    p = UnevenParams(region=region, r=0.1, lambda1_range=(-0.03, 0.01), seed=8)
    diag: dict = {}
    out = uneven_density(cloud, p, diagnostics=diag)
    inserts, normals, expected = loop_uneven(cloud, p)
    assert diag == expected
    assert diag["skipped"] > 0 and diag["degenerate"] > 0 and diag["inserted"] > diag["degenerate"]
    assert np.array_equal(out.points[: len(pts)], pts)
    assert np.allclose(out.points[len(pts) :], inserts, rtol=0.0, atol=1e-12)
    assert np.array_equal(out.normals, np.concatenate([cloud.normals, normals]))


def test_default_region_is_a_30_percent_box():
    cloud = unit_normal_cloud(200, seed=4)
    lo, hi = default_region(cloud, seed=123)
    bbox_lo, bbox_hi = cloud.bbox()
    assert np.allclose(hi - lo, 0.3 * (bbox_hi - bbox_lo), rtol=0.0, atol=1e-12)
    # centred on its seeded cloud point, which it therefore holds
    center = cloud.points[uniform_int(123, STREAM_REGION, 0, 0, len(cloud) - 1)]
    assert np.allclose((lo + hi) / 2.0, center, rtol=0.0, atol=1e-12)
    assert np.all((lo <= center) & (center <= hi))
    lo2, hi2 = default_region(cloud, seed=123)
    assert np.array_equal(lo, lo2) and np.array_equal(hi, hi2)
    lo3, hi3 = default_region(cloud, seed=124)
    assert not (np.array_equal(lo, lo3) and np.array_equal(hi, hi3))
    with pytest.raises(EmptyCloudError):
        default_region(PointCloud(np.zeros((0, 3))), seed=0)


def test_default_region_is_valid_on_an_axis_with_no_extent():
    # every point shares the coordinate of such an axis, so the box holds
    # them all there, and it keeps its 30 % on the other axes
    solid = unit_normal_cloud(200, seed=4)
    planar = PointCloud(solid.points * [1.0, 1.0, 0.0], solid.normals)
    lo, hi = default_region(planar, seed=123)
    solid_lo, solid_hi = default_region(solid, seed=123)
    assert np.array_equal(lo[:2], solid_lo[:2]) and np.array_equal(hi[:2], solid_hi[:2])
    assert lo[2] < 0.0 < hi[2]
    UnevenParams(region=(lo, hi)).validate()
    assert len(uneven_density(planar, UnevenParams(r=0.2, seed=123))) > len(planar)
    point = PointCloud(np.array([[0.5, -1.0, 2.0]]))
    lo, hi = default_region(point, seed=0)
    assert np.all(lo < point.points[0]) and np.all(point.points[0] < hi)
    assert len(uneven_density(point, UnevenParams())) == 1


# -- density variants -----------------------------------------------------------------


@pytest.fixture(scope="module")
def direct_scans(sphere_surface_320):
    """scan_surface of sphere_surface_320 by (resolution, standoff, normal mode), two views."""
    feature = diagonal_feature(sphere_surface_320)
    return {
        (res, standoff, mode): scan_surface(
            sphere_surface_320, ScanConfig(resolution=res, views=2, standoff=standoff, normal_mode=mode), feature
        )
        for res in DENSITY_RESOLUTIONS
        for standoff in (1.5, 1.1)
        for mode in ("analytic", "pca-mst")
    }


@pytest.mark.parametrize("mode", ["analytic", "pca-mst"])
@pytest.mark.parametrize("standoff", [1.5, 1.1])
@pytest.mark.parametrize("clean_resolution", [None, 100, 150])
def test_density_variants_are_the_direct_scans(sphere_surface_320, direct_scans, mode, standoff, clean_resolution):
    # resolution 50 is picked out of the 150 march unless the clean scan is
    # at 150; either way every variant has the bits of a scan at its
    # resolution
    feature = diagonal_feature(sphere_surface_320)
    base = ScanConfig(resolution=clean_resolution or 100, views=2, standoff=standoff, normal_mode=mode)
    clean = None if clean_resolution is None else direct_scans[clean_resolution, standoff, mode]
    variants = density_variants(sphere_surface_320, base, feature, clean=clean)
    assert len(variants[0]) >= 80
    for res, cloud in zip(DENSITY_RESOLUTIONS, variants):
        want = direct_scans[res, standoff, mode]
        assert np.array_equal(cloud.points, want.points)
        assert np.array_equal(cloud.normals, want.normals)


def test_a_pca_mst_density_scan_too_small_for_its_normals_refuses(monkeypatch, sphere_surface_320):
    # resolution 5 is picked out of the 15 march: its 25 hits take PCA
    # normals, and the one hit at 5 is too few, as in a scan at 5
    monkeypatch.setattr(degrade, "DENSITY_RESOLUTIONS", (5, 10, 15))
    feature = diagonal_feature(sphere_surface_320)
    cfg = ScanConfig(resolution=10, views=1, normal_mode="pca-mst")
    with pytest.raises(TooFewPointsError):
        scan_surface(sphere_surface_320, replace(cfg, resolution=5), feature)
    with pytest.raises(TooFewPointsError):
        density_variants(sphere_surface_320, cfg, feature)
    analytic = replace(cfg, normal_mode="analytic")
    variants = density_variants(sphere_surface_320, analytic, feature)
    assert len(variants[0]) == 1 and len(variants[2]) >= 16
    for res, cloud in zip((5, 10, 15), variants):
        want = scan_surface(sphere_surface_320, replace(analytic, resolution=res), feature)
        assert np.array_equal(cloud.points, want.points) and np.array_equal(cloud.normals, want.normals)


def test_density_variants_counts_increase(sphere_surface_320):
    base = ScanConfig(resolution=100, views=2)
    feature = diagonal_feature(sphere_surface_320)
    low, mid, high = density_variants(sphere_surface_320, base, feature)
    assert len(low) < len(mid) < len(high)
    direct = scan_surface(sphere_surface_320, replace(base, resolution=DENSITY_RESOLUTIONS[1]), feature)
    assert np.array_equal(mid.points, direct.points)
