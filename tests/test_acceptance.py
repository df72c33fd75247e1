"""End-to-end acceptance checks.

Each test prints exactly one PASS/FAIL line (run with `pytest -s` to see
them) and then asserts, so a red criterion is visible both in the printed
summary and in the pytest report. Tolerances and counts are fixed here on
purpose; loosening them is not an option.

The two timed checks (criteria 1 and 10) carry generous wall-clock budgets
sized for a small desktop machine; this container has a single core, so the
measured times reported in the printed lines are pessimistic.
"""

import json
import time
from pathlib import Path

import numpy as np

from treescan import (
    FitConfig,
    NoiseParams,
    OcclusionParams,
    PipelineConfig,
    PointCloud,
    ScanConfig,
    TreeParams,
    UnevenParams,
    add_noise,
    batch,
    build_surface,
    density_variants,
    directed_hausdorff,
    generate_skeleton,
    hausdorff,
    icosphere,
    occlude,
    run_pipeline,
    sample_skeleton,
    scan_surface,
    uneven_density,
)

from .conftest import diagonal_feature, fibonacci_sphere


def report(num, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nCRITERION {num:2d} [{label}]: {status} ({detail})")
    assert ok, f"criterion {num} ({label}): {detail}"


def digest_map(output_dir):
    """role -> sha256 for every data artifact a pipeline run wrote."""
    manifest = json.loads((Path(output_dir) / "manifest.json").read_text())
    return {entry["role"]: entry["sha256"] for entry in manifest["files"]}


def test_criterion_01_sphere_fit_and_scan_accuracy():
    # cold build: the clock covers meshing, fitting and all six views
    t0 = time.perf_counter()
    mesh = icosphere(subdivisions=3, radius=1.0)
    surface = build_surface(mesh, FitConfig())
    cloud = scan_surface(surface, ScanConfig(resolution=100, views=6), diagonal_feature(surface))
    elapsed = time.perf_counter() - t0

    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    diag = float(np.linalg.norm(hi - lo))
    eps_ok = abs(surface.epsilon - 0.005 * diag) <= 1e-12 * diag

    radial_err = np.abs(np.linalg.norm(cloud.points, axis=1) - 1.0)
    frac = float(np.mean(radial_err <= 5e-3))
    ok = eps_ok and len(cloud) > 0 and frac >= 0.99 and elapsed <= 60.0
    report(
        1,
        "sphere fit+scan",
        ok,
        f"{frac:.2%} of {len(cloud)} points within 5e-3, "
        f"max err {radial_err.max():.2e}, {elapsed:.1f}s of 60s budget",
    )


def test_criterion_02_cylinder_radial_accuracy(cylinder_surface):
    cloud = scan_surface(cylinder_surface, ScanConfig(), min_feature=0.1)
    z = cloud.points[:, 2]
    band = (z >= 0.05) & (z <= 0.95)  # drop 5% end bands: caps dominate there
    rad = np.hypot(cloud.points[band, 0], cloud.points[band, 1])
    err = np.abs(rad - 0.1)
    frac = float(np.mean(err <= 5e-3))
    ok = band.sum() > 0 and frac >= 0.99
    report(
        2,
        "cylinder radial distance",
        ok,
        f"{frac:.2%} of {int(band.sum())} band points within 5e-3 of r=0.1, "
        f"max err {err.max():.2e}",
    )


def test_criterion_03_gradient_matches_central_differences(sphere_surface):
    h = 1e-5 * sphere_surface.bbox_diagonal()
    rng = np.random.default_rng(617)

    pts = np.empty((0, 3))
    while len(pts) < 1000:
        dirs = rng.normal(size=(4000, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        batch_pts = dirs * rng.uniform(0.93, 1.07, size=(4000, 1))
        # keep points whose entire 6-probe stencil stays covered
        probes = batch_pts[:, None, :] + h * np.vstack([np.eye(3), -np.eye(3)])
        stencil = np.concatenate([batch_pts[:, None, :], probes], axis=1)
        vals = sphere_surface.eval_many(stencil.reshape(-1, 3)).reshape(len(batch_pts), 7)
        pts = np.vstack([pts, batch_pts[np.isfinite(vals).all(axis=1)]])
    pts = pts[:1000]

    analytic = sphere_surface.gradient_many(pts)
    fd = np.empty_like(analytic)
    for axis in range(3):
        step = np.zeros(3)
        step[axis] = h
        fd[:, axis] = (
            sphere_surface.eval_many(pts + step) - sphere_surface.eval_many(pts - step)
        ) / (2.0 * h)

    norms = np.linalg.norm(analytic, axis=1)
    big = norms > 1e-6
    rel = np.linalg.norm(fd[big] - analytic[big], axis=1) / norms[big]
    ok = big.sum() > 0 and float(rel.max()) <= 1e-4
    report(
        3,
        "analytic gradient vs finite differences",
        ok,
        f"{int(big.sum())}/1000 points above the norm floor, "
        f"max rel err {rel.max():.2e} (limit 1e-4)",
    )


def test_criterion_04_resolution_scaling(sphere_surface):
    variants = density_variants(sphere_surface, ScanConfig(), diagonal_feature(sphere_surface))
    counts = [len(v) for v in variants]
    ratio = counts[2] / counts[0]
    ok = counts[0] < counts[1] < counts[2] and 4.0 <= ratio <= 12.0
    report(
        4,
        "scan density scaling",
        ok,
        f"counts {counts[0]}/{counts[1]}/{counts[2]}, 150-vs-50 ratio {ratio:.2f}",
    )


def test_criterion_05_noise_insertion_statistics():
    pts = fibonacci_sphere(100_000)
    cloud = PointCloud(pts, normals=pts.copy())  # unit radial normals

    out = add_noise(cloud, NoiseParams(s=0.02, d=10, seed=5))
    inserted = out.points[100_000:]
    donors = pts[::10]
    count_ok = len(out) == 110_000 and len(inserted) == 10_000

    disp = np.linalg.norm(inserted - donors, axis=1)
    mean_disp = float(disp.mean())
    target = 0.02 * np.sqrt(2.0 / np.pi)  # mean of |N(0, s^2)|
    mean_ok = abs(mean_disp - target) <= 0.1 * target

    silent = add_noise(cloud, NoiseParams(s=0.0, d=10, seed=5))
    zero_ok = np.array_equal(silent.points[100_000:], donors)

    ok = count_ok and mean_ok and zero_ok
    report(
        5,
        "normal-jitter insertion",
        ok,
        f"inserted {len(inserted)}, mean displacement {mean_disp:.5f} "
        f"vs {target:.5f}, s=0 exact: {zero_ok}",
    )


def test_criterion_06_occlusion_removes_exhaustively(sphere_scan):
    params = OcclusionParams(N=2, lam=0.05, seed=9)
    out, balls = occlude(sphere_scan, sphere_scan.bbox(), params)

    survivors_ok = all(
        np.all(np.linalg.norm(out.points - center, axis=1) >= radius)
        for center, radius in balls
    )
    keep = np.ones(len(sphere_scan), dtype=bool)
    for center, radius in balls:
        keep &= np.linalg.norm(sphere_scan.points - center, axis=1) >= radius
    subset_ok = np.array_equal(out.points, sphere_scan.points[keep])
    removed = len(sphere_scan) - len(out)

    identity, no_balls = occlude(sphere_scan, sphere_scan.bbox(), OcclusionParams(N=0, lam=0.05))
    identity_ok = (
        no_balls == []
        and np.array_equal(identity.points, sphere_scan.points)
        and np.array_equal(identity.normals, sphere_scan.normals)
    )

    ok = len(balls) == 2 and removed > 0 and survivors_ok and subset_ok and identity_ok
    report(
        6,
        "ball occlusion",
        ok,
        f"2 balls removed {removed} points, zero inside-ball survivors: "
        f"{survivors_ok}, N=0 identity: {identity_ok}",
    )


def test_criterion_07_uneven_density_locality():
    rng = np.random.default_rng(77)
    near = rng.uniform(-0.5, 0.5, size=(2000, 3))
    far = rng.uniform(-0.5, 0.5, size=(2000, 3)) + np.array([5.0, 0.0, 0.0])
    pts = np.vstack([near, far])
    cloud = PointCloud(pts)

    # region covers the near cluster with margin far beyond the largest
    # possible insert displacement (r/sqrt(2))
    region = ((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))
    out = uneven_density(cloud, UnevenParams(region=region, r=0.05, seed=3))

    def in_box(p, box):
        lo, hi = np.asarray(box[0]), np.asarray(box[1])
        return np.all((p >= lo) & (p <= hi), axis=1)

    outside_before = pts[~in_box(pts, region)]
    outside_after = out.points[~in_box(out.points, region)]
    locality_ok = np.array_equal(outside_after, outside_before)
    grew = len(out) > len(pts)

    # full-region case: every neighborhood is populated, count doubles
    full = (pts.min(axis=0) - 0.6, pts.max(axis=0) + 0.6)
    diag = {}
    doubled = uneven_density(
        cloud, UnevenParams(region=tuple(full), r=0.3, seed=4), diagnostics=diag
    )
    double_ok = (
        len(doubled) == 2 * len(pts)
        and diag["skipped"] == 0
        and diag["degenerate"] == 0
    )

    ok = locality_ok and grew and double_ok
    report(
        7,
        "resampling locality",
        ok,
        f"complement untouched: {locality_ok}, region added "
        f"{len(out) - len(pts)} points, full-region doubled "
        f"{len(pts)} -> {len(doubled)}",
    )


def test_criterion_08_hausdorff_exactness():
    rng = np.random.default_rng(123)

    def brute_directed(a, b):
        d = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1))
        return float(d.min(axis=1).max())

    pairs_ok = True
    for _ in range(100):
        n, m = rng.integers(1, 501, size=2)
        a = rng.normal(size=(n, 3)) * rng.uniform(0.1, 10.0)
        b = rng.normal(size=(m, 3)) * rng.uniform(0.1, 10.0) + rng.normal(size=3)
        if directed_hausdorff(a, b) != brute_directed(a, b):
            pairs_ok = False
            break

    x = rng.normal(size=(400, 3))
    self_ok = hausdorff(x, x) == 0.0

    tree = generate_skeleton(TreeParams.preset("small", seed=4))
    g = sample_skeleton(tree, spacing=0.05).points
    trans_ok = True
    for t in (np.array([0.3, -0.4, 1.2]), rng.normal(size=3), rng.normal(size=3)):
        if abs(hausdorff(g, g + t) - np.linalg.norm(t)) > 1e-9:
            trans_ok = False

    axioms_ok = True
    for _ in range(1000):
        sizes = rng.integers(1, 61, size=3)
        a, b, c = (rng.normal(size=(k, 3)) for k in sizes)
        ab, bc, ac = hausdorff(a, b), hausdorff(b, c), hausdorff(a, c)
        if ab < 0.0 or ab != hausdorff(b, a) or hausdorff(a, a) != 0.0:
            axioms_ok = False
            break
        if ac > ab + bc + 1e-9:
            axioms_ok = False
            break

    ok = pairs_ok and self_ok and trans_ok and axioms_ok
    report(
        8,
        "hausdorff exactness",
        ok,
        f"100 brute-force pairs exact: {pairs_ok}, self-distance zero: "
        f"{self_ok}, translation norm: {trans_ok}, 1000 axiom triples: {axioms_ok}",
    )


ALL_DEGRADATIONS = [
    {"kind": "noise", "s": 0.01, "d": 10},
    {"kind": "occlusion", "N": 2, "lambda": 0.05},
    {"kind": "uneven", "r": 0.05},
    {"kind": "density"},
]


def test_criterion_09_pipeline_determinism(tmp_path):
    # resolution 60 / 4 views keeps four medium runs affordable on one core
    # without skipping any stage; determinism is what is under test here
    scan = ScanConfig(resolution=60, views=4)

    def medium(out):
        return PipelineConfig(
            tree=TreeParams.preset("medium"),
            scan=scan,
            degradations=[dict(d) for d in ALL_DEGRADATIONS],
            output_dir=str(out),
            name="medium",
            master_seed=99,
        )

    def small(out):
        return PipelineConfig(
            tree=TreeParams.preset("small"),
            scan=scan,
            degradations=[dict(d) for d in ALL_DEGRADATIONS],
            output_dir=str(out),
            name="small",
            master_seed=99,
        )

    run_pipeline(medium(tmp_path / "a"))
    run_pipeline(medium(tmp_path / "b"))
    twice_ok = digest_map(tmp_path / "a") == digest_map(tmp_path / "b")

    # a second model makes the 8-worker batch actually fan out
    _, failed1 = batch(
        [medium(tmp_path / "w1" / "med"), small(tmp_path / "w1" / "small")], workers=1
    )
    _, failed8 = batch(
        [medium(tmp_path / "w8" / "med"), small(tmp_path / "w8" / "small")], workers=8
    )
    medium_maps = [
        digest_map(tmp_path / "a"),
        digest_map(tmp_path / "w1" / "med"),
        digest_map(tmp_path / "w8" / "med"),
    ]
    workers_ok = (
        not failed1
        and not failed8
        and all(m == medium_maps[0] for m in medium_maps)
        and digest_map(tmp_path / "w1" / "small") == digest_map(tmp_path / "w8" / "small")
    )

    n_artifacts = len(digest_map(tmp_path / "a"))
    ok = twice_ok and workers_ok
    report(
        9,
        "pipeline determinism",
        ok,
        f"{n_artifacts} artifacts per run, repeat run identical: {twice_ok}, "
        f"1 vs 8 workers identical: {workers_ok}",
    )


def test_criterion_10_small_batch_throughput(tmp_path):
    configs = [
        PipelineConfig(
            tree=TreeParams.preset("small"),
            degradations=[dict(d) for d in ALL_DEGRADATIONS],
            output_dir=str(tmp_path / f"model{s:02d}"),
            name=f"small{s:02d}",
            master_seed=s,
        )
        for s in range(10)
    ]
    t0 = time.perf_counter()
    records, failed = batch(configs)
    elapsed = time.perf_counter() - t0

    ok = (
        not failed
        and len(records) == 10
        and all(r["ok"] for r in records)
        and elapsed <= 600.0
    )
    report(
        10,
        "small-model batch throughput",
        ok,
        f"10 models with all degradations in {elapsed:.1f}s of 600s budget",
    )
