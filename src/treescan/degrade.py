"""Controlled point-cloud degradations.

Four kinds, always derived from the clean cloud: density (rescanning at
another resolution), Gaussian noise along normals, occlusion balls, and
locally uneven density via PCA-guided insertion.

All randomness is counter-based: value = hash(seed, stream, point index).
Nothing depends on evaluation order or on how work is split across workers,
and noise offsets depend only on (seed, index), so degrading a rigidly
moved cloud gives the rigidly moved degraded cloud.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .cloud import PointCloud
from .errors import EmptyCloudError, InvalidParameterError, MissingNormalsError
from .geometry import principal_axes, tree_order_neighbours
from .rng import normal, uniform, uniform_int
from .scanner import ScanConfig, ViewScan, merge_views, scan_surface, scan_views

# stream ids; fixed so seeds stay decoupled between degradation kinds
STREAM_NOISE = 1
STREAM_OCCLUSION_PICK = 2
STREAM_UNEVEN_L1 = 3
STREAM_UNEVEN_L2 = 4
STREAM_REGION = 5

DENSITY_RESOLUTIONS = (50, 100, 150)


@dataclass
class NoiseParams:
    s: float = 0.02
    d: int = 10
    seed: int = 0

    def validate(self) -> None:
        if self.s < 0.0:
            raise InvalidParameterError("s must be non-negative")
        if self.d < 1:
            raise InvalidParameterError("d must be >= 1")


@dataclass
class OcclusionParams:
    N: int = 2
    lam: float = 0.05
    seed: int = 0

    def validate(self) -> None:
        if self.N < 0:
            raise InvalidParameterError("N must be >= 0")
        if not self.lam > 0.0:
            raise InvalidParameterError("lambda must be positive")


@dataclass
class UnevenParams:
    # (lo x,y,z), (hi x,y,z); None = seeded default
    region: tuple[tuple[float, float, float], tuple[float, float, float]] | None = None
    r: float = 0.05
    lambda1_range: tuple[float, float] | None = None  # None = [-r/2, r/2]
    lambda2_range: tuple[float, float] | None = None
    seed: int = 0

    def validate(self) -> None:
        if not self.r > 0.0:
            raise InvalidParameterError("r must be positive")
        if self.region is not None:
            if len(self.region) != 2 or any(len(corner) != 3 for corner in self.region):
                raise InvalidParameterError("region must be a (lo, hi) pair of 3-vectors")
            lo, hi = np.asarray(self.region[0]), np.asarray(self.region[1])
            if not np.all(hi > lo):
                raise InvalidParameterError("region must have positive extent on every axis")
        for rng_ in (self.lambda1_range, self.lambda2_range):
            if rng_ is not None and not (len(rng_) == 2 and rng_[1] >= rng_[0]):
                raise InvalidParameterError("lambda ranges must be ordered (lo, hi) pairs")


def add_noise(cloud: PointCloud, p: NoiseParams) -> PointCloud:
    """Insert a noisy copy of every d-th point, displaced along its normal.

    Donors are indices 0, d, 2d, ...; each inserted point is
    q_i + G_i * s * n_i with G_i standard normal drawn by donor index, so
    the insert count is ceil(|Q|/d) and originals are kept untouched.
    """
    p.validate()
    if not cloud.has_normals():
        raise MissingNormalsError("add_noise needs normals")
    n = len(cloud)
    donors = np.arange(0, n, p.d)
    g = normal(p.seed, STREAM_NOISE, donors)
    inserted = cloud.points[donors] + (g * p.s)[:, None] * cloud.normals[donors]
    points = np.concatenate([cloud.points, inserted], axis=0)
    normals = np.concatenate([cloud.normals, cloud.normals[donors]], axis=0)
    return PointCloud(points, normals)


def occlusion_balls(cloud: PointCloud, bbox, p: OcclusionParams) -> list[tuple[np.ndarray, float]]:
    """The seeded ball list: centers are cloud points, radius = lam * |extent|."""
    p.validate()
    if p.N == 0:
        return []
    if len(cloud) == 0:
        raise EmptyCloudError("cannot place occlusion balls on an empty cloud")
    lo = np.asarray(bbox[0], dtype=np.float64)
    hi = np.asarray(bbox[1], dtype=np.float64)
    radius = p.lam * float(np.linalg.norm(hi - lo))
    picks = uniform_int(p.seed, STREAM_OCCLUSION_PICK, np.arange(p.N), 0, len(cloud) - 1)
    return [(cloud.points[i].copy(), radius) for i in picks]


def occlude_with_balls(cloud: PointCloud, balls) -> PointCloud:
    """Drop points strictly inside any ball; survivors keep their order."""
    if not balls:
        return PointCloud(cloud.points.copy(), None if cloud.normals is None else cloud.normals.copy())
    keep = np.ones(len(cloud), dtype=bool)
    for center, radius in balls:
        d = np.linalg.norm(cloud.points - np.asarray(center), axis=1)
        keep &= d >= radius
    normals = cloud.normals[keep] if cloud.has_normals() else None
    return PointCloud(cloud.points[keep], normals)


def occlude(cloud: PointCloud, bbox, p: OcclusionParams):
    """Remove the interiors of N seeded balls.

    Returns (cloud, balls); the ball list goes into the dataset manifest and
    feeds occlude_with_balls for idempotence checks.
    """
    balls = occlusion_balls(cloud, bbox, p)
    return occlude_with_balls(cloud, balls), balls


def default_region(cloud: PointCloud, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded box spanning 30% of each axis of the cloud's bbox, centred on a cloud point."""
    lo, hi = cloud.bbox()
    center = cloud.points[uniform_int(seed, STREAM_REGION, 0, 0, len(cloud) - 1)]
    half = np.where(hi > lo, 0.15 * (hi - lo), 1.0)  # an axis with no extent: any width holds every point
    return center - half, center + half


def uneven_density(cloud: PointCloud, p: UnevenParams, diagnostics: dict | None = None) -> PointCloud:
    """Thicken a box region by inserting one PCA-jittered copy per point.

    The region is p.region, or `default_region(cloud, p.seed)` when that is
    None. Each in-region point with at least 3 other points within radius r
    gets a companion at q + lambda1*P_D + lambda2*S_D, where P_D/S_D are the
    two leading principal directions of its neighborhood (self included)
    and lambda1/lambda2 are drawn per point index. Points elsewhere, and
    points with too few neighbors, pass through untouched.

    Principal directions get a geometric sign: positive dot with the offset
    of the point from its neighborhood centroid. That keeps the operation
    equivariant under rigid motion. When the offset is (numerically)
    perpendicular to the eigenvector, the sign falls back to making the
    first non-negligible component positive, and the point is counted as
    degenerate in diagnostics. A colinear neighborhood (two vanishing
    eigenvalues) has no S_D, so its point's companion lies on the line:
    q + lambda1*P_D.
    """
    p.validate()
    region = p.region if p.region is not None else default_region(cloud, p.seed)
    lo, hi = (np.asarray(corner, dtype=np.float64) for corner in region)
    lam1_lo, lam1_hi = p.lambda1_range if p.lambda1_range is not None else (-p.r / 2, p.r / 2)
    lam2_lo, lam2_hi = p.lambda2_range if p.lambda2_range is not None else (-p.r / 2, p.r / 2)

    points = cloud.points
    # donors come in k-d tree order, chunk by chunk; each chunk's balls
    # become arrays before the next is queried, and inserts are put back in
    # index order
    inside = np.all((points >= lo) & (points <= hi), axis=1)
    parts = [(np.empty(0, dtype=np.intp), np.empty((0, 3)), np.empty((0, 3)), np.empty((0, 3, 3)))]
    skipped = 0
    for rows, balls in tree_order_neighbours(points, r=p.r, where=inside):
        sizes = np.fromiter(map(len, balls), dtype=np.intp, count=len(balls))
        flat = np.fromiter(chain.from_iterable(balls), dtype=np.intp, count=int(sizes.sum()))
        del balls
        enough = sizes >= 4  # self plus at least 3 others
        skipped += int(np.count_nonzero(~enough))
        starts = np.cumsum(sizes[enough]) - sizes[enough]
        parts.append((rows[enough], *principal_axes(points, flat[np.repeat(enough, sizes)], starts)))
    donors, centroids, eigvals, eigvecs = (np.concatenate(part) for part in zip(*parts))

    # columns: leading (P_D) then second (S_D) principal direction
    axes = eigvecs[:, :, [2, 1]]
    # a colinear neighbourhood has no second direction: S_D would be any unit
    # vector across the line, so its donor inserts on the line
    colinear = eigvals[:, 1] <= 1e-12 * eigvals[:, 2]
    dots = np.einsum("ni,nij->nj", points[donors] - centroids, axes)
    degenerate = np.abs(dots) <= 1e-12 * p.r
    degenerate[:, 1] &= ~colinear
    first = np.argmax(np.abs(axes) > 1e-12, axis=1)  # a unit vector always has one
    first_big = np.take_along_axis(axes, first[:, None, :], axis=1)[:, 0, :]
    negative = np.where(degenerate, first_big < 0.0, dots < 0.0)
    axes = np.where(negative[:, None, :], -axes, axes)

    lam1 = lam1_lo + uniform(p.seed, STREAM_UNEVEN_L1, donors) * (lam1_hi - lam1_lo)
    lam2 = lam2_lo + uniform(p.seed, STREAM_UNEVEN_L2, donors) * (lam2_hi - lam2_lo)
    lam2[colinear] = 0.0
    inserts = points[donors] + lam1[:, None] * axes[:, :, 0] + lam2[:, None] * axes[:, :, 1]
    by_index = np.argsort(donors)
    donors, inserts = donors[by_index], inserts[by_index]

    if diagnostics is not None:
        diagnostics["degenerate"] = int(np.count_nonzero(degenerate.any(axis=1)))
        diagnostics["skipped"] = skipped
        diagnostics["inserted"] = len(donors)

    normals = None
    if cloud.has_normals():
        normals = np.concatenate([cloud.normals, cloud.normals[donors]], axis=0)
    return PointCloud(np.concatenate([points, inserts], axis=0), normals)


def _coarse_view(view: ViewScan, resolution: int, step: int) -> ViewScan:
    """The hits of `view`, scanned at `resolution`, that the same pose
    scanned at resolution // step (step odd) gives: its pixel k is this
    grid's pixel step * k + step // 2 on both axes, with the same ndc bits."""
    row, col = np.divmod(view.rays, resolution)
    keep = (row % step == step // 2) & (col % step == step // 2)
    rays = (row[keep] // step) * (resolution // step) + col[keep] // step
    return ViewScan(view.points[keep], None if view.normals is None else view.normals[keep], rays)


def density_variants(surface, base_cfg: ScanConfig, min_feature: float, clean: PointCloud | None = None):
    """Scans at resolutions 50/100/150, otherwise as configured in base_cfg.

    clean, when given, is the `scan_surface(surface, base_cfg, min_feature)`
    result; it is returned as is for the resolution equal to
    base_cfg.resolution instead of scanning the same rays again.

    Resolution 50's rays are every third ray of resolution 150's, with the
    same bits, and a ray's hit depends on that ray alone (`scan_view`). So
    unless clean is one of the two, each pose's 150 grid is marched once,
    and 50 keeps the hits of its rays (3i + 1, 3j + 1); the bits are those
    of a scan at 50.
    """
    scans = {} if clean is None else {base_cfg.resolution: clean}
    low, high = DENSITY_RESOLUTIONS[0], DENSITY_RESOLUTIONS[-1]
    if low not in scans and high not in scans:
        views = scan_views(surface, replace(base_cfg, resolution=high), min_feature)
        scans[high] = merge_views(views, base_cfg.normal_mode)
        scans[low] = merge_views([_coarse_view(view, high, high // low) for view in views], base_cfg.normal_mode)
    return tuple(
        scans[res] if res in scans else scan_surface(surface, replace(base_cfg, resolution=res), min_feature)
        for res in DENSITY_RESOLUTIONS
    )
