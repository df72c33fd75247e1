"""Virtual range scanner over an implicit surface.

Viewpoints sit on a Fibonacci spiral of the model's bounding sphere, pushed
out by a standoff factor, each looking at the centroid. A view shoots a
resolution x resolution pinhole ray grid whose frustum contains the bounding
sphere. Every ray marches from its entry into the bounding sphere in coarse
strides of several fine steps. A stride with either end near the surface
(field at or below a guard band) is walked again in fine steps, and the
first positive-to-nonpositive pair of fine points brackets the hit, which
bisection settles. Merging is plain concatenation in view order, because
poses are exact.

f is not a distance field, so no sphere tracing; the fine step is tied to
the smallest feature size, which every scan must be given (minimum tube
radius in the pipeline), to avoid stepping through thin branches. Rays
that never change sign, or whose bisection fails to reach the hit
tolerance, contribute nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components, minimum_spanning_tree

from .cloud import PointCloud
from .errors import InvalidParameterError, MissingNormalsError, TooFewPointsError
from .geometry import least_aligned_axis, normalize, principal_axes, tree_order_neighbours
from .implicit import ImplicitSurface

GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))
DOMAIN_MARGIN = 1.05  # bounding sphere inflation for the march domain
MARCH_STEP = 0.5  # fine march step, in units of the smallest feature size
HIT_TOLERANCE = 1e-6  # |f| at which bisection takes a hit
PCA_K = 16  # neighbours of a PCA normal and of the orientation graph
_COARSE_STEPS = 4  # fine steps folded into one far-field march step
_NORMAL_MODES = ("analytic", "pca-mst")


@dataclass
class ScanConfig:
    resolution: int = 100
    views: int = 6
    standoff: float = 1.5
    normal_mode: str = "analytic"

    def validate(self) -> None:
        if self.resolution < 2:
            raise InvalidParameterError("resolution must be >= 2")
        if self.views < 1:
            raise InvalidParameterError("views must be >= 1")
        if not self.standoff > DOMAIN_MARGIN:
            # a camera at or inside the march domain cannot scan
            raise InvalidParameterError(f"standoff must exceed the march domain's margin, {DOMAIN_MARGIN}")
        if self.normal_mode not in _NORMAL_MODES:
            raise InvalidParameterError(f"normal_mode must be one of {_NORMAL_MODES}")


@dataclass
class Pose:
    position: np.ndarray
    forward: np.ndarray
    right: np.ndarray
    up: np.ndarray


def _look_at(position: np.ndarray, target: np.ndarray) -> Pose:
    forward = normalize(target - position)
    axis = least_aligned_axis(forward)
    right = normalize(np.cross(forward, axis))
    up = np.cross(right, forward)
    return Pose(position=position, forward=forward, right=right, up=up)


def _spiral_directions(n: int) -> np.ndarray:
    if n == 1:
        return np.array([[0.0, 0.0, 1.0]])
    k = np.arange(n, dtype=np.float64)
    z = 1.0 - 2.0 * k / (n - 1)
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = k * GOLDEN_ANGLE
    return np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])


def viewpoints(bbox, views: int, standoff: float = 1.5) -> list[Pose]:
    """Poses on the bounding sphere pushed out by the standoff factor."""
    if views < 1:
        raise InvalidParameterError("views must be >= 1")
    lo, hi = np.asarray(bbox[0], dtype=np.float64), np.asarray(bbox[1], dtype=np.float64)
    centroid = (lo + hi) / 2.0
    radius = 0.5 * float(np.linalg.norm(hi - lo))
    if radius <= 0.0:
        radius = 1.0
    dirs = _spiral_directions(views)
    return [_look_at(centroid + standoff * radius * d, centroid) for d in dirs]


def _domain_sphere(surface: ImplicitSurface) -> tuple[np.ndarray, float]:
    center = (surface.bbox_lo + surface.bbox_hi) / 2.0
    radius = 0.5 * surface.bbox_diagonal() * DOMAIN_MARGIN
    return center, radius


def _ray_sphere_spans(origins, directions, center, radius):
    """Entry/exit parameters of rays against a sphere; miss rows get t0>t1."""
    oc = origins - center
    b = np.einsum("ij,ij->i", oc, directions)
    c = np.einsum("ij,ij->i", oc, oc) - radius * radius
    disc = b * b - c
    hit = disc >= 0.0
    root = np.sqrt(np.maximum(disc, 0.0))
    t0 = np.where(hit, -b - root, 1.0)
    t1 = np.where(hit, -b + root, 0.0)
    t0 = np.maximum(t0, 0.0)
    return t0, t1


def _march_batch(surface, origins, directions, min_feature: float):
    """First surface crossing per ray, vectorized over the active set.

    Returns (hit mask, hit points). The field is NaN outside every support,
    where the model is absent; the march reads it as the positive value 1,
    exterior, which loses nothing, and a bracket whose endpoint lies in such
    a gap simply fails the tolerance check and is dropped.

    Marching is two-level: coarse strides of several fine steps, dropping to
    fine stepping only inside strides where either endpoint's field dips
    below a guard band (the field tracks distance near the surface, so a
    large value at both ends means no crossing hides between them; sign
    changes always fall below the band). Rays lost to a field that outruns
    the band are dropped, never misplaced. The fine step is MARCH_STEP
    times min_feature.
    """
    step = MARCH_STEP * min_feature
    stride = step * _COARSE_STEPS
    guard = 2.0 * stride
    offsets = np.arange(_COARSE_STEPS + 1) * step
    n = len(origins)
    center, radius = _domain_sphere(surface)
    t_lo, t_hi = _ray_sphere_spans(origins, directions, center, radius)

    def field(rows, ts):
        f = surface.eval_many(origins[rows] + ts[:, None] * directions[rows])
        f[np.isnan(f)] = 1.0  # outside every support: exterior
        return f

    # march state of the active rays, and the bracket of each crossed ray:
    # the field is positive at lo and nonpositive at hi
    idx = np.flatnonzero(t_lo < t_hi)
    t = t_lo[idx]
    f = field(idx, t)
    lo = np.full(n, np.nan)
    hi = np.full(n, np.nan)
    for _ in range(int(np.ceil(2.0 * radius / stride)) + 2):
        if len(idx) == 0:
            break
        t_next = np.minimum(t + stride, t_hi[idx])
        f_next = field(idx, t_next)
        s = np.flatnonzero(np.minimum(f, f_next) <= guard)
        # fine points of the suspect strides; one clamped to the stride's
        # end takes the end's value, so it never starts a crossing
        ends = t_next[s, None]
        ts = np.minimum(t[s, None] + offsets, ends)
        fs = np.repeat(f_next[s, None], _COARSE_STEPS + 1, axis=1)
        fs[:, 0] = f[s]
        inner = ts < ends
        inner[:, 0] = False
        fs[inner] = field(idx[s[np.nonzero(inner)[0]]], ts[inner])
        crossed = (fs[:, :-1] > 0.0) & (fs[:, 1:] <= 0.0)
        first = np.argmax(crossed, axis=1)
        got = crossed.any(axis=1)
        lo[idx[s[got]]] = ts[got, first[got]]
        hi[idx[s[got]]] = ts[got, first[got] + 1]

        move = t_next < t_hi[idx]
        move[s[got]] = False
        idx, t, f = idx[move], t_next[move], f_next[move]

    # bisect brackets down to the hit tolerance
    rows = np.flatnonzero(~np.isnan(lo))
    lo, hi = lo[rows], hi[rows]
    hit = np.zeros(n, dtype=bool)
    points = np.zeros((n, 3))
    for _ in range(60):
        if len(rows) == 0:
            break
        mid = 0.5 * (lo + hi)
        f_mid = field(rows, mid)
        good = np.abs(f_mid) <= HIT_TOLERANCE
        ok = rows[good]
        hit[ok] = True
        points[ok] = origins[ok] + mid[good, None] * directions[ok]
        positive = f_mid > 0.0
        lo = np.where(positive, mid, lo)[~good]
        hi = np.where(positive, hi, mid)[~good]
        rows = rows[~good]
    return hit, points


def scan_view(surface: ImplicitSurface, pose: Pose, cfg: ScanConfig, min_feature: float) -> PointCloud:
    """One view's hits in row-major ray order; analytic normals if configured,
    an empty (0, 3) array when no ray hits.

    min_feature is the thinnest feature the fine march step must not step
    through (the skeleton's minimum radius in the pipeline); it must be
    positive and finite.
    """
    cfg.validate()
    if not 0.0 < min_feature < np.inf:
        raise InvalidParameterError(f"min_feature must be positive and finite, got {min_feature}")
    center, radius = _domain_sphere(surface)
    dist = float(np.linalg.norm(pose.position - center))
    if dist <= radius:
        raise InvalidParameterError("viewpoint lies inside the march domain")
    half_angle = np.arcsin(min(1.0, radius / dist)) * 1.05
    tan_half = np.tan(min(half_angle, np.pi / 2 - 1e-6))

    res = cfg.resolution
    ndc = (np.arange(res) + 0.5) / res * 2.0 - 1.0
    v, u = np.meshgrid(ndc, ndc, indexing="ij")  # stripe-major: v selects the stripe
    dirs = (
        pose.forward[None, :]
        + (u.ravel()[:, None] * tan_half) * pose.right[None, :]
        + (v.ravel()[:, None] * tan_half) * pose.up[None, :]
    )
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    origins = np.broadcast_to(pose.position, dirs.shape)

    hit, pts = _march_batch(surface, origins, dirs, min_feature)
    points = pts[hit]

    if cfg.normal_mode == "analytic":
        grads = surface.gradient_many(points)
        norms = np.linalg.norm(grads, axis=1)
        safe = norms > 1e-12
        normals = np.where(safe[:, None], grads / np.where(safe, norms, 1.0)[:, None], -dirs[hit])
        # orient toward the sensor
        flip = np.einsum("ij,ij->i", normals, -dirs[hit]) < 0.0
        normals[flip] *= -1.0
        return PointCloud(points, normals)
    return PointCloud(points)


def scan_surface(surface: ImplicitSurface, cfg: ScanConfig, min_feature: float) -> PointCloud:
    """All views, concatenated in view order; PCA+MST normals attached here
    when that mode is on. Every scan carries normals, (0, 3) when empty."""
    cfg.validate()
    poses = viewpoints((surface.bbox_lo, surface.bbox_hi), cfg.views, cfg.standoff)
    clouds = [scan_view(surface, pose, cfg, min_feature) for pose in poses]
    points = np.concatenate([c.points for c in clouds], axis=0)
    if cfg.normal_mode == "analytic":
        return PointCloud(points, np.concatenate([c.normals for c in clouds], axis=0))
    if len(points) == 0:
        return PointCloud(points, np.zeros((0, 3)))
    # 1 to PCA_K - 1 points are too few for a neighbourhood: TooFewPointsError
    return orient_normals(estimate_normals(PointCloud(points), PCA_K), PCA_K)


def estimate_normals(cloud: PointCloud, k: int) -> PointCloud:
    """Unoriented PCA normals from the k nearest neighbors of each point."""
    if k < 3:
        raise InvalidParameterError("k must be >= 3")
    n = len(cloud)
    if n < k:
        raise TooFewPointsError(f"need at least k={k} points, got {n}")
    rows, (_, nbr) = tree_order_neighbours(cloud.points, k=k)  # includes the point itself
    _, _, eigvecs = principal_axes(cloud.points, nbr.ravel(), np.arange(0, n * k, k))
    normals = np.empty((n, 3))
    normals[rows] = normalize(eigvecs[:, :, 0])  # smallest eigenvalue first
    return PointCloud(cloud.points.copy(), normals)


def orient_normals(cloud: PointCloud, k: int = PCA_K) -> PointCloud:
    """Resolve normal signs by flip propagation over the Euclidean MST.

    The seed is the highest point (ties: lowest index); its normal points
    away from the centroid. Each connected component of the k-NN graph is
    seeded the same way.
    """
    if not cloud.has_normals():
        raise MissingNormalsError("orient_normals needs normals")
    n = len(cloud)
    if n == 0:
        return cloud
    if n == 1:
        return PointCloud(cloud.points.copy(), cloud.normals.copy())

    points = cloud.points
    normals = cloud.normals.copy()
    kk = min(k, n - 1)
    rows, (dist, nbr) = tree_order_neighbours(points, k=kk + 1)
    weights = np.maximum(dist[:, 1:].ravel(), 1e-300)
    # rows come in tree order; CSR conversion keeps each row's entries in
    # their order, so the graph, and the MST, are those of input-order rows
    graph = coo_matrix((weights, (np.repeat(rows, kk), nbr[:, 1:].ravel())), shape=(n, n))
    del dist, nbr  # the MST's peak memory need not hold them too
    mst = minimum_spanning_tree(graph).tocoo()

    # every component hangs off a virtual root n by its seed, so one
    # traversal gives each point its parent on the path from its seed
    _, labels = connected_components(mst, directed=False)
    order = np.lexsort((np.arange(n), -points[:, 2]))
    _, first = np.unique(labels[order], return_index=True)
    seeds = order[first]
    edges = (np.concatenate([mst.row, np.full(len(seeds), n)]), np.concatenate([mst.col, seeds]))
    tree_graph = coo_matrix((np.ones(len(edges[0])), edges), shape=(n + 1, n + 1)).tocsr()
    _, parent = breadth_first_order(tree_graph, n, directed=False, return_predecessors=True)

    # flip[i]: i's normal points against its parent's, or for a seed, towards
    # the centroid
    outward = points[seeds] - points.mean(axis=0)
    outward[np.linalg.norm(outward, axis=1) < 1e-12] = (0.0, 0.0, 1.0)
    up = np.append(parent[:n], n)
    reference = normals[np.minimum(up[:n], n - 1)]
    reference[seeds] = outward
    flip = np.append(np.einsum("ij,ij->i", normals, reference) < 0.0, False)
    # pointer jumping: flip becomes the parity of flips on the path to the root
    while np.any(up != n):
        flip ^= flip[up]
        up = up[up]
    normals[flip[:n]] *= -1.0
    return PointCloud(points.copy(), normals)
