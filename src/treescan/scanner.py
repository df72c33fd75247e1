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

Most of a ray lies where the field cannot be nonpositive, and the march
calls the field only between a ray's first and last live chord
(`_live_windows`). f = sum q_i s_i / sum q_i with q_i > 0 only where
sphere i strictly holds the point, so f(x) <= 0 needs a cell i that holds
x with s_i(x) <= 0; s_i is affine, so on the ray's chord through sphere i
it is least at an end of the chord. A chord with s > 0 at both ends can
hold no nonpositive sample, and no crossing. The strides before a window
are still stepped, without field calls, so every evaluated point, and
every hit, has the bits of the plain march.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components, minimum_spanning_tree
from scipy.spatial import cKDTree

from .cloud import PointCloud
from .errors import InvalidParameterError, MissingNormalsError, TooFewPointsError
from .geometry import (
    _dot,
    least_aligned_axis,
    neighbour_distances,
    normalize,
    principal_axes,
    query_threads,
    tree_order_neighbours,
)
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


# Slack of the live-chord test, relative to the bbox diagonal: each support
# sphere grows by it and each plane's zero level rises by it, so rounding in
# the chord ends and in s can only add live pairs, never drop one.
_CULL_SLACK = 1e-9

# (pixel, cell) pairs per step of the live-chord test: a step's temporaries
# then take a few MB.  A window is a min and a max over its ray's live
# pairs, so the step size never changes it.
_CULL_PAIRS = 1 << 14


def _pixel_range(a, z, r, tan_half: float, res: int):
    """First and last pixel, along one image axis, of the rays that can meet
    the camera-frame box [a - r, a + r] x [z - r, z + r] (z > r); the ray
    through pixel k has a/z = ((k + 0.5) / res * 2 - 1) * tan_half, and a/z
    over the box is extreme at its corners.  Off the image: first > last.
    A millionth of a pixel of slack covers the rounding of the ray grid."""
    ratios = np.stack([(a - r) / (z - r), (a - r) / (z + r), (a + r) / (z - r), (a + r) / (z + r)])
    k = (ratios / tan_half + 1.0) * (0.5 * res) - 0.5
    first = np.clip(np.ceil(k.min(axis=0) - 1e-6), 0, res)
    last = np.clip(np.floor(k.max(axis=0) + 1e-6), -1, res - 1)
    return first.astype(np.int64), last.astype(np.int64)


def _live_windows(surface, pose: Pose, tan_half: float, res: int, directions, spans):
    """Per ray of one view: [first live chord entry, last live chord exit],
    or (inf, -inf) for a ray with no live chord.

    A (ray, cell) pair is live when the ray's chord through the cell's
    support sphere, clipped to the ray's span of the march domain, has
    s <= 0 at either end (up to `_CULL_SLACK`).  f(x) <= 0 needs a cell
    that strictly holds x with s(x) <= 0, and s is affine, so its minimum
    on a chord lies at an end: no ray meets f <= 0 outside its window.

    Every ray starts at the camera, so each cell is splatted into the pixel
    grid by the camera-frame box of the bounding sphere of its ball's
    nonpositive part: the ball when its centre has s <= 0, else the
    circumsphere of the part's base disc.  A cell whose whole ball is
    positive is skipped; one whose sphere reaches the camera plane covers
    the whole image.  Each (pixel, cell) pair of a box is then tested
    exactly.
    """
    t_lo, t_hi = spans
    slack = _CULL_SLACK * surface.bbox_diagonal()
    radii = surface.radii + slack
    normals, norm = surface.normals, np.linalg.norm(surface.normals, axis=1)
    # s at each centre, over the raised zero level; the ball's least s is
    # s_center - |n| R, and a cell whose ball is positive all through is skipped
    s_center = np.einsum("ij,ij->i", surface.centers, normals) - surface.offsets - slack
    cells = np.flatnonzero(s_center <= norm * radii)
    # bounding sphere (c, r) of the ball's part with s <= slack, c in the
    # camera frame; beyond: the centre's distance past that part's plane
    safe_norm = np.where(norm[cells] > 0.0, norm[cells], 1.0)
    beyond = np.maximum(s_center[cells], 0.0) / safe_norm
    c = surface.centers[cells] - (beyond / safe_norm)[:, None] * normals[cells] - pose.position
    r = np.sqrt(np.maximum(radii[cells] ** 2 - beyond**2, 0.0))
    z = c @ pose.forward
    front = z - r > 0.0  # a sphere that reaches the camera plane takes the whole image
    row0, col0 = np.zeros((2, len(cells)), dtype=np.int64)
    row1, col1 = np.full((2, len(cells)), res - 1)
    row0[front], row1[front] = _pixel_range(c[front] @ pose.up, z[front], r[front], tan_half, res)
    col0[front], col1[front] = _pixel_range(c[front] @ pose.right, z[front], r[front], tan_half, res)
    keep = (row0 <= row1) & (col0 <= col1)
    cells, row0, col0 = cells[keep], row0[keep], col0[keep]
    cols = col1[keep] - col0 + 1
    counts = (row1[keep] - row0 + 1) * cols
    # per splatted cell: the camera relative to the centre, and s at the
    # camera.  The pair test gathers one contiguous axis at a time: calling
    # `_ray_sphere_spans` on gathered rows made a small-dataset round about
    # 3 % slower.
    oc = pose.position - surface.centers[cells]
    c_oc = np.einsum("ij,ij->i", oc, oc) - radii[cells] ** 2
    s_camera = normals[cells] @ pose.position - surface.offsets[cells]
    oc_axes, n_axes, d_axes = oc.T.copy(), normals[cells].T.copy(), directions.T.copy()

    w_lo = np.full(len(directions), np.inf)
    w_hi = np.full(len(directions), -np.inf)
    ends = np.cumsum(counts)
    firsts = ends - counts  # each box's first pair
    start = 0
    while start < len(cells):
        stop = max(start + 1, int(np.searchsorted(ends, firsts[start] + _CULL_PAIRS, side="right")))
        box = np.repeat(np.arange(start, stop), counts[start:stop])
        k = np.arange(firsts[start], ends[stop - 1]) - firsts[box]  # pixel within its box
        ray = (row0[box] + k // cols[box]) * res + col0[box] + k % cols[box]
        d = [v[ray] for v in d_axes]  # one axis at a time: a 2-D gather is slower
        b = _dot(d, [v[box] for v in oc_axes])
        nd = _dot(d, [v[box] for v in n_axes])
        disc = b * b - c_oc[box]
        root = np.sqrt(np.maximum(disc, 0.0))
        enter = np.maximum(-b - root, t_lo[ray])
        leave = np.minimum(-b + root, t_hi[ray])
        s0 = s_camera[box]
        live = (disc >= 0.0) & (enter <= leave) & (np.minimum(s0 + enter * nd, s0 + leave * nd) <= slack)
        np.minimum.at(w_lo, ray[live], enter[live])
        np.maximum.at(w_hi, ray[live], leave[live])
        start = stop
    return w_lo, w_hi


def _march_batch(surface, origins, directions, min_feature: float, spans, windows):
    """First surface crossing per ray, vectorized over the active set.

    spans are the rays' (entry, exit) parameters of the march domain, and
    windows their live-chord windows (`_live_windows`); a window equal to
    the span marches the whole ray.  Returns (hit mask, hit points). The
    field is NaN outside every support, where the model is absent; the
    march reads it as the positive value 1, exterior, which loses nothing,
    and a bracket whose endpoint lies in such a gap simply fails the
    tolerance check and is dropped.

    Marching is two-level: coarse strides of several fine steps, dropping to
    fine stepping only inside strides where either endpoint's field dips
    below a guard band (the field tracks distance near the surface, so a
    large value at both ends means no crossing hides between them; sign
    changes always fall below the band). Rays lost to a field that outruns
    the band are dropped, never misplaced. The fine step is MARCH_STEP
    times min_feature.

    Strides run t -> min(t + stride, exit) from the entry, but the field is
    only called on strides whose end reaches the ray's window: every point
    before it, and after it, is positive, so no crossing ends there. The
    first such stride evaluates its start afresh (a point's value depends
    on that point alone), and the ray leaves the march once a stride's end
    passes its window. The evaluated points, and so the hits, are those of
    the plain march; a ray with an empty window costs no field call.
    """
    step = MARCH_STEP * min_feature
    stride = step * _COARSE_STEPS
    guard = 2.0 * stride
    offsets = np.arange(_COARSE_STEPS + 1) * step
    n = len(origins)
    t_lo, t_hi = spans
    w_lo, w_hi = windows

    def field(rows, ts):
        if len(rows) == 0:
            return np.zeros(0)
        f = surface.eval_many(origins[rows] + ts[:, None] * directions[rows])
        f[np.isnan(f)] = 1.0  # outside every support: exterior
        return f

    # march state of the active rays, f NaN until a ray's strides reach its
    # window, and the bracket of each crossed ray: the field is positive at
    # lo and nonpositive at hi
    idx = np.flatnonzero((t_lo < t_hi) & (w_lo <= w_hi))
    t = t_lo[idx]
    f = np.full(len(idx), np.nan)
    lo = np.full(n, np.nan)
    hi = np.full(n, np.nan)
    while len(idx) > 0:
        t_next = np.minimum(t + stride, t_hi[idx])
        live = np.flatnonzero(t_next >= w_lo[idx])
        fresh = live[np.isnan(f[live])]
        values = field(idx[np.concatenate([fresh, live])], np.concatenate([t[fresh], t_next[live]]))
        f[fresh] = values[: len(fresh)]
        f_next = np.full(len(idx), np.nan)
        f_next[live] = values[len(fresh) :]
        # a stride short of its window has NaN ends and is never suspect
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

        move = (t_next < t_hi[idx]) & (t_next <= w_hi[idx])
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


@dataclass
class ViewScan(PointCloud):
    """One view's hits, and rays[i], the row-major index of hit i's ray in
    the view's resolution x resolution grid."""

    rays: np.ndarray | None = None


def scan_view(surface: ImplicitSurface, pose: Pose, cfg: ScanConfig, min_feature: float) -> ViewScan:
    """One view's hits in row-major ray order, with the index of each hit's
    ray; analytic normals if configured, an empty (0, 3) array when no ray
    hits.

    Each ray is built and marched on its own, so its hit depends only on
    the surface, the pose and its grid direction: pixel k of a view at
    resolution r has the ndc bits of pixel 3k + 1 at resolution 3r, so a
    view's hits at r are the hits of its rays (3i + 1, 3j + 1) at 3r.

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

    spans = _ray_sphere_spans(origins, dirs, center, radius)
    windows = _live_windows(surface, pose, tan_half, res, dirs, spans)
    hit, pts = _march_batch(surface, origins, dirs, min_feature, spans, windows)
    rays = np.flatnonzero(hit)
    points = pts[rays]

    if cfg.normal_mode == "analytic":
        grads = surface.gradient_many(points)
        norms = np.linalg.norm(grads, axis=1)
        safe = norms > 1e-12
        normals = np.where(safe[:, None], grads / np.where(safe, norms, 1.0)[:, None], -dirs[rays])
        # orient toward the sensor
        flip = np.einsum("ij,ij->i", normals, -dirs[rays]) < 0.0
        normals[flip] *= -1.0
        return ViewScan(points, normals, rays)
    return ViewScan(points, rays=rays)


def scan_views(surface: ImplicitSurface, cfg: ScanConfig, min_feature: float) -> list[ViewScan]:
    """`scan_view` of every pose of cfg, in view order."""
    cfg.validate()
    poses = viewpoints((surface.bbox_lo, surface.bbox_hi), cfg.views, cfg.standoff)
    return [scan_view(surface, pose, cfg, min_feature) for pose in poses]


def merge_views(views: list[PointCloud], normal_mode: str) -> PointCloud:
    """The views' hits concatenated in view order; PCA+MST normals attached
    here when normal_mode is "pca-mst", `orient_normals` reusing the
    neighbour query of `estimate_normals`. The result carries normals,
    (0, 3) when empty."""
    points = np.concatenate([view.points for view in views], axis=0)
    if normal_mode == "analytic":
        return PointCloud(points, np.concatenate([view.normals for view in views], axis=0))
    if len(points) == 0:
        return PointCloud(points, np.zeros((0, 3)))
    # 1 to PCA_K - 1 points are too few for a neighbourhood: TooFewPointsError
    return orient_normals(estimate_normals(PointCloud(points), PCA_K), PCA_K)


def scan_surface(surface: ImplicitSurface, cfg: ScanConfig, min_feature: float) -> PointCloud:
    """All views, concatenated in view order (`merge_views`)."""
    return merge_views(scan_views(surface, cfg, min_feature), cfg.normal_mode)


@dataclass
class NormalEstimate(PointCloud):
    """`estimate_normals`' result. Its points are read-only, and so is
    neighbours: row i holds the k + 1 nearest points of point i, in
    cKDTree.query's order, for `orient_normals` to build its graph from;
    None when the cloud has only k points.

    The graph belongs to the points array it was queried on, which
    estimate_normals records in _queried. That field is not an init
    argument, so a cloud made by `dataclasses.replace` carries no usable
    graph."""

    neighbours: np.ndarray | None = None
    _queried: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def graph(self, width: int) -> np.ndarray | None:
        """neighbours, if it was queried on these very points with width
        columns; else None."""
        if self.neighbours is None or self._queried is not self.points or self.neighbours.shape[1] != width:
            return None
        return self.neighbours


def estimate_normals(cloud: PointCloud, k: int) -> NormalEstimate:
    """Unoriented PCA normals from the k nearest neighbors of each point
    (itself included), carrying each point's k + 1 nearest for
    `orient_normals`.

    When there are more than k points, one query asks for k + 1 neighbours.
    A row whose k + 1 distances increase strictly has a unique k-nearest
    set and order, so its first k columns are what a k-query gives, bit for
    bit. A row with a tie (a copy of a point included, at distance 0) is
    queried again with k, on a tree built at the first such row, since with
    ties the (k+1)-query's prefix may hold other points or another order.
    """
    if k < 3:
        raise InvalidParameterError("k must be >= 3")
    n = len(cloud)
    if n < k:
        raise TooFewPointsError(f"need at least k={k} points, got {n}")
    points = cloud.points.copy()
    points.flags.writeable = False
    carry = n > k
    width = k + 1 if carry else k
    ids = np.empty((n, width), dtype=np.int32) if carry else None
    normals = np.empty((n, 3))
    tree = None  # for the rows with a tie
    for rows, (dist, nbr) in tree_order_neighbours(points, k=width):  # each includes the point itself
        if carry:
            # the PCA reads the rows back from ids, so that the query's
            # arrays are freed before its batches run
            ids[rows] = nbr
            tied = np.flatnonzero(np.any(dist[:, 1:] <= dist[:, :-1], axis=1))
            del dist
            nbr = ids[rows, :k]
            if len(tied):
                tree = cKDTree(points) if tree is None else tree
                nbr[tied] = tree.query(points[rows[tied]], k=k, workers=query_threads())[1]
        _, _, eigvecs = principal_axes(points, nbr.ravel(), np.arange(0, nbr.size, k))
        normals[rows] = normalize(eigvecs[:, :, 0])  # smallest eigenvalue first
    if carry:
        ids.flags.writeable = False
    est = NormalEstimate(points, normals, ids)
    est._queried = est.points
    return est


def orient_normals(cloud: PointCloud, k: int = PCA_K) -> PointCloud:
    """Resolve normal signs by flip propagation over the Euclidean MST.

    The graph joins each point to its k nearest others (Hoppe et al., 1992),
    weighted by distance. Its rows are the k + 1 neighbours an
    `estimate_normals` result carries, if they were queried on these very
    points, with their distances recomputed to the query's bits
    (`neighbour_distances`); otherwise they are queried in bounded chunks.
    They are written straight into a CSR matrix, which the MST may
    overwrite; a pair of mutual neighbours is one entry, in the lower row.
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
    # the graph's rows in input order: each point's kk + 1 nearest points
    # but the first (itself, or with duplicates maybe a copy of it), a zero
    # distance floored so that the graph keeps it as an edge
    carried = cloud.graph(kk + 1) if isinstance(cloud, NormalEstimate) else None
    if carried is None:
        weights = np.empty((n, kk))
        ids = np.empty((n, kk), dtype=np.int32)
        for rows, (dist, nbr) in tree_order_neighbours(points, k=kk + 1):
            weights[rows] = dist[:, 1:]
            ids[rows] = nbr[:, 1:]
    else:
        ids = carried[:, 1:]
        weights = neighbour_distances(points, ids)
    np.maximum(weights, 1e-300, out=weights)
    # a mutual pair (i, j), i < j, sits in both rows with equal weights;
    # the MST's stable order by weight reaches row i's copy first, and always
    # rejects the second, so row j's copy is left out.  Row j's entry has a
    # twin when w < (row i's k-th distance): i's query then holds j, past its
    # first column, which has distance 0.  A floored zero distance (the first
    # column may be j) and a tie with the k-th distance are looked up exactly.
    kth = weights[:, -1][ids]
    earlier = ids < np.arange(n)[:, None]
    keep = ~(earlier & (weights < kth))
    rows, cols = np.nonzero(earlier & ((weights <= 1e-300) | (weights == kth)))
    keep[rows, cols] = ~np.any(ids[ids[rows, cols]] == rows[:, None], axis=1)
    del kth, earlier, rows, cols
    # a k-NN row holds distinct columns, so sorting them in place gives the
    # layout coo_matrix(...).tocsr() would, without its copies
    indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(keep, axis=1))])
    graph = csr_matrix((weights[keep], ids[keep], indptr), shape=(n, n))
    del weights, ids, keep  # the MST's and the traversal's peaks need not hold them too
    graph.sort_indices()
    mst = minimum_spanning_tree(graph, overwrite=True).tocoo()
    del graph

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
