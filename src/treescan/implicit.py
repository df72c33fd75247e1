"""Smooth implicit surfaces from triangle meshes.

The mesh's bounding box is subdivided into an octree; a cell splits while
more than `max_triangles_per_cell` triangles lie within its support sphere
(radius = `sphere_radius_scale` x cell diagonal, centered at the cell center)
and the depth cap allows. Leaves whose sphere reaches no triangle at all are
dropped: they would only dilute the blend, and queries out there take the
nearest-cell fallback anyway. Kept spheres holding fewer than
`min_triangles_for_fit` triangles grow to exactly the k-th nearest triangle
distance: an overshot support would drag a wide, badly-planar cap of
surface into the blend and bias the zero set.

Each cell fits an affine shape function to the triangles in its sphere,

    s(x) = <x, n_avg> - <p_avg, n_avg>,

where n_avg and p_avg are weighted averages over the member triangles with
weight w(x, t) = 1 / (|x - t|^2 + eps^2)^2 integrated per triangle by a
fixed symmetric barycentric quadrature. Outward mesh normals make s (and
hence the blend) positive outside.

The global field blends the cells that contain the query point:

    f(x) = sum_i q_i(x) s_i(x) / sum_i q_i(x),

with q_i a quadratic B-spline bump of u = r_i / R_i that is C1 and reaches
zero at the sphere boundary:

    q(u) = 0.75 - 2.25 u^2         for u <= 1/3,
    q(u) = 1.125 (1 - u)^2         for 1/3 < u <= 1,
    q(u) = 0                       beyond.

Queries outside every sphere fall back to the shape function of the cell
with the nearest center, so `eval` and `gradient` are defined everywhere
and affine out there. The ray marcher skips the fallback: it asks for a
positive placeholder (`uncovered_value=1.0`) outside every support.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict, dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import (
    EmptyMeshError,
    InsufficientTrianglesError,
    InvalidParameterError,
    SurfaceCacheError,
)
from .geometry import dist_points_to_triangles, triangle_areas_normals
from .mesh import TriangleMesh

DEFAULT_EPSILON_SCALE = 0.005  # of the bbox diagonal, when epsilon is not given

# symmetric barycentric rules: (coords (k,3), weights (k,))
_QUADRATURE = {
    1: (
        np.array([[1 / 3, 1 / 3, 1 / 3]]),
        np.array([1.0]),
    ),
    3: (
        np.array([[2 / 3, 1 / 6, 1 / 6], [1 / 6, 2 / 3, 1 / 6], [1 / 6, 1 / 6, 2 / 3]]),
        np.array([1 / 3, 1 / 3, 1 / 3]),
    ),
    7: (
        np.array(
            [
                [1 / 3, 1 / 3, 1 / 3],
                [0.059715871789770, 0.470142064105115, 0.470142064105115],
                [0.470142064105115, 0.059715871789770, 0.470142064105115],
                [0.470142064105115, 0.470142064105115, 0.059715871789770],
                [0.797426985353087, 0.101286507323456, 0.101286507323456],
                [0.101286507323456, 0.797426985353087, 0.101286507323456],
                [0.101286507323456, 0.101286507323456, 0.797426985353087],
            ]
        ),
        np.array(
            [
                0.225,
                0.132394152788506,
                0.132394152788506,
                0.132394152788506,
                0.125939180544827,
                0.125939180544827,
                0.125939180544827,
            ]
        ),
    ),
}


@dataclass
class FitConfig:
    """Fitting controls.

    epsilon: smoothing width of the weight function, in model units; None
    picks 0.005 x bbox diagonal at build time.  quadrature_order selects the
    per-triangle rule by point count (1, 3, or 7).
    """

    epsilon: float | None = None
    max_depth: int = 10
    max_triangles_per_cell: int = 32
    min_triangles_for_fit: int = 1
    quadrature_order: int = 7
    sphere_radius_scale: float = 1.0

    def validate(self) -> None:
        if self.epsilon is not None and not self.epsilon > 0.0:
            raise InvalidParameterError("epsilon must be positive (or None for automatic)")
        if not 1 <= self.max_depth <= 21:
            raise InvalidParameterError("max_depth must lie in [1, 21]")
        if self.max_triangles_per_cell < 1:
            raise InvalidParameterError("max_triangles_per_cell must be >= 1")
        if self.min_triangles_for_fit < 1:
            raise InvalidParameterError("min_triangles_for_fit must be >= 1")
        if self.quadrature_order not in _QUADRATURE:
            raise InvalidParameterError(
                f"quadrature_order must be one of {sorted(_QUADRATURE)}"
            )
        if not self.sphere_radius_scale > 0.0:
            raise InvalidParameterError("sphere_radius_scale must be positive")


@dataclass
class CellFit:
    """One support sphere and its affine shape function.

    avg_normal is the weighted normal quotient, deliberately not normalized;
    offset = <avg_point, avg_normal> so s(x) = <x, avg_normal> - offset.
    """

    center: np.ndarray
    radius: float
    avg_normal: np.ndarray
    offset: float

    def shape(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x) @ self.avg_normal - self.offset


def weight(x, t, epsilon: float):
    """Inverse-quartic falloff 1 / (|x-t|^2 + eps^2)^2; broadcasts over rows."""
    if epsilon <= 0.0:
        raise InvalidParameterError("epsilon must be positive")
    d2 = np.sum((np.asarray(x, dtype=np.float64) - np.asarray(t, dtype=np.float64)) ** 2, axis=-1)
    return 1.0 / (d2 + epsilon * epsilon) ** 2


def _quadrature_points(v0, v1, v2, order: int):
    """Quadrature points (k, q, 3) of k triangles and the rule's weights (q,)."""
    bary, omega = _QUADRATURE[order]
    pts = (
        bary[None, :, 0, None] * v0[:, None, :]
        + bary[None, :, 1, None] * v1[:, None, :]
        + bary[None, :, 2, None] * v2[:, None, :]
    )
    return pts, omega


def _pair_moments(centers, quad_pts, omega, areas, epsilon: float):
    """Integrals of w and x*w over a triangle, one per (center, triangle) pair.

    centers (p, 3), quad_pts (p, q, 3) and areas (p,) are row-aligned.
    Returns (int_w (p,), int_xw (p, 3)); zero-area triangles integrate to 0.
    """
    w = weight(quad_pts, centers[:, None, :], epsilon)
    int_w = areas * (w @ omega)
    int_xw = areas[:, None] * np.einsum("pq,q,pqd->pd", w, omega, quad_pts)
    return int_w, int_xw


def fit_cell(center, triangles, cfg: FitConfig, radius: float = 1.0) -> CellFit:
    """Fit the affine shape function for one support sphere.

    `triangles` is a (k, 3, 3) array of member triangle vertices.  The
    radius is carried into the returned CellFit unchanged; membership is the
    caller's responsibility.  This is the kernel `build_surface` runs, for
    one cell.
    """
    cfg.validate()
    center = np.asarray(center, dtype=np.float64)
    tris = np.asarray(triangles, dtype=np.float64).reshape(-1, 3, 3)
    if len(tris) < cfg.min_triangles_for_fit:
        raise InsufficientTrianglesError(
            f"cell got {len(tris)} triangles, needs {cfg.min_triangles_for_fit}"
        )
    epsilon = cfg.epsilon if cfg.epsilon is not None else _default_epsilon(tris)
    v0, v1, v2 = tris[:, 0], tris[:, 1], tris[:, 2]
    areas, tri_normals = triangle_areas_normals(v0, v1, v2)
    quad_pts, omega = _quadrature_points(v0, v1, v2, cfg.quadrature_order)
    k = len(tris)
    normals, offsets = _batched_affines(
        center[None], np.zeros(k, dtype=np.int64), np.arange(k), quad_pts, omega, areas, tri_normals, epsilon
    )
    return CellFit(center=center, radius=float(radius), avg_normal=normals[0], offset=float(offsets[0]))


def _default_epsilon(points: np.ndarray) -> float:
    """DEFAULT_EPSILON_SCALE x the bbox diagonal of a point set, or 1e-3 when
    the points coincide."""
    points = points.reshape(-1, 3)
    diag = float(np.linalg.norm(points.max(axis=0) - points.min(axis=0)))
    return DEFAULT_EPSILON_SCALE * diag if diag > 0.0 else 1e-3


def _running_index(lengths: np.ndarray) -> np.ndarray:
    """0, 1, ..., n-1 for each n in `lengths` (all > 0), concatenated, int32.

    A running sum of ones that drops back to 0 where the next block starts.
    """
    pos = np.ones(int(lengths.sum()), dtype=np.int32)
    pos[0] = 0
    pos[np.cumsum(lengths[:-1])] = 1 - lengths[:-1]
    return np.cumsum(pos, dtype=np.int32, out=pos)


# Relative slack on R^2 in the field's squared-distance prefilter: far
# above the rounding of R*R, so the prefilter never drops a pair that the
# exact r < R test keeps (see `ImplicitSurface._pairs`).
_PREFILTER_SLACK = 1e-12

# Relative slack on a sphere's radius when deciding which voxels its ball
# reaches.  Voxel faces, gaps and point binning each round by a few ulp of
# the coordinates; the slack only ever adds (sphere, voxel) entries.
_BALL_SLACK = 1e-10


class _CellIndex:
    """Uniform voxel grid over the support spheres, CSR layout: each voxel
    lists every sphere whose ball reaches it, in ascending cell order."""

    def __init__(self, centers: np.ndarray, radii: np.ndarray):
        med = float(np.median(radii))
        self.voxel = max(med, 1e-12)
        lo = (centers - radii[:, None]).min(axis=0)
        hi = (centers + radii[:, None]).max(axis=0)
        extent = hi - lo
        dims = np.maximum(1, np.minimum(160, np.ceil(extent / self.voxel).astype(int)))
        self.voxel = float(np.max(extent / dims)) if np.all(extent > 0) else self.voxel
        self.lo = lo
        self.dims = dims

        # A sphere's voxel box, walked as (x, y) columns: the x and y gaps
        # from the center to a column leave a radius under which the z run
        # of reached voxels is one floor() per end.  Only the runs are
        # expanded.  Every int value is under 160**3 (a voxel id or a place
        # within one box), so int32 arrays keep the build's memory down.
        i0 = self._vox_floor(centers - radii[:, None])
        i1 = self._vox_floor(centers + radii[:, None])
        span = (i1 - i0 + 1).astype(np.int32)
        col_owner = np.repeat(np.arange(len(centers), dtype=np.int32), span[:, 0] * span[:, 1])
        pos = _running_index(span[:, 0] * span[:, 1])
        col_y = span[col_owner, 1]
        col_x = pos // col_y
        col_y = pos - col_x * col_y + i0[col_owner, 1]
        col_x += i0[col_owner, 0]
        del pos
        reach = radii + _BALL_SLACK * (radii + float(np.abs(np.concatenate([lo, hi])).max()))
        left = reach[col_owner] ** 2
        for axis, col in ((0, col_x), (1, col_y)):
            face = lo[axis] + col * self.voxel
            c = centers[col_owner, axis]
            gap = np.maximum(np.maximum(face - c, c - (face + self.voxel)), 0.0)
            left -= gap * gap
        hit = left > 0.0
        col_owner, col_x, col_y = col_owner[hit], col_x[hit], col_y[hit]
        half = np.sqrt(left[hit])
        del left, hit
        cz = centers[col_owner, 2]
        z0 = np.maximum(np.floor((cz - half - lo[2]) / self.voxel).astype(np.int32), i0[col_owner, 2])
        z1 = np.minimum(np.floor((cz + half - lo[2]) / self.voxel).astype(np.int32), i1[col_owner, 2])
        del cz, half
        run = z1 - z0 + 1
        # vox = (x * dims[1] + y) * dims[2] + z for z in z0..z1; a column's
        # runs stay in sphere order, so each voxel lists ascending cells
        col_x *= dims[1]
        col_x += col_y
        col_x *= dims[2]
        col_x += z0
        del col_y, z0, z1
        vox = _running_index(run)
        vox += np.repeat(col_x, run)
        self.csr_cells = np.repeat(col_owner, run)[np.argsort(vox, kind="stable")]
        counts = np.bincount(vox, minlength=int(np.prod(dims)))
        self.csr_start = np.concatenate([[0], np.cumsum(counts)])

    def _vox_floor(self, p: np.ndarray) -> np.ndarray:
        idx = np.floor((p - self.lo) / self.voxel).astype(int)
        return np.clip(idx, 0, self.dims - 1)

    def candidate_pairs(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(row, cell) pairs whose sphere reaches the voxel holding the point."""
        idx = np.floor((points - self.lo) / self.voxel).astype(int)
        inside = np.flatnonzero(np.all((idx >= 0) & (idx < self.dims), axis=1))
        idx = idx[inside]
        flat = (idx[:, 0] * self.dims[1] + idx[:, 1]) * self.dims[2] + idx[:, 2]
        starts = self.csr_start[flat]
        lens = self.csr_start[flat + 1] - starts
        # entry j of a point's run is csr_cells[start + j]; `take` counts
        # through all runs at once, shifted per run by start - run offset
        take = np.repeat(starts - (np.cumsum(lens) - lens), lens)
        take += np.arange(len(take))
        return np.repeat(inside, lens), self.csr_cells[take]


class ImplicitSurface:
    """Immutable fitted surface: cell arrays, spatial index, bbox, epsilon."""

    def __init__(self, centers, radii, normals, offsets, bbox_lo, bbox_hi, epsilon, diagnostics=None):
        self.centers = np.asarray(centers, dtype=np.float64).reshape(-1, 3)
        self.radii = np.asarray(radii, dtype=np.float64).ravel()
        self.normals = np.asarray(normals, dtype=np.float64).reshape(-1, 3)
        self.offsets = np.asarray(offsets, dtype=np.float64).ravel()
        self.bbox_lo = np.asarray(bbox_lo, dtype=np.float64)
        self.bbox_hi = np.asarray(bbox_hi, dtype=np.float64)
        self.epsilon = float(epsilon)
        self.diagnostics = diagnostics or {}
        if len(self.centers) == 0:
            raise InvalidParameterError("a surface needs at least one cell")
        self.index = _CellIndex(self.centers, self.radii)
        self._center_tree = cKDTree(self.centers)
        # the field's pair kernel gathers one contiguous axis at a time and
        # prefilters squared distances (see `_pairs`)
        self._center_axes = tuple(np.ascontiguousarray(self.centers[:, axis]) for axis in range(3))
        r2 = self.radii * self.radii
        self._prefilter_r2 = np.where(r2 >= np.finfo(np.float64).tiny, r2 * (1.0 + _PREFILTER_SLACK), np.inf)

    @property
    def cells(self) -> list[CellFit]:
        return [
            CellFit(self.centers[i].copy(), float(self.radii[i]), self.normals[i].copy(), float(self.offsets[i]))
            for i in range(len(self.centers))
        ]

    def bbox_diagonal(self) -> float:
        return float(np.linalg.norm(self.bbox_hi - self.bbox_lo))

    # -- field evaluation ---------------------------------------------------

    def _pairs(self, points: np.ndarray):
        """(row, cell, r) for every point strictly inside a sphere, r < R,
        with r the point's distance from the center; by row, then cell.

        r is sqrt(dx*dx + dy*dy + dz*dz), summed in the order
        np.linalg.norm(axis=1) uses, so it has the same bits.  Candidates
        are first cut by d2 < R2 with R2 = fl(fl(R*R) * (1 + 1e-12)); only
        survivors pay for the sqrt and the exact test.  The cut keeps every
        pair the exact test keeps: r = fl(sqrt(d2)) < R with R a double
        means sqrt(d2) < R (rounding is monotone), so d2 < R*R exactly.
        Where fl(R*R) is a normal double it is at least R*R*(1 - 2**-53),
        and the slack, 1e-12 against three roundings (R*R, 1 + 1e-12 and
        the product) of at most 2**-53 each, lifts R2 above R*R.  Where
        R*R underflows (fl(R*R) below the smallest normal double) that
        relative bound fails, so R2 is infinite there and the exact test
        alone decides.
        """
        rows, cells = self.index.candidate_pairs(points)
        d2 = None
        for axis, center_axis in enumerate(self._center_axes):
            d = points[:, axis][rows]
            d -= center_axis[cells]
            d *= d
            d2 = d if d2 is None else np.add(d2, d, out=d2)
        near = np.flatnonzero(d2 < self._prefilter_r2[cells])
        rows, cells = rows[near], cells[near]
        r = np.sqrt(d2[near])
        keep = r < self.radii[cells]
        return rows[keep], cells[keep], r[keep]

    def _blend(self, points: np.ndarray, want_gradient: bool):
        n = len(points)
        rows, cells, r = self._pairs(points)
        radii = self.radii[cells]
        u = r / radii
        inner = u <= (1.0 / 3.0)
        q = np.where(inner, 0.75 - 2.25 * u * u, 1.125 * (1.0 - u) ** 2)
        s = np.einsum("ij,ij->i", points[rows], self.normals[cells]) - self.offsets[cells]

        num = np.bincount(rows, weights=q * s, minlength=n)
        den = np.bincount(rows, weights=q, minlength=n)
        covered = den > 0.0
        f = np.where(covered, num / np.where(covered, den, 1.0), 0.0)

        if not want_gradient:
            return f, covered

        delta = points[rows] - self.centers[cells]
        # dq/du * grad u; the inner branch folds the 1/r singularity away
        safe_r = np.where(r == 0.0, 1.0, r)
        gq_scale = np.where(
            inner,
            -4.5 / (radii * radii),
            -2.25 * (1.0 - u) / (radii * safe_r),
        )
        grad_q = gq_scale[:, None] * delta
        grad_num = np.zeros((n, 3))
        grad_den = np.zeros((n, 3))
        for d in range(3):
            grad_num[:, d] = np.bincount(
                rows, weights=grad_q[:, d] * s + q * self.normals[cells, d], minlength=n
            )
            grad_den[:, d] = np.bincount(rows, weights=grad_q[:, d], minlength=n)
        den_safe = np.where(covered, den, 1.0)
        grad = (grad_num * den_safe[:, None] - num[:, None] * grad_den) / (den_safe**2)[:, None]
        return f, covered, grad

    def _fallback_cells(self, points: np.ndarray) -> np.ndarray:
        _, nearest = self._center_tree.query(points, k=1)
        return np.atleast_1d(nearest)

    def eval_many(self, points: np.ndarray, uncovered_value: float | None = None) -> np.ndarray:
        """Field values for (n, 3) points.

        uncovered_value short-circuits the nearest-cell fallback for callers
        (the ray marcher) that only need a positive placeholder outside the
        covered region; None keeps the exact fallback.
        """
        points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        f, covered = self._blend(points, want_gradient=False)
        if np.all(covered):
            return f
        if uncovered_value is not None:
            f[~covered] = uncovered_value
            return f
        miss = np.flatnonzero(~covered)
        near = self._fallback_cells(points[miss])
        f[miss] = (
            np.einsum("ij,ij->i", points[miss], self.normals[near]) - self.offsets[near]
        )
        return f

    def gradient_many(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        _, covered, grad = self._blend(points, want_gradient=True)
        if not np.all(covered):
            miss = np.flatnonzero(~covered)
            near = self._fallback_cells(points[miss])
            grad[miss] = self.normals[near]
        return grad


def eval(surface: ImplicitSurface, x) -> float | np.ndarray:  # noqa: A001 - name fixed by the API
    """Blended field value at x ((3,) or (n, 3))."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    out = surface.eval_many(x.reshape(-1, 3))
    return float(out[0]) if single else out


def gradient(surface: ImplicitSurface, x) -> np.ndarray:
    """Closed-form gradient of the blended field at x ((3,) or (n, 3))."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    out = surface.gradient_many(x.reshape(-1, 3))
    return out[0] if single else out


# (cell, triangle) pairs per batch of `_batched_affines`.  Each batch adds
# its bincount sums into the cells' moments, so this size sets the order in
# which the moments are summed: moving it changes the bits of every fit and
# of the `.mpuf` caches.
_PAIR_CHUNK = 1 << 18

# (point, triangle) pairs per call of the distance kernel.  Its two dozen
# temporaries then take a few MB, not the hundreds of MB of a `_PAIR_CHUNK`
# block, and the small preset's fit runs fastest at about this size.  Each
# pair's distance is computed alone, so the block size never changes a bit.
_DIST_BLOCK = 1 << 14

_CHILD_OFFSETS = np.array(
    [[dx, dy, dz] for dx in (-0.25, 0.25) for dy in (-0.25, 0.25) for dz in (-0.25, 0.25)]
)


def _pair_distances(points: np.ndarray, tri_ids: np.ndarray, v0, v1, v2) -> np.ndarray:
    d = np.empty(len(tri_ids))
    for a in range(0, len(tri_ids), _DIST_BLOCK):
        b = min(a + _DIST_BLOCK, len(tri_ids))
        t = tri_ids[a:b]
        d[a:b] = dist_points_to_triangles(points[a:b], v0[t], v1[t], v2[t])
    return d


def _batched_affines(centers, pair_cells, pair_tris, quad_pts, omega, areas, tri_normals, epsilon):
    """Fit every cell's shape function from flat (cell, triangle) pairs.

    n_avg and p_avg of the module docstring are the pair moments summed per
    cell with bincount, in pair order.  Cells whose weighted normal cancels
    take the nearest member triangle's normal.
    """
    n = len(centers)
    num_n = np.zeros((n, 3))
    num_p = np.zeros((n, 3))
    den = np.zeros(n)
    for a in range(0, len(pair_cells), _PAIR_CHUNK):
        b = min(a + _PAIR_CHUNK, len(pair_cells))
        cid, tid = pair_cells[a:b], pair_tris[a:b]
        int_w, int_xw = _pair_moments(centers[cid], quad_pts[tid], omega, areas[tid], epsilon)
        den += np.bincount(cid, weights=int_w, minlength=n)
        for axis in range(3):
            num_n[:, axis] += np.bincount(cid, weights=int_w * tri_normals[tid, axis], minlength=n)
            num_p[:, axis] += np.bincount(cid, weights=int_xw[:, axis], minlength=n)
    if np.any(den <= 0.0):
        raise InsufficientTrianglesError("a cell has only degenerate member triangles")
    avg_normal = num_n / den[:, None]
    avg_point = num_p / den[:, None]

    cancelled = np.flatnonzero(np.linalg.norm(avg_normal, axis=1) < 1e-12)
    for i in cancelled:
        # opposing normals cancelled; use the nearest member triangle's
        tids = pair_tris[pair_cells == i]
        tri_c = quad_pts[tids].mean(axis=1)  # symmetric rules average to the centroid
        nearest = tids[int(np.argmin(np.sum((tri_c - centers[i]) ** 2, axis=1)))]
        avg_normal[i] = tri_normals[nearest]

    offsets = np.einsum("ij,ij->i", avg_point, avg_normal)
    return avg_normal, offsets


def build_surface(mesh: TriangleMesh, cfg: FitConfig | None = None) -> ImplicitSurface:
    """Cover the mesh with fitted spheres (see module docstring for rules)."""
    cfg = cfg or FitConfig()
    cfg.validate()
    if len(mesh.triangles) == 0:
        raise EmptyMeshError("mesh has no triangles")
    if cfg.min_triangles_for_fit > len(mesh.triangles):
        # no sphere could ever hold the quota
        raise InsufficientTrianglesError(
            f"min_triangles_for_fit={cfg.min_triangles_for_fit} exceeds the "
            f"mesh's {len(mesh.triangles)} triangles"
        )
    v0, v1, v2 = mesh.corners()
    areas, tri_normals = triangle_areas_normals(v0, v1, v2)
    if not np.any(areas > 0.0):
        raise EmptyMeshError("mesh has no non-degenerate triangles")

    lo, hi = mesh.bbox()
    diag = float(np.linalg.norm(hi - lo))
    pad = max(1e-9, 1e-9 * diag)
    degenerate_axes = (hi - lo) <= 0.0
    lo = lo - np.where(degenerate_axes, 1e-6 + pad, pad)
    hi = hi + np.where(degenerate_axes, 1e-6 + pad, pad)
    epsilon = cfg.epsilon if cfg.epsilon is not None else _default_epsilon(mesh.vertices)

    scale = cfg.sphere_radius_scale
    n_tris = len(mesh.triangles)

    centroids = (v0 + v1 + v2) / 3.0
    reach = float(
        np.sqrt(
            np.maximum(
                np.sum((v0 - centroids) ** 2, axis=1),
                np.maximum(
                    np.sum((v1 - centroids) ** 2, axis=1),
                    np.sum((v2 - centroids) ** 2, axis=1),
                ),
            ).max()
        )
    )
    centroid_tree = cKDTree(centroids)

    # level-synchronous descent: all nodes of one depth share a flat
    # (node, candidate) pair array so the distance kernel runs in bulk
    lvl_centers = ((lo + hi) / 2.0)[None, :]
    lvl_sizes = (hi - lo)[None, :]
    lvl_cand = np.arange(n_tris)
    lvl_counts = np.array([n_tris])
    depth = 1

    leaf_centers: list[np.ndarray] = []
    leaf_radii: list[np.ndarray] = []
    leaf_pair_cells: list[np.ndarray] = []  # leaf ids, assigned level by level
    leaf_pair_tris: list[np.ndarray] = []
    grow_centers: list[np.ndarray] = []
    n_leaves = 0

    while len(lvl_centers):
        n_nodes = len(lvl_centers)
        diag_lvl = np.linalg.norm(lvl_sizes, axis=1)
        radii_lvl = scale * diag_lvl
        node_of_pair = np.repeat(np.arange(n_nodes), lvl_counts)
        d = _pair_distances(lvl_centers[node_of_pair], lvl_cand, v0, v1, v2)

        member_mask = d <= radii_lvl[node_of_pair]
        member_counts = np.bincount(node_of_pair[member_mask], minlength=n_nodes)
        split = (member_counts > cfg.max_triangles_per_cell) & (depth < cfg.max_depth)
        # empty leaves are dropped outright; undersized ones grow later
        settle = ~split & (member_counts >= max(1, cfg.min_triangles_for_fit))
        grow = ~split & (member_counts > 0) & ~settle

        if np.any(settle):
            ids = np.flatnonzero(settle)
            keep_pair = settle[node_of_pair] & member_mask
            leaf_centers.append(lvl_centers[ids])
            leaf_radii.append(radii_lvl[ids])
            # pair leaf ids: contiguous block for this level's settled nodes
            local = np.cumsum(settle) - 1
            leaf_pair_cells.append(n_leaves + local[node_of_pair[keep_pair]])
            leaf_pair_tris.append(lvl_cand[keep_pair])
            n_leaves += len(ids)
        grow_centers.append(lvl_centers[grow])

        if not np.any(split):
            break
        # children inherit candidates provably sufficient for their spheres
        # and their own boxes: anything within max(scale, 1/2) x child
        # diagonal of a child center lies within this bound of the parent
        child_bound = (0.5 * max(scale, 0.5) + 0.25) * diag_lvl
        cand_mask = split[node_of_pair] & (d <= child_bound[node_of_pair])
        split_ids = np.flatnonzero(split)
        seg_counts = np.bincount(node_of_pair[cand_mask], minlength=n_nodes)[split_ids]
        seg_flat = lvl_cand[cand_mask]
        seg_starts = np.concatenate([[0], np.cumsum(seg_counts)[:-1]])

        child_counts = np.repeat(seg_counts, 8)
        total = int(child_counts.sum())
        child_of_entry = np.repeat(np.arange(len(split_ids) * 8), child_counts)
        ends = np.cumsum(child_counts)
        pos = np.arange(total) - np.repeat(ends - child_counts, child_counts)
        lvl_cand = seg_flat[seg_starts[child_of_entry // 8] + pos]
        lvl_counts = child_counts
        lvl_centers = (
            lvl_centers[split_ids][:, None, :]
            + _CHILD_OFFSETS[None, :, :] * lvl_sizes[split_ids][:, None, :]
        ).reshape(-1, 3)
        lvl_sizes = np.repeat(lvl_sizes[split_ids] / 2.0, 8, axis=0)
        depth += 1

    def near_triangles(center: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
        # ascending ids of every triangle whose centroid lies within
        # radius + reach, a superset of those within radius (`reach` bounds
        # how far a triangle extends past its centroid), and their exact
        # distances from the descent's kernel
        ids = centroid_tree.query_ball_point(center, radius + reach, return_sorted=True)
        ids = np.array(ids, dtype=np.int64)
        return ids, _pair_distances(np.tile(center, (len(ids), 1)), ids, v0, v1, v2)

    # undersized spheres grow to the k-th nearest triangle distance (module
    # docstring).  No triangle lies farther than its centroid, so the k-th
    # nearest centroid distance bounds that distance and one ball holds it.
    need = cfg.min_triangles_for_fit
    grow_at = np.concatenate(grow_centers)
    bounds = centroid_tree.query(grow_at, k=[need])[0][:, 0]
    for center, bound in zip(grow_at, bounds):
        ids, d = near_triangles(center, bound)
        radius = float(np.partition(d, need - 1)[need - 1]) * (1.0 + 1e-9)
        members = ids[d <= radius]
        leaf_pair_cells.append(np.full(len(members), n_leaves, dtype=np.int64))
        leaf_pair_tris.append(members)
        leaf_centers.append(center[None, :])
        leaf_radii.append(np.array([radius]))
        n_leaves += 1
    grown = len(grow_at)

    if not leaf_centers:
        raise EmptyMeshError("no octree cell reached any triangle")
    centers = np.concatenate(leaf_centers)
    radii = np.concatenate(leaf_radii)
    pair_cells = np.concatenate(leaf_pair_cells)
    pair_tris = np.concatenate(leaf_pair_tris)

    # ensure sphere coverage of every mesh vertex; a vertex can end up bare
    # when sphere_radius_scale < 0.5 leaves its own box's sphere too small
    # (possibly dropping that box as empty).  Bare vertices only scale radii
    # here; each regrown cell takes its members once, after the loop.
    tree = cKDTree(centers)
    d_near, near = tree.query(mesh.vertices, k=1)
    uncovered = d_near > radii[near]
    regrown = 0
    is_regrown = np.zeros(len(centers), dtype=bool)
    while np.any(uncovered):
        cids = np.unique(near[uncovered])
        radii[cids] *= 1.5
        regrown += len(cids)
        is_regrown[cids] = True
        uncovered = np.linalg.norm(mesh.vertices - centers[near], axis=1) > radii[near]

    if regrown:
        keep = ~is_regrown[pair_cells]
        parts_c, parts_t = [pair_cells[keep]], [pair_tris[keep]]
        for cid in np.flatnonzero(is_regrown):
            ids, d = near_triangles(centers[cid], radii[cid])
            members = ids[d <= radii[cid]]
            parts_c.append(np.full(len(members), cid, dtype=np.int64))
            parts_t.append(members)
        pair_cells = np.concatenate(parts_c)
        pair_tris = np.concatenate(parts_t)

    quad_pts, omega = _quadrature_points(v0, v1, v2, cfg.quadrature_order)
    normals_out, offsets_out = _batched_affines(
        centers, pair_cells, pair_tris, quad_pts, omega, areas, tri_normals, epsilon
    )

    diagnostics = {
        "cells": len(centers),
        "grown_spheres": grown,
        "coverage_regrown": regrown,
        "epsilon": epsilon,
    }
    return ImplicitSurface(centers, radii, normals_out, offsets_out, lo, hi, epsilon, diagnostics)


def cell_markers(surface: ImplicitSurface) -> TriangleMesh:
    """Debug geometry: one octahedron per cell, sized by its support radius."""
    n = len(surface.centers)
    offsets = np.array(
        [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
        dtype=np.float64,
    )
    verts = (surface.centers[:, None, :] + surface.radii[:, None, None] * offsets).reshape(-1, 3)
    faces = np.array(
        [[0, 2, 4], [2, 1, 4], [1, 3, 4], [3, 0, 4], [2, 0, 5], [1, 2, 5], [3, 1, 5], [0, 3, 5]],
        dtype=np.int64,
    )
    tris = (faces[None, :, :] + 6 * np.arange(n)[:, None, None]).reshape(-1, 3)
    return TriangleMesh(verts, tris)


# -- binary cache ------------------------------------------------------------

_MAGIC = b"MPUF"
_VERSION = 2
_HEADER = 4 + 4 + 32 + 8 + 48 + 8


def surface_key(mesh_obj: bytes, cfg: FitConfig) -> bytes:
    """Cache key of a fit: SHA-256 over the mesh's .obj bytes and the
    sorted-key JSON of the fit config."""
    h = hashlib.sha256(mesh_obj)
    h.update(json.dumps(asdict(cfg), sort_keys=True).encode("utf-8"))
    return h.digest()


def save_surface(surface: ImplicitSurface, path, key: bytes | None = None) -> None:
    """Binary cache: magic, version, key (`surface_key`, or zeros), epsilon,
    bbox, then the cell arrays."""
    n = len(surface.centers)
    key = bytes(32) if key is None else key
    if len(key) != 32:
        raise InvalidParameterError("a surface cache key is 32 bytes")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(key)
        fh.write(struct.pack("<d", surface.epsilon))
        fh.write(struct.pack("<6d", *surface.bbox_lo, *surface.bbox_hi))
        fh.write(struct.pack("<Q", n))
        fh.write(surface.centers.astype("<f8").tobytes())
        fh.write(surface.radii.astype("<f8").tobytes())
        fh.write(surface.normals.astype("<f8").tobytes())
        fh.write(surface.offsets.astype("<f8").tobytes())


def load_surface(path, key: bytes | None = None) -> ImplicitSurface:
    """Read a cache written by `save_surface`.

    With a key, a cache saved under any other key (another mesh or fit
    config) raises SurfaceCacheError, as do other versions and damage.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 8 or blob[:4] != _MAGIC:
        raise SurfaceCacheError(f"{path}: not a surface cache file")
    version = struct.unpack_from("<I", blob, 4)[0]
    if version != _VERSION:
        raise SurfaceCacheError(f"{path}: unsupported cache version {version}")
    if len(blob) < _HEADER:
        raise SurfaceCacheError(f"{path}: truncated cache ({len(blob)} of {_HEADER} header bytes)")
    if key is not None and blob[8:40] != key:
        raise SurfaceCacheError(f"{path}: cache key differs from this mesh and fit config")
    epsilon = struct.unpack_from("<d", blob, 40)[0]
    box = struct.unpack_from("<6d", blob, 48)
    n = struct.unpack_from("<Q", blob, 96)[0]
    need = _HEADER + n * (3 + 1 + 3 + 1) * 8
    if len(blob) < need:
        raise SurfaceCacheError(f"{path}: truncated cache ({len(blob)} of {need} bytes)")
    off = _HEADER
    centers = np.frombuffer(blob, dtype="<f8", count=3 * n, offset=off).reshape(n, 3)
    off += 24 * n
    radii = np.frombuffer(blob, dtype="<f8", count=n, offset=off)
    off += 8 * n
    normals = np.frombuffer(blob, dtype="<f8", count=3 * n, offset=off).reshape(n, 3)
    off += 24 * n
    offsets = np.frombuffer(blob, dtype="<f8", count=n, offset=off)
    return ImplicitSurface(centers, radii, normals, offsets, box[:3], box[3:], epsilon)
