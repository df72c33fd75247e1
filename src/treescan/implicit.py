"""Smooth implicit surfaces from triangle meshes.

The mesh's bounding box is subdivided into an octree; a cell splits while
more than `MAX_TRIANGLES_PER_CELL` triangles lie within its support sphere
(radius = `SPHERE_RADIUS_SCALE` x cell diagonal, centered at the cell
center) and its depth is below `MAX_DEPTH`. Leaves whose sphere reaches no
triangle at all are dropped: they have nothing to fit. Every other leaf is
a cell: the fit integrates over whole triangles, so one member triangle
already fixes a plane, and no sphere grows to gather more.

The field is defined on every point of the mesh, because
`SPHERE_RADIUS_SCALE` exceeds 0.5. Each box of the descent that holds a
point of a triangle holds it within half the box's diagonal of its center,
so the triangle stays a candidate and a member of each such box, down to a
kept leaf, and the point lies strictly inside that leaf's sphere.

Each cell fits an affine shape function to the triangles in its sphere,

    s(x) = <x, n_avg> - <p_avg, n_avg>,

where n_avg and p_avg are weighted averages over the member triangles with
weight w(x, t) = 1 / (|x - t|^2 + eps^2)^2 integrated per triangle by the
symmetric 7-point barycentric rule, exact for polynomials of degree 5.
Outward mesh normals make s (and hence the blend) positive outside.

The global field blends the cells that contain the query point:

    f(x) = sum_i q_i(x) s_i(x) / sum_i q_i(x),

with q_i a quadratic B-spline bump of u = r_i / R_i that is C1 and reaches
zero at the sphere boundary:

    q(u) = 0.75 - 2.25 u^2         for u <= 1/3,
    q(u) = 1.125 (1 - u)^2         for 1/3 < u <= 1,
    q(u) = 0                       beyond.

The blend is defined only where some sphere strictly holds the query point
(r_i < R_i); `eval_many` and `gradient_many` return NaN everywhere else.
The ray marcher reads NaN as exterior.

The fit works in bounded pieces without moving a bit of its output. The
octree descent walks batches of subtrees depth first, stepping each batch
one level at a time under a fixed budget of (node, triangle) pairs, and
then puts its leaves back in level order (by depth, then child path):
cell ids and the order in which each cell's moments are summed are those
of one level-synchronous walk of the whole tree. The moments are computed
in cache-sized blocks, and the cell index is built a chunk of spheres at
a time.

The descent reads its exact point–triangle distances only in `<=` tests,
against a node's radius (membership) and its child bound (the children's
candidates).  A change to how a distance is rounded moves a cell only if
it moves one of those comparisons.

A split node hands each child only the candidates a half-space bound
leaves within the child's radius.  For a unit vector u and a triangle T
with vertices v_i, every point of T has <., u> <= max_i <v_i, u>, so

    d(y, T) >= <y, u> - max_i <v_i, u>.

The descent takes u = (x - q) / d, with x the node's center and q the
kernel's closest point on T at distance d, and y = x + o a child's
center; the eight <o, u> are +-w_x +- w_y +- w_z, w_a = size_a u_a / 4.
A (child, triangle) pair is dropped when the bound exceeds the child's
radius plus a slack (`_CULL_SLACK`) that covers its rounding.  The bound
holds for any unit u, so it needs no promise that q is the nearest point
of T; the shorter d + <o, u>, which takes q to be the nearest point,
would need one.
The bits of the fit hold: the kernel never returns less than the true
distance, since its closest point lies on T, so a dropped pair's distance
at the child exceeds the child's radius.  That radius is at least the
child's own child bound (`SPHERE_RADIUS_SCALE` > 0.5), so the pair was
neither a member of the child nor a candidate of its children.  Each kept
pair's distance is computed on its own, in candidate order, so members,
splits, leaf order and the moments' summation order are unchanged.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    EmptyMeshError,
    InsufficientTrianglesError,
    InvalidParameterError,
    SurfaceCacheError,
)
from .geometry import _dot, dist_points_to_triangles, flat_triangles, triangle_areas_normals
from .mesh import TriangleMesh

DEFAULT_EPSILON_SCALE = 0.005  # of the bbox diagonal, when epsilon is not given

# the symmetric 7-point barycentric rule: coords (7, 3), weights (7,)
_QUADRATURE = (
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
)


# The octree's fixed settings (module docstring)
MAX_DEPTH = 10  # at most 21: a node's path, 3 bits a level, fits an int64
MAX_TRIANGLES_PER_CELL = 32
SPHERE_RADIUS_SCALE = 1.0  # above 0.5, so the descent alone covers the mesh


def octree_settings() -> dict:
    """The octree's constants under the names they had as `FitConfig` fields,
    for `surface_key` to hash and for configs that still hold those fields."""
    names = ("max_depth", "max_triangles_per_cell", "sphere_radius_scale")
    return dict(zip(names, (MAX_DEPTH, MAX_TRIANGLES_PER_CELL, SPHERE_RADIUS_SCALE)))


@dataclass
class FitConfig:
    """Fitting controls.

    epsilon: smoothing width of the weight function, in model units; None
    picks 0.005 x bbox diagonal at build time.  The octree's settings are
    the constants `MAX_DEPTH`, `MAX_TRIANGLES_PER_CELL` and
    `SPHERE_RADIUS_SCALE`, and the quadrature rule and the one-triangle
    floor of a cell are fixed too (module docstring).
    """

    epsilon: float | None = None

    def validate(self) -> None:
        if self.epsilon is not None and not self.epsilon > 0.0:
            raise InvalidParameterError("epsilon must be positive (or None for automatic)")


def weight(x, t, epsilon: float):
    """Inverse-quartic falloff 1 / (|x-t|^2 + eps^2)^2; broadcasts over rows.

    |x-t|^2 adds the squared differences one axis at a time, in the order
    np.sum(axis=-1) adds them, so it has the same bits without building a
    (..., 3) difference array.
    """
    if epsilon <= 0.0:
        raise InvalidParameterError("epsilon must be positive")
    x = np.asarray(x, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    d2 = 0.0
    for axis in range(3):
        d = x[..., axis] - t[..., axis]
        d2 = d2 + d * d
    return 1.0 / (d2 + epsilon * epsilon) ** 2


def _quadrature_points(v0, v1, v2):
    """Quadrature points (k, 7, 3) of k triangles and the rule's weights (7,)."""
    bary, omega = _QUADRATURE
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


def _running_index(lengths: np.ndarray) -> np.ndarray:
    """0, 1, ..., n-1 for each n in `lengths` (all > 0), concatenated, int32.

    A running sum of ones that drops back to 0 where the next block starts.
    """
    pos = np.ones(int(lengths.sum()), dtype=np.int32)
    pos[0] = 0
    pos[np.cumsum(lengths[:-1])] = 1 - lengths[:-1]
    return np.cumsum(pos, dtype=np.int32, out=pos)


# Relative slack on a sphere's radius when deciding which voxels its ball
# reaches.  Voxel faces, gaps and point binning each round by a few ulp of
# the coordinates; the slack only ever adds (sphere, voxel) entries.
_BALL_SLACK = 1e-10

# Spheres per chunk of the cell index build: a chunk's column arrays take a
# few MB.  Chunks are concatenated in sphere order before the one sort, so
# the chunk size never changes the index.
_INDEX_CHUNK = 1 << 12


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

        # Each sphere's (voxel, sphere) entries, built for a chunk of
        # spheres at a time and concatenated in sphere order, then sorted as
        # unique keys voxel * n + sphere: each voxel lists its cells in
        # ascending order, as a stable sort by voxel would.
        n = len(centers)
        i0 = self._vox_floor(centers - radii[:, None])
        i1 = self._vox_floor(centers + radii[:, None])
        reach = radii + _BALL_SLACK * (radii + float(np.abs(np.concatenate([lo, hi])).max()))
        parts = [
            self._ball_entries(np.arange(a, min(a + _INDEX_CHUNK, n), dtype=np.int32), centers, reach, i0, i1)
            for a in range(0, n, _INDEX_CHUNK)
        ]
        vox = np.concatenate([v for v, _ in parts])
        cells = np.concatenate([c for _, c in parts])
        del parts
        counts = np.bincount(vox, minlength=int(np.prod(dims)))
        keys = vox.astype(np.int64)
        del vox
        keys *= n
        keys += cells
        del cells
        keys.sort()
        self.csr_cells = np.remainder(keys, n, out=keys).astype(np.int32)
        del keys
        self.csr_start = np.concatenate([[0], np.cumsum(counts)])

    def _ball_entries(self, spheres, centers, reach, i0, i1):
        """(voxel, sphere) entries of `spheres`: by sphere, then voxel id.

        A sphere's voxel box is walked as (x, y) columns: the x and y gaps
        from the center to a column leave a radius under which the z run of
        reached voxels is one floor() per end.  Only the runs are expanded.
        Every int value is under 160**3 (a voxel id or a place within one
        box), so int32 arrays keep the build's memory down.
        """
        lo, dims = self.lo, self.dims
        span = (i1[spheres] - i0[spheres] + 1).astype(np.int32)
        col_owner = np.repeat(spheres, span[:, 0] * span[:, 1])
        pos = _running_index(span[:, 0] * span[:, 1])
        col_y = np.repeat(span[:, 1], span[:, 0] * span[:, 1])
        col_x = pos // col_y
        col_y = pos - col_x * col_y + i0[col_owner, 1]
        col_x += i0[col_owner, 0]
        del pos
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
        # vox = (x * dims[1] + y) * dims[2] + z for z in z0..z1
        col_x *= dims[1]
        col_x += col_y
        col_x *= dims[2]
        col_x += z0
        del col_y, z0, z1
        vox = _running_index(run)
        vox += np.repeat(col_x, run)
        return vox, np.repeat(col_owner, run)

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


def _axes(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The x, y and z columns of (n, 3) points, each a contiguous array."""
    return tuple(np.ascontiguousarray(points[:, axis]) for axis in range(3))


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
        # the field's pair kernels gather one contiguous axis at a time
        self._center_axes = _axes(self.centers)
        self._normal_axes = _axes(self.normals)

    def bbox_diagonal(self) -> float:
        return float(np.linalg.norm(self.bbox_hi - self.bbox_lo))

    # -- field evaluation ---------------------------------------------------

    def _pairs(self, points: np.ndarray, axes=None):
        """(row, cell, r) for every point strictly inside a sphere, r < R,
        with r the point's distance from the center; by row, then cell.
        axes, when given, are the points' coordinates as `_axes(points)`.

        r is sqrt(dx*dx + dy*dy + dz*dz), summed in the order
        np.linalg.norm(axis=1) uses, so it has the same bits.
        """
        rows, cells = self.index.candidate_pairs(points)
        d2 = None
        for p, center_axis in zip(_axes(points) if axes is None else axes, self._center_axes):
            d = p[rows]
            d -= center_axis[cells]
            d *= d
            d2 = d if d2 is None else np.add(d2, d, out=d2)
        r = np.sqrt(d2, out=d2)
        keep = np.flatnonzero(r < self.radii[cells])
        return rows[keep], cells[keep], r[keep]

    def _blend(self, points: np.ndarray, want_gradient: bool):
        """Field values (n,), and gradients (n, 3) if wanted; NaN rows where
        no sphere holds the point."""
        n = len(points)
        axes = _axes(points)
        rows, cells, r = self._pairs(points, axes)
        radii = self.radii[cells]
        u = r / radii
        inner = u <= (1.0 / 3.0)
        q = np.where(inner, 0.75 - 2.25 * u * u, 1.125 * (1.0 - u) ** 2)
        # s = <p, n> - offset.  numpy's einsum("ij,ij->i") sums the three
        # products as (x + z) + y; written out in that order, s keeps the
        # bits it had as an einsum (pinned by test_implicit.py's
        # test_shape_values_sum_in_einsums_order)
        px, py, pz = (a[rows] for a in axes)
        nx, ny, nz = (a[cells] for a in self._normal_axes)
        s = px * nx + pz * nz
        s += py * ny
        s -= self.offsets[cells]

        num = np.bincount(rows, weights=q * s, minlength=n)
        den = np.bincount(rows, weights=q, minlength=n)
        covered = den > 0.0
        den_safe = np.where(covered, den, 1.0)
        f = np.where(covered, num / den_safe, np.nan)

        if not want_gradient:
            return f

        # dq/du * grad u; the inner branch folds the 1/r singularity away
        safe_r = np.where(r == 0.0, 1.0, r)
        gq_scale = np.where(
            inner,
            -4.5 / (radii * radii),
            -2.25 * (1.0 - u) / (radii * safe_r),
        )
        grad_num = np.zeros((n, 3))
        grad_den = np.zeros((n, 3))
        for d, (p, normal, center_axis) in enumerate(zip((px, py, pz), (nx, ny, nz), self._center_axes)):
            grad_q = gq_scale * (p - center_axis[cells])
            grad_num[:, d] = np.bincount(rows, weights=grad_q * s + q * normal, minlength=n)
            grad_den[:, d] = np.bincount(rows, weights=grad_q, minlength=n)
        grad = (grad_num * den_safe[:, None] - num[:, None] * grad_den) / (den_safe**2)[:, None]
        grad[~covered] = np.nan
        return f, grad

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        """Field values for (n, 3) points; NaN outside every sphere."""
        return self._blend(np.asarray(points, dtype=np.float64).reshape(-1, 3), want_gradient=False)

    def gradient_many(self, points: np.ndarray) -> np.ndarray:
        """Field gradients for (n, 3) points; NaN rows outside every sphere."""
        return self._blend(np.asarray(points, dtype=np.float64).reshape(-1, 3), want_gradient=True)[1]


# (cell, triangle) pairs per batch of `_batched_affines`.  Each batch adds
# its bincount sums into the cells' moments, so this size sets the order in
# which the moments are summed: moving it changes the bits of every fit and
# of the `.mpuf` caches.  It does not set the fit's memory: a batch's pair
# moments are computed in `_MOMENT_BLOCK` pieces.
_PAIR_CHUNK = 1 << 18

# (cell, triangle) pairs per `_pair_moments` call: its quadrature gathers
# and weights then take a few hundred kB.  Each pair's moments are computed
# alone, so the block size never changes a bit, as long as no block holds a
# single pair of a larger batch (see `_batched_affines`); keep it >= 2.
_MOMENT_BLOCK = 1 << 12

# (point, triangle) pairs per call of the distance kernel.  Its three dozen
# 1-D temporaries then take a few MB, and the small preset's fit runs
# fastest at about this size (a quarter of it or four times it cost 12 %
# and 39 % more).
# Each pair's distance is computed alone, so the block size never changes
# a bit.
_DIST_BLOCK = 1 << 14

# (node, candidate) pairs per step of the octree descent: a step's arrays
# then take a few MB.  Each node's split, members and children's candidates
# depend on its own pairs alone, so the budget never changes a bit.
_DESCENT_PAIRS = 1 << 16

# Slack on the child radius when the half-space bound drops a (child,
# triangle) pair, relative to the bbox diagonal plus the largest coordinate:
# it absorbs the rounding of the bound, of the child centers and of the
# kernel's distances, each a few ulp of the coordinates.
_CULL_SLACK = 1e-9

_CHILD_OFFSETS = np.array(
    [[dx, dy, dz] for dx in (-0.25, 0.25) for dy in (-0.25, 0.25) for dz in (-0.25, 0.25)]
)


def _pair_distances(
    points: np.ndarray, tri_ids: np.ndarray, corners, flat: np.ndarray, diff: np.ndarray | None = None
) -> np.ndarray:
    """Distance from each point to its triangle, one kernel call per block.

    points (3, n) and the three corner arrays (3, triangles) hold
    coordinates as rows; points[:, i] is paired with triangle tri_ids[i].
    flat, a bool per triangle, is `flat_triangles(*corners)`.
    Each block gathers its corners one axis at a time, by triangle id, and
    `dist_points_to_triangles` computes every pair on its own, axis by axis
    with sums written out as x + y + z.  diff, when given, a (3, n) array,
    receives each point minus its closest point on the triangle.
    """
    d = np.empty(len(tri_ids))
    for a in range(0, len(tri_ids), _DIST_BLOCK):
        b = min(a + _DIST_BLOCK, len(tri_ids))
        t = tri_ids[a:b]
        d[a:b] = dist_points_to_triangles(
            points[:, a:b],
            *(np.take(v, t, axis=1) for v in corners),
            diff=None if diff is None else diff[:, a:b],
            flat=flat[t],
        )
    return d


def _child_keep(centers, sizes, diff, d, tri_ids, corners, child_radii, slack):
    """Which children of a split node may hold each of its candidates.

    Row i pairs a node with triangle tri_ids[i]: the node's center and box
    sizes, and diff, its center minus the kernel's closest point on the
    triangle, are (3, n) with coordinates as rows; d[i] is diff[:, i]'s
    norm.  Returns (n, 8) bool, children in `_CHILD_OFFSETS` order, False
    where a half-space bound proves the triangle farther than the child
    radius plus slack from that child's center (module docstring): for the
    unit u = diff / d, every point of the triangle has <., u> at most
    top = max_i <v_i, u>, so d(x + o, T) >= <x, u> - top + <o, u>.  A pair
    with d within the slack keeps every child, its u being unreliable.
    """
    near = d <= slack
    u = diff / np.where(near, 1.0, d)
    top = None
    for v in corners:
        h = _dot(np.take(v, tri_ids, axis=1), u)
        top = h if top is None else np.maximum(top, h, out=top)
    room = (child_radii + slack) - (_dot(centers, u) - top)
    w = sizes * u
    keep = np.empty((len(d), 8), dtype=bool)
    for k, (ox, oy, oz) in enumerate(_CHILD_OFFSETS):
        # <o, u> of child k's offset o, summed as x + y + z
        np.less_equal(w[0] * ox + w[1] * oy + w[2] * oz, room, out=keep[:, k])
    keep[near] = True
    return keep


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
        int_w, int_xw = np.empty(b - a), np.empty((b - a, 3))
        # BLAS takes a lone pair's `w @ omega` as a dot product, whose bits
        # differ from its matrix-vector kernel's, so a lone last pair joins
        # the block before it
        stops = [*range(_MOMENT_BLOCK, b - a - 1, _MOMENT_BLOCK), b - a]
        for s, e in zip([0, *stops], stops):
            c, t = cid[s:e], tid[s:e]
            int_w[s:e], int_xw[s:e] = _pair_moments(centers[c], quad_pts[t], omega, areas[t], epsilon)
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
        tri_c = quad_pts[tids].mean(axis=1)  # the symmetric rule averages to the centroid
        nearest = tids[int(np.argmin(np.sum((tri_c - centers[i]) ** 2, axis=1)))]
        avg_normal[i] = tri_normals[nearest]

    offsets = np.einsum("ij,ij->i", avg_point, avg_normal)
    return avg_normal, offsets


def _descend(lo, hi, corners):
    """The octree descent: kept leaves and their members.

    corners are the triangles' v0, v1 and v2, each (3, triangles) with
    coordinates as rows.

    Returns (centers, radii, pair_cells, pair_tris).  Leaves are listed in
    level order: by depth, and within a depth by base-8 child path (root to
    node, children in `_CHILD_OFFSETS` order).  Each leaf's members are its
    candidates within its radius, in candidate order.

    A split node's candidates within the child bound go to each child
    that `_child_keep`'s half-space bound does not rule out (module
    docstring): a dropped pair would have been neither a member of the
    child nor a candidate of its children, so the bound changes no bit,
    only the number of kernel pairs (on small master seed 1, 1,423,280 ->
    678,534).

    The walk is depth first over batches of nodes of one depth, each batch
    holding about `_DESCENT_PAIRS` (node, candidate) pairs and stepping all
    its nodes one level at once.  A batch's children are consecutive in path
    order, and so is each batch cut from them; so the leaves a step finds
    form one run of the level order, tagged with the depth and path of its
    first node, and sorting the runs by their tags gives the order of a
    walk that steps a whole level at once.
    """
    scale = SPHERE_RADIUS_SCALE
    n_tris = corners[0].shape[1]
    flat = flat_triangles(*corners)
    slack = _CULL_SLACK * float(np.linalg.norm(hi - lo) + np.abs(np.concatenate([lo, hi])).max())
    # (depth, path, centers, radii, pair leaf index within run, pair
    # triangles); an empty run at depth 0 keeps the concatenations defined
    # when no leaf settles
    leaf_runs = [(0, 0, np.empty((0, 3)), np.empty(0), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))]
    # a batch: depth, node paths, centers, box sizes, flat candidates,
    # candidates per node.  A path holds one base-8 digit per level below
    # the root, so it fits an int64 (`MAX_DEPTH`)
    root = ((lo + hi) / 2.0)[None, :]
    batches = [(1, np.zeros(1, dtype=np.int64), root, (hi - lo)[None, :], np.arange(n_tris), np.array([n_tris]))]
    while batches:
        depth, paths, centers, sizes, cand, counts = batches.pop()
        n_nodes = len(centers)
        diag = np.linalg.norm(sizes, axis=1)
        radii = scale * diag
        node_of_pair = np.repeat(np.arange(n_nodes), counts)
        # each pair's node center, and the center minus its closest point
        # on the triangle, coordinates as rows
        pair_centers = np.repeat(centers.T, counts, axis=1)
        diff = np.empty_like(pair_centers)
        d = _pair_distances(pair_centers, cand, corners, flat, diff)

        member_mask = d <= radii[node_of_pair]
        member_counts = np.bincount(node_of_pair[member_mask], minlength=n_nodes)
        split = (member_counts > MAX_TRIANGLES_PER_CELL) & (depth < MAX_DEPTH)
        # empty leaves are dropped; a leaf with any member is a cell
        settle = ~split & (member_counts > 0)

        if np.any(settle):
            ids = np.flatnonzero(settle)
            keep_pair = settle[node_of_pair] & member_mask
            local = np.cumsum(settle) - 1
            leaf_runs.append(
                (depth, paths[ids[0]], centers[ids], radii[ids], local[node_of_pair[keep_pair]], cand[keep_pair])
            )
        if not np.any(split):
            continue

        # children inherit candidates provably sufficient for their spheres,
        # which hold their own boxes (scale > 1/2): anything within scale x
        # child diagonal of a child center lies within this bound of the parent
        child_bound = (0.5 * scale + 0.25) * diag
        seg = np.flatnonzero(split[node_of_pair] & (d <= child_bound[node_of_pair]))
        seg_node = node_of_pair[seg]
        split_ids = np.flatnonzero(split)
        # the (candidate, child) pairs the half-space bound keeps; a child's
        # radius is half its parent's
        keep = _child_keep(
            pair_centers[:, seg], sizes[seg_node].T, diff[:, seg], d[seg], cand[seg], corners,
            0.5 * radii[seg_node], slack,
        )
        rows, child_of_row = np.divmod(np.flatnonzero(keep), 8)
        # children numbered in path order; a stable sort by child keeps
        # each child's candidates in candidate order
        entry_child = 8 * (np.cumsum(split) - 1)[seg_node[rows]] + child_of_row
        child_cand = cand[seg[rows[np.argsort(entry_child, kind="stable")]]]
        child_counts = np.bincount(entry_child, minlength=8 * len(split_ids))
        ends = np.cumsum(child_counts)
        del rows, child_of_row, entry_child
        child_paths = (paths[split_ids][:, None] * 8 + np.arange(8)).ravel()
        child_centers = (
            centers[split_ids][:, None, :] + _CHILD_OFFSETS[None, :, :] * sizes[split_ids][:, None, :]
        ).reshape(-1, 3)
        child_sizes = np.repeat(sizes[split_ids] / 2.0, 8, axis=0)

        # cut the children into batches, each before a child whose pairs
        # start past a new multiple of `_DESCENT_PAIRS`: a batch holds fewer
        # pairs than the budget plus its last child's.  The first batch is
        # walked first
        first = ends - child_counts
        cuts = np.flatnonzero(np.diff(first // _DESCENT_PAIRS)) + 1
        bounds = [0, *cuts.tolist(), len(child_counts)]
        for s, e in reversed(list(zip(bounds[:-1], bounds[1:]))):
            batches.append(
                (
                    depth + 1,
                    child_paths[s:e],
                    child_centers[s:e],
                    child_sizes[s:e],
                    child_cand[first[s] : ends[e - 1]],
                    child_counts[s:e],
                )
            )

    leaf_runs.sort(key=lambda run: (run[0], int(run[1])))
    starts = np.cumsum([0, *(len(run[2]) for run in leaf_runs)])
    return (
        np.concatenate([run[2] for run in leaf_runs]),
        np.concatenate([run[3] for run in leaf_runs]),
        np.concatenate([run[4] + start for run, start in zip(leaf_runs, starts)]),
        np.concatenate([run[5] for run in leaf_runs]),
    )


def build_surface(mesh: TriangleMesh, cfg: FitConfig | None = None) -> ImplicitSurface:
    """Cover the mesh with fitted spheres (see module docstring for rules)."""
    cfg = cfg or FitConfig()
    cfg.validate()
    if len(mesh.triangles) == 0:
        raise EmptyMeshError("mesh has no triangles")
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
    epsilon = cfg.epsilon if cfg.epsilon is not None else DEFAULT_EPSILON_SCALE * diag

    # the octree descent: subtrees walked depth first in batches under a
    # fixed pair budget, their leaves put back in level order
    corners = tuple(np.ascontiguousarray(v.T) for v in (v0, v1, v2))
    centers, radii, pair_cells, pair_tris = _descend(lo, hi, corners)

    quad_pts, omega = _quadrature_points(v0, v1, v2)
    normals_out, offsets_out = _batched_affines(
        centers, pair_cells, pair_tris, quad_pts, omega, areas, tri_normals, epsilon
    )
    del pair_cells, pair_tris  # freed before the cell index is built

    diagnostics = {
        "cells": len(centers),
        # always 0, since no sphere grows and the descent alone covers the
        # mesh (module docstring); kept for the tools that read them
        "grown_spheres": 0,
        "coverage_regrown": 0,
        "epsilon": epsilon,
    }
    return ImplicitSurface(centers, radii, normals_out, offsets_out, lo, hi, epsilon, diagnostics)


# -- binary cache ------------------------------------------------------------

_MAGIC = b"MPUF"
_VERSION = 3
# magic, version, key (`surface_key`, or zeros), epsilon, bbox lo and hi, cell count
_HEADER = struct.Struct("<4sI32sd6dQ")


def surface_key(mesh: TriangleMesh, cfg: FitConfig) -> bytes:
    """Cache key of a fit: SHA-256 over the vertex count, the vertex and
    triangle arrays that `build_surface` reads, bit for bit, and the
    sorted-key JSON of the fit config and `octree_settings()`."""
    h = hashlib.sha256(struct.pack("<Q", len(mesh.vertices)))
    h.update(mesh.vertices.astype("<f8").tobytes() + mesh.triangles.astype("<i8").tobytes())
    h.update(json.dumps({**asdict(cfg), **octree_settings()}, sort_keys=True).encode("utf-8"))
    return h.digest()


def save_surface(surface: ImplicitSurface, path, key: bytes | None = None) -> None:
    """Binary cache: `_HEADER`, then the cell arrays as little-endian float64."""
    key = bytes(32) if key is None else key
    if len(key) != 32:
        raise InvalidParameterError("a surface cache key is 32 bytes")
    n = len(surface.centers)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, key, surface.epsilon, *surface.bbox_lo, *surface.bbox_hi, n))
        for values in (surface.centers, surface.radii, surface.normals, surface.offsets):
            fh.write(values.astype("<f8").tobytes())


def load_surface(path, key: bytes | None = None) -> ImplicitSurface:
    """Read a cache written by `save_surface`.

    SurfaceCacheError refuses the file whole: another magic or version, a
    key other than `key` when one is given (another mesh or fit config), a
    length other than the one the header's cell count gives, no cell, a
    value that is not finite, or a radius that is not positive.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 8 or blob[:4] != _MAGIC:
        raise SurfaceCacheError(f"{path}: not a surface cache file")
    version = struct.unpack_from("<I", blob, 4)[0]
    if version != _VERSION:
        raise SurfaceCacheError(f"{path}: unsupported cache version {version}")
    if len(blob) < _HEADER.size:
        raise SurfaceCacheError(f"{path}: truncated cache ({len(blob)} of {_HEADER.size} header bytes)")
    _, _, stored, epsilon, *box, n = _HEADER.unpack_from(blob)
    if key is not None and stored != key:
        raise SurfaceCacheError(f"{path}: cache key differs from this mesh and fit config")
    need = _HEADER.size + n * (3 + 1 + 3 + 1) * 8
    if len(blob) != need:
        fault = "truncated cache" if len(blob) < need else "trailing bytes after the cells"
        raise SurfaceCacheError(f"{path}: {fault} ({len(blob)} of {need} bytes)")
    if n == 0:
        raise SurfaceCacheError(f"{path}: the cache holds no cell")
    values = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size)
    if not (np.isfinite(values).all() and np.isfinite([epsilon, *box]).all()):
        raise SurfaceCacheError(f"{path}: the cache holds a value that is not finite")
    centers, radii, normals, offsets = np.split(values, [3 * n, 4 * n, 7 * n])
    if not (radii > 0.0).all():
        raise SurfaceCacheError(f"{path}: the cache holds a radius that is not positive")
    return ImplicitSurface(centers, radii, normals, offsets, box[:3], box[3:], epsilon)
