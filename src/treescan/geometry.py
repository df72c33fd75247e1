"""Small vectorized geometry kernels used by several modules."""

from __future__ import annotations

import os

import numpy as np
from scipy.spatial import cKDTree

AXES = np.eye(3)


def normalize(v: np.ndarray, axis: int = -1) -> np.ndarray:
    """Unit vectors along `axis`; zero vectors are returned unchanged."""
    n = np.linalg.norm(v, axis=axis, keepdims=True)
    return np.where(n > 0.0, v / np.where(n == 0.0, 1.0, n), v)


def least_aligned_axis(d: np.ndarray) -> np.ndarray:
    """World axis with the smallest |dot| against d. Ties pick the lowest index."""
    return AXES[int(np.argmin(np.abs(d)))]


def perpendicular_frame(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic right-handed (u, v) with u x v = d for a unit vector d."""
    a = least_aligned_axis(d)
    u = np.cross(a, d)
    u = u / np.linalg.norm(u)
    v = np.cross(d, u)
    return u, v


def rotate_align(frame_u: np.ndarray, d_from: np.ndarray, d_to: np.ndarray) -> np.ndarray:
    """Transport u by the minimal rotation taking unit d_from to unit d_to."""
    c = float(np.dot(d_from, d_to))
    axis = np.cross(d_from, d_to)
    s = float(np.linalg.norm(axis))
    if s < 1e-14:
        if c > 0.0:
            return frame_u
        # antiparallel: rotate 180 degrees about any perpendicular
        p, _ = perpendicular_frame(d_from)
        return 2.0 * np.dot(frame_u, p) * p - frame_u
    axis = axis / s
    # Rodrigues
    return (
        frame_u * c
        + np.cross(axis, frame_u) * s
        + axis * np.dot(axis, frame_u) * (1.0 - c)
    )


def usable_cores() -> int:
    """CPUs this process may run on: its affinity mask, not the host's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# threads per neighbour query, None for usable_cores(); the only writer is
# query_on_one_thread, which runs once in each batch pool worker process
_query_threads: int | None = None


def query_on_one_thread() -> None:
    """Pool initializer: every neighbour query of this process uses one thread,
    so that pool processes times query threads stays within the usable cores."""
    global _query_threads
    _query_threads = 1


def query_threads() -> int:
    """Threads each neighbour query of this process runs on."""
    return _query_threads or usable_cores()


# rows per chunk of tree_order_neighbours: a k-NN chunk holds rows x k
# entries, a ball chunk as many lists
_QUERY_ROWS = 16384


def tree_order_neighbours(
    points: np.ndarray, k: int | None = None, r: float | None = None, where: np.ndarray | None = None
):
    """Neighbours of points, queried in k-d tree leaf order on query_threads().

    Yields (rows, result) for consecutive runs of at most _QUERY_ROWS rows
    of the leaf order, so a caller can use up one chunk before the next is
    queried. With k, result is cKDTree.query's (distances, indices), k
    columns per row; with r, query_ball_point's index lists (unsorted, in
    tree traversal order). where, a boolean mask, limits the queried
    points. Row j of a chunk holds the neighbours of points[rows[j]].
    Consecutive leaf-order queries keep the same tree nodes in cache. Each
    row is what a lone query of its point gives, bit for bit, whatever the
    chunk and thread split; only the order of the rows follows the tree.
    """
    tree = cKDTree(points)
    order = tree.indices if where is None else tree.indices[where[tree.indices]]
    for lo in range(0, len(order), _QUERY_ROWS):
        rows = order[lo : lo + _QUERY_ROWS]
        if r is None:
            yield rows, tree.query(points[rows], k=k, workers=query_threads())
        else:
            yield rows, tree.query_ball_point(points[rows], r, return_sorted=False, workers=query_threads())


def neighbour_distances(points: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """|points[i] - points[ids[i, j]]| for every entry, with the bits of the
    distances cKDTree.query returns for these neighbours.

    cKDTree sums the squared coordinate differences in axis order, then takes
    the square root: sqrt((dx*dx + dy*dy) + dz*dz). So does this, in chunks
    of _QUERY_ROWS rows, so its temporaries stay within a few arrays of a
    query chunk's.
    """
    out = np.empty(ids.shape)
    for lo in range(0, len(ids), _QUERY_ROWS):
        block = ids[lo : lo + _QUERY_ROWS]
        sums = out[lo : lo + _QUERY_ROWS]
        sums[...] = 0.0
        for coord in points.T:
            diff = coord[block] - coord[lo : lo + len(block), None]
            diff *= diff
            sums += diff
        np.sqrt(sums, out=sums)
    return out


# neighbour entries per principal_axes batch (a larger neighbourhood takes a
# batch of its own); each neighbourhood being summed on its own, the batches
# do not change the result
_PCA_ENTRIES = 1 << 16


def principal_axes(points: np.ndarray, neighbours: np.ndarray, starts: np.ndarray):
    """Centroid and covariance eigen-decomposition of every neighbourhood.

    Neighbourhood j is points[neighbours[starts[j]:starts[j + 1]]] (the last
    runs to the end), never empty; its covariance divides by its size.
    Batches end between neighbourhoods, where their entries would pass
    _PCA_ENTRIES, and each of the six second moments is summed on its own,
    so the temporaries stay within a few arrays of a batch's entries.
    Each covariance is diagonalised by `_jacobi`: four (_JACOBI_SWEEPS)
    cyclic Jacobi sweeps, each rotating the pairs (0, 1), (0, 2) and (1, 2)
    in that order, starting from the identity. Returns centroids (m, 3),
    ascending eigenvalues (m, 3) and eigenvectors as columns (m, 3, 3); a
    zero covariance gives the identity. A column's sign is whatever those
    rotations leave, so callers that need one choose it.
    """
    m = len(starts)
    bounds = np.append(starts, len(neighbours))
    centroids = np.empty((m, 3))
    moments = np.empty((6, m))  # the upper triangle, row by row
    lo = 0
    while lo < m:
        hi = max(lo + 1, int(np.searchsorted(bounds, bounds[lo] + _PCA_ENTRIES, side="right")) - 1)
        local = bounds[lo:hi] - bounds[lo]
        counts = np.diff(bounds[lo : hi + 1])
        # coordinates as rows, so each sum runs over contiguous memory;
        # centred in place once the means are taken
        centered = np.take(points.T, neighbours[bounds[lo] : bounds[hi]], axis=1)
        mean = np.add.reduceat(centered, local, axis=1) / counts
        centered -= np.repeat(mean, counts, axis=1)
        centroids[lo:hi] = mean.T
        for entry, (i, j) in enumerate(zip(*np.triu_indices(3))):
            moments[entry, lo:hi] = np.add.reduceat(centered[i] * centered[j], local) / counts
        lo = hi
    eigvals, eigvecs = _jacobi(*moments)
    return centroids, eigvals, eigvecs


# Cyclic Jacobi sweeps per 3x3 eigen-decomposition. On 100,000 seeded
# random symmetric matrices, the off-diagonal part's Frobenius norm was at
# most 2.5e-5 of |A|_F after 3 sweeps and 1.2e-20 after 4, far below
# rounding: the convergence is quadratic.
_JACOBI_SWEEPS = 4
# a rotation whose |a_pq| is at most this share of |a_qq - a_pp| turns by
# less than this many radians and moves A by less than this share of |A|:
# the identity is applied instead, which also keeps theta**2 finite
_NEGLIGIBLE = 1e-150


def _jacobi(a00, a01, a02, a11, a12, a22):
    """Eigenvalues (m, 3), ascending, and eigenvectors as columns (m, 3, 3)
    of the symmetric matrices whose upper triangles are the (m,) arrays.

    A fixed number of cyclic Jacobi sweeps (Golub & Van Loan, Matrix
    Computations, 8.5) over whole arrays, one matrix entry per array. Only
    + - * /, sqrt, abs, copysign and where are used: numpy rounds each
    correctly on every SIMD path, so the bits do not depend on the host,
    and no BLAS or LAPACK routine is called.
    """
    a = [[a00, a01, a02], [a01, a11, a12], [a02, a12, a22]]
    v = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]  # arrays after one sweep
    for _ in range(_JACOBI_SWEEPS):
        for p, q in ((0, 1), (0, 2), (1, 2)):
            _rotate(a, v, p, q)
    d = [a[0][0], a[1][1], a[2][2]]
    # a stable compare-swap network: equal eigenvalues keep their order
    for i, j in ((0, 1), (1, 2), (0, 1)):
        swap = d[i] > d[j]
        d[i], d[j] = np.where(swap, d[j], d[i]), np.where(swap, d[i], d[j])
        for row in v:
            row[i], row[j] = np.where(swap, row[j], row[i]), np.where(swap, row[i], row[j])
    eigvecs = np.empty((len(a00), 3, 3))
    for r in range(3):
        for c in range(3):
            eigvecs[:, r, c] = v[r][c]
    return np.stack(d, axis=1), eigvecs


def _rotate(a, v, p, q) -> None:
    """One Jacobi rotation, in place on the nested lists a (a[i][j] and
    a[j][i] being one array) and v: the symmetric Schur rotation that zeroes
    a_pq, with theta = (a_qq - a_pp) / 2 a_pq and
    t = sign(theta) / (|theta| + sqrt(theta^2 + 1))."""
    r = 3 - p - q
    apq, diff = a[p][q], a[q][q] - a[p][p]
    turn = np.abs(apq) > _NEGLIGIBLE * np.abs(diff)
    theta = diff / np.where(turn, 2.0 * apq, 1.0)  # |theta| < 1e150 where turn
    t = np.where(turn, np.copysign(1.0 / (np.abs(theta) + np.sqrt(theta * theta + 1.0)), theta), 0.0)
    c = 1.0 / np.sqrt(t * t + 1.0)
    s = t * c
    shift = t * apq
    a[p][p] = a[p][p] - shift
    a[q][q] = a[q][q] + shift
    a[p][q] = a[q][p] = 0.0
    arp, arq = a[r][p], a[r][q]
    a[r][p] = a[p][r] = c * arp - s * arq
    a[r][q] = a[q][r] = s * arp + c * arq
    for row in v:
        vp, vq = row[p], row[q]
        row[p] = c * vp - s * vq
        row[q] = s * vp + c * vq


def triangle_areas_normals(v0: np.ndarray, v1: np.ndarray, v2: np.ndarray):
    """Areas and unit normals for triangles given as (n,3) vertex arrays."""
    cross = np.cross(v1 - v0, v2 - v0)
    twice_area = np.linalg.norm(cross, axis=1)
    areas = 0.5 * twice_area
    safe = np.where(twice_area == 0.0, 1.0, twice_area)
    normals = cross / safe[:, None]
    return areas, normals


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Column-wise dot products of (3, n) arrays, summed as x + y + z."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


# A triangle is flat when its area is at most this share of its longest
# edge squared.  The face formula below loses every digit on an exactly
# collinear triangle, and from an area share of about 1e-14 down; a swept
# tube mesh holds none below 0.01.  Taken as its three edges, a flat
# triangle's distance is off by at most its height, 2e-12 of its longest edge.
_FLAT_AREA = 1e-12


def flat_triangles(v0: np.ndarray, v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """Which triangles are flat (`_FLAT_AREA`); corners (3, n) with coordinates as rows."""
    ab = v1 - v0
    ac = v2 - v0
    bc = v2 - v1
    cross = ab[[1, 2, 0]] * ac[[2, 0, 1]] - ab[[2, 0, 1]] * ac[[1, 2, 0]]
    longest = np.maximum(np.maximum(_dot(ab, ab), _dot(ac, ac)), _dot(bc, bc))
    # twice the area, squared, against twice the largest flat area, squared
    return _dot(cross, cross) <= (2.0 * _FLAT_AREA * longest) ** 2


def _nearest_edge_diff(p: np.ndarray, v0: np.ndarray, v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """p minus its nearest point on the edges AB, AC and BC, each a segment,
    (3, n) arrays as rows; the first of the three edges wins a tie."""
    diffs = []
    for a, b in ((v0, v1), (v0, v2), (v1, v2)):
        e, d = b - a, p - a
        ee = _dot(e, e)
        diffs.append(d - np.clip(_dot(d, e) / np.where(ee == 0.0, 1.0, ee), 0.0, 1.0) * e)
    return np.choose(np.argmin([_dot(d, d) for d in diffs], axis=0), diffs)


def dist_points_to_triangles(
    p: np.ndarray, v0: np.ndarray, v1: np.ndarray, v2: np.ndarray, *, diff: np.ndarray | None = None, flat=None
) -> np.ndarray:
    """Exact Euclidean distance for paired points and triangles.

    All four arrays hold coordinates as rows, (3, n): column i pairs point
    p[:, i] with the triangle v0[:, i], v1[:, i], v2[:, i].  Each pair's
    region on the triangle's parameter plane (Ericson, Real-Time Collision
    Detection, 5.1.5) is classified once; the first matching region, in
    Ericson's order (vertices A, B, C, edges AB, AC, BC, then the face),
    claims the pair, mirroring the scalar early returns.  Differences, dot
    products and closest points are computed one axis at a time, on the
    rows, and every sum is written out as x + y + z, so a pair's distance
    has the same bits whatever other pairs share the call.  The distance is
    sqrt(dx*dx + dy*dy + dz*dz), summed in np.linalg.norm's order.

    A flat triangle (`flat_triangles`) is taken as its three edges, each a
    segment, since the face formula's rounding can put its closest point
    anywhere on a collinear triangle; every other pair keeps the bits of
    the region formulas.  flat, a bool per pair, says which pairs'
    triangles are flat: a caller that pairs each triangle with many points
    classifies them once; None classifies them here.

    diff, when given, a (3, n) array, receives p minus the closest point,
    (dx, dy, dz) as rows; the distance is its norm.  Only the distances are
    returned.
    """
    ab = v1 - v0
    ac = v2 - v0
    ap = p - v0
    bp = p - v1
    cp = p - v2
    d1 = _dot(ab, ap)
    d2 = _dot(ac, ap)
    d3 = _dot(ab, bp)
    d4 = _dot(ac, bp)
    d5 = _dot(ab, cp)
    d6 = _dot(ac, cp)

    va = d3 * d6 - d5 * d4
    vb = d5 * d2 - d1 * d6
    vc = d1 * d4 - d3 * d2

    region = np.select(
        [
            (d1 <= 0.0) & (d2 <= 0.0),  # vertex A
            (d3 >= 0.0) & (d4 <= d3),  # vertex B
            (d6 >= 0.0) & (d5 <= d6),  # vertex C
            # a collapsed AB (d1 == d3) would claim every pair left; it
            # leaves them to edge AC, which the triangle then is
            (vc <= 0.0) & (d1 >= 0.0) & (d3 <= 0.0) & (d1 != d3),  # edge AB
            (vb <= 0.0) & (d2 >= 0.0) & (d6 <= 0.0),  # edge AC
            (va <= 0.0) & ((d4 - d3) >= 0.0) & ((d5 - d6) >= 0.0),  # edge BC
        ],
        np.arange(6, dtype=np.int8),
        default=np.int8(6),  # face
    )
    # vertex A's pairs keep p - v0, which is ap
    vert_b, vert_c, edge_ab, edge_ac, edge_bc, face = (np.flatnonzero(region == r) for r in range(1, 7))

    t_ab = d1[edge_ab] / (d1[edge_ab] - d3[edge_ab])
    den = d2[edge_ac] - d6[edge_ac]
    t_ac = d2[edge_ac] / np.where(den == 0.0, 1.0, den)
    num = d4[edge_bc] - d3[edge_bc]
    den = num + (d5[edge_bc] - d6[edge_bc])
    t_bc = num / np.where(den == 0.0, 1.0, den)
    den = va[face] + vb[face] + vc[face]
    den = np.where(den == 0.0, 1.0, den)
    v = vb[face] / den
    w = vc[face] / den
    flat = np.flatnonzero(flat_triangles(v0, v1, v2) if flat is None else flat)
    if len(flat):
        flat_diff = _nearest_edge_diff(p[:, flat], v0[:, flat], v1[:, flat], v2[:, flat])

    # p minus the closest point, one axis at a time, written over ap
    sq = None
    for k in range(3):
        pk, ak, bk = p[k], v0[k], v1[k]
        dk = ap[k]
        dk[vert_b] = bp[k][vert_b]
        dk[vert_c] = cp[k][vert_c]
        dk[edge_ab] = pk[edge_ab] - (ak[edge_ab] + t_ab * ab[k][edge_ab])
        dk[edge_ac] = pk[edge_ac] - (ak[edge_ac] + t_ac * ac[k][edge_ac])
        dk[edge_bc] = pk[edge_bc] - (bk[edge_bc] + t_bc * (v2[k][edge_bc] - bk[edge_bc]))
        dk[face] = pk[face] - (ak[face] + v * ab[k][face] + w * ac[k][face])
        if len(flat):
            dk[flat] = flat_diff[k]
        if diff is not None:
            diff[k] = dk
        dk *= dk
        sq = dk if sq is None else np.add(sq, dk, out=sq)
    return np.sqrt(sq, out=sq)
