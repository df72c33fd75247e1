"""Checks of treescan artifacts, computed apart from the program.

Nothing here imports treescan. The file parsers, the tube surface that the
ground-truth skeleton defines, the SHA-256 digests and the brute-force
Hausdorff reduction are all written out below, so a check never compares
the program with itself or with a stored copy of its earlier output.

Each artifact check returns (ok, detail); `detail` says what was measured.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

SIDES = 24  # ring size the workloads sweep tubes with
EPSILON_SCALE = 0.005  # the fit's documented default blend width, per bbox diagonal
NOISE_SIGMAS = 9.0  # Box-Muller on 53-bit uniforms never exceeds 8.6 sigma
COORD_TOL = 1e-5  # float32 file round-off on coordinates of order one
NORMAL_ANGLE_DEG = 45.0
NORMAL_SHARE = 0.90  # of PCA normals within NORMAL_ANGLE_DEG of the true normal
SIGN_SHARE = 0.90  # of kNN pairs whose oriented normals agree in sign
DENSITY_RATIO = (7.0, 11.0)  # 150/50 rescan point ratio; the ray ratio is 9


# -- parsers ----------------------------------------------------------------


@dataclass
class Skeleton:
    ids: np.ndarray  # (n,) node ids
    positions: np.ndarray  # (n, 3)
    radii: np.ndarray  # (n,)
    edges: np.ndarray  # (e, 2) parent id, child id
    root: int

    def edge_rows(self) -> tuple[np.ndarray, np.ndarray]:
        row = {int(i): k for k, i in enumerate(self.ids)}
        parents = np.array([row[int(p)] for p in self.edges[:, 0]], dtype=np.int64)
        children = np.array([row[int(c)] for c in self.edges[:, 1]], dtype=np.int64)
        return parents, children


def skeleton_from_nodes(nodes, edges, root) -> Skeleton:
    """Neutral form of an in-memory graph: nodes carry id, position, radius."""
    return Skeleton(
        ids=np.array([n.id for n in nodes], dtype=np.int64),
        positions=np.array([n.position for n in nodes], dtype=np.float64).reshape(-1, 3),
        radii=np.array([n.radius for n in nodes], dtype=np.float64),
        edges=np.array(edges, dtype=np.int64).reshape(-1, 2),
        root=int(root),
    )


def read_skel(path) -> Skeleton:
    """`v id x y z r`, `e parent child` and `root id` records."""
    ids, pos, rad, edges, root = [], [], [], [], None
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            t = line.split()
            if not t or t[0].startswith("#"):
                continue
            if t[0] == "v":
                ids.append(int(t[1]))
                pos.append([float(x) for x in t[2:5]])
                rad.append(float(t[5]))
            elif t[0] == "e":
                edges.append((int(t[1]), int(t[2])))
            elif t[0] == "root":
                root = int(t[1])
    if root is None:
        raise ValueError(f"{path}: no root record")
    return Skeleton(
        np.array(ids, dtype=np.int64),
        np.array(pos, dtype=np.float64).reshape(-1, 3),
        np.array(rad, dtype=np.float64),
        np.array(edges, dtype=np.int64).reshape(-1, 2),
        root,
    )


def read_obj(path) -> tuple[np.ndarray, np.ndarray]:
    """Vertices and 0-based triangles of a `v`/`f` OBJ file."""
    verts, tris = [], []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            t = line.split()
            if not t:
                continue
            if t[0] == "v":
                verts.append([float(x) for x in t[1:4]])
            elif t[0] == "f":
                tris.append([int(x.split("/")[0]) - 1 for x in t[1:4]])
    return np.array(verts, dtype=np.float64).reshape(-1, 3), np.array(tris, dtype=np.int64).reshape(-1, 3)


def read_ply(path) -> tuple[np.ndarray, np.ndarray | None]:
    """Points and optional normals of a binary little-endian float PLY."""
    with open(path, "rb") as fh:
        blob = fh.read()
    end = blob.index(b"end_header\n") + len(b"end_header\n")
    header = blob[:end].decode("ascii").split("\n")
    if header[0] != "ply" or header[1] != "format binary_little_endian 1.0":
        raise ValueError(f"{path}: not a binary little-endian PLY")
    count = next(int(h.split()[2]) for h in header if h.startswith("element vertex"))
    names = [h.split()[2] for h in header if h.startswith("property float ")]
    rows = np.frombuffer(blob, dtype="<f4", count=count * len(names), offset=end)
    rows = rows.reshape(count, len(names)).astype(np.float64)
    cols = {name: i for i, name in enumerate(names)}
    points = rows[:, [cols["x"], cols["y"], cols["z"]]]
    normals = rows[:, [cols["nx"], cols["ny"], cols["nz"]]] if "nx" in cols else None
    return points, normals


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# -- the tube surface -------------------------------------------------------


def _capped_cone_sdf(p, a, b, ra, rb):
    """Signed distance of points (n, 3) to capped cones (m,): (n, m).

    Each cone is the frustum of one skeleton edge, closed by flat discs at
    both ends (Quilez's exact capped-cone distance).
    """
    ba = b - a
    baba = np.sum(ba * ba, axis=1)
    pa = p[:, None, :] - a[None, :, :]
    papa = np.sum(pa * pa, axis=2)
    paba = np.einsum("nmk,mk->nm", pa, ba) / baba
    x = np.sqrt(np.maximum(papa - paba * paba * baba, 0.0))
    rba = rb - ra
    cax = np.maximum(0.0, x - np.where(paba < 0.5, ra, rb))
    cay = np.abs(paba - 0.5) - 0.5
    f = np.clip((rba * (x - ra) + paba * baba) / (rba * rba + baba), 0.0, 1.0)
    cbx = x - ra - f * rba
    cby = paba - f
    sign = np.where((cbx < 0.0) & (cay < 0.0), -1.0, 1.0)
    return sign * np.sqrt(np.minimum(cax * cax + cay * cay * baba, cbx * cbx + cby * cby * baba))


def _cone_sdfs(points, skel: Skeleton, reduce):
    parents, children = skel.edge_rows()
    a, b = skel.positions[parents], skel.positions[children]
    ra, rb = skel.radii[parents], skel.radii[children]
    out = np.empty(len(points))
    chunk = max(1, 400_000 // max(1, len(a)))
    for i in range(0, len(points), chunk):
        out[i : i + chunk] = reduce(_capped_cone_sdf(points[i : i + chunk], a, b, ra, rb))
    return out


def tube_distance(points, skel: Skeleton) -> np.ndarray:
    """Distance to the boundary of the union of the edges' capped frustums."""
    return np.abs(_cone_sdfs(points, skel, lambda s: s.min(axis=1)))


def tube_tolerance(skel: Skeleton, mesh_diagonal: float) -> float:
    """How far a correct scan point may sit off the tube.

    The mesh's flat facets sag inside the circle by r (1 - cos(pi / sides))
    at the thickest ring, and the fit blends the facets over its width
    epsilon, the documented default share of the mesh's bbox diagonal.
    """
    sagitta = float(skel.radii.max()) * (1.0 - math.cos(math.pi / SIDES))
    return sagitta + EPSILON_SCALE * mesh_diagonal


def on_tube(points, normals, skel: Skeleton, tol: float) -> tuple[bool, str]:
    """A scanned cloud: normals attached, every point within `tol` of the tube."""
    if len(points) == 0:
        return False, "empty cloud"
    if normals is None:
        return False, "cloud has no normals"
    d = tube_distance(points, skel)
    off = int(np.count_nonzero(d > tol))
    detail = f"{off}/{len(points)} points beyond {tol:.4f} off the tube (median {np.median(d):.2e}, max {d.max():.3f})"
    return off == 0, detail


# -- artifact checks --------------------------------------------------------


def skeleton_ok(skel: Skeleton, count: int) -> tuple[bool, str]:
    """A rooted tree of `count` nodes whose radii do not increase toward the tips."""
    n = len(skel.ids)
    if n != count:
        return False, f"{n} nodes, the manifest says {count}"
    if len(set(skel.ids.tolist())) != n:
        return False, "duplicate node ids"
    if len(skel.edges) != n - 1:
        return False, f"{len(skel.edges)} edges for {n} nodes"
    children = skel.edges[:, 1].tolist()
    if len(set(children)) != len(children) or skel.root in children:
        return False, "a node has two parents, or the root has one"
    kids: dict[int, list[int]] = {}
    for p, c in skel.edges.tolist():
        kids.setdefault(p, []).append(c)
    seen, stack = {skel.root}, [skel.root]
    while stack:
        for c in kids.get(stack.pop(), []):
            seen.add(c)
            stack.append(c)
    if len(seen) != n:
        return False, f"{n - len(seen)} nodes unreachable from the root"
    parents, childs = skel.edge_rows()
    grow = skel.radii[childs] > skel.radii[parents] * (1.0 + 1e-9)
    if np.any(grow):
        return False, f"radius grows toward the tip on {int(grow.sum())} edges"
    return True, f"tree of {n} nodes"


def mesh_ok(vertices, triangles, skel: Skeleton) -> tuple[bool, str]:
    """Ring and cap counts of the sweep, and every vertex on its frustum."""
    e = len(skel.edges)
    leaves = len(set(skel.ids.tolist()) - set(skel.edges[:, 0].tolist()))
    want_v = 2 * SIDES * e + 1 + leaves
    want_t = 2 * SIDES * e + SIDES * (1 + leaves)
    if len(vertices) != want_v or len(triangles) != want_t:
        return False, f"{len(vertices)} vertices / {len(triangles)} triangles, sweep gives {want_v} / {want_t}"
    if triangles.min() < 0 or triangles.max() >= len(vertices):
        return False, "triangle index out of range"
    d = _cone_sdfs(vertices, skel, lambda s: np.abs(s).min(axis=1))
    off = int(np.count_nonzero(d > COORD_TOL))
    return off == 0, f"{off} vertices off every frustum (max {d.max():.2e})"


def noise_ok(clean_pts, clean_nrm, out_pts, out_nrm, d: int, s: float) -> tuple[bool, str]:
    """n + ceil(n/d) points; originals kept; each insert on its donor's normal line."""
    n = len(clean_pts)
    want = n + -(-n // d)
    if len(out_pts) != want:
        return False, f"{len(out_pts)} points, want {want}"
    if not np.array_equal(out_pts[:n], clean_pts):
        return False, "original points changed"
    donors = np.arange(0, n, d)
    off = out_pts[n:] - clean_pts[donors]
    nrm = clean_nrm[donors] / np.linalg.norm(clean_nrm[donors], axis=1, keepdims=True)
    along = np.sum(off * nrm, axis=1)
    perp = np.linalg.norm(off - along[:, None] * nrm, axis=1)
    if perp.max() > COORD_TOL:
        return False, f"insert {perp.max():.2e} off its donor's normal line"
    if np.abs(along).max() > NOISE_SIGMAS * s + COORD_TOL:
        return False, f"insert {np.abs(along).max():.3f} along the normal, beyond {NOISE_SIGMAS} sigma"
    if out_nrm is not None and not np.array_equal(out_nrm[n:], clean_nrm[donors]):
        return False, "inserted normals differ from their donors'"
    return True, f"{len(donors)} inserts on their normal lines"


def in_order_subset(sub, full) -> np.ndarray | None:
    """Rows of `full` that `sub` takes, in order, or None if it is no subsequence."""
    full_keys = [r.tobytes() for r in np.ascontiguousarray(full)]
    taken = []
    j = 0
    for key in (r.tobytes() for r in np.ascontiguousarray(sub)):
        while j < len(full_keys) and full_keys[j] != key:
            j += 1
        if j == len(full_keys):
            return None
        taken.append(j)
        j += 1
    return np.array(taken, dtype=np.int64)


def occlusion_ok(clean_pts, out_pts, balls) -> tuple[bool, str]:
    """Survivors are an in-order subset; none inside a ball, every removed one inside."""
    taken = in_order_subset(out_pts, clean_pts)
    if taken is None:
        return False, "survivors are not an in-order subset of the clean cloud"
    removed = np.ones(len(clean_pts), dtype=bool)
    removed[taken] = False
    centers = np.array([b[0] for b in balls], dtype=np.float64).reshape(-1, 3)
    radii = np.array([b[1] for b in balls], dtype=np.float64)
    if len(radii) == 0:
        return bool(not removed.any()), "no balls"
    dist = np.linalg.norm(clean_pts[:, None, :] - centers[None, :, :], axis=2)
    inside_some = np.any(dist < radii - COORD_TOL, axis=1)
    near_some = np.any(dist <= radii + COORD_TOL, axis=1)
    if np.any(inside_some & ~removed):
        return False, f"{int(np.sum(inside_some & ~removed))} survivors inside a ball"
    if np.any(removed & ~near_some):
        return False, f"{int(np.sum(removed & ~near_some))} removed points outside every ball"
    return True, f"{int(removed.sum())} removed by {len(radii)} balls"


def uneven_ok(clean_pts, out_pts, r: float, region=None) -> tuple[bool, str]:
    """Clean cloud is a prefix; at least one insert, each within r/sqrt(2) of an
    in-region clean point (two offsets of at most r/2 along orthonormal axes)."""
    n = len(clean_pts)
    if len(out_pts) < n or not np.array_equal(out_pts[:n], clean_pts):
        return False, "clean cloud is not a prefix of the output"
    inserts = out_pts[n:]
    if len(inserts) == 0:
        return False, "no point inserted: the cloud is unchanged"
    donors = clean_pts
    if region is not None:
        lo, hi = np.asarray(region[0]), np.asarray(region[1])
        donors = clean_pts[np.all((clean_pts >= lo) & (clean_pts <= hi), axis=1)]
    if len(inserts) > len(donors):
        return False, f"{len(inserts)} inserts for {len(donors)} in-region points"
    dist, _ = cKDTree(donors).query(inserts, k=1)
    far = int(np.count_nonzero(dist > r / math.sqrt(2.0) + COORD_TOL))
    return far == 0, f"{len(inserts)} inserts, {far} beyond r/sqrt(2) of an in-region point"


def density_counts_ok(counts: dict) -> tuple[bool, str]:
    """Rescan counts rise with resolution; 150 against 50 rays near 9x the points."""
    c50, c100, c150 = counts[50], counts[100], counts[150]
    ratio = c150 / c50 if c50 else float("inf")
    ok = 0 < c50 < c100 < c150 and DENSITY_RATIO[0] <= ratio <= DENSITY_RATIO[1]
    return ok, f"counts {c50} < {c100} < {c150}, 150/50 ratio {ratio:.2f}"


def manifest_ok(manifest_path, root) -> tuple[bool, str]:
    """Every listed file exists and its digest is our own SHA-256 of it."""
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    bad = [f["path"] for f in manifest["files"] if sha256(root / f["path"]) != f["sha256"]]
    if bad:
        return False, f"digest mismatch: {', '.join(bad)}"
    return True, f"{len(manifest['files'])} digests match"


def normals_ok(points, est_normals, oriented, true_normals, k: int) -> tuple[bool, str]:
    """PCA normals near the sampled triangle's normal; kNN neighbours agree in sign."""
    if not np.array_equal(oriented.points, points) or not np.array_equal(est_normals.points, points):
        return False, "normal estimation moved points"
    cos = np.abs(np.sum(est_normals.normals * true_normals, axis=1))
    near = float(np.mean(cos >= math.cos(math.radians(NORMAL_ANGLE_DEG))))
    flipped = np.abs(np.sum(oriented.normals * est_normals.normals, axis=1))
    if not np.allclose(flipped, 1.0, atol=1e-9):
        return False, "orientation changed more than the normals' signs"
    tree = cKDTree(points)
    agreeing = 0
    for i in range(0, len(points), 10_000):
        _, nbr = tree.query(points[i : i + 10_000], k=k)
        dots = np.sum(oriented.normals[i : i + 10_000, None, :] * oriented.normals[nbr[:, 1:]], axis=2)
        agreeing += int(np.count_nonzero(dots > 0.0))
    agree = agreeing / (len(points) * (k - 1))
    ok = near >= NORMAL_SHARE and agree >= SIGN_SHARE
    return ok, f"{near:.3f} within {NORMAL_ANGLE_DEG:g} deg, {agree:.3f} of kNN pairs agree in sign"


def sample_edges(skel: Skeleton, spacing: float) -> np.ndarray:
    """Nodes, then edge interiors at equal steps of at most `spacing`."""
    parents, children = skel.edge_rows()
    extra = []
    for i, j in zip(parents, children):
        a, b = skel.positions[i], skel.positions[j]
        n_seg = int(np.ceil(float(np.linalg.norm(b - a)) / spacing))
        extra.extend(a + (s / n_seg) * (b - a) for s in range(1, n_seg))
    return np.concatenate([skel.positions, np.array(extra).reshape(-1, 3)])


def brute_directed(a, b) -> float:
    """max over a of the distance to the nearest point of b, all pairs."""
    best = np.empty(len(a))
    chunk = max(1, 250_000 // max(1, len(b)))
    for i in range(0, len(a), chunk):
        d = np.sqrt(np.sum((a[i : i + chunk, None, :] - b[None, :, :]) ** 2, axis=2))
        best[i : i + chunk] = d.min(axis=1)
    return float(best.max())


def evaluate_ok(report: dict, self_report: dict, truth: Skeleton, other: Skeleton, spacing: float) -> tuple[bool, str]:
    """`evaluate` equals the O(nm) reduction over the sampled sets; hd(g, g) = 0."""
    g, s = sample_edges(truth, spacing), sample_edges(other, spacing)
    gs, sg = brute_directed(g, s), brute_directed(s, g)
    want = {"hd_directed_gs": gs, "hd_directed_sg": sg, "hd": max(gs, sg)}
    bad = [k for k, v in want.items() if not math.isclose(report[k], v, rel_tol=1e-12, abs_tol=0.0)]
    if bad:
        return False, f"{', '.join(bad)} differ from brute force ({report['hd']!r} vs {want['hd']!r})"
    if self_report["hd"] != 0.0:
        return False, f"hd(g, g) = {self_report['hd']!r}"
    return True, f"hd {want['hd']:.6f} over {len(g)} x {len(s)} sampled points"
