"""Swept tube meshes over skeleton edges.

Each edge becomes a truncated cone: two rings of `sides` vertices, one per
endpoint at that node's radius, triangulated with outward winding. Ring
orientation is carried along each root-to-leaf path by minimal rotation so
consecutive tubes do not twist against each other. Root and leaf tube ends
are closed with triangle fans; junction tubes simply interpenetrate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, ObjParseError, ZeroLengthEdgeError
from .geometry import perpendicular_frame, rotate_align, triangle_areas_normals
from .skeleton import SkeletonGraph


@dataclass
class TriangleMesh:
    vertices: np.ndarray  # (n, 3) float64
    triangles: np.ndarray  # (m, 3) int64, indices into vertices

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        self.triangles = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)

    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def corners(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-triangle vertex arrays (v0, v1, v2), each (m, 3)."""
        v = self.vertices
        t = self.triangles
        return v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]

    def areas_normals(self) -> tuple[np.ndarray, np.ndarray]:
        return triangle_areas_normals(*self.corners())


def sweep_mesh(skeleton: SkeletonGraph, sides: int = 24) -> TriangleMesh:
    """Sweep tubes along every skeleton edge.

    The arrays are sized up front: with E edges and a cap per root edge and
    per leaf, 2*sides*E + caps vertices and sides*(2E + caps) triangles.  The
    walk writes each edge as one block: its two rings, its 2*sides tube
    triangles, then the apex and fan of each cap it closes (root end first).

    Raises ZeroLengthEdgeError if any edge has coincident endpoints; such an
    edge has no axis to sweep around.
    """
    if sides < 3:
        raise InvalidParameterError("sides must be >= 3")
    skeleton.validate()

    kids = skeleton.children()
    index = {n.id: n for n in skeleton.nodes}
    n_edges = len(skeleton.edges)
    n_caps = len(kids[skeleton.root]) + sum(not kids[c] for _, c in skeleton.edges)
    vertices = np.empty((2 * sides * n_edges + n_caps, 3))
    triangles = np.empty((sides * (2 * n_edges + n_caps), 3), dtype=np.int64)

    ang = 2.0 * math.pi * np.arange(sides) / sides
    cos, sin = np.cos(ang)[:, None], np.sin(ang)[:, None]
    k = np.arange(sides)
    k1 = (k + 1) % sides
    # two outward triangles per side between ring a (parent end) and ring b
    tube = np.column_stack([k, k1, sides + k, k1, sides + k1, sides + k]).reshape(-1, 3)
    # (apex, ring + k, ring + k1): outward at a leaf; the root's fan is flipped
    leaf_fan = np.column_stack([np.zeros(sides, dtype=np.int64), k, k1])
    root_fan = leaf_fan[:, [0, 2, 1]]
    n_v = n_t = 0

    def cap(apex: np.ndarray, ring: int, fan: np.ndarray) -> None:
        nonlocal n_v, n_t
        vertices[n_v] = apex
        triangles[n_t : n_t + sides] = (n_v, ring, ring) + fan
        n_v, n_t = n_v + 1, n_t + sides

    # one minimal-rotation frame per edge, carried depth-first along paths
    # so each child edge inherits its parent edge's frame
    work: list[tuple[int, int, np.ndarray | None, np.ndarray | None]]
    work = [(skeleton.root, c, None, None) for c in reversed(kids[skeleton.root])]
    while work:
        p, c, d_prev, u_prev = work.pop()
        a = index[p].position
        b = index[c].position
        seg = b - a
        length = float(np.linalg.norm(seg))
        if length == 0.0:
            raise ZeroLengthEdgeError(f"edge ({p}, {c}) has zero length")
        d = seg / length
        if d_prev is None:
            u, v = perpendicular_frame(d)
        else:
            u = rotate_align(u_prev, d_prev, d)
            u = u - d * np.dot(u, d)  # re-orthogonalize against drift
            u = u / np.linalg.norm(u)
            v = np.cross(d, u)
        ring = cos * u + sin * v
        vertices[n_v : n_v + sides] = a + index[p].radius * ring
        vertices[n_v + sides : n_v + 2 * sides] = b + index[c].radius * ring
        triangles[n_t : n_t + 2 * sides] = n_v + tube
        ring_a, n_v, n_t = n_v, n_v + 2 * sides, n_t + 2 * sides
        if p == skeleton.root:
            cap(a, ring_a, root_fan)
        if not kids[c]:
            cap(b, ring_a + sides, leaf_fan)
        for g in reversed(kids[c]):
            work.append((c, g, d, u))

    return TriangleMesh(vertices, triangles)


# records per write of save_obj
_OBJ_BLOCK = 1 << 16


def save_obj(mesh: TriangleMesh, path) -> None:
    """Wavefront OBJ with v/f records only; indices are 1-based.

    Each block of _OBJ_BLOCK records is formatted by one %-operation on
    Python floats and ints (a coordinate's "%.9g" is its f"{x:.9g}") and
    written at once.
    """
    with open(path, "w", encoding="ascii") as fh:
        for lo in range(0, len(mesh.vertices), _OBJ_BLOCK):
            block = mesh.vertices[lo : lo + _OBJ_BLOCK]
            fh.write(("v %.9g %.9g %.9g\n" * len(block)) % tuple(block.ravel().tolist()))
        for lo in range(0, len(mesh.triangles), _OBJ_BLOCK):
            block = mesh.triangles[lo : lo + _OBJ_BLOCK] + 1
            fh.write(("f %d %d %d\n" * len(block)) % tuple(block.ravel().tolist()))


def _vertex_index(token: str, count: int) -> int:
    """The 0-based vertex of face entry `token` when `count` vertices are read.

    OBJ indices are 1-based; a negative one counts back from the last vertex.
    """
    i = int(token.split("/")[0])
    if not (1 <= i <= count or -count <= i <= -1):
        raise ValueError(f"face index {i} names none of the {count} vertices read so far")
    return i - 1 if i > 0 else count + i


def load_obj(path) -> TriangleMesh:
    """Read v/f records; face entries may carry /vt/vn suffixes, which are dropped.

    A record that does not parse, a vertex with a non-finite coordinate, or a
    face index that names no vertex read so far, raises ObjParseError with
    its line number.
    """
    verts: list[list[float]] = []
    tris: list[list[int]] = []
    with open(path, "r", encoding="ascii") as fh:
        for line_no, raw in enumerate(fh, start=1):
            tokens = raw.split()
            try:
                if tokens[:1] == ["v"]:
                    if len(tokens) < 4:
                        raise ValueError("expected: v <x> <y> <z>")
                    verts.append([float(t) for t in tokens[1:4]])
                    if not all(map(math.isfinite, verts[-1])):
                        raise ValueError("vertex coordinates must be finite")
                elif tokens[:1] == ["f"]:
                    idx = [_vertex_index(t, len(verts)) for t in tokens[1:]]
                    if len(idx) < 3:
                        raise ValueError("expected: f <v1> <v2> <v3> ...")
                    for k in range(1, len(idx) - 1):  # fan-triangulate polygons
                        tris.append([idx[0], idx[k], idx[k + 1]])
            except ValueError as exc:
                raise ObjParseError(line_no, str(exc)) from None
    return TriangleMesh(np.array(verts), np.array(tris, dtype=np.int64))
