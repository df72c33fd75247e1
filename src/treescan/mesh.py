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


def _ring(center: np.ndarray, radius: float, u: np.ndarray, v: np.ndarray, sides: int) -> np.ndarray:
    ang = 2.0 * math.pi * np.arange(sides) / sides
    return center + radius * (np.cos(ang)[:, None] * u + np.sin(ang)[:, None] * v)


def sweep_mesh(skeleton: SkeletonGraph, sides: int = 24) -> TriangleMesh:
    """Sweep tubes along every skeleton edge.

    Raises ZeroLengthEdgeError if any edge has coincident endpoints; such an
    edge has no axis to sweep around.
    """
    if sides < 3:
        raise InvalidParameterError("sides must be >= 3")
    skeleton.validate()

    kids = skeleton.children()
    index = {n.id: n for n in skeleton.nodes}

    vertices: list[np.ndarray] = []
    triangles: list[tuple[int, int, int]] = []

    def add_ring(center, radius, u, v) -> int:
        base = len(vertices)
        vertices.extend(_ring(center, radius, u, v, sides))
        return base

    def add_tube(ring_a: int, ring_b: int) -> None:
        # ring_a at the parent end, ring_b at the child end; outward winding
        for k in range(sides):
            k1 = (k + 1) % sides
            triangles.append((ring_a + k, ring_a + k1, ring_b + k))
            triangles.append((ring_a + k1, ring_b + k1, ring_b + k))

    def add_cap(apex: np.ndarray, ring: int, outward_flip: bool) -> None:
        base = len(vertices)
        vertices.append(apex)
        for k in range(sides):
            k1 = (k + 1) % sides
            if outward_flip:
                triangles.append((base, ring + k1, ring + k))
            else:
                triangles.append((base, ring + k, ring + k1))

    # one minimal-rotation frame per edge, carried depth-first along paths
    # so each child edge inherits its parent edge's frame
    work: list[tuple[int, int, np.ndarray | None, np.ndarray | None]] = []
    for c in reversed(kids[skeleton.root]):
        work.append((skeleton.root, c, None, None))
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
        ring_a = add_ring(a, index[p].radius, u, v)
        ring_b = add_ring(b, index[c].radius, u, v)
        add_tube(ring_a, ring_b)
        if p == skeleton.root:
            add_cap(a, ring_a, outward_flip=True)
        if not kids[c]:
            add_cap(b, ring_b, outward_flip=False)
        for g in reversed(kids[c]):
            work.append((c, g, d, u))

    return TriangleMesh(np.array(vertices), np.array(triangles, dtype=np.int64))


def save_obj(mesh: TriangleMesh, path) -> None:
    """Wavefront OBJ with v/f records only; indices are 1-based."""
    with open(path, "w", encoding="ascii") as fh:
        for p in mesh.vertices:
            fh.write(f"v {p[0]:.9g} {p[1]:.9g} {p[2]:.9g}\n")
        for t in mesh.triangles:
            fh.write(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}\n")


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
