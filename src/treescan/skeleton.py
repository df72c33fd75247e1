"""Ground-truth tree skeletons.

A skeleton is a rooted tree of 3D nodes with per-node radii. Trees are grown
procedurally from a seeded parameter set: a trunk polyline plus recursive
branch levels, with per-step direction jitter (bend), geometric radius and
length decay, and an optional downward pull (gravity). The same seed always
reproduces the same tree, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidParameterError,
    SkeletonInvariantError,
    SkeletonParseError,
)
from .geometry import perpendicular_frame
from .rng import Stream

DOWN = np.array([0.0, 0.0, -1.0])

SIZE_PRESETS = {
    # the TreeParams fields each size class changes from the defaults, which are small's
    "small": {},
    "medium": {"branch_levels": 3, "trunk_radius": 0.06},
    "large": {"branch_levels": 4, "branches_per_node_range": (2, 3), "nodes_per_curve": 5, "trunk_radius": 0.07},
}


@dataclass
class SkeletonNode:
    id: int
    position: np.ndarray
    radius: float

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=np.float64)


@dataclass
class SkeletonGraph:
    """Rooted acyclic skeleton: nodes, directed (parent, child) edges, root id."""

    nodes: list[SkeletonNode]
    edges: list[tuple[int, int]]
    root: int

    def node(self, node_id: int) -> SkeletonNode:
        return self.nodes[self._index()[node_id]]

    def _index(self) -> dict[int, int]:
        return {n.id: i for i, n in enumerate(self.nodes)}

    def children(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {n.id: [] for n in self.nodes}
        for p, c in self.edges:
            out[p].append(c)
        return out

    def positions(self) -> np.ndarray:
        return np.array([n.position for n in self.nodes], dtype=np.float64)

    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        pos = self.positions()
        return pos.min(axis=0), pos.max(axis=0)

    def min_radius(self) -> float:
        return float(min(n.radius for n in self.nodes))

    def validate(self) -> None:
        """Raise SkeletonInvariantError naming the first violated invariant."""
        if not self.nodes:
            raise SkeletonInvariantError("empty graph: at least one node required")
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise SkeletonInvariantError("duplicate node ids")
        known = set(ids)
        if self.root not in known:
            raise SkeletonInvariantError(f"root id {self.root} not among nodes")
        for n in self.nodes:
            if not np.all(np.isfinite(n.position)):
                raise SkeletonInvariantError(f"node {n.id}: non-finite position")
            if not (n.radius > 0.0 and math.isfinite(n.radius)):
                raise SkeletonInvariantError(f"node {n.id}: radius must be positive, got {n.radius}")
        parent: dict[int, int] = {}
        for p, c in self.edges:
            if p not in known or c not in known:
                raise SkeletonInvariantError(f"edge ({p}, {c}) references unknown node")
            if c == self.root:
                raise SkeletonInvariantError("root must not have a parent")
            if c in parent:
                raise SkeletonInvariantError(f"node {c} has more than one parent")
            parent[c] = p
        if len(self.edges) != len(self.nodes) - 1:
            raise SkeletonInvariantError(
                f"not a tree: {len(self.edges)} edges for {len(self.nodes)} nodes"
            )
        # reachability from root; with n-1 edges and unique parents this
        # also rules out cycles
        kids = self.children()
        seen = {self.root}
        stack = [self.root]
        while stack:
            for c in kids[stack.pop()]:
                seen.add(c)
                stack.append(c)
        if len(seen) != len(self.nodes):
            raise SkeletonInvariantError("graph is not connected (or contains a cycle)")
        index = self._index()
        for p, c in self.edges:
            rp = self.nodes[index[p]].radius
            rc = self.nodes[index[c]].radius
            if rc > rp * (1.0 + 1e-9):
                raise SkeletonInvariantError(
                    f"radius increases along edge ({p}, {c}): {rp} -> {rc}"
                )


@dataclass
class TreeParams:
    """Knobs of the procedural generator.

    size_class is a label recording which preset produced the parameters;
    construction via `TreeParams.preset` keeps it consistent with
    branch_levels.  The defaults are the small preset.  Angles are radians.
    """

    size_class: str = "small"
    trunk_length: float = 1.0
    trunk_radius: float = 0.05
    branch_levels: int = 1
    branches_per_node_range: tuple[int, int] = (1, 2)
    branch_angle_range: tuple[float, float] = (0.4, 1.1)
    radius_decay: float = 0.65
    length_decay: float = 0.62
    gravity: float = 0.0
    bend: float = 0.15
    nodes_per_curve: int = 4
    seed: int = 0

    @classmethod
    def preset(cls, size_class: str, seed: int = 0, **overrides) -> "TreeParams":
        if size_class not in SIZE_PRESETS:
            raise InvalidParameterError(f"unknown size class {size_class!r}")
        return cls(**{"size_class": size_class, "seed": seed, **SIZE_PRESETS[size_class], **overrides})

    def validate(self) -> None:
        if self.size_class not in SIZE_PRESETS:
            raise InvalidParameterError(f"unknown size class {self.size_class!r}")
        if self.trunk_length <= 0.0:
            raise InvalidParameterError("trunk_length must be positive")
        if self.trunk_radius <= 0.0:
            raise InvalidParameterError("trunk_radius must be positive")
        if self.branch_levels < 0:
            raise InvalidParameterError("branch_levels must be >= 0")
        lo, hi = self.branches_per_node_range
        if not (0 <= lo <= hi):
            raise InvalidParameterError("branches_per_node_range must be a non-empty range of non-negative ints")
        alo, ahi = self.branch_angle_range
        if alo > ahi:
            raise InvalidParameterError("branch_angle_range must be non-empty")
        for name in ("radius_decay", "length_decay"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise InvalidParameterError(f"{name} must lie in (0, 1)")
        if self.gravity < 0.0:
            raise InvalidParameterError("gravity must be non-negative")
        if self.nodes_per_curve < 2:
            raise InvalidParameterError("nodes_per_curve must be >= 2")
        if self.seed < 0 or self.seed > 0xFFFFFFFFFFFFFFFF:
            raise InvalidParameterError("seed must fit in 64 unsigned bits")


def _tilt(d: np.ndarray, angle: float, azimuth: float) -> np.ndarray:
    """Rotate unit d by `angle` toward the azimuth direction in its normal plane."""
    u, v = perpendicular_frame(d)
    out = math.cos(angle) * d + math.sin(angle) * (math.cos(azimuth) * u + math.sin(azimuth) * v)
    return out / np.linalg.norm(out)


def _pulled(d: np.ndarray, gravity: float) -> np.ndarray:
    """Unit d pulled down: normalize(d + gravity * DOWN), or d itself if that nearly cancels."""
    if gravity == 0.0:
        return d
    pulled = d + gravity * DOWN
    norm = float(np.linalg.norm(pulled))
    return pulled / norm if norm > 1e-12 else d


@dataclass
class _Branch:
    attach_id: int
    direction: np.ndarray
    level: int


def generate_skeleton(params: TreeParams) -> SkeletonGraph:
    """Grow a tree from the seed in `params`.

    Branches are processed breadth-first in creation order and all random
    draws go through one sequential counter stream, so output is a pure
    function of the parameters.  Eligible spawn sites are the nodes a branch
    adds (not its attachment node); each spawns k child branches with k drawn
    from branches_per_node_range.
    """
    params.validate()
    rng = Stream(params.seed, stream=0)
    ncur = params.nodes_per_curve

    nodes: list[SkeletonNode] = [SkeletonNode(0, np.zeros(3), params.trunk_radius)]
    edges: list[tuple[int, int]] = []
    queue: list[_Branch] = []

    def grow(attach_id: int, direction: np.ndarray, level: int) -> None:
        base_r = params.trunk_radius * params.radius_decay**level
        length = params.trunk_length * params.length_decay**level
        step = length / (ncur - 1)
        d = direction
        here = attach_id
        new_ids = []
        for j in range(1, ncur):
            d = _tilt(d, rng.uniform(0.0, params.bend), rng.uniform(0.0, 2.0 * math.pi))
            node_id = len(nodes)
            pos = nodes[here].position + step * (_pulled(d, params.gravity) if level > 0 else d)
            radius = base_r * params.radius_decay ** (j / (ncur - 1))
            nodes.append(SkeletonNode(node_id, pos, radius))
            edges.append((here, node_id))
            new_ids.append((node_id, d))
            here = node_id
        if level < params.branch_levels:
            lo, hi = params.branches_per_node_range
            for node_id, d_at in new_ids:
                k = rng.integer(lo, hi)
                for _ in range(k):
                    theta = rng.uniform(*params.branch_angle_range)
                    phi = rng.uniform(0.0, 2.0 * math.pi)
                    queue.append(_Branch(node_id, _tilt(d_at, theta, phi), level + 1))

    grow(0, np.array([0.0, 0.0, 1.0]), 0)
    i = 0
    while i < len(queue):
        b = queue[i]
        grow(b.attach_id, b.direction, b.level)
        i += 1

    graph = SkeletonGraph(nodes=nodes, edges=edges, root=0)
    graph.validate()
    return graph


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def save_skeleton_text(skeleton: SkeletonGraph) -> str:
    """The canonical text form: v/e records plus a root record, 9 significant digits."""
    lines = []
    for n in skeleton.nodes:
        p = n.position
        lines.append(f"v {n.id} {_fmt(p[0])} {_fmt(p[1])} {_fmt(p[2])} {_fmt(n.radius)}")
    for p, c in skeleton.edges:
        lines.append(f"e {p} {c}")
    lines.append(f"root {skeleton.root}")
    return "\n".join(lines) + "\n"


def save_skeleton(skeleton: SkeletonGraph, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(save_skeleton_text(skeleton))


def load_skeleton(path) -> SkeletonGraph:
    """Parse and validate a skeleton file; parse errors carry line numbers."""
    nodes: list[SkeletonNode] = []
    edges: list[tuple[int, int]] = []
    root: int | None = None
    seen_ids: set[int] = set()
    with open(path, "r", encoding="ascii") as fh:
        raw_lines = fh.readlines()
    for line_no, raw in enumerate(raw_lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        tokens = text.split()
        kind = tokens[0]
        try:
            if kind == "v":
                if len(tokens) != 6:
                    raise ValueError("expected: v <id> <x> <y> <z> <r>")
                nid = int(tokens[1])
                if nid in seen_ids:
                    raise ValueError(f"duplicate node id {nid}")
                seen_ids.add(nid)
                x, y, z, r = (float(t) for t in tokens[2:])
                nodes.append(SkeletonNode(nid, np.array([x, y, z]), r))
            elif kind == "e":
                if len(tokens) != 3:
                    raise ValueError("expected: e <parent> <child>")
                edges.append((int(tokens[1]), int(tokens[2])))
            elif kind == "root":
                if len(tokens) != 2:
                    raise ValueError("expected: root <id>")
                if root is not None:
                    raise ValueError("duplicate root record")
                root = int(tokens[1])
            else:
                raise ValueError(f"unknown record type {kind!r}")
        except ValueError as exc:
            raise SkeletonParseError(line_no, str(exc)) from None
    if root is None:
        raise SkeletonParseError(len(raw_lines) + 1, "missing root record")
    graph = SkeletonGraph(nodes=nodes, edges=edges, root=root)
    graph.validate()
    return graph
