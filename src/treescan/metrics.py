"""Skeleton-vs-skeleton comparison by Hausdorff distance.

directed_hausdorff is k-d-tree accelerated but contractually equal to the
O(nm) brute force: distances are recomputed from the matched pairs with the
same expression the brute force uses, so both routes reduce the identical
float array and break ties toward the lowest index.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import EmptyPointSetError, InvalidParameterError
from .skeleton import SkeletonGraph, save_skeleton_text

VERTICES_ONLY = "vertices-only"
EDGE_SAMPLED = "edge-sampled"


@dataclass
class SkeletonPointSet:
    points: np.ndarray
    source: str = VERTICES_ONLY

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        if len(self.points) == 0:
            raise EmptyPointSetError("point set is empty")


def _as_points(obj) -> np.ndarray:
    if isinstance(obj, SkeletonPointSet):
        return obj.points
    pts = np.asarray(obj, dtype=np.float64).reshape(-1, 3)
    if len(pts) == 0:
        raise EmptyPointSetError("point set is empty")
    return pts


def directed_hausdorff(a, b) -> float:
    """max over a of the distance to the closest point of b."""
    pa, pb = _as_points(a), _as_points(b)
    _, idx = cKDTree(pb).query(pa, k=1)
    # recompute from matched pairs so the result is bit-identical to the
    # brute-force reduction of the same expression
    d = np.sqrt(np.sum((pa - pb[idx]) ** 2, axis=1))
    return float(np.max(d))


def hausdorff(g, s) -> float:
    return max(directed_hausdorff(g, s), directed_hausdorff(s, g))


def sample_skeleton(skeleton: SkeletonGraph, spacing: float | None = None) -> SkeletonPointSet:
    """Skeleton nodes, optionally densified along edges at <= spacing gaps.

    An edge (a, b) cut into n = ceil(|b - a| / spacing) segments adds the
    points a + (j / n) (b - a) for j = 1 .. n - 1, after the nodes, in edge
    order and then j order.
    """
    positions = skeleton.positions()
    if spacing is None:
        return SkeletonPointSet(positions, VERTICES_ONLY)
    if not spacing > 0.0:
        raise InvalidParameterError("spacing must be positive")
    index = {node.id: i for i, node in enumerate(skeleton.nodes)}
    ends = np.array([(index[p], index[c]) for p, c in skeleton.edges], dtype=np.int64).reshape(-1, 2)
    a = positions[ends[:, 0]]
    seg = positions[ends[:, 1]] - a
    n_seg = np.ceil(np.linalg.norm(seg, axis=1) / spacing).astype(np.int64)
    per_edge = np.maximum(n_seg - 1, 0)
    edge = np.repeat(np.arange(len(ends)), per_edge)
    # j counts 1, 2, ... within each edge's run of samples
    j = np.arange(1, len(edge) + 1) - np.repeat(np.cumsum(per_edge) - per_edge, per_edge)
    extra = a[edge] + (j / n_seg[edge])[:, None] * seg[edge]
    return SkeletonPointSet(np.concatenate([positions, extra]), f"{EDGE_SAMPLED}({spacing:g})")


def _digest(skeleton: SkeletonGraph) -> str:
    return hashlib.sha256(save_skeleton_text(skeleton).encode("ascii")).hexdigest()


def evaluate(ground_truth: SkeletonGraph, extracted: SkeletonGraph, spacing: float | None = None) -> dict:
    """Comparison report: raw and bbox-normalized Hausdorff, both directions.

    spacing=None compares node sets only; a positive spacing also samples
    edge interiors of both skeletons.  The normalized distance is None
    where the ground truth's bbox diagonal is 0 (a single node).
    """
    g = sample_skeleton(ground_truth, spacing)
    s = sample_skeleton(extracted, spacing)
    d_gs = directed_hausdorff(g, s)
    d_sg = directed_hausdorff(s, g)
    hd = max(d_gs, d_sg)
    lo, hi = ground_truth.bbox()
    diag = float(np.linalg.norm(hi - lo))
    return {
        "hd": hd,
        "hd_directed_gs": d_gs,
        "hd_directed_sg": d_sg,
        "hd_normalized": hd / diag if diag > 0.0 else None,
        "mode": g.source,
        "spacing": spacing,
        "digest_ground_truth": _digest(ground_truth),
        "digest_extracted": _digest(extracted),
    }


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
