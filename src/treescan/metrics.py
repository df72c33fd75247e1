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
    """Skeleton nodes, optionally densified along edges at <= spacing gaps."""
    positions = skeleton.positions()
    if spacing is None:
        return SkeletonPointSet(positions, VERTICES_ONLY)
    if not spacing > 0.0:
        raise InvalidParameterError("spacing must be positive")
    index = {node.id: i for i, node in enumerate(skeleton.nodes)}
    extra = []
    for parent, child in skeleton.edges:
        a, b = positions[index[parent]], positions[index[child]]
        length = float(np.linalg.norm(b - a))
        n_seg = int(np.ceil(length / spacing))
        for j in range(1, n_seg):
            extra.append(a + (j / n_seg) * (b - a))
    pts = positions if not extra else np.concatenate([positions, np.array(extra)], axis=0)
    return SkeletonPointSet(pts, f"{EDGE_SAMPLED}({spacing:g})")


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
