#!/usr/bin/env python3
"""Sweep epsilon, the fit weight's smoothing width, and measure scan accuracy on analytic shapes.

For each epsilon (as a fraction of the bounding-box diagonal) the script
fits a unit sphere and a radius-0.1 cylinder, scans both, and reports how far
the scanned points sit from the true shape. Small widths track the faceted
mesh; large ones smooth it toward (and past) the analytic shape, so the
sweep shows where the fit stops improving.

Every scan takes a feature size that its fine march step must not step
through. The cylinder's is its radius. The sphere has no thin part, so it
marches with a twentieth of its fitted surface's bbox diagonal: the size
the scanner assumed before it required one, which keeps the sphere rows
of the table as they were.

    python scripts/probe_fit_quality.py --scales 0.001 0.005 0.02
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from treescan import FitConfig, ScanConfig, build_surface, icosphere, scan_surface, sweep_mesh
from treescan.skeleton import SkeletonGraph, SkeletonNode


def cylinder_skeleton(radius=0.1, length=1.0) -> SkeletonGraph:
    nodes = [
        SkeletonNode(0, np.array([0.0, 0.0, 0.0]), radius),
        SkeletonNode(1, np.array([0.0, 0.0, length]), radius),
    ]
    return SkeletonGraph(nodes=nodes, edges=[(0, 1)], root=0)


def sphere_errors(points: np.ndarray) -> np.ndarray:
    return np.abs(np.linalg.norm(points, axis=1) - 1.0)


def cylinder_errors(points: np.ndarray) -> np.ndarray:
    z = points[:, 2]
    band = points[(z >= 0.05) & (z <= 0.95)]
    return np.abs(np.hypot(band[:, 0], band[:, 1]) - 0.1)


def probe(mesh, scale: float, errors, feature) -> dict:
    """One table row; feature(surface) is the scan's feature size."""
    lo, hi = mesh.bbox()
    diag = float(np.linalg.norm(hi - lo))
    t0 = time.perf_counter()
    surface = build_surface(mesh, FitConfig(epsilon=scale * diag))
    cloud = scan_surface(surface, ScanConfig(), feature(surface))
    elapsed = time.perf_counter() - t0
    err = errors(cloud.points)
    return {
        "scale": scale,
        "cells": len(surface.centers),
        "points": int(len(err)),
        "frac_within_5e-3": float(np.mean(err <= 5e-3)),
        "max_err": float(err.max()),
        "mean_err": float(err.mean()),
        "seconds": elapsed,
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument(
        "--scales",
        nargs="+",
        type=float,
        default=[0.001, 0.0025, 0.005, 0.01, 0.02],
        help="epsilon values as fractions of the bbox diagonal",
    )
    p.add_argument("--subdivisions", type=int, default=3, help="icosphere refinement")
    p.add_argument("--sides", type=int, default=64, help="cylinder cross-section sides")
    p.add_argument("--json", dest="json_out", default=None, help="also dump rows as JSON")
    args = p.parse_args()

    sphere = icosphere(subdivisions=args.subdivisions, radius=1.0)
    cylinder = sweep_mesh(cylinder_skeleton(), sides=args.sides)

    rows = []
    header = f"{'shape':9s} {'scale':>7s} {'cells':>6s} {'points':>7s} {'<=5e-3':>7s} {'max':>9s} {'mean':>9s} {'sec':>6s}"
    print(header)
    print("-" * len(header))
    for scale in args.scales:
        for shape, mesh, errors, feature in (
            ("sphere", sphere, sphere_errors, lambda surface: surface.bbox_diagonal() / 20.0),
            ("cylinder", cylinder, cylinder_errors, lambda surface: 0.1),
        ):
            row = probe(mesh, scale, errors, feature)
            row["shape"] = shape
            rows.append(row)
            print(
                f"{shape:9s} {scale:7.4f} {row['cells']:6d} {row['points']:7d} "
                f"{row['frac_within_5e-3']:7.2%} {row['max_err']:9.2e} "
                f"{row['mean_err']:9.2e} {row['seconds']:6.1f}"
            )

    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json_out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
