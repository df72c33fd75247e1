#!/usr/bin/env python3
"""Memory and time of one `build_surface` call, measured in this process.

    PYTHONPATH=src python scripts/fit_memory.py medium 1

Builds the tube mesh the pipeline makes for SIZE and master SEED (default
`FitConfig`), then fits it twice. The first fit runs untraced and gives
the rise of the process's resident high-water mark (`ru_maxrss`) over its
value after the mesh was built, the high-water mark itself, and the wall
time. The second fit runs under tracemalloc and gives the peak of the
memory the fit allocates through Python and numpy. Prints one JSON object.
Run each measurement in a fresh interpreter: a high-water mark never falls.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
import tracemalloc

from treescan import PipelineConfig, TreeParams
from treescan.implicit import FitConfig, build_surface
from treescan.mesh import sweep_mesh
from treescan.rng import derive_seed
from treescan.skeleton import generate_skeleton


def max_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    scale = 1 if sys.platform == "darwin" else 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale / 1e6


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("size", help="size class: small, medium or large")
    ap.add_argument("seed", type=int, help="master seed")
    args = ap.parse_args()

    tree = TreeParams.preset(args.size, seed=derive_seed(args.seed, "skeleton"))
    mesh = sweep_mesh(generate_skeleton(tree), sides=PipelineConfig().sides)
    gc.collect()

    before = max_rss_mb()
    start = time.perf_counter()
    surface = build_surface(mesh, FitConfig())
    wall = time.perf_counter() - start
    peak = max_rss_mb()
    cells = len(surface.centers)
    del surface
    gc.collect()

    tracemalloc.start()
    build_surface(mesh, FitConfig())
    traced = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    print(
        json.dumps(
            {
                "size": args.size,
                "seed": args.seed,
                "triangles": len(mesh.triangles),
                "cells": cells,
                "fit_s": round(wall, 3),
                "max_rss_mb": round(peak, 1),
                "max_rss_delta_mb": round(peak - before, 1),
                "tracemalloc_peak_mb": round(traced / 1e6, 1),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
