"""Per-layer spans recorded around the program's public functions.

`Tracer.installed()` replaces each name in TARGETS where its caller looks it
up (a module attribute or a class method) with a wrapper that records a
span (name, start, end, the span open when it began) and the counts the row
names. Spans stay in memory; `write` saves them when the run ends.

A layer's time metric is the self time of its spans: their duration minus
the part that child spans cover. The one exception is degrade.density_s,
the inclusive time of the density stage; its rescans also count in the
scanner and field layers.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

from treescan import cloud, degrade, implicit, metrics, pipeline, scanner


def _fit_counts(args, kwargs, surface):
    d = surface.diagnostics
    return {
        "implicit.cells": d["cells"],
        "implicit.grown_spheres": d["grown_spheres"],
        "implicit.coverage_regrown": d["coverage_regrown"],
        "fit_triangles": len(args[0].triangles),
    }


def _scan_view_counts(args, kwargs, view):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    return {"scanner.rays": cfg.resolution**2, "scanner.hits": len(view)}


def _uneven_counts(args, kwargs, thick):
    return {"degrade.uneven_inserted": len(thick) - len(args[0])}


def _ply_bytes(args, kwargs, out):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"ply_bytes": os.path.getsize(path)}


# owner, attribute, time metric (None: counts only, no span), counts(args, kwargs, result)
TARGETS = [
    (pipeline, "run_pipeline", "pipeline.self_s", None),
    (pipeline, "generate_skeleton", "skeleton.s", lambda a, k, g: {"skeleton.nodes": len(g.nodes)}),
    (pipeline, "save_skeleton", "skeleton.s", None),
    (pipeline, "sweep_mesh", "mesh.s", lambda a, k, m: {"mesh.triangles": len(m.triangles)}),
    (pipeline, "save_obj", "mesh.s", None),
    (pipeline, "build_surface", "implicit.fit_s", _fit_counts),
    (implicit, "dist_points_to_triangles", "geometry.tri_dist_s", lambda a, k, d: {"geometry.tri_dist_pairs": len(d)}),
    (implicit.ImplicitSurface, "__init__", "implicit.index_s", None),
    (implicit.ImplicitSurface, "eval_many", "implicit.field_s", lambda a, k, f: {"implicit.field_evals": len(f)}),
    (implicit.ImplicitSurface, "gradient_many", "implicit.gradient_s", None),
    (implicit._CellIndex, "candidate_pairs", None, lambda a, k, rc: {"pair_queries": len(a[1]), "pairs": len(rc[0])}),
    (pipeline, "scan_surface", "scanner.scan_s", None),
    (degrade, "scan_surface", "scanner.scan_s", None),
    (scanner, "scan_view", "scanner.scan_s", _scan_view_counts),
    (scanner, "estimate_normals", "scanner.pca_s", None),
    (scanner, "orient_normals", "scanner.orient_s", None),
    (pipeline, "add_noise", "degrade.noise_s", None),
    (degrade, "add_noise", "degrade.noise_s", None),
    (pipeline, "occlude", "degrade.occlusion_s", None),
    (degrade, "occlude", "degrade.occlusion_s", None),
    (pipeline, "uneven_density", "degrade.uneven_s", _uneven_counts),
    (degrade, "uneven_density", "degrade.uneven_s", _uneven_counts),
    (pipeline, "density_variants", "degrade.density_s", None),
    (pipeline, "write_ply", "cloud.ply_write_s", _ply_bytes),
    (cloud, "write_ply", "cloud.ply_write_s", _ply_bytes),
    (cloud, "read_ply", "cloud.ply_read_s", None),
    (metrics, "evaluate", "metrics.evaluate_s", None),
    (metrics, "sample_skeleton", "metrics.evaluate_s", lambda a, k, s: {"metrics.sample_points": len(s.points)}),
]
INCLUSIVE = {"degrade.density_s"}
TIME_METRICS = sorted({t[2] for t in TARGETS if t[2] is not None})


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.times: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []
        self._child_time: list[float] = []

    def _span(self, fn, name, metric, counts):
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, self._open[-1] if self._open else -1, 0.0, 0.0])
            self._open.append(index)
            self._child_time.append(0.0)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                child = self._child_time.pop()
                self.spans[index][2:] = [start, end]
                self.times[metric] += (end - start) - (0.0 if metric in INCLUSIVE else child)
                if self._child_time:
                    self._child_time[-1] += end - start
            if counts is not None:
                for key, n in counts(args, kwargs, out).items():
                    self.counts[key] += n
            return out

        return traced

    def _counter(self, fn, counts):
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            for key, n in counts(args, kwargs, out).items():
                self.counts[key] += n
            return out

        return counted

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, metric, counts in TARGETS:
                fn = owner.__dict__[attr]
                saved.append((owner, attr, fn))
                name = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
                wrapper = self._counter(fn, counts) if metric is None else self._span(fn, name, metric, counts)
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-round layer times and counts, and the ratios built from them."""
        c = self.counts
        per = {name: self.times[name] / rounds for name in TIME_METRICS}
        for key in (
            "skeleton.nodes",
            "mesh.triangles",
            "implicit.cells",
            "implicit.grown_spheres",
            "implicit.coverage_regrown",
            "geometry.tri_dist_pairs",
            "implicit.field_evals",
            "scanner.rays",
            "scanner.hits",
            "degrade.uneven_inserted",
            "metrics.sample_points",
        ):
            per[key] = c[key] / rounds
        per["implicit.cells_per_triangle"] = c["implicit.cells"] / c["fit_triangles"] if c["fit_triangles"] else 0.0
        per["implicit.pairs_per_point"] = c["pairs"] / c["pair_queries"] if c["pair_queries"] else 0.0
        per["scanner.hit_rate"] = c["scanner.hits"] / c["scanner.rays"] if c["scanner.rays"] else 0.0
        per["scanner.evals_per_hit"] = c["implicit.field_evals"] / c["scanner.hits"] if c["scanner.hits"] else 0.0
        per["cloud.ply_mb"] = c["ply_bytes"] / 1e6 / rounds
        return per

    def write(self, path) -> None:
        t0 = self.spans[0][2] if self.spans else 0.0
        rows = [[name, parent, start - t0, end - t0] for name, parent, start, end in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "parent", "start_s", "end_s"], "spans": rows}, fh)
