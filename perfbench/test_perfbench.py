"""Quick tests of the benchmark's own checks and tracing.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from treescan import metrics  # noqa: E402
from treescan.skeleton import SkeletonGraph, SkeletonNode  # noqa: E402


def _two_edge_tube():
    nodes = [
        SkeletonNode(0, [0.0, 0.0, 0.0], 0.05),
        SkeletonNode(1, [0.0, 0.0, 0.5], 0.04),
        SkeletonNode(2, [0.05, 0.0, 1.0], 0.03),
    ]
    return SkeletonGraph(nodes, [(0, 1), (1, 2)], 0)


def _lateral_samples(graph, n, rng):
    """Points on the frustums' side walls, away from the joint, and their outward radial."""
    pts, out = [], []
    for p, c in graph.edges:
        a, b = graph.node(p), graph.node(c)
        axis = (b.position - a.position) / np.linalg.norm(b.position - a.position)
        u = np.cross(axis, [0.0, 1.0, 0.0])
        u /= np.linalg.norm(u)
        v = np.cross(axis, u)
        t = rng.uniform(0.15, 0.85, n)
        phi = rng.uniform(0.0, 2.0 * np.pi, n)
        radial = np.cos(phi)[:, None] * u + np.sin(phi)[:, None] * v
        r = a.radius + t * (b.radius - a.radius)
        pts.append(a.position + t[:, None] * (b.position - a.position) + r[:, None] * radial)
        out.append(radial)
    return np.concatenate(pts), np.concatenate(out)


def test_tube_check_accepts_the_tube_and_rejects_points_off_it():
    graph = _two_edge_tube()
    skel = checks.skeleton_from_nodes(graph.nodes, graph.edges, graph.root)
    pts, radial = _lateral_samples(graph, 200, np.random.default_rng(3))
    normals = radial  # any normals do: the check only needs them present
    tol = checks.tube_tolerance(skel, mesh_diagonal=1.1)
    assert tol < 0.02
    assert checks.on_tube(pts, normals, skel, tol)[0]
    assert checks.tube_distance(pts, skel).max() < 1e-12
    for shift in (0.02, -0.02):
        moved = pts.copy()
        moved[::7] += shift * radial[::7]
        ok, detail = checks.on_tube(moved, normals, skel, tol)
        assert not ok, detail
        assert detail.startswith(f"{len(moved[::7])}/{len(moved)} ")


def test_brute_force_hausdorff_agrees_with_evaluate():
    truth = _two_edge_tube()
    moved = SkeletonGraph(
        [SkeletonNode(n.id, n.position + [0.01 * n.id, -0.02, 0.005], n.radius) for n in truth.nodes],
        list(truth.edges),
        truth.root,
    )
    report = metrics.evaluate(truth, moved, spacing=0.05)
    self_report = metrics.evaluate(truth, truth, spacing=0.05)
    g = checks.skeleton_from_nodes(truth.nodes, truth.edges, truth.root)
    s = checks.skeleton_from_nodes(moved.nodes, moved.edges, moved.root)
    ok, detail = checks.evaluate_ok(report, self_report, g, s, 0.05)
    assert ok, detail
    assert report["hd"] > 0.0
    wrong = dict(report, hd=report["hd"] * (1.0 + 1e-9))
    assert not checks.evaluate_ok(wrong, self_report, g, s, 0.05)[0]


def _digests(workload, inputs, out: Path, trace: bool):
    out.mkdir(parents=True)
    tracer = tracing.Tracer()
    if trace:
        with tracer.installed():
            res = workload.run(inputs, out)
        assert tracer.spans
    else:
        res = workload.run(inputs, out)
    return workload.digests(res, out), workload.check(inputs, res, out)


def test_traced_and_untraced_runs_write_identical_digests(tmp_path):
    cases = {
        "pipeline": workloads.PipelineWorkload(
            "small", master_seed=1, scan={"resolution": 24, "views": 2}, degradations=("noise", "occlusion")
        ),
        "dense": workloads.DenseWorkload(size_class="small", points=3000, region_points=1000),
    }
    for name, workload in cases.items():
        inputs = workload.build(5)
        plain, plain_ops = _digests(workload, inputs, tmp_path / name / "plain", trace=False)
        traced, traced_ops = _digests(workload, inputs, tmp_path / name / "traced", trace=True)
        assert plain == traced, name
        assert [op[:2] for op in plain_ops] == [op[:2] for op in traced_ops], name
    # the dense workload has no known fault: every operation passes
    assert all(ok for _, ok, _ in plain_ops), plain_ops


def test_run_refuses_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        bench["command"] + ["--workload", "dense-cloud", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
