"""Hausdorff scoring against the exact ground-truth skeleton."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from treescan.errors import EmptyPointSetError, InvalidParameterError
from treescan.metrics import (
    EDGE_SAMPLED,
    VERTICES_ONLY,
    SkeletonPointSet,
    directed_hausdorff,
    evaluate,
    hausdorff,
    report_json,
    sample_skeleton,
)
from treescan.skeleton import SkeletonGraph, SkeletonNode, TreeParams, generate_skeleton


def brute_directed(a, b):
    """O(nm) reference: same reduction expression as the fast path."""
    d = np.sqrt(np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2))
    return float(np.max(np.min(d, axis=1)))


def path_graph(positions, radius=0.05):
    nodes = [SkeletonNode(i, np.asarray(p, dtype=float), radius) for i, p in enumerate(positions)]
    edges = [(i, i + 1) for i in range(len(positions) - 1)]
    return SkeletonGraph(nodes=nodes, edges=edges, root=0)


finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
point_set = arrays(np.float64, st.tuples(st.integers(1, 12), st.just(3)), elements=finite)


# -- distances -----------------------------------------------------------------


def test_single_point_examples():
    a = np.array([[0.0, 0.0, 0.0]])
    b = np.array([[1.0, 0.0, 0.0]])
    assert hausdorff(a, b) == 1.0
    assert directed_hausdorff(a, b) == 1.0


def test_subset_has_zero_directed_distance():
    rng = np.random.default_rng(1)
    b = rng.uniform(-1, 1, (50, 3))
    a = b[::5]
    assert directed_hausdorff(a, b) == 0.0
    assert directed_hausdorff(b, a) > 0.0


def test_asymmetry_example():
    a = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    b = np.array([[0.0, 0.0, 0.0]])
    assert directed_hausdorff(a, b) == 2.0
    assert directed_hausdorff(b, a) == 0.0
    assert hausdorff(a, b) == 2.0


def test_matches_brute_force_on_random_pairs():
    rng = np.random.default_rng(99)
    for _ in range(100):
        n, m = rng.integers(1, 500, size=2)
        a = rng.uniform(-5, 5, (int(n), 3))
        b = rng.uniform(-5, 5, (int(m), 3))
        assert directed_hausdorff(a, b) == brute_directed(a, b)


def test_self_distance_is_zero():
    rng = np.random.default_rng(3)
    a = rng.uniform(-1, 1, (200, 3))
    assert hausdorff(a, a) == 0.0


def test_translation_shifts_by_its_norm():
    rng = np.random.default_rng(7)
    g = rng.uniform(-2, 2, (300, 3))
    t = np.array([0.3, -0.4, 1.2])
    assert abs(hausdorff(g, g + t) - np.linalg.norm(t)) <= 1e-9


def test_rigid_motion_invariance():
    rng = np.random.default_rng(13)
    a = rng.uniform(-1, 1, (80, 3))
    b = rng.uniform(-1, 1, (60, 3))
    theta = 0.7
    rot = np.array(
        [
            [np.cos(theta), -np.sin(theta), 0.0],
            [np.sin(theta), np.cos(theta), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    t = np.array([4.0, -1.0, 2.5])
    before = hausdorff(a, b)
    after = hausdorff(a @ rot.T + t, b @ rot.T + t)
    assert abs(before - after) <= 1e-9


def test_adding_a_far_point_grows_the_distance():
    rng = np.random.default_rng(21)
    a = rng.uniform(-1, 1, (40, 3))
    b = rng.uniform(-1, 1, (40, 3))
    base = directed_hausdorff(a, b)
    a2 = np.vstack([a, [100.0, 0.0, 0.0]])
    assert directed_hausdorff(a2, b) > base


@settings(max_examples=200)
@given(point_set, point_set, point_set)
def test_metric_axioms(a, b, c):
    dab = hausdorff(a, b)
    dba = hausdorff(b, a)
    assert dab >= 0.0
    assert dab == dba
    # triangle inequality with a little float slack
    assert dab <= hausdorff(a, c) + hausdorff(c, b) + 1e-9


def test_empty_point_sets_rejected():
    with pytest.raises(EmptyPointSetError):
        directed_hausdorff(np.zeros((0, 3)), np.zeros((1, 3)))
    with pytest.raises(EmptyPointSetError):
        SkeletonPointSet(np.zeros((0, 3)))


# -- skeleton sampling ------------------------------------------------------------


def test_wide_spacing_keeps_vertices_only():
    g = path_graph([[0, 0, 0], [0, 0, 1], [0, 0, 2]])
    got = sample_skeleton(g, spacing=5.0)
    assert len(got.points) == 3
    assert np.array_equal(got.points, g.positions())


def test_none_spacing_is_vertices_only_mode():
    g = path_graph([[0, 0, 0], [0, 0, 1]])
    got = sample_skeleton(g)
    assert got.source == VERTICES_ONLY
    assert len(got.points) == 2


def test_unit_edge_quarter_spacing_gives_five_points():
    g = path_graph([[0, 0, 0], [0, 0, 1]])
    got = sample_skeleton(g, spacing=0.25)
    assert got.source == f"{EDGE_SAMPLED}(0.25)"
    assert len(got.points) == 5
    zs = np.sort(got.points[:, 2])
    assert np.allclose(zs, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_sample_count_matches_ceiling_rule_on_random_trees():
    for seed in (0, 1, 2):
        g = generate_skeleton(TreeParams.preset("small", seed=seed))
        spacing = 0.09
        pos = {n.id: n.position for n in g.nodes}
        expected = len(g.nodes)
        for parent, child in g.edges:
            length = float(np.linalg.norm(pos[child] - pos[parent]))
            expected += max(0, int(np.ceil(length / spacing)) - 1)
        got = sample_skeleton(g, spacing=spacing)
        assert len(got.points) == expected


def test_interior_samples_lie_on_their_edges():
    g = path_graph([[0, 0, 0], [1, 0, 0], [1, 2, 0]])
    got = sample_skeleton(g, spacing=0.3).points
    verts = g.positions()
    interior = got[len(verts) :]
    # every interior sample is a convex combination of one edge's endpoints
    ok = np.zeros(len(interior), dtype=bool)
    for a, b in ((verts[0], verts[1]), (verts[1], verts[2])):
        seg = b - a
        t = (interior - a) @ seg / (seg @ seg)
        on = (t >= -1e-12) & (t <= 1.0 + 1e-12)
        res = np.linalg.norm(interior - (a + t[:, None] * seg), axis=1)
        ok |= on & (res <= 1e-12)
    assert np.all(ok)


def per_edge_samples(skeleton, spacing):
    """The sampling one edge and one point at a time: the points `sample_skeleton` must give."""
    pos = {n.id: n.position for n in skeleton.nodes}
    extra = []
    for parent, child in skeleton.edges:
        a, b = pos[parent], pos[child]
        n_seg = int(np.ceil(float(np.linalg.norm(b - a)) / spacing))
        for j in range(1, n_seg):
            extra.append(a + (j / n_seg) * (b - a))
    return np.concatenate([skeleton.positions(), np.array(extra).reshape(-1, 3)])


def test_sampling_matches_a_per_edge_loop():
    zero_edge = path_graph([[0, 0, 0], [0, 0, 1], [0, 0, 1], [0.5, 0.2, 1.3]])
    lone = SkeletonGraph(nodes=[SkeletonNode(0, np.ones(3), 0.1)], edges=[], root=0)
    trees = [generate_skeleton(TreeParams.preset(size, seed=seed)) for size in ("small", "medium") for seed in (1, 2)]
    for g in (zero_edge, lone, *trees):
        for spacing in (0.0137, 0.1, 0.25, 100.0):
            got = sample_skeleton(g, spacing=spacing)
            assert got.points.tobytes() == per_edge_samples(g, spacing).tobytes()
            assert got.source == f"{EDGE_SAMPLED}({spacing:g})"
    # a spacing longer than every edge keeps the nodes alone
    assert np.array_equal(sample_skeleton(trees[0], spacing=100.0).points, trees[0].positions())


def test_sample_rejects_bad_spacing():
    g = path_graph([[0, 0, 0], [0, 0, 1]])
    with pytest.raises(InvalidParameterError):
        sample_skeleton(g, spacing=0.0)
    with pytest.raises(InvalidParameterError):
        sample_skeleton(g, spacing=-1.0)


# -- whole reports -----------------------------------------------------------------


def test_evaluate_identical_skeletons():
    g = generate_skeleton(TreeParams.preset("small", seed=4))
    report = evaluate(g, g, spacing=0.05)
    assert report["hd"] == 0.0
    assert report["hd_directed_gs"] == 0.0
    assert report["hd_directed_sg"] == 0.0
    assert report["hd_normalized"] == 0.0
    assert report["digest_ground_truth"] == report["digest_extracted"]


def test_evaluate_translated_copy():
    g = generate_skeleton(TreeParams.preset("small", seed=8))
    t = np.array([0.02, -0.01, 0.03])
    moved = SkeletonGraph(
        nodes=[SkeletonNode(n.id, n.position + t, n.radius) for n in g.nodes],
        edges=list(g.edges),
        root=g.root,
    )
    report = evaluate(g, moved)
    assert abs(report["hd"] - np.linalg.norm(t)) <= 1e-9
    assert report["digest_ground_truth"] != report["digest_extracted"]


def test_evaluate_leaf_removed_matches_brute_force():
    g = generate_skeleton(TreeParams.preset("small", seed=12))
    children = {p for p, _ in g.edges}
    leaf = next(n.id for n in reversed(g.nodes) if n.id not in children and n.id != g.root)
    pruned = SkeletonGraph(
        nodes=[n for n in g.nodes if n.id != leaf],
        edges=[(p, c) for p, c in g.edges if c != leaf and p != leaf],
        root=g.root,
    )
    report = evaluate(g, pruned)
    a = g.positions()
    b = pruned.positions()
    assert report["hd_directed_gs"] == brute_directed(a, b)
    assert report["hd_directed_sg"] == brute_directed(b, a)
    assert report["hd"] == max(report["hd_directed_gs"], report["hd_directed_sg"])
    assert report["hd"] > 0.0


def test_evaluate_modes_and_normalization():
    g = path_graph([[0, 0, 0], [0, 0, 2]])
    report = evaluate(g, g)
    assert report["mode"] == VERTICES_ONLY
    assert report["spacing"] is None
    sampled = evaluate(g, g, spacing=0.5)
    assert sampled["mode"] == f"{EDGE_SAMPLED}(0.5)"
    lo, hi = g.bbox()
    diag = np.linalg.norm(hi - lo)
    moved = path_graph([[0.1, 0, 0], [0.1, 0, 2]])
    rep2 = evaluate(g, moved)
    assert rep2["hd_normalized"] == pytest.approx(rep2["hd"] / diag)


def test_report_json_round_trips():
    g = path_graph([[0, 0, 0], [0, 0, 1]])
    report = evaluate(g, g, spacing=0.25)
    text = report_json(report)
    assert text.endswith("\n")
    back = json.loads(text)
    assert back["hd"] == report["hd"]
    assert list(back.keys()) == sorted(back.keys())


def test_one_node_report_is_strict_json():
    # a one-node ground truth has a zero bbox diagonal: no normalized distance
    report = evaluate(path_graph([[1.0, 2.0, 3.0]]), path_graph([[1.0, 2.0, 4.0]]))
    assert report["hd"] == 1.0
    assert report["hd_normalized"] is None

    def refuse(constant):
        raise ValueError(f"not JSON: {constant}")

    back = json.loads(report_json(report), parse_constant=refuse)
    assert back["hd_normalized"] is None
    assert back["hd"] == 1.0
