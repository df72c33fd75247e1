"""Procedural skeletons: structure, determinism, gravity, serialization."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treescan import (
    SkeletonGraph,
    SkeletonInvariantError,
    SkeletonNode,
    SkeletonParseError,
    TreeParams,
    generate_skeleton,
    load_skeleton,
    save_skeleton,
)
from treescan.skeleton import save_skeleton_text


def expected_node_count(branch_levels, k, nodes_per_curve):
    """Independent recursive counter for a fixed branch factor k.

    A branch adds nodes_per_curve - 1 nodes; each of those spawns k child
    branches while level < branch_levels.
    """

    def count(level):
        added = nodes_per_curve - 1
        if level >= branch_levels:
            return added
        return added + added * k * count(level + 1)

    return 1 + count(0)


def union_find_connected(n_nodes, id_list, edges):
    """Connectivity check that does not reuse the library's validate()."""
    parent = {i: i for i in id_list}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    return len({find(i) for i in id_list}) == 1


def test_no_branching_gives_a_path():
    params = TreeParams(branch_levels=0, nodes_per_curve=5, seed=1)
    g = generate_skeleton(params)
    assert len(g.nodes) == 5
    assert len(g.edges) == 4
    assert g.edges == [(i, i + 1) for i in range(4)]
    radii = [g.node(p).radius for p, _ in g.edges] + [g.node(4).radius]
    assert all(radii[i + 1] <= radii[i] * (1 + 1e-9) for i in range(len(radii) - 1))


def test_unperturbed_trunk_is_colinear_on_z():
    params = TreeParams(branch_levels=0, bend=0.0, gravity=0.0, nodes_per_curve=6)
    g = generate_skeleton(params)
    pos = g.positions()
    assert np.allclose(pos[:, :2], 0.0, atol=1e-12)
    assert np.all(np.diff(pos[:, 2]) > 0.0)
    assert np.isclose(pos[-1, 2], params.trunk_length)


def test_node_count_matches_independent_counter():
    params = TreeParams(
        branch_levels=2,
        branches_per_node_range=(2, 2),
        nodes_per_curve=3,
        seed=42,
    )
    g = generate_skeleton(params)
    assert len(g.nodes) == expected_node_count(2, 2, 3)
    assert len(g.edges) == len(g.nodes) - 1
    ids = [n.id for n in g.nodes]
    assert union_find_connected(len(ids), ids, g.edges)


@given(st.integers(0, 2), st.integers(1, 2), st.integers(2, 4), st.integers(0, 2**32))
@settings(max_examples=25)
def test_structure_invariants_hold_for_random_params(levels, k, npc, seed):
    params = TreeParams(
        branch_levels=levels,
        branches_per_node_range=(k, k),
        nodes_per_curve=npc,
        seed=seed,
    )
    g = generate_skeleton(params)
    assert len(g.nodes) == expected_node_count(levels, k, npc)
    ids = [n.id for n in g.nodes]
    assert union_find_connected(len(ids), ids, g.edges)
    index = {n.id: n for n in g.nodes}
    for p, c in g.edges:
        assert index[c].radius <= index[p].radius * (1 + 1e-9)


def test_same_seed_reproduces_bytes():
    params = TreeParams.preset("medium", seed=77)
    a = save_skeleton_text(generate_skeleton(params))
    b = save_skeleton_text(generate_skeleton(params))
    assert a == b
    c = save_skeleton_text(generate_skeleton(TreeParams.preset("medium", seed=78)))
    assert a != c


def test_presets_scale_complexity():
    small = generate_skeleton(TreeParams.preset("small", seed=0))
    medium = generate_skeleton(TreeParams.preset("medium", seed=0))
    large = generate_skeleton(TreeParams.preset("large", seed=0))
    assert len(small.nodes) < len(medium.nodes) < len(large.nodes)


def test_small_preset_is_the_defaults():
    assert TreeParams() == TreeParams.preset("small")


def test_preset_rejects_unknown_class():
    with pytest.raises(ValueError):
        TreeParams.preset("gigantic")


@pytest.mark.parametrize(
    "field,value",
    [
        ("trunk_length", 0.0),
        ("trunk_radius", -1.0),
        ("branch_levels", -1),
        ("radius_decay", 1.0),
        ("length_decay", 0.0),
        ("gravity", -0.1),
        ("nodes_per_curve", 1),
        ("seed", -1),
    ],
)
def test_param_validation(field, value):
    params = TreeParams(**{field: value})
    with pytest.raises(ValueError):
        params.validate()


# -- gravity ------------------------------------------------------------------

def assert_same_graph(a, b, atol):
    """Same root, edges and node ids; positions and radii within atol."""
    assert (a.root, a.edges) == (b.root, b.edges)
    assert [n.id for n in a.nodes] == [n.id for n in b.nodes]
    assert np.allclose(a.positions(), b.positions(), rtol=0.0, atol=atol)
    assert np.allclose([n.radius for n in a.nodes], [n.radius for n in b.nodes], rtol=0.0, atol=atol)


def horizontal_branch_step(gravity):
    """(step, its unpulled length) of the one node a horizontal, unbent branch adds.

    The trunk is one edge up to node 1, and node 1 spawns one branch at a
    right angle to it, so the branch grows node 2 one step from node 1.
    """
    params = TreeParams(
        branches_per_node_range=(1, 1),
        branch_angle_range=(np.pi / 2, np.pi / 2),
        bend=0.0,
        gravity=gravity,
        nodes_per_curve=2,
    )
    g = generate_skeleton(params)
    assert g.edges == [(0, 1), (1, 2)]
    return g.node(2).position - g.node(1).position, params.trunk_length * params.length_decay


def test_gravity_zero_is_identity():
    step, length = horizontal_branch_step(0.0)
    assert abs(step[2]) <= 1e-15
    assert np.isclose(np.linalg.norm(step), length, rtol=1e-15)


def test_gravity_one_bends_forty_five_degrees():
    step, length = horizontal_branch_step(1.0)
    horizontal = np.linalg.norm(step[:2])
    assert np.isclose(horizontal, length / np.sqrt(2.0), rtol=1e-12)
    assert np.isclose(step[2], -length / np.sqrt(2.0), rtol=1e-12)
    assert np.isclose(np.linalg.norm(step), length, rtol=1e-12)  # step length preserved


def test_gravity_pull_is_monotone():
    down = np.array([0.0, 0.0, -1.0])
    dots = [float(horizontal_branch_step(gravity)[0] @ down) for gravity in [0.0, 0.5, 1.0, 2.0, 8.0]]
    assert all(b > a for a, b in zip(dots, dots[1:]))


def test_gravity_preserves_segment_lengths():
    # gravity draws no random number: the same steps, only pulled down
    params = TreeParams.preset("medium", seed=5)
    g = generate_skeleton(params)
    out = generate_skeleton(replace(params, gravity=0.7))
    assert out.edges == g.edges
    assert [n.radius for n in out.nodes] == [n.radius for n in g.nodes]
    pos_in, pos_out = g.positions(), out.positions()
    assert not np.allclose(pos_in, pos_out)
    for p, c in g.edges:
        a = np.linalg.norm(pos_in[c] - pos_in[p])
        b = np.linalg.norm(pos_out[c] - pos_out[p])
        assert abs(a - b) <= 1e-12 * max(1.0, a)


def test_trunk_exempt_from_gravity():
    params = TreeParams.preset("small", seed=3, gravity=2.0, bend=0.0)
    g = generate_skeleton(params)
    pos = g.positions()
    trunk = pos[: params.nodes_per_curve]
    assert np.allclose(trunk[:, :2], 0.0, atol=1e-12)


# -- serialization ------------------------------------------------------------

def test_round_trip(tmp_path):
    g = generate_skeleton(TreeParams.preset("medium", seed=11))
    path = tmp_path / "tree.skel"
    save_skeleton(g, path)
    back = load_skeleton(path)
    # 9 significant digits survive a parse within float64 rounding
    assert_same_graph(g, back, atol=1e-8)
    save_skeleton(back, tmp_path / "again.skel")
    assert (tmp_path / "again.skel").read_text() == path.read_text()


def test_comments_and_blank_lines_ignored(tmp_path):
    path = tmp_path / "c.skel"
    path.write_text("# header\n\nv 0 0 0 0 1.0  # inline\nroot 0\n")
    g = load_skeleton(path)
    assert len(g.nodes) == 1 and g.root == 0


def test_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.skel"
    path.write_text("v 0 0 0 0 1.0\nv 1 oops 0 0 1.0\nroot 0\n")
    with pytest.raises(SkeletonParseError) as err:
        load_skeleton(path)
    assert err.value.line_no == 2


def test_cycle_rejected(tmp_path):
    path = tmp_path / "cycle.skel"
    path.write_text(
        "v 0 0 0 0 1\nv 1 1 0 0 1\nv 2 2 0 0 1\ne 0 1\ne 1 2\ne 2 1\nroot 0\n"
    )
    with pytest.raises(SkeletonInvariantError):
        load_skeleton(path)


def test_zero_radius_rejected(tmp_path):
    path = tmp_path / "r0.skel"
    path.write_text("v 0 0 0 0 0\nroot 0\n")
    with pytest.raises(SkeletonInvariantError):
        load_skeleton(path)


def test_missing_root_rejected(tmp_path):
    path = tmp_path / "nr.skel"
    path.write_text("v 0 0 0 0 1\n")
    with pytest.raises(SkeletonParseError):
        load_skeleton(path)


def test_validate_names_radius_growth():
    nodes = [
        SkeletonNode(0, np.zeros(3), 0.1),
        SkeletonNode(1, np.array([0.0, 0.0, 1.0]), 0.2),
    ]
    g = SkeletonGraph(nodes=nodes, edges=[(0, 1)], root=0)
    with pytest.raises(SkeletonInvariantError, match="radius increases"):
        g.validate()


def test_validate_rejects_two_parents():
    nodes = [
        SkeletonNode(0, np.zeros(3), 1.0),
        SkeletonNode(1, np.array([1.0, 0, 0]), 1.0),
        SkeletonNode(2, np.array([2.0, 0, 0]), 1.0),
    ]
    g = SkeletonGraph(nodes=nodes, edges=[(0, 2), (1, 2)], root=0)
    with pytest.raises(SkeletonInvariantError):
        g.validate()


def test_min_radius_and_bbox():
    g = generate_skeleton(TreeParams.preset("small", seed=9))
    assert g.min_radius() == min(n.radius for n in g.nodes)
    lo, hi = g.bbox()
    pos = g.positions()
    assert np.array_equal(lo, pos.min(axis=0))
    assert np.array_equal(hi, pos.max(axis=0))
