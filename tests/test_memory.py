"""Bounded memory of the neighbour stages and the sweep, measured with tracemalloc.

Each neighbour stage works in chunks of k-d tree leaf order and in
entry-budgeted PCA batches, so its traced peak grows with its output, not
with its neighbourhoods. The budgets hold a margin over the chunked code and
fail an all-at-once query or a (6, entries) product array. The sweep writes
into arrays sized up front, so its peak is about the mesh it returns.
"""

import tracemalloc

import numpy as np
import pytest

from treescan.cloud import PointCloud
from treescan.degrade import UnevenParams, uneven_density
from treescan.geometry import principal_axes
from treescan.mesh import sweep_mesh
from treescan.rng import derive_seed
from treescan.scanner import estimate_normals, orient_normals
from treescan.skeleton import TreeParams, generate_skeleton

CYLINDER_POINTS = 50_000
UNEVEN_NEIGHBOURS = 60  # expected points within the uneven radius


def traced_peak(func, *args) -> int:
    """Bytes func allocates at its peak, beyond what was live when it began."""
    tracemalloc.start()
    try:
        func(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def noisy_cylinder():
    """Radius 0.5, height 3, radial noise of 1 % of the radius, with PCA
    normals and the neighbours estimate_normals carries."""
    rng = np.random.default_rng(71)
    n = CYLINDER_POINTS
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    radial = np.column_stack([np.cos(theta), np.sin(theta), np.zeros(n)])
    pts = radial * (0.5 + 0.005 * rng.normal(size=(n, 1))) + np.outer(rng.uniform(0.0, 3.0, n), [0.0, 0.0, 1.0])
    return estimate_normals(PointCloud(pts), 16)


def test_principal_axes_temporaries_stay_within_the_entry_budget():
    rng = np.random.default_rng(5)
    points = rng.random((20_000, 3))
    neighbours = rng.integers(0, len(points), 4096 * 200)
    starts = np.arange(0, len(neighbours), 200)
    # all 4,096 neighbourhoods in one batch take over 110 MB
    assert traced_peak(principal_axes, points, neighbours, starts) < 16e6


@pytest.mark.parametrize(
    "stage, budget",
    [
        # bytes per point. Chunked, the stages take about 320, 345 (on the
        # rows estimate_normals carries), 420 (querying its own) and 1,220;
        # all at once, the three queries took about 635, 816 and 4,510
        ("estimate_normals", 400),
        ("orient_normals", 600),
        ("orient_normals_fresh", 600),
        ("uneven_density", 2000),
    ],
)
def test_neighbour_stages_stay_within_a_per_point_budget(noisy_cylinder, stage, budget):
    cloud = noisy_cylinder
    n = len(cloud)
    if stage == "estimate_normals":
        args = (estimate_normals, PointCloud(cloud.points), 16)
    elif stage == "orient_normals":
        args = (orient_normals, cloud, 16)
    elif stage == "orient_normals_fresh":
        args = (orient_normals, PointCloud(cloud.points.copy(), cloud.normals), 16)
    else:
        # a box holding the whole cloud: every point is queried
        r = float(np.sqrt(UNEVEN_NEIGHBOURS * 3.0 / n))  # a disc of pi r^2 in an area of 3 pi holds n r^2 / 3
        args = (uneven_density, cloud, UnevenParams(region=((-1.0, -1.0, -1.0), (1.0, 1.0, 4.0)), r=r, seed=1))
    assert traced_peak(*args) / n < budget


def test_sweep_mesh_peak_stays_near_the_mesh_it_returns():
    tree = generate_skeleton(TreeParams.preset("medium", seed=derive_seed(1, "skeleton")))
    mesh = sweep_mesh(tree)
    returned = mesh.vertices.nbytes + mesh.triangles.nbytes
    # lists of one small array per vertex and one tuple per triangle peak at about 8.2x
    assert traced_peak(sweep_mesh, tree) < 1.5 * returned
