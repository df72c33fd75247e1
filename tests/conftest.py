"""Shared fixtures.

Expensive surfaces and scans are session-scoped; every test that mutates
nothing may share them. Tests that need to time a cold build construct
their own objects.
"""

import os
import subprocess
import sys
from pathlib import Path

import hypothesis
import numpy as np
import pytest

import treescan
from treescan import (
    FitConfig,
    ScanConfig,
    SkeletonGraph,
    SkeletonNode,
    build_surface,
    icosphere,
    pipeline,
    scan_surface,
    sweep_mesh,
)
from treescan.errors import InsufficientTrianglesError
from treescan.mesh import TriangleMesh

hypothesis.settings.register_profile(
    "ci", max_examples=50, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("ci")


def openblas_dynamic_arch() -> bool:
    """numpy's BLAS is an OpenBLAS that picks its kernel when it loads."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in blas["name"] and "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


def outputs_per_openblas_kernel(script: str, *args) -> list[list[str]]:
    """The stdout words of `python -c script *args` on OpenBLAS's default
    kernel and under OPENBLAS_CORETYPE=Prescott, with this treescan on the
    path."""
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = str(Path(treescan.__file__).resolve().parents[1])
    outputs = []
    for run_env in (env, {**env, "OPENBLAS_CORETYPE": "Prescott"}):
        proc = subprocess.run(
            [sys.executable, "-c", script, *map(str, args)], env=run_env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.split())
    return outputs


@pytest.fixture
def failing_fit(monkeypatch):
    """A valid fit config whose fit stage fails at run time: the pipeline's
    `build_surface` raises InsufficientTrianglesError for it alone."""
    fit = FitConfig(epsilon=0.0037)
    real = pipeline.build_surface

    def build_surface(mesh, cfg=None):
        if cfg == fit:
            raise InsufficientTrianglesError("a cell has only degenerate member triangles")
        return real(mesh, cfg)

    monkeypatch.setattr(pipeline, "build_surface", build_surface)
    return fit


@pytest.fixture(scope="session")
def sphere_mesh_320():
    return icosphere(subdivisions=2, radius=1.0)


@pytest.fixture(scope="session")
def sphere_surface_320(sphere_mesh_320):
    return build_surface(sphere_mesh_320, FitConfig())


@pytest.fixture(scope="session")
def sphere_surface():
    # subdiv 3: mesh faceting error ~1.5e-3, well under the 5e-3 checks
    return build_surface(icosphere(subdivisions=3, radius=1.0), FitConfig())


# damaged copies of a surface cache (`damaged_cache`) and the words of the
# SurfaceCacheError that `load_surface` refuses each with
CACHE_FAULTS = {
    "nan radius": "not finite",
    "inf centre": "not finite",
    "negative radii": "radius that is not positive",
    "no cell": "no cell",
    "trailing bytes": "trailing bytes",
}


def damaged_cache(blob: bytes, fault: str) -> bytes:
    """Surface cache `blob` with one fault of `CACHE_FAULTS`, its length and
    key otherwise kept.  The header is 104 bytes and ends with the cell
    count n; the centers (3n values) and the radii (n) come first."""
    head, n = blob[:104], int.from_bytes(blob[96:104], "little")
    cells = np.frombuffer(blob, dtype="<f8", offset=104).copy()
    if fault == "nan radius":
        cells[3 * n] = np.nan
    elif fault == "inf centre":
        cells[1] = np.inf
    elif fault == "negative radii":
        cells[3 * n : 4 * n] *= -1.0
    elif fault == "no cell":
        return head[:96] + bytes(8)
    elif fault == "trailing bytes":
        return blob + bytes(4)
    return head + cells.tobytes()


def diagonal_feature(surface):
    """A twentieth of the surface's bbox diagonal: the march feature size
    for scans of shapes that have no skeleton to give a minimum radius."""
    return surface.bbox_diagonal() / 20.0


@pytest.fixture(scope="session")
def sphere_scan(sphere_surface):
    return scan_surface(sphere_surface, ScanConfig(), diagonal_feature(sphere_surface))


def make_cylinder_skeleton(radius=0.1, length=1.0):
    nodes = [
        SkeletonNode(0, np.array([0.0, 0.0, 0.0]), radius),
        SkeletonNode(1, np.array([0.0, 0.0, length]), radius),
    ]
    return SkeletonGraph(nodes=nodes, edges=[(0, 1)], root=0)


@pytest.fixture(scope="session")
def cylinder_skeleton():
    return make_cylinder_skeleton()


@pytest.fixture(scope="session")
def cylinder_surface(cylinder_skeleton):
    mesh = sweep_mesh(cylinder_skeleton, sides=64)
    return build_surface(mesh, FitConfig())


def make_plane_mesh(half=1.0, z=0.0):
    """Two-triangle quad in the z plane, normals +z."""
    v = np.array(
        [[-half, -half, z], [half, -half, z], [half, half, z], [-half, half, z]]
    )
    t = np.array([[0, 1, 2], [0, 2, 3]], dtype=np.int64)
    return TriangleMesh(v, t)


@pytest.fixture(scope="session")
def plane_surface():
    return build_surface(make_plane_mesh(), FitConfig())


def fibonacci_sphere(n, radius=1.0, seed_offset=0.5):
    """Deterministic near-uniform sphere samples (not via the scanner)."""
    k = np.arange(n, dtype=np.float64)
    z = 1.0 - 2.0 * (k + seed_offset) / n
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = k * np.pi * (3.0 - np.sqrt(5.0))
    pts = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
    return radius * pts
