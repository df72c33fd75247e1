#!/usr/bin/env python3
"""SHA-256 of every artifact `run_pipeline` writes, for a list of cases.

Each pipeline case runs the whole pipeline (all four degradations, surface cache on)
in a fresh directory and records {case: {file: sha256}}. A `.mpuf` cache
also gets a `<file> cells` entry: the digest of the cell arrays, epsilon
and bbox it loads to, which stays comparable when only the header changes.
`manifest.json` is hashed as its sorted-key JSON without `timings` and
without `config.output_dir` (the temporary directory), so file order,
roles, seeds, warnings, occlusion balls and the config echo are compared.
`manifest.json content` hashes the same JSON without `config`: a change
that alters only the config echo (a retired field, say) moves
`manifest.json` and keeps `manifest.json content`.
With --against, every difference from a saved set is listed and the exit
status is 1 if there is any.

    PYTHONPATH=src python scripts/digests.py --out before.json
    PYTHONPATH=src python scripts/digests.py --out after.json --against before.json
    PYTHONPATH=src python scripts/digests.py --case small:1:2:100:analytic --out one.json
    PYTHONPATH=src python scripts/digests.py --case cloud:1:100000 --out cloud.json
    PYTHONPATH=src python scripts/digests.py --case cloud:2:20000:0.3 --out copies.json
    PYTHONPATH=src python scripts/digests.py --case fit:small:1:epsilon=0.002 --out fit.json
    PYTHONPATH=src python scripts/digests.py --case degrade:small:1 --out degrade.json

A pipeline case is SIZE:MASTER_SEED:VIEWS:RESOLUTION:NORMAL_MODE[:STANDOFF],
with the default `ScanConfig` standoff when STANDOFF is left out; a close
standoff such as 1.1 puts the support spheres near the camera, where each
covers a large part of a view's image. A cloud
case, cloud:SEED:POINTS[:DUP], runs no pipeline: it samples POINTS points
by area on the 24-sided tube mesh of the medium tree grown from SEED, of
which a DUP share (0 when left out) are exact copies of the others,
shuffled in among them. It hashes the normals of `estimate_normals` and
`orient_normals` (k = 16), and the points, normals and diagnostics of
`uneven_density` over a cube holding 15 % of the points. Scanned clouds
are a few hundred points in ray order, where the order and thread split of
neighbour queries hardly act; a large sampled cloud exercises them, and its
copies put zero distances and ties in the orientation graph. A fit case, fit:SIZE:SEED:KEY=VALUE[,KEY=VALUE...],
runs `build_surface` alone on the mesh the pipeline makes for that size and
master seed, with the named `FitConfig` fields set (each VALUE a JSON
number, or null), and hashes the cell arrays, epsilon and bbox; its
diagnostics are kept as text. It reaches fit settings the default
config leaves out, such as a narrower weight (`epsilon`). A
degrade case, degrade:SIZE:MASTER_SEED, runs the pipeline once for the
clean cloud, skeleton and surface of that model (default `ScanConfig`,
no degradation).
Through `treescan.cli.main` it then runs `treescan skeleton`, `mesh` and
`fit` with the pipeline's settings (size class, derived skeleton seed,
range flags, sides; default fit), and `treescan scan` and the four
`treescan degrade` subcommands with their default flags on the pipeline's
files (`scan` and `density` with `--surface` and `--skeleton`, `occlude`
with `--balls-out`). It hashes every file they write: the
command line's own path through every stage. Without --case the default
list below runs (about three minutes on a 2-core host).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from treescan import PipelineConfig, PointCloud, ScanConfig, TreeParams, run_pipeline
from treescan.cli import main as cli_main
from treescan.degrade import UnevenParams, uneven_density
from treescan.implicit import build_surface, load_surface
from treescan.mesh import sweep_mesh
from treescan.pipeline import DEGRADATION_KINDS
from treescan.rng import derive_seed
from treescan.scanner import estimate_normals, orient_normals
from treescan.skeleton import generate_skeleton

DEFAULT_CASES = [
    *(f"small:{seed}:2:100:analytic" for seed in (1, 2, 3, 4)),
    "small:1:6:100:analytic",
    "small:3:6:100:analytic",
    "small:1:2:100:pca-mst",
    "small:2:3:150:analytic",
    "medium:1:4:60:analytic",
    "small:1:2:100:analytic:1.1",
    "cloud:1:100000",
    "cloud:2:20000:0.3",
    "fit:small:1:epsilon=0.002",
    "degrade:small:1",
]
CLOUD_K = 16
CLOUD_REGION_SHARE = 0.15
CLOUD_UNEVEN_NEIGHBOURS = 24  # expected points within the uneven radius


def case_config(case: str, out: Path) -> PipelineConfig:
    try:
        size, seed, views, resolution, normal_mode, *standoff = case.split(":")
        scan = ScanConfig(resolution=int(resolution), views=int(views), normal_mode=normal_mode)
        if standoff:
            (scan.standoff,) = map(float, standoff)  # ValueError for a seventh field
        master_seed = int(seed)
    except ValueError:
        raise SystemExit(f"bad case {case!r}, expected SIZE:SEED:VIEWS:RESOLUTION:NORMAL_MODE[:STANDOFF]")
    return PipelineConfig(
        tree=TreeParams.preset(size),
        scan=scan,
        degradations=[{"kind": kind} for kind in DEGRADATION_KINDS],
        output_dir=str(out),
        master_seed=master_seed,
        cache_surface=True,
    )


def array_digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def cloud_digests(case: str) -> dict[str, str]:
    try:
        _, seed, count, *share = case.split(":")
        seed, count = int(seed), int(count)
        (dup,) = map(float, share) if share else (0.0,)  # ValueError for a fifth field
        copies = int(dup * count)
        if not 0 <= copies < count:
            raise ValueError
    except ValueError:
        raise SystemExit(f"bad case {case!r}, expected cloud:SEED:POINTS[:DUP] with 0 <= DUP < 1")
    rng = np.random.default_rng(seed)
    mesh = sweep_mesh(generate_skeleton(TreeParams.preset("medium", seed=seed)), sides=24)
    v0, v1, v2 = mesh.corners()
    areas, normals = mesh.areas_normals()
    sampled = count - copies
    tri = rng.choice(len(areas), size=sampled, p=areas / areas.sum())
    u, v = rng.random(sampled), rng.random(sampled)
    fold = u + v > 1.0
    u[fold], v[fold] = 1.0 - u[fold], 1.0 - v[fold]
    points = v0[tri] + u[:, None] * (v1[tri] - v0[tri]) + v[:, None] * (v2[tri] - v0[tri])
    if copies:
        # exact copies of sampled points, shuffled in among them
        picks, order = rng.integers(sampled, size=copies), rng.permutation(count)
        tri = np.concatenate([tri, tri[picks]])[order]
        points = np.concatenate([points, points[picks]])[order]
    center = points[rng.integers(count)]
    half = np.sort(np.max(np.abs(points - center), axis=1))[int(CLOUD_REGION_SHARE * count) - 1]
    r = float(np.sqrt(CLOUD_UNEVEN_NEIGHBOURS * areas.sum() / (np.pi * count)))

    est = estimate_normals(PointCloud(points), CLOUD_K)
    oriented = orient_normals(est, CLOUD_K)
    diagnostics = {}
    uneven = uneven_density(
        PointCloud(points, normals[tri]),
        UnevenParams(region=(center - half, center + half), r=r, seed=seed),
        diagnostics,
    )
    return {
        "estimate_normals": array_digest(est.normals),
        "orient_normals": array_digest(oriented.normals),
        "uneven_density": array_digest(uneven.points, uneven.normals),
        "uneven_density diagnostics": json.dumps(diagnostics, sort_keys=True),
    }


def json_digest(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode("utf-8")).hexdigest()


def surface_digest(s) -> str:
    return array_digest(s.centers, s.radii, s.normals, s.offsets, [s.epsilon], s.bbox_lo, s.bbox_hi)


def fit_digests(case: str) -> dict[str, str]:
    try:
        _, size, seed, settings = case.split(":")
        fit = {key: json.loads(value) for key, value in (item.split("=") for item in settings.split(","))}
        cfg = PipelineConfig.from_dict({"fit": fit}).fit
        tree = TreeParams.preset(size, seed=derive_seed(int(seed), "skeleton"))
    except (ValueError, TypeError) as exc:
        raise SystemExit(f"bad case {case!r}, expected fit:SIZE:SEED:KEY=VALUE[,KEY=VALUE...] ({exc})")
    surface = build_surface(sweep_mesh(generate_skeleton(tree), sides=PipelineConfig().sides), cfg)
    return {"cells": surface_digest(surface), "diagnostics": json.dumps(surface.diagnostics, sort_keys=True)}


def degrade_digests(case: str) -> dict[str, str]:
    try:
        _, size, seed = case.split(":")
        config = PipelineConfig(tree=TreeParams.preset(size), master_seed=int(seed), cache_surface=True)
    except ValueError as exc:
        raise SystemExit(f"bad case {case!r}, expected degrade:SIZE:MASTER_SEED ({exc})")
    with tempfile.TemporaryDirectory() as tmp:
        model, out = Path(tmp) / config.name, Path(tmp) / "degrade"
        config.output_dir = tmp
        run_pipeline(config)
        out.mkdir()
        clean, skeleton = ["--in", f"{model}_clean.ply"], ["--skeleton", f"{model}.skel"]
        surface = ["--surface", f"{model}.mpuf"]
        tree, stage = config.tree, f"{out}/{config.name}"
        grow = ["--size-class", size, "--seed", str(derive_seed(config.master_seed, "skeleton"))]
        grow += ["--branch-angle-range", *map(str, tree.branch_angle_range)]
        grow += ["--branches-per-node-range", *map(str, tree.branches_per_node_range)]
        commands = [
            ["skeleton", *grow, "--out", f"{stage}.skel"],
            ["mesh", "--skeleton", f"{stage}.skel", "--sides", str(config.sides), "--out", f"{stage}.obj"],
            ["fit", "--mesh", f"{stage}.obj", "--out", f"{stage}.mpuf"],
            ["scan", *surface, *skeleton, "--out", f"{out}/scan.ply"],
            ["degrade", "noise", *clean, "--out", f"{out}/noise.ply"],
            ["degrade", "occlude", *clean, "--out", f"{out}/occlusion.ply", "--balls-out", f"{out}/balls.json"],
            ["degrade", "uneven", *clean, "--out", f"{out}/uneven.ply"],
            ["degrade", "density", *surface, *skeleton, "--out-prefix", f"{out}/model"],
        ]
        with contextlib.redirect_stdout(sys.stderr):
            for command in commands:
                if cli_main(command) != 0:
                    raise SystemExit(f"{case}: treescan {' '.join(command[:2])} failed")
        return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(out.iterdir())}


def case_digests(case: str) -> dict[str, str]:
    if case.startswith("cloud:"):
        return cloud_digests(case)
    if case.startswith("fit:"):
        return fit_digests(case)
    if case.startswith("degrade:"):
        return degrade_digests(case)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        manifest = run_pipeline(case_config(case, out))
        digests = {f["path"]: f["sha256"] for f in manifest.files}
        for name in [n for n in digests if n.endswith(".mpuf")]:
            digests[f"{name} cells"] = surface_digest(load_surface(out / name))
        recorded = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        del recorded["timings"], recorded["config"]["output_dir"]
        digests["manifest.json"] = json_digest(recorded)
        del recorded["config"]
        digests["manifest.json content"] = json_digest(recorded)
    return digests


def differences(old: dict, new: dict) -> list[str]:
    lines = []
    for case in sorted(set(old) | set(new)):
        if case not in old or case not in new:
            lines.append(f"{case}: only in {'new' if case in new else 'old'}")
            continue
        a, b = old[case], new[case]
        for name in sorted(set(a) | set(b)):
            if a.get(name) != b.get(name):
                lines.append(f"{case}: {name}: {a.get(name)} -> {b.get(name)}")
    return lines


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument(
        "--case",
        action="append",
        help=(
            "SIZE:SEED:VIEWS:RESOLUTION:NORMAL_MODE[:STANDOFF], cloud:SEED:POINTS[:DUP], fit:SIZE:SEED:KEY=VALUE[,...]"
            " or degrade:SIZE:SEED (repeatable)"
        ),
    )
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--against", help="saved JSON to compare with")
    args = p.parse_args()

    result = {}
    for case in args.case or DEFAULT_CASES:
        result[case] = case_digests(case)
        print(f"{case}: {len(result[case])} digests", flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if args.against is None:
        return 0
    with open(args.against, "r", encoding="utf-8") as fh:
        old = json.load(fh)
    diff = differences({c: old[c] for c in result if c in old}, result)
    for line in diff:
        print(line)
    print(f"{len(diff)} difference(s)")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
