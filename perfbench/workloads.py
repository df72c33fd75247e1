"""The benchmark's workloads: seeded inputs, the timed body, the checks.

A workload builds its inputs from the benchmark seed in `build` (set-up,
timed separately), runs the program's public functions on them in `run`
(the timed part, one round), and checks what a round produced in `check`
(untimed, one operation per artifact). `digests` covers everything `check`
reads, so two rounds with equal digests get the same verdicts.

small-dataset keeps the model fixed at master seed 1, the ROADMAP
baseline: the two faults it carries (ghost sheets and the uneven no-op)
must fail the same operations in every run, and other small master seeds
hit a scan-time cliff (seed 3 takes 240 s). The benchmark seed there draws
the noise and occlusion parameters. dense-cloud takes its whole input,
tree included, from the seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import checks
from treescan import cloud, degrade, metrics, pipeline, scanner
from treescan.mesh import sweep_mesh
from treescan.scanner import ScanConfig
from treescan.skeleton import SkeletonGraph, SkeletonNode, TreeParams, generate_skeleton

PCA_K = 16  # the scanner's default neighbourhood for PCA normals
EVAL_SPACING = 0.02  # skeleton sampling step for evaluate
NODE_JITTER = 0.01  # sigma of the node jitter that stands in for an extracted skeleton
UNEVEN_NEIGHBOURS = 24  # expected points within the uneven radius

F1 = "F1: ghost sheets run off the tube past the branch tips"
F2 = "F2: the default uneven region holds no clean point"


def _digest_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class PipelineWorkload:
    """`run_pipeline` on one fixed model, degradation parameters from the seed."""

    size_class: str
    master_seed: int
    scan: dict = field(default_factory=dict)
    degradations: tuple = ()
    faults: dict = field(default_factory=dict)  # operation -> program fault that fails it

    def build(self, seed: int) -> pipeline.PipelineConfig:
        rng = np.random.default_rng(seed)
        params = {
            "noise": {"s": float(rng.uniform(0.005, 0.02)), "d": int(rng.integers(5, 16))},
            "occlusion": {"N": int(rng.integers(1, 4)), "lambda": float(rng.uniform(0.03, 0.07))},
            "uneven": {"r": 0.05},
            "density": {},
        }
        return pipeline.PipelineConfig(
            tree=TreeParams.preset(self.size_class),
            scan=ScanConfig(**self.scan),
            degradations=[{"kind": k, **params[k]} for k in self.degradations],
            master_seed=self.master_seed,
            name="model",
        )

    def run(self, config, out: Path):
        return pipeline.run_pipeline(replace(config, output_dir=str(out)))

    def check(self, config, manifest, out: Path) -> list[tuple[str, bool, str]]:
        files = {f["role"]: out / f["path"] for f in manifest.files}
        counts = {f["role"]: f["count"] for f in manifest.files}
        kinds = {d["kind"]: d for d in config.degradations}
        skel = checks.read_skel(files["skeleton"])
        vertices, triangles = checks.read_obj(files["mesh"])
        tol = checks.tube_tolerance(skel, float(np.linalg.norm(vertices.max(0) - vertices.min(0))))
        clean_pts, clean_nrm = checks.read_ply(files["clean"])

        ops = [
            ("skeleton", *checks.skeleton_ok(skel, counts["skeleton"])),
            ("mesh", *checks.mesh_ok(vertices, triangles, skel)),
            ("clean", *checks.on_tube(clean_pts, clean_nrm, skel, tol)),
        ]
        if "noise" in kinds:
            p = kinds["noise"]
            noisy = checks.read_ply(files["noise"])
            ops.append(("noise", *checks.noise_ok(clean_pts, clean_nrm, *noisy, p["d"], p["s"])))
        if "occlusion" in kinds:
            balls = [(b["center"], b["radius"]) for b in manifest.occlusion_balls]
            kept = checks.read_ply(files["occlusion"])[0]
            ops.append(("occlusion", *checks.occlusion_ok(clean_pts, kept, balls)))
        if "uneven" in kinds:
            thick = checks.read_ply(files["uneven"])[0]
            ops.append(("uneven", *checks.uneven_ok(clean_pts, thick, kinds["uneven"]["r"])))
        if "density" in kinds:
            clouds = {res: checks.read_ply(files[f"density-{res}"]) for res in (50, 100, 150)}
            rising, counted = checks.density_counts_ok({res: len(c[0]) for res, c in clouds.items()})
            for res, (pts, nrm) in clouds.items():
                ok, detail = checks.on_tube(pts, nrm, skel, tol)
                ops.append((f"density-{res}", ok and rising, f"{detail}; {counted}"))
        ops.append(("manifest", *checks.manifest_ok(out / "manifest.json", out)))
        return ops

    def digests(self, manifest, out: Path) -> dict:
        """Our SHA-256 of every file, and of the manifest fields `check` reads."""
        listed = json.dumps([manifest.files, manifest.occlusion_balls], sort_keys=True)
        own = {f["path"]: checks.sha256(out / f["path"]) for f in manifest.files}
        return {**own, "manifest": hashlib.sha256(listed.encode("utf-8")).hexdigest()}


@dataclass
class DenseInputs:
    skeleton: SkeletonGraph
    jittered: SkeletonGraph
    cloud: cloud.PointCloud  # positions with the sampled triangles' normals
    bare: cloud.PointCloud  # the same positions without normals
    region: tuple
    noise: degrade.NoiseParams
    occlusion: degrade.OcclusionParams
    uneven: degrade.UnevenParams


@dataclass(frozen=True)
class DenseWorkload:
    """Degradation, normal estimation, PLY i/o and scoring on a sampled cloud."""

    size_class: str = "medium"
    points: int = 100_000
    region_points: int = 15_000  # the explicit uneven box holds this many
    faults: dict = field(default_factory=dict)

    def build(self, seed: int) -> DenseInputs:
        rng = np.random.default_rng(seed)
        skel = generate_skeleton(TreeParams.preset(self.size_class, seed=seed))
        mesh = sweep_mesh(skel, sides=checks.SIDES)
        v0, v1, v2 = mesh.corners()
        areas, normals = mesh.areas_normals()
        tri = rng.choice(len(areas), size=self.points, p=areas / areas.sum())
        u, v = rng.random(self.points), rng.random(self.points)
        fold = u + v > 1.0
        u[fold], v[fold] = 1.0 - u[fold], 1.0 - v[fold]
        pts = v0[tri] + u[:, None] * (v1[tri] - v0[tri]) + v[:, None] * (v2[tri] - v0[tri])
        # same neighbourhood size, hence the same work per point, on every tree
        uneven_r = float(np.sqrt(UNEVEN_NEIGHBOURS * areas.sum() / (np.pi * self.points)))
        # a cube around a seeded point, just wide enough for region_points
        center = pts[rng.integers(self.points)]
        half = float(np.sort(np.max(np.abs(pts - center), axis=1))[self.region_points - 1])
        region = (tuple(center - half), tuple(center + half))
        jittered = SkeletonGraph(
            [SkeletonNode(n.id, n.position + rng.normal(0.0, NODE_JITTER, 3), n.radius) for n in skel.nodes],
            list(skel.edges),
            skel.root,
        )
        return DenseInputs(
            skeleton=skel,
            jittered=jittered,
            cloud=cloud.PointCloud(pts, normals[tri]),
            bare=cloud.PointCloud(pts),
            region=region,
            noise=degrade.NoiseParams(s=float(rng.uniform(0.005, 0.02)), d=int(rng.integers(5, 16)), seed=seed),
            occlusion=degrade.OcclusionParams(N=int(rng.integers(1, 4)), lam=float(rng.uniform(0.03, 0.07)), seed=seed),
            uneven=degrade.UnevenParams(region=region, r=uneven_r, seed=seed),
        )

    def run(self, inp: DenseInputs, out: Path) -> dict:
        noisy = degrade.add_noise(inp.cloud, inp.noise)
        occluded, balls = degrade.occlude(inp.cloud, inp.skeleton.bbox(), inp.occlusion)
        uneven = degrade.uneven_density(inp.cloud, inp.uneven)
        est = scanner.estimate_normals(inp.bare, PCA_K)
        oriented = scanner.orient_normals(est, PCA_K)
        path = out / "oriented.ply"
        cloud.write_ply(oriented, path)
        back = cloud.read_ply(path)
        report = metrics.evaluate(inp.skeleton, inp.jittered, EVAL_SPACING)
        self_report = metrics.evaluate(inp.skeleton, inp.skeleton, EVAL_SPACING)
        return {
            "noise": noisy,
            "occlusion": (occluded, balls),
            "uneven": uneven,
            "normals": (est, oriented),
            "ply": (path, back),
            "evaluate": (report, self_report),
        }

    def check(self, inp: DenseInputs, res: dict, out: Path) -> list[tuple[str, bool, str]]:
        pts, nrm = inp.cloud.points, inp.cloud.normals
        truth = checks.skeleton_from_nodes(inp.skeleton.nodes, inp.skeleton.edges, inp.skeleton.root)
        other = checks.skeleton_from_nodes(inp.jittered.nodes, inp.jittered.edges, inp.jittered.root)
        noisy = res["noise"]
        occluded, balls = res["occlusion"]
        est, oriented = res["normals"]
        path, back = res["ply"]

        pts32, nrm32 = checks.read_ply(path)
        want_p = oriented.points.astype("<f4").astype(np.float64)
        want_n = oriented.normals.astype("<f4").astype(np.float64)
        pairs = ((pts32, want_p), (nrm32, want_n), (back.points, want_p), (back.normals, want_n))
        read_back = all(np.array_equal(a, b) for a, b in pairs)
        return [
            ("noise", *checks.noise_ok(pts, nrm, noisy.points, noisy.normals, inp.noise.d, inp.noise.s)),
            ("occlusion", *checks.occlusion_ok(pts, occluded.points, balls)),
            ("uneven", *checks.uneven_ok(pts, res["uneven"].points, inp.uneven.r, inp.region)),
            ("normals", *checks.normals_ok(pts, est, oriented, nrm, PCA_K)),
            ("ply", read_back, f"{len(pts32)} float32 rows read back as written"),
            ("evaluate", *checks.evaluate_ok(*res["evaluate"], truth, other, EVAL_SPACING)),
        ]

    def digests(self, res: dict, out: Path) -> dict:
        occluded, balls = res["occlusion"]
        est, oriented = res["normals"]
        report, self_report = res["evaluate"]
        return {
            "noise": _digest_arrays(res["noise"].points, res["noise"].normals),
            "occlusion": _digest_arrays(occluded.points, *[np.append(c, r) for c, r in balls]),
            "uneven": _digest_arrays(res["uneven"].points),
            "normals": _digest_arrays(est.normals, oriented.normals),
            "oriented.ply": checks.sha256(res["ply"][0]),
            "evaluate": hashlib.sha256(
                json.dumps([report, self_report], sort_keys=True).encode("utf-8")
            ).hexdigest(),
        }


WORKLOADS = {
    # two views instead of the default six: a round of about 9 s, so a run holds several
    "small-dataset": PipelineWorkload(
        "small",
        master_seed=1,
        scan={"views": 2},
        degradations=("noise", "occlusion", "uneven", "density"),
        faults={"clean": F1, "density-50": F1, "density-100": F1, "density-150": F1, "uneven": F2},
    ),
    "dense-cloud": DenseWorkload(),
}
