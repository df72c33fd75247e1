"""End-to-end dataset generation.

One model runs skeleton -> mesh -> implicit fit -> clean scan ->
degradations, writing ground truth (.skel), mesh (.obj), clouds (.ply), and
a manifest.json that records the effective config, per-file digests, the
occlusion balls, timings, and warnings.

Every stage seed derives from the master seed and a fixed label, so adding
a degradation never changes earlier artifacts, reruns are byte-identical,
and batch workers cannot influence each other. All degradations start from
the clean cloud, never from another degradation's output.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from . import __version__
from .cloud import PointCloud, write_ply
from .degrade import (
    DENSITY_RESOLUTIONS,
    NoiseParams,
    OcclusionParams,
    UnevenParams,
    add_noise,
    default_region,
    density_variants,
    occlude,
    uneven_density,
)
from .errors import InvalidParameterError, PipelineStageError, SurfaceCacheError
from .implicit import (
    FitConfig,
    build_surface,
    cell_markers,
    load_surface,
    save_surface,
    surface_key,
)
from .mesh import save_obj, sweep_mesh
from .rng import derive_seed
from .scanner import ScanConfig, scan_surface
from .skeleton import TreeParams, generate_skeleton, save_skeleton

DEGRADATION_KINDS = ("noise", "occlusion", "uneven", "density")
WORKERS_ENV = "TREESCAN_WORKERS"


@dataclass
class PipelineConfig:
    tree: TreeParams = field(default_factory=TreeParams)
    fit: FitConfig = field(default_factory=FitConfig)
    scan: ScanConfig = field(default_factory=ScanConfig)
    degradations: list = field(default_factory=list)
    output_dir: str = "out"
    master_seed: int = 0
    name: str = "model"
    sides: int = 24
    cache_surface: bool = False
    debug_obj: bool = False

    def validate(self) -> None:
        self.tree.validate()
        self.fit.validate()
        self.scan.validate()
        if not self.name or any(c in self.name for c in "/\\"):
            raise InvalidParameterError("name must be a plain file stem")
        seen = set()
        for entry in self.degradations:
            kind = entry.get("kind")
            if kind not in DEGRADATION_KINDS:
                raise InvalidParameterError(f"unknown degradation kind: {kind!r}")
            if kind in seen:
                raise InvalidParameterError(f"duplicate degradation kind: {kind}")
            seen.add(kind)

    def to_dict(self) -> dict:
        return {
            "tree": asdict(self.tree),
            "fit": asdict(self.fit),
            "scan": asdict(self.scan),
            "degradations": [dict(d) for d in self.degradations],
            "output_dir": str(self.output_dir),
            "master_seed": self.master_seed,
            "name": self.name,
            "sides": self.sides,
            "cache_surface": self.cache_surface,
            "debug_obj": self.debug_obj,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        def pick(klass, key):
            sub = dict(data.get(key) or {})
            if key == "tree" and "branches_per_node_range" in sub and sub["branches_per_node_range"] is not None:
                sub["branches_per_node_range"] = tuple(sub["branches_per_node_range"])
            if key == "tree" and "branch_angle_range" in sub and sub["branch_angle_range"] is not None:
                sub["branch_angle_range"] = tuple(sub["branch_angle_range"])
            if key == "scan":
                sub.pop("seed", None)  # older configs carry a scan seed that nothing read
            return klass(**sub)

        return cls(
            tree=pick(TreeParams, "tree"),
            fit=pick(FitConfig, "fit"),
            scan=pick(ScanConfig, "scan"),
            degradations=[dict(d) for d in (data.get("degradations") or [])],
            output_dir=data.get("output_dir", "out"),
            master_seed=int(data.get("master_seed", 0)),
            name=data.get("name", "model"),
            sides=int(data.get("sides", 24)),
            cache_surface=bool(data.get("cache_surface", False)),
            debug_obj=bool(data.get("debug_obj", False)),
        )


@dataclass
class DatasetManifest:
    tool: dict
    config: dict
    seeds: dict
    files: list
    occlusion_balls: list
    timings: dict
    warnings: list

    def to_dict(self) -> dict:
        return {
            "tool": self.tool,
            "config": self.config,
            "seeds": self.seeds,
            "files": self.files,
            "occlusion_balls": self.occlusion_balls,
            "timings": self.timings,
            "warnings": self.warnings,
        }


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def load_config(path) -> PipelineConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return PipelineConfig.from_dict(json.load(fh))


def save_config(config: PipelineConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _degradation(config: PipelineConfig, kind: str) -> dict | None:
    for entry in config.degradations:
        if entry.get("kind") == kind:
            return entry
    return None


def run_pipeline(config: PipelineConfig) -> DatasetManifest:
    config.validate()
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    seeds = {
        "skeleton": derive_seed(config.master_seed, "skeleton"),
        "noise": derive_seed(config.master_seed, "noise"),
        "occlusion": derive_seed(config.master_seed, "occlusion"),
        "uneven": derive_seed(config.master_seed, "uneven"),
        "region": derive_seed(config.master_seed, "region"),
    }

    files: list[dict] = []
    written: list[Path] = []
    warnings: list[str] = []
    timings: dict[str, float] = {}
    occlusion_balls: list = []

    def emit(role: str, filename: str, count: int) -> Path:
        path = out / filename
        written.append(path)
        files.append({"role": role, "path": filename, "count": count, "sha256": None})
        return path

    def finish_digests() -> None:
        for entry in files:
            entry["sha256"] = _sha256(out / entry["path"])

    stage = "skeleton"
    try:
        t0 = time.perf_counter()
        tree_params = replace(config.tree, seed=seeds["skeleton"])
        skeleton = generate_skeleton(tree_params)
        path = emit("skeleton", f"{config.name}.skel", len(skeleton.nodes))
        save_skeleton(skeleton, path)
        timings["skeleton"] = time.perf_counter() - t0

        stage = "mesh"
        t0 = time.perf_counter()
        mesh = sweep_mesh(skeleton, sides=config.sides)
        mesh_path = emit("mesh", f"{config.name}.obj", len(mesh.vertices))
        save_obj(mesh, mesh_path)
        timings["mesh"] = time.perf_counter() - t0

        stage = "fit"
        t0 = time.perf_counter()
        cache_path = out / f"{config.name}.mpuf"
        surface = None
        if config.cache_surface:
            key = surface_key(mesh_path.read_bytes(), config.fit)
            if cache_path.exists():
                try:
                    surface = load_surface(cache_path, key)
                except SurfaceCacheError as exc:
                    warnings.append(f"surface cache refitted: {exc}")
        if surface is None:
            surface = build_surface(mesh, config.fit)
            if config.cache_surface:
                save_surface(surface, cache_path, key)
        if config.cache_surface:
            emit("surface-cache", cache_path.name, len(surface.centers))
        if config.debug_obj:
            path = emit("debug-cells", f"{config.name}_cells.obj", len(surface.centers))
            save_obj(cell_markers(surface), path)
        timings["fit"] = time.perf_counter() - t0

        stage = "scan"
        t0 = time.perf_counter()
        min_feature = skeleton.min_radius()
        clean = scan_surface(surface, config.scan, min_feature)
        if len(clean) == 0:
            warnings.append("clean scan produced no points; check standoff/frustum")
        path = emit("clean", f"{config.name}_clean.ply", len(clean))
        write_ply(clean, path)
        timings["scan"] = time.perf_counter() - t0

        entry = _degradation(config, "noise")
        if entry is not None:
            stage = "noise"
            t0 = time.perf_counter()
            params = NoiseParams(
                s=float(entry.get("s", 0.02)),
                d=int(entry.get("d", 10)),
                seed=seeds["noise"],
            )
            noisy = add_noise(clean, params)
            path = emit("noise", f"{config.name}_noise.ply", len(noisy))
            write_ply(noisy, path)
            timings["noise"] = time.perf_counter() - t0

        entry = _degradation(config, "occlusion")
        if entry is not None:
            stage = "occlusion"
            t0 = time.perf_counter()
            params = OcclusionParams(
                N=int(entry.get("N", 2)),
                lam=float(entry.get("lambda", entry.get("lam", 0.05))),
                seed=seeds["occlusion"],
            )
            occluded, balls = occlude(clean, skeleton.bbox(), params)
            occlusion_balls = [
                {"center": [float(c) for c in center], "radius": float(radius)}
                for center, radius in balls
            ]
            if len(occluded) == len(clean) and params.N > 0:
                warnings.append("occlusion removed no points")
            path = emit("occlusion", f"{config.name}_occlusion.ply", len(occluded))
            write_ply(occluded, path)
            timings["occlusion"] = time.perf_counter() - t0

        entry = _degradation(config, "uneven")
        if entry is not None:
            stage = "uneven"
            t0 = time.perf_counter()
            region = entry.get("region")
            if region is None:
                region = default_region(clean.bbox(), seeds["region"])
            params = UnevenParams(
                region=(tuple(region[0]), tuple(region[1])),
                r=float(entry.get("r", 0.05)),
                lambda1_range=tuple(entry["lambda1_range"]) if entry.get("lambda1_range") else None,
                lambda2_range=tuple(entry["lambda2_range"]) if entry.get("lambda2_range") else None,
                seed=seeds["uneven"],
            )
            uneven = uneven_density(clean, params)
            if len(uneven) == len(clean):
                warnings.append("uneven density inserted no points")
            path = emit("uneven", f"{config.name}_uneven.ply", len(uneven))
            write_ply(uneven, path)
            timings["uneven"] = time.perf_counter() - t0

        entry = _degradation(config, "density")
        if entry is not None:
            stage = "density"
            t0 = time.perf_counter()
            variants = density_variants(surface, config.scan, min_feature, clean=clean)
            for res, cloud in zip(DENSITY_RESOLUTIONS, variants):
                path = emit(f"density-{res}", f"{config.name}_density_{res:03d}.ply", len(cloud))
                write_ply(cloud, path)
            timings["density"] = time.perf_counter() - t0

        stage = "manifest"
        finish_digests()
        manifest = DatasetManifest(
            tool={"name": "treescan", "version": __version__},
            config=config.to_dict(),
            seeds=seeds,
            files=files,
            occlusion_balls=occlusion_balls,
            timings=timings,
            warnings=warnings,
        )
        manifest_path = out / "manifest.json"
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return manifest
    except Exception as exc:
        for path in written:
            try:
                path.unlink()
            except OSError:
                pass
        raise PipelineStageError(stage, exc) from exc


def _run_one(config_dict: dict) -> dict:
    """Worker entry: isolate one model, return a result record."""
    config = PipelineConfig.from_dict(config_dict)
    try:
        manifest = run_pipeline(config)
        return {
            "name": config.name,
            "output_dir": str(config.output_dir),
            "ok": True,
            "manifest": "manifest.json",
            "files": [{"path": f["path"], "sha256": f["sha256"]} for f in manifest.files],
        }
    except Exception as exc:
        return {
            "name": config.name,
            "output_dir": str(config.output_dir),
            "ok": False,
            "error": str(exc),
        }


def default_workers() -> int:
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return max(1, os.cpu_count() or 1)


def batch(configs: list[PipelineConfig], workers: int | None = None, index_path=None):
    """Run many models, isolating failures; returns (records, any_failed).

    Writes an index.json (default: alongside the first config's output dir
    parent) summarizing every model and its digests.
    """
    if workers is None:
        workers = default_workers()
    for config in configs:
        config.validate()
    payloads = [c.to_dict() for c in configs]
    if workers <= 1 or len(configs) <= 1:
        records = [_run_one(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_run_one, payloads))

    failed = [r for r in records if not r["ok"]]
    index = {
        "tool": {"name": "treescan", "version": __version__},
        "models": records,
        "failures": len(failed),
    }
    if index_path is None and configs:
        index_path = Path(configs[0].output_dir).parent / "index.json"
    if index_path is not None:
        Path(index_path).parent.mkdir(parents=True, exist_ok=True)
        with open(index_path, "w", encoding="utf-8") as fh:
            json.dump(index, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return records, bool(failed)
