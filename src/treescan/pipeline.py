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
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from numbers import Integral, Real
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from . import __version__
from .cloud import PointCloud, write_ply
from .degrade import (
    DENSITY_RESOLUTIONS,
    NoiseParams,
    OcclusionParams,
    UnevenParams,
    add_noise,
    density_variants,
    occlude,
    uneven_density,
)
from .errors import InvalidParameterError, PipelineStageError, SurfaceCacheError
from .geometry import query_on_one_thread, usable_cores
from .implicit import (
    FitConfig,
    ImplicitSurface,
    build_surface,
    load_surface,
    octree_settings,
    save_surface,
    surface_key,
)
from .mesh import save_obj, sweep_mesh
from .rng import derive_seed
from .scanner import ScanConfig, scan_surface
from .skeleton import TreeParams, generate_skeleton, save_skeleton


def field_types(cls) -> dict:
    """{field: (type, nullable)} of a config dataclass, `X | None` read as (X, True)."""
    hints = get_type_hints(cls)
    types = {}
    for f in fields(cls):
        hint = hints[f.name]
        inner = set(get_args(hint)) - {type(None)} if isinstance(hint, UnionType) else set()
        types[f.name] = (inner.pop(), True) if len(inner) == 1 else (hint, False)
    return types


def _coerced(name: str, declared: tuple, value):
    """The JSON value of field `name` in its declared (type, nullable), lists to tuples.

    A bool field takes only true/false, an int field only an integral
    number, a float field a finite number or numeric string, and null only
    a nullable field, so no value is silently changed; anything else raises.
    A tuple[...] field takes a list of its length, item by item.
    """
    typ, nullable = declared
    if value is None and nullable:
        return None
    if get_origin(typ) is tuple:
        items = get_args(typ)
        if isinstance(value, (list, tuple)) and len(items) == len(value):
            return tuple(_coerced(name, (t, False), v) for t, v in zip(items, value))
    elif typ in (int, float):
        number = isinstance(value, Real) and not isinstance(value, bool)
        try:
            if typ is float and (number or isinstance(value, str)) and math.isfinite(float(value)):
                return float(value)
            if typ is int and number and (isinstance(value, Integral) or float(value).is_integer()):
                return int(value)
        except (ValueError, OverflowError):
            pass
    elif isinstance(value, typ):
        return value
    raise InvalidParameterError(f"{name}: {value!r} is not a valid {getattr(typ, '__name__', typ)}")


@dataclass
class StageContext:
    """What the density rescans read besides their params, and what the runners report.

    The other runners read only their params and the clean cloud, so the
    pipeline and the CLI degrade a cloud by one rule.
    """

    surface: ImplicitSurface | None = None  # with scan and min_feature: the density rescans
    scan: ScanConfig | None = None
    min_feature: float | None = None
    warnings: list = field(default_factory=list)
    occlusion_balls: list = field(default_factory=list)


# Runners call the degradation and write functions through this module's
# globals at run time, so wrappers installed on those names see every call.
def _noise(params: NoiseParams, clean: PointCloud, ctx: StageContext):
    yield "noise", "noise", add_noise(clean, params)


def _occlusion(params: OcclusionParams, clean: PointCloud, ctx: StageContext):
    # the cloud's bbox sizes the balls; with no ball, an empty cloud passes unchanged
    occluded, balls = occlude(clean, clean.bbox() if params.N else None, params)
    ctx.occlusion_balls.extend({"center": list(map(float, c)), "radius": float(r)} for c, r in balls)
    if len(occluded) == len(clean) and params.N > 0:
        ctx.warnings.append("occlusion removed no points")
    yield "occlusion", "occlusion", occluded


def _uneven(params: UnevenParams, clean: PointCloud, ctx: StageContext):
    uneven = uneven_density(clean, params)
    if len(uneven) == len(clean):
        ctx.warnings.append("uneven density inserted no points")
    yield "uneven", "uneven", uneven


def _density(params: None, clean: PointCloud | None, ctx: StageContext):
    variants = density_variants(ctx.surface, ctx.scan, ctx.min_feature, clean=clean)
    for res, cloud in zip(DENSITY_RESOLUTIONS, variants):
        yield f"density-{res}", f"density_{res:03d}", cloud


# kind -> (params dataclass or None, runner(params, clean, ctx) yielding
# (role, file stem, cloud)); run order is table order
DEGRADATIONS = {
    "noise": (NoiseParams, _noise),
    "occlusion": (OcclusionParams, _occlusion),
    "uneven": (UnevenParams, _uneven),
    "density": (None, _density),
}
DEGRADATION_KINDS = tuple(DEGRADATIONS)


def _refuse_unknown(name: str, known, given: dict) -> None:
    """Raise, naming section `name`, if `given` holds a key not in `known`."""
    unknown = sorted(set(given) - set(known))
    if unknown:
        raise InvalidParameterError(f"unknown {name} key(s): {', '.join(unknown)}")


def _read_keys(name: str, types: dict, given: dict) -> dict:
    """The keys `given` for section `name`, coerced by their {key: (type, nullable)} `types`; an unknown key raises."""
    _refuse_unknown(name, types, given)
    return {k: _coerced(f"{name}.{k}", types[k], v) for k, v in given.items()}


def degradation_params(entry: dict, seed: int | None = None):
    """The validated params of one degradation entry, e.g. {"kind": "noise", "s": 0.01}.

    Keys are the params fields except seed; occlusion also takes "lambda"
    for lam. Missing keys keep the dataclass defaults, and so does seed when
    it is None. Unknown kinds and keys raise InvalidParameterError.
    """
    kind = entry.get("kind") if isinstance(entry, dict) else None
    if kind not in DEGRADATIONS:
        raise InvalidParameterError(f"unknown degradation kind: {kind!r}")
    klass = DEGRADATIONS[kind][0]
    types = {k: t for k, t in field_types(klass).items() if k != "seed"} if klass else {}
    given = {k: v for k, v in entry.items() if k != "kind"}
    if "lam" in types and "lambda" in given:
        if "lam" in given:
            raise InvalidParameterError(f"{kind}: give lam or its alias lambda, not both")
        given["lam"] = given.pop("lambda")
    values = _read_keys(kind, types, given)
    if klass is None:
        return None
    params = klass(**values) if seed is None else klass(**values, seed=seed)
    params.validate()
    return params


# Keys that older configs hold and this program no longer reads: section
# ("config" for the top level) -> key -> the one value still taken, the
# value the program always uses, or None where any value is dropped because
# the key never had an effect.
_RETIRED_KEYS = {
    "config": {"debug_obj": False},
    "fit": {"quadrature_order": 7, "min_triangles_for_fit": 1, **octree_settings()},
    "scan": {"seed": None, "march_step": 0.5, "hit_tolerance": 1e-6, "pca_k": 16},
}


def _without_retired(name: str, given: dict) -> dict:
    """`given` without the retired keys of section `name`; one at any value but its retired one raises."""
    retired = _RETIRED_KEYS.get(name, {})
    prefix = "" if name == "config" else f"{name}."
    for key, kept in retired.items():
        old = given.get(key, kept)
        if kept is not None and _coerced(prefix + key, (type(kept), False), old) != kept:
            raise InvalidParameterError(f"{prefix}{key} is retired: only {json.dumps(kept)} is taken, not {old!r}")
    return {k: v for k, v in given.items() if k not in retired}


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

    def validate(self) -> None:
        self.tree.validate()
        self.fit.validate()
        self.scan.validate()
        if self.tree.seed != 0:
            raise InvalidParameterError("tree.seed is not read: the skeleton seed derives from master_seed")
        if not 0 <= self.master_seed <= 0xFFFFFFFFFFFFFFFF:
            raise InvalidParameterError("master_seed must fit in 64 unsigned bits")
        if self.sides < 3:
            raise InvalidParameterError("sides must be >= 3")
        if not self.name or any(c in self.name for c in "/\\"):
            raise InvalidParameterError("name must be a plain file stem")
        seen = set()
        for entry in self.degradations:
            degradation_params(entry)
            if entry["kind"] in seen:
                raise InvalidParameterError(f"duplicate degradation kind: {entry['kind']}")
            seen.add(entry["kind"])

    def to_dict(self) -> dict:
        return {**asdict(self), "output_dir": str(self.output_dir)}

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        """A config from its JSON form; absent keys keep the defaults.

        A tree section starts from the preset of its size_class, and its
        other keys apply over that preset.  A retired key (`_RETIRED_KEYS`)
        is dropped when it holds the value it is retired at, and refused
        with any other; an unknown key, at the top or in a section, is
        refused.
        """
        default = cls()
        values = {}
        data = _without_retired("config", data)
        _refuse_unknown("config", field_types(cls), data)
        for name, declared in field_types(cls).items():
            if data.get(name) is None:
                continue  # absent or null: the default
            base, value = getattr(default, name), data[name]
            if not is_dataclass(base):
                values[name] = _coerced(name, declared, value)
                continue
            if not isinstance(value, dict):
                raise InvalidParameterError(f"{name}: {value!r} is not a JSON object")
            section = _without_retired(name, value)
            if name == "tree" and "size_class" in section:
                base = TreeParams.preset(_coerced("tree.size_class", (str, False), section["size_class"]))
            values[name] = replace(base, **_read_keys(name, field_types(type(base)), section))
        return cls(**values)


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
        return asdict(self)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def config_data(path) -> dict:
    """The JSON object of config file `path`; anything else raises InvalidParameterError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidParameterError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise InvalidParameterError(f"{path}: a config file holds one JSON object")
    return data


def load_config(path) -> PipelineConfig:
    """The validated config of file `path`; a refusal names the file."""
    data = config_data(path)
    try:
        config = PipelineConfig.from_dict(data)
        config.validate()
    except InvalidParameterError as exc:
        raise InvalidParameterError(f"{path}: {exc}") from None
    return config


def write_json(data, path) -> None:
    """Write `data` to `path` as indented sorted-key JSON and a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_config(config: PipelineConfig, path) -> None:
    write_json(config.to_dict(), path)


EMPTY_SCAN_WARNING = "clean scan produced no points; check standoff/frustum"


def _delete_listed(out: Path, files: list) -> None:
    """Delete the plain file names in `out` that manifest entries `files` list,
    but a surface cache: `load_surface` checks it whole.  A path with a
    directory part and a malformed entry are skipped."""
    for entry in files:
        try:
            name = entry["path"]
            if entry["role"] != "surface-cache" and name not in ("", "..") and Path(name).name == name:
                (out / name).unlink(missing_ok=True)
        except (OSError, LookupError, TypeError):
            pass


def _clear_earlier_run(out: Path) -> None:
    """Delete the files an earlier run's manifest lists, then the manifest.

    The manifest would vouch for files this run may replace or delete, and
    a run that fails part way must leave none of the earlier run's files
    behind (`_delete_listed`).  An unreadable manifest is only deleted.
    """
    manifest_path = out / "manifest.json"
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            files = list(json.load(fh)["files"])
    except (OSError, ValueError, LookupError, TypeError):
        files = []
    _delete_listed(out, files)
    manifest_path.unlink(missing_ok=True)


def run_pipeline(config: PipelineConfig) -> DatasetManifest:
    config.validate()
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _clear_earlier_run(out)

    # the skeleton's and each seeded degradation's; the density rescans draw nothing
    labels = ("skeleton", *(kind for kind, (klass, _) in DEGRADATIONS.items() if klass))
    seeds = {label: derive_seed(config.master_seed, label) for label in labels}

    files: list[dict] = []
    warnings: list[str] = []
    timings: dict[str, float] = {}

    def emit(role: str, filename: str, count: int) -> Path:
        files.append({"role": role, "path": filename, "count": count, "sha256": None})
        return out / filename

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
        path = emit("mesh", f"{config.name}.obj", len(mesh.vertices))
        save_obj(mesh, path)
        timings["mesh"] = time.perf_counter() - t0

        stage = "fit"
        t0 = time.perf_counter()
        cache_path = out / f"{config.name}.mpuf"
        surface = None
        if config.cache_surface:
            key = surface_key(mesh, config.fit)
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
        timings["fit"] = time.perf_counter() - t0

        stage = "scan"
        t0 = time.perf_counter()
        clean = scan_surface(surface, config.scan, skeleton.min_radius())
        if len(clean) == 0:
            warnings.append(EMPTY_SCAN_WARNING)
        path = emit("clean", f"{config.name}_clean.ply", len(clean))
        write_ply(clean, path)
        timings["scan"] = time.perf_counter() - t0

        ctx = StageContext(surface, config.scan, skeleton.min_radius(), warnings)
        entries = {entry["kind"]: entry for entry in config.degradations}
        for kind, (_, run) in DEGRADATIONS.items():
            if kind not in entries:
                continue
            stage = kind
            t0 = time.perf_counter()
            params = degradation_params(entries[kind], seeds.get(kind))
            for role, stem, cloud in run(params, clean, ctx):
                path = emit(role, f"{config.name}_{stem}.ply", len(cloud))
                write_ply(cloud, path)
            timings[kind] = time.perf_counter() - t0

        stage = "manifest"
        finish_digests()
        manifest = DatasetManifest(
            tool={"name": "treescan", "version": __version__},
            config=config.to_dict(),
            seeds=seeds,
            files=files,
            occlusion_balls=ctx.occlusion_balls,
            timings=timings,
            warnings=warnings,
        )
        write_json(manifest.to_dict(), out / "manifest.json")
        return manifest
    except Exception as exc:
        _delete_listed(out, files)
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


def _pool(workers: int) -> ProcessPoolExecutor:
    """Model processes whose neighbour queries each run on one thread."""
    return ProcessPoolExecutor(max_workers=workers, initializer=query_on_one_thread)


def batch(configs: list[PipelineConfig], workers: int | None = None, index_path=None):
    """Run many models, isolating failures; returns (records, any_failed).

    Configs that share an output directory are refused before any model
    runs: a directory holds one model's manifest.

    Writes an index.json (default: alongside the first config's output dir
    parent) summarizing every model and its digests.
    """
    if workers is None:
        workers = usable_cores()
    dirs = set()
    for config in configs:
        config.validate()
        out = Path(config.output_dir).resolve()
        if out in dirs:
            raise InvalidParameterError(f"two configs write to {config.output_dir}")
        dirs.add(out)
    payloads = [c.to_dict() for c in configs]
    if workers <= 1 or len(configs) <= 1:
        records = [_run_one(p) for p in payloads]
    else:
        with _pool(min(workers, len(configs))) as pool:
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
        write_json(index, index_path)
    return records, bool(failed)
