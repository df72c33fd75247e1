"""End-to-end dataset generation: file layout, manifests, batching, failure paths."""

import copy
import hashlib
import inspect
import json
import re
from dataclasses import replace

import numpy as np
import pytest

from treescan import degrade, geometry, pipeline, scanner
from treescan.cloud import read_ply
from treescan.errors import InsufficientTrianglesError, InvalidParameterError, PipelineStageError
from treescan.implicit import FitConfig, load_surface
from treescan.mesh import load_obj
from treescan.pipeline import (
    PipelineConfig,
    batch,
    load_config,
    run_pipeline,
    save_config,
)
from treescan.rng import derive_seed
from treescan.scanner import ScanConfig
from treescan.skeleton import TreeParams, generate_skeleton, load_skeleton

from .conftest import CACHE_FAULTS, damaged_cache

ALL_DEGRADATIONS = [
    {"kind": "noise", "s": 0.01, "d": 10},
    {"kind": "occlusion", "N": 2, "lambda": 0.05},
    {"kind": "uneven", "r": 0.05},
    {"kind": "density"},
]


def tiny_config(out, name="tiny", degradations=(), **overrides) -> PipelineConfig:
    """A single-trunk model small enough for unit tests to run it many times."""
    kwargs = dict(
        tree=TreeParams(branch_levels=0, nodes_per_curve=4),
        fit=FitConfig(),
        scan=ScanConfig(resolution=40, views=2),
        degradations=[dict(d) for d in degradations],
        output_dir=str(out),
        name=name,
        sides=10,
    )
    kwargs.update(overrides)
    return PipelineConfig(**kwargs)


def role_digests(manifest) -> dict:
    return {f["role"]: f["sha256"] for f in manifest.files}


def sha256_file(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# -- single runs -------------------------------------------------------------------


def test_minimal_run_writes_exactly_four_files(tmp_path):
    out = tmp_path / "m"
    manifest = run_pipeline(tiny_config(out, name="m"))
    on_disk = sorted(p.name for p in out.iterdir())
    assert on_disk == ["m.obj", "m.skel", "m_clean.ply", "manifest.json"]
    assert [f["role"] for f in manifest.files] == ["skeleton", "mesh", "clean"]
    for entry in manifest.files:
        assert entry["sha256"] == sha256_file(out / entry["path"])


def test_manifest_counts_and_seeds(tmp_path):
    out = tmp_path / "m"
    cfg = tiny_config(out, name="m", master_seed=31)
    manifest = run_pipeline(cfg)
    by_role = {f["role"]: f for f in manifest.files}
    skeleton = load_skeleton(out / "m.skel")
    mesh = load_obj(out / "m.obj")
    clean = read_ply(out / "m_clean.ply")
    assert by_role["skeleton"]["count"] == len(skeleton.nodes)
    assert by_role["mesh"]["count"] == len(mesh.vertices)
    assert by_role["clean"]["count"] == len(clean)
    assert list(manifest.seeds) == ["skeleton", "noise", "occlusion", "uneven"]
    for label in manifest.seeds:
        assert manifest.seeds[label] == derive_seed(31, label)
    assert "scan" not in manifest.seeds  # the scanner draws no random numbers
    disk = json.loads((out / "manifest.json").read_text())
    assert disk["seeds"] == manifest.seeds
    # JSON renders the tree's range tuples as lists
    assert disk["config"] == json.loads(json.dumps(cfg.to_dict()))


def test_all_degradations_write_ten_files(tmp_path, monkeypatch):
    # the stages call these through the pipeline module, where tracing wraps them
    names = ("add_noise", "occlude", "uneven_density", "density_variants", "write_ply")
    calls = {name: counting(monkeypatch, pipeline, name) for name in names}
    out = tmp_path / "full"
    manifest = run_pipeline(tiny_config(out, name="full", degradations=ALL_DEGRADATIONS))
    assert {name: len(c) for name, c in calls.items()} == {
        "add_noise": 1,
        "occlude": 1,
        "uneven_density": 1,
        "density_variants": 1,
        "write_ply": 7,
    }
    assert len(list(out.iterdir())) == 10
    roles = [f["role"] for f in manifest.files]
    assert roles == [
        "skeleton",
        "mesh",
        "clean",
        "noise",
        "occlusion",
        "uneven",
        "density-50",
        "density-100",
        "density-150",
    ]
    counts = {f["role"]: f["count"] for f in manifest.files}
    assert counts["noise"] > counts["clean"]
    assert counts["density-50"] < counts["density-100"] < counts["density-150"]
    assert len(manifest.occlusion_balls) == 2


def test_rerun_same_directory_matches_modulo_timings(tmp_path):
    out = tmp_path / "twice"
    first = run_pipeline(tiny_config(out, name="twice", degradations=ALL_DEGRADATIONS)).to_dict()
    second = run_pipeline(tiny_config(out, name="twice", degradations=ALL_DEGRADATIONS)).to_dict()
    first.pop("timings")
    second.pop("timings")
    assert first == second


def test_fresh_directories_give_identical_digests(tmp_path):
    a = run_pipeline(tiny_config(tmp_path / "a", degradations=ALL_DEGRADATIONS))
    b = run_pipeline(tiny_config(tmp_path / "b", degradations=ALL_DEGRADATIONS))
    assert role_digests(a) == role_digests(b)


def test_master_seed_changes_the_outputs(tmp_path):
    a = run_pipeline(tiny_config(tmp_path / "a", master_seed=0))
    b = run_pipeline(tiny_config(tmp_path / "b", master_seed=1))
    da, db = role_digests(a), role_digests(b)
    assert da["skeleton"] != db["skeleton"]
    assert da["clean"] != db["clean"]


def test_cache_artifacts(tmp_path):
    out = tmp_path / "dbg"
    cfg = tiny_config(out, name="dbg", cache_surface=True)
    manifest = run_pipeline(cfg)
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "dbg.mpuf",
        "dbg.obj",
        "dbg.skel",
        "dbg_clean.ply",
        "manifest.json",
    ]
    by_role = {f["role"]: f for f in manifest.files}
    surface = load_surface(out / "dbg.mpuf")
    assert by_role["surface-cache"]["count"] == len(surface.centers)


def counting(monkeypatch, module, name) -> list:
    """The calls `module` makes to its global `name`: each one's {parameter: argument}, defaults included."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        bound = inspect.signature(real).bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(bound.arguments)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_each_stage_gets_its_whole_config_section(tmp_path, monkeypatch):
    # no field of a section is dropped on its way to the stage, and the tree
    # carries the seed derived from the master seed
    names = ("generate_skeleton", "sweep_mesh", "build_surface", "scan_surface")
    calls = {name: counting(monkeypatch, pipeline, name) for name in names}
    cfg = tiny_config(
        tmp_path / "m",
        tree=TreeParams(branch_levels=0, nodes_per_curve=5, bend=0.3, gravity=0.5),
        fit=FitConfig(epsilon=0.004),
        scan=ScanConfig(resolution=30, views=3, standoff=2.0, normal_mode="pca-mst"),
        sides=8,
        master_seed=4,
    )
    run_pipeline(cfg)
    assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(names, 1)
    tree = replace(cfg.tree, seed=derive_seed(4, "skeleton"))
    assert calls["generate_skeleton"][0]["params"] == tree
    assert calls["sweep_mesh"][0]["sides"] == 8
    assert calls["build_surface"][0]["cfg"] == cfg.fit
    scan = calls["scan_surface"][0]
    assert scan["cfg"] == cfg.scan
    assert scan["min_feature"] == generate_skeleton(tree).min_radius()


def test_surface_cache_refits_when_stale(tmp_path, monkeypatch):
    out = tmp_path / "cached"
    run_pipeline(tiny_config(out, name="model", cache_surface=True, master_seed=1))
    fresh = run_pipeline(tiny_config(tmp_path / "fresh", name="model", master_seed=2))
    fits = counting(monkeypatch, pipeline, "build_surface")
    # another master seed makes another mesh, so the cache is stale
    second = run_pipeline(tiny_config(out, name="model", cache_surface=True, master_seed=2))
    assert len(fits) == 1
    assert any("surface cache refitted" in w for w in second.warnings)
    assert (out / "model_clean.ply").read_bytes() == (tmp_path / "fresh" / "model_clean.ply").read_bytes()
    assert role_digests(second)["clean"] == role_digests(fresh)["clean"]
    # the refit overwrote the cache: an unchanged rerun loads it
    again = run_pipeline(tiny_config(out, name="model", cache_surface=True, master_seed=2))
    assert len(fits) == 1
    assert not again.warnings
    assert role_digests(again) == role_digests(second)
    # a changed fit config, a truncated cache and an old version all refit
    run_pipeline(tiny_config(out, name="model", cache_surface=True, master_seed=2, fit=FitConfig(epsilon=0.004)))
    assert len(fits) == 2
    cache = out / "model.mpuf"
    cache.write_bytes(cache.read_bytes()[:100])
    run_pipeline(tiny_config(out, name="model", cache_surface=True, master_seed=2))
    assert len(fits) == 3
    blob = cache.read_bytes()
    cache.write_bytes(blob[:4] + (1).to_bytes(4, "little") + blob[8:])
    third = run_pipeline(tiny_config(out, name="model", cache_surface=True, master_seed=2))
    assert len(fits) == 4
    assert any("version 1" in w for w in third.warnings)
    assert role_digests(third) == role_digests(second)


def test_surface_cache_of_version_3_is_refitted(tmp_path, monkeypatch):
    # version 3 summed the moments in another order: its cache holds this
    # mesh's key but other cell bits, so a rerun refits rather than adopt it
    out = tmp_path / "cached"
    first = run_pipeline(tiny_config(out, name="model", cache_surface=True))
    cache = out / "model.mpuf"
    blob = cache.read_bytes()
    cache.write_bytes(blob[:4] + (3).to_bytes(4, "little") + blob[8:])
    fits = counting(monkeypatch, pipeline, "build_surface")
    again = run_pipeline(tiny_config(out, name="model", cache_surface=True))
    assert len(fits) == 1
    assert len(again.warnings) == 1
    assert again.warnings[0].startswith("surface cache refitted: ") and "version 3" in again.warnings[0]
    assert cache.read_bytes() == blob
    assert role_digests(again) == role_digests(first)


@pytest.mark.parametrize("resolution, views", [(100, 4), (60, 6)])
def test_density_reuses_the_clean_scan(tmp_path, monkeypatch, resolution, views):
    # two views at each marched resolution: the clean scan, the march at 150
    # that density 50 is picked out of, and at 60 the scan at 100
    calls = counting(monkeypatch, scanner, "scan_view")
    out = tmp_path / "d"
    scan = ScanConfig(resolution=resolution, views=2)
    manifest = run_pipeline(tiny_config(out, name="model", degradations=ALL_DEGRADATIONS, scan=scan))
    assert len(calls) == views
    assert sorted(c["cfg"].resolution for c in calls) == sorted(2 * [*{resolution, 100, 150}])
    clean = (out / "model_clean.ply").read_bytes()
    assert ((out / "model_density_100.ply").read_bytes() == clean) == (resolution == 100)
    counts = {f["role"]: f["count"] for f in manifest.files}
    assert counts["density-50"] < counts["density-100"] < counts["density-150"]


def test_occlusion_lambda_key_alias(tmp_path):
    spelled = run_pipeline(
        tiny_config(tmp_path / "a", degradations=[{"kind": "occlusion", "lambda": 0.08}])
    )
    short = run_pipeline(
        tiny_config(tmp_path / "b", degradations=[{"kind": "occlusion", "lam": 0.08}])
    )
    assert role_digests(spelled)["occlusion"] == role_digests(short)["occlusion"]
    with pytest.raises(InvalidParameterError, match="give lam or its alias lambda, not both"):
        pipeline.degradation_params({"kind": "occlusion", "lam": 0.1, "lambda": 0.2})


def test_uneven_far_region_warns_and_keeps_cloud(tmp_path):
    out = tmp_path / "far"
    region = [[100.0, 100.0, 100.0], [101.0, 101.0, 101.0]]
    entry = {"kind": "uneven", "r": 0.05, "region": region}
    manifest = run_pipeline(tiny_config(out, name="far", degradations=[entry]))
    counts = {f["role"]: f["count"] for f in manifest.files}
    assert counts["uneven"] == counts["clean"]
    assert any("uneven" in w for w in manifest.warnings)


@pytest.fixture(scope="module")
def small_models(tmp_path_factory):
    """{master seed: (manifest, output dir)} of the small preset's model at
    seeds 1-3, scanned from 2 views, with every degradation at its defaults."""
    runs = {}
    for seed in (1, 2, 3):
        out = tmp_path_factory.mktemp(f"small{seed}")
        config = PipelineConfig(
            scan=ScanConfig(views=2),
            degradations=[{"kind": kind} for kind in pipeline.DEGRADATION_KINDS],
            output_dir=str(out),
            master_seed=seed,
        )
        runs[seed] = run_pipeline(config), out
    return runs


def test_every_requested_degradation_changes_the_clean_cloud(small_models):
    for seed, (manifest, _) in small_models.items():
        digests = role_digests(manifest)
        clean = digests.pop("clean")
        # the rescan at the scan's own resolution is the clean cloud itself
        del digests["skeleton"], digests["mesh"], digests[f"density-{manifest.config['scan']['resolution']}"]
        assert sorted(digests) == ["density-150", "density-50", "noise", "occlusion", "uneven"], seed
        assert all(digest != clean for digest in digests.values()), seed
        assert manifest.warnings == [], seed


def test_degradations_read_only_the_clean_cloud(small_models):
    for seed, (manifest, out) in small_models.items():
        clean = read_ply(out / "model_clean.ply")
        lo, hi = clean.bbox()
        assert len(manifest.occlusion_balls) == degrade.OcclusionParams().N
        for ball in manifest.occlusion_balls:
            assert ball["radius"] == pytest.approx(degrade.OcclusionParams().lam * np.linalg.norm(hi - lo), rel=1e-6)
        uneven = read_ply(out / "model_uneven.ply")
        assert np.array_equal(uneven.points[: len(clean)], clean.points)
        inserts = uneven.points[len(clean) :]
        region_lo, region_hi = degrade.default_region(clean, manifest.seeds["uneven"])
        donors = clean.points[np.all((clean.points >= region_lo) & (clean.points <= region_hi), axis=1)]
        r = degrade.UnevenParams().r
        # two offsets of at most r/2 along orthonormal principal directions
        reach = np.min(np.linalg.norm(inserts[:, None, :] - donors[None, :, :], axis=2), axis=1)
        assert len(inserts) > 0 and np.all(reach <= r / np.sqrt(2.0) + 1e-6), seed


def test_stage_error_reports_stage_and_cleans_up(tmp_path, failing_fit):
    out = tmp_path / "boom"
    cfg = tiny_config(out, name="boom", fit=failing_fit)
    with pytest.raises(PipelineStageError) as err:
        run_pipeline(cfg)
    assert err.value.stage == "fit"
    assert isinstance(err.value.cause, InsufficientTrianglesError)
    leftovers = [p for p in out.iterdir()] if out.exists() else []
    assert leftovers == []


def test_failed_rerun_leaves_no_manifest_of_the_earlier_run(tmp_path, failing_fit):
    out = tmp_path / "rerun"
    run_pipeline(tiny_config(out, name="m"))
    with pytest.raises(PipelineStageError):
        run_pipeline(tiny_config(out, name="m", fit=failing_fit))
    # the rerun first deleted the earlier run's files and manifest, then the
    # .skel and .obj it wrote itself when its fit failed
    assert sorted(p.name for p in out.iterdir()) == []


def test_failed_scan_keeps_a_surface_cache_it_only_read(tmp_path, monkeypatch):
    out = tmp_path / "cached"
    run_pipeline(tiny_config(out, name="m", cache_surface=True))
    cache = (out / "m.mpuf").read_bytes()
    fits = counting(monkeypatch, pipeline, "build_surface")

    def failing_scan(*args, **kwargs):
        raise InvalidParameterError("scan failed")

    monkeypatch.setattr(pipeline, "scan_surface", failing_scan)
    with pytest.raises(PipelineStageError) as err:
        run_pipeline(tiny_config(out, name="m", cache_surface=True))
    assert err.value.stage == "scan"
    assert fits == []
    assert sorted(p.name for p in out.iterdir()) == ["m.mpuf"]
    assert (out / "m.mpuf").read_bytes() == cache


def test_failed_scan_keeps_the_surface_cache_it_wrote(tmp_path, monkeypatch):
    out = tmp_path / "cached"

    def failing_scan(*args, **kwargs):
        raise InvalidParameterError("scan failed")

    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "scan_surface", failing_scan)
        with pytest.raises(PipelineStageError) as err:
            run_pipeline(tiny_config(out, name="m", cache_surface=True))
    assert err.value.stage == "scan"
    assert sorted(p.name for p in out.iterdir()) == ["m.mpuf"]
    # the cache holds this run's fit: a rerun reads it and fits nothing
    fits = counting(monkeypatch, pipeline, "build_surface")
    assert not run_pipeline(tiny_config(out, name="m", cache_surface=True)).warnings
    assert fits == []


@pytest.mark.parametrize("fault", CACHE_FAULTS)
def test_surface_cache_with_a_bad_value_or_length_is_refitted(tmp_path, monkeypatch, fault):
    out = tmp_path / "cached"
    first = run_pipeline(tiny_config(out, name="m", cache_surface=True))
    cache = out / "m.mpuf"
    cache.write_bytes(damaged_cache(cache.read_bytes(), fault))
    fits = counting(monkeypatch, pipeline, "build_surface")
    again = run_pipeline(tiny_config(out, name="m", cache_surface=True))
    assert len(fits) == 1
    assert len(again.warnings) == 1
    assert again.warnings[0].startswith("surface cache refitted: ") and CACHE_FAULTS[fault] in again.warnings[0]
    assert role_digests(again) == role_digests(first)


def test_rerun_deletes_only_plain_names_of_the_earlier_manifest(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (tmp_path / "outside.txt").write_text("keep")
    (out / "sub").mkdir()
    (out / "sub" / "inner.txt").write_text("keep")
    (out / "stale.ply").write_text("stale")
    listed = ["stale.ply", "../outside.txt", "sub/inner.txt", "sub", "..", ""]
    files = [{"role": "clean", "path": name} for name in listed]
    (out / "manifest.json").write_text(json.dumps({"files": files}))
    pipeline._clear_earlier_run(out)
    assert sorted(p.name for p in out.iterdir()) == ["sub"]
    assert (out / "sub" / "inner.txt").read_text() == "keep"
    assert (tmp_path / "outside.txt").read_text() == "keep"


@pytest.mark.parametrize("text", ["{not json", "[]", '{"files": 3}', '{"files": [{"path": "x.ply"}]}'])
def test_rerun_only_deletes_an_unreadable_manifest(tmp_path, text):
    out = tmp_path / "out"
    out.mkdir()
    (out / "x.ply").write_text("kept")
    (out / "manifest.json").write_text(text)
    pipeline._clear_earlier_run(out)
    assert sorted(p.name for p in out.iterdir()) == ["x.ply"]


# -- config round trips ----------------------------------------------------------------


def test_config_save_load_round_trip(tmp_path):
    uneven = {
        "kind": "uneven",
        "r": 0.05,
        "region": [[-1.0, -1.0, 0.0], [1.0, 1.0, 0.5]],
        "lambda1_range": [-0.01, 0.02],
        "lambda2_range": [0.0, 0.01],
    }
    degradations = [*ALL_DEGRADATIONS[:2], uneven, ALL_DEGRADATIONS[3]]
    cfg = tiny_config(
        tmp_path / "x",
        degradations=degradations,
        master_seed=9,
        fit=FitConfig(epsilon=0.003),
        cache_surface=True,
    )
    path = tmp_path / "config.json"
    save_config(cfg, path)
    back = load_config(path)
    assert back == cfg
    assert back.to_dict() == cfg.to_dict()
    assert isinstance(back.tree.branches_per_node_range, tuple)
    assert isinstance(back.tree.branch_angle_range, tuple)
    params = pipeline.degradation_params(back.degradations[2])
    assert params.region == ((-1.0, -1.0, 0.0), (1.0, 1.0, 0.5))
    assert params.lambda1_range == (-0.01, 0.02)
    # the manifest's config echo is a loadable config
    run_pipeline(cfg)
    echo = json.loads((tmp_path / "x" / "manifest.json").read_text())["config"]
    assert PipelineConfig.from_dict(echo) == cfg


def test_degradation_params_coerce_alias_and_seed():
    noise = pipeline.degradation_params({"kind": "noise", "d": 10.0, "s": "0.01"}, seed=5)
    assert noise == degrade.NoiseParams(s=0.01, d=10, seed=5)
    assert type(noise.d) is int  # a hand-written 10.0 still indexes
    assert pipeline.degradation_params({"kind": "occlusion", "lambda": 0.08}) == degrade.OcclusionParams(lam=0.08)
    assert pipeline.degradation_params({"kind": "uneven"}) == degrade.UnevenParams()
    assert pipeline.degradation_params({"kind": "density"}) is None


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("fit", "quadrature_order", 7),
        ("fit", "min_triangles_for_fit", 1),
        ("fit", "min_triangles_for_fit", 1.0),
        ("scan", "seed", 1234),
        ("scan", "seed", None),
        ("scan", "march_step", 0.5),
        ("scan", "hit_tolerance", 1e-6),
        ("scan", "pca_k", 16),
        ("scan", "pca_k", 16.0),
        ("fit", "max_depth", 10),
        ("fit", "max_triangles_per_cell", 32),
        ("fit", "sphere_radius_scale", 1.0),
        (None, "debug_obj", False),
    ],
)
def test_config_load_drops_retired_keys(tmp_path, section, key, value):
    # older configs and manifests hold keys the program no longer reads, at
    # the values it always uses (a scan seed never had an effect): they load
    # unchanged.  section None is the top level
    cfg = tiny_config(tmp_path / "x")
    legacy = cfg.to_dict()
    (legacy[section] if section else legacy)[key] = value
    path = tmp_path / "legacy.json"
    path.write_text(json.dumps(legacy))
    back = load_config(path)
    assert back == cfg
    assert key not in (back.to_dict()[section] if section else back.to_dict())


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("fit", "quadrature_order", 3),
        ("fit", "min_triangles_for_fit", 2),
        ("fit", "quadrature_order", 7.5),
        ("fit", "min_triangles_for_fit", None),
        ("scan", "march_step", 0.25),
        ("scan", "hit_tolerance", 1e-5),
        ("scan", "pca_k", 8),
        ("fit", "max_depth", 9),
        ("fit", "max_triangles_per_cell", 16),
        ("fit", "sphere_radius_scale", 0.8),
        (None, "debug_obj", True),
    ],
)
def test_config_load_refuses_retired_keys_at_other_values(tmp_path, section, key, value):
    # a config that asked for another value would silently change meaning
    legacy = tiny_config(tmp_path / "x").to_dict()
    (legacy[section] if section else legacy)[key] = value
    path = tmp_path / "legacy.json"
    path.write_text(json.dumps(legacy))
    name = f"{section}.{key}" if section else key
    with pytest.raises(InvalidParameterError, match=rf"legacy\.json: {re.escape(name)}"):
        load_config(path)


@pytest.mark.parametrize(
    "data",
    [
        {"sides": 23.9},
        {"sides": "24"},
        {"cache_surface": "false"},
        {"debug_obj": 1},
        {"master_seed": True},
        {"tree": {"branch_levels": 1.5}},
        {"fit": {"max_depth": "10"}},
        {"fit": {"epsilon": True}},
        {"name": 5},
        {"tree": {"size_class": "huge"}},
        {"tree": {"branch_angle_range": [0.4]}},
        {"scan": {"march_stride": 2.0}},
        {"tree": 5},
        {"fit": [["max_depth", 8]]},
        {"degradations": [{"kind": "uneven", "region": [[0, 0, "a"], [1, 1, 1]]}]},
        {"degradations": [{"kind": "uneven", "region": [[0, 0, False], [1, 1, 1]]}]},
        # a float field takes only finite values
        {"degradations": [{"kind": "noise", "s": "nan"}]},
        {"degradations": [{"kind": "noise", "s": float("nan")}]},
        {"tree": {"trunk_length": "nan"}},
        {"tree": {"gravity": "nan"}},
        {"tree": {"branch_angle_range": ["nan", 1.0]}},
        {"degradations": [{"kind": "uneven", "r": "inf"}]},
        {"degradations": [{"kind": "occlusion", "lambda": float("inf")}]},
        {"scan": {"standoff": "-inf"}},
        {"fit": {"epsilon": "1e999"}},
        {"fit": {"epsilon": 10**400}},
    ],
)
def test_config_load_rejects_inexact_values(data):
    # degradation entries are read when the config is validated
    with pytest.raises(InvalidParameterError):
        PipelineConfig.from_dict(data).validate()


def test_config_load_takes_numeric_strings_and_null_for_optional_floats():
    assert PipelineConfig.from_dict({"fit": {"epsilon": "0.01"}}).fit.epsilon == 0.01
    assert PipelineConfig.from_dict({"fit": {"epsilon": None}}).fit.epsilon is None


def test_config_tree_section_starts_from_its_size_class_preset():
    tree = PipelineConfig.from_dict({"tree": {"size_class": "medium", "bend": 0.3}}).tree
    assert tree == TreeParams.preset("medium", bend=0.3)
    with pytest.raises(InvalidParameterError, match="size class"):
        TreeParams(size_class="huge").validate()


def test_config_load_refuses_unknown_top_level_keys(tmp_path):
    # misspelt keys would otherwise run as master seed 0 with no degradation
    data = {"master-seed": 5, "degradation": [{"kind": "noise"}]}
    with pytest.raises(InvalidParameterError, match=r"unknown config key\(s\): degradation, master-seed"):
        PipelineConfig.from_dict(data)
    path = tmp_path / "typo.json"
    path.write_text(json.dumps({**tiny_config(tmp_path / "x").to_dict(), "sied": 1}))
    with pytest.raises(InvalidParameterError, match=r"typo\.json: unknown config key\(s\): sied"):
        load_config(path)


def test_config_load_takes_integral_floats():
    cfg = PipelineConfig.from_dict({"sides": 23.0, "tree": {"branch_levels": 2.0}, "cache_surface": False})
    assert (cfg.sides, cfg.tree.branch_levels, cfg.cache_surface) == (23, 2, False)
    assert type(cfg.sides) is int and type(cfg.tree.branch_levels) is int


@pytest.mark.parametrize(
    "mutate",
    [
        lambda c: setattr(c, "name", "a/b"),
        lambda c: setattr(c, "name", ""),
        lambda c: c.degradations.append({"kind": "blur"}),
        lambda c: c.degradations.extend([{"kind": "noise"}, {"kind": "noise"}]),
        lambda c: c.degradations.append({"kind": "noise", "sigma": 0.5}),
        lambda c: c.degradations.append({"kind": "noise", "d": 0}),
        lambda c: c.degradations.append({"kind": "noise", "d": 10.7}),
        lambda c: c.degradations.append({"kind": "occlusion", "lambda": 0}),
        lambda c: c.degradations.append({"kind": "uneven", "lambda": 0.01}),
        lambda c: c.degradations.append({"kind": "density", "resolution": 50}),
        lambda c: c.degradations.append({"kind": "uneven", "lambda1_range": [0.01]}),
        lambda c: c.degradations.append({"kind": "uneven", "region": [[0, 0, 0], [1, 1]]}),
        lambda c: c.degradations.append("noise"),
        lambda c: setattr(c, "master_seed", -1),
        lambda c: setattr(c, "master_seed", 1 << 64),
        lambda c: setattr(c, "sides", 2),
        lambda c: setattr(c, "tree", replace(c.tree, seed=5)),
        lambda c: c.degradations.append({"kind": "occlusion", "lam": 0.1, "lambda": 0.2}),
    ],
)
def test_config_validation_rejects(tmp_path, mutate):
    cfg = tiny_config(tmp_path / "x")
    mutate(cfg)
    with pytest.raises(InvalidParameterError):
        cfg.validate()


# -- batches -----------------------------------------------------------------------


def batch_configs(root, n=3):
    return [tiny_config(root / f"t{i}", name=f"t{i}", master_seed=i) for i in range(n)]


def test_batch_worker_count_does_not_change_results(tmp_path):
    serial_records, serial_failed = batch(batch_configs(tmp_path / "serial"), workers=1)
    pool_records, pool_failed = batch(batch_configs(tmp_path / "pool"), workers=3)
    assert not serial_failed and not pool_failed
    for a, b in zip(serial_records, pool_records):
        assert a["ok"] and b["ok"]
        assert a["name"] == b["name"]
        assert {f["path"]: f["sha256"] for f in a["files"]} == {
            f["path"]: f["sha256"] for f in b["files"]
        }


def test_batch_pool_workers_query_on_one_thread():
    with pipeline._pool(2) as pool:
        assert pool.submit(geometry.query_threads).result(timeout=60) == 1
    assert geometry.query_threads() == geometry.usable_cores()


def test_batch_starts_no_more_processes_than_models(tmp_path, monkeypatch):
    sizes = []
    pool = pipeline._pool
    monkeypatch.setattr(pipeline, "_pool", lambda workers: sizes.append(workers) or pool(workers))
    _, failed = batch(batch_configs(tmp_path, n=2), workers=8)
    assert not failed
    assert sizes == [2]


def test_batch_writes_index(tmp_path):
    configs = batch_configs(tmp_path / "set")
    records, failed = batch(configs, workers=1)
    index_path = tmp_path / "set" / "index.json"
    assert index_path.exists()
    index = json.loads(index_path.read_text())
    assert index["failures"] == 0
    assert [m["name"] for m in index["models"]] == ["t0", "t1", "t2"]
    assert not failed


def test_batch_refuses_a_shared_output_dir(tmp_path):
    # one directory holds one manifest: two models there would leave a
    # manifest that describes only the last, so none runs
    configs = batch_configs(tmp_path / "set", n=2)
    configs[1].output_dir = str(tmp_path / "set" / "." / "t0")
    with pytest.raises(InvalidParameterError, match="two configs write to"):
        batch(configs, workers=1)
    assert not (tmp_path / "set").exists()


def test_batch_isolates_a_failing_model(tmp_path, failing_fit):
    configs = batch_configs(tmp_path / "mix")
    configs[1].fit = failing_fit
    records, failed = batch(configs, workers=1, index_path=tmp_path / "mix" / "index.json")
    assert failed
    assert [r["ok"] for r in records] == [True, False, True]
    assert "stage 'fit' failed" in records[1]["error"]
    for r in (records[0], records[2]):
        out = tmp_path / "mix" / r["name"]
        assert (out / "manifest.json").exists()
    bad_dir = tmp_path / "mix" / "t1"
    assert not bad_dir.exists() or list(bad_dir.iterdir()) == []
    index = json.loads((tmp_path / "mix" / "index.json").read_text())
    assert index["failures"] == 1
