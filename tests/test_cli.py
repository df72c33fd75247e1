"""Command line coverage: every subcommand, flag precedence, batch exit codes."""

import argparse
import itertools
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import treescan
from treescan.cli import _params_from_flags, _pipeline_config, build_parser, main
from treescan.cloud import PointCloud, read_ply, write_ply
from treescan.degrade import (
    NoiseParams,
    OcclusionParams,
    UnevenParams,
    add_noise,
    default_region,
    density_variants,
    occlude,
    uneven_density,
)
from treescan.implicit import FitConfig, build_surface, load_surface, save_surface, surface_key
from treescan.mesh import load_obj, sweep_mesh
from treescan.pipeline import (
    DEGRADATIONS,
    EMPTY_SCAN_WARNING,
    PipelineConfig,
    degradation_params,
    field_types,
    run_pipeline,
    save_config,
)
from treescan.rng import derive_seed
from treescan.scanner import ScanConfig
from treescan.skeleton import TreeParams, generate_skeleton, load_skeleton, save_skeleton

from .conftest import CACHE_FAULTS, damaged_cache, make_cylinder_skeleton


def tiny_pipeline_config(out, name, **overrides) -> PipelineConfig:
    kwargs = dict(
        tree=TreeParams(branch_levels=0, nodes_per_curve=4),
        fit=FitConfig(),
        scan=ScanConfig(resolution=40, views=2),
        output_dir=str(out),
        name=name,
        sides=10,
    )
    kwargs.update(overrides)
    return PipelineConfig(**kwargs)


def test_stage_subcommands_chain(tmp_path, capsys):
    skel = tmp_path / "t.skel"
    obj = tmp_path / "t.obj"
    surf = tmp_path / "t.mpuf"
    clean = tmp_path / "t_clean.ply"

    assert (
        main(
            [
                "skeleton",
                "--branch-levels",
                "0",
                "--nodes-per-curve",
                "4",
                "--seed",
                "3",
                "--out",
                str(skel),
            ]
        )
        == 0
    )
    skeleton = load_skeleton(skel)
    assert len(skeleton.nodes) == 4

    assert main(["mesh", "--skeleton", str(skel), "--sides", "10", "--out", str(obj)]) == 0
    mesh = load_obj(obj)
    assert len(mesh.triangles) > 0

    assert main(["fit", "--mesh", str(obj), "--out", str(surf)]) == 0
    surface = load_surface(surf, surface_key(mesh, FitConfig()))
    assert len(surface.centers) > 0

    # two spiral views would look straight down the trunk axis and see
    # little but the caps; the third adds an equatorial look
    assert (
        main(
            [
                "scan",
                "--surface",
                str(surf),
                "--skeleton",
                str(skel),
                "--resolution",
                "40",
                "--views",
                "3",
                "--out",
                str(clean),
            ]
        )
        == 0
    )
    cloud = read_ply(clean)
    assert len(cloud) > 50
    assert cloud.has_normals()

    noisy_path = tmp_path / "t_noise.ply"
    assert (
        main(
            [
                "degrade",
                "noise",
                "--in",
                str(clean),
                "--s",
                "0.01",
                "--d",
                "10",
                "--out",
                str(noisy_path),
            ]
        )
        == 0
    )
    noisy = read_ply(noisy_path)
    assert len(noisy) == len(cloud) + int(np.ceil(len(cloud) / 10))

    occluded_path = tmp_path / "t_occ.ply"
    balls_path = tmp_path / "t_balls.json"
    assert (
        main(
            [
                "degrade",
                "occlude",
                "--in",
                str(clean),
                "--n",
                "2",
                "--lambda",
                "0.05",
                "--out",
                str(occluded_path),
                "--balls-out",
                str(balls_path),
            ]
        )
        == 0
    )
    want, want_balls = occlude(cloud, cloud.bbox(), OcclusionParams(N=2, lam=0.05))
    assert len(want) < len(cloud)
    write_ply(want, tmp_path / "t_occ_ref.ply")
    assert occluded_path.read_bytes() == (tmp_path / "t_occ_ref.ply").read_bytes()
    balls = json.loads(balls_path.read_text())
    assert balls == [{"center": [float(x) for x in c], "radius": float(r)} for c, r in want_balls]

    lo, hi = cloud.bbox()
    uneven_path = tmp_path / "t_uneven.ply"
    region = [str(v) for v in (*(lo - 0.1), *(hi + 0.1))]
    assert (
        main(
            [
                "degrade",
                "uneven",
                "--in",
                str(clean),
                "--r",
                "0.05",
                "--region",
                *region,
                "--out",
                str(uneven_path),
            ]
        )
        == 0
    )
    assert len(read_ply(uneven_path)) > len(cloud)

    prefix = str(tmp_path / "t")
    assert (
        main(
            [
                "degrade",
                "density",
                "--surface",
                str(surf),
                "--skeleton",
                str(skel),
                "--views",
                "2",
                "--out-prefix",
                prefix,
            ]
        )
        == 0
    )
    counts = [len(read_ply(f"{prefix}_density_{res:03d}.ply")) for res in (50, 100, 150)]
    assert counts[0] < counts[1] < counts[2]
    variants = density_variants(surface, ScanConfig(views=2), skeleton.min_radius())
    for res, want in zip((50, 100, 150), variants):
        write_ply(want, tmp_path / "ref.ply")
        assert Path(f"{prefix}_density_{res:03d}.ply").read_bytes() == (tmp_path / "ref.ply").read_bytes()

    capsys.readouterr()  # discard progress lines
    assert main(["eval", "--ground-truth", str(skel), "--extracted", str(skel)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["hd"] == 0.0

    report_path = tmp_path / "report.json"
    assert (
        main(
            [
                "eval",
                "--ground-truth",
                str(skel),
                "--extracted",
                str(skel),
                "--spacing",
                "0.1",
                "--out",
                str(report_path),
            ]
        )
        == 0
    )
    saved = json.loads(report_path.read_text())
    assert saved["hd"] == 0.0
    assert saved["mode"].startswith("edge-sampled")


def test_pipeline_subcommand_with_degradations(tmp_path):
    out = tmp_path / "p"
    rc = main(
        [
            "pipeline",
            "--output-dir",
            str(out),
            "--name",
            "p",
            "--branch-levels",
            "0",
            "--nodes-per-curve",
            "4",
            "--sides",
            "10",
            "--resolution",
            "40",
            "--views",
            "2",
            "--cache-surface",
            "--degradations",
            "noise",
            "occlusion",
        ]
    )
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    roles = [f["role"] for f in manifest["files"]]
    assert roles == ["skeleton", "mesh", "surface-cache", "clean", "noise", "occlusion"]
    assert (out / "p.mpuf").exists()


def test_pipeline_flag_beats_config(tmp_path):
    cfg = tiny_pipeline_config(tmp_path / "a", "m", master_seed=1)
    cfg_path = tmp_path / "config.json"
    save_config(cfg, cfg_path)
    rc = main(
        [
            "pipeline",
            "--config",
            str(cfg_path),
            "--output-dir",
            str(tmp_path / "b"),
            "--master-seed",
            "7",
        ]
    )
    assert rc == 0
    manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert manifest["seeds"]["skeleton"] == derive_seed(7, "skeleton")
    assert manifest["config"]["master_seed"] == 7


def test_skeleton_size_class_preset(tmp_path):
    out, ref = tmp_path / "s.skel", tmp_path / "ref.skel"
    assert main(["skeleton", "--size-class", "small", "--seed", "1", "--out", str(out)]) == 0
    direct = generate_skeleton(TreeParams.preset("small", seed=1))
    assert len(load_skeleton(out).nodes) == len(direct.nodes)

    ranges = ["--branch-angle-range", "0.2", "0.5", "--branches-per-node-range", "2", "3"]
    assert main(["skeleton", "--size-class", "small", "--seed", "1", *ranges, "--out", str(out)]) == 0
    params = TreeParams.preset("small", seed=1, branch_angle_range=(0.2, 0.5), branches_per_node_range=(2, 3))
    save_skeleton(generate_skeleton(params), ref)
    assert out.read_bytes() == ref.read_bytes()
    assert len(load_skeleton(out).nodes) > len(direct.nodes)


def test_batch_subcommand(tmp_path, capsys):
    paths = []
    for i in range(2):
        cfg = tiny_pipeline_config(tmp_path / "set" / f"m{i}", f"m{i}", master_seed=i)
        path = tmp_path / f"cfg{i}.json"
        save_config(cfg, path)
        paths.append(str(path))
    index = tmp_path / "set" / "index.json"
    rc = main(["batch", "--configs", *paths, "--workers", "1", "--index", str(index)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count(": ok") == 2
    assert json.loads(index.read_text())["failures"] == 0


def test_batch_failure_exit_code(tmp_path, capsys, failing_fit):
    good = tiny_pipeline_config(tmp_path / "set" / "good", "good")
    bad = tiny_pipeline_config(tmp_path / "set" / "bad", "bad", fit=failing_fit)
    paths = []
    for cfg, stem in ((good, "good"), (bad, "bad")):
        path = tmp_path / f"{stem}.json"
        save_config(cfg, path)
        paths.append(str(path))
    rc = main(["batch", "--configs", *paths, "--workers", "1"])
    assert rc == 1
    assert "FAILED" in capsys.readouterr().out


def test_unknown_degradation_choice_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(
            [
                "pipeline",
                "--output-dir",
                str(tmp_path / "x"),
                "--degradations",
                "blur",
            ]
        )


_SCAN = "--resolution --views --standoff --normal-mode"
_TREE = (
    "--size-class --trunk-length --trunk-radius --branch-levels --branches-per-node-range --branch-angle-range"
    " --radius-decay --length-decay --gravity --bend --nodes-per-curve"
)
CLI_SURFACE = {
    "skeleton": f"{_TREE} --seed --out",
    "mesh": "--skeleton --sides --out",
    "fit": "--mesh --epsilon --out",
    "scan": f"--surface {_SCAN} --skeleton --min-feature --out",
    "degrade": "",
    "degrade noise": "--in --s --d --seed --out",
    "degrade occlude": "--in --n --lambda --seed --out --balls-out",
    "degrade uneven": "--in --region --r --lambda1-range --lambda2-range --seed --out",
    "degrade density": "--surface --views --standoff --normal-mode --skeleton --min-feature --out-prefix",
    "eval": "--ground-truth --extracted --spacing --out",
    "pipeline": (
        f"--config {_TREE} --epsilon {_SCAN} --output-dir --master-seed --name --sides"
        " --cache-surface --degradations"
    ),
    "batch": "--configs --workers --index",
}


def subcommand_parsers(parser, command="") -> dict:
    """{subcommand path: its parser}, the top-level parser at ""."""
    found = {command: parser}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found.update(subcommand_parsers(sub, f"{command} {name}".strip()))
    return found


def option_strings(parser):
    """{subcommand path: its option strings in declaration order, --help left out}."""
    return {
        command: " ".join(o for a in sub._actions for o in a.option_strings if o not in ("-h", "--help"))
        for command, sub in subcommand_parsers(parser).items()
        if command
    }


def test_cli_surface_is_unchanged():
    assert option_strings(build_parser()) == CLI_SURFACE


def test_degrade_flags_default_to_the_params_dataclasses(tmp_path):
    rng = np.random.default_rng(5)
    normals = rng.normal(size=(2000, 3))
    cloud = PointCloud(rng.uniform(-0.1, 0.1, size=(2000, 3)), normals / np.linalg.norm(normals, axis=1)[:, None])
    src = tmp_path / "in.ply"
    write_ply(cloud, src)
    cloud = read_ply(src)
    expected = {
        "noise": add_noise(cloud, NoiseParams()),
        "occlude": occlude(cloud, cloud.bbox(), OcclusionParams())[0],
        "uneven": uneven_density(cloud, replace(UnevenParams(), region=default_region(cloud, 0))),
    }
    for kind, want in expected.items():
        assert len(want) != len(cloud)
        out, ref = tmp_path / f"{kind}.ply", tmp_path / f"{kind}_ref.ply"
        assert main(["degrade", kind, "--in", str(src), "--out", str(out)]) == 0
        write_ply(want, ref)
        assert out.read_bytes() == ref.read_bytes()


def test_degrade_prints_runner_warnings(tmp_path, capsys):
    rng = np.random.default_rng(7)
    normals = rng.normal(size=(500, 3))
    cloud = PointCloud(rng.uniform(-0.1, 0.1, size=(500, 3)), normals / np.linalg.norm(normals, axis=1)[:, None])
    src, out, ref = tmp_path / "in.ply", tmp_path / "out.ply", tmp_path / "ref.ply"
    write_ply(cloud, src)
    write_ply(read_ply(src), ref)
    region = ["5", "5", "5", "6", "6", "6"]  # holds no point
    assert main(["degrade", "uneven", "--in", str(src), "--region", *region, "--out", str(out)]) == 0
    assert "warning: uneven density inserted no points" in capsys.readouterr().err
    assert out.read_bytes() == ref.read_bytes()


def test_scan_that_hits_nothing_warns_as_the_pipeline_does(tmp_path, capsys):
    # a thin tube seen end-on through a 2 x 2 ray grid: every ray passes by it
    surface = build_surface(sweep_mesh(make_cylinder_skeleton(0.1, 1.0), sides=24), FitConfig())
    save_surface(surface, tmp_path / "tube.mpuf")
    out = tmp_path / "scan.ply"
    argv = ["scan", "--surface", str(tmp_path / "tube.mpuf"), "--min-feature", "0.1", "--resolution", "2"]
    assert main([*argv, "--views", "2", "--out", str(out)]) == 0
    assert capsys.readouterr().err == f"warning: {EMPTY_SCAN_WARNING}\n"
    assert len(read_ply(out)) == 0


MISSING_FEATURE = "give --skeleton or --min-feature: they size the march step"
TREE_SEED_UNREAD = "tree.seed is not read: the skeleton seed derives from master_seed"


@pytest.mark.parametrize("command", [["scan", "--out", "x.ply"], ["degrade", "density", "--out-prefix", "x"]])
def test_scans_refuse_without_a_feature_size(tmp_path, command, capsys):
    # the surface file does not exist: the refusal comes before it is read
    assert main([*command, "--surface", str(tmp_path / "missing.mpuf")]) == 1
    assert capsys.readouterr().err == f"error: {MISSING_FEATURE}\n"


def test_scan_refuses_a_feature_size_that_is_not_positive(tmp_path, sphere_surface_320):
    save_surface(sphere_surface_320, tmp_path / "s.mpuf")
    env = {**os.environ, "PYTHONPATH": str(Path(treescan.__file__).resolve().parents[1])}
    command = [sys.executable, "-m", "treescan.cli", "scan", "--surface", "s.mpuf", "--min-feature", "0", "--out", "x.ply"]
    proc = subprocess.run(command, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["error: min_feature must be positive and finite, got 0.0"]
    assert not (tmp_path / "x.ply").exists()


@pytest.mark.parametrize("kind", ["noise", "occlude", "uneven"])
def test_degrade_an_empty_cloud(tmp_path, kind, capsys):
    src, out = tmp_path / "empty.ply", tmp_path / "out.ply"
    write_ply(PointCloud(np.zeros((0, 3)), np.zeros((0, 3))), src)
    code = main(["degrade", kind, "--in", str(src), "--out", str(out)])
    if kind == "noise":
        assert code == 0
        assert len(read_ply(out)) == 0
    else:
        assert code == 1
        assert capsys.readouterr().err == "error: an empty cloud has no bbox\n"
        assert not out.exists()


@pytest.mark.parametrize(
    "value, message",
    [(b"abc", "could not convert string to float: 'abc'"), (b"\xff", "byte 0xff at offset 108 is not ASCII")],
)
def test_a_malformed_ascii_cloud_is_one_error_line(tmp_path, value, message):
    env = {**os.environ, "PYTHONPATH": str(Path(treescan.__file__).resolve().parents[1])}
    header = b"ply\nformat ascii 1.0\nelement vertex 2\nproperty float x\nproperty float y\nproperty float z\n"
    (tmp_path / "bad.ply").write_bytes(header + b"end_header\n0 0 0\n1 " + value + b" 1\n")
    command = [sys.executable, "-m", "treescan.cli", "degrade", "noise", "--in", "bad.ply", "--out", "out.ply"]
    proc = subprocess.run(command, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [f"error: bad.ply: {message}"]
    assert not (tmp_path / "out.ply").exists()


def test_refusals_print_one_error_line(tmp_path):
    # the command line's own entry point: one `error:` line, no traceback
    env = {**os.environ, "PYTHONPATH": str(Path(treescan.__file__).resolve().parents[1])}
    (tmp_path / "bad.json").write_text("{bad")
    (tmp_path / "list.json").write_text("[]")
    (tmp_path / "section.json").write_text('{"tree": 5}')
    (tmp_path / "ok.json").write_text("{}")
    (tmp_path / "twice.json").write_text('{"degradations": [{"kind": "noise"}, {"kind": "noise"}]}')
    (tmp_path / "seed.json").write_text('{"master_seed": -3}')
    (tmp_path / "sides.json").write_text('{"sides": 2}')
    (tmp_path / "scale.json").write_text('{"fit": {"sphere_radius_scale": 0.5}}')
    (tmp_path / "tree_seed.json").write_text('{"tree": {"seed": 5}}')
    not_json = "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
    refusals = [
        (["scan", "--surface", "nothing.mpuf", "--out", "x.ply"], MISSING_FEATURE),
        (  # an OSError
            ["scan", "--surface", "nothing.mpuf", "--min-feature", "0.01", "--out", "x.ply"],
            "[Errno 2] No such file or directory: 'nothing.mpuf'",
        ),
        (["pipeline", "--config", "bad.json", "--output-dir", "out"], f"bad.json: {not_json}"),
        (["pipeline", "--config", "list.json"], "list.json: a config file holds one JSON object"),
        (
            ["pipeline", "--config", "section.json", "--bend", "0.2", "--output-dir", "out"],
            "tree: 5 is not a JSON object",
        ),
        (["batch", "--configs", "bad.json", "section.json"], f"bad.json: {not_json}"),
        (["batch", "--configs", "ok.json", "section.json"], "section.json: tree: 5 is not a JSON object"),
        (["batch", "--configs", "ok.json", "twice.json"], "twice.json: duplicate degradation kind: noise"),
        (["pipeline", "--master-seed", "-1", "--output-dir", "out"], "master_seed must fit in 64 unsigned bits"),
        (["batch", "--configs", "ok.json", "seed.json"], "seed.json: master_seed must fit in 64 unsigned bits"),
        (["batch", "--configs", "sides.json", "ok.json"], "sides.json: sides must be >= 3"),
        (["pipeline", "--config", "scale.json"], "fit.sphere_radius_scale is retired: only 1.0 is taken, not 0.5"),
        (["pipeline", "--config", "tree_seed.json"], TREE_SEED_UNREAD),
        (["batch", "--configs", "ok.json", "tree_seed.json"], f"tree_seed.json: {TREE_SEED_UNREAD}"),
    ]
    for args, message in refusals:
        command = [sys.executable, "-m", "treescan.cli", *args]
        proc = subprocess.run(command, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [f"error: {message}"]
        assert proc.stdout == ""
    files = [
        "bad.json", "list.json", "ok.json", "scale.json", "section.json", "seed.json", "sides.json", "tree_seed.json",
        "twice.json",
    ]
    assert sorted(p.name for p in tmp_path.iterdir()) == files


def test_size_class_flag_keeps_the_config_files_tree_keys(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"tree": {"size_class": "small", "trunk_length": 2.0, "bend": 0.3}}))
    args = build_parser().parse_args(["pipeline", "--config", str(path), "--size-class", "medium"])
    assert _pipeline_config(args).tree == TreeParams.preset("medium", trunk_length=2.0, bend=0.3)
    # without the flag, the file's own preset takes the same keys
    args = build_parser().parse_args(["pipeline", "--config", str(path)])
    assert _pipeline_config(args).tree == TreeParams.preset("small", trunk_length=2.0, bend=0.3)


def test_scan_with_skeleton_writes_the_pipeline_clean_cloud(tmp_path):
    # the stage subcommands, chained with the pipeline's settings
    config = tiny_pipeline_config(
        tmp_path / "p",
        "m",
        cache_surface=True,
        master_seed=3,
        tree=TreeParams(branch_levels=0, nodes_per_curve=4, bend=0.3),
        fit=FitConfig(epsilon=0.004),
    )
    run_pipeline(config)
    pipe, out = tmp_path / "p", tmp_path / "cli"
    out.mkdir()
    seed = derive_seed(config.master_seed, "skeleton")
    tree = ["--branch-levels", "0", "--nodes-per-curve", "4", "--bend", "0.3", "--seed", str(seed)]
    ranges = ["--branch-angle-range", "0.4", "1.1", "--branches-per-node-range", "1", "2"]
    scan = ["--resolution", str(config.scan.resolution), "--views", str(config.scan.views)]
    commands = [
        ["skeleton", *tree, *ranges, "--out", f"{out}/m.skel"],
        ["mesh", "--skeleton", f"{out}/m.skel", "--sides", str(config.sides), "--out", f"{out}/m.obj"],
        ["fit", "--mesh", f"{out}/m.obj", "--epsilon", "0.004", "--out", f"{out}/m.mpuf"],
        ["scan", "--surface", f"{pipe}/m.mpuf", "--skeleton", f"{out}/m.skel", *scan, "--out", f"{out}/m_clean.ply"],
    ]
    for command in commands:
        assert main(command) == 0
    assert (out / "m.skel").read_bytes() == (pipe / "m.skel").read_bytes()
    # the pipeline sweeps and fits in memory, not from its 9-digit .skel and
    # .obj text, so the chain's mesh matches it up to that rounding, and its
    # fit is checked by the cache key, which holds the mesh and fit config
    mesh, want = load_obj(out / "m.obj"), load_obj(pipe / "m.obj")
    assert np.array_equal(mesh.triangles, want.triangles)
    assert np.abs(mesh.vertices - want.vertices).max() <= 1e-7
    load_surface(out / "m.mpuf", surface_key(mesh, config.fit))
    assert (out / "m_clean.ply").read_bytes() == (pipe / "m_clean.ply").read_bytes()


def test_a_fit_of_the_pipeline_obj_is_refitted_by_a_cached_rerun(tmp_path):
    # the .obj's 9-digit text reads back as another mesh than the one the
    # pipeline fits (ROADMAP 6(c)), so the cache `fit` writes of it holds
    # another key, and a rerun refits rather than scan that surface
    config = tiny_pipeline_config(tmp_path / "p", "m", cache_surface=True, master_seed=1)
    fresh = tiny_pipeline_config(tmp_path / "fresh", "m", master_seed=1)
    run_pipeline(config)
    run_pipeline(fresh)
    pipe = tmp_path / "p"
    assert main(["fit", "--mesh", str(pipe / "m.obj"), "--out", str(pipe / "m.mpuf")]) == 0
    manifest = run_pipeline(config)
    assert [w.split(":")[0] for w in manifest.warnings] == ["surface cache refitted"]
    assert "key differs" in manifest.warnings[0]
    assert (pipe / "m_clean.ply").read_bytes() == (tmp_path / "fresh" / "m_clean.ply").read_bytes()


@pytest.mark.parametrize("fault", CACHE_FAULTS)
def test_scan_refuses_a_bad_surface_cache_in_one_error_line(tmp_path, sphere_surface_320, fault, capsys):
    path = tmp_path / "s.mpuf"
    save_surface(sphere_surface_320, path)
    path.write_bytes(damaged_cache(path.read_bytes(), fault))
    out = tmp_path / "x.ply"
    assert main(["scan", "--surface", str(path), "--min-feature", "0.05", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: ") and CACHE_FAULTS[fault] in err[0]
    assert not out.exists()


def pipeline_flags():
    """{dest: (action, section)} of every pipeline flag but --config; section None for a top-level key."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    sections = {
        name: section
        for section, cls in (("tree", TreeParams), ("fit", FitConfig), ("scan", ScanConfig))
        for name in field_types(cls)
    }
    actions = [a for a in sub.choices["pipeline"]._actions if a.option_strings and a.dest not in ("help", "config")]
    return {a.dest: (a, sections.get(a.dest)) for a in actions}


# a value other than the default for each flag that is not a number
FLAG_SAMPLES = {
    "size_class": "medium",
    "branches_per_node_range": [2, 3],
    "branch_angle_range": [0.2, 0.5],
    "normal_mode": "pca-mst",
    "output_dir": "elsewhere",
    "name": "other",
    "cache_surface": True,
    "degradations": ["noise", "uneven"],
    "region": [[0, 0, 0], [1, 1, 1]],
    "lambda1_range": [0.01, 0.02],
    "lambda2_range": [0.01, 0.02],
}


def config_with_file(tmp_path, data, argv):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return _pipeline_config(build_parser().parse_args(["pipeline", "--config", str(path), *argv]))


def test_each_pipeline_flag_reads_as_its_config_file_key(tmp_path):
    default = PipelineConfig().to_dict()
    flags = pipeline_flags()
    # the skeleton seed derives from the master seed: no flag sets tree.seed
    assert set(flags) == set(field_types(PipelineConfig)) - {"tree", "fit", "scan"} | {
        name for cls in (TreeParams, FitConfig, ScanConfig) for name in field_types(cls)
    } - {"seed"}
    for dest, (action, section) in flags.items():
        value = FLAG_SAMPLES.get(dest, 3 if action.type is int else 0.25)
        argv = [action.option_strings[0], *map(str, value if isinstance(value, list) else [value])]
        if action.nargs == 0:
            argv = argv[:1]
        by_flag = _pipeline_config(build_parser().parse_args(["pipeline", *argv]))
        assert by_flag != PipelineConfig(), dest
        key = [{"kind": kind} for kind in value] if dest == "degradations" else value
        was = default[section][dest] if section else default[dest]
        # the file holding the key alone, then the file's default value under the flag
        for file_value, file_argv in ((key, []), (was, argv)):
            data = {section: {dest: file_value}} if section else {dest: file_value}
            assert config_with_file(tmp_path, data, file_argv) == by_flag, dest


def config_keys(cls, *skip) -> dict:
    return {name: typ for name, (typ, _) in field_types(cls).items() if name not in skip}


# subcommand: {section, None for the top level: {key its flags set: type}};
# a degrade subcommand's section is its degradation kind
TOP_LEVEL = {name: typ for name, typ in config_keys(PipelineConfig).items() if typ in (int, float, str, bool)}
CONFIG_READS = {
    "skeleton": {"tree": config_keys(TreeParams)},
    "mesh": {None: {"sides": int}},
    "fit": {"fit": config_keys(FitConfig)},
    "scan": {"scan": config_keys(ScanConfig)},
    "degrade noise": {"noise": config_keys(NoiseParams)},
    "degrade occlude": {"occlusion": config_keys(OcclusionParams)},
    "degrade uneven": {"uneven": config_keys(UnevenParams)},
    "degrade density": {"scan": config_keys(ScanConfig, "resolution")},
    "pipeline": {
        "tree": config_keys(TreeParams, "seed"),
        "fit": config_keys(FitConfig),
        "scan": config_keys(ScanConfig),
        None: TOP_LEVEL,
    },
}


def flattened(value) -> list:
    return [x for item in value for x in flattened(item)] if isinstance(value, list) else [value]


def test_the_config_tables_drive_the_cli():
    # every key has one flag on each subcommand that reads it, and the flag
    # reads as that config key
    assert set(TOP_LEVEL) == {"output_dir", "master_seed", "name", "sides", "cache_surface"}
    assert {kind for kind, (klass, _) in DEGRADATIONS.items() if klass} == {"noise", "occlusion", "uneven"}
    parsers = subcommand_parsers(build_parser())
    for command, sections in CONFIG_READS.items():
        actions = [a for a in parsers[command]._actions if a.option_strings]
        required = [arg for a in actions if a.required for arg in (a.option_strings[0], "x")]
        for section, keys in sections.items():
            for key, typ in keys.items():
                flags = [a for a in actions if a.dest == key]
                assert len(flags) == 1, (command, key)
                value = True if typ is bool else FLAG_SAMPLES.get(key, 3 if typ is int else 0.25)
                argv = [flags[0].option_strings[0], *([] if typ is bool else map(str, flattened(value)))]
                args = parsers[""].parse_args([*command.split(), *required, *argv])
                if section in DEGRADATIONS:
                    by_flag = _params_from_flags(section, args)
                    if key == "seed":
                        by_key = degradation_params({"kind": section}, value)
                    else:
                        by_key = degradation_params({"kind": section, key: value})
                    assert by_flag == by_key != degradation_params({"kind": section}), (command, key)
                else:
                    by_flag = _pipeline_config(args)
                    data = {section: {key: value}} if section else {key: value}
                    assert by_flag == PipelineConfig.from_dict(data) != PipelineConfig(), (command, key)


def test_config_file_switches_stay_on_without_their_flags(tmp_path):
    config = config_with_file(tmp_path, {"cache_surface": True}, [])
    assert config.cache_surface


# options that only name a file to read or write
FILE_OPTIONS = {
    "--out", "--in", "--mesh", "--surface", "--skeleton", "--out-prefix", "--balls-out",
    "--ground-truth", "--extracted",
}
# a value other than the one each run below starts from, for every other
# option of the stage subcommands
STAGE_SAMPLES = {
    "skeleton": {
        "--size-class": "medium",
        "--trunk-length": "1.5",
        "--trunk-radius": "0.04",
        "--branch-levels": "0",
        "--radius-decay": "0.5",
        "--length-decay": "0.5",
        "--gravity": "0.5",
        "--bend": "0.3",
        "--nodes-per-curve": "3",
        "--seed": "3",
        "--branch-angle-range": "0.2 0.5",
        "--branches-per-node-range": "2 3",
    },
    "mesh": {"--sides": "12"},
    "fit": {"--epsilon": "0.01"},
    "scan": {
        "--resolution": "30",
        "--views": "3",
        "--standoff": "2.0",
        "--normal-mode": "pca-mst",
        "--min-feature": "0.01",
    },
    "degrade noise": {"--s": "0.05", "--d": "3", "--seed": "3"},
    "degrade occlude": {"--n": "5", "--lambda": "0.2", "--seed": "3"},
    "degrade uneven": {
        "--r": "0.1",
        "--region": "-2 -2 -2 2 2 0.5",
        "--lambda1-range": "0.01 0.02",
        "--lambda2-range": "0.01 0.02",
        "--seed": "3",
    },
    "degrade density": {"--views": "2", "--standoff": "2.0", "--normal-mode": "pca-mst", "--min-feature": "0.01"},
    "eval": {"--spacing": "0.05"},
}


def test_each_stage_flag_changes_what_its_subcommand_writes(tmp_path):
    # a flag that changes no byte is a knob nothing reads; the runs start
    # from the small preset's model, chained through the stages' files
    surface = option_strings(build_parser())
    for command, samples in STAGE_SAMPLES.items():
        assert set(surface[command].split()) - FILE_OPTIONS == set(samples), command

    other = str(tmp_path / "other.skel")
    assert main(["skeleton", "--seed", "1", "--out", other]) == 0
    model = {}  # file suffix: the file a base run of skeleton, mesh, fit or scan wrote
    bases = {
        "skeleton": lambda out: ["skeleton", "--out", f"{out}/t.skel"],
        "mesh": lambda out: ["mesh", "--skeleton", model[".skel"], "--out", f"{out}/t.obj"],
        "fit": lambda out: ["fit", "--mesh", model[".obj"], "--out", f"{out}/t.mpuf"],
        "scan": lambda out: [
            "scan", "--surface", model[".mpuf"], "--skeleton", model[".skel"], "--resolution", "100", "--views", "2",
            "--out", f"{out}/t.ply",
        ],
        "degrade noise": lambda out: ["degrade", "noise", "--in", model[".ply"], "--out", f"{out}/t.ply"],
        "degrade occlude": lambda out: ["degrade", "occlude", "--in", model[".ply"], "--out", f"{out}/t.ply"],
        "degrade uneven": lambda out: [  # the seeded default region may miss a sparse cloud
            "degrade", "uneven", "--in", model[".ply"], "--region", "-2", "-2", "-2", "2", "2", "3",
            "--out", f"{out}/t.ply",
        ],
        "degrade density": lambda out: [
            "degrade", "density", "--surface", model[".mpuf"], "--skeleton", model[".skel"], "--views", "1",
            "--out-prefix", f"{out}/t",
        ],
        "eval": lambda out: ["eval", "--ground-truth", model[".skel"], "--extracted", other, "--out", f"{out}/r.json"],
    }
    runs = itertools.count()

    def written(argv) -> tuple:
        out = tmp_path / f"run{next(runs)}"
        out.mkdir()
        assert main(argv(out)) == 0
        return out, {p.name: p.read_bytes() for p in out.iterdir()}

    for command, samples in STAGE_SAMPLES.items():
        out, base = written(bases[command])
        if command in ("skeleton", "mesh", "fit", "scan"):
            model.update({Path(name).suffix: str(out / name) for name in base})
        for option, value in samples.items():
            _, changed = written(lambda out: [*bases[command](out), option, *value.split()])
            assert changed.keys() == base.keys(), (command, option)
            assert changed != base, (command, option)
