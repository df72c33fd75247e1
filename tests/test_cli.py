"""Command line coverage: every subcommand, flag precedence, batch exit codes."""

import json

import numpy as np
import pytest

from treescan.cli import main
from treescan.cloud import read_ply
from treescan.implicit import FitConfig, load_surface, surface_key
from treescan.mesh import load_obj
from treescan.pipeline import PipelineConfig, save_config
from treescan.rng import derive_seed
from treescan.scanner import ScanConfig
from treescan.skeleton import TreeParams, generate_skeleton, load_skeleton


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
    surface = load_surface(surf, surface_key(obj.read_bytes(), FitConfig()))
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
    occluded = read_ply(occluded_path)
    assert len(occluded) < len(cloud)
    balls = json.loads(balls_path.read_text())
    assert len(balls) == 2 and {"center", "radius"} <= set(balls[0])

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
    out = tmp_path / "s.skel"
    assert main(["skeleton", "--size-class", "small", "--seed", "1", "--out", str(out)]) == 0
    direct = generate_skeleton(TreeParams.preset("small", seed=1))
    assert len(load_skeleton(out).nodes) == len(direct.nodes)


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


def test_batch_failure_exit_code(tmp_path, capsys):
    good = tiny_pipeline_config(tmp_path / "set" / "good", "good")
    bad = tiny_pipeline_config(tmp_path / "set" / "bad", "bad", sides=2)
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
