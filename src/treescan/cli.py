"""Command line front end.

Subcommands mirror the pipeline stages so each artifact can be produced or
reproduced in isolation. The config flags come from the config dataclasses,
the degrade subcommands from `DEGRADATIONS`. A config flag is read as the
key a config file would hold, through `PipelineConfig.from_dict`: `pipeline`
lays the flags given over its --config file key by key, and the stage
subcommands read theirs over no file. `batch` runs config files as they stand.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import is_dataclass
from pathlib import Path
from typing import get_args, get_origin

from .cloud import read_ply, write_ply
from .errors import InvalidParameterError, TreescanError
from .implicit import FitConfig, build_surface, load_surface, save_surface, surface_key
from .mesh import load_obj, save_obj, sweep_mesh
from .metrics import evaluate, report_json
from .pipeline import (
    DEGRADATION_KINDS,
    DEGRADATIONS,
    EMPTY_SCAN_WARNING,
    PipelineConfig,
    StageContext,
    batch,
    config_data,
    degradation_params,
    field_types,
    load_config,
    run_pipeline,
    write_json,
)
from .scanner import ScanConfig, scan_surface
from .skeleton import TreeParams, generate_skeleton, load_skeleton, save_skeleton


# flags not named after their field
_FLAG_NAMES = {"N": "--n", "lam": "--lambda"}

# degradation kind -> (its degrade subcommand, help)
_DEGRADE_COMMANDS = {
    "noise": ("noise", "Gaussian noise along normals"),
    "occlusion": ("occlude", "remove occlusion-ball interiors"),
    "uneven": ("uneven", "locally uneven density by PCA insertion"),
    "density": ("density", "rescan at resolutions 50/100/150"),
}


def _leaves(typ) -> list:
    """The item types of tuple type `typ`, nested tuples flattened in order."""
    return [leaf for t in get_args(typ) for leaf in (_leaves(t) if get_origin(t) is tuple else [t])]


def _nested(typ, items):
    """The flat flag values of iterator `items` in the shape of tuple type `typ`."""
    return [_nested(t, items) if get_origin(t) is tuple else next(items) for t in get_args(typ)]


def _add_flags(parser: argparse.ArgumentParser, cls, skip=()) -> None:
    """A flag, default None, for each field of config dataclass `cls` but `skip`, dataclass fields' own included.

    A tuple field's flag takes its items flattened in order, and a bool field's is a switch.
    """
    for name, (typ, _) in field_types(cls).items():
        if name in skip:
            continue
        flag = _FLAG_NAMES.get(name, f"--{name.replace('_', '-')}")
        if is_dataclass(typ):
            _add_flags(parser, typ, skip)
        elif typ is bool:
            parser.add_argument(flag, dest=name, action="store_true", default=None)
        elif get_origin(typ) is tuple:
            leaves = _leaves(typ)
            (item,) = set(leaves)  # argparse converts every item alike
            parser.add_argument(flag, dest=name, type=item, nargs=len(leaves), default=None)
        else:
            parser.add_argument(flag, dest=name, type=typ, default=None)


def _given(args: argparse.Namespace, cls) -> dict:
    """{field: value} of the flags given for the fields of config dataclass `cls`, tuples in their shape."""
    return {
        name: _nested(typ, iter(v)) if get_origin(typ) is tuple else v
        for name, (typ, _) in field_types(cls).items()
        if (v := getattr(args, name, None)) is not None
    }


def _pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    """The config of the --config file (or none), each flag given replacing its key."""
    flags = _given(args, PipelineConfig)
    if "degradations" in flags:  # the flag names kinds, a file holds entries
        flags["degradations"] = [{"kind": kind} for kind in flags["degradations"]]
    data = {**(config_data(args.config) if getattr(args, "config", None) else {}), **flags}
    for name, (cls, _) in field_types(PipelineConfig).items():
        section = data.get(name)
        if is_dataclass(cls) and (section is None or isinstance(section, dict)):  # from_dict refuses other sections
            data[name] = {**(section or {}), **_given(args, cls)}
    return PipelineConfig.from_dict(data)


def _cmd_skeleton(args) -> int:
    skeleton = generate_skeleton(_pipeline_config(args).tree)
    save_skeleton(skeleton, args.out)
    print(f"wrote {args.out} ({len(skeleton.nodes)} nodes)")
    return 0


def _cmd_mesh(args) -> int:
    skeleton = load_skeleton(args.skeleton)
    mesh = sweep_mesh(skeleton, sides=_pipeline_config(args).sides)
    save_obj(mesh, args.out)
    print(f"wrote {args.out} ({len(mesh.vertices)} vertices, {len(mesh.triangles)} triangles)")
    return 0


def _cmd_fit(args) -> int:
    mesh = load_obj(args.mesh)
    cfg = _pipeline_config(args).fit
    surface = build_surface(mesh, cfg)
    save_surface(surface, args.out, surface_key(mesh, cfg))
    print(f"wrote {args.out} ({len(surface.centers)} cells)")
    return 0


def _min_feature(args) -> float:
    """The march feature size: --min-feature, else the --skeleton's minimum radius."""
    if args.min_feature is not None:
        return args.min_feature
    if args.skeleton:
        return load_skeleton(args.skeleton).min_radius()
    raise InvalidParameterError("give --skeleton or --min-feature: they size the march step")


def _cmd_scan(args) -> int:
    min_feature = _min_feature(args)
    cloud = scan_surface(load_surface(args.surface), _pipeline_config(args).scan, min_feature)
    write_ply(cloud, args.out)
    print(f"wrote {args.out} ({len(cloud)} points)")
    if len(cloud) == 0:
        print(f"warning: {EMPTY_SCAN_WARNING}", file=sys.stderr)
    return 0


def _params_from_flags(kind: str, args):
    """The params of `kind` from its flags; flags left out keep the dataclass defaults."""
    klass = DEGRADATIONS[kind][0]
    entry = {k: v for k, v in _given(args, klass).items() if k != "seed"} if klass else {}
    return degradation_params({"kind": kind, **entry}, getattr(args, "seed", None))


def _cmd_degrade(args) -> int:
    """Run the pipeline's runner of `args.kind` on the inputs its flags name."""
    params = _params_from_flags(args.kind, args)
    if args.kind == "density":
        clean = None
        ctx = StageContext(
            min_feature=_min_feature(args), surface=load_surface(args.surface), scan=_pipeline_config(args).scan
        )
    else:
        clean = read_ply(args.input)
        ctx = StageContext()
    for _, stem, cloud in DEGRADATIONS[args.kind][1](params, clean, ctx):
        path = args.out if clean is not None else f"{args.out_prefix}_{stem}.ply"
        write_ply(cloud, path)
        print(f"wrote {path} ({len(cloud)} points)")
    if getattr(args, "balls_out", None):
        write_json(ctx.occlusion_balls, args.balls_out)
        print(f"wrote {args.balls_out} ({len(ctx.occlusion_balls)} balls)")
    for warning in ctx.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return 0


def _cmd_eval(args) -> int:
    g = load_skeleton(args.ground_truth)
    s = load_skeleton(args.extracted)
    report = evaluate(g, s, spacing=args.spacing)
    text = report_json(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_pipeline(args) -> int:
    manifest = run_pipeline(_pipeline_config(args))
    out = Path(manifest.config["output_dir"])
    print(f"wrote {out / 'manifest.json'} ({len(manifest.files)} artifacts)")
    for warning in manifest.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return 0


def _cmd_batch(args) -> int:
    configs = [load_config(p) for p in args.configs]
    records, failed = batch(configs, workers=args.workers, index_path=args.index)
    for record in records:
        status = "ok" if record["ok"] else f"FAILED: {record['error']}"
        print(f"{record['name']}: {status}")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    about = "Synthetic tree point clouds with exact ground-truth skeletons."
    parser = argparse.ArgumentParser(prog="treescan", description=about)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("skeleton", help="generate a ground-truth skeleton")
    _add_flags(p, TreeParams)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_skeleton)

    p = sub.add_parser("mesh", help="sweep a tube mesh along a skeleton")
    p.add_argument("--skeleton", required=True)
    p.add_argument("--sides", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_mesh)

    p = sub.add_parser("fit", help="fit an implicit surface to a mesh")
    p.add_argument("--mesh", required=True)
    _add_flags(p, FitConfig)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("scan", help="virtual-scan a fitted surface")
    p.add_argument("--surface", required=True)
    _add_flags(p, ScanConfig)
    p.add_argument("--skeleton", default=None, help="skeleton file for the march feature size")
    p.add_argument("--min-feature", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("degrade", help="degrade a point cloud")
    dsub = p.add_subparsers(dest="degrade_kind", required=True)
    for kind, (klass, _) in DEGRADATIONS.items():
        command, about = _DEGRADE_COMMANDS[kind]
        d = dsub.add_parser(command, help=about)
        if kind == "density":
            d.add_argument("--surface", required=True)
            _add_flags(d, ScanConfig, skip=("resolution",))  # the rescans set their own
            d.add_argument("--skeleton", default=None)
            d.add_argument("--min-feature", type=float, default=None)
            d.add_argument("--out-prefix", required=True)
        else:
            d.add_argument("--in", dest="input", required=True)
            _add_flags(d, klass)
            d.add_argument("--out", required=True)
        if kind == "occlusion":
            d.add_argument("--balls-out", default=None)
        d.set_defaults(func=_cmd_degrade, kind=kind)

    p = sub.add_parser("eval", help="Hausdorff comparison of two skeletons")
    p.add_argument("--ground-truth", required=True)
    p.add_argument("--extracted", required=True)
    p.add_argument("--spacing", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("pipeline", help="run the full generation pipeline")
    p.add_argument("--config", default=None)
    # the skeleton seed derives from --master-seed; --degradations names kinds
    _add_flags(p, PipelineConfig, skip=("seed", "degradations"))
    p.add_argument("--degradations", nargs="*", choices=DEGRADATION_KINDS, help="replace the config's degradation list")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("batch", help="run many pipeline configs")
    p.add_argument("--configs", nargs="+", required=True)
    p.add_argument("--workers", type=int, default=None, help="default: usable CPU count")
    p.add_argument("--index", default=None)
    p.set_defaults(func=_cmd_batch)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TreescanError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
