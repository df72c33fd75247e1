#!/usr/bin/env python3
"""SHA-256 of every artifact `run_pipeline` writes, for a list of cases.

Each case runs the whole pipeline (all four degradations, surface cache on)
in a fresh directory and records {case: {file: sha256}}. A `.mpuf` cache
also gets a `<file> cells` entry: the digest of the cell arrays, epsilon
and bbox it loads to, which stays comparable when only the header changes.
`manifest.json` is hashed as its sorted-key JSON without `timings` and
without `config.output_dir` (the temporary directory), so file order,
roles, seeds, warnings, occlusion balls and the config echo are compared.
With --against, every difference from a saved set is listed and the exit
status is 1 if there is any.

    PYTHONPATH=src python scripts/digests.py --out before.json
    PYTHONPATH=src python scripts/digests.py --out after.json --against before.json
    PYTHONPATH=src python scripts/digests.py --case small:1:2:100:analytic --out one.json

A case is SIZE:MASTER_SEED:VIEWS:RESOLUTION:NORMAL_MODE. Without --case the
default list below runs (about ten minutes on a 2-core host).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from treescan import PipelineConfig, ScanConfig, TreeParams, run_pipeline
from treescan.implicit import load_surface
from treescan.pipeline import DEGRADATION_KINDS

DEFAULT_CASES = [
    *(f"small:{seed}:2:100:analytic" for seed in (1, 2, 3, 4)),
    "small:1:6:100:analytic",
    "small:3:6:100:analytic",
    "small:1:2:100:pca-mst",
    "small:2:3:150:analytic",
    "medium:1:4:60:analytic",
]


def case_config(case: str, out: Path) -> PipelineConfig:
    try:
        size, seed, views, resolution, normal_mode = case.split(":")
        scan = ScanConfig(resolution=int(resolution), views=int(views), normal_mode=normal_mode)
        master_seed = int(seed)
    except ValueError:
        raise SystemExit(f"bad case {case!r}, expected SIZE:SEED:VIEWS:RESOLUTION:NORMAL_MODE")
    return PipelineConfig(
        tree=TreeParams.preset(size),
        scan=scan,
        degradations=[{"kind": kind} for kind in DEGRADATION_KINDS],
        output_dir=str(out),
        master_seed=master_seed,
        cache_surface=True,
    )


def case_digests(case: str) -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        manifest = run_pipeline(case_config(case, out))
        digests = {f["path"]: f["sha256"] for f in manifest.files}
        for name in [n for n in digests if n.endswith(".mpuf")]:
            s = load_surface(out / name)
            h = hashlib.sha256()
            for a in (s.centers, s.radii, s.normals, s.offsets, [s.epsilon], s.bbox_lo, s.bbox_hi):
                h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
            digests[f"{name} cells"] = h.hexdigest()
        recorded = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        del recorded["timings"], recorded["config"]["output_dir"]
        digests["manifest.json"] = hashlib.sha256(json.dumps(recorded, sort_keys=True).encode("utf-8")).hexdigest()
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
    p.add_argument("--case", action="append", help="SIZE:SEED:VIEWS:RESOLUTION:NORMAL_MODE (repeatable)")
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--against", help="saved JSON to compare with")
    args = p.parse_args()

    result = {}
    for case in args.case or DEFAULT_CASES:
        result[case] = case_digests(case)
        print(f"{case}: {len(result[case])} files", flush=True)
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
