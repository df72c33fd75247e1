#!/usr/bin/env python3
"""Generate a seeded batch of synthetic tree models.

One directory per model: skeleton, tube mesh, clean scan, degraded variant
clouds and a manifest with content digests. An index.json at the output
root summarizes the whole batch. Re-running with the same arguments
reproduces every artifact bit for bit.

    python scripts/generate_dataset.py --out dataset --mix small=8 medium=2
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from treescan import PipelineConfig, ScanConfig, TreeParams, batch
from treescan.pipeline import DEGRADATION_KINDS

FULL_DEGRADATIONS = [
    {"kind": "noise", "s": 0.01, "d": 10},
    {"kind": "occlusion", "N": 2, "lambda": 0.05},
    {"kind": "uneven", "r": 0.05},
    {"kind": "density"},
]


def parse_mix(entries: list[str]) -> list[tuple[str, int]]:
    mix = []
    for entry in entries:
        name, _, count = entry.partition("=")
        if not count.isdigit():
            raise SystemExit(f"bad --mix entry {entry!r}, expected class=count")
        mix.append((name, int(count)))
    return mix


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", default="dataset", help="output root directory")
    p.add_argument(
        "--mix",
        nargs="+",
        default=["small=10"],
        help="models per size class, e.g. small=8 medium=2",
    )
    p.add_argument("--master-seed", type=int, default=0)
    p.add_argument("--resolution", type=int, default=100)
    p.add_argument("--views", type=int, default=6)
    p.add_argument(
        "--kinds",
        nargs="*",
        choices=DEGRADATION_KINDS,
        default=list(DEGRADATION_KINDS),
        help="degradations to apply (default: all)",
    )
    p.add_argument("--workers", type=int, default=None)
    args = p.parse_args()

    out = Path(args.out)
    kinds = set(args.kinds)
    degradations = [dict(d) for d in FULL_DEGRADATIONS if d["kind"] in kinds]

    configs = []
    index = 0
    for size_class, count in parse_mix(args.mix):
        for _ in range(count):
            seed = args.master_seed + index
            name = f"{size_class}{index:03d}"
            configs.append(
                PipelineConfig(
                    tree=TreeParams.preset(size_class),
                    scan=ScanConfig(resolution=args.resolution, views=args.views),
                    degradations=[dict(d) for d in degradations],
                    output_dir=str(out / name),
                    name=name,
                    master_seed=seed,
                )
            )
            index += 1

    records, failed = batch(configs, workers=args.workers, index_path=out / "index.json")
    for record in records:
        if record["ok"]:
            print(f"{record['name']}: ok ({len(record['files'])} files)")
        else:
            print(f"{record['name']}: FAILED ({record['error']})")
    print(f"{len(records) - sum(r['ok'] for r in records)} failures, index at {out / 'index.json'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
