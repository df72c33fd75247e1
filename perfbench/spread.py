"""Run one workload over several seeds and summarise the spread.

    python3 perfbench/spread.py --workload dense-cloud --seeds 10 [--trace 1]
        [--save perfbench/out/set-a.json] [--against perfbench/out/set-b.json]

Each seed is one fresh `run.py` process with the run length of
BENCHMARK.json. For every metric it prints the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound. It also prints the share of failed operations. `--against`
compares with a saved earlier set: the median shift of each metric, the
failed share, and the artifact digests of every seed both sets ran. These
figures are the README's reference numbers; rerun this to regenerate them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_seed(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(HERE / "out" / workload / "digests.json", "r", encoding="utf-8") as fh:
        result["digests"] = json.load(fh)["digests"]
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    runs = {}
    for seed in range(1, args.seeds + 1):
        runs[seed] = run_seed(args.workload, seed, bench["run_seconds"], args.trace)
        shown = {k: v["value"] for k, v in runs[seed]["metrics"].items() if k in bounds}
        print(f"seed {seed}: failed {runs[seed]['failed']}/{runs[seed]['attempted']}",
              " ".join(f"{k}={v:.4g}" for k, v in shown.items()), flush=True)
    summary = {"workload": args.workload, "trace": args.trace, "runs": {str(s): r for s, r in runs.items()}}

    names = list(next(iter(runs.values()))["metrics"])
    medians = {}
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs.values()]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        medians[name] = med
        bound = bounds.get(name)
        print(f"{name:32} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bound if bound is not None else '':>6}")
    failed = sum(r["failed"] for r in runs.values())
    attempted = sum(r["attempted"] for r in runs.values())
    print(f"failed share {failed}/{attempted}; correct in every run: {all(r['correct'] for r in runs.values())}")
    summary["medians"] = medians

    if args.against:
        with open(args.against, "r", encoding="utf-8") as fh:
            other = json.load(fh)
        for name, med in medians.items():
            old = other["medians"][name]
            print(f"{name:32} median {old:.6g} -> {med:.6g} ({(med - old) / old if old else 0.0:+.4f})")
        shared = sorted(set(other["runs"]) & {str(s) for s in runs})
        differ = [s for s in shared if other["runs"][s]["digests"] != summary["runs"][s]["digests"]]
        print(f"digests identical on {len(shared) - len(differ)}/{len(shared)} shared seeds")
        old_f = sum(r["failed"] for r in other["runs"].values())
        old_a = sum(r["attempted"] for r in other["runs"].values())
        print(f"failed share {old_f}/{old_a} -> {failed}/{attempted}")
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
