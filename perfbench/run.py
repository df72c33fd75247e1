"""treescan benchmark: one seeded workload per run, checked, timed, reported.

    python3 perfbench/run.py --workload small-dataset --seed 1 --seconds 45 --trace 0

Run from the repository root. Set-up is the imports plus building the
workload's inputs from the seed; both are repeated SETUP_REPEATS times (the
imports in fresh interpreters) and their medians added. Then the run times
whole rounds of the workload until the rounds add up to --seconds (at least
one round). After each round, untimed, it checks every artifact the round
wrote, one operation per artifact; a later round whose artifacts are
byte-identical to the first round's takes the first round's verdicts.
A fixed host reference (`host_reference_s`) runs before the first round and
after each one; scaled_wall_s is the median round, each round scaled to
the host speed at which the reference takes NOMINAL_REF_S. peak_rss_mb is
the high-water mark of the first round, before any check ran.

The last line of standard output is a JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics of BENCHMARK.json with --trace 1. A readable summary
goes to standard error.
Artifacts, digests and spans are written under perfbench/out/<workload>/.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5
# times the imports of a fresh interpreter; argv[1:] are the import paths
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path[:0] = sys.argv[1:]; "
    "import workloads; print(time.perf_counter() - t)"
)

# the host reference: its work, and its time on the 2-core host of the README's
# figures when that host runs at full speed (its fastest spells)
REF_LOOP, REF_SORT, REF_TREE = 300_000, 200_000, 20_000
REF_REPEATS = 5
NOMINAL_REF_S = 0.075

# one process, BLAS threads capped at the cores this process may use
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, str(len(os.sched_getaffinity(0))))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_seconds(imported: float) -> float:
    """Median import time: this process's and that of fresh interpreters."""
    times = [imported]
    for _ in range(SETUP_REPEATS - 1):
        probe = [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"), str(HERE)]
        proc = subprocess.run(probe, capture_output=True, text=True, check=True, timeout=120)
        times.append(float(proc.stdout))
    return statistics.median(times)


def host_reference_s() -> float:
    """Seconds the host takes now for a fixed mix of the work a round does.

    A bytecode loop, a numpy sort, and a k-d tree built and queried, on
    inputs fixed here; the median of REF_REPEATS timings, since one timing
    jitters by a fifth. Nothing in it calls treescan, so a change to the
    program leaves it alone: its time follows only the host's speed, which
    on a shared host changes by half within seconds and stays changed for
    minutes.
    """
    import numpy as np
    from scipy.spatial import cKDTree

    rng = np.random.default_rng(0)
    values, points = rng.random(REF_SORT), rng.random((REF_TREE, 3))
    times = []
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(REF_LOOP):
            acc += i * i
        np.sort(values)
        cKDTree(points).query(points, 8)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure(workload, name: str, seed: int, seconds: float, trace: bool, imported: float) -> dict:
    """Set up, run rounds, check; returns the result object and writes digests.

    `imported` is the time from process start to the end of the imports.
    """
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workload.build(seed)
        builds.append(time.perf_counter() - t0)
    setup_s = import_seconds(imported) + statistics.median(builds)

    out = OUT / name
    shutil.rmtree(out, ignore_errors=True)
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
    walls, ops, digests = [], [], []
    first_ops = None
    peak_rss_mb = None
    refs = [host_reference_s()]  # refs[i] and refs[i + 1] bracket round i
    with tracer.installed() if tracer else nullcontext():
        while sum(walls) < seconds:
            round_dir = out / f"round-{len(walls)}"
            round_dir.mkdir(parents=True)
            t0 = time.perf_counter()
            res = workload.run(inputs, round_dir)
            walls.append(time.perf_counter() - t0)
            if peak_rss_mb is None:  # the first round's high-water mark, before any check ran
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            refs.append(host_reference_s())
            # checks call nothing the tracer wraps, so they add no spans
            digests.append(workload.digests(res, round_dir))
            if len(digests) == 1 or digests[-1] != digests[0]:
                round_ops = workload.check(inputs, res, round_dir)
                first_ops = first_ops or round_ops
            else:  # byte-identical to the first round's artifacts: the same verdicts
                round_ops = first_ops
            ops += round_ops
            del res
    reproducible = all(d == digests[0] for d in digests)
    with open(out / "digests.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, "digests": digests[0]}, fh, indent=1, sort_keys=True)

    failed = [(op, detail) for op, ok, detail in ops if not ok]
    for op, detail in dict.fromkeys(failed):  # each distinct failure once
        known = workload.faults.get(op)
        print(f"FAIL {name} {op}: {detail} [{known or 'UNEXPECTED'}]", file=sys.stderr)
    if not reproducible:
        print(f"FAIL {name}: rounds wrote different artifacts", file=sys.stderr)

    # each round at the host speed of NOMINAL_REF_S: scaled by the reference around it
    scaled = [w * 2.0 * NOMINAL_REF_S / (refs[i] + refs[i + 1]) for i, w in enumerate(walls)]
    print(f"{name} rounds " + " ".join(f"{w:.3f}" for w in walls), file=sys.stderr)
    print(f"{name} host reference " + " ".join(f"{r:.4f}" for r in refs), file=sys.stderr)
    print(f"{name} scaled rounds " + " ".join(f"{w:.3f}" for w in scaled), file=sys.stderr)
    if tracer:
        tracer.write(out / "spans.json")
        values = tracer.layer_metrics(len(walls))
        kind = "per_layer"
    else:
        values = {"setup_s": setup_s, "scaled_wall_s": statistics.median(scaled), "peak_rss_mb": peak_rss_mb}
        kind = "end_to_end"
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[kind]}
    if set(declared) != set(values):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(declared))} differ from BENCHMARK.json")
    return {
        "correct": reproducible,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": values[k], "unit": declared[k]} for k in declared},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "treescan" / "__init__.py").is_file():
        print(f"no treescan sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import workloads  # imports treescan, numpy and scipy

    imported = time.perf_counter() - STARTED
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    result = measure(workload, args.workload, args.seed, args.seconds, bool(args.trace), imported)
    for key, m in result["metrics"].items():
        print(f"{args.workload} {key} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"{args.workload} attempted {result['attempted']} failed {result['failed']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
