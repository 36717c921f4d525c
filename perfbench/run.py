"""Sparse-vs-dense SpiderBoost benchmark over the public `sparsevr` API.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload ls-target --seed 1 --seconds 20 --trace 0

With --trace 0 it times untraced runs of both algorithms and reports the
end-to-end metrics; with --trace 1 it pairs each untraced run with a traced
twin, checks the two agree bit for bit, and reports the per-layer metrics.
Either way every output is checked.  The last line of standard output is
one JSON object {correct, attempted, failed, metrics}; a manifest and the
raw per-seed values go to .perfbench_out/ in the checkout.  The package is
imported from src/ next to this directory and nowhere else.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# One BLAS thread: as fast as two on the 2-core machine the baseline was
# measured on, and it keeps runs from competing with each other for cores.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
sys.dont_write_bytecode = True


def import_package():
    """Import sparsevr from this checkout's src/, or exit non-zero."""
    if not (SRC / "sparsevr" / "__init__.py").is_file():
        print(f"no sparsevr package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import sparsevr
    if SRC not in Path(sparsevr.__file__).resolve().parents:
        print(f"sparsevr was imported from {sparsevr.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """SHA-256 over src/**/*.py, naming the code when there is no .git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def manifest(args, workload, seeds_used) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": workload.sizes,
        "config": {k: v for k, v in workload.config.items()},
        "run_seeds": seeds_used,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["ls-target", "mlp-wide", "mf-ratings"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    import_package()
    import harness
    import workloads

    build = workloads.BUILDERS[args.workload]
    setups = []
    for _ in range(workloads.SETUP_REPEATS[args.workload]):
        wl = None   # drop the previous copy so set-up memory does not stack
        tic = time.perf_counter()
        wl = build(args.seed)
        setups.append(time.perf_counter() - tic)
    setup_s = statistics.median(setups)

    f0 = harness.initial_loss(wl)
    harness.warm_up(wl, f0)
    seeds = harness.run_seeds(args.seed)
    absent = []
    if args.trace:
        outcomes, traced, absent = harness.measure_traced(wl, seeds, args.seconds, f0)
        metrics = harness.per_layer_values(traced)
        absent += sorted(name[:-len(".calls")] for name, m in metrics.items()
                         if name.endswith(".calls") and m["value"] == 0)
    else:
        outcomes = harness.measure(wl, seeds, args.seconds, f0)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = harness.end_to_end_metrics(outcomes, setup_s, rss_mb)
        traced = []

    failed = sum(not o.ok for o in outcomes)
    seeds_used = sorted({o.seed for o in outcomes})
    info = manifest(args, wl, seeds_used)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"manifest": info, "metrics": metrics, "absent": absent,
                   "setup_runs_s": setups,
                   "runs": [{"algorithm": o.algorithm, "seed": o.seed,
                             "wall_s": o.wall_s, "steps": o.steps,
                             "units": str(o.units), "failure": o.failure}
                            for o in outcomes]}, fh, indent=1)
    if traced:
        with open(OUT_DIR / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for i, run in enumerate(traced):
                for name, start, end, parent in run.spans:
                    fh.write(f'["{run.algorithm}",{i},"{name}",{start},{end},{parent}]\n')

    print(f"{args.workload}: seed {args.seed}, {len(seeds_used)} run seeds, "
          f"revision {info['git_revision'][:12]}, numpy {info['numpy']}, "
          f"BLAS {info['blas']} x{BLAS_THREADS} thread, nproc {info['nproc']}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
    if absent:
        print(f"  absent on this workload: {', '.join(absent)}")
    print(f"  fail_share {failed}/{len(outcomes)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(outcomes),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
