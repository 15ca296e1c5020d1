"""fpbprobe benchmark: closed-loop workloads, end-to-end metrics, per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

NAME is curves_grid, bounds_certify, session_long or session_sweep.  With
``--trace 0`` a run reports the end-to-end metrics; with ``--trace 1`` it
runs the same loop untraced for a third of the time and traced for the
rest, and reports the per-layer metrics.  ``all`` runs every workload both
ways, each in a fresh process.  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
carries the run's metadata.  See perfbench/README.md.

The program is imported from ``src/`` of the checkout this file sits in;
without it the run exits with code 2 before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NAMES = ("curves_grid", "bounds_certify", "session_long", "session_sweep")
# One client, no extra threads: BLAS pools are pinned to one thread.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny op sizes, for the benchmark's own tests")
    return p.parse_args(argv)


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    results = {}
    for name in NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(proc.stdout)
            sys.stdout.flush()
            if proc.returncode != 0:
                print(f"error: {name} --trace {trace} exited with {proc.returncode}", file=sys.stderr)
                return proc.returncode
            results[f"{name}/trace{trace}"] = json.loads(proc.stdout.strip().split("\n")[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {key: r["metrics"] for key, r in results.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fpbprobe" / "__init__.py").is_file():
        print(f"error: no fpbprobe sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import fpbprobe

    if Path(fpbprobe.__file__).resolve().parent != SRC / "fpbprobe":
        print(f"error: imported fpbprobe from {fpbprobe.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import bench

    return bench.run(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
