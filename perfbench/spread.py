"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

    python3 perfbench/spread.py --seeds 1-10 --seconds 25 [--workload NAME ...] [--traced] [--out FILE]

Runs `run.py --trace 0` once per (workload, seed), one run at a time, and
prints for every metric the median of the runs and the distance between
the first and third quartile as a share of the median (the spread that
BENCHMARK.json's bounds are judged against), for the scaled and the raw
timings.  ``--traced`` adds one `--trace 1` run per workload for the
per-layer numbers.  ``--out`` writes all of it as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
NAMES = ("curves_grid", "bounds_certify", "session_long", "session_sweep")


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(name: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    lines = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout.strip().split("\n")
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def traced_run(name: str, seed: int, seconds: int) -> dict:
    meta, result = run_once(name, seed, seconds, 1)
    return {"seed": seed, "correct": result["correct"], "trace_overhead": meta["trace_overhead"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--workload", action="append", choices=NAMES)
    p.add_argument("--traced", action="store_true", help="also one --trace 1 run per workload (first seed)")
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    report = {"seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    for name in args.workload or NAMES:
        runs = []
        for seed in args.seeds:
            meta, result = run_once(name, seed, args.seconds, 0)
            if not result["correct"] or result["failed"]:
                print(f"{name} seed {seed}: correct={result['correct']} failed={result['failed']}", file=sys.stderr)
                return 1
            runs.append({"meta": meta, "metrics": result["metrics"]})
        summary = {}
        for metric, first in runs[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            raw = [r["meta"]["raw"][metric] for r in runs]
            r1, raw_median, r3 = statistics.quantiles(raw, n=4)
            summary[metric] = {"unit": first["unit"], "median": median, "iqr_share": (q3 - q1) / median,
                               "values": values, "raw_median": raw_median, "raw_values": raw}
            print(f"{name:15s} {metric:16s} median {median:16.6f} {first['unit']:8s} "
                  f"spread {100 * (q3 - q1) / median:6.2f}%  (raw {raw_median:.6g}, "
                  f"spread {100 * (r3 - r1) / raw_median:6.2f}%)", flush=True)
        report["workloads"][name] = {
            "metrics": summary,
            "per_layer": traced_run(name, args.seeds[0], args.seconds) if args.traced else None,
            "ops": [r["meta"]["ops"] for r in runs],
            "op_tail_percentile": [r["meta"]["op_tail_percentile"] for r in runs],
        }
        report["meta"] = {k: runs[0]["meta"][k] for k in ("git", "python", "numpy", "blas", "nproc", "cpu_model", "date")}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
