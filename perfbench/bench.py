"""Measurement loop, metrics and run metadata of the fpbprobe benchmark.

Imported by run.py once the checkout's ``src/`` is on the path.
"""

from __future__ import annotations

import ctypes
import datetime
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import calibrate
import checks
import tracing
import workloads
from run import THREAD_VARS

END_TO_END = {
    "throughput": "items/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "cpu_us_per_item": "us",
}

PER_LAYER = {
    "entropy.self_ms_per_op": "ms",
    "entropy.self_us_per_row": "us",
    "entropy.alpha_mutual_information.calls_per_op": "count",
    "entropy.conditional_renyi.calls_per_op": "count",
    "entropy.validations_per_row": "count",
    "cli.self_ms_per_op": "ms",
    "cli.bytes_per_op": "bytes",
    "uncertainty.self_ms_per_op": "ms",
    "uncertainty.closed_forms.us_per_row": "us",
    "uncertainty.optimize_s_max.ms_per_call": "ms",
    "uncertainty.optimize_s_max.evaluations_per_call": "count",
    "uncertainty.zeta_coefficients.ms_per_call": "ms",
    "linalg.self_ms_per_op": "ms",
    "linalg.hermitian_eigenvalues.calls_per_op": "count",
    "linalg.spectral_norm.calls_per_op": "count",
    "discrimination.self_ms_per_op": "ms",
    "discrimination.outcome_probs.calls_per_op": "count",
    "discrimination.build_povm.calls_per_op": "count",
    "discrimination.born_probs.calls_per_op": "count",
    "discrimination.born_probs.us_per_call": "us",
    "probe.self_ms_per_op": "ms",
    "simulator.self_ms_per_op": "ms",
    "simulator.ns_per_round": "ns",
    "simulator.philox_ns_per_round": "ns",
    "simulator.tally_ns_per_round": "ns",
    "simulator.chunks_per_op": "count",
    "simulator.setup_us_per_session": "us",
    "bench.self_ms_per_op": "ms",
    "trace.op_ms": "ms",
    "trace.throughput_ratio": "ratio",
    **{f"{layer}.errors": "count" for layer in
       ("probe", "discrimination", "entropy", "uncertainty", "linalg", "simulator", "cli")},
}


WARMUP, MEASURE, TRACED = 0, 1, 2  # input streams, one per phase
MAX_REPORTED_PROBLEMS = 20


def measure_setup(root: Path, repeats: int, speed: calibrate.SpeedTrack) -> tuple[float, list[float]]:
    """Median wall time of a fresh interpreter running `import fpbprobe.cli`.

    Returns the scaled median and the raw samples.
    """
    src = str(root / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    cmd = [sys.executable, "-c", "import fpbprobe.cli"]
    subprocess.run(cmd, env=env, cwd=root, check=True)  # writes the bytecode cache once
    raw, scaled = [], []
    speed.sample()
    for _ in range(repeats):
        c0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter_ns()
        subprocess.run(cmd, env=env, cwd=root, check=True)
        t1 = time.perf_counter_ns()
        c1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        speed.sample()
        cpu_s = (c1.ru_utime - c0.ru_utime) + (c1.ru_stime - c0.ru_stime)
        raw.append((t1 - t0) * 1e-9)
        scaled.append(calibrate.scaled(raw[-1], cpu_s, speed.factor(t0, t1)))
    return statistics.median(scaled), raw


class Phase:
    """Per-op records of one measurement phase."""

    def __init__(self):
        # Flat arrays: per-op records add no objects for the garbage collector
        # to walk, and memory that grows with the op count stays small.
        self.start_ns = array("q")
        self.latency_ns = array("q")
        self.cpu_by_op = array("q")
        self.rows_by_op = array("q")
        self.bytes_by_op = array("q")
        self.scale = array("d")  # reference-speed factor per op
        self.items = 0
        self.rounds = 0
        self.sessions = 0
        self.philox_ns = 0
        self.failed = 0

    @property
    def attempted(self) -> int:
        return len(self.latency_ns)

    def scaled_latency_ns(self) -> list[float]:
        return [calibrate.scaled(lat, cpu, f) for lat, cpu, f in zip(self.latency_ns, self.cpu_by_op, self.scale)]

    def throughput(self) -> float:
        """Items of the ops that passed their checks per scaled second of op time."""
        return self.items / (sum(self.scaled_latency_ns()) * 1e-9)


def run_phase(wl, phase: int, seconds: float, min_ops: int, problems: list,
              speed: calibrate.SpeedTrack, tracer=None) -> Phase:
    """Closed loop: the next op starts when the previous op and its checks end."""
    ph = Phase()
    deadline = time.perf_counter() + seconds
    while ph.attempted < min_ops or time.perf_counter() < deadline:
        if speed.due():
            speed.sample()
        k = ph.attempted
        inp = wl.input(phase, k)
        c0, t0 = time.process_time_ns(), time.perf_counter_ns()
        try:
            with tracer.op(k) if tracer else nullcontext():
                out = wl.run(inp)
            error = None
        except Exception as exc:  # a raising op counts as failed; the loop goes on
            out, error = None, f"{type(exc).__name__}: {exc}"
        t1, c1 = time.perf_counter_ns(), time.process_time_ns()
        ph.start_ns.append(t0)
        ph.latency_ns.append(t1 - t0)
        ph.cpu_by_op.append(c1 - c0)
        ph.rows_by_op.append(wl.rows(inp))
        found = [error] if error else wl.check(inp, out)
        ph.bytes_by_op.append(0 if error else wl.out_bytes(out))
        if found:
            ph.failed += 1
            problems.extend(f"phase {phase} op {k}: {msg}" for msg in found)
            continue
        ph.items += wl.items(inp)
        for seed, rounds in wl.sessions(inp):
            ph.rounds += rounds
            ph.sessions += 1
            if tracer:
                ph.philox_ns += workloads.philox_fill_ns(seed, rounds)
    speed.sample()
    ph.scale = array("d", (speed.factor(t0, t0 + lat) for t0, lat in zip(ph.start_ns, ph.latency_ns)))
    return ph


def end_to_end_metrics(ph: Phase, setup_s: float, raw_setup_s: float) -> tuple[dict, dict]:
    """End-to-end metrics at reference speed, and the same from raw times."""
    def timings(latency, cpu):
        tail, pct, beyond = checks.tail_latency(latency)
        return {
            "throughput": ph.items / (sum(latency) * 1e-9),
            "op_p50_ms": statistics.median(latency) * 1e-6,
            "op_tail_ms": tail * 1e-6,
            "cpu_us_per_item": sum(cpu) * 1e-3 / max(ph.items, 1),
        }, pct, beyond

    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scaled_cpu = [c * f for c, f in zip(ph.cpu_by_op, ph.scale)]
    values, pct, beyond = timings(ph.scaled_latency_ns(), scaled_cpu)
    values.update(setup_s=setup_s, peak_rss_mib=rss)
    raw, _, _ = timings(ph.latency_ns, ph.cpu_by_op)
    raw.update(setup_s=raw_setup_s, peak_rss_mib=rss)
    extra = {
        "op_tail_percentile": pct,
        "op_tail_ops_beyond": beyond,
        "failed_ratio": ph.failed / ph.attempted,
        "raw": raw,
        "speed_scale_median": statistics.median(ph.scale),
    }
    return values, extra


def per_layer_metrics(spans: tracing.Spans, ph: Phase, wl, untraced: Phase) -> dict:
    """Per-layer metrics of the traced phase.

    Times are taken over every traced op.  Counts are taken over the
    first `wl.count_ops` ops, whose inputs depend only on the seed, so a
    count repeats exactly for a given seed.  A "row" is one CSV data row
    for the CLI sweeps and one session for the session workloads.
    """
    n_ops = ph.attempted
    counted = spans.op < wl.count_ops
    counted_rows = max(sum(ph.rows_by_op[:wl.count_ops]), 1)
    rows = max(sum(ph.rows_by_op), 1)

    def calls(name: str) -> int:
        return int((spans.mask(name) & counted).sum())

    def per_op(name: str) -> float:
        return calls(name) / wl.count_ops

    def time_per_call(name: str, scale: float) -> float:
        m = spans.mask(name)
        return float(spans.dur[m].sum()) * scale / int(m.sum()) if m.any() else 0.0

    closed_forms = np.zeros(spans.name.size, dtype=bool)
    for name in tracing.CLOSED_FORMS:
        closed_forms |= spans.mask(name)
    top_closed_forms = closed_forms & ~spans.under(tracing.CLOSED_FORMS)
    evaluations = spans.mask("uncertainty.naimark_basis") | spans.mask("uncertainty.overlap_matrix")
    evaluations &= spans.under(("uncertainty.optimize_s_max",)) & counted
    optimizer_calls = calls("uncertainty.optimize_s_max")
    chunk_ns = int(spans.dur[spans.mask("simulator._run_chunk")].sum())
    session_ns = int(spans.dur[spans.mask("simulator.run_session")].sum())
    ns_per_round = chunk_ns / ph.rounds if ph.rounds else 0.0
    philox_per_round = ph.philox_ns / ph.rounds if ph.rounds else 0.0
    layer_ns = spans.layer_self_ns(np.ones(spans.name.size, dtype=bool))

    values = {f"{layer}.self_ms_per_op": ns * 1e-6 / n_ops for layer, ns in layer_ns.items()}
    values.update({
        "entropy.self_us_per_row": layer_ns["entropy"] * 1e-3 / rows,
        "entropy.alpha_mutual_information.calls_per_op": per_op("entropy.alpha_mutual_information"),
        "entropy.conditional_renyi.calls_per_op": per_op("entropy.conditional_renyi"),
        "entropy.validations_per_row":
            (calls("entropy.Distribution") + calls("entropy.JointDistribution")) / counted_rows,
        "cli.bytes_per_op": sum(ph.bytes_by_op[:wl.count_ops]) / wl.count_ops,
        "uncertainty.closed_forms.us_per_row": float(spans.dur[top_closed_forms].sum()) * 1e-3 / rows,
        "uncertainty.optimize_s_max.ms_per_call": time_per_call("uncertainty.optimize_s_max", 1e-6),
        "uncertainty.optimize_s_max.evaluations_per_call":
            int(evaluations.sum()) / optimizer_calls if optimizer_calls else 0.0,
        "uncertainty.zeta_coefficients.ms_per_call": time_per_call("uncertainty.zeta_coefficients", 1e-6),
        "linalg.hermitian_eigenvalues.calls_per_op": per_op("linalg.hermitian_eigenvalues"),
        "linalg.spectral_norm.calls_per_op": per_op("linalg.spectral_norm"),
        "discrimination.outcome_probs.calls_per_op": per_op("discrimination.outcome_probs"),
        "discrimination.build_povm.calls_per_op": per_op("discrimination.build_povm"),
        "discrimination.born_probs.calls_per_op": per_op("discrimination.born_probs"),
        "discrimination.born_probs.us_per_call": time_per_call("discrimination.born_probs", 1e-3),
        "simulator.ns_per_round": ns_per_round,
        "simulator.philox_ns_per_round": philox_per_round,
        "simulator.tally_ns_per_round": ns_per_round - philox_per_round,
        "simulator.chunks_per_op": per_op("simulator._run_chunk"),
        "simulator.setup_us_per_session": (session_ns - chunk_ns) * 1e-3 / ph.sessions if ph.sessions else 0.0,
        "trace.op_ms": float(spans.dur[spans.parent < 0].sum()) * 1e-6 / n_ops,
        "trace.throughput_ratio": ph.throughput() / untraced.throughput(),
    })
    values.update({f"{layer}.errors": count for layer, count in zip(tracing.LAYERS, spans.errors)})
    return values


def git_info(root: Path) -> dict:
    if not (root / ".git").exists():
        return {"sha": None, "dirty": None}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=root, capture_output=True, text=True)
    except OSError:
        return {"sha": None, "dirty": None}
    return {"sha": sha.stdout.strip() or None, "dirty": bool(status.stdout.strip())}


def blas_info() -> dict:
    info = {"vendor": None, "threads": None, "env": {v: os.environ.get(v) for v in THREAD_VARS}}
    try:
        info["vendor"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def metadata(args, wl, root: Path) -> dict:
    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "loop": "closed, one client, one process",
        "item_unit": wl.item_unit,
        "argv_templates": list(wl.argv_templates),
        "git": git_info(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def warm_up(wl, problems: list) -> None:
    """Run op 0 twice on the same input; the outputs must be identical."""
    inp = wl.input(WARMUP, 0)
    try:
        first, second = wl.run(inp), wl.run(inp)
    except Exception as exc:  # reported as a failed check, like any op
        problems.append(f"warm-up: {type(exc).__name__}: {exc}")
        return
    problems.extend(f"warm-up: {msg}" for msg in wl.check(inp, first))
    if not wl.same(first, second):
        problems.append("warm-up: the same input gave different outputs")


def run(args, root: Path) -> int:
    wl = workloads.make(args.workload, args.seed, args.smoke)
    problems: list[str] = []
    meta = metadata(args, wl, root)
    speed = calibrate.SpeedTrack()
    warm_up(wl, problems)
    if args.trace == 0:
        setup_s, samples = measure_setup(root, 3 if args.smoke else 9, speed)
        ph = run_phase(wl, MEASURE, args.seconds, 1, problems, speed)
        values, extra = end_to_end_metrics(ph, setup_s, statistics.median(samples))
        units = END_TO_END
        meta.update(extra, setup_raw_samples_s=samples)
        phases = [ph]
    else:
        untraced = run_phase(wl, MEASURE, args.seconds / 3.0, 1, problems, speed)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_phase(wl, TRACED, args.seconds * 2.0 / 3.0, wl.count_ops, problems, speed, tracer)
        finally:
            tracer.uninstall()
        spans = tracer.summary()
        values = per_layer_metrics(spans, traced, wl, untraced)
        units = PER_LAYER
        gap = spans.unaccounted_ns()
        if gap:
            problems.append(f"layer self times miss an op's traced time by {gap} ns")
        out_dir = Path(__file__).resolve().parent / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"{wl.name}.spans.npz"
        spans.write(spans_path)
        meta.update(spans=len(spans.dur), spans_file=str(spans_path.relative_to(root)),
                    trace_overhead=values["trace.throughput_ratio"], untraced_ops=untraced.attempted)
        phases = [untraced, traced]
    pooled, pool_detail = wl.finish()
    problems.extend(pooled)
    attempted = sum(ph.attempted for ph in phases)
    failed = sum(ph.failed for ph in phases)
    meta.update(
        ops=phases[-1].attempted,
        items_per_op=phases[-1].items / max(phases[-1].attempted - phases[-1].failed, 1),
        rows_per_op=sum(phases[-1].rows_by_op) / phases[-1].attempted,
        pooled_test=pool_detail,
        problems=problems[:MAX_REPORTED_PROBLEMS],
        problem_count=len(problems),
    )
    for msg in problems[:MAX_REPORTED_PROBLEMS]:
        print(f"check failed: {msg}", file=sys.stderr)
    for name, value in values.items():
        print(f"{wl.name:15s} {name:50s} {value:>18.6f} {units[name]}")
    if args.trace == 0:
        print(f"{wl.name:15s} {'failed_ratio':50s} {meta['failed_ratio']:>18.6f} ratio")
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0
