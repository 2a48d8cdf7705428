"""The repo benchmark: one command per workload, checked outputs, named metrics.

Run from the repository root::

    python3 perfbench/run.py --workload stream-cold --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics (tracing off); ``--trace 1``
alternates untraced and traced passes and prints the per-layer ledger, the
tracing overhead and the deterministic-counter fingerprint.  The last line
of standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it repeat every metric with its unit.  Any
failed check makes the exit code 1.  Artifacts (result records, the Chrome
trace, fingerprints, telemetry and checkpoint scratch) go to ``.perfbench/``
under the working directory.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from ledger import check_metric_name, dump_json, percentile, to_chrome_trace  # noqa: E402

OUT_DIR = Path(".perfbench")

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ticks_per_s": "1/s",
    "tick_p50_us": "us",
    "tick_p99_us": "us",
    "round_p50_ms": "ms",
    "exact_solve_s": "s",
    "approx_solve_s": "s",
    "online_batch_s": "s",
    "sweep_s": "s",
    "cost_ratio_max": "ratio",
    "peak_rss_mb": "MB",
}

#: Printed and recorded with the end-to-end metrics, but not declared in
#: ``BENCHMARK.json``: ``fleet-hot``'s round tail is its checkpoint rounds,
#: whose time is bound by fsync on a disk the host shares, a noise source
#: the CPU-bound metrics do not have; no bound gates it.
ADVISORY = {"round_p99_ms": "ms"}

#: Per-layer metrics (``--trace 1``): name -> unit.  ``*.self_s`` are mean
#: self seconds per traced pass; counts are per pass (identical every pass).
PER_LAYER = {
    "scenarios.build_s": "s",
    "cache.prewarm_s": "s",
    "dispatch.solve_block.calls": "count",
    "dispatch.solve_block.self_s": "s",
    "dispatch.slot_queries": "count",
    "dispatch.unique_solves": "count",
    "dispatch.cache_hit_rate": "ratio",
    "dispatch.bisection_iterations": "count",
    "dispatch.cold_solves": "count",
    "cache.solve_config.calls": "count",
    "cache.solve_config.self_s": "s",
    "cache.grid_tensor.calls": "count",
    "cache.grid_tensor.self_s": "s",
    "cache.tensor_hit_rate": "ratio",
    "cache.table_gathers": "count",
    "transitions.apply.calls": "count",
    "transitions.apply.self_s": "s",
    "transitions.cells": "count",
    "transitions.transition.calls": "count",
    "transitions.transition.self_s": "s",
    "dp.cost_tensors.self_s": "s",
    "dp.backtrack.self_s": "s",
    "dp.forward.self_s": "s",
    "online.step.A.self_s": "s",
    "online.step.B.self_s": "s",
    "online.step.C.self_s": "s",
    "online.step.LCP.self_s": "s",
    "online.step.baseline.self_s": "s",
    "tracker.observe.calls": "count",
    "tracker.observe.self_s": "s",
    "online.run_online.self_s": "s",
    "session.observe.self_s": "s",
    "session.prepare.self_s": "s",
    "session.decide.self_s": "s",
    "session.commit.self_s": "s",
    "batch.run.self_s": "s",
    "batch.round.self_s": "s",
    "batch.batched_ticks": "count",
    "batch.fallback_ticks": "count",
    "batch.hit_rate": "ratio",
    "batch.avg_cohort_size": "count",
    "batch.table_installs": "count",
    "feed.next.self_s": "s",
    "telemetry.write.calls": "count",
    "telemetry.write.self_s": "s",
    "telemetry.bytes": "bytes",
    "checkpoint.build.self_s": "s",
    "checkpoint.save.calls": "count",
    "checkpoint.save.self_s": "s",
    "checkpoint.bytes": "bytes",
    "exp.run_plan.self_s": "s",
    "exp.run_instance.calls": "count",
    "layer.scenarios.self_s": "s",
    "layer.dispatch.self_s": "s",
    "layer.serve.session.self_s": "s",
    "layer.offline.transitions.self_s": "s",
    "layer.offline.dp.self_s": "s",
    "layer.online.self_s": "s",
    "layer.serve.batch.self_s": "s",
    "layer.serve.feed.self_s": "s",
    "layer.serve.telemetry.self_s": "s",
    "layer.exp.self_s": "s",
    "trace.wall_s": "s",
    "trace.unattributed_frac": "fraction",
    "trace.overhead_ratio": "ratio",
}

#: Counters whose per-pass values must repeat exactly for a fixed seed.
FINGERPRINT = (
    "dispatch.solve_block.calls",
    "dispatch.slot_queries",
    "dispatch.unique_solves",
    "dispatch.bisection_iterations",
    "dispatch.cold_solves",
    "cache.solve_config.calls",
    "cache.grid_tensor.calls",
    "cache.table_gathers",
    "transitions.apply.calls",
    "transitions.cells",
    "tracker.observe.calls",
    "batch.batched_ticks",
    "batch.fallback_ticks",
    "telemetry.write.calls",
    "checkpoint.save.calls",
    "exp.run_instance.calls",
)


#: The phase timings each pass records per unit (see ``workloads``).
PHASES = ("setup_s", "wall_s", "exact_solve_s", "approx_solve_s", "online_batch_s", "sweep_s")


def environment() -> dict:
    """The stamp written into every record: interpreter, NumPy, CPUs, BLAS threads."""
    import numpy

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "blas_threads": {name: os.environ.get(name) for name in blas},
    }


def source_digest() -> str:
    """Digest of the program and benchmark sources (keys stored fingerprints)."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_passes(workload, seed: int, seconds: float, trace: bool):
    """Run passes until ``seconds`` of pass time and the workload's minimum.

    With ``trace`` the first pass runs untraced (it pays the process's
    one-time costs and the full checks), then traced and untraced passes
    alternate, ending on an untraced one.  Returns ``(records, ledgers)``
    where ``ledgers`` holds ``(record, ledger, counts, spans)`` of every
    traced pass.
    """
    from probes import Probes
    from workloads import PassRecord

    records, ledgers = [], []
    elapsed = 0.0
    minimum = 3 if trace else workload.min_passes
    work = str(OUT_DIR / "work" / f"{workload.name}-{os.getpid()}")
    while len(records) < minimum or elapsed < seconds or (trace and len(records) % 2 == 0):
        rec = PassRecord()
        started = time.perf_counter()
        if trace and len(records) % 2:
            with Probes() as probes:
                workload.run_pass(seed, rec, probes.recorder, work)
            rec.pass_s = time.perf_counter() - started
            ledger = probes.recorder.ledger()
            counts = dict(probes.counts)
            counts.update(rec.counts)
            ledgers.append((rec, ledger, counts, probes.recorder.spans))
        else:
            workload.run_pass(seed, rec, None, work)
            rec.pass_s = time.perf_counter() - started
        workload.check(rec, records[0] if records else None)
        rec.ref = None
        # every pass starts from the same collector state: this pass's garbage
        # is freed here, untimed, and what survives (the records) is kept out
        # of the collections that later passes pay for
        gc.collect()
        gc.freeze()
        elapsed += rec.pass_s
        records.append(rec)
    shutil.rmtree(work, ignore_errors=True)
    return records, ledgers


def per_sample_floor(series) -> list:
    """Element-wise minimum over passes of samples kept in the same order.

    The i-th sample of every pass is the same work on the same inputs, so its
    floor over passes keeps the work and drops what a busy machine added to
    it; the percentiles are then read over the distinct samples.
    """
    import numpy as np

    lengths = {len(samples) for samples in series}
    if len(lengths) != 1:
        raise AssertionError(f"passes recorded different sample counts: {sorted(lengths)}")
    return np.min(np.asarray(series, dtype=float), axis=0).tolist()


def phase_time(records, metric: str) -> float:
    """A phase's time: the sum over its units of each unit's floor over
    every sample the passes recorded for it.  ``setup_s`` takes each unit's
    median instead: set-up runs once a pass, and its median over the passes
    is what a later change must not make worse."""
    samples = {}
    for rec in records:
        for unit, values in rec.units.get(metric, {}).items():
            samples.setdefault(unit, []).extend(values)
    reduce = statistics.median if metric == "setup_s" else min
    return sum(reduce(values) for values in samples.values())


def end_to_end(workload, records) -> tuple:
    """The end-to-end metrics and their sample counts."""
    ticks = per_sample_floor([rec.tick_ns for rec in records])
    rounds = per_sample_floor([rec.round_ns for rec in records])
    values = {phase: phase_time(records, phase) for phase in PHASES}
    values.update({
        "ticks_per_s": records[0].ticks / values[workload.decide_metric],
        "tick_p50_us": percentile(ticks, 50) / 1e3,
        "tick_p99_us": percentile(ticks, 99) / 1e3,
        "round_p50_ms": percentile(rounds, 50) / 1e6,
        "round_p99_ms": percentile(rounds, 99) / 1e6,
        "cost_ratio_max": max(r for rec in records for r in rec.ratios),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    samples = {"passes": len(records), "tick_samples": len(ticks), "round_samples": len(rounds)}
    return values, samples


def per_layer(records, ledgers) -> tuple:
    """Per-layer metrics (means over traced passes) and the fingerprint."""
    traced = {id(rec) for rec, _, _, _ in ledgers}
    untraced = [rec for rec in records[1:] if id(rec) not in traced]
    n = len(ledgers)

    def self_s(name):
        return sum(lg["names"].get(name, {}).get("self_ns", 0) for _, lg, _, _ in ledgers) / n / 1e9

    counts = []
    for _, lg, extra, _ in ledgers:
        row = {f"{name}.calls": v["calls"] for name, v in lg["names"].items()}
        row.update(extra)
        counts.append(row)
    first = counts[0]

    def count(name):
        return first.get(name, 0)

    values = {}
    for name, unit in PER_LAYER.items():
        if name.endswith(".calls") or unit in ("count", "bytes"):
            values[name] = count(name)
        elif name.startswith("layer."):
            layer = name[len("layer."):-len(".self_s")]
            values[name] = sum(lg["layers"].get(layer, 0) for _, lg, _, _ in ledgers) / n / 1e9
        elif name.endswith(".self_s"):
            values[name] = self_s(name[: -len(".self_s")])
    values["scenarios.build_s"] = self_s("scenarios.build")
    values["cache.prewarm_s"] = self_s("cache.prewarm")
    queries = count("dispatch.slot_queries")
    values["dispatch.cache_hit_rate"] = 1.0 - count("dispatch.unique_solves") / queries if queries else 0.0
    lookups = count("cache.tensor_hits") + count("cache.tensor_misses")
    values["cache.tensor_hit_rate"] = count("cache.tensor_hits") / lookups if lookups else 0.0
    values["batch.hit_rate"] = count("batch.hit_rate")

    walls = [lg["wall_ns"] / 1e9 for _, lg, _, _ in ledgers]
    values["trace.wall_s"] = sum(walls) / n
    values["trace.unattributed_frac"] = (
        sum(lg["unattributed_ns"] for _, lg, _, _ in ledgers) / sum(lg["wall_ns"] for _, lg, _, _ in ledgers)
    )
    values["trace.overhead_ratio"] = statistics.median(walls) / statistics.median(
        rec.pass_s for rec in untraced
    )
    fingerprints = [{name: row.get(name, 0) for name in FINGERPRINT} for row in counts]
    return values, fingerprints


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        # measure the checkout's own program, never an installed copy
        sys.exit(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}")

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (known: {', '.join(WORKLOADS)})")
    workload = WORKLOADS[args.workload]
    env = environment()
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}"

    records, ledgers = run_passes(workload, args.seed, args.seconds, bool(args.trace))
    attempted = sum(rec.attempted for rec in records)
    failed = sum(rec.failed for rec in records)
    errors = [e for rec in records for e in rec.errors]

    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env,
              "passes": [dict({p: rec.total(p) for p in PHASES}, pass_s=rec.pass_s) for rec in records]}
    if args.trace:
        values, fingerprints = per_layer(records, ledgers)
        units = PER_LAYER
        attempted += 1
        if any(fp != fingerprints[0] for fp in fingerprints):
            failed += 1
            errors.append(f"fingerprint differs between traced passes: {fingerprints}")
        stored = OUT_DIR / f"fingerprint-{tag}-{source_digest()}.json"
        if stored.exists():
            attempted += 1
            previous = json.loads(stored.read_text())["fingerprint"]
            if previous != fingerprints[0]:
                failed += 1
                errors.append(f"fingerprint differs from the previous run: {previous} vs {fingerprints[0]}")
        else:
            dump_json(stored, {"env": env, "fingerprint": fingerprints[0]})
        record["fingerprint"] = fingerprints[0]
        record["samples"] = {"passes": len(records), "traced_passes": len(ledgers)}
        trace_path = OUT_DIR / f"trace-{tag}.json"
        dump_json(trace_path, to_chrome_trace(ledgers[0][3], meta=record))
        print(f"fingerprint {json.dumps(fingerprints[0], sort_keys=True)}")
        print(f"trace {trace_path}")
    else:
        values, samples = end_to_end(workload, records)
        units = END_TO_END
        record["samples"] = samples
        print(f"samples {json.dumps(samples)}")
    error_rate = failed / attempted
    record.update({"metrics": values, "attempted": attempted, "failed": failed,
                   "error_rate": error_rate, "errors": errors})
    dump_json(OUT_DIR / f"result-{tag}-trace{args.trace}.json", record)

    print(f"env {json.dumps(env, sort_keys=True)}")
    for error in errors:
        print(f"FAIL: {error}", file=sys.stderr)
    metrics = {}
    for name, unit in units.items():
        check_metric_name(name)
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name} {values[name]:.6g} {unit}")
    if not args.trace:
        for name, unit in ADVISORY.items():
            print(f"{name} {values[name]:.6g} {unit} (advisory)")
    print(f"error_rate {error_rate:.6g} fraction ({failed}/{attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
