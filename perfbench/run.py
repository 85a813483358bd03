"""The repository benchmark: the planarity tester in-process and through
the service, end to end (``--trace 0``) and per layer (``--trace 1``).

Run from the root of a checkout::

    python3 perfbench/run.py --workload tester-planar --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it records the workload, the seed and the software versions.  ``all``
runs every workload in its own process and prints a table.

Untraced runs time each op with nothing wrapped.  A traced run measures
half of ``--seconds`` untraced, then wraps every layer (see
``tracing.py``) and measures the other half; ``trace.overhead_ratio`` is
the traced throughput over the untraced one.  Spans are written to
``.perfbench/trace-<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

UNITS = {
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "first_record_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


REFUSED_ENV = ("REPRO_TELEMETRY", "REPRO_TRACE_DIR", "REPRO_TRACE_PARENT",
               "REPRO_SIM_PROFILE", "REPRO_SIM_PLANE")
"""Program settings outside ``RunConfig``; any value changes what runs."""


def environment_problems() -> list:
    """Settings that would make a run measure something else: telemetry,
    or any program knob set away from its default."""
    from repro.runtime.config import RunConfig

    problems = [f"{var} is set" for var in REFUSED_ENV if os.environ.get(var)]
    for field in dataclasses.fields(RunConfig):
        var = RunConfig.env_var(field.name)
        raw = os.environ.get(var)
        if not raw:
            continue
        value = RunConfig().resolve(field.name)
        del os.environ[var]
        default = RunConfig().resolve(field.name)
        os.environ[var] = raw
        if value != default:
            problems.append(f"{var}={raw} (default {default!r})")
    return problems


def versions(seed: int) -> dict:
    import networkx
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def settle() -> None:
    """Collect the set-up's garbage, so timing starts from a clean heap.
    The set-up's live objects (the graph pool) stay in the heap that later
    collections scan, as a caller's own data would."""
    gc.collect()


def measure(workload, host, seconds: float, first_index: int, recorder=None) -> list:
    """Closed loop: ops back to back until *seconds* have passed, with a
    host-speed sample between consecutive ops.  The garbage collector is
    paused between ops (see ``workloads.collecting``)."""
    from tracing import clock

    results = []
    gc.disable()
    try:
        samples = [host.sample() for _ in range(host.WINDOW)]
        deadline = clock() + seconds
        while not results or clock() < deadline:
            results.append(workload.op(first_index + len(results), recorder))
            results[-1].rss_mb = peak_rss_mb()
            samples.append(host.sample())
        samples += [host.sample() for _ in range(host.WINDOW - 1)]
    finally:
        gc.enable()
    for position, result in enumerate(results):
        result.scale = host.scale(samples, position + host.WINDOW - 1)
    return results


def timings(results: list, scaled: bool = True) -> dict:
    """Throughput and latency figures of *results*, scaled to the
    reference host speed unless *scaled* is false."""
    scale = [r.scale if scaled else 1.0 for r in results]
    latencies = sorted(r.latency_s * s for r, s in zip(results, scale))
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[-1] \
        if len(latencies) > 1 else latencies[0]
    return {
        "throughput_per_s": sum(r.units for r in results) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "first_record_p50_ms":
            statistics.median(r.first_s * s for r, s in zip(results, scale)) * 1e3,
    }


def end_to_end(results: list, setup_s: float, window) -> dict:
    """End-to-end figures: timings and peak RSS over the first *window*
    ops (all of them when *window* is ``None`` or the run is shorter),
    correctness over every op."""
    failed = sum(not r.ok for r in results)
    counted = results[:window]
    values = dict(timings(counted), setup_s=setup_s, peak_rss_mb=counted[-1].rss_mb,
                  ok_ratio=1.0 - failed / len(results))
    return {name: {"value": value, "unit": UNITS[name]}
            for name, value in values.items()}


SELF_SECONDS = {
    "planarity.lr_s": ("planarity.lr",),
    "testers.stage2.extract_s": ("testers.stage2.extract",),
    "testers.labels_s": ("testers.labels",),
    "testers.violations.sample_s": ("testers.violations.sample",),
    "testers.stage2.self_s": ("testers.stage2", "testers.stage2.part"),
    "partition.stage1_s": ("partition.stage1",),
    "partition.aux_s": ("partition.aux",),
    "partition.forest_s": ("partition.forest",),
    "partition.cv_s": ("partition.cv",),
    "partition.mark_s": ("partition.mark",),
    "partition.merge_s": ("partition.merge",),
    "congest.topology.compile_s": ("congest.topology.compile",),
    "graphs.validate_s": ("graphs.validate",),
    "runtime.worker.handle_s": ("runtime.worker.handle",),
    "runtime.jobs.run_job_s": ("runtime.jobs.run_job",),
    "runtime.service.enqueue_s": ("runtime.service.enqueue",),
    "runtime.client.connect_s": ("runtime.client.connect",),
    "runtime.store.put_raw_s": ("runtime.store.put_raw",),
    "runtime.store.get_raw_s": ("runtime.store.get_raw",),
    "runtime.cache.key_s": ("runtime.cache.key",),
    "runtime.scheduler.cost_model_s": ("runtime.scheduler.cost_model",),
    "runtime.codec.encode_s": ("runtime.codec.encode",),
    "runtime.codec.decode_s": ("runtime.codec.decode",),
}
"""Per-layer metric -> the spans whose self seconds per op it sums."""

CALLS = {
    "testers.stage2.parts": "testers.stage2.part",
    "partition.phases": "partition.forest",
    "runtime.jobs.run_job_calls": "runtime.jobs.run_job",
    "runtime.store.put_raw_calls": "runtime.store.put_raw",
    "runtime.store.get_raw_calls": "runtime.store.get_raw",
}
"""Per-layer count -> the span whose calls per op it counts."""


def mean(values, empty: float = 0.0) -> float:
    return sum(values) / len(values) if values else empty


def per_layer(p, workload, untraced: list, traced: list) -> dict:
    """The per-layer metrics of profile *p*: self seconds and exact
    counts per op, plus the fleet and trace figures.  Per-layer seconds
    are raw wall (or CPU) seconds; the ``raw.*`` figures are the untraced
    half's end-to-end timings without host-speed scaling, and
    ``host.scale`` is the median factor that scaling applied."""
    raw = timings(untraced, scaled=False)
    overhead_ratio = (timings(traced)["throughput_per_s"]
                      / timings(untraced)["throughput_per_s"])
    values = {name: (p.per_op(*spans), "s") for name, spans in SELF_SECONDS.items()}
    values.update((name, (p.calls_per_op(span), "count"))
                  for name, span in CALLS.items())
    workers = workload.workers
    handle_s = p.wall_s.get("runtime.worker.handle", 0.0)
    records = sum(r.units for r in traced)
    values.update({
        # In-process testers generate their graphs in set-up, one per op.
        "graphs.generate_s": (mean(getattr(workload, "generate_s", []))
                              or p.per_op("graphs.generate"), "s"),
        "runtime.client.receive_s": (p.cpu_per_op("runtime.client.receive"), "s"),
        "runtime.worker.utilization": (
            handle_s / (workers * p.op_seconds) if workers else 0.0, "ratio"),
        "runtime.service.overhead_ms_per_job": (
            (p.op_seconds * workers - handle_s) / records * 1e3
            if workers and records else 0.0, "ms"),
        "runtime.store.hit_ratio": (
            mean(p.notes.get("runtime.store.get_raw")), "ratio"),
        "runtime.codec.wire_bytes_per_record": (
            mean(p.notes.get("runtime.codec.encode")), "B"),
        "trace.op_s": (p.op_seconds / max(p.count, 1), "s"),
        "unattributed_s": (p.unattributed_s / max(p.count, 1), "s"),
        "layer_coverage": (p.coverage, "ratio"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
        "raw.throughput_per_s": (raw["throughput_per_s"], "1/s"),
        "raw.latency_p50_ms": (raw["latency_p50_ms"], "ms"),
        "raw.latency_p90_ms": (raw["latency_p90_ms"], "ms"),
        "host.scale": (statistics.median(r.scale for r in untraced), "ratio"),
    })
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: Path, **sizes):
    """One workload end to end: ``(result object, unscaled timings)``."""
    import tracing
    import workloads

    host = workloads.HostClock()
    workload = workloads.make(name, **sizes)
    try:
        setup_s = workload.setup(seed, workdir, host)
        workload.warmup()
        settle()
        if not trace:
            results = measure(workload, host, seconds, 0)
            workload.verify(results)
            metrics = end_to_end(results, setup_s, workload.window)
        else:
            untraced = measure(workload, host, seconds / 2, 0)
            workload.verify(untraced)
            recorder = tracing.SpanRecorder()
            if workload.workers:
                workload.teardown()
                workload.setup(seed, workdir, host, traced=True)
                recorder.install(tracing.SERVICE_LAYERS)
            else:
                recorder.install(tracing.TESTER_LAYERS)
            try:
                workload.warmup()
                settle()
                traced = measure(workload, host, seconds / 2, len(untraced), recorder)
            finally:
                recorder.uninstall()
            workload.verify(traced)
            rows = recorder.rows()
            if workload.workers:
                workload.teardown()
                rows += workload.fleet.worker_rows()
            profile = tracing.Profile(rows)
            OUT.mkdir(exist_ok=True)
            tracing.write_rows(str(OUT / f"trace-{name}-seed{seed}.jsonl"), rows)
            metrics = per_layer(profile, workload, untraced, traced)
            results = untraced + traced
    finally:
        workload.teardown()
    failed = sum(not r.ok for r in results)
    result = {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": metrics,
    }
    return result, timings(results[:workload.window], scaled=False)


def run_all(args) -> int:
    """Every workload in its own process; prints one table."""
    import workloads

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in workloads.WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: exited with {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = entry
            rows.append((name, metric, entry["value"], entry["unit"]))
        failed_ratio = result["failed"] / result["attempted"]
        rows.append((name, "failed_ratio", failed_ratio, "ratio"))
        rows.append((name, "samples", result["attempted"], "count"))
    for name, metric, value, unit in rows:
        print(f"{name:<14} {metric:<38} {value:>14.6g} {unit}")
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    problems = environment_problems()
    if problems:
        print("perfbench: refusing to run with " + "; ".join(problems), file=sys.stderr)
        return 3
    if args.workload == "all":
        return run_all(args)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)} or all")
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        result, raw = run_workload(args.workload, args.seed, args.seconds,
                                   bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for metric, entry in result["metrics"].items():
        print(f"{args.workload} {metric} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"workload": args.workload,
                      "failed_ratio": result["failed"] / result["attempted"],
                      "unscaled": raw, "env": versions(args.seed)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
