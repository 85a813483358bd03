"""Shared infrastructure for the experiment benchmarks.

Every experiment module computes its table once (module-scoped fixture),
prints it, and persists two artifacts under ``benchmarks/results/``:

* a markdown copy of the table (``eXX_*.md``), the human-readable
  rendering EXPERIMENTS.md references;
* a machine-readable ``BENCH_eXX.json`` record -- the table's raw rows
  plus environment metadata (backend, python version, quick flag) and
  any experiment-supplied metrics (wall times, speedup ratios).  CI
  uploads these from every bench leg and
  ``benchmarks/baselines/`` holds committed quick-grid baselines, so
  the perf trajectory of the repo is diffable across PRs::

    pytest benchmarks/ --benchmark-only

The ``benchmark`` fixture times one representative kernel per experiment
(one tester/partition run), keeping wall-clock bounded while the table
itself covers the full parameter sweep.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import time

from repro.analysis.tables import Table

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

# BENCH json files this process already wrote: the first table of a run
# starts the record fresh (dropping stale tables from earlier runs);
# later tables of the same experiment merge in.
_WRITTEN_THIS_RUN = set()


def _bench_json_path(filename: str) -> pathlib.Path:
    experiment = filename.split("_", 1)[0]
    return RESULTS_DIR / f"BENCH_{experiment}.json"


def _environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "backend": os.environ.get("REPRO_BENCH_BACKEND", "serial"),
        "quick": quick_mode(),
        "cache_dir": bool(os.environ.get("REPRO_BENCH_CACHE_DIR")),
    }


def _telemetry_block() -> dict:
    """This process's tracer counters, embedded in every BENCH record.

    Benchmarks are expected to run with telemetry *disabled* (enabled
    false, zero spans); a non-zero span count in a BENCH record flags a
    leaked ``REPRO_TELEMETRY``/``REPRO_TRACE_DIR`` in the bench
    environment, which would taint the timings.
    """
    from repro.telemetry import get_tracer

    tracer = get_tracer()
    return {
        "enabled": tracer.enabled,
        "spans": tracer.span_count,
        "events": tracer.event_count,
        "traced_s": round(max(tracer.traced_seconds, 0.0), 6),
    }


def _sanitize_metrics(metrics) -> dict:
    """Clamp negative ``*_s`` duration metrics to zero.

    Durations come from paired ``perf_counter`` reads; a suspended VM
    or a buggy experiment can only ever produce a nonsense *negative*
    value, and a negative wall-time would silently invert speedup
    ratios in the perf-trajectory diff.
    """
    clean = {}
    for key, value in dict(metrics or {}).items():
        if (
            key.endswith("_s")
            and isinstance(value, (int, float))
            and not isinstance(value, bool)
            and value < 0
        ):
            value = 0.0
        clean[key] = value
    return clean


def record_bench(filename: str, table: Table, metrics=None) -> pathlib.Path:
    """Write/merge the ``BENCH_eXX.json`` record for one saved table.

    The record keys tables by their markdown stem, so experiments that
    save several tables accumulate them all under one experiment file.
    """
    path = _bench_json_path(filename)
    payload = None
    if path in _WRITTEN_THIS_RUN and path.is_file():
        try:
            payload = json.loads(path.read_text())
        except ValueError:
            payload = None
    if not isinstance(payload, dict):
        payload = {"schema": 1, "experiment": filename.split("_", 1)[0]}
    payload.update(_environment())
    payload["generated_unix"] = round(time.time(), 3)
    payload["telemetry"] = _telemetry_block()
    tables = payload.setdefault("tables", {})
    stem = filename.rsplit(".", 1)[0]
    tables[stem] = {
        "source": filename,
        "title": table.title,
        "columns": list(table.headers),
        "rows": [list(row) for row in table.rows],
        "metrics": _sanitize_metrics(metrics),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    _WRITTEN_THIS_RUN.add(path)
    return path


def save_table(table: Table, filename: str, metrics=None) -> None:
    """Print *table*; persist markdown + the machine-readable record.

    Args:
        table: the experiment's result table.
        filename: markdown filename under ``benchmarks/results/``
            (``eXX_<slug>.md`` -- the ``eXX`` prefix names the
            ``BENCH_eXX.json`` record).
        metrics: optional flat dict of experiment metrics (timings,
            speedup ratios, gate thresholds) for the JSON record.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / filename
    path.write_text(table.to_markdown() + "\n")
    record_bench(filename, table, metrics)
    table.print()


def paired_best(timers, repeats: int) -> dict:
    """Best of *repeats* per side, the sides taking turns.

    *timers* maps a side's name to a callable that takes the repeat
    number and returns seconds.  Each repeat times every side back to
    back, in alternating order, so a slow stretch on a shared host lands
    on both sides of a ratio instead of on whichever side happened to
    run then (or always ran first).
    """
    best = {name: float("inf") for name in timers}
    order = list(timers)
    for rep in range(repeats):
        for name in order if rep % 2 == 0 else order[::-1]:
            best[name] = min(best[name], timers[name](rep))
    return best


def quick_mode() -> bool:
    """Smaller sweeps when REPRO_BENCH_QUICK=1 (CI-friendly)."""
    return os.environ.get("REPRO_BENCH_QUICK", "0") == "1"


def bench_backend():
    """The runtime backend benchmark sweeps run on.

    ``REPRO_BENCH_BACKEND=process`` fans the sweep over a process pool
    (optionally sized by ``REPRO_BENCH_WORKERS``); the default stays
    serial so timings remain comparable across machines.  Records are
    identical either way -- the choice only affects wall-clock.
    """
    from repro.runtime import make_backend

    name = os.environ.get("REPRO_BENCH_BACKEND", "serial")
    if name == "process":
        workers = os.environ.get("REPRO_BENCH_WORKERS")
        return make_backend("process", max_workers=int(workers) if workers else None)
    return make_backend(name)


def bench_store():
    """The result store for benchmark sweeps, or ``None``.

    Every cell of one experiment's grid is a distinct spec, so a store
    could never hit within a run; it only pays off across runs.  Set
    ``REPRO_BENCH_CACHE_DIR`` to a directory to enable the persistent
    store (repeat benchmark runs then skip the simulator entirely); the
    default runs without one.
    """
    cache_dir = os.environ.get("REPRO_BENCH_CACHE_DIR")
    if not cache_dir:
        return None
    from repro.runtime import ShardedStore

    return ShardedStore(cache_dir)
