"""Merged traces and cost telemetry across the runtime backends.

The tracer's multi-process story is the whole point: pool and fleet
workers execute jobs in other processes, each sinking its own
``trace-<token>.jsonl``, and the merged directory must read back as one
coherent sweep -- globally unique span ids, every job span parented
under the orchestrator's sweep span via ``REPRO_TRACE_PARENT``.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
from pathlib import Path

import repro
from repro.cli import main
from repro.runtime import (
    CostBook,
    CostModel,
    JobSpec,
    RemoteBackend,
    ResultCache,
    SweepSpec,
    make_backend,
    run_jobs,
    run_sweep,
)
from repro.runtime.codec import encode_wire_frame, read_wire_frame
from repro.runtime.remote import PROTOCOL_VERSION
from repro.runtime.scheduler import cost_meta_key
from repro.telemetry import configure, read_events, read_metrics, top_spans
import pytest

SPECS = [
    JobSpec.make("test_planarity", family="grid", n=36, seed=seed,
                 epsilon=epsilon)
    for seed in (0, 1)
    for epsilon in (0.5, 0.25)
]

SWEEP = SweepSpec.make(
    "test_planarity", families=["grid"], ns=[36], seeds=[0, 1],
    epsilon=[0.5, 0.25],
)


@pytest.fixture
def trace_dir(tmp_path):
    target = tmp_path / "trace"
    configure(trace_dir=str(target))
    yield target
    configure(enabled=False)


def _assert_coherent_trace(trace_dir, result):
    """One sweep span; every job span a child of it; ids globally unique;
    records tagged with the span that produced them."""
    events = read_events(trace_dir)
    ids = [ev["id"] for ev in events]
    assert len(ids) == len(set(ids)), "span ids collided across processes"
    spans = [ev for ev in events if ev["ev"] == "span"]
    sweeps = [span for span in spans if span["name"] == "sweep"]
    assert len(sweeps) == 1
    jobs = [span for span in spans if span["name"] == "job"]
    assert len(jobs) == len(result.records)
    assert all(job["parent"] == sweeps[0]["id"] for job in jobs)
    assert {record["trace_span"] for record in result.records} == {
        job["id"] for job in jobs
    }
    assert all(record["trace_s"] >= 0.0 for record in result.records)
    return sweeps[0], jobs


def test_serial_sweep_trace(trace_dir):
    result = run_sweep(SWEEP, backend="serial")
    sweep, jobs = _assert_coherent_trace(trace_dir, result)
    assert sweep["attrs"]["executed"] == len(SPECS)
    assert all(job["pid"] == os.getpid() for job in jobs)


def test_process_backend_merged_trace(trace_dir):
    result = run_sweep(SWEEP, backend=make_backend("process", max_workers=2))
    _sweep, jobs = _assert_coherent_trace(trace_dir, result)
    # Jobs genuinely ran in pool workers, each with its own trace file,
    # yet the merged parent links cross the process boundary.
    assert all(job["pid"] != os.getpid() for job in jobs)
    assert len(list(trace_dir.glob("trace-*.jsonl"))) >= 2


def _worker_process(port):
    """A fleet worker as a subprocess, so its job spans land in a trace
    file of its own."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, env.get("PYTHONPATH")) if part
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro.runtime.worker",
         "--connect", f"127.0.0.1:{port}"],
        env=env,
    )


def test_remote_backend_merged_trace(trace_dir):
    # One worker: the batch cannot finish without it, so it always
    # connects (a second one could dial after the service stopped).
    backend = RemoteBackend(port=0)
    worker = _worker_process(backend.bind())
    try:
        result = run_sweep(SWEEP, backend=backend)
    finally:
        worker.wait(timeout=30)
    _sweep, jobs = _assert_coherent_trace(trace_dir, result)
    assert all(job["pid"] != os.getpid() for job in jobs)
    # The worker adopted the service's trace sink and flushes its
    # metrics registry on disconnect: the executed count lands in the
    # directory even though it happened off-process.
    registries = read_metrics(trace_dir)
    executed = sum(
        registry.get("counters", {}).get("job.executed", 0)
        for registry in registries.values()
    )
    assert executed == len(SPECS)
    events = read_events(trace_dir)
    assert any(ev.get("name") == "service.worker_connect" for ev in events)


def test_cost_error_histogram_from_seeded_book(trace_dir, tmp_path):
    cache = ResultCache(disk_dir=tmp_path / "store")
    store = cache.store_backend
    seed_book = CostBook(store)
    seed_book.observe("test_planarity", 36, 0.004)
    assert seed_book.flush() == 1
    assert CostModel.from_store(store).predict(
        "test_planarity", 36
    ) == pytest.approx(0.004)
    result = run_sweep(SWEEP, cache=cache)
    assert result.batch.executed == len(SPECS)
    # Every executed job compared its wall-time against the pre-sweep
    # prediction; the error histogram is the model-quality signal.
    registries = read_metrics(trace_dir)
    histograms = [
        registry["histograms"]["scheduler.cost_rel_error"]
        for registry in registries.values()
        if "scheduler.cost_rel_error" in registry.get("histograms", {})
    ]
    assert histograms, "no cost_rel_error histogram was flushed"
    assert sum(h["count"] for h in histograms) == len(SPECS)
    assert all(h["min"] >= 0.0 for h in histograms)


def test_trace_top_ranks_slowest_kind_first(trace_dir, tmp_path, capsys):
    run_sweep(SWEEP, backend="serial")
    run_sweep(
        SweepSpec.make(
            "simulate_program", families=["delaunay"], ns=[256], seeds=[0],
            program="storm", storm_rounds=6, trial=[0, 1],
        ),
        backend="serial",
    )
    events = read_events(trace_dir)
    rows = top_spans(events, name="job")
    assert {row["kind"] for row in rows} == {
        "test_planarity", "simulate_program"
    }
    # Rank order must match the actual per-kind totals in the trace.
    totals = {}
    for ev in events:
        if ev["ev"] == "span" and ev["name"] == "job":
            kind = ev["attrs"]["kind"]
            totals[kind] = totals.get(kind, 0.0) + ev["dur"]
    expected = sorted(totals, key=lambda kind: -totals[kind])
    assert [row["kind"] for row in rows] == expected
    # The CLI family reads the same directory.
    assert main(["trace", "top", str(trace_dir), "--name", "job"]) == 0
    out = capsys.readouterr().out
    assert out.index(expected[0]) < out.index(expected[1])
    assert main(["trace", "view", str(trace_dir), "--max-lines", "50"]) == 0
    chrome_path = tmp_path / "chrome.json"
    assert main([
        "trace", "export", str(trace_dir),
        "--chrome", "--out", str(chrome_path),
    ]) == 0
    doc = json.loads(chrome_path.read_text())
    assert doc["traceEvents"]
    assert {entry["ph"] for entry in doc["traceEvents"]} <= {"X", "i"}


def test_trace_cli_rejects_empty_directory(tmp_path):
    assert main(["trace", "view", str(tmp_path)]) == 1


def test_remote_requeue_logs_partial_cost(tmp_path, start_workers):
    """A worker that dies mid-job leaves a cost sample behind: the
    partial elapsed seconds land in the store's cost table alongside
    the successful completions (len(SPECS) + 1 observations total) --
    counted once although the run's CostBook shares the service's
    store."""
    store_dir = tmp_path / "store"
    cache = ResultCache(disk_dir=store_dir)
    book = CostBook(cache.store_backend)
    backend = RemoteBackend(port=0, store_dir=str(store_dir))
    port = backend.bind()
    got_job = threading.Event()

    def doomed_worker():
        sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        reader = sock.makefile("rb")
        sock.sendall(
            encode_wire_frame(
                {
                    "op": "hello",
                    "protocol": PROTOCOL_VERSION,
                    "kinds": ["test_planarity"],
                    "pid": 0,
                }
            )
        )
        assert read_wire_frame(reader)["op"] == "welcome"
        assert read_wire_frame(reader)["op"] == "job"
        got_job.set()
        sock.close()  # die mid-job: the service requeues

    doomed = threading.Thread(target=doomed_worker, daemon=True)
    doomed.start()
    holder = {}

    def consume():
        holder["batch"] = run_jobs(
            SPECS, backend=backend, cache=cache, cost_book=book
        )

    consumer = threading.Thread(target=consume, daemon=True)
    consumer.start()
    assert got_job.wait(10), "doomed worker never received a job"
    start_workers(port)
    consumer.join(30)
    assert not consumer.is_alive()
    assert len(holder["batch"].records) == len(SPECS)
    book.flush()
    cell = cache.store_backend.get_meta(cost_meta_key("test_planarity", 36))
    assert cell["count"] == len(SPECS) + 1
