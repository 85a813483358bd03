"""In-memory span tracing for the benchmark's traced runs.

A span is recorded around a call into one layer's public function.  The
benchmark wraps each function under the name its *caller* binds -- for
example ``repro.testers.stage2.check_planarity`` is the LR embedding as
Stage II calls it -- so the program's own code is unchanged.  Spans stay
in memory (name, start, end, thread CPU seconds, parent, op id, thread,
process and an optional note) and are written out once, when the run
ends.

Some client spans cover waiting (``WAITING``).  ``Client._submit_remote``
waits for its connection, and the client's ``read_bframe`` waits for the
next frame.  The receive loop (``Client._drive_submission``) runs from
connect to verdict; it idles inside those frame reads while the fleet
works, so its layer metric is its thread's CPU time, not its wall time.
For ``layer_coverage`` a waiting span covers only its self thread-CPU
seconds, taken as the end of its interval (the work it does once the wait
is over), and any other span covers only the part of its interval outside
the waiting spans below it.  So time the op spends in unwrapped service,
wire or scheduling code stays unattributed.

Timestamps come from ``time.monotonic`` (``CLOCK_MONOTONIC`` on Linux),
which every process on the host shares, so spans recorded inside worker
subprocesses line up with the ops timed by the benchmark process.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import inspect
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

clock = time.monotonic
thread_clock = time.thread_time

OP = "op"
"""Name of the span the benchmark opens around each timed operation."""


def _hit(_args, result) -> bool:
    return result is not None


def _record_frame_bytes(args, result) -> Optional[int]:
    frame = args[0] if args else None
    if result is not None and isinstance(frame, dict) and frame.get("op") == "record":
        return len(result)
    return None


# (module whose binding the caller uses, attribute path, span name[, note]).
# A note turns a call's arguments and result into one number kept with
# the span: a store probe notes whether it hit, an encoded record frame
# notes its size on the wire.
TESTER_LAYERS = (
    ("repro.testers.planarity", "require_simple", "graphs.validate"),
    ("repro.testers.planarity", "partition_stage1", "partition.stage1"),
    ("repro.congest.topology", "compile_topology", "congest.topology.compile"),
    ("repro.partition.dense", "DensePartitionState.build_aux", "partition.aux"),
    ("repro.partition.dense", "forest_decomposition_dense", "partition.forest"),
    ("repro.partition.dense", "orient_and_select_dense", "partition.cv"),
    ("repro.partition.dense", "cole_vishkin_dense", "partition.cv"),
    ("repro.partition.dense", "mark_and_choose_dense", "partition.mark"),
    ("repro.partition.dense", "DensePartitionState.merge", "partition.merge"),
    ("repro.partition.dense", "DensePartitionState.cut_size", "partition.merge"),
    ("repro.testers.planarity", "stage2_over_partition", "testers.stage2"),
    ("repro.testers.planarity", "extract_part_subgraphs", "testers.stage2.extract"),
    ("repro.testers.planarity", "test_part", "testers.stage2.part"),
    ("repro.testers.stage2", "check_planarity", "planarity.lr"),
    ("repro.testers.stage2", "deterministic_bfs_tree", "testers.labels"),
    ("repro.testers.stage2", "euler_tour_positions", "testers.labels"),
    ("repro.testers.stage2", "corner_intervals", "testers.labels"),
    ("repro.testers.stage2", "max_label_length", "testers.labels"),
    ("repro.testers.stage2", "sample_and_detect", "testers.violations.sample"),
)
"""The tester's layers, wrapped in-process and inside traced workers."""

SERVICE_LAYERS = (
    ("repro.runtime.service", "SweepService._enqueue_sweep",
     "runtime.service.enqueue"),
    ("repro.runtime.service", "SweepSpec.expand", "runtime.service.enqueue"),
    ("repro.runtime.service", "KeyDeriver.key_for", "runtime.cache.key"),
    ("repro.runtime.service", "CostModel.from_store", "runtime.scheduler.cost_model"),
    ("repro.runtime.service", "_store_payload", "runtime.store.get_raw", _hit),
    ("repro.runtime.service", "ShardedStore.put_raw", "runtime.store.put_raw"),
    ("repro.runtime.service", "encode_record", "runtime.codec.encode"),
    ("repro.runtime.service", "frame_shapes", "runtime.codec.encode"),
    ("repro.runtime.service", "encode_wire_frame", "runtime.codec.encode",
     _record_frame_bytes),
    ("repro.runtime.client", "Client._submit_remote", "runtime.client.connect"),
    # asyncio.run (the client's event loop, built and torn down per
    # submit) and the receive loop it runs, from connect to verdict.
    ("repro.runtime.client", "asyncio.run", "runtime.client.receive"),
    ("repro.runtime.client", "Client._drive_submission", "runtime.client.receive"),
    ("repro.runtime.client", "read_bframe", "runtime.client.read"),
    ("repro.runtime.client", "decode_record", "runtime.codec.decode"),
    ("repro.runtime.remote", "decode_wire_body", "runtime.codec.decode"),
)
"""The service's layers, wrapped in the benchmark process (service and client)."""

WORKER_LAYERS = TESTER_LAYERS + (
    ("repro.runtime.worker", "handle_request", "runtime.worker.handle"),
    ("repro.runtime.worker", "run_job_timed", "runtime.jobs.run_job"),
    ("repro.runtime.worker", "JobSpec.build_graph", "graphs.generate"),
    ("repro.runtime.worker", "_store_payload", "runtime.store.get_raw", _hit),
)
"""What the benchmark's worker entry point wraps inside each worker."""

WAITING = frozenset({"runtime.client.connect", "runtime.client.read"})
"""Spans that mostly wait for other layers; coverage counts their CPU only."""


def resolve(module: str, path: str):
    """``(owner, attribute name)`` for *path* inside *module*."""
    owner = importlib.import_module(module)
    *parents, leaf = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, leaf


class SpanRecorder:
    """Keeps spans in memory; installs and removes the layer wrappers."""

    def __init__(self):
        self.spans: List[tuple] = []
        self.op = -1
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: List[tuple] = []

    def _open(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        return stack, sid, parent

    def _close(self, stack, sid, parent, name, start, cpu, note) -> None:
        end = clock()
        cpu = thread_clock() - cpu
        # A coroutine's span can close after spans opened on its thread
        # while it was suspended, so remove by id, not by position.
        stack.remove(sid)
        self.spans.append((sid, name, start, end, cpu, parent,
                           threading.get_ident(), self.op, note))

    def wrap(self, fn: Callable, name: str, note: Optional[Callable] = None):
        """*fn* recording one span named *name* per call."""
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                stack, sid, parent = self._open()
                start, cpu = clock(), thread_clock()
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    value = note(args, result) if note is not None else None
                    self._close(stack, sid, parent, name, start, cpu, value)

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, sid, parent = self._open()
            start, cpu = clock(), thread_clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                value = note(args, result) if note is not None else None
                self._close(stack, sid, parent, name, start, cpu, value)

        return traced

    def install(self, targets: Iterable[tuple]) -> None:
        """Replace every target with its traced wrapper."""
        for module, path, name, *note in targets:
            note = note[0] if note else None
            owner, leaf = resolve(module, path)
            raw = inspect.getattr_static(owner, leaf)
            if isinstance(raw, classmethod):
                patched = classmethod(self.wrap(raw.__func__, name, note))
            else:
                patched = self.wrap(raw, name, note)
            setattr(owner, leaf, patched)
            self._undo.append((owner, leaf, raw))

    def uninstall(self) -> None:
        """Put every wrapped function back."""
        while self._undo:
            owner, leaf, raw = self._undo.pop()
            setattr(owner, leaf, raw)

    @contextmanager
    def operation(self, index: int):
        """The span of timed op *index*; spans recorded meanwhile on any
        thread of this process carry its op id."""
        stack, sid, parent = self._open()
        self.op = index
        start, cpu = clock(), thread_clock()
        try:
            yield
        finally:
            self._close(stack, sid, parent, OP, start, cpu, None)
            self.op = -1

    def rows(self) -> List[dict]:
        keys = ("id", "name", "start", "end", "cpu", "parent", "thread", "op", "note")
        pid = os.getpid()
        return [dict(zip(keys, span), pid=pid) for span in self.spans]

    def dump(self, path: str) -> None:
        write_rows(path, self.rows())


def write_rows(path: str, rows: Sequence[dict]) -> None:
    with open(path, "w", encoding="utf-8") as out:
        for row in rows:
            out.write(json.dumps(row, separators=(",", ":")) + "\n")


def read_rows(path: str) -> List[dict]:
    with open(path, encoding="utf-8") as src:
        return [json.loads(line) for line in src if line.strip()]


class Profile:
    """Self times, calls and coverage of the spans inside timed ops.

    A span's self time is its duration minus the durations of its direct
    children (same process, parent link).  A span belongs to the op whose
    interval contains its start, and takes that op's id; spans outside
    every op (set-up, warm-up) are left out.  Coverage is the share of op
    wall time during which at least one layer span was open, on any
    thread of any process -- where a ``WAITING`` span is open only for
    its self CPU seconds at the end of its interval, and no other span
    is open while a waiting span below it is.
    """

    def __init__(self, rows: Sequence[dict]):
        ops = sorted((r for r in rows if r["name"] == OP), key=lambda r: r["start"])
        self.ops = ops
        self.op_seconds = sum(r["end"] - r["start"] for r in ops)
        starts = [r["start"] for r in ops]
        layers = [r for r in rows if r["name"] != OP]

        children: Dict[tuple, float] = defaultdict(float)
        children_cpu: Dict[tuple, float] = defaultdict(float)
        by_id = {(r["pid"], r["id"]): r for r in layers}
        waits: Dict[tuple, List[Tuple[float, float]]] = defaultdict(list)
        for r in layers:
            if r["parent"]:
                children[(r["pid"], r["parent"])] += r["end"] - r["start"]
                children_cpu[(r["pid"], r["parent"])] += r["cpu"]
            if r["name"] in WAITING:
                above = by_id.get((r["pid"], r["parent"]))
                while above is not None:
                    waits[(above["pid"], above["id"])].append((r["start"], r["end"]))
                    above = by_id.get((above["pid"], above["parent"]))

        intervals: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.self_cpu_s: Dict[str, float] = defaultdict(float)
        self.wall_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.notes: Dict[str, List[float]] = defaultdict(list)
        for r in layers:
            i = bisect.bisect_right(starts, r["start"]) - 1
            if i < 0 or r["start"] > ops[i]["end"]:
                continue
            r["op"] = ops[i]["op"]
            name = r["name"]
            duration = r["end"] - r["start"]
            self_cpu = r["cpu"] - children_cpu[(r["pid"], r["id"])]
            self.self_s[name] += duration - children[(r["pid"], r["id"])]
            self.self_cpu_s[name] += self_cpu
            self.wall_s[name] += duration
            self.calls[name] += 1
            if r["note"] is not None:
                self.notes[name].append(r["note"])
            end = min(r["end"], ops[i]["end"])
            if name in WAITING:
                intervals[i].append((min(max(r["start"], end - self_cpu), end), end))
            else:
                intervals[i] += _subtract((r["start"], end), waits[(r["pid"], r["id"])])
        self.covered_s = sum(_union_length(spans) for spans in intervals.values())

    @property
    def count(self) -> int:
        return len(self.ops)

    @property
    def coverage(self) -> float:
        return self.covered_s / self.op_seconds if self.op_seconds else 0.0

    @property
    def unattributed_s(self) -> float:
        return self.op_seconds - self.covered_s

    def per_op(self, *names: str) -> float:
        """Summed self seconds of *names*, per op."""
        return sum(self.self_s.get(n, 0.0) for n in names) / max(self.count, 1)

    def cpu_per_op(self, name: str) -> float:
        """Self thread-CPU seconds of *name*, per op."""
        return self.self_cpu_s.get(name, 0.0) / max(self.count, 1)

    def calls_per_op(self, name: str) -> float:
        return self.calls.get(name, 0) / max(self.count, 1)


def _subtract(span: Tuple[float, float],
              holes: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """The parts of *span* outside every interval in *holes*."""
    parts = []
    start, end = span
    for a, b in sorted(holes):
        if a > start:
            parts.append((start, min(a, end)))
        start = max(start, b)
        if start >= end:
            return parts
    parts.append((start, end))
    return parts


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    start = end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            if end is not None:
                total += end - start
            start, end = a, b
        elif b > end:
            end = b
    if end is not None:
        total += end - start
    return total
