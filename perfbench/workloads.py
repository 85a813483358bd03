"""The benchmark's workloads: what one operation is, its set-up and its check.

Every workload is a closed loop driven by one caller: the next operation
starts when the previous one has returned.  Inputs come only from the
workload seed.

* ``tester-planar`` / ``tester-far`` call ``test_planarity`` in-process.
  Set-up generates a pool of graphs; op *i* tests a fresh copy of pool
  graph ``i % pool`` (the copy keeps the topology compile memo, which is
  keyed by graph identity, from carrying over between ops).  Nothing else
  of the program is touched: whatever the program keeps alive between
  calls stays alive, as it would for any caller.
* ``service-cold`` / ``service-hit`` run a ``SweepService`` in this
  process with worker subprocesses and one ``Client``; an op is one
  sweep from submit to verdict.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import tracing
from tracing import clock

SETUP_REPEATS = 3
"""Set-up runs in this many equal timed parts; ``setup_s`` is built from
their median, so one stall on a shared host does not decide it."""

HERE = Path(__file__).resolve().parent


@dataclass
class OpResult:
    index: int
    latency_s: float
    first_s: float
    units: int
    ok: bool = True
    scale: float = 1.0
    """Host-speed factor for this op's times (see :class:`HostClock`)."""
    rss_mb: float = 0.0
    """Peak RSS of this process when the op had returned."""


class HostClock:
    """Scales measured seconds to a reference host speed.

    On a shared host the CPU's speed drifts: the same pure-Python loop
    took from 3.7 to 5.0 ms over a two-minute window on a 2-core VM,
    with slow phases lasting tens of seconds, so two 10 s runs of
    identical code could differ by 25%.  The benchmark therefore times
    a fixed kernel -- a BFS plus a sort over a seeded random graph, the
    same kind of dict-and-list work the program does -- between timed
    steps, and scales each step's time by ``REFERENCE_S`` over the median
    of the kernel times around it (the median ignores a kernel run that
    was preempted).  Reported times read as if on a host where the
    kernel takes ``REFERENCE_S``.  On the service workloads the service's
    event loop shares this process, so whatever it does between ops
    (heartbeats, the speculation scan) slows the kernel too and is divided
    out with the host's speed.  Unscaled times are on the info line and,
    in traced runs, in the ``raw.*`` per-layer metrics; per-layer seconds
    are never scaled.
    """

    REFERENCE_S = 0.005
    NODES = 4000
    WINDOW = 3
    """Kernel samples taken on each side of a step."""

    def __init__(self):
        rng = random.Random(0)
        self.adj = {v: [] for v in range(self.NODES)}
        for _ in range(3 * self.NODES):
            a, b = rng.randrange(self.NODES), rng.randrange(self.NODES)
            self.adj[a].append(b)
            self.adj[b].append(a)

    def sample(self) -> float:
        """Seconds the calibration kernel takes right now (no collection
        of the program's garbage lands inside it)."""
        adj = self.adj
        gc_was_on = gc.isenabled()
        gc.disable()
        try:
            start = clock()
            dist = {0: 0}
            frontier = [0]
            while frontier:
                reached = []
                for v in frontier:
                    d = dist[v] + 1
                    for w in adj[v]:
                        if w not in dist:
                            dist[w] = d
                            reached.append(w)
                frontier = reached
            sorted(dist.items(), key=lambda item: (item[1], item[0]))
            return clock() - start
        finally:
            if gc_was_on:
                gc.enable()

    def factor(self, samples) -> float:
        return self.REFERENCE_S / statistics.median(samples)

    def scale(self, samples: List[float], index: int) -> float:
        """Factor for the step between ``samples[index]`` and
        ``samples[index + 1]``."""
        lo = max(0, index + 1 - self.WINDOW)
        return self.factor(samples[lo:index + 1 + self.WINDOW])

    def timed(self, fn, *args):
        """``(fn(*args), scaled seconds it took)``."""
        before = [self.sample() for _ in range(self.WINDOW)]
        start = clock()
        result = fn(*args)
        seconds = clock() - start
        after = [self.sample() for _ in range(self.WINDOW)]
        return result, seconds * self.factor(before + after)


@contextmanager
def collecting():
    """Garbage collection on for the block, then back as it was.

    ``run.measure`` pauses the collector for the benchmark's own code
    between timed ops (copying the next input, sampling the host's
    speed), and each op turns it on for its timed part only.  Otherwise
    a full collection that the program's kept objects make due could
    start in the benchmark's code and go untimed: with the collector
    always on, where the collections of ``tester-far`` landed moved its
    throughput by 20% between seeds.
    """
    was_on = gc.isenabled()
    gc.enable()
    try:
        yield
    finally:
        if not was_on:
            gc.disable()


def _report(workload: str, index: int, what: str) -> None:
    print(f"{workload}: op {index}: {what}", file=sys.stderr)


TESTER_FAMILY = "delaunay"
TESTER_N = 2000
TESTER_EPSILON = 0.1
SERVICE_FAMILIES = ("grid", "delaunay", "outerplanar")
SERVICE_N = 64
SERVICE_EPSILON = 0.25
SERVICE_WORKERS = 2


class TesterWorkload:
    """``test_planarity`` in-process on a pool of generated graphs.

    The end-to-end figures cover the first ``window`` timed ops: a fixed
    amount of work.  The program keeps every graph it has tested alive
    (the topology compile memo's values hold their keys), so each op
    grows the heap by several MB and full garbage collections grow with
    it.  Over a fixed time window a faster host or program would run more
    ops, keep a bigger heap and pay more per op for its collections (and
    a higher peak RSS); a fixed op count gives every run the same heap
    and the same collections.  The ops after the window still run and
    are checked.
    """

    workers = 0

    def __init__(self, name: str, window: int, planted_k5: int = 0, pool: int = 64):
        self.name = name
        self.window = window
        self.planted_k5 = planted_k5
        self.pool_size = pool
        self.pool: List = []
        self.generate_s: List[float] = []

    def _generate(self, seed: int):
        from repro.graphs import make_planar
        from repro.graphs.far_from_planar import planted_kuratowski

        if self.planted_k5:
            graph, _farness = planted_kuratowski(
                TESTER_N, count=self.planted_k5, minor="k5", seed=seed
            )
            return graph
        return make_planar(TESTER_FAMILY, TESTER_N, seed=seed)

    def _generate_part(self, graph_seeds) -> None:
        for graph_seed in graph_seeds:
            start = clock()
            self.pool.append(self._generate(graph_seed))
            self.generate_s.append(clock() - start)

    def setup(self, seed: int, workdir: Path, host: HostClock) -> float:
        """Generate the pool in equal parts; ``setup_s`` is the parts'
        count times their median scaled time."""
        rng = random.Random(f"{self.name}/{seed}")
        self.seed_base = rng.randrange(1 << 30)
        graph_seeds = [rng.randrange(1 << 30) for _ in range(self.pool_size)]
        per_part = -(-self.pool_size // SETUP_REPEATS)
        self.pool, self.generate_s = [], []
        parts = [
            host.timed(self._generate_part, graph_seeds[lo:lo + per_part])[1]
            for lo in range(0, self.pool_size, per_part)
        ]
        return len(parts) * statistics.median(parts)

    def check(self, result) -> Optional[str]:
        """``None`` when *result* is right, else what is wrong with it."""
        if self.planted_k5:
            if result.accepted or result.rejected_stage != "stage1":
                return (f"expected a Stage I reject, got accepted={result.accepted}"
                        f" stage={result.rejected_stage}")
        elif not result.accepted:
            return f"planar graph rejected in {result.rejected_stage}"
        return None

    def op(self, index: int, recorder=None) -> OpResult:
        from repro.testers import planarity

        graph = self.pool[index % len(self.pool)].copy()
        span = recorder.operation(index) if recorder is not None else nullcontext()
        error = None
        with span, collecting():
            start = clock()
            try:
                result = planarity.test_planarity(
                    graph, epsilon=TESTER_EPSILON, seed=self.seed_base + index
                )
            except Exception:
                result, error = None, traceback.format_exc()
            latency = clock() - start
        if result is not None:
            error = self.check(result)
        if error:
            _report(self.name, index, error)
        return OpResult(index, latency, latency, int(result is not None), not error)

    def warmup(self) -> None:
        for index in (-1, -2):
            self.op(index)

    def verify(self, results: List[OpResult]) -> None:
        """Tester outputs are checked as each op returns."""

    def teardown(self) -> None:
        self.pool = []


class VerdictTap:
    """Keeps every ``verdict`` frame the client reads off the wire.

    The ``Client`` iterator yields records only, so the benchmark reads
    each sweep's verdict (``executed``, ``hits``, ``ok``) by wrapping the
    frame reader the client binds.  It is installed in traced and
    untraced runs alike.
    """

    def __init__(self):
        self.verdicts: List[dict] = []
        self._raw = None

    def install(self) -> None:
        owner, leaf = tracing.resolve("repro.runtime.client", "read_bframe")
        raw = self._raw = getattr(owner, leaf)
        verdicts = self.verdicts

        async def read_bframe(reader):
            frame = await raw(reader)
            if frame is not None and frame.get("op") == "verdict":
                verdicts.append(frame)
            return frame

        setattr(owner, leaf, read_bframe)

    def uninstall(self) -> None:
        if self._raw is not None:
            owner, leaf = tracing.resolve("repro.runtime.client", "read_bframe")
            setattr(owner, leaf, self._raw)
            self._raw = None


class Fleet:
    """A ``SweepService`` with its own store plus worker subprocesses."""

    def __init__(self, workdir: Path, workers: int, spans_dir: Optional[Path]):
        self.workdir = workdir
        self.workers = workers
        self.spans_dir = spans_dir
        self.service = None
        self.procs: List[subprocess.Popen] = []
        self.span_files: List[Path] = []

    def _command(self) -> List[str]:
        endpoint = self.service.endpoint
        if self.spans_dir is None:
            return [
                sys.executable, "-W",
                "ignore:'repro.runtime.worker' found in sys.modules:RuntimeWarning",
                "-m", "repro.runtime.worker", "--connect", endpoint,
            ]
        path = Path(tempfile.mkstemp(dir=self.spans_dir, suffix=".jsonl")[1])
        self.span_files.append(path)
        return [sys.executable, str(HERE / "traced_worker.py"),
                "--spans", str(path), "--connect", endpoint]

    def start(self) -> None:
        from repro.runtime.service import SweepService

        self.store = tempfile.mkdtemp(prefix="store-", dir=self.workdir)
        self.service = SweepService(store_dir=self.store).start()
        env = dict(os.environ)
        src = str(HERE.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        for _ in range(self.workers):
            self.procs.append(subprocess.Popen(self._command(), env=env))
        deadline = time.monotonic() + 120.0
        while self.service.active_workers < self.workers:
            exited = any(p.poll() is not None for p in self.procs)
            if exited or time.monotonic() > deadline:
                raise RuntimeError("workers did not connect to the service")
            time.sleep(0.002)

    def stop(self) -> None:
        if self.service is not None:
            self.service.stop()
        for proc in self.procs:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.procs = []
        shutil.rmtree(self.store, ignore_errors=True)

    def worker_rows(self) -> List[dict]:
        rows: List[dict] = []
        for path in self.span_files:
            if path.stat().st_size:
                rows.extend(tracing.read_rows(str(path)))
        return rows


class ServiceWorkload:
    """Sweeps through a ``SweepService`` and its worker fleet.

    ``prefill_seeds`` set: every op resubmits one sweep that set-up
    already ran, so the store answers every job (``service-hit``).
    Otherwise every op submits ``seeds_per_op`` fresh seeds per family
    (``service-cold``).
    """

    workers = SERVICE_WORKERS
    window = None
    """End-to-end figures cover every timed op."""

    def __init__(self, name: str, seeds_per_op: int = 10, prefill_seeds: int = 0):
        self.name = name
        self.seeds_per_op = seeds_per_op
        self.prefill_seeds = prefill_seeds
        self.fleet: Optional[Fleet] = None
        self.tap = VerdictTap()
        self.outputs: Dict[int, tuple] = {}
        self.last_records: Optional[list] = None
        self.references: Dict[tuple, list] = {}

    def sweep(self, seeds):
        from repro.runtime import SweepSpec

        return SweepSpec.make("test_planarity", families=SERVICE_FAMILIES,
                              ns=[SERVICE_N], seeds=list(seeds),
                              epsilon=SERVICE_EPSILON)

    def sweep_for(self, index: int):
        if self.prefill_seeds:
            return self.sweep(self.fixed_seeds)
        first = self.seed_base + index * self.seeds_per_op
        return self.sweep(range(first, first + self.seeds_per_op))

    def setup(self, seed: int, workdir: Path, host: HostClock,
              traced: bool = False) -> float:
        """Start the fleet several times and keep the last one; prefill in
        equal parts.  ``setup_s`` is the median scaled start time plus the
        parts' count times their median scaled time."""
        from repro.runtime import Client

        rng = random.Random(f"{self.name}/{seed}")
        # Warm-up ops use negative indices; keep every seed positive.
        self.seed_base = (1 << 20) + rng.randrange(1 << 30)
        self.fixed_seeds = rng.sample(range(1 << 30), self.prefill_seeds)
        spans_dir = None
        if traced:
            spans_dir = Path(tempfile.mkdtemp(prefix="spans-", dir=workdir))
        starts = []
        for repeat in range(SETUP_REPEATS):
            fleet = Fleet(workdir, self.workers, spans_dir)
            try:
                starts.append(host.timed(fleet.start)[1])
            except BaseException:
                fleet.stop()
                raise
            if repeat < SETUP_REPEATS - 1:
                fleet.stop()
        self.fleet = fleet
        self.client = Client(endpoint=fleet.service.endpoint, name="perfbench")
        self.tap.install()
        setup_s = statistics.median(starts)
        if self.prefill_seeds:
            chunk = -(-self.prefill_seeds // SETUP_REPEATS)
            sweeps = [self.sweep(self.fixed_seeds[lo:lo + chunk])
                      for lo in range(0, self.prefill_seeds, chunk)]
            parts = [host.timed(self.client.run, sweep)[1] for sweep in sweeps]
            setup_s += len(parts) * statistics.median(parts)
        return setup_s

    def op(self, index: int, recorder=None) -> OpResult:
        sweep = self.sweep_for(index)
        records = []
        first = None
        ok = True
        span = recorder.operation(index) if recorder is not None else nullcontext()
        seen = len(self.tap.verdicts)
        with span, collecting():
            start = clock()
            try:
                for record in self.client.submit(sweep):
                    if first is None:
                        first = clock()
                    records.append(record)
            except Exception:
                ok = False
                _report(self.name, index, traceback.format_exc())
            end = clock()
        verdict = self.tap.verdicts[-1] if len(self.tap.verdicts) > seen else None
        if records == self.last_records:
            # A resubmitted sweep: keep one copy of its records, so memory
            # does not grow with the number of ops.
            records = self.last_records
        self.last_records = records
        self.outputs[index] = (sweep, records, verdict)
        first = first if first is not None else end
        return OpResult(index, end - start, first - start, len(records), ok)

    def warmup(self) -> None:
        for index in (-1, -2):
            self.op(index)

    def _reference(self, sweep) -> list:
        from repro.runtime import Client

        key = tuple(sweep.seeds)
        if key not in self.references:
            self.references[key] = Client().run(sweep)
        return self.references[key]

    def check(self, sweep, records, verdict) -> Optional[str]:
        """``None`` when one op's output is right, else what is wrong."""
        if verdict is None or not verdict.get("ok"):
            return f"no successful verdict: {verdict}"
        jobs = sweep.size
        if self.prefill_seeds and verdict.get("executed") != 0:
            return f"store-hit sweep executed {verdict.get('executed')} jobs"
        if verdict.get("jobs") != jobs or len(records) != jobs:
            return f"{len(records)} records for {jobs} jobs"
        for position, (got, want) in enumerate(zip(records, self._reference(sweep))):
            if got.keys() != want.keys():
                return f"record {position}: keys {sorted(got)} != {sorted(want)}"
            for key in want:
                if got[key] != want[key]:
                    return (f"record {position}: {key}={got[key]!r},"
                            f" serial {want[key]!r}")
        return None

    def verify(self, results: List[OpResult]) -> None:
        """Compare every timed op's records with in-process serial records."""
        for result in results:
            if not result.ok:
                continue
            error = self.check(*self.outputs[result.index])
            if error:
                result.ok = False
                _report(self.name, result.index, error)

    def teardown(self) -> None:
        self.tap.uninstall()
        if self.fleet is not None:
            self.fleet.stop()


def make(name: str, **overrides):
    """The workload called *name*, with optional smaller sizes."""
    # Tester windows: about two thirds of the ops a 12 s run fits on a
    # 2-core host (~45 and ~130).
    if name == "tester-planar":
        return TesterWorkload(name, window=30, **overrides)
    if name == "tester-far":
        # 300 planted K5s on n=2000 (the planted-k5 family plants n/20 =
        # 100): with 100, about one graph in twelve passes Stage I and
        # reaches Stage II; with 300, 500 of 500 seeds were rejected in
        # Stage I after exactly one phase.  A pool of 128: the graphs it
        # holds space out the full collections the kept graphs cause, so
        # 5 of the 90 window ops pay one (8 with 64), and latency_p90_ms
        # falls among ops that do not (spread over five seeds 0.08, not
        # 0.18).
        return TesterWorkload(name, window=90, planted_k5=300,
                              **{"pool": 128, **overrides})
    if name == "service-cold":
        return ServiceWorkload(name, **overrides)
    if name == "service-hit":
        return ServiceWorkload(name, **{"prefill_seeds": 100, **overrides})
    raise KeyError(name)


WORKLOADS = ("tester-planar", "tester-far", "service-cold", "service-hit")
