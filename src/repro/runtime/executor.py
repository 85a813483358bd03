"""Pluggable batch-execution backends behind one ``run_jobs`` API.

``run_jobs(specs)`` is the single entry point the CLI, the sweeps
front-end, and the benchmarks use to execute work:

1. every spec's cache key is derived from its graph coordinates and
   config (no graph is generated for it);
2. cache hits are answered immediately;
3. the misses are dispatched to the chosen backend --
   :class:`SerialBackend` runs them in-process,
   :class:`ProcessPoolBackend` fans them over a
   :class:`concurrent.futures.ProcessPoolExecutor` with chunked
   dispatch, and :class:`~repro.runtime.remote.RemoteBackend` submits
   them to an ephemeral :class:`~repro.runtime.service.SweepService`
   whose worker fleet joins over TCP;
4. fresh records are stored back and the full result list is returned
   in the order of the input specs.

:func:`iter_jobs` is the streaming face of the same machinery: it
yields ``(index, record, from_cache)`` triples as results land
(hits first, then misses in completion order) instead of barriering
the whole batch -- fresh records are cached the moment they arrive, so
a concurrent orchestrator sharing the same on-disk store sees them
mid-flight.

Records are flat primitive dicts (see :mod:`repro.runtime.jobs`), so
backends are interchangeable: the same batch yields byte-identical
aggregates whichever backend ran it.  Per-job randomness is carried
entirely by ``spec.seed`` (workers derive their streams via
:mod:`repro.runtime.seeding`), never by process-global state.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..telemetry.metrics import get_metrics
from ..telemetry.spans import telemetry_enabled
from .batching import coalesce, expand_batch_record
from .cache import CacheStats, KeyDeriver, ResultCache
from .config import RunConfig
from .jobs import JobSpec, Record, run_job_timed, spec_needs_graph
from .remote import RemoteBackend


class SerialBackend:
    """Runs every job in the calling process, one at a time."""

    name = "serial"
    # In-process execution profits from prebuilt graph objects: every
    # job on the same graph then shares one instance -- and therefore
    # one compiled simulator topology (see repro.congest.topology).
    wants_graph_hints = True

    def run_stream(
        self,
        specs: Sequence[JobSpec],
        graphs: Optional[Sequence] = None,
    ) -> Iterator[Tuple[int, Record, float]]:
        """Yield ``(index, record, seconds)`` as each job finishes."""
        if graphs is None:
            graphs = [None] * len(specs)
        for index, (spec, graph) in enumerate(zip(specs, graphs)):
            record, seconds = run_job_timed(spec, graph)
            yield index, record, seconds


def _run_chunk(specs: List[JobSpec]) -> List[Tuple[Record, float]]:
    """Module-level chunk runner (picklable for pool dispatch)."""
    return [run_job_timed(spec) for spec in specs]


class ProcessPoolBackend:
    """Fans jobs over a process pool with chunked dispatch.

    Args:
        max_workers: pool size; defaults to ``os.cpu_count()`` capped at
            the number of jobs.
        chunksize: jobs handed to a worker per dispatch; ``None`` picks
            ``ceil(len(jobs) / (4 * workers))`` so each worker sees a few
            chunks (amortizing pickling) while keeping the tail balanced.
    """

    name = "process"
    # Workers regenerate graphs from specs; prebuilding in the parent
    # would be wasted work, so run_jobs skips the hint for this backend.
    wants_graph_hints = False

    def __init__(
        self,
        max_workers: Optional[int] = None,
        chunksize: Optional[int] = None,
    ):
        self.max_workers = max_workers
        self.chunksize = chunksize

    def _plan(self, specs: Sequence[JobSpec]) -> Tuple[int, int]:
        workers = self.max_workers or min(len(specs), os.cpu_count() or 1)
        workers = max(1, min(workers, len(specs)))
        chunksize = self.chunksize
        if chunksize is None:
            chunksize = max(1, -(-len(specs) // (4 * workers)))
        return workers, chunksize

    def run_stream(
        self,
        specs: Sequence[JobSpec],
        graphs: Optional[Sequence] = None,
    ) -> Iterator[Tuple[int, Record, float]]:
        """Yield ``(index, record, seconds)`` per chunk, as chunks land."""
        if not specs:
            return
        from concurrent.futures import ProcessPoolExecutor, as_completed

        specs = list(specs)
        workers, chunksize = self._plan(specs)
        if workers == 1:
            yield from SerialBackend().run_stream(specs, graphs)
            return
        chunks = [
            list(range(start, min(start + chunksize, len(specs))))
            for start in range(0, len(specs), chunksize)
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(_run_chunk, [specs[i] for i in chunk]): chunk
                for chunk in chunks
            }
            for future in as_completed(futures):
                chunk = futures[future]
                for index, (record, seconds) in zip(chunk, future.result()):
                    yield index, record, seconds


BACKENDS = {
    "serial": SerialBackend,
    "process": ProcessPoolBackend,
    "remote": RemoteBackend,
}
"""Backend registry used by the CLI's ``--backend`` flag."""


def make_backend(name: str, **kwargs):
    """Instantiate a backend by registry name."""
    try:
        factory = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; choose from {sorted(BACKENDS)}"
        ) from None
    return factory(**kwargs)


def _graph_hints(specs: Sequence[JobSpec]) -> List:
    """Build each distinct input graph once and map it onto *specs*.

    Specs that share graph coordinates (family/far, n, effective graph
    seed) receive the *same* graph object, so downstream consumers --
    most importantly the simulator's per-graph compiled-topology memo --
    only pay the derivation once per distinct topology.  Graphless
    kinds (audit jobs) receive ``None``.
    """
    built: Dict = {}
    hints = []
    for spec in specs:
        if not spec_needs_graph(spec):
            hints.append(None)
            continue
        key = spec.graph_coordinates
        graph = built.get(key)
        if graph is None:
            graph = built[key] = spec.build_graph()
        hints.append(graph)
    return hints


@dataclass
class BatchResult:
    """Outcome of one :func:`run_jobs` call.

    Attributes:
        records: one record per input spec, in input order.
        cache_stats: snapshot of this batch's hits/misses (hits are
            lookups answered from the cache *in this call*).
        backend: name of the backend that ran the misses.
        executed: number of jobs actually executed (= misses).
    """

    records: List[Record]
    cache_stats: CacheStats
    backend: str
    executed: int

    def __iter__(self):
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)


def iter_jobs(
    specs: Sequence[JobSpec],
    backend=None,
    cache: Optional[ResultCache] = None,
    stats: Optional[CacheStats] = None,
    cost_book=None,
    batch: Optional[int] = None,
    config: Optional[RunConfig] = None,
) -> Iterator[Tuple[int, Record, bool]]:
    """Execute *specs*, yielding ``(index, record, from_cache)`` as they land.

    Cache hits stream first (input order); misses follow in the
    backend's completion order.  Fresh records are stored into *cache*
    the moment they arrive, so concurrent orchestrators sharing one
    on-disk store observe them mid-batch.  Duplicate specs within the
    batch execute once; their copies are yielded when the first record
    lands.

    Args:
        specs: job specs to run.
        backend: backend instance or registry name (default serial).
        cache: optional :class:`ResultCache`.
        stats: optional :class:`CacheStats` to fill with this batch's
            hit/miss/store counters (what :func:`run_jobs` reports).
        cost_book: optional :class:`~repro.runtime.scheduler.CostBook`
            fed one ``(kind, n, seconds)`` observation per executed
            job (cache hits are never observed; a coalesced trial is
            observed under its own ``simulate_program`` kind at its
            amortized ``seconds / B`` share).
        batch: coalesce eligible same-cell simulator trials into
            ``simulate_batch`` jobs of at most this many members
            (``None`` consults ``REPRO_SIM_BATCH``; 1 disables).  The
            expansion is transparent: yielded records, cache contents,
            and cost observations are per-trial regardless.
        config: optional :class:`~repro.runtime.config.RunConfig`; when
            *batch* is ``None`` its ``sim_batch`` knob (arg > env >
            default) supplies the coalescing limit.  Every explicitly
            set knob is exported to the environment while the batch
            runs, so job code, pool forks and same-host workers resolve
            the run identically.
    """
    if config is None:
        config = RunConfig()
    if batch is None:
        batch = config.resolve("sim_batch")
    with config.export():
        yield from _iter_jobs(specs, backend, cache, stats, cost_book, batch)


def _iter_jobs(specs, backend, cache, stats, cost_book, batch):
    """:func:`iter_jobs` with a resolved limit and the config exported."""
    if backend is None:
        backend = SerialBackend()
    elif isinstance(backend, str):
        backend = make_backend(backend)
    specs = list(specs)
    batch_stats = stats if stats is not None else CacheStats()
    traced = telemetry_enabled()

    # pending: key -> indices of the specs sharing it; the first index
    # of each entry runs, the rest piggyback on its record.
    pending: Dict = {}
    if cache is None:
        # No cache: still deduplicate identical specs within the batch.
        keys: Sequence = specs
        for index, spec in enumerate(specs):
            pending.setdefault(spec, []).append(index)
    else:
        deriver = KeyDeriver()
        keys = [deriver.key_for(spec) for spec in specs]
        for index, key in enumerate(keys):
            if key in pending:
                pending[key].append(index)
                batch_stats.hits += 1
                continue
            hit = cache.lookup(key)
            if hit is not None:
                batch_stats.hits += 1
                if traced:
                    get_metrics().inc("cache.hits")
                yield index, hit, True
            else:
                batch_stats.misses += 1
                if traced:
                    get_metrics().inc("cache.misses")
                pending[key] = [index]

    if not pending:
        return
    miss_indices = [indices[0] for indices in pending.values()]
    miss_specs = [specs[i] for i in miss_indices]
    dispatch, sources = coalesce(miss_specs, batch)
    dispatch_graphs = (
        _graph_hints(dispatch)
        if getattr(backend, "wants_graph_hints", False)
        else None
    )
    store = absorb = None
    if cache is not None:
        # When the backend persists to this cache's own disk store (a
        # remote backend whose service shares store_dir), the record is
        # already on disk by the time it streams back: remember it in
        # memory only, or every line would land twice.  Coalesced
        # trials are the exception: the service persisted only the
        # *batch* record under the batch key, so the expanded per-trial
        # records must be stored here regardless.
        backend_store = getattr(backend, "store_dir", None)
        backend_persists = (
            backend_store is not None
            and cache.disk_dir is not None
            and Path(backend_store).resolve() == Path(cache.disk_dir).resolve()
        )
        store = cache.store
        absorb = cache.remember if backend_persists else cache.store
    for position, record, seconds in backend.run_stream(
        dispatch, graphs=dispatch_graphs
    ):
        members = sources[position]
        if dispatch[position].kind == "simulate_batch":
            per_trial = seconds / len(members) if seconds is not None else None
            expanded = zip(members, expand_batch_record(record))
            store_trial = store
        else:
            per_trial = seconds
            expanded = ((members[0], record),)
            store_trial = absorb
        for source, trial_record in expanded:
            key = keys[miss_indices[source]]
            if cost_book is not None and per_trial is not None:
                spec = miss_specs[source]
                cost_book.observe(spec.kind, spec.n, per_trial)
            if store_trial is not None:
                store_trial(key, trial_record)
                batch_stats.stores += 1
            for index in pending[key]:
                yield index, dict(trial_record), False


def run_jobs(
    specs: Sequence[JobSpec],
    backend=None,
    cache: Optional[ResultCache] = None,
    cost_book=None,
    config: Optional[RunConfig] = None,
) -> BatchResult:
    """Execute *specs*, serving repeats from *cache*.

    Args:
        specs: job specs; duplicates within the batch are executed once.
        backend: a backend instance or registry name; defaults to
            :class:`SerialBackend`.
        cache: a :class:`ResultCache`; ``None`` disables caching (every
            spec executes).
        cost_book: optional :class:`~repro.runtime.scheduler.CostBook`
            collecting per-job wall-times (see :func:`iter_jobs`).
        config: optional :class:`~repro.runtime.config.RunConfig`
            supplying the ``sim_batch`` coalescing limit and the knobs
            exported while the batch runs (see :func:`iter_jobs`).

    Returns:
        A :class:`BatchResult` with one record per spec, in input order.
    """
    return _run_jobs(
        specs, backend=backend, cache=cache, cost_book=cost_book,
        config=config,
    )


def _run_jobs(
    specs: Sequence[JobSpec],
    backend=None,
    cache: Optional[ResultCache] = None,
    cost_book=None,
    batch: Optional[int] = None,
    config: Optional[RunConfig] = None,
) -> BatchResult:
    """:func:`run_jobs` with an optional resolved coalescing limit
    (``run_sweep`` sizes ``"auto"`` batches before calling it)."""
    if backend is None:
        backend = SerialBackend()
    elif isinstance(backend, str):
        backend = make_backend(backend)

    specs = list(specs)
    batch_stats = CacheStats()
    records: List[Optional[Record]] = [None] * len(specs)
    for index, record, _from_cache in iter_jobs(
        specs, backend=backend, cache=cache, stats=batch_stats,
        cost_book=cost_book, batch=batch, config=config,
    ):
        records[index] = record
    executed = batch_stats.misses if cache is not None else len(set(specs))
    return BatchResult(
        records=[r for r in records if r is not None],
        cache_stats=batch_stats,
        backend=getattr(backend, "name", type(backend).__name__),
        executed=executed,
    )
