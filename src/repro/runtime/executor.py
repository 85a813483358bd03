"""Pluggable batch-execution backends behind one ``run_jobs`` API.

``run_jobs(specs)`` is the single entry point the CLI, the sweeps
front-end, and the benchmarks use to execute work:

1. every spec's cache key is derived from its graph coordinates and
   config (no graph is generated for it); specs sharing a key run once;
2. hits in the optional :class:`~repro.runtime.store.ShardedStore`
   are answered immediately;
3. the misses are dispatched to the chosen backend --
   :class:`SerialBackend` runs them in-process,
   :class:`ProcessPoolBackend` fans them over a
   :class:`concurrent.futures.ProcessPoolExecutor` with chunked
   dispatch, and :class:`~repro.runtime.remote.RemoteBackend` submits
   them to an ephemeral :class:`~repro.runtime.service.SweepService`
   whose worker fleet joins over TCP;
4. fresh records are put into the store and the full result list is
   returned in the order of the input specs.

:func:`iter_jobs` is the streaming face of the same machinery: it
yields ``(index, record, from_cache)`` triples as results land
(hits first, then misses in completion order) instead of barriering
the whole batch -- fresh records are stored the moment they arrive, so
a concurrent orchestrator sharing the same store sees them mid-flight.

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
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..telemetry.metrics import get_metrics
from ..telemetry.spans import telemetry_enabled
from .batching import auto_batch_size, coalesce, expand_batch_record
from .cache import CacheStats, KeyDeriver
from .config import RunConfig
from .jobs import JobSpec, Record, run_job_timed, spec_needs_graph
from .remote import RemoteBackend
from .scheduler import CostModel
from .store import ShardedStore


class SerialBackend:
    """Runs every job in the calling process, one at a time."""

    name = "serial"

    def run_stream(
        self, specs: Sequence[JobSpec]
    ) -> Iterator[Tuple[int, Record, float]]:
        """Yield ``(index, record, seconds)`` as each job finishes.

        Specs with equal ``graph_coordinates`` share one graph -- and so
        one compiled simulator topology (see :mod:`repro.congest.topology`),
        built when the first of them runs and dropped after the last.
        """
        needs = [spec_needs_graph(spec) for spec in specs]
        last = {spec.graph_coordinates: i for i, spec in enumerate(specs) if needs[i]}
        graphs: Dict[Tuple[str, int, int], object] = {}
        for index, spec in enumerate(specs):
            graph = None
            if needs[index]:
                coordinates = spec.graph_coordinates
                if coordinates not in graphs:
                    graphs[coordinates] = spec.build_graph()
                graph = graphs[coordinates]
                if last[coordinates] == index:
                    del graphs[coordinates]
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

    Each dispatch hands a worker ``ceil(len(jobs) / (4 * workers))``
    jobs, so each worker sees a few chunks (amortizing pickling) while
    the tail stays balanced.
    """

    name = "process"

    def __init__(self, max_workers: Optional[int] = None):
        self.max_workers = max_workers

    def _plan(self, specs: Sequence[JobSpec]) -> Tuple[int, int]:
        workers = self.max_workers or min(len(specs), os.cpu_count() or 1)
        workers = max(1, min(workers, len(specs)))
        return workers, max(1, -(-len(specs) // (4 * workers)))

    def run_stream(
        self, specs: Sequence[JobSpec]
    ) -> Iterator[Tuple[int, Record, float]]:
        """Yield ``(index, record, seconds)`` per chunk, as chunks land."""
        if not specs:
            return
        from concurrent.futures import ProcessPoolExecutor, as_completed

        specs = list(specs)
        workers, chunksize = self._plan(specs)
        if workers == 1:
            yield from SerialBackend().run_stream(specs)
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


def _as_backend(backend):
    """*backend* as an instance: ``None`` is serial, a str a registry name."""
    if backend is None:
        return SerialBackend()
    if isinstance(backend, str):
        return make_backend(backend)
    return backend


@dataclass
class BatchResult:
    """Outcome of one :func:`run_jobs` call.

    Attributes:
        records: one record per input spec, in input order.
        cache_stats: this batch's hits/misses/stores (hits are specs
            answered from the store or a same-key spec *in this call*).
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
    store: Optional[ShardedStore] = None,
    stats: Optional[CacheStats] = None,
    cost_book=None,
    config: Optional[RunConfig] = None,
) -> Iterator[Tuple[int, Record, bool]]:
    """Execute *specs*, yielding ``(index, record, from_cache)`` as they land.

    Store hits stream first (input order); misses follow in the
    backend's completion order.  Fresh records are put into *store*
    the moment they arrive, so concurrent orchestrators sharing it
    observe them mid-batch.  Specs sharing a cache key (duplicates,
    or spellings of one job such as an explicit ``graph_seed=seed``)
    execute once; their copies are yielded when the first record
    lands and count as hits.

    Args:
        specs: job specs to run.
        backend: backend instance or registry name (default serial).
        store: optional :class:`~repro.runtime.store.ShardedStore`
            answering hits and keeping fresh records.
        stats: optional :class:`CacheStats` to fill with this batch's
            hit/miss/store counters (what :func:`run_jobs` reports).
        cost_book: optional :class:`~repro.runtime.scheduler.CostBook`
            fed one ``(kind, n, seconds)`` observation per executed
            job (cache hits are never observed; a coalesced trial is
            observed under its own ``simulate_program`` kind at its
            amortized ``seconds / B`` share).
        config: optional :class:`~repro.runtime.config.RunConfig`; its
            ``sim_batch`` knob (arg > env > default) caps how many
            eligible same-cell simulator trials coalesce into one
            ``simulate_batch`` job (1 disables; ``"auto"`` sizes
            batches from the store's measured per-trial wall-times,
            see :func:`~repro.runtime.batching.auto_batch_size`).  The
            expansion is transparent: yielded records, store contents
            and cost observations are per-trial regardless.
    """
    backend = _as_backend(backend)
    specs = list(specs)
    stats = stats if stats is not None else CacheStats()
    limit = (config or RunConfig()).resolve("sim_batch")
    traced = telemetry_enabled()

    # pending: key -> indices of the specs sharing it; the first index
    # of each entry runs, the rest piggyback on its record.
    deriver = KeyDeriver()
    keys = [deriver.key_for(spec) for spec in specs]
    pending: Dict[str, List[int]] = {}
    for index, key in enumerate(keys):
        if key in pending:
            pending[key].append(index)
            stats.hits += 1
            continue
        hit = store.get(key) if store is not None else None
        if hit is not None:
            stats.hits += 1
            if traced:
                get_metrics().inc("cache.hits")
            yield index, hit, True
        else:
            stats.misses += 1
            if traced:
                get_metrics().inc("cache.misses")
            pending[key] = [index]

    if not pending:
        return
    miss_indices = [indices[0] for indices in pending.values()]
    miss_specs = [specs[i] for i in miss_indices]
    if limit == "auto":
        limit = auto_batch_size(CostModel.from_store(store), miss_specs)
    dispatch, sources = coalesce(miss_specs, limit)
    # A remote backend whose service writes to this very store has
    # already put each record by the time it streams back; a second put
    # would double every line.  Coalesced trials are the exception: the
    # service persisted only the *batch* record, so the expanded
    # per-trial records are put here regardless.
    backend_store = getattr(backend, "store_dir", None)
    backend_persists = (
        store is not None
        and backend_store is not None
        and Path(backend_store).resolve() == store.root.resolve()
    )
    for position, record, seconds in backend.run_stream(dispatch):
        members = sources[position]
        if dispatch[position].kind == "simulate_batch":
            per_trial = seconds / len(members) if seconds is not None else None
            expanded = zip(members, expand_batch_record(record))
            put = store is not None
        else:
            per_trial = seconds
            expanded = ((members[0], record),)
            put = store is not None and not backend_persists
        for source, trial_record in expanded:
            key = keys[miss_indices[source]]
            if cost_book is not None and per_trial is not None:
                spec = miss_specs[source]
                cost_book.observe(spec.kind, spec.n, per_trial)
            if put:
                store.put(key, trial_record)
            if store is not None:
                stats.stores += 1
            for index in pending[key]:
                yield index, dict(trial_record), False


def run_jobs(
    specs: Sequence[JobSpec],
    backend=None,
    store: Optional[ShardedStore] = None,
    cost_book=None,
    config: Optional[RunConfig] = None,
    on_record: Optional[Callable[[int, Record, bool], None]] = None,
) -> BatchResult:
    """Execute *specs*, serving repeats from *store*.

    Args:
        specs: job specs; specs sharing a cache key execute once.
        backend: a backend instance or registry name; defaults to
            :class:`SerialBackend`.
        store: a :class:`~repro.runtime.store.ShardedStore`; ``None``
            disables caching across calls.
        cost_book / config: as :func:`iter_jobs`.
        on_record: optional callback receiving each ``(index, record,
            from_cache)`` as it lands (the sweep dashboard's feed).

    Returns:
        A :class:`BatchResult` with one record per spec, in input order.
    """
    backend = _as_backend(backend)
    specs = list(specs)
    stats = CacheStats()
    records: List[Optional[Record]] = [None] * len(specs)
    for index, record, from_cache in iter_jobs(
        specs, backend=backend, store=store, stats=stats,
        cost_book=cost_book, config=config,
    ):
        records[index] = record
        if on_record is not None:
            on_record(index, record, from_cache)
    return BatchResult(
        records=[r for r in records if r is not None],
        cache_stats=stats,
        backend=getattr(backend, "name", type(backend).__name__),
        executed=stats.misses,
    )
