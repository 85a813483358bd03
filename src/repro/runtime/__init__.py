"""Fleet orchestrator: sharded batch execution with a shared result store.

The runtime turns every computation in the repo -- planarity tests,
partitions, spanners, the Corollary 16 tester, claim audits -- into a
declarative, hashable :class:`JobSpec`, executes batches of them on
three paths (in-process, a chunked process pool, or a worker fleet
behind a :class:`SweepService` -- persistent via ``repro-planarity
serve``, or ephemeral via ``sweep --backend remote`` -- whose TCP
workers may die mid-job without losing work), and memoizes records
under keys derived from graph coordinates + config digest in a
sharded multi-writer on-disk store that concurrent processes share
(with timestamps, TTL/byte-budget GC, and a metadata shard holding the
scheduler's measured cost table).  Sweeps split into deterministic
shards (``run_sweep(shard=(i, k))`` / ``repro-planarity sweep --shard
i/k``, each leg the ``ShardedSweep.shard_specs(i)`` slice) -- by
key-hash or cost-balanced LPT (``--balance cost``) -- and resume from
whatever the store already holds, which reassembles the grid.

Typical use -- the :class:`Client` facade, which runs the same
``submit(SweepSpec)`` against the in-process serial path, any local
backend, or a live ``repro-planarity serve`` endpoint::

    from repro.runtime import Client, RunConfig, SweepSpec

    sweep = SweepSpec.make(
        "test_planarity", families=["grid"], ns=[128, 256],
        epsilon=[0.5, 0.25], seeds=[0, 1],
    )
    client = Client(backend="serial", cache_dir="/tmp/repro-cache",
                    config=RunConfig(sim_batch="auto"))
    for record in client.submit(sweep):       # canonical expansion order
        print(record["n"], record["accepted"])

    remote = Client(endpoint="127.0.0.1:7077")  # same call, live fleet
    records = remote.run(sweep)               # byte-identical records

Batch-level control (the layer the facade sits on) stays available::

    from repro.runtime import JobSpec, ShardedStore, run_jobs

    specs = [
        JobSpec.make("test_planarity", family="grid", n=n, epsilon=0.25)
        for n in (128, 256, 512)
    ]
    store = ShardedStore("/tmp/repro-cache")
    batch = run_jobs(specs, backend="process", store=store)

The public surface splits in two: ``STABLE_API`` names are the
supported library API (semver-stable); everything else in ``__all__``
is internal machinery re-exported for the CLI, benchmarks, and tests,
and may change between PRs without notice.
"""

from .batching import (
    AUTO_BATCH_DEFAULT,
    AUTO_BATCH_MAX,
    AUTO_TARGET_SECONDS,
    BATCHABLE_PROGRAMS,
    auto_batch_size,
    batchable,
    coalesce,
    expand_batch_record,
    make_batch_spec,
)
from .codec import (
    GLOBAL_SHAPES,
    CodecError,
    ShapeRegistry,
    WireProtocolError,
    decode_record,
    encode_record,
    encode_wire_frame,
    read_wire_frame,
)
from .client import Client, ServiceError
from .config import RunConfig
from .remote import PROTOCOL_VERSION, RemoteBackend
from .scheduler import CostBook, CostModel, SpeculationPolicy, assign_shards
from .service import SweepService
from .cache import (
    CacheStats,
    cache_key,
    config_digest,
    coordinate_fingerprint,
)
from .executor import (
    BACKENDS,
    BatchResult,
    ProcessPoolBackend,
    SerialBackend,
    iter_jobs,
    make_backend,
    run_jobs,
)
from .jobs import (
    JobSpec,
    Record,
    job_kinds,
    register_kind,
    run_job,
    run_job_timed,
    spec_needs_graph,
)
from .seeding import derive_rng, derive_seed
from .store import (
    GCReport,
    ShardedStore,
    StoreStats,
    shard_of_key,
)
from .sweeps import (
    ShardedSweep,
    SweepResult,
    SweepSpec,
    job_shard,
    run_sweep,
)

from . import audit as _audit_kinds  # noqa: F401  (registers E08-E14 kinds)

STABLE_API = [
    # The supported library surface: one facade, its spec/config
    # inputs, the batch entry points it wraps, and the result store.
    "Client",
    "JobSpec",
    "SweepSpec",
    "RunConfig",
    "run_jobs",
    "run_sweep",
    "iter_jobs",
    "ShardedStore",
    "SweepService",
    "ServiceError",
    "BatchResult",
    "SweepResult",
    "Record",
]

_INTERNAL_API = [
    # Machinery re-exported for the CLI, benchmarks, and tests; may
    # change between PRs without notice.
    "BACKENDS",
    "AUTO_BATCH_DEFAULT",
    "AUTO_BATCH_MAX",
    "AUTO_TARGET_SECONDS",
    "BATCHABLE_PROGRAMS",
    "CacheStats",
    "CodecError",
    "CostBook",
    "CostModel",
    "GCReport",
    "GLOBAL_SHAPES",
    "PROTOCOL_VERSION",
    "ProcessPoolBackend",
    "RemoteBackend",
    "SerialBackend",
    "ShapeRegistry",
    "ShardedSweep",
    "SpeculationPolicy",
    "StoreStats",
    "WireProtocolError",
    "assign_shards",
    "auto_batch_size",
    "batchable",
    "cache_key",
    "coalesce",
    "config_digest",
    "coordinate_fingerprint",
    "derive_rng",
    "derive_seed",
    "expand_batch_record",
    "job_kinds",
    "job_shard",
    "make_backend",
    "make_batch_spec",
    "decode_record",
    "encode_record",
    "encode_wire_frame",
    "read_wire_frame",
    "register_kind",
    "run_job",
    "run_job_timed",
    "shard_of_key",
    "spec_needs_graph",
]

__all__ = STABLE_API + _INTERNAL_API
