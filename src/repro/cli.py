"""Command-line interface: ``repro-planarity``.

Subcommands:

* ``test``        -- run the Theorem 1 planarity tester on a generated graph
* ``partition``   -- run the Theorem 3/4 partition and report its quality
* ``spanner``     -- build the Corollary 17 spanner and measure it
* ``applications``-- run the Corollary 16 cycle-freeness/bipartiteness testers
* ``lower-bound`` -- sample the Theorem 2 hard instance and certify it
* ``families``    -- list available graph families
* ``sweep``       -- expand an n x epsilon x seed grid into jobs and run
  them on the :mod:`repro.runtime` orchestrator (serial, process-pool,
  or remote backend -- an ephemeral sweep service whose workers join
  over TCP -- with a sharded on-disk result store)
* ``serve``       -- run the persistent sweep service: many clients
  submit sweeps concurrently, one shared worker fleet executes them
  (round-robin fairness, admission control, straggler re-dispatch)
* ``submit``      -- send one sweep to a running ``serve`` endpoint
  (``--connect``) or run it through the same :class:`Client` facade
  locally (``--backend``); records are identical either way
* ``worker``      -- join a ``serve`` fleet or a ``sweep --backend
  remote`` run over TCP (``--reconnect`` survives restarts)
* ``cache``       -- inspect (``stats``) or garbage-collect (``gc``)
  a sharded result store
* ``trace``       -- inspect a telemetry trace directory written by
  ``sweep --trace DIR``: ``view`` (span tree), ``top`` (slowest span
  groups), ``export --chrome`` (Chrome ``trace_event`` JSON)

The five one-shot commands (``test`` .. ``lower-bound``) run their job
kinds (:data:`ONE_SHOTS`) as one-cell sweeps on the serial backend, the
path ``sweep`` takes, and print the records as its tables do; ``test``
exits 1 on a reject and ``partition`` on ``success=False``.  Every
``--epsilon`` / ``--epsilons`` value must lie in ``(0, 1]``, every
``--delta`` / ``--deltas`` value in ``(0, 1)``, and a swept grid may
name only parameters its kind takes (``--methods`` on ``--kind test``
is a usage error).

The ``sweep`` subcommand takes comma-separated axis lists and executes
their cartesian product; repeated invocations with ``--cache-dir`` are
served from the sharded on-disk store instead of re-running the
simulator.  ``--shard i/k`` runs one deterministic slice of the grid
(point every slice at the same ``--cache-dir``, possibly from different
machines; ``--balance cost`` splits by measured job cost instead of
key-hash counts) and ``--resume`` finishes whatever keys the store is
still missing.  ``--backend remote --listen host:port`` runs the grid
on a sweep service that lives for this one command;
``repro-planarity worker --connect host:port`` processes join it, and
a worker killed mid-run has its job requeued.
``--kind simulate`` sweeps raw CONGEST protocols (``--programs``) on
the simulator.

Examples::

    repro-planarity test --family delaunay --n 1000 --epsilon 0.1
    repro-planarity test --far planted-k5 --n 500 --epsilon 0.1
    repro-planarity spanner --family grid --n 900 --epsilon 0.2
    repro-planarity sweep --kind test --families grid,delaunay \\
        --ns 128,256,512 --epsilons 0.5,0.1 --seeds 0,1 \\
        --backend process --cache-dir /tmp/repro-cache
    repro-planarity sweep --kind simulate --programs bfs,storm \\
        --families delaunay --ns 256
    repro-planarity sweep --backend remote --listen 127.0.0.1:7341 \\
        --cache-dir /tmp/repro-cache   # then, on each worker host:
    repro-planarity worker --connect 127.0.0.1:7341
    repro-planarity serve --listen 127.0.0.1:7077 \\
        --cache-dir /tmp/repro-cache   # persistent fleet; then:
    repro-planarity worker --connect 127.0.0.1:7077 --reconnect
    repro-planarity submit --connect 127.0.0.1:7077 --kind test \\
        --families grid --ns 128,256 --epsilons 0.5,0.1
    repro-planarity cache gc --cache-dir /tmp/repro-cache \\
        --ttl 604800 --max-bytes 500000000
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .analysis.tables import Table
from .graphs.far_from_planar import FAR_FAMILIES
from .graphs.generators import PLANAR_FAMILIES
from .partition.weighted_selection import METHODS
from .runtime import (
    Client,
    RunConfig,
    ShardedStore,
    SweepSpec,
    make_backend,
    run_sweep,
)
from .runtime.config import parse_batch
from .runtime.remote import parse_endpoint
from .runtime.worker import add_worker_arguments, run_worker

SWEEP_KINDS = {
    "test": "test_planarity",
    "partition": "partition_stage1",
    "partition-randomized": "partition_randomized",
    "spanner": "spanner",
    "cycle-freeness": "cycle_freeness",
    "bipartiteness": "bipartiteness",
    "simulate": "simulate_program",
}

# One-shot command -> (table title, the record field whose False exits
# 1, its flags -> the (job kind, params) cells it runs).  Each cell is a
# one-cell sweep over the command's graph, --n, --seed and --epsilon;
# ``{graph}`` and the flags fill the title.
ONE_SHOTS = {
    "test": ("Planarity test on {graph}", "accepted", lambda a: [
        ("test_planarity", {"collect_exact_violations": a.analyze})]),
    "partition": ("{method} partition of {graph}", "success", lambda a: [
        ("partition_randomized", {"delta": a.delta}) if a.method == "randomized"
        else ("partition_stage1", {"target_cut": "eps*n"})]),
    "spanner": ("Corollary 17 spanner on {graph}", None, lambda a: [
        ("spanner", {"method": a.method})]),
    "applications": (
        "Corollary 16 testers (cycle-freeness, bipartiteness) on {graph}", None,
        lambda a: [("cycle_freeness", {}), ("bipartiteness", {})]),
    "lower-bound": ("Theorem 2 lower-bound instance", None, lambda a: [
        ("lower_bound_audit", {})]),
}


def _cmd_one_shot(args) -> int:
    """Run a one-shot command's cells as sweeps and print their records."""
    title, verdict, cells = ONE_SHOTS[args.command]
    flags = vars(args)
    axes = {"ns": [args.n], "seeds": [args.seed]}
    if flags.get("far"):
        axes["fars"] = [args.far]
    elif "family" in flags:
        axes["families"] = [args.family]
    if "epsilon" in flags:
        axes["epsilon"] = args.epsilon
    result, *others = [
        run_sweep(SweepSpec.make(kind, **axes, **params))
        for kind, params in cells(args)
    ]
    for other in others:
        result.records += other.records
    failed = verdict and not all(record[verdict] for record in result.records)
    for record in result.records:
        if "accepted" in record:
            record["accepted"] = "accept" if record["accepted"] else "REJECT"
    # The title names the graph; a graphless kind's record carries the
    # default family, which it never built.
    columns = [key for key in result.records[0] if key not in ("graph", "family")]
    title = title.format(graph=result.records[0]["graph"], **flags)
    result.to_table(title, columns).print()
    return 1 if failed else 0


def _parse_axis(raw: str, convert):
    """Parse a comma-separated CLI axis into a list of *convert* values."""
    values = [convert(tok.strip()) for tok in raw.split(",") if tok.strip()]
    if not values:
        raise SystemExit(f"empty axis list: {raw!r}")
    return values


def _parse_shard(raw: Optional[str]):
    """Parse ``--shard i/k`` into ``(index, count)`` or ``None``."""
    if raw is None:
        return None
    try:
        index_text, count_text = raw.split("/", 1)
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise SystemExit(f"--shard expects i/k (e.g. 0/2), got {raw!r}")
    if count <= 0 or not 0 <= index < count:
        raise SystemExit(f"--shard index out of range: {raw!r}")
    return index, count


def _batch_argument(raw: str):
    """``--batch`` through :func:`~repro.runtime.config.parse_batch`."""
    try:
        return parse_batch(raw)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _checked(convert, holds, rule: str):
    """An argparse type: a *convert* value for which *holds* is true (NaN
    never is); any other value is a usage error quoting *rule*."""

    def parse(raw: str):
        value = convert(raw)
        if not holds(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {raw}")
        return value

    parse.__name__ = convert.__name__  # argparse names the type in errors
    return parse


_epsilon = _checked(float, lambda value: 0 < value <= 1, "epsilon must be in (0, 1]")
_delta = _checked(float, lambda value: 0 < value < 1, "delta must be in (0, 1)")


def _axis_of(convert):
    """An argparse type: a comma-separated list of *convert* values."""

    def parse(raw: str):
        return _parse_axis(raw, convert)

    parse.__name__ = f"{convert.__name__} list"
    return parse


def _non_negative(kind):
    return _checked(kind, lambda value: value >= 0, "must be >= 0")


def _positive(kind):
    return _checked(kind, lambda value: value > 0, "must be > 0")


def _sweep_spec_from_args(args) -> SweepSpec:
    """Expand the grid axes shared by ``sweep`` and ``submit``."""
    kind = SWEEP_KINDS[args.kind]
    if kind == "simulate_program":
        # Simulator sweeps iterate over protocols, not epsilons.
        params = {"program": _parse_axis(args.programs, str)}
    else:
        params = {"epsilon": args.epsilons}
    if args.deltas:
        params["delta"] = args.deltas
    if args.methods:
        params["method"] = _parse_axis(args.methods, str)
    fars = _parse_axis(args.far_families, str) if args.far_families else ()
    sweep = SweepSpec.make(
        kind,
        families=_parse_axis(args.families, str),
        fars=fars,
        ns=_parse_axis(args.ns, int),
        seeds=_parse_axis(args.seeds, int),
        **params,
    )
    try:
        sweep.expand()  # each JobSpec.make refuses an undeclared parameter
    except ValueError as exc:
        raise argparse.ArgumentError(None, str(exc)) from None
    return sweep


def _cmd_sweep(args) -> int:
    sweep = _sweep_spec_from_args(args)
    if args.trace:
        # Enable tracing for this process and everything it spawns
        # (pool forks, remote welcome frames).
        from .telemetry import configure

        configure(trace_dir=args.trace)
    progress = None
    if args.progress:
        from .telemetry.dashboard import SweepProgress

        progress = SweepProgress()
    if args.backend == "process":
        backend = make_backend("process", max_workers=args.workers)
    elif args.backend == "remote":
        if not args.listen:
            raise SystemExit("--backend remote needs --listen HOST:PORT")
        try:
            host, port = parse_endpoint(args.listen)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
        backend = make_backend(
            "remote", host=host, port=port, store_dir=args.cache_dir
        )
        backend.bind()
        print(
            f"remote backend listening on {backend.host}:"
            f"{backend.bound_port} (join with: repro-planarity worker "
            f"--connect {backend.host}:{backend.bound_port})"
        )
    else:
        backend = make_backend(args.backend)
    store = ShardedStore(args.cache_dir) if args.cache_dir else None
    shard = _parse_shard(args.shard)
    if args.resume and store is None:
        raise SystemExit("--resume needs --cache-dir (the store to resume from)")
    if args.balance == "cost" and store is None:
        raise SystemExit(
            "--balance cost needs --cache-dir (the store holding the "
            "measured cost table)"
        )
    result = run_sweep(
        sweep, backend=backend, store=store, shard=shard, resume=args.resume,
        balance=args.balance, progress=progress,
        config=RunConfig(sim_batch=args.batch),
    )
    shard_label = f" [shard {shard[0]}/{shard[1]}]" if shard else ""
    # Sorted columns, as in ``submit``: records decoded from the store
    # or the wire list their fields in codec order, and the remote
    # smoke byte-compares this table against a serial leg.
    table = result.to_table(
        f"sweep: {args.kind} over {len(result.records)} jobs{shard_label}",
        columns=sorted({key for record in result.records for key in record}),
    )
    table.print()
    summary = result.summary()
    print(
        f"jobs={summary['jobs']} executed={summary['executed']} "
        f"backend={summary['backend']}"
    )
    print(f"cache: {result.batch.cache_stats.summary_line()}")
    if args.markdown:
        with open(args.markdown, "w") as handle:
            handle.write(table.to_markdown() + "\n")
        print(f"markdown table written to {args.markdown}")
    if args.trace:
        print(
            f"trace written to {args.trace} (inspect with: "
            f"repro-planarity trace view {args.trace})"
        )
    return 0


def _cmd_trace(args) -> int:
    from .telemetry import chrome_trace, read_events, render_tree, top_spans

    events = read_events(args.trace_dir)
    if not events:
        print(f"no trace events under {args.trace_dir}", file=sys.stderr)
        return 1
    if args.trace_command == "view":
        for line in render_tree(events, max_lines=args.max_lines):
            print(line)
        return 0
    if args.trace_command == "top":
        rows = top_spans(events, name=args.name)
        table = Table(
            f"top spans in {args.trace_dir} ({len(events)} events)",
            ["span", "kind", "count", "total s", "mean s", "max s"],
        )
        for row in rows[: args.limit]:
            table.add_row(
                row["name"],
                row["kind"],
                row["count"],
                f"{row['total_s']:.4f}",
                f"{row['mean_s']:.4f}",
                f"{row['max_s']:.4f}",
            )
        table.print()
        return 0
    # export
    payload = chrome_trace(events) if args.chrome else events
    with open(args.out, "w") as handle:
        json.dump(payload, handle, separators=(",", ":"))
        handle.write("\n")
    label = "Chrome trace_event" if args.chrome else "merged event list"
    print(f"wrote {label} ({len(events)} events) to {args.out}")
    return 0


def _cmd_families(_args) -> int:
    print("planar families: ", ", ".join(sorted(PLANAR_FAMILIES)))
    print("far families:    ", ", ".join(sorted(FAR_FAMILIES)))
    return 0


def _cmd_serve(args) -> int:
    import signal

    from .runtime.scheduler import SpeculationPolicy
    from .runtime.service import SweepService

    try:
        host, port = parse_endpoint(args.listen)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    service = SweepService(
        host=host,
        port=port,
        store_dir=args.cache_dir,
        heartbeat=args.heartbeat,
        max_clients=args.max_clients,
        max_pending=args.max_pending,
        speculation=SpeculationPolicy() if args.speculate else None,
    )
    service.bind()
    print(
        f"service listening on {service.endpoint}\n"
        f"  workers: repro-planarity worker --connect {service.endpoint} "
        f"--reconnect\n"
        f"  clients: repro-planarity submit --connect {service.endpoint} ...",
        flush=True,
    )
    # Graceful shutdown on SIGTERM (supervisors, CI) as well as ^C.
    # SIGINT needs re-arming too: a shell that launched us in the
    # background may have left it SIG_IGN, in which case Python never
    # installs its KeyboardInterrupt handler.
    def _interrupt(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _interrupt)
    signal.signal(signal.SIGINT, _interrupt)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        service.stop()
    return 0


def _cmd_submit(args) -> int:
    sweep = _sweep_spec_from_args(args)
    client = Client(
        endpoint=args.connect,
        backend=args.backend,
        cache_dir=args.cache_dir,
        config=RunConfig(sim_batch=args.batch),
        name=args.name,
    )

    def on_progress(frame) -> None:
        print(
            f"progress: {frame.get('done')}/{frame.get('total')} "
            f"(queued {frame.get('queued')}, inflight {frame.get('inflight')}, "
            f"workers {frame.get('workers')})",
            file=sys.stderr,
        )

    records = list(
        client.submit(sweep, on_progress=on_progress if args.progress else None)
    )
    # Sorted columns so the rendering is deterministic whatever order
    # record fields arrived in -- the CI smoke byte-compares the
    # markdown of a serial leg against concurrent service legs.
    columns = sorted({key for record in records for key in record})
    table = Table(f"submit: {args.kind} over {len(records)} jobs", columns)
    for record in records:
        table.add_row(*(record.get(col, "-") for col in columns))
    table.print()
    target = (
        f"service {args.connect}" if args.connect else f"backend {args.backend}"
    )
    print(f"jobs={len(records)} target={target}")
    if args.markdown:
        with open(args.markdown, "w") as handle:
            handle.write(table.to_markdown() + "\n")
        print(f"markdown table written to {args.markdown}")
    return 0


def _format_bytes(count) -> str:
    if count is None:
        return "-"
    value = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:,.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024
    return f"{int(count)} B"


def _cmd_cache(args) -> int:
    store = ShardedStore(args.cache_dir)
    if args.cache_command == "dump":
        count = 0
        for key, stamp, record in sorted(store.dump()):
            if args.json:
                print(json.dumps(
                    {"key": key, "stamp": stamp, "record": record},
                    sort_keys=True,
                ))
            else:
                print(f"{key}  @{stamp}  {json.dumps(record, sort_keys=True)}")
            count += 1
        if not args.json:
            print(f"({count} live entries)", file=sys.stderr)
        return 0
    if args.cache_command == "stats":
        usage = store.usage()
        table = Table(
            f"store {usage['root']}",
            ["shards", "entries", "live", "on disk", "reclaimable", "meta"],
        )
        table.add_row(
            usage["shards"],
            usage["entries"],
            _format_bytes(usage["live_bytes"]),
            _format_bytes(usage["file_bytes"]),
            _format_bytes(usage["reclaimable_bytes"]),
            usage["meta_entries"],
        )
        table.print()
        if usage["oldest_t"] is not None:
            import time as _time

            now = _time.time()
            print(
                f"entry age: newest {now - usage['newest_t']:.0f}s, "
                f"oldest {now - usage['oldest_t']:.0f}s"
            )
        return 0
    # gc
    if args.ttl is None and args.max_bytes is None and not args.compact:
        raise SystemExit(
            "cache gc needs --ttl and/or --max-bytes (or --compact for a "
            "newest-wins rewrite only)"
        )
    report = store.gc(ttl=args.ttl, max_bytes=args.max_bytes,
                      grace=args.grace)
    print(
        f"gc: removed {report.entries_removed} entries "
        f"({report.expired_entries} expired, {report.evicted_entries} over "
        f"byte budget), reclaimed {_format_bytes(report.bytes_reclaimed)}; "
        f"kept {report.entries_kept} entries "
        f"({_format_bytes(report.bytes_kept)})"
    )
    return 0


def _add_graph_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--family",
        default="delaunay",
        choices=sorted(PLANAR_FAMILIES),
        help="planar family to generate",
    )
    parser.add_argument(
        "--far",
        default=None,
        choices=sorted(FAR_FAMILIES),
        help="generate a certified far-from-planar family instead",
    )
    parser.add_argument("--n", type=int, default=500, help="number of nodes")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument(
        "--epsilon", type=_epsilon, default=0.1, help="distance parameter in (0, 1]"
    )


def _add_sweep_axis_arguments(parser: argparse.ArgumentParser) -> None:
    """Grid axes + run knobs shared by ``sweep`` and ``submit``."""
    parser.add_argument(
        "--kind",
        default="test",
        choices=sorted(SWEEP_KINDS),
        help="workload to sweep",
    )
    parser.add_argument(
        "--families",
        default="delaunay",
        help="comma-separated planar families",
    )
    parser.add_argument(
        "--far-families",
        default=None,
        help="comma-separated far families (overrides --families)",
    )
    parser.add_argument("--ns", default="256,512", help="comma-separated sizes")
    parser.add_argument(
        "--epsilons",
        type=_axis_of(_epsilon),
        default="0.5,0.1",
        help="comma-separated epsilons, each in (0, 1]",
    )
    parser.add_argument("--seeds", default="0", help="comma-separated seeds")
    parser.add_argument(
        "--deltas",
        type=_axis_of(_delta),
        default=None,
        help="comma-separated deltas, each in (0, 1) (randomized kinds)",
    )
    parser.add_argument(
        "--methods", default=None, help="comma-separated methods (spanner/apps)"
    )
    parser.add_argument(
        "--programs",
        default="bfs",
        help="comma-separated simulator programs (simulate kind): "
        "bfs,cv,flood,forest,storm",
    )
    parser.add_argument(
        "--batch",
        type=_batch_argument,
        default=None,
        metavar="B",
        help="coalesce up to B same-cell simulator trials into one "
        "graph-batched tensor-plane job (simulate kind; records are "
        "identical to unbatched runs; 'auto' sizes "
        "batches from the cost table's measured per-trial wall-times; "
        "default REPRO_SIM_BATCH or 1)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-planarity",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="run the Theorem 1 planarity tester")
    _add_graph_arguments(p_test)
    p_test.add_argument(
        "--analyze", action="store_true", help="collect exact violating counts"
    )
    p_test.set_defaults(func=_cmd_one_shot)

    p_part = sub.add_parser("partition", help="run the Theorem 3/4 partition")
    _add_graph_arguments(p_part)
    p_part.add_argument("--method", default="deterministic", choices=METHODS)
    p_part.add_argument(
        "--delta", type=_delta, default=0.1, help="failure probability in (0, 1)"
    )
    p_part.set_defaults(func=_cmd_one_shot)

    p_span = sub.add_parser("spanner", help="build the Corollary 17 spanner")
    _add_graph_arguments(p_span)
    p_span.add_argument("--method", default="deterministic", choices=METHODS)
    p_span.set_defaults(func=_cmd_one_shot)

    p_app = sub.add_parser(
        "applications", help="run the Corollary 16 property testers"
    )
    _add_graph_arguments(p_app)
    p_app.set_defaults(func=_cmd_one_shot)

    p_lb = sub.add_parser(
        "lower-bound", help="sample the Theorem 2 hard instance"
    )
    p_lb.add_argument("--n", type=int, default=2000)
    p_lb.add_argument("--seed", type=int, default=0)
    p_lb.set_defaults(func=_cmd_one_shot)

    p_fam = sub.add_parser("families", help="list graph families")
    p_fam.set_defaults(func=_cmd_families)

    p_sweep = sub.add_parser(
        "sweep",
        help="run a parameter-grid sweep on the batch runtime",
    )
    _add_sweep_axis_arguments(p_sweep)
    p_sweep.add_argument(
        "--backend",
        default="serial",
        choices=("serial", "process", "remote"),
        help="execution backend (remote runs the sweep on a sweep "
        "service for this command; repro-planarity worker processes "
        "join it over TCP)",
    )
    p_sweep.add_argument(
        "--workers", type=_positive(int), default=None,
        help="pool size (process)"
    )
    p_sweep.add_argument(
        "--listen",
        default=None,
        metavar="HOST:PORT",
        help="endpoint the remote backend's service listens on (required "
        "for --backend remote; port 0 picks an ephemeral port)",
    )
    p_sweep.add_argument(
        "--balance",
        default="hash",
        choices=("hash", "cost"),
        help="--shard placement policy: hash (key-hash counts) or cost "
        "(LPT over the store's measured per-kind/per-n wall-times; "
        "falls back to hash while the cost table is empty)",
    )
    p_sweep.add_argument(
        "--cache-dir",
        default=None,
        help="persist results in a sharded store under this directory "
        "(safe to share between concurrent invocations)",
    )
    p_sweep.add_argument(
        "--shard",
        default=None,
        metavar="I/K",
        help="run only deterministic shard i of k (key-hash split); "
        "point every shard at one --cache-dir and finish with --resume",
    )
    p_sweep.add_argument(
        "--resume",
        action="store_true",
        help="continue a partial sweep: only keys missing from the "
        "cache store execute (requires --cache-dir)",
    )
    p_sweep.add_argument(
        "--markdown", default=None, help="also write the table as markdown"
    )
    p_sweep.add_argument(
        "--trace",
        default=None,
        metavar="DIR",
        help="write a structured trace (spans/events, one JSONL per "
        "participating process) under this directory; inspect with "
        "`repro-planarity trace view DIR`",
    )
    p_sweep.add_argument(
        "--progress",
        action="store_true",
        help="live stderr dashboard: done/total, cache hits, workers, "
        "throughput, CostModel ETA, straggler flags",
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_serve = sub.add_parser(
        "serve",
        help="run the persistent sweep service (clients: submit; "
        "workers: worker --connect ... --reconnect)",
    )
    p_serve.add_argument(
        "--listen",
        required=True,
        metavar="HOST:PORT",
        help="endpoint to listen on (port 0 picks an ephemeral port)",
    )
    p_serve.add_argument(
        "--cache-dir",
        default=None,
        help="sharded store shared with workers: submissions are "
        "answered from it where possible and every executed job is "
        "appended exactly once",
    )
    p_serve.add_argument(
        "--heartbeat",
        type=_positive(float),
        default=10.0,
        help="idle-worker ping interval in seconds (default 10)",
    )
    p_serve.add_argument(
        "--max-clients",
        type=_positive(int),
        default=16,
        help="admission bound on concurrent client sessions (default 16)",
    )
    p_serve.add_argument(
        "--max-pending",
        type=_positive(int),
        default=100_000,
        help="admission bound on queued jobs across all sessions "
        "(default 100000)",
    )
    p_serve.add_argument(
        "--no-speculate",
        dest="speculate",
        action="store_false",
        help="disable straggler re-dispatch (on by default: jobs "
        "running far past their CostModel prediction get a second "
        "copy; first result wins)",
    )
    p_serve.set_defaults(func=_cmd_serve, speculate=True)

    p_submit = sub.add_parser(
        "submit",
        help="submit one sweep to a `serve` endpoint (or run it "
        "locally through the same Client facade)",
    )
    _add_sweep_axis_arguments(p_submit)
    p_submit.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help="a running `repro-planarity serve` endpoint; omit to run "
        "locally on --backend",
    )
    p_submit.add_argument(
        "--backend",
        default="serial",
        choices=("serial", "process"),
        help="local execution backend when no --connect is given "
        "(records are identical to the service's)",
    )
    p_submit.add_argument(
        "--cache-dir",
        default=None,
        help="sharded store for the local path (hits stream back "
        "without executing, like the service's store hits)",
    )
    p_submit.add_argument(
        "--name",
        default=None,
        help="client display name in the service's logs and telemetry",
    )
    p_submit.add_argument(
        "--markdown", default=None, help="also write the table as markdown"
    )
    p_submit.add_argument(
        "--progress",
        action="store_true",
        help="print progress frames to stderr as the service streams "
        "records back",
    )
    p_submit.set_defaults(func=_cmd_submit)

    p_worker = sub.add_parser(
        "worker",
        help="join a sweep service (`serve`, or `sweep --backend remote`) "
        "and serve jobs",
    )
    add_worker_arguments(p_worker)
    p_worker.set_defaults(func=run_worker)

    p_trace = sub.add_parser(
        "trace", help="inspect a telemetry trace directory (sweep --trace)"
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_tview = trace_sub.add_parser(
        "view", help="render the merged span tree as indented text"
    )
    p_tview.add_argument("trace_dir", help="trace directory to read")
    p_tview.add_argument(
        "--max-lines",
        type=int,
        default=200,
        help="truncate the rendering after this many lines (default 200)",
    )
    p_tview.set_defaults(func=_cmd_trace)
    p_ttop = trace_sub.add_parser(
        "top", help="rank span groups by total time (slowest first)"
    )
    p_ttop.add_argument("trace_dir", help="trace directory to read")
    p_ttop.add_argument(
        "--name",
        default=None,
        help="restrict to one span name (e.g. job)",
    )
    p_ttop.add_argument(
        "--limit", type=int, default=20, help="rows to print (default 20)"
    )
    p_ttop.set_defaults(func=_cmd_trace)
    p_texport = trace_sub.add_parser(
        "export", help="write the merged trace to one JSON file"
    )
    p_texport.add_argument("trace_dir", help="trace directory to read")
    p_texport.add_argument(
        "--out", required=True, help="output JSON file path"
    )
    p_texport.add_argument(
        "--chrome",
        action="store_true",
        help="emit Chrome trace_event format (load in chrome://tracing "
        "or Perfetto) instead of the raw merged event list",
    )
    p_texport.set_defaults(func=_cmd_trace)

    p_cache = sub.add_parser(
        "cache", help="inspect or garbage-collect a sharded result store"
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    p_stats = cache_sub.add_parser("stats", help="store usage summary")
    p_stats.add_argument(
        "--cache-dir", required=True, help="store directory to inspect"
    )
    p_stats.set_defaults(func=_cmd_cache)
    p_gc = cache_sub.add_parser(
        "gc", help="expire by TTL and/or shrink to a byte budget"
    )
    p_gc.add_argument(
        "--cache-dir", required=True, help="store directory to collect"
    )
    p_gc.add_argument(
        "--ttl",
        type=_non_negative(float),
        default=None,
        help="drop entries older than this many seconds",
    )
    p_gc.add_argument(
        "--max-bytes",
        type=_non_negative(int),
        default=None,
        help="keep only the newest entries fitting in this many bytes",
    )
    p_gc.add_argument(
        "--compact",
        action="store_true",
        help="allow a bound-less run (newest-wins rewrite only)",
    )
    p_gc.add_argument(
        "--grace",
        type=_non_negative(float),
        default=60.0,
        help="never collect entries newer than this many seconds "
        "(concurrent-writer / clock-skew guard; default 60)",
    )
    p_gc.set_defaults(func=_cmd_cache)
    p_dump = cache_sub.add_parser(
        "dump", help="print every live (key, stamp, record), sorted by key"
    )
    p_dump.add_argument(
        "--cache-dir", required=True, help="store directory to dump"
    )
    p_dump.add_argument(
        "--json",
        action="store_true",
        help="one canonical JSON object per line (machine-diffable; the "
        "CI compaction round-trip compares these)",
    )
    p_dump.set_defaults(func=_cmd_cache)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except argparse.ArgumentError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
