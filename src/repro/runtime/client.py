"""The ``Client`` facade: one ``submit(SweepSpec)`` for every target.

This is the library face of the runtime.  The same call shape --
``Client(...).submit(sweep)`` returning an iterator of records in the
sweep's canonical expansion order -- works against three targets:

* **a remote service** (``Client(endpoint="host:port")``): dials a
  :class:`~repro.runtime.service.SweepService`, streams ``record``
  frames as the fleet completes jobs, and reorders them client-side;
* **a local backend** (``Client(backend="process")``): runs the
  expansion through :func:`~repro.runtime.executor.iter_jobs` on a
  registered backend, with the same optional disk cache;
* **the in-process serial path** (the default): no fleet, no pools --
  jobs run inline as the iterator is consumed.

Records are byte-identical across all three (specs carry all
randomness), so code written against the facade is deployment-
agnostic: develop against ``backend="serial"``, point the same call
at a service endpoint in production.

The remote path is a sync wrapper over an async core: ``submit``
eagerly sends the ``submit`` frame from a background thread running
:meth:`Client._drive_submission`, and the returned iterator
drains a queue bridge -- so the server starts scheduling the sweep
the moment ``submit`` returns, not on the first ``next()``.  The
``--backend remote`` adapter (:class:`~repro.runtime.remote.RemoteBackend`)
drives the same machinery with an explicit spec list (a ``specs_json``
submit body) and consumes records in completion order.

Typical use::

    from repro.runtime import Client, SweepSpec

    sweep = SweepSpec.make("test", families=["grid"], ns=[64, 100],
                           epsilon=[0.5, 0.25])
    with Client(endpoint="127.0.0.1:7077") as client:
        for record in client.submit(sweep):
            print(record["n"], record["accepted"])
"""

from __future__ import annotations

import asyncio
import json
import queue
import threading
from contextlib import closing
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .codec import (
    GLOBAL_SHAPES,
    WireProtocolError,
    decode_record,
    encode_wire_frame,
)
from .config import RunConfig
from .executor import iter_jobs
from .jobs import JobSpec, Record
from .remote import PROTOCOL_VERSION, parse_endpoint, read_bframe
from .store import ShardedStore
from .sweeps import SweepSpec

_SENTINEL = object()

_PROGRESS_FIELDS = ("done", "total", "queued", "inflight", "workers")

HANDOFF_CAP = 64
"""Most records one queue item carries from the receive loop to the
consumer (see :class:`_Handoff`)."""


class ServiceError(RuntimeError):
    """The service rejected, aborted, or truncated a submission."""


class Client:
    """Submit sweeps to a service, a local backend, or in-process.

    Args:
        endpoint: ``host:port`` of a running ``repro-planarity serve``
            instance; when set, submissions go over the wire and the
            other execution arguments are ignored.
        backend: local execution backend name or instance (``"serial"``
            or ``"process"``; see
            :data:`~repro.runtime.executor.BACKENDS`) used when no
            *endpoint* is configured.
        cache_dir: optional sharded-store directory for the local path
            (hits stream back without executing, like the service's
            store hits).
        config: optional :class:`~repro.runtime.config.RunConfig` for
            the local path (batch coalescing etc.).
        name: client display name shown in the service's logs,
            telemetry gauges, and dispatch log.
    """

    def __init__(
        self,
        endpoint: Optional[str] = None,
        backend="serial",
        cache_dir: Optional[str] = None,
        config: Optional[RunConfig] = None,
        name: Optional[str] = None,
    ):
        self.endpoint = endpoint
        self.backend = backend
        self.cache_dir = cache_dir
        self.config = config
        self.name = name

    def submit(
        self,
        sweep: SweepSpec,
        on_progress: Optional[Callable[[Dict], None]] = None,
    ) -> Iterator[Record]:
        """Execute *sweep*, yielding records in canonical expansion order.

        The iterator is identical whichever target the client points
        at.  *on_progress* (optional) receives ``{"done", "total",
        "queued", "inflight", "workers"}`` dicts as execution
        advances; it is called on the consuming thread.

        Raises :class:`ServiceError` when the service rejects the
        submission, aborts it (a job failed deterministically), or
        the connection dies before every record arrived.
        """
        if self.endpoint:
            return self._submit_remote(sweep, on_progress)
        return self._submit_local(sweep, on_progress)

    def run(self, sweep: SweepSpec) -> List[Record]:
        """``submit`` drained into a list (canonical expansion order)."""
        return list(self.submit(sweep))

    def close(self) -> None:
        """Release resources (connections are per-submit; no-op today)."""

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- local path -----------------------------------------------------------

    def _submit_local(
        self,
        sweep: SweepSpec,
        on_progress: Optional[Callable[[Dict], None]],
    ) -> Iterator[Record]:
        specs = sweep.expand()
        store = ShardedStore(self.cache_dir) if self.cache_dir else None

        def stream():
            jobs = iter_jobs(
                specs, backend=self.backend, store=store, config=self.config
            )
            for done, (index, record, _from_cache) in enumerate(jobs, 1):
                if on_progress is not None:
                    on_progress({
                        "done": done,
                        "total": len(specs),
                        "queued": len(specs) - done,
                        "inflight": 0,
                        "workers": 0,
                    })
                yield index, record, None

        return _in_order(stream())

    # -- remote path ----------------------------------------------------------

    def _submit_remote(
        self,
        sweep: SweepSpec,
        on_progress: Optional[Callable[[Dict], None]],
    ) -> Iterator[Record]:
        body = {
            "sweep_json": json.dumps(
                sweep.to_payload(), sort_keys=True, separators=(",", ":")
            )
        }
        return _in_order(self._open_submission(body, sweep.size, on_progress))

    def _submit_specs(
        self, specs: Sequence[JobSpec]
    ) -> Iterator[Tuple[int, Record, Optional[float]]]:
        """Submit an explicit spec list; yield ``(index, record,
        seconds)`` in completion order (the remote backend's stream)."""
        body = {
            "specs_json": json.dumps(
                [spec.to_payload() for spec in specs], separators=(",", ":")
            )
        }
        return self._open_submission(body, len(specs), None)

    def _open_submission(
        self,
        body: Dict,
        total: int,
        on_progress: Optional[Callable[[Dict], None]],
    ) -> Iterator[Tuple[int, Record, Optional[float]]]:
        out: "queue.Queue" = queue.Queue()
        ctrl: Dict = {"loop": None, "cancel": None, "started": threading.Event()}

        def pump():
            try:
                asyncio.run(self._drive_submission(body, out, ctrl))
            except BaseException as exc:  # surfaced by the iterator
                out.put(("error", exc))
            finally:
                out.put(_SENTINEL)

        thread = threading.Thread(
            target=pump, name="repro-client-submit", daemon=True
        )
        # Eager: the submit frame is on the wire (or the dial has
        # failed) by the time submit() returns, so concurrent clients
        # contend for the fleet immediately, not on first next().
        thread.start()
        ctrl["started"].wait()
        return self._drain(out, thread, ctrl, total, on_progress)

    def _drain(
        self,
        out: "queue.Queue",
        thread: threading.Thread,
        ctrl: Dict,
        total: int,
        on_progress: Optional[Callable[[Dict], None]],
    ) -> Iterator[Tuple[int, Record, Optional[float]]]:
        seen = bytearray(total)
        verdict: Optional[dict] = None
        completed = False
        try:
            while True:
                item = out.get()
                if item is _SENTINEL:
                    break
                kind = item[0]
                if kind == "error":
                    raise item[1]
                if kind == "progress":
                    if on_progress is not None:
                        on_progress(item[1])
                    continue
                if kind == "verdict":
                    verdict = item[1]
                    continue
                for entry in item[1]:
                    index = entry[0]
                    if not 0 <= index < total or seen[index]:
                        raise ServiceError(
                            f"service sent record index {index} twice or "
                            f"outside 0..{total - 1}"
                        )
                    seen[index] = 1
                    yield entry
            completed = True
            if verdict is not None and not verdict.get("ok"):
                raise ServiceError(
                    verdict.get("error")
                    or "submission cancelled by the service"
                )
            if verdict is None:
                raise ServiceError(
                    "service closed the connection before the verdict"
                )
            if sum(seen) != total:
                raise ServiceError(
                    f"service delivered {sum(seen)} of {total} records"
                )
        finally:
            if not completed:
                # The consumer abandoned the iterator mid-sweep (or an
                # error unwound it): tell the service to cancel our
                # queued jobs instead of leaving them to run blind.
                self._request_cancel(ctrl)
            thread.join()

    @staticmethod
    def _request_cancel(ctrl: Dict) -> None:
        loop, cancel = ctrl.get("loop"), ctrl.get("cancel")
        if loop is None or cancel is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(cancel.set)
        except RuntimeError:
            pass  # loop already gone: the connection is closed anyway

    async def _drive_submission(
        self, body: Dict, out: "queue.Queue", ctrl: Dict
    ) -> None:
        """The async core: one connection, one submission, one verdict.

        *body* is the submit frame's payload field: ``sweep_json`` or
        ``specs_json``.  One loop reads every frame and hands it to
        :func:`_route`; a frame already buffered is read without a
        trip through the event loop.
        """
        loop = ctrl["loop"] = asyncio.get_running_loop()
        handoff = _Handoff(out, loop)
        cancel = asyncio.Event()
        ctrl["cancel"] = cancel
        try:
            host, port = parse_endpoint(self.endpoint)
            reader, writer = await asyncio.open_connection(host, port)
        finally:
            ctrl["started"].set()
        # One watcher per submission: the consumer's cancel (set from
        # its thread) completes it, and it cancels this task out of the
        # read loop; cancelled in ``finally``, it interrupts nothing.
        driver = asyncio.current_task()
        watcher = asyncio.ensure_future(cancel.wait())
        watcher.add_done_callback(lambda w: w.cancelled() or driver.cancel())
        try:
            writer.write(encode_wire_frame({
                "op": "submit",
                "protocol": PROTOCOL_VERSION,
                "client": self.name,
                **body,
            }))
            await writer.drain()
            while _route(await read_bframe(reader), handoff):
                pass
        except asyncio.CancelledError:
            if not cancel.is_set():
                raise
            await self._send_cancel(reader, writer)
        finally:
            handoff.flush()
            watcher.cancel()
            writer.close()

    @staticmethod
    async def _send_cancel(reader, writer) -> None:
        """Best-effort cancel: ask, then wait briefly for the verdict."""
        try:
            writer.write(encode_wire_frame({"op": "cancel"}))
            await writer.drain()
            while True:
                frame = await asyncio.wait_for(read_bframe(reader), timeout=5.0)
                if frame is None or frame.get("op") == "verdict":
                    return
        except (asyncio.TimeoutError, WireProtocolError, OSError):
            pass


class _Handoff:
    """The receive loop's end of the queue bridge to the consumer.

    The first record goes to the consumer alone.  Later records gather
    into one ``("records", [...])`` item per batch, flushed by a
    ``call_soon`` callback -- which runs only once the read loop would
    block -- or at :data:`HANDOFF_CAP` records, so a burst of buffered
    frames costs the consumer one wake-up, not one per record.  Any
    other item flushes the batch first: the consumer sees wire order.
    """

    __slots__ = ("out", "loop", "batch")

    def __init__(self, out: "queue.Queue", loop: asyncio.AbstractEventLoop):
        self.out = out
        self.loop = loop
        self.batch: Optional[list] = None  # None until the first record

    def record(self, entry: Tuple[int, Record, Optional[float]]) -> None:
        batch = self.batch
        if batch is None:
            self.batch = []
            self.out.put(("records", [entry]))
            return
        if not batch:
            self.loop.call_soon(self.flush)
        batch.append(entry)
        if len(batch) >= HANDOFF_CAP:
            self.flush()

    def flush(self) -> None:
        if self.batch:
            self.out.put(("records", self.batch))
            self.batch = []

    def put(self, item: tuple) -> None:
        self.flush()
        self.out.put(item)


def _route(frame: Optional[dict], handoff: _Handoff) -> bool:
    """Hand one frame to the consumer; ``False`` once the submission ends.

    A verdict ends it cleanly; EOF (``None``) and ``reject`` end it with
    an error.  Unknown ops are ignored (forward-compatible with new
    server-side frame types).
    """
    op = None if frame is None else frame.get("op")
    if op == "record":
        for block in frame.get("shapes") or ():
            GLOBAL_SHAPES.register_block(block)
        record = decode_record(bytes(frame["record_pkd"]))
        handoff.record((int(frame["index"]), record, frame.get("seconds")))
        return True
    if op == "progress":
        handoff.put(("progress", {k: frame.get(k) for k in _PROGRESS_FIELDS}))
        return True
    if op == "verdict":
        handoff.put(("verdict", frame))
        return False
    if frame is None:
        error = "service closed the connection before the verdict"
    elif op == "reject":
        error = f"service rejected submission: {frame.get('reason')}"
    else:
        return True
    handoff.put(("error", ServiceError(error)))
    return False


def _in_order(
    stream: Iterator[Tuple[int, Record, Optional[float]]],
) -> Iterator[Record]:
    """Reorder a completion-order record stream into index order."""
    buffer: Dict[int, Record] = {}
    next_index = 0
    with closing(stream):
        for index, record, _seconds in stream:
            buffer[index] = record
            while next_index in buffer:
                yield buffer.pop(next_index)
                next_index += 1
    if buffer:
        raise ServiceError(f"record stream ended without index {next_index}")
