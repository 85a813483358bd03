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

The remote path is a sync wrapper over an async core: a session (one
connection, one daemon I/O thread's event loop) that a ``Client`` dials
on its first remote ``submit`` and keeps until :meth:`Client.close`.
``submit`` has that loop send a ``submit`` frame under a fresh
submission id at once, and the connection's one reader hands every
frame to its submission's queue, which the returned iterator drains.
The next ``submit`` after the service dropped the session redials.

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
import itertools
import json
import queue
import threading
from contextlib import closing, suppress
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

_Progress = Optional[Callable[[Dict], None]]  # an ``on_progress`` callback
_Stream = Iterator[Tuple[int, Record, Optional[float]]]  # completion order

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
        # The remote session, started on the first remote submit: an I/O
        # thread running an event loop, and the live connection as
        # (writer, {submission id: its _Handoff}).
        self._lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._conn: Optional[tuple] = None
        self._sids = itertools.count(1)

    def submit(
        self,
        sweep: SweepSpec,
        on_progress: _Progress = None,
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

    def submit_specs(self, specs: Sequence[JobSpec]) -> _Stream:
        """Submit an explicit spec list to the service at *endpoint*;
        yield ``(index, record, seconds)`` in completion order."""
        if not self.endpoint:
            raise ValueError("submit_specs needs a service endpoint")
        payloads = [spec.to_payload() for spec in specs]
        body = {"specs_json": json.dumps(payloads, separators=(",", ":"))}
        return self._open_submission(body, len(specs), None)

    def close(self) -> None:
        """End the service session, if open, and join its I/O thread:
        submissions in flight raise :class:`ServiceError`."""
        with self._lock:
            thread, self._thread = self._thread, None
            if thread is not None:
                self._loop.call_soon_threadsafe(self._stopped.set_result, None)
        if thread is not None:
            thread.join()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- local path -----------------------------------------------------------

    def _submit_local(
        self, sweep: SweepSpec, on_progress: _Progress
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
        self, sweep: SweepSpec, on_progress: _Progress
    ) -> Iterator[Record]:
        payload = json.dumps(sweep.to_payload(), sort_keys=True, separators=(",", ":"))
        body = {"sweep_json": payload}
        return _in_order(self._open_submission(body, sweep.size, on_progress))

    def _open_submission(
        self, body: Dict, total: int, on_progress: _Progress
    ) -> _Stream:
        with self._lock:
            if self._thread is None:
                ready = threading.Event()
                self._thread = threading.Thread(
                    target=lambda: asyncio.run(self._serve(ready)),
                    name="repro-client-session",
                    daemon=True,
                )
                self._thread.start()
                ready.wait()
            if self._conn is None:  # first submit, or the service dropped it
                asyncio.run_coroutine_threadsafe(self._dial(), self._loop).result()
            conn = self._conn
        out: "queue.Queue" = queue.Queue()
        sid = next(self._sids)
        # Eager: the session's loop writes the submit frame now, so
        # concurrent clients contend for the fleet at once, not on the
        # first next().
        asyncio.run_coroutine_threadsafe(
            self._drive_submission(conn, sid, body, out), self._loop
        )
        return self._drain(out, sid, total, on_progress)

    def _drain(
        self, out: "queue.Queue", sid: int, total: int, on_progress: _Progress
    ) -> _Stream:
        seen = bytearray(total)
        completed = False
        try:
            while True:
                item = out.get()
                if item is _SENTINEL:
                    break
                kind, value = item
                if kind == "error":
                    raise value
                if kind == "progress":
                    if on_progress is not None:
                        on_progress(value)
                    continue
                for entry in value:
                    index = entry[0]
                    if not 0 <= index < total or seen[index]:
                        raise ServiceError(
                            f"service sent record index {index} twice or "
                            f"outside 0..{total - 1}"
                        )
                    seen[index] = 1
                    yield entry
            completed = True  # an ok verdict; every other end raised
            if sum(seen) != total:
                raise ServiceError(
                    f"service delivered {sum(seen)} of {total} records"
                )
        finally:
            # Abandoned mid-sweep (or an error unwound it): cancel our
            # queued jobs, unless the session is closed.
            if not completed:
                with suppress(RuntimeError):
                    self._loop.call_soon_threadsafe(self._cancel, sid)

    async def _drive_submission(
        self, conn: tuple, sid: int, body: Dict, out: "queue.Queue"
    ) -> None:
        """One submission, from its ``submit`` frame (*body* carries
        ``sweep_json`` or ``specs_json``) until the reader ends it."""
        handoff = _Handoff(out, asyncio.get_running_loop())
        writer, routes = conn
        try:
            if writer.is_closing():
                return  # dropped since the dial: ``finally`` ends it
            routes[sid] = handoff
            writer.write(encode_wire_frame({
                "op": "submit",
                "sub": sid,
                "protocol": PROTOCOL_VERSION,
                "client": self.name,
                **body,
            }))
            await handoff.ended
        finally:
            if not handoff.ended.done():
                _route(None, handoff)

    # -- the session's I/O thread ---------------------------------------------

    async def _serve(self, ready: threading.Event) -> None:
        self._loop = asyncio.get_running_loop()
        self._stopped = self._loop.create_future()
        ready.set()
        await self._stopped
        if self._conn is not None:
            self._drop(self._conn)

    async def _dial(self) -> None:
        reader, writer = await asyncio.open_connection(*parse_endpoint(self.endpoint))
        self._conn = (writer, {})
        self._reading = asyncio.ensure_future(self._read(reader, self._conn))

    async def _read(self, reader, conn: tuple) -> None:
        """Route every frame to its submission until the connection ends;
        a frame already buffered is read without an event-loop turn."""
        routes = conn[1]
        try:
            while True:
                frame = await read_bframe(reader)
                if frame is None:
                    break
                handoff = routes.get(frame.get("sub"))
                if handoff is not None and not _route(frame, handoff):
                    del routes[frame["sub"]]
        except (WireProtocolError, OSError):
            pass
        finally:
            self._drop(conn)

    def _drop(self, conn: tuple) -> None:
        """Close *conn* and end every submission still open on it."""
        writer, routes = conn
        if self._conn is conn:
            self._conn = None
        writer.close()
        for handoff in routes.values():
            _route(None, handoff)
        routes.clear()

    def _cancel(self, sid: int) -> None:
        """Ask the service to cancel submission *sid*, if it is open."""
        if self._conn is not None and sid in self._conn[1]:
            self._conn[0].write(encode_wire_frame({"op": "cancel", "sub": sid}))


class _Handoff:
    """The receive loop's end of the queue bridge to the consumer.

    The first record goes to the consumer alone.  Later records gather
    into one ``("records", [...])`` item per batch, flushed by a
    ``call_soon`` callback -- which runs only once the read loop would
    block -- or at :data:`HANDOFF_CAP` records, so a burst of buffered
    frames costs the consumer one wake-up, not one per record.  Any
    other item flushes the batch first: the consumer sees wire order.
    """

    __slots__ = ("out", "loop", "batch", "ended")

    def __init__(self, out: "queue.Queue", loop: asyncio.AbstractEventLoop):
        self.out = out
        self.loop = loop
        self.batch: Optional[list] = None  # None until the first record
        self.ended = loop.create_future()

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

    def end(self) -> None:
        """End the consumer's stream and release the submission's task."""
        if not self.ended.done():
            self.flush()
            self.out.put(_SENTINEL)
            self.ended.set_result(None)


def _route(frame: Optional[dict], handoff: _Handoff) -> bool:
    """Hand one frame to the consumer; ``False`` once the submission ends.

    A verdict ends it, with an error unless ``ok``; EOF (``None``) and
    ``reject`` end it with an error.  Unknown ops are ignored
    (forward-compatible with new server-side frame types).
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
        if frame.get("ok"):
            handoff.end()
            return False
        error = frame.get("error") or "submission cancelled by the service"
    elif op == "reject":
        error = f"service rejected submission: {frame.get('reason')}"
    elif frame is None:
        error = "service closed the connection before the verdict"
    else:
        return True
    handoff.put(("error", ServiceError(error)))
    handoff.end()
    return False


def _in_order(stream: _Stream) -> Iterator[Record]:
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
