"""Planarity testing as a service: the sweep server and the fleet engine.

This module lifts the binary frame protocol (:mod:`repro.runtime.codec`)
into a **server** (``repro-planarity serve --listen host:port``) that
many clients submit sweeps to concurrently while sharing one worker
fleet and one sharded store.  Its worker loop is the only fleet
dispatcher in the runtime: ``sweep --backend remote`` runs one batch on
an ephemeral instance (:class:`~repro.runtime.remote.RemoteBackend`).
Workers open with a ``hello`` frame (handshake in
:func:`~repro.runtime.remote.welcome_worker`; ``job``/``result``/
``ping``/``pong`` frames after that); clients open with a ``submit``
frame, which is how the server tells the two peer types apart from the
first frame.  The service is the fleet's only store reader and writer
(wire protocol v3): it answers store hits at enqueue, and workers are
storeless, so every result a worker returns is an executed job.

Client-side ops (layered next to the worker ops):

=============  =========================================================
frame          fields
=============  =========================================================
``submit``     client -> server: ``protocol``, ``client`` (display
               name), and one body: ``sweep_json`` (JSON of
               :meth:`SweepSpec.to_payload`) or ``specs_json`` (JSON
               list of :meth:`JobSpec.to_payload`, the remote
               backend's explicit batch)
``progress``   server -> client: ``done``, ``total``, ``queued``,
               ``inflight``, ``workers`` -- sent on acceptance and
               whenever the fleet changes shape
``record``     server -> client: ``index`` (position in the sweep's
               canonical expansion), ``record_pkd``, ``shapes``,
               ``hit``, ``seconds``, plus running ``done``/``total``
``verdict``    server -> client, once, last: ``ok``, ``jobs``,
               ``executed``, ``hits``, ``speculated``, ``cancelled``,
               optional ``error``
``cancel``     client -> server: drop my queued jobs (in-flight jobs
               finish into the store); answered with a ``verdict``
``reject``     server -> client: admission or protocol failure
=============  =========================================================

Scheduling: one round-robin pointer walks the connected clients'
queues, so two clients fair-share the fleet no matter how unequal
their sweeps are; a worker only receives jobs whose kind it
registered at handshake.  Admission control bounds the server
(``max_clients`` sessions, ``max_pending`` queued jobs across all of
them); overload is an explicit ``reject``, never an unbounded queue.

Stragglers: jobs carry a :class:`~repro.runtime.scheduler.CostModel`
prediction from the store's cost history, and a periodic scan
re-dispatches any job whose elapsed time exceeds
:class:`~repro.runtime.scheduler.SpeculationPolicy`'s straggler
threshold to a second worker.  First result wins; the loser's result
is dropped on arrival.  The service persists the winning copy's bytes
exactly once, keeping the store one row per job no matter how many
twins raced.

Identical jobs submitted by different clients coalesce: the second
client becomes a *waiter* on the first client's in-flight job instead
of queueing a duplicate, and both receive the one record.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

from ..telemetry.metrics import get_metrics
from ..telemetry.spans import get_tracer, telemetry_enabled
from .cache import KeyDeriver
from .codec import (
    GLOBAL_SHAPES,
    TruncatedEntry,
    WireProtocolError,
    encode_record,
    encode_wire_frame,
    frame_shapes,
)
from .jobs import JobSpec
from .remote import PROTOCOL_VERSION, read_bframe, reject_peer, welcome_worker
from .scheduler import CostBook, CostModel, SpeculationPolicy
from .store import ShardedStore
from .sweeps import SweepSpec
from .worker import _store_payload

_QUEUED = "queued"
_RUNNING = "running"
_DONE = "done"
_CANCELLED = "cancelled"


class _Connection:
    """Server-side state for one connected worker."""

    __slots__ = ("reader", "writer", "name", "kinds", "read_task",
                 "sent_shapes", "jobs_done")

    def __init__(self, reader, writer, hello: dict):
        self.reader = reader
        self.writer = writer
        self.name = f"worker-pid{hello.get('pid', '?')}"
        # Job kinds the worker registered at handshake: dispatch only
        # hands it jobs of these kinds.
        self.kinds = frozenset(hello.get("kinds") or ())
        # The persistent frame-read task: lets the worker loop wait on
        # "next frame OR next job" without two readers racing.
        self.read_task: Optional[asyncio.Task] = None
        # Shape-definition ids already sent down this connection (job
        # spec payloads reference them; each def travels at most once).
        self.sent_shapes: set = set()
        self.jobs_done = 0

    def next_frame_task(self) -> asyncio.Task:
        if self.read_task is None or self.read_task.done():
            self.read_task = asyncio.ensure_future(read_bframe(self.reader))
        return self.read_task


class _Job:
    """One unit of submitted work, shared by every client waiting on it."""

    __slots__ = (
        "uid", "spec", "key", "state", "waiters", "copies", "inflight",
        "dispatched_at", "predicted", "conns", "speculated",
    )

    def __init__(self, uid: int, spec: JobSpec, key: str):
        self.uid = uid
        self.spec = spec
        self.key = key
        self.state = _QUEUED
        # (session, index) pairs to notify on completion; the first
        # waiter's session owns the queue slot (fairness accounting).
        self.waiters: List[Tuple["_ClientSession", int]] = []
        self.copies = 0  # dispatches so far (1 = primary only)
        self.inflight = 0  # dispatches not yet resolved
        self.dispatched_at: Optional[float] = None  # first dispatch
        self.predicted: Optional[float] = None  # CostModel seconds
        self.conns: Set[_Connection] = set()  # workers running a copy
        self.speculated = False


class _ClientSession:
    """Server-side state for one connected submit client."""

    __slots__ = (
        "uid", "name", "reader", "writer", "lock", "sent_shapes",
        "queue", "total", "remaining", "hits", "executed", "speculated",
        "cancelled", "failed", "finished", "dead",
    )

    def __init__(self, uid: int, name: str, reader, writer):
        self.uid = uid
        self.name = name
        self.reader = reader
        self.writer = writer
        # Record/progress/verdict frames interleave from worker loops
        # and the client loop; one lock per session keeps them whole.
        self.lock = asyncio.Lock()
        self.sent_shapes: set = set()
        self.queue: Deque[_Job] = deque()
        self.total = 0
        self.remaining = 0
        self.hits = 0
        self.executed = 0
        self.speculated = 0
        self.cancelled = False
        self.failed: Optional[str] = None
        self.finished = asyncio.Event()
        self.dead = False  # write failed: stop talking to it

    async def send(self, frame: dict) -> bool:
        """Send one frame; ``False`` marks the session unreachable."""
        if self.dead:
            return False
        async with self.lock:
            try:
                self.writer.write(encode_wire_frame(frame))
                await self.writer.drain()
                return True
            except (OSError, ConnectionError):
                self.dead = True
                return False

    async def send_record(
        self,
        index: int,
        payload: bytes,
        hit: bool,
        seconds: Optional[float],
    ) -> bool:
        return await self.send({
            "op": "record",
            "index": index,
            "record_pkd": payload,
            "shapes": frame_shapes(iter((payload,)), self.sent_shapes),
            "hit": hit,
            "seconds": seconds,
            "done": self.total - self.remaining,
            "total": self.total,
        })


class SweepService:
    """Persistent sweep server: many clients, one fleet, one store.

    Args:
        host / port: listen endpoint; port ``0`` binds an ephemeral
            port (read :attr:`bound_port` after :meth:`bind`).
        store_dir: shared sharded-store directory.  Submissions are
            answered from it where possible (store hits stream back
            without dispatch), and every executed job's record bytes
            are appended exactly once.
        heartbeat: idle-worker ping interval in seconds.
        max_clients: admission bound on concurrent client sessions.
        max_pending: admission bound on queued jobs across all
            sessions; a submit that would exceed it is rejected.
        speculation: a :class:`~repro.runtime.scheduler.SpeculationPolicy`
            enabling straggler re-dispatch (``None`` disables it).
        speculation_interval: seconds between straggler scans.

    Use as a context manager (``with SweepService(...) as svc:``) or
    via :meth:`start` / :meth:`stop`; :meth:`serve_forever` blocks for
    CLI use.  Thread-safe from the caller's side: the whole server
    runs on one background asyncio loop.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        store_dir: Optional[str] = None,
        heartbeat: float = 10.0,
        max_clients: int = 16,
        max_pending: int = 100_000,
        speculation: Optional[SpeculationPolicy] = None,
        speculation_interval: float = 1.0,
    ):
        self.host = host
        self.port = port
        self.store_dir = str(store_dir) if store_dir else None
        self.heartbeat = heartbeat
        self.max_clients = max_clients
        self.max_pending = max_pending
        self.speculation = speculation
        self.speculation_interval = speculation_interval
        self.bound_port: Optional[int] = None
        # Test/introspection hooks: primary dispatches as (client name,
        # sweep index) in dispatch order, and twin dispatches likewise.
        self.dispatch_log: List[Tuple[str, int]] = []
        self.speculation_log: List[Tuple[str, int]] = []
        self._socket: Optional[socket.socket] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._done = threading.Event()
        self._error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._dispatch: Optional[asyncio.Event] = None
        self._store: Optional[ShardedStore] = None
        self._cost_book: Optional[CostBook] = None
        self._sessions: List[_ClientSession] = []
        self._workers: Set[_Connection] = set()
        self._pending_keys: Dict[str, _Job] = {}
        self._spec_queue: Deque[_Job] = deque()
        self._rr = 0
        self._session_seq = 0
        self._job_seq = 0

    # -- sync facade ----------------------------------------------------------

    @property
    def endpoint(self) -> str:
        """The ``host:port`` string clients and workers dial."""
        return f"{self.host}:{self.bound_port or self.port}"

    @property
    def active_workers(self) -> int:
        return len(self._workers)

    @property
    def active_clients(self) -> int:
        return len(self._sessions)

    def bind(self) -> int:
        """Bind the listen socket now; returns the bound port."""
        if self._socket is None:
            sock = socket.create_server((self.host, self.port))
            sock.setblocking(False)
            self._socket = sock
            self.bound_port = sock.getsockname()[1]
        return self.bound_port

    def start(self) -> "SweepService":
        """Bind and serve on a background thread; returns self."""
        if self._thread is not None:
            return self
        self.bind()
        self._ready.clear()
        self._done.clear()
        self._error = None
        self._thread = threading.Thread(
            target=self._pump, name="repro-service", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._error is not None:
            raise self._error
        return self

    def _pump(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:
            self._error = exc
        finally:
            self._ready.set()
            self._done.set()

    def stop(self) -> None:
        """Shut the server down and join its thread (idempotent)."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:
                pass
        if self._thread is not None:
            # Wait on the explicit done event, not Thread.join: a
            # KeyboardInterrupt delivered inside an earlier join
            # (serve_forever's wait loop) can leave the thread object
            # claiming it already stopped, and trusting that would let
            # the process exit -- killing the daemon loop thread before
            # it sends workers their ``exit`` frames.
            self._done.wait(timeout=30.0)
        self._thread = None
        self._loop = None

    def serve_forever(self) -> None:
        """Blocking variant for the CLI: serve until interrupted."""
        self.start()
        try:
            while self._thread is not None and self._thread.is_alive():
                self._thread.join(timeout=1.0)
        finally:
            self.stop()
        if self._error is not None:
            raise self._error

    def __enter__(self) -> "SweepService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- event loop internals -------------------------------------------------

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._dispatch = asyncio.Event()
        if self.store_dir and self._store is None:
            self._store = ShardedStore(self.store_dir)
        self._cost_book = CostBook(self._store)
        server = await asyncio.start_server(self._handle, sock=self._socket)
        scan_task = None
        if self.speculation is not None:
            scan_task = asyncio.ensure_future(self._speculation_scan())
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            if scan_task is not None:
                scan_task.cancel()
            server.close()
            for conn in list(self._workers):
                try:
                    conn.writer.write(encode_wire_frame({"op": "exit"}))
                    await conn.writer.drain()
                except (OSError, ConnectionError):
                    pass
            await server.wait_closed()
            self._cost_book.flush()
            self._socket = None
            self.bound_port = None

    def _pulse(self) -> None:
        """Wake every worker waiting for dispatchable work."""
        event, self._dispatch = self._dispatch, asyncio.Event()
        event.set()

    async def _handle(self, reader, writer) -> None:
        """Route a fresh connection: worker (``hello``) or client
        (``submit``), told apart by the opening frame."""
        try:
            try:
                first = await asyncio.wait_for(
                    read_bframe(reader), timeout=max(self.heartbeat, 10.0)
                )
            except (asyncio.TimeoutError, ValueError, OSError):
                first = None  # ValueError covers a bad frame magic
            if first is None:
                writer.close()
                return
            op = first.get("op")
            if op == "hello":
                if await welcome_worker(first, writer):
                    await self._worker_loop(_Connection(reader, writer, first))
            elif op == "submit":
                await self._client_loop(first, reader, writer)
            else:
                await reject_peer(writer, f"expected hello or submit, got {op!r}")
        except asyncio.CancelledError:
            pass

    # -- client sessions ------------------------------------------------------

    async def _client_loop(self, submit: dict, reader, writer) -> None:
        if submit.get("protocol") != PROTOCOL_VERSION:
            await reject_peer(
                writer,
                f"protocol mismatch: server speaks {PROTOCOL_VERSION}, "
                f"client speaks {submit.get('protocol')!r}",
            )
            return
        if len(self._sessions) >= self.max_clients:
            await reject_peer(
                writer,
                f"admission: {self.max_clients} clients already connected",
            )
            return
        try:
            if "specs_json" in submit:
                specs = [
                    JobSpec.from_payload(payload)
                    for payload in json.loads(submit["specs_json"])
                ]
            else:
                sweep = SweepSpec.from_payload(json.loads(submit["sweep_json"]))
                specs = sweep.expand()
        except (KeyError, TypeError, ValueError) as exc:
            await reject_peer(writer, f"bad submit frame: {exc}")
            return
        queued_total = sum(len(s.queue) for s in self._sessions)
        if queued_total + len(specs) > self.max_pending:
            await reject_peer(
                writer,
                f"admission: {queued_total} jobs queued, submitting "
                f"{len(specs)} would exceed max_pending={self.max_pending}",
            )
            return
        self._session_seq += 1
        name = str(submit.get("client") or f"client-{self._session_seq}")
        session = _ClientSession(self._session_seq, name, reader, writer)
        await self._enqueue_sweep(session, specs)
        self._sessions.append(session)
        self._note_session_gauges(session)
        get_tracer().event(
            "service.submit", client=name, jobs=session.total,
            hits=session.hits,
        )
        await session.send(self._progress_frame(session))
        if session.remaining == 0:
            await self._finish_session(session)
        else:
            self._pulse()
        try:
            await self._client_read_loop(session)
        finally:
            if session in self._sessions:
                self._sessions.remove(session)
            if not session.finished.is_set():
                # Client vanished mid-sweep: drop its queued jobs; any
                # in-flight jobs finish into the store for next time.
                self._drop_queued(session)
            self._note_session_gauges(session, depth=0)
            get_tracer().event("service.disconnect", client=name)
            writer.close()

    async def _enqueue_sweep(
        self, session: _ClientSession, specs: List[JobSpec]
    ) -> None:
        """Answer store hits immediately; queue or adopt the misses."""
        deriver = KeyDeriver()
        model = CostModel.from_store(self._store)
        session.total = len(specs)
        session.remaining = len(specs)
        for index, spec in enumerate(specs):
            key = deriver.key_for(spec)
            payload = (
                _store_payload(self._store, key)
                if self._store is not None
                else None
            )
            if payload is not None:
                # Store reads registered the payload's shapes already,
                # so the bytes forward without a decode.
                session.hits += 1
                session.remaining -= 1
                await session.send_record(index, payload, True, None)
                continue
            job = self._pending_keys.get(key)
            if job is not None and job.state in (_QUEUED, _RUNNING):
                # Another client already wants this exact job: wait on
                # it instead of queueing (and executing) a duplicate.
                job.waiters.append((session, index))
                continue
            self._job_seq += 1
            job = _Job(self._job_seq, spec, key)
            job.waiters.append((session, index))
            job.predicted = model.predict(spec.kind, spec.n)
            self._pending_keys[key] = job
            session.queue.append(job)

    async def _client_read_loop(self, session: _ClientSession) -> None:
        """Service cancel frames and disconnects until the verdict."""
        while True:
            frame_task = asyncio.ensure_future(read_bframe(session.reader))
            fin_task = asyncio.ensure_future(session.finished.wait())
            done, _ = await asyncio.wait(
                {frame_task, fin_task},
                return_when=asyncio.FIRST_COMPLETED,
            )
            fin_task.cancel()
            if frame_task not in done:
                frame_task.cancel()
                return  # verdict sent; session complete
            try:
                frame = frame_task.result()
            except (WireProtocolError, OSError):
                frame = None
            if frame is None:
                return  # EOF: caller drops queued jobs
            if frame.get("op") == "cancel":
                await self._cancel_session(session)
                return

    def _drop_queued(self, session: _ClientSession) -> None:
        """Remove *session* from its queued jobs; re-home shared ones."""
        for job in list(session.queue):
            job.waiters = [(s, i) for s, i in job.waiters if s is not session]
            if not job.waiters:
                job.state = _CANCELLED
                self._pending_keys.pop(job.key, None)
            else:
                # Another client still waits on this job: move it to
                # that client's queue so it keeps a fairness slot.
                job.waiters[0][0].queue.append(job)
        session.queue.clear()
        session.cancelled = True

    async def _cancel_session(self, session: _ClientSession) -> None:
        """Client-requested cancel: drop queued jobs, send the verdict."""
        dropped = len(session.queue)
        self._drop_queued(session)
        session.remaining = 0
        get_tracer().event(
            "service.cancel", client=session.name, dropped=dropped
        )
        await self._finish_session(session)

    async def _finish_session(self, session: _ClientSession) -> None:
        if session.finished.is_set():
            return
        verdict = {
            "op": "verdict",
            "ok": session.failed is None and not session.cancelled,
            "jobs": session.total,
            "executed": session.executed,
            "hits": session.hits,
            "speculated": session.speculated,
            "cancelled": session.cancelled,
        }
        if session.failed is not None:
            verdict["error"] = session.failed
        await session.send(verdict)
        session.finished.set()

    def _progress_frame(self, session: _ClientSession) -> dict:
        inflight = sum(
            1
            for job in self._pending_keys.values()
            if job.state == _RUNNING
            and any(s is session for s, _i in job.waiters)
        )
        return {
            "op": "progress",
            "done": session.total - session.remaining,
            "total": session.total,
            "queued": len(session.queue),
            "inflight": inflight,
            "workers": len(self._workers),
        }

    def _note_session_gauges(
        self, session: _ClientSession, depth: Optional[int] = None
    ) -> None:
        if not telemetry_enabled():
            return
        metrics = get_metrics()
        metrics.gauge("service.clients", len(self._sessions))
        metrics.gauge(
            f"service.client.{session.name}.queue_depth",
            len(session.queue) if depth is None else depth,
        )

    # -- worker loops ---------------------------------------------------------

    async def _worker_loop(self, conn: _Connection) -> None:
        """Feed one worker jobs until shutdown or it dies."""
        self._workers.add(conn)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "service.worker_connect",
                worker=conn.name,
                workers=len(self._workers),
            )
            get_metrics().gauge("service.workers", len(self._workers))
        loop = asyncio.get_event_loop()
        last_ping = loop.time()
        try:
            while not self._stop.is_set():
                picked = self._next_job_for(conn)
                if picked is None:
                    waiter = asyncio.ensure_future(self._dispatch.wait())
                    stop_task = asyncio.ensure_future(self._stop.wait())
                    frame_task = conn.next_frame_task()
                    done, _ = await asyncio.wait(
                        {waiter, stop_task, frame_task},
                        timeout=self.heartbeat,
                        return_when=asyncio.FIRST_COMPLETED,
                    )
                    waiter.cancel()
                    stop_task.cancel()
                    if self._stop.is_set():
                        return
                    if frame_task in done:
                        try:
                            frame = frame_task.result()
                        except (WireProtocolError, OSError):
                            return  # torn frame or reset: drop worker
                        conn.read_task = None
                        if frame is None:
                            return  # EOF between jobs
                        if frame.get("op") != "pong":
                            return  # unexpected chatter
                        continue
                    if waiter not in done:
                        # Idle heartbeat window elapsed: ping.
                        if loop.time() - last_ping >= self.heartbeat:
                            try:
                                conn.writer.write(
                                    encode_wire_frame({"op": "ping"})
                                )
                                await conn.writer.drain()
                                last_ping = loop.time()
                            except (OSError, ConnectionError):
                                return
                    continue
                job, speculative = picked
                ok = await self._run_job(conn, job, speculative)
                last_ping = loop.time()
                if not ok:
                    return
        finally:
            self._workers.discard(conn)
            if self._stop.is_set():
                # Tell the worker this is a clean end, not a drop: a
                # --reconnect fleet worker would otherwise redial a
                # server that is going away on purpose.
                try:
                    conn.writer.write(encode_wire_frame({"op": "exit"}))
                    await conn.writer.drain()
                except (OSError, ConnectionError):
                    pass
            if tracer.enabled:
                tracer.event(
                    "service.worker_disconnect",
                    worker=conn.name,
                    jobs_done=conn.jobs_done,
                    workers=len(self._workers),
                )
                get_metrics().gauge("service.workers", len(self._workers))
            conn.writer.close()

    def _next_job_for(
        self, conn: _Connection
    ) -> Optional[Tuple[_Job, bool]]:
        """Round-robin pick over client queues; twins only when idle."""
        sessions = self._sessions
        if sessions:
            n = len(sessions)
            start = self._rr % n
            for offset in range(n):
                session = sessions[(start + offset) % n]
                for i, job in enumerate(session.queue):
                    if job.state != _QUEUED:
                        continue  # stale entry (cancelled elsewhere)
                    if job.spec.kind not in conn.kinds:
                        continue
                    del session.queue[i]
                    self._rr = (start + offset + 1) % n
                    self._note_session_gauges(session)
                    return job, False
        # No primary work anywhere: consider speculative twins.
        picked: Optional[_Job] = None
        keep: Deque[_Job] = deque()
        policy = self.speculation
        while self._spec_queue:
            job = self._spec_queue.popleft()
            if job.state != _RUNNING or (
                policy is not None and job.copies >= policy.max_copies
            ):
                continue  # stale: already done, cancelled, or maxed out
            if (
                picked is None
                and conn not in job.conns
                and job.spec.kind in conn.kinds
            ):
                picked = job
            else:
                keep.append(job)
        self._spec_queue = keep
        if picked is None:
            return None
        return picked, True

    async def _run_job(
        self, conn: _Connection, job: _Job, speculative: bool
    ) -> bool:
        """Dispatch one copy of *job*; ``False`` drops the worker."""
        owner = job.waiters[0][0] if job.waiters else None
        owner_name = owner.name if owner is not None else "?"
        first_index = job.waiters[0][1] if job.waiters else -1
        job.state = _RUNNING
        job.copies += 1
        job.inflight += 1
        job.conns.add(conn)
        if job.dispatched_at is None:
            job.dispatched_at = time.monotonic()
        if speculative:
            job.speculated = True
            self.speculation_log.append((owner_name, first_index))
            if owner is not None:
                owner.speculated += 1
            if telemetry_enabled():
                get_metrics().inc("service.speculations")
            get_tracer().event(
                "service.speculate",
                client=owner_name,
                index=first_index,
                kind=job.spec.kind,
                copies=job.copies,
            )
        else:
            self.dispatch_log.append((owner_name, first_index))
        spec_pkd, _shape = encode_record(job.spec.to_payload())
        request = {
            "op": "job",
            "id": job.uid,
            "spec_pkd": spec_pkd,
            "shapes": frame_shapes(iter((spec_pkd,)), conn.sent_shapes),
        }
        try:
            conn.writer.write(encode_wire_frame(request))
            await conn.writer.drain()
        except (OSError, ConnectionError):
            self._dispatch_failed(conn, job)
            return False
        dispatched = time.perf_counter()
        while True:
            try:
                frame = await conn.next_frame_task()
            except (WireProtocolError, OSError):
                frame = None
            conn.read_task = None
            if frame is None:
                self._dispatch_failed(conn, job, dispatched)
                return False
            op = frame.get("op")
            if op == "pong":
                continue
            if op != "result" or frame.get("id") != job.uid:
                self._dispatch_failed(conn, job, dispatched)
                return False
            break
        job.inflight -= 1
        job.conns.discard(conn)
        if "error" in frame:
            await self._job_errored(job, frame, conn)
            return True  # the job is at fault, not the worker
        record_pkd = frame.get("record_pkd")
        if not isinstance(record_pkd, (bytes, bytearray)):
            self._dispatch_failed(conn, job, dispatched)
            return False
        if job.state != _RUNNING:
            # A twin won the race (or every waiter cancelled): drop
            # this copy -- the store row was already written once.
            if telemetry_enabled():
                get_metrics().inc("service.speculate_drops")
            return True
        try:
            for block in frame.get("shapes") or ():
                GLOBAL_SHAPES.register_block(block)
            payload = bytes(record_pkd)
            if self._store is not None:
                self._store.put_raw(job.key, payload)
        except (KeyError, ValueError, TruncatedEntry, struct.error):
            self._dispatch_failed(conn, job, dispatched)
            return False
        job.state = _DONE
        self._pending_keys.pop(job.key, None)
        seconds = frame.get("seconds")
        conn.jobs_done += 1
        if isinstance(seconds, (int, float)) and self._cost_book is not None:
            self._cost_book.observe(job.spec.kind, job.spec.n, seconds)
        for session, index in job.waiters:
            if session.cancelled or session.dead:
                continue
            session.executed += 1
            session.remaining -= 1
            await session.send_record(index, payload, False, seconds)
            if session.remaining == 0:
                await self._finish_session(session)
        return True

    async def _job_errored(
        self, job: _Job, frame: dict, conn: _Connection
    ) -> None:
        """Deterministic job failure: fail every waiting session's sweep.

        Retrying elsewhere would fail again (specs carry all their
        randomness), so the sweep aborts: its client raises
        :class:`~repro.runtime.client.ServiceError`.
        """
        detail = frame.get("traceback") or frame.get("error")
        job.state = _DONE
        self._pending_keys.pop(job.key, None)
        get_tracer().event(
            "service.job_error",
            worker=conn.name,
            kind=job.spec.kind,
            error=str(frame.get("error")),
        )
        for session, _index in job.waiters:
            if session.cancelled or session.dead or session.finished.is_set():
                continue
            session.failed = (
                f"job {job.spec.kind!r} failed on {conn.name}: {detail}"
            )
            self._drop_queued(session)
            session.cancelled = False  # failed, not client-cancelled
            await self._finish_session(session)

    def _dispatch_failed(
        self,
        conn: _Connection,
        job: _Job,
        dispatched: Optional[float] = None,
    ) -> None:
        """A copy of *job* died with its worker: requeue if it was the
        last live copy, and feed the partial elapsed time to the cost
        book (a death ``t`` seconds in still bounds the job's cost)."""
        job.inflight -= 1
        job.conns.discard(conn)
        if dispatched is not None and self._cost_book is not None:
            elapsed = max(0.0, time.perf_counter() - dispatched)
            self._cost_book.observe(job.spec.kind, job.spec.n, elapsed)
        if job.state != _RUNNING or job.inflight > 0:
            return  # a twin is still running it, or it already resolved
        live = [(s, i) for s, i in job.waiters if not s.cancelled]
        if not live:
            job.state = _CANCELLED
            self._pending_keys.pop(job.key, None)
            return
        job.state = _QUEUED
        job.dispatched_at = None
        live[0][0].queue.appendleft(job)
        get_tracer().event(
            "service.requeue",
            worker=conn.name,
            client=live[0][0].name,
            kind=job.spec.kind,
        )
        self._pulse()

    async def _speculation_scan(self) -> None:
        """Periodically flag stragglers for re-dispatch."""
        policy = self.speculation
        while True:
            await asyncio.sleep(self.speculation_interval)
            now = time.monotonic()
            flagged = False
            for job in list(self._pending_keys.values()):
                if job.state != _RUNNING or job.dispatched_at is None:
                    continue
                if job in self._spec_queue:
                    continue
                if policy.should_speculate(
                    job.predicted, now - job.dispatched_at, job.copies
                ):
                    self._spec_queue.append(job)
                    flagged = True
            if flagged:
                self._pulse()
