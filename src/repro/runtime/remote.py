"""Fleet wire helpers and the ``--backend remote`` adapter.

Workers join a :class:`~repro.runtime.service.SweepService` over TCP
(``repro-planarity worker --connect host:port``, see
:func:`repro.runtime.worker.serve_remote`).  This module holds the
pieces both ends of that connection share -- the frame reader, the
endpoint parser and the server side of the worker handshake -- plus
:class:`RemoteBackend`, which runs one ``run_jobs``/``iter_jobs``
batch on an ephemeral service.  The service's worker loop is the only
fleet dispatcher: dispatch, requeue-on-disconnect, heartbeats, store
appends and cost accounting all live there.

Wire protocol v4: **length-prefixed binary frames** (see
:mod:`repro.runtime.codec` -- 2-byte magic + u32 body length + one
codec-encoded message dict).  Specs and records travel as
*shape-packed codec payloads* (``spec_pkd`` / ``record_pkd`` bytes
fields), with each frame carrying the shape-definition blocks its
payloads need that this connection has not seen yet (``shapes``) --
so a worker's result bytes are appended to the store verbatim
(:meth:`~repro.runtime.store.ShardedStore.put_raw`, zero server-side
re-encode).  Workers are storeless: the service is the only store
reader and writer on the fleet path.

=============  =========================================================
frame          fields
=============  =========================================================
``hello``      worker -> server: ``protocol`` (version int), ``kinds``
               (worker's registered job kinds, a list of str), ``pid``
``welcome``    server -> worker: ``protocol``, optional ``trace``
               (``{"dir", "parent"}`` -- the trace sink same-host
               workers adopt; see :func:`repro.telemetry.adopt_trace`)
``reject``     server -> worker on a failed handshake: ``reason``;
               the connection closes immediately after
``job``        server -> worker: ``id``, ``spec_pkd`` (shape-packed
               :meth:`JobSpec.to_payload`), ``shapes``
``result``     worker -> server: ``id``, ``record_pkd`` (shape-packed
               record bytes), ``shapes``, ``seconds`` (worker-side
               wall-time) -- or ``error`` + ``traceback`` on failure
``ping``       server -> worker heartbeat; worker answers ``pong``
``exit``       server -> worker: service stopping, disconnect
=============  =========================================================

A hello with the wrong ``protocol`` number (a v3 worker, or a v2 one,
which still probed and appended to a store of its own) or a malformed
``kinds`` is rejected.  A peer that opens with anything but a frame magic (a
protocol-1 JSON-lines worker sends ``{``) fails the header check and
is closed without a reply.  Workers are admitted whatever job kinds
they registered; the service filters dispatch per connection instead.
"""

from __future__ import annotations

import asyncio
from contextlib import closing
from typing import Iterator, Optional, Sequence, Tuple

from ..telemetry.spans import get_tracer
from .codec import (
    FRAME_HEADER_SIZE,
    WireProtocolError,
    decode_wire_body,
    encode_wire_frame,
    parse_frame_header,
)
from .jobs import JobSpec, Record

PROTOCOL_VERSION = 4


async def read_bframe(reader) -> Optional[dict]:
    """Read one binary frame from an asyncio stream reader.

    Returns ``None`` on clean EOF at a frame boundary; raises
    :class:`WireProtocolError` on a torn or malformed frame.
    """
    try:
        header = await reader.readexactly(FRAME_HEADER_SIZE)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise WireProtocolError("connection closed mid-frame") from exc
    body_len = parse_frame_header(header)
    try:
        body = await reader.readexactly(body_len)
    except asyncio.IncompleteReadError as exc:
        raise WireProtocolError("connection closed mid-frame") from exc
    return decode_wire_body(body)


def parse_endpoint(raw: str) -> Tuple[str, int]:
    """Parse ``host:port`` (CLI ``--listen`` / ``--connect``)."""
    host, sep, port_text = raw.rpartition(":")
    if not sep or not host:
        raise ValueError(f"expected host:port, got {raw!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"expected host:port, got {raw!r}") from None
    return host, port


async def reject_peer(writer, reason: str) -> None:
    """Send a ``reject`` frame and close."""
    get_tracer().event("remote.reject", reason=reason)
    try:
        writer.write(encode_wire_frame({"op": "reject", "reason": reason}))
        await writer.drain()
    except (OSError, ConnectionError):
        pass
    writer.close()


async def welcome_worker(hello: dict, writer) -> bool:
    """Answer a worker's ``hello``: ``welcome`` it, or reject + ``False``."""
    if hello.get("protocol") != PROTOCOL_VERSION:
        await reject_peer(
            writer,
            f"protocol mismatch: server speaks {PROTOCOL_VERSION}, "
            f"worker speaks {hello.get('protocol')!r}",
        )
        return False
    kinds = hello.get("kinds")
    if kinds is not None and not (
        isinstance(kinds, list) and all(isinstance(k, str) for k in kinds)
    ):
        await reject_peer(
            writer, f"bad hello: kinds must be a list of str, got {kinds!r}"
        )
        return False
    welcome = {"op": "welcome", "protocol": PROTOCOL_VERSION}
    tracer = get_tracer()
    if tracer.enabled and tracer.trace_dir is not None:
        # Advertise the trace context: same-host workers adopt the
        # sink directory and parent span, so their job spans land
        # in the merged trace under the orchestrator's sweep span.
        # The directory must exist *before* the worker's visibility
        # probe runs -- the tracer only creates it on first write,
        # and an early-joining worker would lose that race and
        # silently decline adoption.
        try:
            tracer.trace_dir.mkdir(parents=True, exist_ok=True)
            welcome["trace"] = {
                "dir": str(tracer.trace_dir),
                "parent": tracer.current_span_id(),
            }
        except OSError:
            pass  # unwritable sink: workers run untraced
    writer.write(encode_wire_frame(welcome))
    await writer.drain()
    return True


class RemoteBackend:
    """Runs one batch on an ephemeral service (``--backend remote``).

    Args:
        host / port: listen endpoint; port ``0`` binds an ephemeral
            port (read it from :attr:`bound_port` after :meth:`bind`).
        store_dir: the service's sharded-store directory.  The service
            answers hits from it and appends every executed job's
            record bytes to it exactly once; workers never touch it.

    :meth:`bind` creates a :class:`~repro.runtime.service.SweepService`
    and binds its socket, so workers may dial before the batch starts.
    :meth:`run_stream` starts the service, submits the specs through a
    loopback :class:`~repro.runtime.client.Client` as one ``specs_json``
    submission (:meth:`~repro.runtime.client.Client.submit_specs`),
    yields records as they land, closes the client and stops the
    service -- which sends connected workers ``exit``.  A deterministic job
    failure raises :class:`~repro.runtime.client.ServiceError`.
    """

    name = "remote"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        store_dir: Optional[str] = None,
    ):
        self.host = host
        self.port = port
        self.store_dir = str(store_dir) if store_dir else None
        self.service = None

    @property
    def bound_port(self) -> Optional[int]:
        return self.service.bound_port if self.service is not None else None

    @property
    def active_workers(self) -> int:
        """Live worker connections (read by the ``--progress`` dashboard)."""
        return self.service.active_workers if self.service is not None else 0

    def bind(self) -> int:
        """Create the service and bind its listen socket; returns the port."""
        if self.service is None:
            from .service import SweepService

            self.service = SweepService(self.host, self.port, self.store_dir)
        return self.service.bind()

    def run_stream(
        self, specs: Sequence[JobSpec]
    ) -> Iterator[Tuple[int, Record, Optional[float]]]:
        """Yield ``(index, record, seconds)`` in completion order.

        Jobs wait in the service's queue while no worker is connected,
        so starting workers late (or replacing dead ones) is fine.
        """
        specs = list(specs)
        if not specs:
            return
        from .client import Client

        self.bind()
        service = self.service.start()
        client = Client(endpoint=service.endpoint, name="remote-backend")
        try:
            # Closed before the service stops: an abandoned batch
            # cancels its queued jobs over the live connection.
            with closing(client.submit_specs(specs)) as stream:
                for index, record, seconds in stream:
                    # A service with a store observes every job (and
                    # each requeued partial) into its own cost book,
                    # flushed to that store at stop; forwarding
                    # *seconds* too would count the job twice there.
                    if self.store_dir is not None:
                        seconds = None
                    yield index, record, seconds
        finally:
            client.close()
            service.stop()
            self.service = None

