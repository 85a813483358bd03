"""Worker process: the binary-frame job protocol over TCP.

``python -m repro.runtime.worker --connect host:port`` (also
``repro-planarity worker``) turns a process into a fleet worker: it
dials a :class:`~repro.runtime.service.SweepService` -- a persistent
``serve`` endpoint, or the ephemeral one behind ``sweep --backend
remote`` -- handshakes (protocol version, job-kind registry), then
serves jobs until the server says ``exit`` or the connection drops.
Connection attempts retry for ``--retry-seconds`` so workers can be
started before the server is listening.

Specs arrive and records leave as **shape-packed codec payloads**
(``spec_pkd`` / ``record_pkd``), the same byte format the sharded
store persists, so the service appends a worker's result bytes
verbatim.  Shape definitions travel at most once per connection,
tracked by a per-connection sent-set on both ends.

Workers are storeless (wire protocol v4): the service answers store
hits before it dispatches and appends every executed record itself,
exactly once.  Everything a record needs to be reproducible travels
in the spec (``seed`` drives all randomness), so killing and
respawning a worker mid-batch loses nothing but the in-flight job
(which the service requeues).
"""

from __future__ import annotations

import argparse
import os
import socket
import sys
import time
import traceback
from typing import Optional

from .codec import (
    GLOBAL_SHAPES,
    decode_record,
    encode_record,
    encode_wire_frame,
    frame_shapes,
    read_wire_frame,
)
from .jobs import JobSpec, job_kinds, run_job_timed
from .store import ShardedStore


# Only the service's enqueue probe calls this; perfbench/tracing.py wraps it here.
def _store_payload(store: ShardedStore, key: str) -> Optional[bytes]:
    """The stored payload bytes for *key* (zero decode), or ``None``.

    Reads the index as of the caller's last ``store.refresh()``: the
    service refreshes once per submission, not once per key.
    """
    payload = store.get_raw(key, refresh=False)
    return None if payload is None else bytes(payload)


def _flush_telemetry() -> None:
    """Snapshot this worker's metrics next to its trace file, if any."""
    from ..telemetry import get_metrics, get_tracer

    tracer = get_tracer()
    if tracer.enabled and tracer.trace_dir is not None:
        get_metrics().flush_to(tracer.trace_dir)


def handle_request(message: dict) -> dict:
    """Execute one job request; returns the response fields (sans id).

    The caller has already registered any shape blocks the request
    carried.  The response's ``record_pkd`` holds the shape-packed
    record bytes, encoded exactly once; the service appends them to
    its store verbatim.
    """
    try:
        spec = JobSpec.from_payload(decode_record(message["spec_pkd"]))
        record, seconds = run_job_timed(spec)
        payload, _shape = encode_record(record)
        return {"record_pkd": payload, "seconds": seconds}
    except Exception as exc:  # report, don't die: the batch goes on
        return {
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
        }


def _result_frame(message: dict, sent_shapes: set) -> bytes:
    """One encoded result frame for one job request."""
    for block in message.get("shapes") or ():
        GLOBAL_SHAPES.register_block(block)
    response = {"op": "result", "id": message.get("id")}
    response.update(handle_request(message))
    payload = response.get("record_pkd")
    if isinstance(payload, (bytes, bytearray)):
        response["shapes"] = frame_shapes(
            iter((bytes(payload),)), sent_shapes
        )
    return encode_wire_frame(response)


RETRY_DELAY_START = 0.1
RETRY_DELAY_CAP = 5.0


def retry_delays():
    """Capped exponential backoff with jitter for server dials.

    Yields sleep durations ``0.1, 0.2, 0.4, ... -> 5.0``, each scaled
    by a uniform jitter in ``[0.5, 1.0)`` so a fleet of workers started
    together does not hammer a recovering service in lockstep.
    """
    import random

    delay = RETRY_DELAY_START
    while True:
        yield delay * (0.5 + 0.5 * random.random())
        delay = min(delay * 2.0, RETRY_DELAY_CAP)


def _connect_with_retry(
    host: str, port: int, retry_seconds: float
) -> socket.socket:
    """Dial the sweep server, retrying while it is not yet listening.

    *retry_seconds* bounds the total time spent retrying
    (``float("inf")`` retries forever -- the ``--reconnect`` fleet
    mode); the last ``OSError`` propagates when the bound is hit.
    """
    deadline = time.monotonic() + retry_seconds
    delays = retry_delays()
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=10.0)
            # Blocking mode from here on: a worker legitimately sits
            # idle for arbitrary stretches (another worker holds the
            # last long job), and the server's heartbeat keeps the
            # connection observable -- a read timeout would kill idle
            # workers instead.
            sock.settimeout(None)
            return sock
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(min(next(delays), max(deadline - time.monotonic(), 0)))


def _serve_connection(sock: socket.socket) -> str:
    """One server connection's lifetime; the socket is consumed.

    Returns ``"exit"`` (clean ``exit`` frame), ``"eof"`` (the server
    vanished: EOF, reset, torn frame), or ``"rejected"`` (handshake
    refused -- retrying would refuse again).
    """
    from .remote import PROTOCOL_VERSION

    try:
        reader = sock.makefile("rb")
        hello = {
            "op": "hello",
            "protocol": PROTOCOL_VERSION,
            "kinds": list(job_kinds()),
            "pid": os.getpid(),
        }
        sock.sendall(encode_wire_frame(hello))
        welcome = read_wire_frame(reader)
        if welcome is None:
            print("worker: server closed during handshake", file=sys.stderr)
            return "eof"
        if welcome.get("op") != "welcome":
            print(
                f"worker: rejected: {welcome.get('reason', welcome)}",
                file=sys.stderr,
            )
            return "rejected"
        if welcome.get("trace"):
            # The server is tracing: adopt its sink directory and
            # parent span (same-host check inside), so this worker's
            # job spans land in the merged trace under the sweep span.
            from ..telemetry import adopt_trace

            adopt_trace(welcome["trace"])
        sent_shapes: set = set()
        while True:
            frame = read_wire_frame(reader)
            if frame is None:
                return "eof"
            op = frame.get("op")
            if op == "exit":
                return "exit"
            if op == "ping":
                sock.sendall(encode_wire_frame({"op": "pong"}))
                continue
            if op != "job":
                continue
            sock.sendall(_result_frame(frame, sent_shapes))
    except (OSError, ValueError):  # reset / torn frame: same as EOF
        return "eof"
    finally:
        _flush_telemetry()
        try:
            sock.close()
        except OSError:
            pass


def serve_remote(
    host: str,
    port: int,
    retry_seconds: float = 30.0,
    reconnect: bool = False,
) -> int:
    """Join a sweep service and serve jobs until it says exit.

    With ``reconnect=False`` (the default, e.g. for one
    ``sweep --backend remote`` batch) the worker serves
    one connection: 0 on a clean end (``exit`` frame or server EOF),
    1 when the server rejected the handshake.  With ``reconnect=True``
    (the fleet mode behind ``worker --reconnect``) the worker outlives
    the server: a dropped connection -- service restarting, network
    blip -- sends it back to the capped-backoff dial loop
    (:func:`retry_delays`, retrying indefinitely), and only an explicit
    ``exit`` frame or a handshake rejection ends it.
    """
    while True:
        sock = _connect_with_retry(
            host, port, float("inf") if reconnect else retry_seconds
        )
        outcome = _serve_connection(sock)
        if outcome == "rejected":
            return 1
        if outcome == "exit" or not reconnect:
            return 0


def add_worker_arguments(parser: argparse.ArgumentParser) -> None:
    """The worker's flags, shared by ``repro-planarity worker`` and
    ``python -m repro.runtime.worker``."""
    parser.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="the sweep service's --listen endpoint",
    )
    parser.add_argument(
        "--retry-seconds",
        type=float,
        default=30.0,
        help="how long to retry the initial --connect dial (default 30)",
    )
    parser.add_argument(
        "--reconnect",
        action="store_true",
        help=(
            "fleet mode: redial (capped backoff + jitter, forever) when "
            "the server drops the connection; only an exit frame or a "
            "handshake rejection ends the worker"
        ),
    )


def run_worker(args: argparse.Namespace) -> int:
    """Serve jobs as the parsed worker flags say."""
    from .remote import parse_endpoint

    try:
        host, port = parse_endpoint(args.connect)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    return serve_remote(
        host, port, retry_seconds=args.retry_seconds, reconnect=args.reconnect
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.runtime.worker",
        description="fleet worker: serve jobs to a sweep service over TCP",
    )
    add_worker_arguments(parser)
    return run_worker(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
