"""Structured tracing: nested timed spans with a multi-process JSONL sink.

The runtime runs fleets -- process pools, asyncio worker subprocesses,
remote TCP workers that join and die mid-batch -- and when a sweep
stalls there is no way to see *where time went*.  This module is the
zero-dependency core every layer emits into: a :class:`Tracer` produces
nested timed **spans** (sweep -> shard -> job -> stage/round) and
point-in-time **events** (worker connects, requeues, heartbeats),
each carrying structured attributes.

Everything is **off by default**.  Enablement is environment-driven so
it crosses process boundaries for free (pool workers fork/spawn with
the parent's environment, fleet workers adopt it from the server's
``welcome`` frame):

* ``REPRO_TELEMETRY=1`` turns the tracer on (in-memory buffering when
  no sink directory is set -- useful for tests and overhead probes);
* ``REPRO_TRACE_DIR=<dir>`` turns it on *and* sinks every span/event
  as one JSON line into ``<dir>/trace-<token>.jsonl``, where
  ``<token>`` is unique per process -- concurrent writers never share
  a file, so no cross-process locking is needed and the merged trace
  is simply every ``trace-*.jsonl`` in the directory;
* ``REPRO_TRACE_PARENT=<span id>`` seeds the parent of root spans, so
  a worker process's job spans link under the orchestrator's sweep
  span across the process boundary.

Disabled-path discipline: every hot seam guards with one global read
(:func:`telemetry_enabled`) and the gate in E15 holds the disabled
overhead under 3%.  Span ids are ``<token>.<seq>`` -- globally unique
without coordination.  Durations come from ``perf_counter`` and are
clamped at zero (a negative duration can never be emitted); start
timestamps are wall-clock so spans from different hosts align.

Fork safety: a forked child inherits the parent's tracer object; the
first emit in the child notices the pid change and re-initializes its
token, its sink file, and its span stacks, so parent and child never
interleave writes into one file.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

TELEMETRY_ENV_VAR = "REPRO_TELEMETRY"
"""Truthy values ("1", "true", "yes", "on") enable the tracer."""

TRACE_DIR_ENV_VAR = "REPRO_TRACE_DIR"
"""Sink directory for per-process ``trace-<token>.jsonl`` files."""

TRACE_PARENT_ENV_VAR = "REPRO_TRACE_PARENT"
"""Span id adopted as the parent of this process's root spans."""

_TRUTHY = ("1", "true", "yes", "on")


def _env_enabled() -> bool:
    if os.environ.get(TRACE_DIR_ENV_VAR):
        return True
    return os.environ.get(TELEMETRY_ENV_VAR, "").lower() in _TRUTHY


class Span:
    """One timed span; a context manager that emits on exit.

    ``id`` is stable from construction, so instrumentation can tag
    records with it while the span is still open.  ``set`` attaches
    attributes after entry (e.g. an outcome computed inside the span).
    """

    __slots__ = (
        "tracer", "name", "id", "parent", "attrs",
        "_t0", "_start", "duration",
    )

    def __init__(self, tracer: "Tracer", name: str, parent: Optional[str],
                 attrs: Dict[str, Any]):
        self.tracer = tracer
        self.name = name
        self.id = tracer._next_id()
        self.parent = parent
        self.attrs = attrs
        self._t0 = 0.0
        self._start = 0.0
        self.duration = 0.0

    def set(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self.tracer._push(self)
        self._t0 = time.time()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Clamped at zero: a clock hiccup can never emit a negative
        # duration (the BENCH telemetry block relies on this).
        self.duration = max(0.0, time.perf_counter() - self._start)
        self.tracer._pop(self)
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.tracer._emit_span(self)


class _NullSpan:
    """The disabled tracer's span: no-op, reusable, ``id`` is ``None``."""

    __slots__ = ()
    id = None
    parent = None
    duration = 0.0

    def set(self, **_attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Tracer:
    """Per-process span/event recorder with a JSONL sink.

    One instance per process (see :func:`get_tracer`); thread-safe.
    Spans nest per *thread* (a thread-local stack supplies the default
    parent); root spans adopt ``REPRO_TRACE_PARENT`` so traces stay
    coherent across process boundaries.
    """

    def __init__(self, enabled: bool, trace_dir: Optional[str] = None):
        self.enabled = enabled
        self.trace_dir = Path(trace_dir) if trace_dir else None
        self.span_count = 0
        self.event_count = 0
        self.traced_seconds = 0.0
        self._lock = threading.Lock()
        self._buffer: List[Dict[str, Any]] = []
        self._init_process()

    # -- process identity ------------------------------------------------------

    def _init_process(self) -> None:
        self._pid = os.getpid()
        self.token = f"{self._pid:x}-{os.urandom(3).hex()}"
        self._seq = 0
        self._file = None
        self._local = threading.local()

    def _ensure_process(self) -> None:
        if os.getpid() != self._pid:
            # Forked child: fresh token, fresh sink, fresh span stacks
            # (the parent's open handle must never be written through).
            self._lock = threading.Lock()
            self._init_process()

    def _next_id(self) -> str:
        with self._lock:
            self._seq += 1
            return f"{self.token}.{self._seq}"

    # -- span stack ------------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # pragma: no cover - unbalanced exit guard
            stack.remove(span)

    def current_span_id(self) -> Optional[str]:
        """The innermost open span of this thread, else the env parent."""
        stack = getattr(self._local, "stack", None)
        if stack:
            return stack[-1].id
        return os.environ.get(TRACE_PARENT_ENV_VAR) or None

    # -- public API ------------------------------------------------------------

    def span(self, name: str, **attrs: Any):
        """Open a nested timed span (context manager).

        Returns the reusable null span when disabled, so call sites pay
        one attribute check and nothing else.
        """
        if not self.enabled:
            return _NULL_SPAN
        self._ensure_process()
        return Span(self, name, self.current_span_id(), attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """Emit a point-in-time event under the current span."""
        if not self.enabled:
            return
        self._ensure_process()
        self._write(
            {
                "ev": "event",
                "name": name,
                "id": self._next_id(),
                "parent": self.current_span_id(),
                "pid": self._pid,
                "tid": threading.current_thread().name,
                "t0": round(time.time(), 6),
                "attrs": attrs,
            }
        )
        self.event_count += 1

    def drain(self) -> List[Dict[str, Any]]:
        """Return and clear the in-memory buffer (no-sink tracers)."""
        with self._lock:
            buffered, self._buffer = self._buffer, []
        return buffered

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                try:
                    self._file.close()
                except OSError:
                    pass
                self._file = None

    # -- sink ------------------------------------------------------------------

    def _emit_span(self, span: Span) -> None:
        self._ensure_process()
        self._write(
            {
                "ev": "span",
                "name": span.name,
                "id": span.id,
                "parent": span.parent,
                "pid": self._pid,
                "tid": threading.current_thread().name,
                "t0": round(span._t0, 6),
                "dur": round(span.duration, 6),
                "attrs": span.attrs,
            }
        )
        self.span_count += 1
        self.traced_seconds += span.duration

    def _write(self, payload: Dict[str, Any]) -> None:
        line = json.dumps(payload, separators=(",", ":"), default=str)
        with self._lock:
            if self.trace_dir is None:
                self._buffer.append(payload)
                return
            if self._file is None:
                try:
                    self.trace_dir.mkdir(parents=True, exist_ok=True)
                    self._file = open(
                        self.trace_dir / f"trace-{self.token}.jsonl", "a"
                    )
                except OSError:
                    # Sink unavailable (read-only fs, vanished dir):
                    # degrade to buffering rather than crash the job.
                    self.trace_dir = None
                    self._buffer.append(payload)
                    return
            try:
                self._file.write(line + "\n")
                self._file.flush()
            except OSError:
                pass


_RESOLVED: Optional[Tracer] = None
_RESOLVE_LOCK = threading.Lock()


def get_tracer() -> Tracer:
    """The process tracer, resolved lazily from the environment.

    The resolution is cached: toggling the env vars mid-process takes
    effect after :func:`reset` (tests) or :func:`configure` (the CLI).
    """
    tracer = _RESOLVED
    if tracer is None:
        with _RESOLVE_LOCK:
            tracer = _RESOLVED
            if tracer is None:
                tracer = Tracer(
                    _env_enabled(), os.environ.get(TRACE_DIR_ENV_VAR)
                )
                globals()["_RESOLVED"] = tracer
    return tracer


def telemetry_enabled() -> bool:
    """One-read guard for hot seams: is the tracer on?"""
    tracer = _RESOLVED
    if tracer is None:
        tracer = get_tracer()
    return tracer.enabled


def reset() -> None:
    """Drop the cached tracer (and metrics); next use re-reads the env."""
    global _RESOLVED
    with _RESOLVE_LOCK:
        if _RESOLVED is not None:
            _RESOLVED.close()
        _RESOLVED = None
    from .metrics import reset_metrics

    reset_metrics()


def configure(
    trace_dir: Optional[str] = None,
    parent: Optional[str] = None,
    enabled: bool = True,
) -> Tracer:
    """Enable telemetry for this process *and its children*.

    Writes the environment knobs (so pool workers inherit them)
    and rebuilds the tracer.  ``enabled=False`` clears everything.
    """
    if enabled:
        os.environ[TELEMETRY_ENV_VAR] = "1"
        if trace_dir is not None:
            os.environ[TRACE_DIR_ENV_VAR] = str(trace_dir)
            try:
                # Eager creation: adopters probe the directory's
                # existence (adopt_trace), and the probe must not race
                # this process's first lazy write.
                Path(trace_dir).mkdir(parents=True, exist_ok=True)
            except OSError:
                pass  # the sink degrades to buffering on first write
    else:
        os.environ.pop(TELEMETRY_ENV_VAR, None)
        os.environ.pop(TRACE_DIR_ENV_VAR, None)
        os.environ.pop(TRACE_PARENT_ENV_VAR, None)
    if parent is not None:
        os.environ[TRACE_PARENT_ENV_VAR] = parent
    reset()
    return get_tracer()


def adopt_trace(info: Any) -> bool:
    """Adopt a trace context advertised by a remote sweep server.

    *info* is the ``welcome`` frame's ``trace`` object (``{"dir": ...,
    "parent": ...}``).  Adoption requires the directory to be visible
    on this host (shared filesystem) -- a worker on another machine
    quietly declines and runs untraced rather than forking a local
    trace nobody will merge.  Returns whether adoption happened.
    """
    if not isinstance(info, dict):
        return False
    trace_dir = info.get("dir")
    if not trace_dir:
        return False
    try:
        if not Path(trace_dir).is_dir():
            return False
    except OSError:
        return False
    configure(trace_dir=str(trace_dir), parent=info.get("parent"))
    return True
