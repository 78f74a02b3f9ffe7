"""Request-scoped trace context: one id that survives thread and process hops.

A :class:`TraceContext` names the request a piece of work belongs to
(``trace_id``) and, optionally, the span it should hang beneath
(``span_id``/``depth``).  The context lives in a thread-local slot;
:func:`attach` installs one for the duration of a block, and every span
opened inside the block inherits its trace id (see
:meth:`repro.obs.tracing.Tracer.span`).

The interesting part is the *handoff*.  Thread-locals do not cross the
MicroBatcher's leader/follower boundary, so propagation is explicit:
:func:`capture` snapshots the calling thread's context **plus its
innermost live span** into a handle another thread can :func:`attach`
(cross-thread re-parenting) or record as a span link (the batch leader
links each coalesced follower's context into its ``serve.batch.run``
span).  Across processes only the trace id travels, in the
:data:`TRACE_HEADER` of an HTTP request.

``annotations`` is a mutable dict shared by every capture of the same
context.  It lets a *later* stage report back to the request that owns
it — the batch leader stamps ``batch_size`` and ``coalesced`` into each
member's annotations before releasing the followers, and the HTTP
handler reads them into the audit record.  The batch ``done`` event
provides the happens-before edge that makes this safe.
"""

from __future__ import annotations

import threading
import uuid
from typing import Dict, Optional

__all__ = [
    "TRACE_HEADER",
    "TraceContext",
    "new_trace_id",
    "current",
    "current_trace_id",
    "capture",
    "attach",
    "request",
    "annotate",
]

#: HTTP header carrying the trace id in daemon requests and responses.
TRACE_HEADER = "X-Repro-Trace-Id"

_local = threading.local()


def new_trace_id() -> str:
    """A fresh 16-hex-char request id (random, not derived from time)."""
    return uuid.uuid4().hex[:16]


class TraceContext:
    """The identity of one request: trace id, optional parent span, notes.

    ``span_id``/``depth`` point at the span new work should be parented
    under when the context is attached on a thread with an empty span
    stack (the cross-thread case).  ``annotations`` is shared — every
    handle captured from this context aliases the same dict.
    """

    __slots__ = ("trace_id", "span_id", "depth", "annotations")

    def __init__(
        self,
        trace_id: str,
        span_id: Optional[int] = None,
        depth: int = 0,
        annotations: Optional[Dict[str, object]] = None,
    ):
        self.trace_id = trace_id
        self.span_id = span_id
        self.depth = depth
        self.annotations: Dict[str, object] = {} if annotations is None else annotations

    def annotate(self, **fields) -> "TraceContext":
        """Merge fields into the shared annotation dict."""
        self.annotations.update(fields)
        return self

    def link(self) -> Dict[str, object]:
        """This context as a span-link payload (trace id + span id)."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceContext(trace_id={self.trace_id!r}, span_id={self.span_id!r}, "
            f"depth={self.depth})"
        )


def current() -> Optional[TraceContext]:
    """The context attached to the calling thread, or None."""
    return getattr(_local, "ctx", None)


def current_trace_id() -> Optional[str]:
    ctx = getattr(_local, "ctx", None)
    return ctx.trace_id if ctx is not None else None


def capture() -> Optional[TraceContext]:
    """Snapshot the calling thread's context as a cross-thread handle.

    The handle pins the innermost *live* span (if tracing is enabled and
    one is open) so that attaching it on another thread parents new spans
    correctly, and it shares the original context's annotation dict so the
    other thread can report back.  Returns None when no context is
    attached — callers pass the None straight to :func:`attach`, which
    treats it as "run detached".
    """
    ctx = getattr(_local, "ctx", None)
    if ctx is None:
        return None
    from . import tracing

    live = tracing.current_span()
    if live is not None:
        return TraceContext(ctx.trace_id, live.span_id, live.depth + 1, ctx.annotations)
    return TraceContext(ctx.trace_id, ctx.span_id, ctx.depth, ctx.annotations)


class attach:
    """Context manager installing ``ctx`` on the calling thread.

    ``attach(None)`` is a no-op handle that runs the block detached —
    the degenerate case when the producer had no context to capture.
    The previous context is restored on exit, so attaches nest.
    """

    __slots__ = ("ctx", "_prev")

    def __init__(self, ctx: Optional[TraceContext]):
        self.ctx = ctx

    def __enter__(self) -> Optional[TraceContext]:
        self._prev = getattr(_local, "ctx", None)
        _local.ctx = self.ctx
        return self.ctx

    def __exit__(self, exc_type, exc, tb) -> bool:
        _local.ctx = self._prev
        return False


def request(trace_id: Optional[str] = None) -> attach:
    """Attach a fresh root context for one inbound request::

        with context.request(header_value) as ctx:
            ...  # every span in here carries ctx.trace_id
    """
    return attach(TraceContext(trace_id or new_trace_id()))


def annotate(**fields) -> None:
    """Merge fields into the current context's annotations (no-op detached)."""
    ctx = getattr(_local, "ctx", None)
    if ctx is not None:
        ctx.annotations.update(fields)
