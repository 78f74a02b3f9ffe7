"""Cross-request micro-batching: coalesce concurrent calls into one batch.

The daemon's recommendation hot path is a batched tower-MLP forward whose
per-row cost shrinks as the batch grows, so concurrent requests for the
same (tenant, app, cluster) are worth coalescing into one
``LITE.recommend_many`` call.  Coalescing works like a database group
commit: no request ever waits on a timer.  The first thread to arrive
for a key becomes the *leader* of a new batch.  If no batch for that key
is running, the leader closes its batch and runs it at once — a lone
request pays nothing.  If one is running, the leader waits until it
finishes; threads arriving meanwhile become *followers* that join the
waiting batch and just wait for their slot.  So contended keys coalesce
and idle keys do not wait.  ``predict_encoded`` is row-wise bit-stable
across batch sizes, so a coalesced request returns exactly the ranking a
standalone call would have.

Error semantics: the batch runner validates nothing — callers must
validate requests *before* submitting, so an exception out of the runner
is systemic (model failure), and delivering it to every member of the
batch is the honest outcome.

Trace stitching: each submitter's trace context is captured with its
item, and the leader's ``serve.batch.run`` span records every follower's
context as a span *link* — one coalesced forward visibly serves N
requests, and each follower's trace still shows which batch absorbed it.
The leader also stamps ``batch_size``/``coalesced`` into every member's
context annotations before releasing them (the ``done`` event provides
the happens-before edge), so the HTTP layer can audit the batching
decision per request.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Set, TypeVar

from .. import obs
from ..obs import context as obs_context
from ..obs import names as obsn

__all__ = ["MicroBatcher"]

T = TypeVar("T")
R = TypeVar("R")


class _Batch:
    """One open batch: items, member contexts, completion event, result."""

    __slots__ = ("items", "ctxs", "done", "results", "error")

    def __init__(self):
        self.items: List[object] = []
        self.ctxs: List[Optional[obs_context.TraceContext]] = []
        self.done = threading.Event()
        self.results: Optional[Sequence[object]] = None
        self.error: Optional[BaseException] = None


class MicroBatcher:
    """Per-key leader/follower request coalescing (group commit)."""

    def __init__(self):
        #: Guards both maps; its waiters are leaders queued behind a run.
        self._lock = threading.Condition()
        #: The batch per key still accepting items (its leader is waiting).
        self._open: Dict[Hashable, _Batch] = {}
        #: Keys whose batch is running now.
        self._running: Set[Hashable] = set()

    def submit(
        self,
        key: Hashable,
        item: T,
        run_batch: Callable[[List[T]], Sequence[R]],
    ) -> R:
        """Add ``item`` to the key's open batch and return its result.

        The calling thread blocks until the batch leader has run
        ``run_batch`` over every coalesced item (order of arrival); the
        leader is whichever caller opened the batch, and it waits only
        while the key's previous batch is still running.  ``run_batch``
        must return one result per item, in order.
        """
        ctx = obs_context.capture()
        with self._lock:
            batch = self._open.get(key)
            leader = batch is None
            if leader:
                batch = _Batch()
                self._open[key] = batch
            index = len(batch.items)
            batch.items.append(item)
            batch.ctxs.append(ctx)
            if leader:
                while key in self._running:
                    self._lock.wait()
                # Close the batch: later arrivals open the next one.
                del self._open[key]
                self._running.add(key)
        if leader:
            try:
                with obs.span(obsn.SPAN_SERVE_BATCH_RUN) as sp:
                    if sp:
                        sp.set(batch_size=len(batch.items))
                        # The leader's own context (index 0) is already
                        # this span's ancestry; followers become links.
                        for member in batch.ctxs[1:]:
                            sp.add_link(member)
                    results = run_batch(list(batch.items))
                if len(results) != len(batch.items):
                    raise RuntimeError(
                        f"batch runner returned {len(results)} results for "
                        f"{len(batch.items)} items"
                    )
                batch.results = results
                size = len(batch.items)
                for member in batch.ctxs:
                    if member is not None:
                        member.annotate(batch_size=size, coalesced=member is not ctx)
                        if member is not ctx and ctx is not None:
                            member.annotate(coalesced_into=ctx.trace_id)
                obs.counter(obsn.CTR_SERVE_BATCHES).inc()
                if len(batch.items) > 1:
                    obs.counter(obsn.CTR_SERVE_COALESCED).inc(len(batch.items) - 1)
            except BaseException as exc:
                batch.error = exc
            finally:
                with self._lock:
                    self._running.discard(key)
                    self._lock.notify_all()
                batch.done.set()
        else:
            batch.done.wait()
        if batch.error is not None:
            raise batch.error
        return batch.results[index]
