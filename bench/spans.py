"""Spans recorded from outside the program, and the per-layer latency budget.

The benchmark never edits ``src/``: in a traced run the host process
replaces a fixed set of callables (:data:`LAYERS`) with timing wrappers
that append one :class:`Span` per call to an in-memory
:class:`Recorder`.  Spans of one thread nest through a thread-local
stack; spans recorded in another process (the load generator's client
spans, the daemon's server spans) are joined afterwards by trace id.

:func:`latency_budget` turns any such span set into per-layer self time:
a span's duration minus the part of it its children cover.  Every
traced number the benchmark prints comes from that one function.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple


class Span(NamedTuple):
    id: int
    trace_id: Optional[str]
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int


class Recorder:
    """Thread-safe span sink with a per-thread stack of open spans.

    ``id_base`` keeps the ids of two processes' recorders disjoint, so
    their spans can be merged into one tree.
    """

    def __init__(self, id_base: int = 0):
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._ids = itertools.count(id_base)
        self._local = threading.local()
        self._count_lock = threading.Lock()

    def stack(self) -> List[Tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def new_id(self) -> int:
        return next(self._ids)

    def add(self, name: str, n: int = 1) -> None:
        with self._count_lock:
            self.counts[name] += n

    def record(self, name: str, start: float, end: float,
               trace_id: Optional[str] = None) -> None:
        """Append a root span timed by the caller."""
        self.spans.append(Span(self.new_id(), trace_id, name, start, end, None,
                               threading.get_ident()))

    def timed(self, name: str, fn: Callable, trace_id: Optional[str] = None,
              args: tuple = (), kwargs: Optional[dict] = None):
        """Call ``fn`` inside a span named ``name``; re-raise what it raises."""
        stack = self.stack()
        parent = stack[-1][0] if stack else None
        sid = self.new_id()
        stack.append((sid, name))
        start = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        except BaseException:
            self.add(name + ".raised")
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, trace_id, name, start, end, parent,
                                   threading.get_ident()))


@dataclass(frozen=True)
class Layer:
    """One wrapped callable: ``module[:Class].attr`` recorded as ``name``."""

    name: str
    owner: str
    attr: str
    #: Record nothing when the innermost open span has one of these names
    #: (the simulator calls ``plan_executors`` once per stage).
    skip_under: Tuple[str, ...] = ()
    #: Rows of work per call, summed into ``counts[name + ".rows"]``.
    rows: Optional[Callable[[tuple], int]] = None


#: Layer boundaries, named after the ``repro`` module that owns the work.
#: ``LITE._sample_hostable`` is the only private callable: no public one
#: marks the full-range fallback that runs when the ACG region is
#: unhostable.
LAYERS: Tuple[Layer, ...] = (
    Layer("recommend", "repro.core.lite:LITE", "recommend_many"),
    Layer("acg.region", "repro.core.candidates:AdaptiveCandidateGenerator", "region"),
    Layer("acg.sample", "repro.core.candidates:AdaptiveCandidateGenerator", "generate"),
    Layer("hostable", "repro.sparksim.costmodel", "plan_executors",
          skip_under=("sim.run",)),
    Layer("acg.fallback", "repro.core.lite:LITE", "_sample_hostable"),
    Layer("necs.encode", "repro.core.necs:NECSEstimator", "encode_templates"),
    Layer("necs.embed", "repro.core.necs:NECSEstimator", "warm_serving"),
    Layer("rank", "repro.core.recommender:KnobRecommender", "rank_many"),
    Layer("rank.featurise", "repro.core.recommender", "numeric_feature_rows"),
    Layer("necs.forward", "repro.core.necs:NECSEstimator", "predict_encoded"),
    Layer("feedback", "repro.core.lite:LITE", "feedback"),
    Layer("drift.predict", "repro.core.necs:NECSEstimator", "predict"),
    Layer("update", "repro.core.update:AdaptiveModelUpdater", "update",
          rows=lambda args: len(args[1]) + len(args[2])),
    Layer("sim.run", "repro.workloads.base:Workload", "run"),
    Layer("serve.service", "repro.serve.daemon:LiteService", "recommend"),
    Layer("serve.service", "repro.serve.daemon:LiteService", "feedback"),
    Layer("serve.batch.wait", "repro.serve.batching:MicroBatcher", "submit"),
    Layer("registry.load", "repro.serve.registry", "load_lite"),
)


def _wrap(recorder: Recorder, layer: Layer, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if layer.skip_under:
            stack = recorder.stack()
            if stack and stack[-1][1] in layer.skip_under:
                return fn(*args, **kwargs)
        if layer.rows is not None:
            recorder.add(layer.name + ".rows", layer.rows(args))
        return recorder.timed(layer.name, fn, args=args, kwargs=kwargs)

    return wrapper


def install(recorder: Recorder) -> List[str]:
    """Wrap every callable of :data:`LAYERS`; return the ones that no longer exist."""
    missing = []
    for layer in LAYERS:
        module_name, _, cls_name = layer.owner.partition(":")
        try:
            owner = importlib.import_module(module_name)
            if cls_name:
                owner = getattr(owner, cls_name)
            # The raw attribute, so a staticmethod stays one.
            raw = inspect.getattr_static(owner, layer.attr)
        except (ImportError, AttributeError):
            missing.append(f"{layer.owner}.{layer.attr}")
            continue
        if isinstance(raw, staticmethod):
            setattr(owner, layer.attr, staticmethod(_wrap(recorder, layer, raw.__func__)))
        else:
            setattr(owner, layer.attr, _wrap(recorder, layer, raw))
    return missing


def install_http(recorder: Recorder, handler_cls: type, header: str) -> None:
    """Record each request a daemon handler serves as a ``serve.http`` span.

    The span carries the request's trace id, read from ``header`` once the
    request is parsed, so the client's span can adopt it.  The call that
    finds the connection closed parses nothing and records nothing.
    """
    handle = handler_cls.handle_one_request

    def handle_one_request(self):
        stack = recorder.stack()
        sid = recorder.new_id()
        stack.append((sid, "serve.http"))
        start = time.perf_counter()
        try:
            handle(self)
        finally:
            end = time.perf_counter()
            stack.pop()
            if getattr(self, "raw_requestline", b""):
                headers = getattr(self, "headers", None)
                trace_id = headers.get(header) if headers is not None else None
                recorder.spans.append(Span(sid, trace_id, "serve.http", start, end,
                                           None, threading.get_ident()))

    handler_cls.handle_one_request = handle_one_request


def adopt_by_trace(parents: Iterable[Span], orphans: Iterable[Span]) -> List[Span]:
    """Re-parent root ``orphans`` under the ``parents`` span of their trace id.

    An adopted span is clipped to its new parent: a keep-alive handler
    starts reading before the client sends, and that idle wait belongs to
    no request.
    """
    by_trace = {p.trace_id: p for p in parents if p.trace_id is not None}
    out = []
    for span in orphans:
        parent = by_trace.get(span.trace_id) if span.parent is None else None
        if parent is not None:
            span = span._replace(parent=parent.id, start=max(span.start, parent.start),
                                 end=min(span.end, parent.end))
        out.append(span)
    return out


class LayerTime(NamedTuple):
    count: int
    total_s: float
    self_s: float


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    covered, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


def latency_budget(spans: Iterable[Span]) -> Dict[str, LayerTime]:
    """Per-name count, total time and self time of a span set.

    A span's self time is its duration minus the union of its children's
    intervals clipped to it, so children that overlap one another (two
    threads serving one parent) are not subtracted twice, and the self
    times of a tree add back up to its root's duration.
    """
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    by_id = {s.id: s for s in spans}
    for s in spans:
        parent = by_id.get(s.parent) if s.parent is not None else None
        if parent is not None:
            children[parent.id].append((max(s.start, parent.start), min(s.end, parent.end)))
    acc: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for s in spans:
        duration = s.end - s.start
        entry = acc[s.name]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - _covered(children.get(s.id, []))
    return {name: LayerTime(int(c), t, st) for name, (c, t, st) in acc.items()}


def write_jsonl(path: Path, spans: Iterable[Span]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(s._asdict()) + "\n")


def read_jsonl(path: Path) -> List[Span]:
    with open(path, encoding="utf-8") as fh:
        return [Span(**json.loads(line)) for line in fh if line.strip()]
