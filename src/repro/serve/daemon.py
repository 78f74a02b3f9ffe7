"""The HTTP/JSON serving daemon: stdlib-only, thread-per-request.

:class:`LiteService` is the transport-free core — four methods
(``recommend`` / ``feedback`` / ``stats`` / ``health``) taking and
returning plain dicts, with validation, admission control and per-tenant
micro-batching inside.  :func:`make_server` wraps it in a
``ThreadingHTTPServer``; ``repro serve`` runs that forever.

Request semantics:

- every request is validated *before* it reaches a model, so an invalid
  request can never poison a coalesced batch (400 with the reason);
- an unknown tenant is 404 (the registry knows neither a loaded model
  nor a checkpoint for it);
- when ``max_inflight`` recommend/feedback requests are already being
  served, new ones are rejected immediately with 503 and a
  ``Retry-After`` header — bounded latency beats an unbounded queue;
- when per-tenant quotas are enabled (``quota_rps``), a tenant that
  exhausts its token bucket gets 429 + ``Retry-After`` *before* touching
  a model, so one chatty tenant cannot starve its neighbours;
- a request carrying an explicit ``seed`` is fully deterministic:
  the daemon answers with bit-identical rankings to a direct
  ``LITE.recommend(..., rng=get_rng(seed))`` call, however requests
  interleave (``tests/serve/test_http.py`` checks exactly this);
- a request body is at most :data:`MAX_BODY_BYTES`: a larger
  ``Content-Length`` is 413 and a malformed one 400, and both close the
  connection, since the unread body would otherwise be parsed as the
  next request;
- JSON bodies never carry a bare ``NaN`` or ``Infinity``: a
  recommendation holding a non-finite number is answered 500 with the
  reason, and an undefined statistic in a stats or feedback body (a
  drift window with no pairs yet) is written as ``null``.
"""

from __future__ import annotations

import json
import math
import re
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Iterator, Optional

import numpy as np

from .. import obs
from ..obs import context as obs_context
from ..obs import metrics as obs_metrics
from ..obs import names as obsn
from ..obs.prom import CONTENT_TYPE as PROM_CONTENT_TYPE
from ..obs.prom import render_prometheus
from ..obs.slo import SLOMonitor, SLOSpec
from ..core.lite import RecommendQuery
from ..core.recommender import Recommendation
from ..sparksim.cluster import get_cluster
from ..sparksim.config import SparkConf
from ..sparksim.costmodel import SparkJobError
from ..utils.rng import get_rng
from .audit import AuditLog
from .batching import MicroBatcher
from .quota import QuotaManager
from .registry import ModelRegistry

__all__ = ["LiteService", "ServiceConfig", "ServiceError", "make_server"]

#: Accepted shapes for a client-supplied X-Repro-Trace-Id header; anything
#: else gets a fresh server-side id rather than polluting the trace store.
_TRACE_ID_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")

#: Label value for requests that carry no (valid) tenant field.
_NO_TENANT = "__none__"

#: Audit-log decision per rejection status (everything < 400 is "ok").
_DECISIONS = {400: "invalid", 404: "unknown_tenant", 413: "too_large",
              429: "quota_rejected", 503: "shed"}

#: Largest request body the daemon reads.  A recommend or feedback body
#: is well under 1 KB; the cap stops one request from holding a handler
#: thread (and its buffer) for as many bytes as it cares to declare.
MAX_BODY_BYTES = 1 << 20

_CONTENT_LENGTH_RE = re.compile(r"^[0-9]+$")


def _encode(body: Dict[str, object]) -> bytes:
    """Strict JSON: raises ``ValueError`` on NaN or infinity."""
    return json.dumps(body, allow_nan=False).encode("utf-8")


def _undefined_as_null(obj):
    """``obj`` with every NaN or infinite float replaced by ``None``."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _undefined_as_null(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_undefined_as_null(value) for value in obj]
    return obj


@dataclass
class ServiceConfig:
    host: str = "127.0.0.1"
    port: int = 0                  #: 0 = let the OS pick (tests, benches)
    max_tenants: int = 4           #: registry LRU budget
    max_inflight: int = 16         #: admission-control bound
    default_cluster: str = "C"
    retry_after_s: int = 1         #: advertised on 503 responses
    #: Per-tenant sustained request rate (tokens/s); None disables quotas.
    quota_rps: Optional[float] = None
    #: Per-tenant burst capacity (bucket size) when quotas are enabled.
    quota_burst: float = 8.0
    #: Path to the per-request JSONL audit log; None disables auditing.
    audit_log: Optional[str] = None
    #: Availability SLO: this fraction of data requests must answer < 500.
    slo_availability_target: float = 0.995
    #: Latency SLO: this fraction of successful recommends must finish
    #: within ``slo_latency_threshold_s``.
    slo_latency_target: float = 0.99
    slo_latency_threshold_s: float = 0.5


class ServiceError(Exception):
    """An error with a definite HTTP status (and optional Retry-After)."""

    def __init__(self, status: int, message: str, retry_after: Optional[int] = None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.retry_after = retry_after


def _recommendation_to_dict(rec: Recommendation) -> Dict[str, object]:
    return {
        "conf": rec.conf.as_dict(),
        "predicted_time_s": rec.predicted_time_s,
        "ranking": [[conf.as_dict(), t] for conf, t in rec.ranking],
        "overhead_s": rec.overhead_s,
        "probe_overhead_s": rec.probe_overhead_s,
        "encode_overhead_s": rec.encode_overhead_s,
        "template_cache_hit": rec.template_cache_hit,
    }


class LiteService:
    """Transport-free serving core: dict in, dict out, ServiceError on bad."""

    def __init__(self, registry: ModelRegistry, config: Optional[ServiceConfig] = None):
        self.registry = registry
        self.config = config or ServiceConfig()
        self.batcher = MicroBatcher()
        self.quota: Optional[QuotaManager] = (
            QuotaManager(self.config.quota_rps, self.config.quota_burst)
            if self.config.quota_rps is not None else None
        )
        self.slo = SLOMonitor([
            SLOSpec(
                "availability",
                self.config.slo_availability_target,
                description="data requests (recommend/feedback) answered "
                            "without a 5xx",
            ),
            SLOSpec(
                "recommend_latency",
                self.config.slo_latency_target,
                description=f"successful recommends within "
                            f"{self.config.slo_latency_threshold_s * 1e3:.0f} ms",
            ),
        ])
        self.audit: Optional[AuditLog] = (
            AuditLog(self.config.audit_log) if self.config.audit_log else None
        )
        self._admission_lock = threading.Lock()
        self._inflight = 0

    def close(self) -> None:
        """Release owned resources (currently: the audit log handle)."""
        if self.audit is not None:
            self.audit.close()

    # -- admission control ----------------------------------------------
    @contextmanager
    def _admission(self) -> Iterator[None]:
        with self._admission_lock:
            if self._inflight >= self.config.max_inflight:
                obs.counter(obsn.CTR_SERVE_OVERLOAD).inc()
                raise ServiceError(
                    503,
                    f"server at capacity ({self.config.max_inflight} requests "
                    f"in flight); retry shortly",
                    retry_after=self.config.retry_after_s,
                )
            self._inflight += 1
            obs.gauge(obsn.GAUGE_SERVE_QUEUE_DEPTH).set(self._inflight)
        try:
            yield
        finally:
            with self._admission_lock:
                self._inflight -= 1
                obs.gauge(obsn.GAUGE_SERVE_QUEUE_DEPTH).set(self._inflight)

    # -- per-tenant quotas ------------------------------------------------
    def _check_quota(self, tenant: str) -> None:
        """Charge one request to the tenant's bucket; 429 when exhausted.

        Runs after the tenant name parses but before any model work, so a
        rejected request costs the server nothing but this bookkeeping.
        """
        if self.quota is None:
            return
        allowed, retry_after_s = self.quota.check(tenant)
        if allowed:
            obs.counter(obsn.CTR_SERVE_QUOTA_ALLOWED).inc()
            return
        obs.counter(obsn.CTR_SERVE_QUOTA_REJECTED).inc()
        raise ServiceError(
            429,
            f"tenant {tenant!r} exceeded its request quota "
            f"({self.config.quota_rps:g} req/s sustained, "
            f"burst {self.config.quota_burst:g}); retry shortly",
            retry_after=max(1, int(np.ceil(retry_after_s))),
        )

    # -- validation helpers ----------------------------------------------
    @staticmethod
    def _require_str(payload: Dict, key: str) -> str:
        value = payload.get(key)
        if not isinstance(value, str) or not value:
            raise ServiceError(400, f"{key!r} must be a non-empty string")
        return value

    @staticmethod
    def _parse_int(payload: Dict, key: str, minimum: int,
                   default: Optional[int] = None) -> Optional[int]:
        value = payload.get(key)
        if value is None:
            return default
        try:
            value = int(value)
        except (TypeError, ValueError, OverflowError):
            raise ServiceError(400, f"{key!r} must be an integer")
        if value < minimum:
            raise ServiceError(400, f"{key!r} must be >= {minimum}")
        return value

    def _parse_cluster(self, payload: Dict):
        name = payload.get("cluster", self.config.default_cluster)
        try:
            return get_cluster(str(name))
        except KeyError as exc:
            raise ServiceError(400, str(exc.args[0]))

    # -- endpoints --------------------------------------------------------
    def recommend(self, payload: Dict) -> Dict[str, object]:
        with obs.span(obsn.SPAN_SERVE_RECOMMEND) as sp:
            tenant = self._require_str(payload, "tenant")
            self._check_quota(tenant)
            app = self._require_str(payload, "app")
            try:
                feats = np.atleast_1d(
                    np.asarray(payload.get("data_features"), dtype=np.float64)
                )
            except (TypeError, ValueError) as exc:
                raise ServiceError(400, f"'data_features' must be numeric: {exc}")
            if feats.size == 0 or feats.ndim != 1 or not np.all(np.isfinite(feats)):
                raise ServiceError(
                    400, "'data_features' must be a non-empty flat list of "
                         "finite numbers"
                )
            n_candidates = self._parse_int(payload, "n_candidates", minimum=1)
            cluster = self._parse_cluster(payload)
            seed = self._parse_int(payload, "seed", minimum=0)
            rng = get_rng(seed) if seed is not None else None
            with self._admission():
                try:
                    with self.registry.lease(tenant) as lite:
                        query = RecommendQuery(feats, n_candidates, rng)
                        key = (tenant, app, cluster.name)
                        try:
                            lite.check_query(query, cluster)
                            rec = self.batcher.submit(
                                key, query,
                                lambda queries: lite.recommend_many(
                                    app, queries, cluster
                                ),
                            )
                        except KeyError as exc:
                            # Unknown application for this tenant (no stage
                            # templates); distinct from an unknown tenant.
                            raise ServiceError(400, str(exc.args[0]))
                        except (ValueError, RuntimeError) as exc:
                            raise ServiceError(400, str(exc))
                except KeyError as exc:
                    raise ServiceError(404, str(exc.args[0]))
            if sp:
                sp.set(tenant=tenant, app=app, cluster=cluster.name)
            body = _recommendation_to_dict(rec)
            body.update(tenant=tenant, app=app, cluster=cluster.name)
            return body

    def feedback(self, payload: Dict) -> Dict[str, object]:
        from ..workloads import get_workload

        with obs.span(obsn.SPAN_SERVE_FEEDBACK) as sp:
            tenant = self._require_str(payload, "tenant")
            self._check_quota(tenant)
            app = self._require_str(payload, "app")
            cluster = self._parse_cluster(payload)
            scale = payload.get("scale", "train0")
            seed = self._parse_int(payload, "seed", minimum=0, default=0)
            update_now = payload.get("update_now", False)
            if not isinstance(update_now, bool):
                raise ServiceError(400, "'update_now' must be a JSON boolean")
            conf_values = payload.get("conf") or {}
            if not isinstance(conf_values, dict):
                raise ServiceError(400, "'conf' must be a knob-name -> value object")
            try:
                conf = SparkConf(conf_values)
            except (KeyError, ValueError) as exc:
                raise ServiceError(400, f"invalid 'conf': {exc}")
            try:
                workload = get_workload(app)
            except KeyError as exc:
                raise ServiceError(400, str(exc.args[0]))
            with self._admission():
                try:
                    with self.registry.lease(tenant) as lite:
                        try:
                            run = workload.run(
                                conf, cluster, scale=str(scale), seed=seed
                            )
                        except (SparkJobError, KeyError, ValueError) as exc:
                            raise ServiceError(
                                400, f"feedback run failed validation: {exc}"
                            )
                        updated = lite.feedback(run, update_now=update_now)
                        drift = lite.drift_stats()
                        app_drift = lite.drift_stats(app=app)
                        switch = lite.task_switch.state(app)
                except KeyError as exc:
                    raise ServiceError(404, str(exc.args[0]))
            if sp:
                sp.set(tenant=tenant, app=app, updated=updated)
            return {
                "tenant": tenant,
                "app": app,
                "run_success": run.success,
                "run_time_s": run.duration_s,
                "updated": updated,
                "drift": drift.to_dict(),
                "app_drift": app_drift.to_dict(),
                "switch": switch,
            }

    def stats(self) -> Dict[str, object]:
        with obs.span(obsn.SPAN_SERVE_STATS):
            with self._admission_lock:
                inflight = self._inflight
            # Evaluate SLOs before snapshotting metrics so the slo.* gauges
            # the evaluation publishes appear in the same response.
            slo = self.slo.snapshot()
            # Per-tenant drift/switch state reads via peek (not lease): a
            # stats poll must not refresh LRU recency or pin tenants.
            drift = {
                tenant: lite.drift_state()
                for tenant, lite in self.registry.peek_loaded().items()
            }
            return {
                "registry": self.registry.stats(),
                "inflight": inflight,
                "max_inflight": self.config.max_inflight,
                "slo": slo,
                "drift": drift,
                "metrics": obs_metrics.registry().snapshot(),
            }

    def health(self) -> Dict[str, object]:
        with obs.span(obsn.SPAN_SERVE_HEALTH):
            return {
                "status": "ok",
                "tenants": self.registry.tenants(),
                "loaded": self.registry.loaded_tenants(),
            }

    # -- per-request accounting ------------------------------------------
    def observe_request(
        self,
        *,
        route: str,
        method: str,
        status: int,
        latency_s: float,
        trace_id: str,
        tenant: Optional[str],
        app: Optional[str],
        annotations: Optional[Dict[str, object]] = None,
        cache_hit: Optional[bool] = None,
    ) -> None:
        """Settle one finished HTTP request: labeled series, SLOs, audit.

        Called by the transport for *every* response, including errors —
        this is the single place request identity (tenant, route) meets
        request outcome (status, latency), which is exactly what the
        labeled metrics, the SLO trackers and the audit log all need.
        """
        label = tenant if tenant else _NO_TENANT
        obs.counter(obsn.CTR_SERVE_REQUESTS, tenant=label).inc()
        if status >= 400:
            obs.counter(obsn.CTR_SERVE_ERRORS, tenant=label).inc()
        obs.histogram(
            obsn.HIST_SERVE_REQUEST_LATENCY, tenant=label, route=route
        ).observe(latency_s)
        if route in ("recommend", "feedback"):
            # Client errors (4xx incl. quota 429s) do not burn the
            # availability budget — only the server failing does.
            self.slo.record("availability", status < 500)
            if route == "recommend" and status == 200:
                self.slo.record(
                    "recommend_latency",
                    latency_s <= self.config.slo_latency_threshold_s,
                )
        # Snapshot the handle so the check and the write see one object;
        # the log itself serialises appends under its own lock.
        audit = self.audit
        if audit is not None:
            ann = annotations or {}
            audit.record(
                ts=time.time(),
                trace_id=trace_id,
                route=route,
                method=method,
                status=status,
                latency_ms=round(latency_s * 1e3, 3),
                tenant=tenant,
                app=app,
                cache_hit=cache_hit,
                batch_size=ann.get("batch_size"),
                coalesced=ann.get("coalesced"),
                decision=_DECISIONS.get(status, "ok" if status < 500 else "error"),
            )


# ---------------------------------------------------------------------------
# HTTP transport
# ---------------------------------------------------------------------------
class _RequestHandler(BaseHTTPRequestHandler):
    service: LiteService   # injected by make_server onto the subclass
    protocol_version = "HTTP/1.1"
    # Headers and body go out in two writes.  With Nagle on, the body
    # waits for the ACK of the headers, which a keep-alive client delays
    # by ~40 ms; TCP_NODELAY sends the body at once.
    disable_nagle_algorithm = True
    #: Set when the request's body was left unread; the response then
    #: closes the connection.
    _drop_connection = False

    # -- plumbing ---------------------------------------------------------
    def log_message(self, format, *args):   # noqa: A002 - stdlib signature
        pass   # request logging goes through obs counters, not stderr

    def _read_json(self) -> Dict:
        declared = (self.headers.get("Content-Length") or "0").strip()
        if not _CONTENT_LENGTH_RE.match(declared):
            self._drop_connection = True
            raise ServiceError(
                400, f"malformed Content-Length {declared[:32]!r}; expected a "
                     "non-negative integer")
        length = int(declared)
        if length > MAX_BODY_BYTES:
            self._drop_connection = True
            raise ServiceError(
                413, f"request body of {length} bytes exceeds the "
                     f"{MAX_BODY_BYTES}-byte limit")
        raw = self.rfile.read(length) if length > 0 else b""
        if not raw:
            raise ServiceError(400, "empty request body; expected a JSON object")
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ServiceError(400, f"malformed JSON body: {exc}")
        if not isinstance(payload, dict):
            raise ServiceError(400, "JSON body must be an object")
        return payload

    def _send(self, status: int, data: bytes, headers: Dict[str, str]) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def _send_text(self, status: int, text: str, content_type: str,
                   headers: Optional[Dict[str, str]] = None) -> None:
        data = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    # -- dispatch ---------------------------------------------------------
    _ROUTES = {
        ("GET", "/v1/health"): "health",
        ("GET", "/v1/stats"): "stats",
        ("GET", "/v1/metrics"): "metrics",
        ("POST", "/v1/recommend"): "recommend",
        ("POST", "/v1/feedback"): "feedback",
    }

    def _dispatch(self, method: str) -> None:
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        route = self._ROUTES.get((method, path), "unknown")
        incoming = (self.headers.get(obs_context.TRACE_HEADER) or "").strip()
        # Reuse a well-formed client id (distributed callers thread their
        # own); otherwise mint one — every response names its trace.
        trace_id = incoming if _TRACE_ID_RE.match(incoming) else obs_context.new_trace_id()
        headers: Dict[str, str] = {obs_context.TRACE_HEADER: trace_id}
        status = 200
        body: Optional[Dict[str, object]] = None
        text: Optional[str] = None
        tenant: Optional[str] = None
        app: Optional[str] = None
        t0 = time.perf_counter()
        with obs_context.request(trace_id) as ctx:
            with obs.span(obsn.SPAN_SERVE_REQUEST) as sp:
                if sp:
                    sp.set(route=route, method=method)
                try:
                    if route == "health":
                        body = self.service.health()
                    elif route == "stats":
                        body = self.service.stats()
                    elif route == "metrics":
                        text = render_prometheus()
                    elif route in ("recommend", "feedback"):
                        payload = self._read_json()
                        raw_tenant = payload.get("tenant")
                        if isinstance(raw_tenant, str) and raw_tenant:
                            tenant = raw_tenant
                        raw_app = payload.get("app")
                        if isinstance(raw_app, str) and raw_app:
                            app = raw_app
                        if route == "recommend":
                            body = self.service.recommend(payload)
                        else:
                            body = self.service.feedback(payload)
                    else:
                        raise ServiceError(404, f"no such endpoint: {method} {path}")
                except ServiceError as exc:
                    status = exc.status
                    body = {"error": exc.message}
                    if exc.retry_after is not None:
                        headers["Retry-After"] = str(exc.retry_after)
                    if self._drop_connection:
                        headers["Connection"] = "close"
                except Exception as exc:   # pragma: no cover - systemic failure path
                    status = 500
                    body = {"error": f"{type(exc).__name__}: {exc}"}
                if sp:
                    sp.set(status=status)
        latency_s = time.perf_counter() - t0
        cache_hit = body.get("template_cache_hit") if isinstance(body, dict) else None
        if text is None:
            body["trace_id"] = trace_id
            # A recommendation's numbers are predictions, so a non-finite
            # one is a failure.  Elsewhere NaN marks an undefined statistic
            # (a drift window with no pairs yet) and is written as null.
            if route != "recommend":
                body = _undefined_as_null(body)
            try:
                data = _encode(body)
            except ValueError as exc:
                status = 500
                data = _encode({
                    "error": f"response holds a non-finite number ({exc}); "
                             "the model could not score this request",
                    "trace_id": trace_id,
                })
        self.service.observe_request(
            route=route,
            method=method,
            status=status,
            latency_s=latency_s,
            trace_id=trace_id,
            tenant=tenant,
            app=app,
            annotations=ctx.annotations,
            cache_hit=cache_hit,
        )
        if text is not None:
            self._send_text(status, text, PROM_CONTENT_TYPE, headers)
        else:
            self._send(status, data, headers)

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")


def make_server(
    service: LiteService,
    host: Optional[str] = None,
    port: Optional[int] = None,
) -> ThreadingHTTPServer:
    """Bind a threading HTTP server for the service (port 0 = OS-assigned).

    The caller owns the lifecycle: ``serve_forever()`` to run,
    ``shutdown()`` + ``server_close()`` to stop.  The bound port is
    ``server.server_address[1]``.
    """
    handler = type("BoundHandler", (_RequestHandler,), {"service": service})
    server = ThreadingHTTPServer(
        (host if host is not None else service.config.host,
         port if port is not None else service.config.port),
        handler,
    )
    server.daemon_threads = True
    return server
