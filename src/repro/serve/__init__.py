"""Multi-tenant serving daemon for trained LITE systems (DESIGN.md §14).

A *tenant* is a named LITE checkpoint.  The daemon keeps a bounded
registry of loaded tenants (:class:`~repro.serve.registry.ModelRegistry`,
LRU-evicted), coalesces concurrent recommendation requests per tenant
into single batched forwards (:class:`~repro.serve.batching.MicroBatcher`
over ``LITE.recommend_many``), and fronts it all with a stdlib-only
HTTP/JSON API (:mod:`~repro.serve.daemon`):

- ``POST /v1/recommend`` — rank candidate configurations for a tenant;
- ``POST /v1/feedback``  — replay a production run into the tenant's
  feedback loop (drift window + adaptive update trigger);
- ``GET /v1/stats``      — obs metrics snapshot + registry state + SLO
  burn-rate evaluation;
- ``GET /v1/metrics``    — Prometheus text exposition (per-tenant series);
- ``GET /v1/health``     — liveness.

Every response carries an ``X-Repro-Trace-Id`` header (echoed from the
request when well-formed, minted otherwise) and JSON bodies repeat it as
``trace_id``; with ``--audit-log`` each finished request also appends a
structured JSONL audit record (:mod:`~repro.serve.audit`).

Two rejection layers keep latency bounded: global admission control
(``max_inflight`` → 503) and optional per-tenant token-bucket quotas
(:mod:`~repro.serve.quota`, ``quota_rps``/``quota_burst`` → 429), both
with honest ``Retry-After`` headers.

Start it with ``repro serve``; ``bench/run.py`` measures it end to end.
"""

from .audit import AuditLog
from .batching import MicroBatcher
from .daemon import LiteService, ServiceConfig, ServiceError, make_server
from .quota import QuotaManager, TokenBucket
from .registry import ModelRegistry

__all__ = [
    "AuditLog",
    "LiteService",
    "MicroBatcher",
    "ModelRegistry",
    "QuotaManager",
    "ServiceConfig",
    "ServiceError",
    "TokenBucket",
    "make_server",
]
