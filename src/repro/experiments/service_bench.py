"""Serving-daemon benchmark: multi-tenant load against the HTTP service.

``repro bench-recommend`` measures the ranking *library* fast path; this
benchmark measures the *daemon* wrapped around it — the thing the paper's
"low-overhead online tuning" claim meets in production.  One process
hosts several tenants (independently trained LITE checkpoints) behind
:class:`repro.serve.LiteService`; threaded clients then drive it through
six phases:

1. **endpoints** — health/stats plus one deliberately malformed request
   (the error path must count, not crash);
2. **correctness** — seeded recommends over HTTP, interleaved across
   tenants, compared field-for-field against direct library calls on
   pristine copies of the same checkpoints.  The gate is *bit-identical
   rankings*: micro-batching and tenant interleaving must not change a
   single ulp of any ranking;
3. **throughput** — sustained concurrent load; gates on requests/sec and
   client-observed p99 latency;
4. **coalescing** — a barrier-released burst for one (tenant, app) must
   coalesce into fewer model forwards than requests;
5. **eviction** — touching one tenant more than the registry budget
   evicts the LRU idle tenant (and the evicted tenant still answers
   afterwards, via lazy reload);
6. **overload** — a burst against a 1-slot service must shed load with
   503 + ``Retry-After``, not queue unboundedly;
7. **quota** — against a quota-enabled service, one tenant burning
   through its token bucket gets 429 + ``Retry-After`` while a quiet
   sibling tenant still answers 200 (per-tenant isolation, not a global
   brake);
8. **slo** — ``/v1/stats`` must report the declared objectives with
   multi-window burn rates: zero-burn (no alert) on the healthy main
   server, and a firing availability alert on the overload server right
   after a fresh shed burst;
9. **observability surface** — the trace id round-trips (request header
   → response header → JSON body), ``GET /v1/metrics`` emits valid
   Prometheus text with per-tenant label sets, the audit log holds one
   JSONL record per request with the fields the tentpole promises, and
   an end-to-end traced request yields a stitched span tree sharing one
   trace id (embedded in the report for CI artifacts).

Emits ``BENCH_service.json`` via the shared report writer; ``ok`` is the
conjunction of every phase's check, and the CI ``service`` job gates on
it (``repro bench-service --smoke``).
"""

from __future__ import annotations

import json
import re
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .. import obs
from ..obs import names as obsn
from ..core.persistence import load_lite, save_lite
from ..serve import LiteService, ModelRegistry, ServiceConfig, make_server
from ..utils.rng import get_rng
from .report import write_bench_report
from .serving_bench import build_serving_lite

DEFAULT_OUT = "BENCH_service.json"

#: Gates for the CI smoke run — deliberately loose (shared runners), but
#: real: a deadlocked batcher, an unbounded queue or a serialised server
#: all blow straight through them.
SMOKE_BUDGET = {"throughput_min_rps": 5.0, "p99_max_s": 2.0}
FULL_BUDGET = {"throughput_min_rps": 20.0, "p99_max_s": 1.0}


# ---------------------------------------------------------------------------
# Tiny HTTP client (stdlib; one connection per request is plenty here)
# ---------------------------------------------------------------------------
def _request(
    port: int, method: str, path: str, payload: Optional[Dict] = None,
    raw_body: Optional[bytes] = None, headers: Optional[Dict[str, str]] = None,
) -> Tuple[int, Dict, Dict[str, str]]:
    url = f"http://127.0.0.1:{port}{path}"
    data = raw_body
    if data is None and payload is not None:
        data = json.dumps(payload).encode("utf-8")
    send_headers = dict(headers or {})
    if data:
        send_headers.setdefault("Content-Type", "application/json")
    req = urllib.request.Request(
        url, data=data, method=method, headers=send_headers,
    )
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


def _percentiles_ms(samples_s: List[float]) -> Dict[str, float]:
    arr = np.asarray(samples_s, dtype=np.float64)
    return {
        "p50_ms": float(np.percentile(arr, 50)) * 1e3,
        "p95_ms": float(np.percentile(arr, 95)) * 1e3,
        "p99_ms": float(np.percentile(arr, 99)) * 1e3,
        "mean_ms": float(arr.mean()) * 1e3,
    }


def _request_text(
    port: int, method: str, path: str, headers: Optional[Dict[str, str]] = None,
) -> Tuple[int, str, Dict[str, str]]:
    """Like :func:`_request` for endpoints that answer text, not JSON."""
    url = f"http://127.0.0.1:{port}{path}"
    req = urllib.request.Request(url, method=method, headers=headers or {})
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, resp.read().decode("utf-8"), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8"), dict(exc.headers)


def _counter_value(name: str) -> int:
    snapshot = obs.registry().snapshot()
    entry = snapshot.get(name)
    return int(entry["value"]) if entry else 0


#: One sample line of Prometheus text exposition: name, optional labels,
#: one float (scientific notation and signed infinities included).
_PROM_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [+-]?(Inf|[0-9.eE+-]+)$"
)


def _valid_exposition(text: str) -> bool:
    """Every non-comment line parses as a sample; at least one sample."""
    samples = 0
    for line in text.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        if not _PROM_SAMPLE.match(line):
            return False
        samples += 1
    return samples > 0


# ---------------------------------------------------------------------------
# The benchmark
# ---------------------------------------------------------------------------
def run_service_benchmark(
    n_tenants: int = 2,
    n_requests: int = 200,
    threads: int = 4,
    n_candidates: int = 8,
    smoke: bool = False,
    seed: int = 0,
    out: Optional[Union[str, Path]] = DEFAULT_OUT,
    work_dir: Optional[Union[str, Path]] = None,
) -> Dict[str, object]:
    """Run all six phases and emit ``BENCH_service.json``."""
    import tempfile

    if smoke:
        n_tenants = min(n_tenants, 2)
        n_requests = min(n_requests, 24)
        n_candidates = min(n_candidates, 6)
    budget = SMOKE_BUDGET if smoke else FULL_BUDGET
    app = "PageRank"   # the one app every build_serving_lite corpus contains
    obs.reset_metrics()

    with tempfile.TemporaryDirectory() as tmp:
        base = Path(work_dir) if work_dir is not None else Path(tmp)
        # One extra checkpoint beyond the registry budget: requesting it
        # later is the eviction proof.
        names = [f"tenant-{i}" for i in range(n_tenants + 1)]
        checkpoints: Dict[str, Path] = {}
        for i, name in enumerate(names):
            lite = build_serving_lite(smoke=smoke, seed=seed + i)
            checkpoints[name] = save_lite(lite, base / f"{name}.pkl")
        data_features = [float(x) for x in _app_features(app)]

        registry = ModelRegistry(checkpoints, max_tenants=n_tenants)
        audit_path = base / "audit.jsonl"
        services = (
            LiteService(registry, ServiceConfig(
                max_tenants=n_tenants, max_inflight=max(threads * 4, 16),
                audit_log=str(audit_path),
            )),
            LiteService(registry, ServiceConfig(max_inflight=64)),
            LiteService(registry, ServiceConfig(max_inflight=1)),
            # Tiny burst, near-zero refill: the quota phase exhausts the
            # bucket deterministically with a few sequential requests.
            LiteService(registry, ServiceConfig(
                max_inflight=16, quota_rps=0.001, quota_burst=2,
            )),
        )
        main, coalesce, overload, quota = (make_server(s) for s in services)
        servers = (main, coalesce, overload, quota)
        for server in servers:
            threading.Thread(target=server.serve_forever, daemon=True).start()
        port = main.server_address[1]
        try:
            result = _run_phases(
                port, coalesce.server_address[1], overload.server_address[1],
                quota.server_address[1],
                registry, names, app, data_features,
                n_tenants=n_tenants, n_requests=n_requests, threads=threads,
                n_candidates=n_candidates, seed=seed, budget=budget,
                checkpoints=checkpoints, audit_path=audit_path,
            )
        finally:
            for server in servers:
                server.shutdown()
                server.server_close()
            for service in services:
                service.close()

    result.update(smoke=smoke, n_tenants=n_tenants, budget=budget)
    result["ok"] = all(result["checks"].values())
    if out is not None:
        path = write_bench_report(
            out, "service", result,
            config={
                "n_tenants": n_tenants, "n_requests": n_requests,
                "threads": threads, "n_candidates": n_candidates,
                "smoke": smoke, "seed": seed,
            },
        )
        result["out"] = str(path)
    return result


def _app_features(app: str) -> np.ndarray:
    from ..workloads import get_workload

    return get_workload(app).data_spec("test").features()


def _run_phases(
    port: int,
    coalesce_port: int,
    overload_port: int,
    quota_port: int,
    registry: ModelRegistry,
    names: List[str],
    app: str,
    data_features: List[float],
    n_tenants: int,
    n_requests: int,
    threads: int,
    n_candidates: int,
    seed: int,
    budget: Dict[str, float],
    checkpoints: Dict[str, Path],
    audit_path: Path,
) -> Dict[str, object]:
    serving = names[:n_tenants]
    overflow = names[n_tenants]
    checks: Dict[str, bool] = {}

    # -- phase 1: endpoints + error path --------------------------------
    status, body, _ = _request(port, "GET", "/v1/health")
    checks["health_ok"] = status == 200 and body.get("status") == "ok"
    status, body, _ = _request(port, "GET", "/v1/stats")
    checks["stats_ok"] = status == 200 and "metrics" in body
    status, body, _ = _request(port, "POST", "/v1/recommend", raw_body=b"{not json")
    checks["malformed_json_rejected"] = status == 400

    # -- phase 2: interleaved seeded recommends, bit-identical ----------
    def seeded_recommend(tenant: str, rng_seed: int):
        return _request(port, "POST", "/v1/recommend", {
            "tenant": tenant, "app": app, "data_features": data_features,
            "n_candidates": n_candidates, "seed": rng_seed,
        })

    probes = [
        (tenant, seed + 100 + k)
        for tenant in serving
        for k in range(2 if budget is SMOKE_BUDGET else 5)
    ]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        served = list(pool.map(lambda tk: seeded_recommend(*tk), probes))
    from ..sparksim.cluster import get_cluster

    cluster = get_cluster("C")
    identical = all(s == 200 for s, _, _ in served)
    for (tenant, rng_seed), (status, body, _) in zip(probes, served):
        if status != 200:
            identical = False
            break
        pristine = load_lite(checkpoints[tenant])
        rec = pristine.recommend(
            app, np.asarray(data_features), cluster,
            n_candidates=n_candidates, rng=get_rng(rng_seed),
        )
        expected = json.loads(json.dumps(
            [[conf.as_dict(), t] for conf, t in rec.ranking]
        ))
        if expected != body["ranking"]:
            identical = False
            break
    checks["rankings_bit_identical"] = identical

    # -- phase 3: sustained concurrent throughput -----------------------
    latencies: List[float] = []
    lat_lock = threading.Lock()

    def timed_request(i: int) -> int:
        tenant = serving[i % len(serving)]
        t0 = time.perf_counter()
        status, _, _ = _request(port, "POST", "/v1/recommend", {
            "tenant": tenant, "app": app, "data_features": data_features,
            "n_candidates": n_candidates, "seed": seed + 1000 + i,
        })
        elapsed = time.perf_counter() - t0
        with lat_lock:
            latencies.append(elapsed)
        return status

    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=threads) as pool:
        statuses = list(pool.map(timed_request, range(n_requests)))
    elapsed = time.perf_counter() - t0
    throughput = n_requests / elapsed if elapsed > 0 else float("inf")
    latency = _percentiles_ms(latencies)
    checks["load_all_succeeded"] = all(s == 200 for s in statuses)
    checks["throughput_floor"] = throughput >= budget["throughput_min_rps"]
    checks["p99_bounded"] = latency["p99_ms"] / 1e3 <= budget["p99_max_s"]

    # -- phase 4: micro-batch coalescing --------------------------------
    batches_before = _counter_value(obsn.CTR_SERVE_BATCHES)
    burst = max(threads * 2, 8)
    barrier = threading.Barrier(burst)

    def burst_request(i: int) -> int:
        barrier.wait(timeout=30)
        status, _, _ = _request(coalesce_port, "POST", "/v1/recommend", {
            "tenant": serving[0], "app": app, "data_features": data_features,
            "n_candidates": n_candidates, "seed": seed + 2000 + i,
        })
        return status

    with ThreadPoolExecutor(max_workers=burst) as pool:
        burst_statuses = list(pool.map(burst_request, range(burst)))
    coalesced = _counter_value(obsn.CTR_SERVE_COALESCED)
    batches_after = _counter_value(obsn.CTR_SERVE_BATCHES)
    checks["burst_all_succeeded"] = all(s == 200 for s in burst_statuses)
    checks["coalesced"] = coalesced > 0 and (batches_after - batches_before) < burst

    # -- phase 5: feedback over HTTP ------------------------------------
    status, body, _ = _request(port, "POST", "/v1/feedback", {
        "tenant": serving[0], "app": app, "scale": "train0",
        "conf": {}, "seed": seed,
    })
    checks["feedback_ok"] = status == 200 and body.get("run_success") is True

    # -- phase 6: LRU eviction then lazy reload -------------------------
    status, _, _ = _request(port, "POST", "/v1/recommend", {
        "tenant": overflow, "app": app, "data_features": data_features,
        "n_candidates": n_candidates, "seed": seed,
    })
    evictions = _counter_value(obsn.CTR_SERVE_EVICTIONS)
    checks["eviction"] = (
        status == 200
        and evictions >= 1
        and len(registry.loaded_tenants()) <= n_tenants
    )
    # The evicted tenant must still answer (lazy reload from checkpoint).
    status, _, _ = _request(port, "POST", "/v1/recommend", {
        "tenant": serving[0], "app": app, "data_features": data_features,
        "n_candidates": n_candidates, "seed": seed,
    })
    checks["evicted_tenant_reloads"] = status == 200

    # -- phase 7: overload shedding -------------------------------------
    shed_burst = max(threads * 2, 8)
    shed_barrier = threading.Barrier(shed_burst)
    retry_after_seen = []

    def shed_request(i: int) -> int:
        shed_barrier.wait(timeout=30)
        status, _, headers = _request(overload_port, "POST", "/v1/recommend", {
            "tenant": serving[0], "app": app, "data_features": data_features,
            "n_candidates": n_candidates, "seed": seed + 3000 + i,
        })
        if status == 503 and "Retry-After" in headers:
            retry_after_seen.append(headers["Retry-After"])
        return status

    with ThreadPoolExecutor(max_workers=shed_burst) as pool:
        shed_statuses = list(pool.map(shed_request, range(shed_burst)))
    rejections = sum(1 for s in shed_statuses if s == 503)
    checks["overload_rejected"] = rejections >= 1
    checks["retry_after_present"] = len(retry_after_seen) == rejections

    # -- phase 8: per-tenant quota enforcement --------------------------
    # Sequential on purpose: with burst=2 and a ~zero refill rate, the
    # 3rd+ request from the greedy tenant must be 429, deterministically.
    quota_statuses: List[int] = []
    quota_retry_after: List[str] = []
    for i in range(4):
        status, _, headers = _request(quota_port, "POST", "/v1/recommend", {
            "tenant": serving[0], "app": app, "data_features": data_features,
            "n_candidates": n_candidates, "seed": seed + 4000 + i,
        })
        quota_statuses.append(status)
        if status == 429 and "Retry-After" in headers:
            quota_retry_after.append(headers["Retry-After"])
    quota_rejections = sum(1 for s in quota_statuses if s == 429)
    checks["quota_allows_burst"] = quota_statuses[:2] == [200, 200]
    checks["quota_rejects_429"] = quota_statuses[2:] == [429, 429]
    checks["quota_retry_after_present"] = len(quota_retry_after) == quota_rejections
    # The greedy tenant's exhaustion must not brake a quiet sibling.
    status, _, _ = _request(quota_port, "POST", "/v1/recommend", {
        "tenant": serving[-1], "app": app, "data_features": data_features,
        "n_candidates": n_candidates, "seed": seed + 4100,
    })
    checks["quota_isolates_tenants"] = len(serving) < 2 or status == 200

    # -- phase 9 (part 1): end-to-end trace sample, captured with tracing
    # forced on so the report can embed a stitched span tree for CI.
    trace_probe_id = f"bench{seed:04x}trace00"[:16]
    tracing_was_on = obs.tracing_enabled()
    obs.enable_tracing()
    try:
        status, body, resp_headers = _request(
            port, "POST", "/v1/recommend", {
                "tenant": serving[0], "app": app,
                "data_features": data_features,
                "n_candidates": n_candidates, "seed": seed + 5000,
            },
            headers={obs.TRACE_HEADER: trace_probe_id},
        )
    finally:
        if not tracing_was_on:
            obs.disable_tracing()
    trace_spans = [
        rec.to_dict()
        for rec in obs.get_tracer().records()
        if rec.trace_id == trace_probe_id
    ]
    checks["trace_header_roundtrip"] = (
        status == 200
        and resp_headers.get(obs.TRACE_HEADER) == trace_probe_id
        and body.get("trace_id") == trace_probe_id
    )
    # At minimum the request span and the batch-run span share the id.
    span_names = {sp["name"] for sp in trace_spans}
    checks["trace_spans_stitched"] = (
        obsn.SPAN_SERVE_REQUEST in span_names
        and obsn.SPAN_SERVE_BATCH_RUN in span_names
    )

    # -- phase 8: SLO burn rates ----------------------------------------
    # Healthy server first: no 5xx has ever hit `main`, so availability
    # must be quiet.  (The latency SLO may legitimately burn on a slow CI
    # runner — report it, but never gate on it.)
    status, body, _ = _request(port, "GET", "/v1/stats")
    slo = body.get("slo", {}) if status == 200 else {}
    slo_names = set(slo.get("slos", {}))
    checks["slo_reported"] = {"availability", "recommend_latency"} <= slo_names
    checks["slo_healthy_on_main"] = "availability" not in slo.get("alerting", [])

    # Overload server: fire a FRESH shed burst immediately before reading
    # its stats, so the short burn window deterministically contains bad
    # events no matter how long the earlier phases took.
    slo_burst = max(threads * 2, 8)
    slo_barrier = threading.Barrier(slo_burst)

    def slo_shed_request(i: int) -> int:
        slo_barrier.wait(timeout=30)
        status, _, _ = _request(overload_port, "POST", "/v1/recommend", {
            "tenant": serving[0], "app": app, "data_features": data_features,
            "n_candidates": n_candidates, "seed": seed + 6000 + i,
        })
        return status

    with ThreadPoolExecutor(max_workers=slo_burst) as pool:
        slo_statuses = list(pool.map(slo_shed_request, range(slo_burst)))
    status, body, _ = _request(overload_port, "GET", "/v1/stats")
    overload_slo = body.get("slo", {}) if status == 200 else {}
    checks["slo_alert_fires_under_overload"] = (
        sum(1 for s in slo_statuses if s == 503) >= 1
        and "availability" in overload_slo.get("alerting", [])
    )

    # -- phase 9 (part 2): metrics exposition + audit log ---------------
    status, prom_text, prom_headers = _request_text(port, "GET", "/v1/metrics")
    checks["metrics_exposition_valid"] = (
        status == 200
        and prom_headers.get("Content-Type", "").startswith("text/plain")
        and _valid_exposition(prom_text)
    )
    checks["metrics_tenant_labels"] = any(
        line.startswith("repro_serve_requests_total{")
        and f'tenant="{serving[0]}"' in line
        for line in prom_text.splitlines()
    )

    audit_ok = False
    audit_records = 0
    required_fields = {
        "ts", "trace_id", "route", "method", "status", "latency_ms",
        "tenant", "decision",
    }
    if audit_path.exists():
        lines = [
            json.loads(line)
            for line in audit_path.read_text().splitlines()
            if line.strip()
        ]
        audit_records = len(lines)
        audit_ok = (
            audit_records >= n_requests
            and all(required_fields <= set(rec) for rec in lines)
            and any(rec["trace_id"] == trace_probe_id for rec in lines)
        )
    checks["audit_log_complete"] = audit_ok

    counters = {
        name: _counter_value(name)
        for name in (
            obsn.CTR_SERVE_REQUESTS, obsn.CTR_SERVE_ERRORS,
            obsn.CTR_SERVE_OVERLOAD, obsn.CTR_SERVE_EVICTIONS,
            obsn.CTR_SERVE_MODEL_LOADS, obsn.CTR_SERVE_BATCHES,
            obsn.CTR_SERVE_COALESCED, obsn.CTR_SERVE_QUOTA_ALLOWED,
            obsn.CTR_SERVE_QUOTA_REJECTED, obsn.CTR_SERVE_AUDIT_RECORDS,
        )
    }
    return {
        "app": app,
        "n_requests": n_requests,
        "threads": threads,
        "n_candidates": n_candidates,
        "throughput_rps": throughput,
        "latency": latency,
        "overload": {
            "burst": shed_burst, "rejections": rejections,
            "retry_after": retry_after_seen[:1],
        },
        "quota": {
            "statuses": quota_statuses,
            "rejections": quota_rejections,
            "retry_after": quota_retry_after[:1],
        },
        "slo": {"main": slo, "overload": overload_slo},
        "audit_records": audit_records,
        # CI artifacts: a real exposition page and a stitched span tree.
        "prometheus_sample": prom_text,
        "trace_sample": {"trace_id": trace_probe_id, "spans": trace_spans},
        "counters": counters,
        "checks": checks,
    }
