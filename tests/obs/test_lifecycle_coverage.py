"""Name coverage: every canonical span/counter/gauge name actually fires.

Runs the chaos harness from ``repro.experiments.chaos`` — the superset
lifecycle: train/serve/feedback/update *plus* fault injection and retry —
once with tracing enabled and checks the result against the full taxonomy
in :mod:`repro.obs.names`.  A new instrumentation site whose name is
added to the taxonomy but never wired up (or vice versa) fails here, not
in production.  The ``serve.*``/``slo.*`` names fire in a traced
scenario on an in-process daemon instead (:func:`_service_scenario`).
The fault-free lifecycle keeps its own fixture for the ``repro stats``
semantics, which assert exact trigger counts chaos deliberately exceeds.
"""

from __future__ import annotations

import json
import re
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import obs
from repro.obs import names as obsn
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def lifecycle():
    """One traced lifecycle; captures global obs state before it is reset.

    The per-test autouse reset wipes the registry between tests, so every
    assertion runs against this captured copy, not live globals.
    """
    from repro.experiments.lifecycle import run_lifecycle

    obs.reset()
    obs.enable_tracing()
    try:
        summary = run_lifecycle(smoke=True, seed=0)
    finally:
        obs.disable_tracing()
    captured = {
        "summary": summary,
        "snapshot": obs.metrics_snapshot(),
        "span_names": {r.name for r in obs.get_tracer().records()},
    }
    obs.reset()
    return captured


@pytest.fixture(scope="module")
def chaos():
    """One traced chaos run — fires every *library* (non-serving) name."""
    from repro.experiments.chaos import run_chaos

    obs.reset()
    obs.enable_tracing()
    try:
        summary = run_chaos(smoke=True, seed=0)
    finally:
        obs.disable_tracing()
    captured = {
        "summary": summary,
        "snapshot": obs.metrics_snapshot(),
        "span_names": {r.name for r in obs.get_tracer().records()},
    }
    obs.reset()
    return captured


def _post(port, path, payload):
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=json.dumps(payload).encode(),
        method="POST", headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status
    except urllib.error.HTTPError as err:
        return err.code


def _get(port, path):
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=60) as resp:
        return resp.status, resp.read().decode()


#: One sample line of Prometheus text exposition.
_PROM_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [+-]?(Inf|NaN|[0-9.eE+-]+)$"
)


def _service_scenario(root):
    """Drive an in-process daemon through every ``serve.*`` / ``slo.*`` site.

    Two checkpoint tenants behind a one-tenant registry (so switching
    tenant evicts), an audit log, quotas on, and four in-flight slots.
    A coalesced burst is made deterministic by marking the batch key as
    running, so four recommends queue into one open batch; with all four
    slots held, a fifth request is shed with 503, which must put the
    availability SLO into alerting.  Returns the outcome of every step
    under ``checks``.
    """
    from repro.core.persistence import save_lite
    from repro.experiments.serving_bench import build_serving_lite
    from repro.serve import LiteService, ModelRegistry, ServiceConfig, make_server

    tenants = {
        name: save_lite(build_serving_lite(smoke=True, seed=seed), root / f"{name}.pkl")
        for name, seed in (("acme", 0), ("globex", 1))
    }
    burst, quota_burst = 4, 8
    service = LiteService(ModelRegistry(tenants, max_tenants=1), ServiceConfig(
        max_inflight=burst, quota_rps=1e-3, quota_burst=quota_burst,
        audit_log=str(root / "audit.jsonl")))
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    port = server.server_address[1]
    feats = get_workload("PageRank").data_spec("valid").features().tolist()

    def recommend(tenant, seed):
        return _post(port, "/v1/recommend", {
            "tenant": tenant, "app": "PageRank", "data_features": feats,
            "n_candidates": 6, "seed": seed})

    checks = {}
    try:
        checks["health"] = _get(port, "/v1/health")[0] == 200
        checks["recommend"] = recommend("acme", 0) == 200
        checks["feedback"] = _post(port, "/v1/feedback", {
            "tenant": "acme", "app": "PageRank", "scale": "train0"}) == 200

        batcher, key = service.batcher, ("acme", "PageRank", "C")
        with batcher._lock:
            batcher._running.add(key)
        with ThreadPoolExecutor(max_workers=burst) as pool:
            try:
                futures = [pool.submit(recommend, "acme", 10 + i) for i in range(burst)]
                queued = threading.Event()   # never set: wait() is a bounded pause
                for _ in range(3000):
                    with batcher._lock:
                        open_batch = batcher._open.get(key)
                        if open_batch is not None and len(open_batch.items) == burst:
                            break
                    queued.wait(0.01)
                checks["overload_shed"] = recommend("acme", 20) == 503
            finally:
                with batcher._lock:
                    batcher._running.discard(key)
                    batcher._lock.notify_all()
            checks["coalesced_burst"] = all(f.result() == 200 for f in futures)

        checks["eviction"] = recommend("globex", 0) == 200
        statuses = [recommend("globex", 30 + i) for i in range(quota_burst)]
        checks["quota_429"] = 429 in statuses
        status, text = _get(port, "/v1/stats")
        checks["stats"] = status == 200
        checks["slo_alert_after_shed"] = (
            "availability" in json.loads(text)["slo"]["alerting"])
        status, text = _get(port, "/v1/metrics")
        samples = [l for l in text.splitlines() if l and not l.startswith("#")]
        checks["metrics_exposition_valid"] = status == 200 and bool(samples) and all(
            _PROM_SAMPLE.match(line) for line in samples)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        service.close()
    return {"checks": checks, "ok": all(checks.values())}


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    """One traced daemon scenario — fires every ``serve.*``/``slo.*`` name."""
    root = tmp_path_factory.mktemp("service-coverage")
    obs.reset()
    obs.enable_tracing()
    try:
        summary = _service_scenario(root)
    finally:
        obs.disable_tracing()
    captured = {
        "summary": summary,
        "snapshot": obs.metrics_snapshot(),
        "span_names": {r.name for r in obs.get_tracer().records()},
    }
    obs.reset()
    return captured


#: Two-way partition of the taxonomy by firing harness: the serving
#: daemon's (and its SLO monitor's) names fire in the service scenario,
#: everything else in the chaos lifecycle.  The union covers the taxonomy.
def _bucket(name: str) -> str:
    if name.startswith(("serve.", "slo.")):
        return "service"
    return "library"


def _names_for(names, bucket: str):
    return {n for n in names if _bucket(n) == bucket}


class TestNameCoverage:
    def test_every_span_name_fires(self, chaos):
        library_spans = _names_for(obsn.ALL_SPANS, "library")
        missing = library_spans - chaos["span_names"]
        assert not missing, f"spans never entered: {sorted(missing)}"

    def test_every_span_feeds_a_duration_histogram(self, chaos):
        snap = chaos["snapshot"]
        for name in _names_for(obsn.ALL_SPANS, "library"):
            key = f"span.{name}.duration_s"
            assert key in snap, key
            assert snap[key]["count"] > 0, key

    def test_every_counter_is_nonzero(self, chaos):
        snap = chaos["snapshot"]
        for name in _names_for(obsn.ALL_COUNTERS, "library"):
            assert name in snap, name
            assert snap[name]["value"] > 0, name

    def test_every_gauge_is_set(self, chaos):
        snap = chaos["snapshot"]
        for name in _names_for(obsn.ALL_GAUGES, "library"):
            assert name in snap, name

    def test_fit_epoch_histogram_populated(self, chaos):
        snap = chaos["snapshot"]
        for name in _names_for(obsn.ALL_HISTOGRAMS, "library"):
            assert snap[name]["count"] > 0, name

    def test_chaos_survives_and_reports(self, chaos):
        assert chaos["summary"]["ok"]
        assert all(chaos["summary"]["checks"].values())


class TestServiceNameCoverage:
    """The ``serve.*``/``slo.*`` slice of the taxonomy, over real HTTP."""

    def test_every_serve_span_fires_and_feeds_histograms(self, service):
        serve_spans = _names_for(obsn.ALL_SPANS, "service")
        assert serve_spans, "serve spans missing from the taxonomy"
        missing = serve_spans - service["span_names"]
        assert not missing, f"spans never entered: {sorted(missing)}"
        snap = service["snapshot"]
        for name in serve_spans:
            key = f"span.{name}.duration_s"
            assert key in snap and snap[key]["count"] > 0, key

    def test_every_serve_counter_is_nonzero(self, service):
        snap = service["snapshot"]
        serve_counters = _names_for(obsn.ALL_COUNTERS, "service")
        assert serve_counters, "serve counters missing from the taxonomy"
        for name in serve_counters:
            assert name in snap, name
            assert snap[name]["value"] > 0, name

    def test_every_serve_gauge_is_set(self, service):
        snap = service["snapshot"]
        serve_gauges = _names_for(obsn.ALL_GAUGES, "service")
        assert serve_gauges, "serve gauges missing from the taxonomy"
        for name in serve_gauges:
            assert name in snap, name

    def test_every_serve_histogram_populated(self, service):
        snap = service["snapshot"]
        serve_hists = _names_for(obsn.ALL_HISTOGRAMS, "service")
        assert serve_hists, "serve histograms missing from the taxonomy"
        for name in serve_hists:
            assert name in snap and snap[name]["count"] > 0, name

    def test_benchmark_passes_its_own_gates(self, service):
        # Every scenario step answered the status it was built to provoke.
        assert service["summary"]["ok"], service["summary"]["checks"]


class TestLifecycleSemantics:
    """The acceptance-criteria numbers ``repro stats`` must report."""

    def test_cache_state_machine(self, lifecycle):
        recs = lifecycle["summary"]["recommendations"]
        assert recs["cold"]["cache_hit"] is False
        assert recs["cold"]["encode_overhead_s"] > 0
        assert recs["warm"]["cache_hit"] is True
        # The adaptive update bumps the estimator version.
        assert recs["post_update"]["cache_hit"] is False
        snap = lifecycle["snapshot"]
        assert snap[obsn.CTR_CACHE_HIT]["value"] >= 1
        assert snap[obsn.CTR_CACHE_MISS]["value"] >= 2
        assert snap[obsn.CTR_CACHE_INVALIDATION]["value"] >= 1

    def test_probe_overhead_carried_once(self, lifecycle):
        recs = lifecycle["summary"]["recommendations"]
        assert recs["probed"]["probe_overhead_s"] > 0

    def test_dedup_ratio_reported(self, lifecycle):
        ratio = lifecycle["snapshot"][obsn.GAUGE_DEDUP_RATIO]["value"]
        assert 0 < ratio < 1

    def test_update_triggered_and_counted(self, lifecycle):
        assert lifecycle["summary"]["adaptive_update_triggered"]
        assert lifecycle["snapshot"][obsn.CTR_UPDATES_TRIGGERED]["value"] == 1

    def test_drift_window_populated(self, lifecycle):
        drift = lifecycle["summary"]["drift"]
        assert drift["n"] > 0
        assert drift["wilcoxon_p"] <= 1.0
        assert lifecycle["snapshot"][obsn.GAUGE_DRIFT_N]["value"] == drift["n"]

    def test_failure_paths_exercised(self, lifecycle):
        snap = lifecycle["snapshot"]
        assert snap[obsn.CTR_SIM_FAILURES]["value"] >= 1
        assert snap[obsn.CTR_FEEDBACK_FAILED]["value"] >= 1
