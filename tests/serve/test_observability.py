"""Daemon observability surface: trace ids, /v1/metrics, audit log, SLOs.

Everything here runs over real sockets against a ThreadingHTTPServer —
the claims under test (header round-trips, one trace id spanning the
HTTP handler and the batch leader, audit records per request) are
transport-level claims.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.obs import names as obsn
from repro.obs.context import TRACE_HEADER
from repro.serve import LiteService, ModelRegistry, ServiceConfig, make_server
from repro.workloads import get_workload

APP = "PageRank"


@pytest.fixture(autouse=True)
def _fresh_obs_state():
    """Exact-count assertions need pristine global metrics per test."""
    obs.reset()
    yield
    obs.reset()


@pytest.fixture()
def service(tenant_checkpoints, tmp_path):
    reg = ModelRegistry(tenant_checkpoints)
    svc = LiteService(reg, ServiceConfig(
        batch_window_s=0.0, audit_log=str(tmp_path / "audit.jsonl"),
    ))
    yield svc
    svc.close()


@pytest.fixture()
def server(service):
    srv = make_server(service)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=5)


def _request(server, method, path, payload=None, headers=None, raw=False):
    """Returns (status, body, response headers); body parsed unless raw."""
    port = server.server_address[1]
    url = f"http://127.0.0.1:{port}{path}"
    data = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(url, data=data, method=method,
                                 headers=dict(headers or {}))
    if data is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            body = resp.read().decode()
            return resp.status, (body if raw else json.loads(body)), dict(resp.headers)
    except urllib.error.HTTPError as err:
        body = err.read().decode()
        return err.code, (body if raw else json.loads(body)), dict(err.headers)


def _recommend_payload(**over):
    base = {
        "tenant": "acme",
        "app": APP,
        "data_features": get_workload(APP).data_spec("valid").features().tolist(),
        "n_candidates": 4,
        "seed": 17,
    }
    base.update(over)
    return base


class TestTraceHeader:
    def test_client_id_round_trips(self, server):
        status, body, headers = _request(
            server, "POST", "/v1/recommend", _recommend_payload(),
            headers={TRACE_HEADER: "client-id-001"},
        )
        assert status == 200
        assert headers[TRACE_HEADER] == "client-id-001"
        assert body["trace_id"] == "client-id-001"

    def test_server_mints_when_absent(self, server):
        status, body, headers = _request(server, "GET", "/v1/health")
        assert status == 200
        minted = headers[TRACE_HEADER]
        assert len(minted) == 16
        assert body["trace_id"] == minted

    def test_malformed_client_id_replaced(self, server):
        _, body, headers = _request(
            server, "GET", "/v1/health",
            headers={TRACE_HEADER: "has spaces!"},
        )
        assert headers[TRACE_HEADER] != "has spaces!"
        assert body["trace_id"] == headers[TRACE_HEADER]

    def test_error_responses_carry_trace_id(self, server):
        status, body, headers = _request(
            server, "POST", "/v1/recommend",
            _recommend_payload(tenant="nobody"),
            headers={TRACE_HEADER: "client-id-404"},
        )
        assert status == 404
        assert headers[TRACE_HEADER] == "client-id-404"
        assert body["trace_id"] == "client-id-404"
        assert "error" in body

    def test_distinct_requests_distinct_ids(self, server):
        ids = {
            _request(server, "GET", "/v1/health")[2][TRACE_HEADER]
            for _ in range(5)
        }
        assert len(ids) == 5


class TestEndToEndTrace:
    def test_one_trace_id_spans_handler_and_batch_leader(self, server):
        obs.enable_tracing()
        try:
            status, _, _ = _request(
                server, "POST", "/v1/recommend", _recommend_payload(),
                headers={TRACE_HEADER: "e2e-trace-0001"},
            )
        finally:
            obs.disable_tracing()
        assert status == 200
        spans = [
            r for r in obs.get_tracer().records()
            if r.trace_id == "e2e-trace-0001"
        ]
        names = {s.name for s in spans}
        assert obsn.SPAN_SERVE_REQUEST in names
        assert obsn.SPAN_SERVE_BATCH_RUN in names
        assert obsn.SPAN_SERVE_RECOMMEND in names
        # Every span of the request carries the request's id — and the
        # request span is the root.
        (root,) = [s for s in spans if s.name == obsn.SPAN_SERVE_REQUEST]
        assert root.parent_id is None
        for span in spans:
            if span is not root:
                assert span.parent_id is not None

    def test_trace_reaches_adaptive_update(self, tenant_checkpoints):
        """The full chain: HTTP handler -> feedback -> adaptive update of
        NECS, one trace id throughout."""
        ckpt = {"acme": tenant_checkpoints["acme"]}
        svc = LiteService(ModelRegistry(ckpt), ServiceConfig(batch_window_s=0.0))
        srv = make_server(svc)
        threading.Thread(target=srv.serve_forever, daemon=True).start()
        obs.enable_tracing()
        try:
            status, body, _ = _request(
                srv, "POST", "/v1/feedback",
                {"tenant": "acme", "app": APP, "scale": "train0",
                 "conf": {}, "seed": 3, "update_now": True},
                headers={TRACE_HEADER: "e2e-trace-0002"},
            )
        finally:
            obs.disable_tracing()
            srv.shutdown()
            srv.server_close()
            svc.close()
        assert status == 200
        assert body["updated"] is True
        spans = [
            r for r in obs.get_tracer().records()
            if r.trace_id == "e2e-trace-0002"
        ]
        names = {s.name for s in spans}
        assert obsn.SPAN_SERVE_REQUEST in names
        assert obsn.SPAN_SERVE_FEEDBACK in names
        assert obsn.SPAN_NECS_UPDATE in names


class TestMetricsEndpoint:
    def test_prometheus_exposition(self, server):
        _request(server, "POST", "/v1/recommend", _recommend_payload())
        status, text, headers = _request(server, "GET", "/v1/metrics", raw=True)
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert headers[TRACE_HEADER]
        assert 'repro_serve_requests_total{tenant="acme"} ' in text
        assert "# TYPE repro_serve_requests_total counter" in text

    def test_latency_histogram_labeled_by_route(self, server):
        _request(server, "POST", "/v1/recommend", _recommend_payload())
        _, text, _ = _request(server, "GET", "/v1/metrics", raw=True)
        assert 'route="recommend"' in text
        assert 'tenant="acme"' in text


class TestPerTenantSeries:
    def test_errors_and_requests_labeled(self, server):
        _request(server, "POST", "/v1/recommend", _recommend_payload())
        _request(server, "POST", "/v1/recommend",
                 _recommend_payload(tenant="nobody"))
        snap = obs.metrics_snapshot()
        assert snap[f'{obsn.CTR_SERVE_REQUESTS}{{tenant="acme"}}']["value"] == 1
        assert snap[f'{obsn.CTR_SERVE_REQUESTS}{{tenant="nobody"}}']["value"] == 1
        assert snap[f'{obsn.CTR_SERVE_ERRORS}{{tenant="nobody"}}']["value"] == 1
        # The unlabeled base stays the all-tenants aggregate.
        assert snap[obsn.CTR_SERVE_REQUESTS]["value"] == 2

    def test_request_without_tenant_lands_on_sentinel(self, server):
        _request(server, "GET", "/v1/health")
        snap = obs.metrics_snapshot()
        key = f'{obsn.CTR_SERVE_REQUESTS}{{tenant="__none__"}}'
        assert snap[key]["value"] == 1


class TestAuditLog:
    def test_one_record_per_request_with_required_fields(
            self, server, service):
        _request(server, "POST", "/v1/recommend", _recommend_payload(),
                 headers={TRACE_HEADER: "audit-trace-01"})
        _request(server, "POST", "/v1/recommend",
                 _recommend_payload(tenant="nobody"))
        _request(server, "GET", "/v1/health")
        path = service.config.audit_log
        records = [json.loads(line) for line in open(path)]
        assert len(records) == 3
        for rec in records:
            for field in ("ts", "trace_id", "route", "method", "status",
                          "latency_ms", "tenant", "decision"):
                assert field in rec, field
        ok = records[0]
        assert ok["trace_id"] == "audit-trace-01"
        assert ok["route"] == "recommend"
        assert ok["status"] == 200
        assert ok["decision"] == "ok"
        assert ok["tenant"] == "acme"
        assert ok["batch_size"] == 1
        assert ok["coalesced"] is False
        assert records[1]["status"] == 404
        assert records[1]["decision"] == "unknown_tenant"
        assert records[2]["route"] == "health"

    def test_audit_counter_tracks_records(self, server, service):
        _request(server, "GET", "/v1/health")
        snap = obs.metrics_snapshot()
        assert snap[obsn.CTR_SERVE_AUDIT_RECORDS]["value"] == 1

    def test_no_audit_without_config(self, tenant_checkpoints):
        svc = LiteService(ModelRegistry(tenant_checkpoints),
                          ServiceConfig(batch_window_s=0.0))
        assert svc.audit is None
        svc.close()   # close is safe without an audit handle


class TestSLOSurface:
    def test_stats_reports_objectives(self, server):
        _request(server, "POST", "/v1/recommend", _recommend_payload())
        status, body, _ = _request(server, "GET", "/v1/stats")
        assert status == 200
        slo = body["slo"]
        assert set(slo["slos"]) == {"availability", "recommend_latency"}
        avail = slo["slos"]["availability"]
        assert avail["good_total"] >= 1
        assert avail["bad_total"] == 0
        assert slo["alerting"] == []
        # The evaluation published its gauges into the same snapshot.
        assert obsn.GAUGE_SLO_WORST_BURN in body["metrics"]

    def test_client_errors_do_not_burn_availability(self, server, service):
        _request(server, "POST", "/v1/recommend",
                 _recommend_payload(tenant="nobody"))
        snap = service.slo.snapshot()
        assert snap["slos"]["availability"]["bad_total"] == 0

    def test_health_and_stats_are_not_slo_events(self, server, service):
        _request(server, "GET", "/v1/health")
        _request(server, "GET", "/v1/stats")
        snap = service.slo.snapshot()
        assert snap["slos"]["availability"]["good_total"] == 0
