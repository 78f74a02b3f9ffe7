"""End-to-end HTTP tests: real ThreadingHTTPServer, real sockets."""

import http.client
import json
import statistics
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.lite import RecommendQuery
from repro.core.persistence import load_lite
from repro.serve import LiteService, ModelRegistry, ServiceConfig, make_server
from repro.sparksim import CLUSTER_C
from repro.sparksim.cluster import CLUSTERS, ClusterSpec
from repro.sparksim.costmodel import hostable_mask
from repro.utils.rng import get_rng
from repro.workloads import get_workload

APP = "PageRank"


@pytest.fixture()
def server(tenant_checkpoints):
    reg = ModelRegistry(tenant_checkpoints)
    service = LiteService(reg)
    srv = make_server(service)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=5)


def _request(server, method, path, payload=None, raw_body=None):
    """Returns (status, parsed body, headers)."""
    port = server.server_address[1]
    url = f"http://127.0.0.1:{port}{path}"
    data = raw_body if raw_body is not None else (
        json.dumps(payload).encode() if payload is not None else None
    )
    req = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read().decode()), dict(resp.headers)
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read().decode()), dict(err.headers)


def _recommend_payload(**over):
    base = {
        "tenant": "acme",
        "app": APP,
        "data_features": get_workload(APP).data_spec("valid").features().tolist(),
        "n_candidates": 5,
        "seed": 17,
    }
    base.update(over)
    return base


class TestEndpoints:
    def test_health(self, server):
        status, body, _ = _request(server, "GET", "/v1/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["tenants"] == ["acme", "globex"]

    def test_recommend_matches_direct_library_call(
            self, server, tenant_checkpoints):
        status, body, _ = _request(
            server, "POST", "/v1/recommend", _recommend_payload())
        assert status == 200
        # Bit-identical to a direct call on a fresh copy of the same
        # checkpoint with the same seed, through the same JSON encoding.
        direct = load_lite(tenant_checkpoints["acme"]).recommend(
            APP, np.asarray(_recommend_payload()["data_features"]),
            CLUSTER_C, n_candidates=5, rng=get_rng(17),
        )
        direct_json = json.loads(json.dumps(
            {"conf": direct.conf.as_dict(),
             "ranking": [[c.as_dict(), t] for c, t in direct.ranking]}))
        assert body["conf"] == direct_json["conf"]
        assert body["ranking"] == direct_json["ranking"]

    def test_feedback_roundtrip(self, server):
        status, rec, _ = _request(
            server, "POST", "/v1/recommend", _recommend_payload())
        assert status == 200
        status, body, _ = _request(server, "POST", "/v1/feedback", {
            "tenant": "acme", "app": APP, "conf": rec["conf"], "scale": "train0",
        })
        assert status == 200
        assert body["run_success"] is True

    def test_stats(self, server):
        status, body, _ = _request(server, "GET", "/v1/stats")
        assert status == 200
        assert body["inflight"] == 0
        assert "registry" in body and "metrics" in body


#: The benchmark's undersized cluster: no learned ACG region fits on it.
TINY = ClusterSpec("tiny", num_nodes=1, cores_per_node=16, cpu_ghz=2.9,
                   memory_gb_per_node=4.0, memory_mts=2666.0, network_gbps=1.0)


class TestFallbackParity:
    def test_library_batch_and_daemon_agree_on_fallback(
            self, server, tenant_checkpoints, monkeypatch):
        """Seeded full-range fallback rankings are bit-identical on every path."""
        monkeypatch.setitem(CLUSTERS, TINY.name, TINY)
        seeds = (3, 4, 5)
        data = np.asarray(_recommend_payload()["data_features"])
        lite = load_lite(tenant_checkpoints["acme"])
        for seed in seeds:  # every query's ACG region is unhostable on TINY
            rows = lite.candidate_generator.generate(APP, data[0], 40, get_rng(seed))
            assert not hostable_mask(rows, TINY).any()

        def ranking(rec):
            return [[conf.as_dict(), t.hex()] for conf, t in rec.ranking]

        direct = [
            ranking(load_lite(tenant_checkpoints["acme"]).recommend(
                APP, data, TINY, n_candidates=40, rng=get_rng(seed)))
            for seed in seeds
        ]
        batch = [ranking(rec) for rec in lite.recommend_many(
            APP, [RecommendQuery(data, 40, get_rng(seed)) for seed in seeds], TINY)]
        http = []
        for seed in seeds:
            status, body, _ = _request(server, "POST", "/v1/recommend", _recommend_payload(
                cluster=TINY.name, n_candidates=40, seed=seed))
            assert status == 200, body
            http.append([[conf, float(t).hex()] for conf, t in body["ranking"]])
        assert direct == batch == http
        assert all(1 <= len(r) <= 40 for r in direct)


class TestKeepAlive:
    @pytest.mark.parametrize("path", ["/v1/health", "/v1/metrics"])
    def test_no_delayed_ack_stall(self, server, path):
        """Keep-alive requests on one connection answer without a ~40 ms stall.

        Headers and body leave in two writes; with Nagle on, the body
        waits for the client's delayed ACK of the headers.
        """
        conn = http.client.HTTPConnection("127.0.0.1", server.server_address[1],
                                          timeout=30)
        try:
            latencies = []
            for _ in range(10):
                t0 = time.perf_counter()
                conn.request("GET", path)
                resp = conn.getresponse()
                resp.read()
                latencies.append(time.perf_counter() - t0)
                assert resp.status == 200
        finally:
            conn.close()
        assert statistics.median(latencies) < 0.020, latencies


class TestErrorStatuses:
    def test_malformed_json_is_400(self, server):
        status, body, _ = _request(
            server, "POST", "/v1/recommend", raw_body=b"{not json!")
        assert status == 400
        assert "malformed JSON" in body["error"]

    def test_empty_body_is_400(self, server):
        status, body, _ = _request(server, "POST", "/v1/recommend", raw_body=b"")
        assert status == 400
        assert "empty request body" in body["error"]

    def test_non_object_body_is_400(self, server):
        status, body, _ = _request(
            server, "POST", "/v1/recommend", raw_body=b"[1, 2, 3]")
        assert status == 400
        assert "must be an object" in body["error"]

    def test_unknown_tenant_is_404(self, server):
        status, body, _ = _request(
            server, "POST", "/v1/recommend", _recommend_payload(tenant="nobody"))
        assert status == 404
        assert "unknown tenant" in body["error"]

    @pytest.mark.parametrize("bad", [
        {"seed": "abc"}, {"seed": [1]}, {"seed": -1},
        {"update_now": "false"}, {"update_now": 1}, {"update_now": None},
    ])
    def test_bad_feedback_fields_are_400(self, server, bad):
        status, _, _ = _request(server, "POST", "/v1/feedback", {
            "tenant": "acme", "app": APP, "scale": "train0"})
        assert status == 200
        service = server.RequestHandlerClass.service
        lite = service.registry.peek_loaded()["acme"]
        version = lite.estimator.version

        status, body, _ = _request(server, "POST", "/v1/feedback", {
            "tenant": "acme", "app": APP, "scale": "train0", **bad})
        assert status == 400, body
        assert next(iter(bad)) in body["error"]
        # A client error is not an outage, and a string "false" must not
        # read as a request for an adaptive update.
        assert service.slo.snapshot()["slos"]["availability"]["bad_total"] == 0
        assert lite.estimator.version == version

    def test_unknown_endpoint_is_404(self, server):
        status, body, _ = _request(server, "GET", "/v1/nope")
        assert status == 404

    def test_overload_is_503_with_retry_after(self, tenant_checkpoints):
        reg = ModelRegistry(tenant_checkpoints)
        # Zero slots: every data-path request is deterministically shed.
        service = LiteService(
            reg, ServiceConfig(max_inflight=0, retry_after_s=3))
        srv = make_server(service)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            status, body, headers = _request(
                srv, "POST", "/v1/recommend", _recommend_payload())
            assert status == 503
            assert "capacity" in body["error"]
            assert headers.get("Retry-After") == "3"
            # Health stays available under overload.
            status, body, _ = _request(srv, "GET", "/v1/health")
            assert status == 200
        finally:
            srv.shutdown()
            srv.server_close()
            thread.join(timeout=5)
