"""LiteService (transport-free): validation, status mapping, determinism."""

import numpy as np
import pytest

from repro.serve import LiteService, ModelRegistry, ServiceError
from repro.sparksim import CLUSTER_C
from repro.utils.rng import get_rng
from repro.workloads import get_workload

APP = "PageRank"


@pytest.fixture()
def service(tenant_lites):
    reg = ModelRegistry(max_tenants=4)
    for name, lite in tenant_lites.items():
        reg.register(name, lite)
    return LiteService(reg)


def _payload(**over):
    base = {
        "tenant": "acme",
        "app": APP,
        "data_features": get_workload(APP).data_spec("valid").features().tolist(),
        "n_candidates": 5,
        "seed": 7,
    }
    base.update(over)
    return base


def _status(excinfo):
    return excinfo.value.status


class TestRecommendValidation:
    def test_valid_request_answers(self, service):
        body = service.recommend(_payload())
        assert body["tenant"] == "acme" and body["app"] == APP
        assert len(body["ranking"]) == 5
        assert body["predicted_time_s"] > 0
        assert "spark.executor.cores" in body["conf"]

    def test_scalar_data_features_fail_cleanly(self, service):
        # A scalar is normalised (no bare IndexError); this model wants a
        # full feature vector, so the mismatch surfaces as a clean 400.
        with pytest.raises(ServiceError) as excinfo:
            service.recommend(_payload(data_features=2.0e9))
        assert _status(excinfo) == 400

    @pytest.mark.parametrize("bad", [
        None, [], ["not-a-number"], [[1.0, 2.0], [3.0, 4.0]],
        [float("inf")], [float("nan")],
    ])
    def test_bad_data_features_are_400(self, service, bad):
        with pytest.raises(ServiceError) as excinfo:
            service.recommend(_payload(data_features=bad))
        assert _status(excinfo) == 400

    @pytest.mark.parametrize("bad", [0, -1, "many", float("inf")])
    def test_bad_n_candidates_are_400(self, service, bad):
        with pytest.raises(ServiceError) as excinfo:
            service.recommend(_payload(n_candidates=bad))
        assert _status(excinfo) == 400

    @pytest.mark.parametrize("bad", [-1, "abc", [1], float("inf")])
    def test_bad_seed_is_400(self, service, bad):
        with pytest.raises(ServiceError) as excinfo:
            service.recommend(_payload(seed=bad))
        assert _status(excinfo) == 400

    @pytest.mark.parametrize("field", ["tenant", "app"])
    def test_missing_identity_fields_are_400(self, service, field):
        with pytest.raises(ServiceError) as excinfo:
            service.recommend(_payload(**{field: None}))
        assert _status(excinfo) == 400

    def test_unknown_cluster_is_400(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.recommend(_payload(cluster="Z9"))
        assert _status(excinfo) == 400

    def test_unknown_app_is_400_not_404(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.recommend(_payload(app="NotAnApp"))
        assert _status(excinfo) == 400

    def test_unknown_tenant_is_404(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.recommend(_payload(tenant="nobody"))
        assert _status(excinfo) == 404


class TestDeterminism:
    def test_same_seed_same_ranking_bit_identical(self, service, tenant_lites):
        a = service.recommend(_payload(seed=42))
        b = service.recommend(_payload(seed=42))
        assert a["ranking"] == b["ranking"]
        # And both match a direct library call with the same RNG exactly.
        direct = tenant_lites["acme"].recommend(
            APP,
            np.asarray(_payload()["data_features"]),
            CLUSTER_C,
            n_candidates=5,
            rng=get_rng(42),
        )
        assert a["conf"] == direct.conf.as_dict()
        assert a["ranking"] == [[c.as_dict(), t] for c, t in direct.ranking]

    def test_different_seeds_differ(self, service):
        a = service.recommend(_payload(seed=1))
        b = service.recommend(_payload(seed=2))
        assert a["ranking"] != b["ranking"]

    def test_tenants_are_isolated(self, service):
        a = service.recommend(_payload(tenant="acme", seed=3))
        b = service.recommend(_payload(tenant="globex", seed=3))
        # Same seed, different model weights: different predictions.
        assert a["predicted_time_s"] != b["predicted_time_s"]


class TestAdmissionControl:
    def test_overload_is_503_with_retry_after(self, service):
        service.config.max_inflight = 1
        gate = service._admission()
        gate.__enter__()   # occupy the only slot
        try:
            with pytest.raises(ServiceError) as excinfo:
                service.recommend(_payload())
        finally:
            gate.__exit__(None, None, None)
        assert _status(excinfo) == 503
        assert excinfo.value.retry_after == service.config.retry_after_s

    def test_slot_released_after_request(self, service):
        service.config.max_inflight = 1
        assert service.recommend(_payload())["predicted_time_s"] > 0
        assert service.recommend(_payload())["predicted_time_s"] > 0
        assert service.stats()["inflight"] == 0


class TestFeedback:
    def test_feedback_roundtrip(self, service):
        rec = service.recommend(_payload())
        body = service.feedback({
            "tenant": "acme", "app": APP, "conf": rec["conf"],
            "scale": "train0", "seed": 0,
        })
        assert body["run_success"] is True
        assert body["run_time_s"] > 0
        assert body["updated"] is False
        assert isinstance(body["drift"], dict)
        # Per-app drift and task-switch state ride along: the tenant's
        # aggregate window and this app's own window both saw the pairs.
        assert isinstance(body["app_drift"], dict)
        assert body["app_drift"]["n"] <= body["drift"]["n"]
        assert set(body["switch"]) >= {"detections", "pending", "observations"}
        assert body["switch"]["detections"] == 0

    def test_bad_conf_is_400(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.feedback({
                "tenant": "acme", "app": APP,
                "conf": {"spark.bogus.knob": 1},
            })
        assert _status(excinfo) == 400

    def test_conf_must_be_object(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.feedback({"tenant": "acme", "app": APP, "conf": [1, 2]})
        assert _status(excinfo) == 400

    def test_unknown_tenant_is_404(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.feedback({"tenant": "nobody", "app": APP, "conf": {}})
        assert _status(excinfo) == 404


class TestStatsAndHealth:
    def test_health_lists_tenants(self, service):
        body = service.health()
        assert body["status"] == "ok"
        assert body["tenants"] == ["acme", "globex"]

    def test_stats_shape(self, service):
        body = service.stats()
        assert body["inflight"] == 0
        assert body["registry"]["max_tenants"] == 4
        assert "counters" in body["metrics"] or body["metrics"]

    def test_stats_exposes_per_tenant_drift_and_switch_state(self, service):
        import json

        rec = service.recommend(_payload())
        service.feedback({
            "tenant": "acme", "app": APP, "conf": rec["conf"],
            "scale": "train0", "seed": 1,
        })
        body = service.stats()
        drift = body["drift"]
        # Every loaded tenant reports; feedback touched acme only.
        assert "acme" in drift
        state = drift["acme"]
        assert set(state) >= {"aggregate", "by_app", "switch"}
        assert state["aggregate"]["n"] >= 1
        assert APP in state["by_app"]
        assert state["by_app"][APP]["total_recorded"] >= 1
        assert state["switch"]["enabled"] in (True, False)
        assert state["switch"]["last_transfer"] is None
        json.dumps(body)   # the whole stats payload stays JSON-able
