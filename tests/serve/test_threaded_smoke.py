"""Threaded smoke test: two tenants served concurrently, bit-stable.

The properties the daemon exists to protect, exercised under real thread
interleaving (satellite requirement of the serving PR):

- per-tenant determinism: a seeded request answers bit-identically to a
  direct library call, however requests interleave;
- no cross-tenant cache corruption: each tenant's answers come from its
  own model, every time;
- exactly-once probe-overhead accounting: a cold-start probe's cost is
  attributed to exactly one subsequent recommendation, even when many
  requests race for it.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.serve import LiteService, ModelRegistry
from repro.sparksim import CLUSTER_C
from repro.utils.rng import get_rng
from repro.workloads import get_workload

APP = "PageRank"
SEEDS = range(12)


@pytest.fixture()
def service(tenant_lites):
    reg = ModelRegistry(max_tenants=4)
    for name, lite in tenant_lites.items():
        reg.register(name, lite)
    return LiteService(reg)


def _features():
    return get_workload(APP).data_spec("valid").features()


class TestThreadedServing:
    def test_concurrent_tenants_stay_deterministic(self, service, tenant_lites):
        feats = _features()
        # Expected answers via direct, sequential library calls.
        expected = {
            (tenant, seed): tenant_lites[tenant].recommend(
                APP, feats, CLUSTER_C, n_candidates=5, rng=get_rng(seed))
            for tenant in tenant_lites for seed in SEEDS
        }

        def hit(job):
            tenant, seed = job
            return job, service.recommend({
                "tenant": tenant, "app": APP,
                "data_features": feats.tolist(),
                "n_candidates": 5, "seed": seed,
            })

        jobs = [(t, s) for t in tenant_lites for s in SEEDS]
        with ThreadPoolExecutor(max_workers=8) as pool:
            answers = dict(pool.map(hit, jobs))

        for job, body in answers.items():
            want = expected[job]
            assert body["conf"] == want.conf.as_dict(), job
            assert [tuple(sorted(c.items())) for c, _ in body["ranking"]] == \
                   [tuple(sorted(c.as_dict().items())) for c, _ in want.ranking], job
            got_times = [t for _, t in body["ranking"]]
            want_times = [t for _, t in want.ranking]
            assert got_times == pytest.approx(want_times, rel=0, abs=0), job

    def test_probe_overhead_attributed_exactly_once(self, service, tenant_lites):
        # PageRank is the only trained app in smoke mode: probe a new one.
        lite = tenant_lites["acme"]
        probe_s = lite.cold_start_probe(get_workload("WordCount"), CLUSTER_C)
        assert probe_s > 0

        feats = get_workload("WordCount").data_spec("valid").features()

        def hit(seed):
            return service.recommend({
                "tenant": "acme", "app": "WordCount",
                "data_features": feats.tolist(),
                "n_candidates": 4, "seed": seed,
            })

        with ThreadPoolExecutor(max_workers=8) as pool:
            bodies = list(pool.map(hit, range(8)))

        carriers = [b for b in bodies if b["probe_overhead_s"] > 0]
        assert len(carriers) == 1
        assert carriers[0]["probe_overhead_s"] == pytest.approx(probe_s)
        # Every request still got a full, valid answer.
        assert all(len(b["ranking"]) == 4 for b in bodies)

    def test_encoded_cache_not_corrupted_across_tenants(self, service, tenant_lites):
        feats = _features()

        def hit(job):
            tenant, seed = job
            return tenant, service.recommend({
                "tenant": tenant, "app": APP,
                "data_features": feats.tolist(),
                "n_candidates": 5, "seed": seed,
            })

        jobs = [(t, s) for s in SEEDS for t in tenant_lites]
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(hit, jobs))   # order matches jobs

        # Replaying any tenant's request sequentially afterwards gives the
        # same prediction — concurrent interleaving left no tenant's
        # encoded-template cache pointing at another tenant's encoding.
        for (tenant, seed), (_, body) in zip(jobs, results):
            direct = tenant_lites[tenant].recommend(
                APP, feats, CLUSTER_C, n_candidates=5, rng=get_rng(seed))
            assert body["predicted_time_s"] == direct.predicted_time_s
