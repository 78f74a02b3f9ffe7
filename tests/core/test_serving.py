"""Serving fast path: pre-encoded template cache, single-forward candidate
scoring, and the hot-path correctness fixes that ride along.

Covers:

- equivalence: fast-path ranking is bit-identical to the per-instance path;
- the per-app EncodedTemplates cache and its invalidation on model updates;
- train/eval mode restoration in ``predict``/``feature_embeddings``;
- the hostable-candidate fallback in ``LITE.recommend``, and its
  ``n_hostable``/``n_fallback`` counts on the ``lite.recommend`` span;
- per-query ``overhead_s`` inside a ``recommend_many`` batch;
- cold-start probe double-failure and probe-overhead threading;
- feedback retention across successive adaptive updates.
"""

import time

import numpy as np
import pytest

from repro import obs
from repro.core.lite import LITE, LITEConfig, RecommendQuery
from repro.core.necs import NECSConfig
from repro.core.update import UpdateConfig
from repro.obs import names as obsn
from repro.sparksim import CLUSTER_C, KNOB_BY_NAME, KNOB_NAMES, SparkConf
from repro.sparksim.cluster import ClusterSpec
from repro.sparksim.config import KNOB_HIGHS, KNOB_LOWS, canonical_matrix
from repro.sparksim.costmodel import SparkJobError, plan_executors
from repro.utils.rng import get_rng
from repro.workloads import get_workload
from tests.necs_oracle import rank_per_instance, rank_taped


@pytest.fixture(scope="module")
def served_lite(small_corpus):
    cfg = LITEConfig(
        necs=NECSConfig(epochs=4, max_tokens=96, mlp_hidden=48, conv_filters=16, seed=0),
        update=UpdateConfig(epochs=1),
        n_candidates=12,
        seed=0,
    )
    return LITE(cfg).offline_train(small_corpus)


@pytest.fixture()
def pagerank_setup(served_lite):
    wl = get_workload("PageRank")
    data = wl.data_spec("valid").features()
    rng = np.random.default_rng(7)
    candidates = served_lite.candidate_generator.generate(
        wl.name, float(data[0]), 12, rng
    )
    return wl, data, candidates


class TestFastPathEquivalence:
    def test_bit_identical_ranking(self, served_lite, pagerank_setup):
        # The taped float64 forward over the template cache must equal the
        # per-instance path exactly.  The float32 serving tower's (looser)
        # contract against this oracle is covered by
        # tests/core/test_serving_dtype.py.
        wl, data, candidates = pagerank_setup
        templates = served_lite.stage_templates(wl.name)
        fast = rank_taped(
            served_lite.recommender, candidates, data, CLUSTER_C,
            served_lite.encoded_templates(wl.name),
        )
        ref = rank_per_instance(
            served_lite.recommender, templates, candidates, data, CLUSTER_C
        )
        assert [c for c, _ in fast.ranking] == [c for c, _ in ref.ranking]
        np.testing.assert_array_equal(
            np.array([t for _, t in fast.ranking]),
            np.array([t for _, t in ref.ranking]),
        )
        assert fast.conf == ref.conf
        assert fast.predicted_time_s == ref.predicted_time_s

    def test_rank_encodes_inline_without_cache(self, served_lite, pagerank_setup):
        wl, data, candidates = pagerank_setup
        templates = served_lite.stage_templates(wl.name)
        inline = served_lite.recommender.rank(templates, candidates, data, CLUSTER_C)
        cached = served_lite.recommender.rank(
            templates, candidates, data, CLUSTER_C,
            encoded=served_lite.encoded_templates(wl.name),
        )
        np.testing.assert_array_equal(
            np.array([t for _, t in inline.ranking]),
            np.array([t for _, t in cached.ranking]),
        )

    def test_predict_encoded_shape(self, served_lite, pagerank_setup):
        wl, data, candidates = pagerank_setup
        from repro.core.instances import numeric_feature_rows

        enc = served_lite.encoded_templates(wl.name)
        rows = numeric_feature_rows(candidates, data, CLUSTER_C.feature_vector())
        preds = served_lite.estimator.predict_encoded(enc, rows)
        assert preds.shape == (len(candidates), enc.n_stages)
        assert np.isfinite(preds).all()
        assert (preds > 0).all()


class TestTemplateCache:
    def test_cache_reused_across_recommends(self, served_lite):
        wl = get_workload("PageRank")
        data = wl.data_spec("valid").features()
        served_lite.recommend(wl.name, data, CLUSTER_C, rng=get_rng(0))
        enc1 = served_lite._encoded[wl.name]
        served_lite.recommend(wl.name, data, CLUSTER_C, rng=get_rng(1))
        assert served_lite._encoded[wl.name] is enc1
        # The embeddings were computed once and retained on the entry.
        assert enc1.h_code is not None and enc1.h_dag is not None

    def test_stale_encoding_rejected(self, served_lite):
        wl = get_workload("PageRank")
        enc = served_lite.estimator.encode_templates(
            served_lite.stage_templates(wl.name)
        )
        served_lite.estimator.bump_version()
        with pytest.raises(ValueError, match="stale"):
            served_lite.estimator.predict_encoded(enc, np.zeros((1, 26)))

    def test_cache_invalidated_by_adaptive_update(self, served_lite, small_instances):
        wl = get_workload("PageRank")
        data = wl.data_spec("valid").features()
        served_lite.recommend(wl.name, data, CLUSTER_C, rng=get_rng(0))
        before = served_lite._encoded[wl.name]
        served_lite.adaptive_update(small_instances[:12])
        served_lite.recommend(wl.name, data, CLUSTER_C, rng=get_rng(0))
        after = served_lite._encoded[wl.name]
        assert after is not before
        assert after.version == served_lite.estimator.version

    def test_cold_start_probe_drops_cache_entry(self, served_lite):
        wl = get_workload("Sort")
        served_lite.cold_start_probe(wl, CLUSTER_C, seed=1)
        data = wl.data_spec("valid").features()
        served_lite.recommend(wl.name, data, CLUSTER_C, rng=get_rng(0))
        assert wl.name in served_lite._encoded
        served_lite.cold_start_probe(wl, CLUSTER_C, seed=2)
        assert wl.name not in served_lite._encoded


class TestCacheHitReporting:
    def test_recommendation_records_cold_then_hit(self, served_lite):
        wl = get_workload("PageRank")
        data = wl.data_spec("valid").features()
        served_lite._encoded.pop(wl.name, None)  # force a cold encode
        cold = served_lite.recommend(wl.name, data, CLUSTER_C, rng=get_rng(0))
        assert cold.template_cache_hit is False
        assert cold.encode_overhead_s > 0
        warm = served_lite.recommend(wl.name, data, CLUSTER_C, rng=get_rng(1))
        assert warm.template_cache_hit is True
        assert warm.encode_overhead_s == 0.0

    def test_bare_rank_leaves_cache_status_unset(self, served_lite, pagerank_setup):
        wl, data, candidates = pagerank_setup
        templates = served_lite.stage_templates(wl.name)
        rec = served_lite.recommender.rank(templates, candidates, data, CLUSTER_C)
        assert rec.template_cache_hit is None
        assert rec.encode_overhead_s == 0.0


class TestEvalModeRestore:
    def test_predict_restores_training_mode(self, served_lite, small_instances):
        net = served_lite.estimator.network
        net.train()
        served_lite.estimator.predict(small_instances[:4])
        assert net.training is True
        net.eval()
        served_lite.estimator.predict(small_instances[:4])
        assert net.training is False
        net.train()

    def test_feature_embeddings_restores_mode(self, served_lite, small_instances):
        net = served_lite.estimator.network
        net.eval()
        h = served_lite.estimator.feature_embeddings(small_instances[:4])
        assert net.training is False
        assert np.isfinite(h).all()
        net.train()
        served_lite.estimator.feature_embeddings(small_instances[:4])
        assert net.training is True


TINY_CLUSTER = ClusterSpec(
    "tiny", num_nodes=2, cores_per_node=4, cpu_ghz=2.0,
    memory_gb_per_node=4.0, memory_mts=2400.0, network_gbps=1.0,
)

#: The benchmark's undersized cluster: one 16-core, 4 GB node.
BENCH_TINY_CLUSTER = ClusterSpec(
    "tiny", num_nodes=1, cores_per_node=16, cpu_ghz=2.9,
    memory_gb_per_node=4.0, memory_mts=2666.0, network_gbps=1.0,
)

HOPELESS_CLUSTER = ClusterSpec(
    # Less node memory than the smallest legal driver heap: nothing hosts.
    "hopeless", num_nodes=1, cores_per_node=1, cpu_ghz=1.0,
    memory_gb_per_node=0.5, memory_mts=2400.0, network_gbps=1.0,
)


class TestHostableFallback:
    @staticmethod
    def _force_unhostable_candidates(monkeypatch, lite):
        huge = SparkConf({"spark.executor.memory": 32, "spark.executor.cores": 16})
        monkeypatch.setattr(
            lite.candidate_generator, "generate",
            lambda app, rows, n, rng: np.tile(huge.to_vector(), (n, 1)),
        )

    @staticmethod
    def _assert_capped_hostable(rows, cluster, n):
        assert 1 <= len(rows) <= n
        np.testing.assert_array_equal(rows, canonical_matrix(rows))
        assert (rows >= KNOB_LOWS).all() and (rows <= KNOB_HIGHS).all()
        caps = {
            "spark.driver.cores": cluster.cores_per_node,
            "spark.driver.memory": cluster.memory_gb_per_node,
            "spark.executor.cores": cluster.cores_per_node,
            "spark.executor.memory": cluster.memory_gb_per_node - 1.5,
            "spark.executor.memoryOverhead": 512,
        }
        for name, cap in caps.items():
            # A cap below the knob's range clips back up to its low end.
            bound = max(np.rint(cap), KNOB_BY_NAME[name].low)
            assert (rows[:, KNOB_NAMES.index(name)] <= bound).all(), name
        for conf in SparkConf.from_matrix(rows):
            plan_executors(conf, cluster)  # must not raise

    def test_never_recommends_unhostable(self, served_lite, monkeypatch):
        self._force_unhostable_candidates(monkeypatch, served_lite)
        wl = get_workload("PageRank")
        data = wl.data_spec("valid").features()
        for cluster in (TINY_CLUSTER, BENCH_TINY_CLUSTER):
            with pytest.raises(SparkJobError):
                plan_executors(
                    SparkConf({"spark.executor.memory": 32, "spark.executor.cores": 16}),
                    cluster,
                )
            for n in (1, 5, 40):
                rows = served_lite._sample_hostable(cluster, n, get_rng(n))
                self._assert_capped_hostable(rows, cluster, n)
                rec = served_lite.recommend(
                    wl.name, data, cluster, n_candidates=n, rng=get_rng(n)
                )
                ranked = np.stack([conf.to_vector() for conf, _ in rec.ranking])
                self._assert_capped_hostable(ranked, cluster, n)

    def test_raises_when_nothing_hostable(self, served_lite, monkeypatch):
        self._force_unhostable_candidates(monkeypatch, served_lite)
        wl = get_workload("PageRank")
        data = wl.data_spec("valid").features()
        with pytest.raises(RuntimeError, match="no hostable configuration"):
            served_lite.recommend(
                wl.name, data, HOPELESS_CLUSTER, n_candidates=5, rng=get_rng(0)
            )


class TestBatchOverhead:
    def test_each_query_times_only_its_own_ranking(self, served_lite, monkeypatch):
        """``overhead_s`` of query k must not include queries 0..k-1's forwards."""
        wl = get_workload("PageRank")
        data = wl.data_spec("valid").features()
        served_lite.recommend(wl.name, data, CLUSTER_C, rng=get_rng(0))  # warm
        forward = served_lite.estimator.predict_encoded

        def slow_forward(*args, **kwargs):
            time.sleep(0.02)
            return forward(*args, **kwargs)

        monkeypatch.setattr(served_lite.estimator, "predict_encoded", slow_forward)
        recs = served_lite.recommend_many(
            wl.name, [RecommendQuery(data, None, get_rng(s)) for s in range(3)],
            CLUSTER_C,
        )
        overheads = [rec.overhead_s for rec in recs]
        assert all(0.02 <= o < 0.04 for o in overheads), overheads


class TestFallbackVisibility:
    def test_recommend_span_counts_hostable_rows_and_fallbacks(self, served_lite):
        wl = get_workload("PageRank")
        data = wl.data_spec("valid").features()
        queries = [(BENCH_TINY_CLUSTER, seed) for seed in range(4)] + [(CLUSTER_C, 4)]
        # Expected counts from the scalar check of each query's ACG draw.
        hostable = []
        for cluster, seed in queries:
            rows = served_lite.candidate_generator.generate(
                wl.name, float(data[0]), 9, get_rng(seed))
            ok = 0
            for conf in SparkConf.from_matrix(rows):
                try:
                    plan_executors(conf, cluster)
                except SparkJobError:
                    continue
                ok += 1
            hostable.append(ok)
        assert 0 in hostable[:4] and hostable[4] > 0

        obs.reset()
        obs.enable_tracing()
        try:
            served_lite.recommend_many(
                wl.name, [RecommendQuery(data, 9, get_rng(s)) for s in range(4)],
                BENCH_TINY_CLUSTER,
            )
            served_lite.recommend(wl.name, data, CLUSTER_C, n_candidates=9, rng=get_rng(4))
            tiny, region = [r for r in obs.get_tracer().records()
                            if r.name == obsn.SPAN_RECOMMEND]
        finally:
            obs.reset()
        assert tiny.attrs["n_hostable"] == sum(hostable[:4])
        assert tiny.attrs["n_fallback"] == hostable[:4].count(0)
        assert region.attrs["n_hostable"] == hostable[4]
        assert region.attrs["n_fallback"] == 0
        assert region.attrs["n_candidates"] == hostable[4]


class TestColdStartProbe:
    def test_probe_overhead_threaded_once(self, served_lite):
        wl = get_workload("Terasort")
        data = wl.data_spec("valid").features()
        probe = served_lite.cold_start_probe(wl, CLUSTER_C, seed=1)
        assert probe > 0
        first = served_lite.recommend(wl.name, data, CLUSTER_C, rng=get_rng(0))
        assert first.probe_overhead_s == probe
        second = served_lite.recommend(wl.name, data, CLUSTER_C, rng=get_rng(0))
        assert second.probe_overhead_s == 0.0

    def test_double_failure_raises_and_keeps_templates_clean(self, served_lite):
        wl = get_workload("TriangleCount")
        assert wl.name not in served_lite.known_apps()
        with pytest.raises(RuntimeError, match="probe failed twice"):
            served_lite.cold_start_probe(wl, HOPELESS_CLUSTER, seed=0)
        # A failed probe must not poison the template store.
        assert wl.name not in served_lite.known_apps()


class TestFeedbackRetention:
    def test_successive_updates_train_on_everything_seen(self, monkeypatch):
        calls = []

        class FakeUpdater:
            def __init__(self, estimator, config):
                pass

            def update(self, source, target):
                calls.append(len(target))

        monkeypatch.setattr("repro.core.lite.AdaptiveModelUpdater", FakeUpdater)
        lite = LITE(LITEConfig(feedback_batch_size=1))
        wl = get_workload("WordCount")
        run1 = wl.run(SparkConf(), CLUSTER_C, scale="train0", seed=1)
        run2 = wl.run(SparkConf({"spark.executor.cores": 4}), CLUSTER_C,
                      scale="train0", seed=2)
        n1, n2 = run1.num_stages, run2.num_stages

        assert lite.feedback(run1) is True
        assert calls[-1] == n1
        assert lite.feedback(run2) is True
        # Second round must include the first round's instances too.
        assert calls[-1] == n1 + n2
        assert lite._feedback_instances == []
        assert len(lite._target_instances) == n1 + n2
