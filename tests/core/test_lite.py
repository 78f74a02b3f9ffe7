"""Integration tests for the LITE facade."""

import numpy as np
import pytest

from repro.core.lite import LITE, LITEConfig
from repro.core.necs import NECSConfig
from repro.core.update import UpdateConfig
from repro.sparksim import CLUSTER_C, SparkConf
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def trained_lite(small_corpus_module):
    cfg = LITEConfig(
        necs=NECSConfig(epochs=5, max_tokens=96, mlp_hidden=48, conv_filters=16, seed=0),
        update=UpdateConfig(epochs=2),
        n_candidates=15,
        feedback_batch_size=3,
    )
    return LITE(cfg).offline_train(small_corpus_module)


@pytest.fixture(scope="module")
def small_corpus_module():
    from repro.experiments.collect import collect_training_runs

    wls = [get_workload(n) for n in ("WordCount", "PageRank", "KMeans")]
    return collect_training_runs(
        workloads=wls, clusters=[CLUSTER_C], scales=("train0", "train1"),
        confs_per_cell=4, seed=3,
    )


class TestOfflineTraining:
    def test_templates_for_each_app(self, trained_lite):
        assert trained_lite.known_apps() == ["KMeans", "PageRank", "WordCount"]

    def test_untrained_recommend_raises(self):
        with pytest.raises(RuntimeError):
            LITE().recommend("X", np.zeros(4), CLUSTER_C)

    def test_empty_training_raises(self):
        with pytest.raises(ValueError):
            LITE().offline_train([])


class TestRecommendation:
    def test_recommendation_structure(self, trained_lite):
        wl = get_workload("PageRank")
        rec = trained_lite.recommend(wl.name, wl.data_spec("valid").features(), CLUSTER_C)
        assert len(rec.ranking) == 15
        assert isinstance(rec.conf, SparkConf)
        assert rec.overhead_s < 2.0  # the paper's online latency claim

    def test_recommendation_beats_default_at_scale(self, trained_lite):
        wl = get_workload("PageRank")
        rec = trained_lite.recommend(wl.name, wl.data_spec("test").features(), CLUSTER_C)
        tuned = wl.run(rec.conf, CLUSTER_C, scale="test", seed=1)
        default = wl.run(SparkConf.default(), CLUSTER_C, scale="test", seed=1)
        t_tuned = tuned.duration_s if tuned.success else 7200.0
        assert t_tuned < default.duration_s

    def test_unknown_app_requires_probe(self, trained_lite):
        with pytest.raises(KeyError):
            trained_lite.recommend("Terasort", np.array([1e6, 2, 0, 0]), CLUSTER_C)

    def test_cold_start_probe_enables_recommendation(self, trained_lite):
        wl = get_workload("Terasort")
        overhead = trained_lite.cold_start_probe(wl, CLUSTER_C, seed=1)
        assert overhead > 0
        rec = trained_lite.recommend(wl.name, wl.data_spec("test").features(), CLUSTER_C)
        assert isinstance(rec.conf, SparkConf)

    def test_overhead_includes_candidate_generation(self, trained_lite, monkeypatch):
        """Sec. V-I overhead is the whole tuning cost, not just ranking."""
        import time

        from repro.core.lite import RecommendQuery

        acg = trained_lite.candidate_generator
        real_generate = acg.generate

        def slow_generate(*args, **kwargs):
            time.sleep(0.05)
            return real_generate(*args, **kwargs)

        monkeypatch.setattr(acg, "generate", slow_generate)
        d = get_workload("PageRank").data_spec("valid").features()
        recs = trained_lite.recommend_many(
            "PageRank", [RecommendQuery(d, 5, np.random.default_rng(s)) for s in (1, 2)],
            CLUSTER_C,
        )
        assert all(rec.overhead_s >= 0.05 for rec in recs)

    def test_rng_controls_candidates(self, trained_lite):
        wl = get_workload("WordCount")
        d = wl.data_spec("valid").features()
        a = trained_lite.recommend(wl.name, d, CLUSTER_C, rng=np.random.default_rng(1))
        b = trained_lite.recommend(wl.name, d, CLUSTER_C, rng=np.random.default_rng(1))
        assert a.conf == b.conf


class TestRecommendValidation:
    """Degenerate data_features / n_candidates answer clearly, never crash."""

    def test_empty_data_features_is_a_clear_valueerror(self, trained_lite):
        with pytest.raises(ValueError, match="empty"):
            trained_lite.recommend("PageRank", np.array([]), CLUSTER_C)
        with pytest.raises(ValueError, match="empty"):
            trained_lite.recommend("PageRank", [], CLUSTER_C)

    def test_scalar_data_features_never_bare_indexerror(self, trained_lite):
        # A python float / 0-d array is normalised via atleast_1d: it must
        # never escape as a bare IndexError from `data_features[0]`.  (It
        # can still fail downstream where the model wants the full feature
        # vector — but as a ValueError, not a crash.)
        for scalar in (2.0e9, np.float64(2.0e9), np.array(2.0e9)):
            try:
                trained_lite.recommend("PageRank", scalar, CLUSTER_C)
            except ValueError:
                pass

    def test_zero_candidates_is_an_error_not_the_default(self, trained_lite):
        # n_candidates=0 used to silently fall back to the configured
        # default through `n_candidates or ...`.
        with pytest.raises(ValueError, match="n_candidates"):
            trained_lite.recommend(
                "PageRank",
                get_workload("PageRank").data_spec("valid").features(),
                CLUSTER_C, n_candidates=0)
        with pytest.raises(ValueError, match="n_candidates"):
            trained_lite.recommend(
                "PageRank",
                get_workload("PageRank").data_spec("valid").features(),
                CLUSTER_C, n_candidates=-3)

    def test_wrong_width_names_the_expected_width(self, trained_lite):
        d = get_workload("PageRank").data_spec("valid").features()
        with pytest.raises(ValueError, match="expects 4 values"):
            trained_lite.recommend("PageRank", np.append(d, 1.0), CLUSTER_C)

    @pytest.mark.parametrize("index", [0, 3])
    def test_negative_data_feature_rejected(self, trained_lite, index):
        # A negative row count made the log1p datasize feature NaN.
        d = get_workload("PageRank").data_spec("valid").features()
        d[index] = -d[index] - 1.0
        with pytest.raises(ValueError, match=">= 0"):
            trained_lite.recommend("PageRank", d, CLUSTER_C)

    def test_n_candidates_capped(self, trained_lite):
        from repro.core.lite import MAX_CANDIDATES, RecommendQuery

        d = get_workload("PageRank").data_spec("valid").features()
        with pytest.raises(ValueError, match=str(MAX_CANDIDATES)):
            trained_lite.recommend("PageRank", d, CLUSTER_C,
                                   n_candidates=MAX_CANDIDATES + 1)
        # One bad query fails the whole library batch before any work.
        with pytest.raises(ValueError, match="n_candidates"):
            trained_lite.recommend_many("PageRank", [
                RecommendQuery(d, 4), RecommendQuery(d, MAX_CANDIDATES + 1)],
                CLUSTER_C)

    def test_recommend_many_matches_sequential_recommends(self, trained_lite):
        from repro.core.lite import RecommendQuery

        wl = get_workload("PageRank")
        d = wl.data_spec("valid").features()
        direct = [
            trained_lite.recommend(wl.name, d, CLUSTER_C, n_candidates=6,
                                   rng=np.random.default_rng(seed))
            for seed in (1, 2, 3)
        ]
        batched = trained_lite.recommend_many(
            wl.name,
            [RecommendQuery(d, 6, np.random.default_rng(seed)) for seed in (1, 2, 3)],
            CLUSTER_C,
        )
        for a, b in zip(direct, batched):
            assert a.conf == b.conf
            assert [t for _, t in a.ranking] == [t for _, t in b.ranking]

    def test_recommend_many_rejects_empty_batch(self, trained_lite):
        with pytest.raises(ValueError, match="queries"):
            trained_lite.recommend_many("PageRank", [], CLUSTER_C)


class TestFeedbackLoop:
    def test_feedback_batches_then_updates(self, small_corpus_module):
        cfg = LITEConfig(
            necs=NECSConfig(epochs=2, max_tokens=64, mlp_hidden=24, conv_filters=8),
            update=UpdateConfig(epochs=1),
            feedback_batch_size=2,
        )
        lite = LITE(cfg).offline_train(small_corpus_module[:20])
        wl = get_workload("WordCount")
        run1 = wl.run(SparkConf(), CLUSTER_C, scale="valid", seed=1)
        assert lite.feedback(run1) is False          # batch not complete
        run2 = wl.run(SparkConf({"spark.executor.cores": 4}), CLUSTER_C, scale="valid", seed=1)
        assert lite.feedback(run2) is True           # update fired
        assert lite._feedback_runs == []             # pool drained

    def test_failed_feedback_ignored(self, small_corpus_module):
        cfg = LITEConfig(
            necs=NECSConfig(epochs=2, max_tokens=64, mlp_hidden=24, conv_filters=8),
            feedback_batch_size=1,
        )
        lite = LITE(cfg).offline_train(small_corpus_module[:20])
        bad = get_workload("WordCount").run(
            SparkConf({"spark.executor.memory": 32}), CLUSTER_C, scale="valid"
        )
        assert not bad.success
        assert lite.feedback(bad) is False

    def test_truncated_and_successful_runs_interleaved_across_two_apps(
        self, small_corpus_module
    ):
        """Truncated runs feed the corpus but never drift; apps stay isolated."""
        from repro.sparksim.faults import FaultInjector, FaultPlan

        cfg = LITEConfig(
            necs=NECSConfig(epochs=2, max_tokens=64, mlp_hidden=24, conv_filters=8),
            feedback_batch_size=10 ** 9,   # no updates mid-test
        )
        lite = LITE(cfg).offline_train(small_corpus_module[:20])
        wl_a, wl_b = get_workload("WordCount"), get_workload("PageRank")
        trunc = FaultInjector(FaultPlan(seed=0, log_truncation_prob=1.0))
        conf = SparkConf.default()

        corpus_before = len(lite._feedback_instances)
        drift_pairs = 0
        for i in range(3):
            clean_a = wl_a.run(conf, CLUSTER_C, scale="valid", seed=10 + i)
            lite.feedback(clean_a)
            drift_pairs += clean_a.num_stages
            cut_b = wl_b.run(conf, CLUSTER_C, scale="valid", seed=20 + i,
                             fault_injector=trunc)
            assert cut_b.success and cut_b.truncated
            lite.feedback(cut_b)

        # Truncated runs fed the corpus...
        assert len(lite._feedback_instances) > corpus_before + drift_pairs
        # ...but never the drift monitor: only app A's clean pairs landed.
        assert lite.drift.total_recorded == drift_pairs
        assert lite.drift_stats("WordCount").n == drift_pairs
        assert lite.drift_stats("PageRank").n == 0
        assert lite.drift_stats("PageRank").total_recorded == 0

        # App A's drift never moves app B's stats: hammer A with wildly
        # biased pairs directly and snapshot B around it.
        b_before = lite.drift_stats("PageRank").to_dict()
        for _ in range(50):
            lite.drift.record(
                np.array([100.0]), np.array([1.0]), app="WordCount")
        assert lite.drift_stats("PageRank").to_dict() == b_before
        assert lite.drift_stats("WordCount").n > drift_pairs

    def test_switch_disabled_is_bit_identical_to_enabled_but_unswitched(
        self, small_corpus_module
    ):
        """Default-off config and an enabled-but-never-triggered detector
        produce identical recommendations and identical drift decisions."""
        base = LITEConfig(
            necs=NECSConfig(epochs=2, max_tokens=64, mlp_hidden=24,
                            conv_filters=8, seed=0),
            update=UpdateConfig(epochs=1),
            feedback_batch_size=3,
        )
        on = LITEConfig(
            necs=NECSConfig(epochs=2, max_tokens=64, mlp_hidden=24,
                            conv_filters=8, seed=0),
            update=UpdateConfig(epochs=1),
            feedback_batch_size=3,
            switch_detection=True,
            # Thresholds high enough that stationary feedback never fires.
            switch_z_threshold=50.0, switch_min_baseline=100,
        )
        lite_off = LITE(base).offline_train(small_corpus_module[:30])
        lite_on = LITE(on).offline_train(small_corpus_module[:30])
        wl = get_workload("WordCount")
        conf = SparkConf.default()
        for i in range(4):
            run = wl.run(conf, CLUSTER_C, scale="valid", seed=40 + i)
            assert lite_off.feedback(run) == lite_on.feedback(run)
        d = wl.data_spec("valid").features()
        a = lite_off.recommend(wl.name, d, CLUSTER_C, rng=np.random.default_rng(7))
        b = lite_on.recommend(wl.name, d, CLUSTER_C, rng=np.random.default_rng(7))
        assert a.conf == b.conf
        assert a.predicted_time_s == pytest.approx(b.predicted_time_s, abs=0.0)
        assert [t for _, t in a.ranking] == pytest.approx(
            [t for _, t in b.ranking], abs=0.0)
