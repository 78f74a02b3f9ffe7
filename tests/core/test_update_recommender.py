"""Tests for Adaptive Model Update and the knob recommender."""

import numpy as np
import pytest

from repro.core.instances import build_dataset
from repro.core.necs import NECSConfig, NECSEstimator
from repro.core.recommender import KnobRecommender, retarget_instances
from repro.core.update import AdaptiveModelUpdater, UpdateConfig
from repro.sparksim import CLUSTER_C, NUM_KNOBS, SparkConf
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def source_and_target():
    """Source: small-data runs.  Target: larger-data runs (domain shift)."""
    wls = [get_workload(n) for n in ("WordCount", "PageRank")]
    rng = np.random.default_rng(0)
    source, target = [], []
    for wl in wls:
        for i in range(4):
            conf = SparkConf.random(rng)
            run = wl.run(conf, CLUSTER_C, scale="train0", seed=1)
            if run.success:
                source.append(run)
            run_big = wl.run(conf, CLUSTER_C, scale="valid", seed=1)
            if run_big.success:
                target.append(run_big)
    return build_dataset(source), build_dataset(target)


@pytest.fixture()
def fresh_estimator(source_and_target):
    source, _ = source_and_target
    cfg = NECSConfig(epochs=4, max_tokens=64, mlp_hidden=32, conv_filters=8, seed=2)
    return NECSEstimator(cfg).fit(source)


class TestAdaptiveModelUpdate:
    def test_update_improves_target_error(self, fresh_estimator, source_and_target):
        source, target = source_and_target
        actual = np.array([i.stage_time_s for i in target])

        before = fresh_estimator.predict(target)
        err_before = np.abs(np.log1p(before) - np.log1p(actual)).mean()

        updater = AdaptiveModelUpdater(
            fresh_estimator, UpdateConfig(epochs=6, seed=0)
        )
        updater.update(source, target)
        after = fresh_estimator.predict(target)
        err_after = np.abs(np.log1p(after) - np.log1p(actual)).mean()
        assert err_after < err_before

    def test_history_recorded(self, fresh_estimator, source_and_target):
        source, target = source_and_target
        updater = AdaptiveModelUpdater(fresh_estimator, UpdateConfig(epochs=3))
        updater.update(source, target)
        assert len(updater.history_) == 3
        assert all("pred_loss" in h and "disc_loss" in h for h in updater.history_)

    def test_domain_accuracy_computable(self, fresh_estimator, source_and_target):
        source, target = source_and_target
        updater = AdaptiveModelUpdater(fresh_estimator, UpdateConfig(epochs=3))
        updater.update(source, target)
        acc = updater.domain_accuracy(source[:20], target[:20])
        assert 0.0 <= acc <= 1.0

    def test_requires_fitted_estimator(self):
        with pytest.raises(ValueError):
            AdaptiveModelUpdater(NECSEstimator())

    def test_empty_domains_rejected(self, fresh_estimator, source_and_target):
        source, _ = source_and_target
        updater = AdaptiveModelUpdater(fresh_estimator)
        with pytest.raises(ValueError):
            updater.update(source, [])

    def test_domain_accuracy_before_update_raises(self, fresh_estimator):
        updater = AdaptiveModelUpdater(fresh_estimator)
        with pytest.raises(RuntimeError):
            updater.domain_accuracy([], [])


class TestRetarget:
    def test_swaps_only_target_features(self, small_instances):
        templates = small_instances[:3]
        conf = SparkConf({"spark.executor.cores": 8})
        new_data = np.array([9e9, 3.0, 5.0, 0.0])
        out = retarget_instances(templates, conf, new_data, CLUSTER_C)
        for before, after in zip(templates, out):
            np.testing.assert_allclose(after.knobs, conf.to_vector())
            np.testing.assert_allclose(after.data_features, new_data)
            assert after.code_tokens == before.code_tokens
            assert after.dag_labels == before.dag_labels

    def test_originals_not_mutated(self, small_instances):
        templates = small_instances[:2]
        snapshot = templates[0].knobs.copy()
        retarget_instances(templates, SparkConf({"spark.executor.cores": 8}),
                           templates[0].data_features, CLUSTER_C)
        np.testing.assert_allclose(templates[0].knobs, snapshot)


class TestRecommender:
    def test_ranking_sorted_by_prediction(self, fitted_necs, small_instances, rng):
        templates = small_instances[:5]
        candidates = np.stack([SparkConf.random(rng).to_vector() for _ in range(8)])
        rec = KnobRecommender(fitted_necs).rank(
            templates, candidates, templates[0].data_features, CLUSTER_C
        )
        times = [t for _, t in rec.ranking]
        assert times == sorted(times)
        assert rec.conf == rec.ranking[0][0]
        assert rec.predicted_time_s == rec.ranking[0][1]

    def test_overhead_recorded_and_small(self, fitted_necs, small_instances, rng):
        templates = small_instances[:5]
        candidates = np.stack([SparkConf.random(rng).to_vector() for _ in range(10)])
        rec = KnobRecommender(fitted_necs).rank(
            templates, candidates, templates[0].data_features, CLUSTER_C
        )
        # Paper: LITE recommends in < 2 seconds.
        assert 0.0 < rec.overhead_s < 2.0

    def test_empty_inputs_rejected(self, fitted_necs, small_instances, rng):
        with pytest.raises(ValueError):
            KnobRecommender(fitted_necs).rank(
                [], SparkConf().to_vector()[None, :], np.zeros(4), CLUSTER_C
            )
        with pytest.raises(ValueError):
            KnobRecommender(fitted_necs).rank(
                small_instances[:2], np.zeros((0, NUM_KNOBS)), np.zeros(4), CLUSTER_C
            )
