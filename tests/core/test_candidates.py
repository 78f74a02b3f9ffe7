"""Tests for Adaptive Candidate Generation (paper Sec. IV-A)."""

import numpy as np
import pytest

from repro.core.candidates import AdaptiveCandidateGenerator, TOP_FRACTION
from repro.sparksim import KNOB_SPECS, NUM_KNOBS, SparkConf, CLUSTER_C
from repro.sparksim.config import canonical_matrix
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def fitted_acg(small_corpus_module):
    return AdaptiveCandidateGenerator(n_estimators=10, seed=1).fit(small_corpus_module)


@pytest.fixture(scope="module")
def small_corpus_module():
    from repro.experiments.collect import collect_training_runs

    wls = [get_workload(n) for n in ("WordCount", "PageRank", "KMeans")]
    return collect_training_runs(
        workloads=wls, clusters=[CLUSTER_C], scales=("train0", "train1"),
        confs_per_cell=4, seed=3,
    )


class TestFit:
    def test_one_model_per_knob(self, fitted_acg):
        assert fitted_acg.roots_.shape == (NUM_KNOBS, fitted_acg.n_estimators)
        assert fitted_acg.sigma_.shape == (NUM_KNOBS,)

    def test_sigma_positive(self, fitted_acg):
        assert (fitted_acg.sigma_ > 0).all()

    def test_top_instances_selects_fastest(self, small_corpus_module):
        top = AdaptiveCandidateGenerator._top_instances(small_corpus_module)
        ok = [r for r in small_corpus_module if r.success]
        assert 0 < len(top) <= int(np.ceil(TOP_FRACTION * len(ok))) + 10
        # Every selected run is no slower than the slowest run of its group.
        by_group = {}
        for run in ok:
            by_group.setdefault((run.app_name, float(run.data_features[0])), []).append(run)
        for run in top:
            group = by_group[(run.app_name, float(run.data_features[0]))]
            assert run.duration_s <= max(r.duration_s for r in group)

    def test_empty_fit_raises(self):
        with pytest.raises(ValueError):
            AdaptiveCandidateGenerator().fit([])


class TestRegion:
    def test_region_within_knob_ranges(self, fitted_acg):
        bounds = fitted_acg.region("PageRank", 2e6)
        for (low, high), spec in zip(bounds, KNOB_SPECS):
            assert spec.low <= low <= high <= spec.high

    def test_region_is_narrower_than_full_space(self, fitted_acg):
        bounds = fitted_acg.region("PageRank", 2e6)
        widths = [h - l for l, h in bounds]
        full = [spec.high - spec.low for spec in KNOB_SPECS]
        narrowed = sum(1 for w, f in zip(widths, full) if w < f * 0.95)
        assert narrowed >= NUM_KNOBS // 2  # region of interest is a real shrink

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            AdaptiveCandidateGenerator().region("X", 1.0)

    def test_unknown_app_region_stays_in_range(self, fitted_acg):
        """A never-seen application one-hot encodes to all zeros; the RFR
        extrapolation must still yield bounds inside every knob's range."""
        assert "NeverSeenApp" not in fitted_acg.featurizer_.app_names
        bounds = fitted_acg.region("NeverSeenApp", 5e5)
        for (low, high), spec in zip(bounds, KNOB_SPECS):
            assert spec.low <= low <= high <= spec.high

    def test_unknown_app_candidates_are_valid_confs(self, fitted_acg, rng):
        rows = fitted_acg.generate("NeverSeenApp", 5e5, 6, rng)
        for conf in SparkConf.from_matrix(rows):
            for spec in KNOB_SPECS:
                assert spec.low <= float(conf[spec.name]) <= spec.high


class TestGeneration:
    def test_candidates_inside_region(self, fitted_acg, rng):
        bounds = fitted_acg.region("KMeans", 1e6)
        candidates = fitted_acg.generate("KMeans", 1e6, 20, rng)
        assert candidates.shape == (20, NUM_KNOBS)
        np.testing.assert_array_equal(candidates, canonical_matrix(candidates))
        for vec in candidates:
            for value, (low, high), spec in zip(vec, bounds, KNOB_SPECS):
                if spec.kind == "bool":
                    continue
                assert low - 1 <= value <= high + 1  # int rounding slack

    def test_point_prediction_valid_conf(self, fitted_acg):
        conf = fitted_acg.predict_point("WordCount", 3e6)
        assert isinstance(conf, SparkConf)

    def test_generation_deterministic(self, fitted_acg):
        a = fitted_acg.generate("KMeans", 1e6, 5, np.random.default_rng(0))
        b = fitted_acg.generate("KMeans", 1e6, 5, np.random.default_rng(0))
        np.testing.assert_array_equal(a, b)

    def test_region_adapts_to_datasize(self, fitted_acg):
        small = fitted_acg.region("KMeans", 1.2e6)
        large = fitted_acg.region("KMeans", 1.2e8)
        assert small != large  # RFR consumes the datasize feature
