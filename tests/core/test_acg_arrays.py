"""Flat-array trees and matrix ACG against the scalar ``_Node`` oracle.

Every comparison is exact: ``float.hex`` for region bounds, value *and*
Python type for sampled confs, ``array_equal`` for predictions.
"""

import pickle
import pickletools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.candidates import AdaptiveCandidateGenerator
from repro.core.lite import LITE, LITEConfig
from repro.core.necs import NECSConfig
from repro.core.persistence import load_lite, save_lite
from repro.ml import DecisionTreeRegressor, GradientBoostingRegressor, RandomForestRegressor
from repro.sparksim import CLUSTER_A, CLUSTER_B, CLUSTER_C, KNOB_NAMES, SparkConf
from repro.utils.rng import get_rng
from repro.workloads import get_workload
from tests.acg_oracle import (
    ScalarACG,
    fit_nodes,
    forest_predict,
    gbm_predict,
    tree_predict,
)

APPS = ("WordCount", "PageRank", "KMeans", "NeverSeenApp")


@pytest.fixture(scope="module")
def acg_pair(small_corpus):
    acg = AdaptiveCandidateGenerator(n_estimators=25, seed=4).fit(small_corpus)
    return acg, ScalarACG(acg, small_corpus)


def _has_numpy_random(blob: bytes) -> bool:
    return any("numpy.random" in str(arg) for _, arg, _ in pickletools.genops(blob))


def _typed(conf):
    return [(type(conf[name]), conf[name]) for name in KNOB_NAMES]


def _data(n=120, d=5, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, d))
    X[:, 3] = np.round(X[:, 3])   # ties exercise the equal-value split guard
    y = 3 * X[:, 0] - X[:, 1] ** 2 + np.where(X[:, 2] > 0.1, 2.0, 0.0) + 0.1 * rng.normal(size=n)
    return X, y


class TestTreesAgainstNodeWalk:
    @pytest.mark.parametrize("max_features", [None, 2])
    def test_tree_arrays_are_the_preorder_node_graph(self, max_features):
        X, y = _data()
        tree = DecisionTreeRegressor(max_depth=6, max_features=max_features, seed=11).fit(X, y)
        flat = fit_nodes(tree, X, y, get_rng(11)).flatten()
        for got, want in zip(tree.nodes_, flat):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        Xq, _ = _data(n=300, seed=1)
        np.testing.assert_array_equal(tree.predict(Xq), tree_predict(tree, Xq))

    def test_forest_predict_matches_per_tree_stack(self):
        X, y = _data()
        forest = RandomForestRegressor(n_estimators=12, max_depth=5, seed=3).fit(X, y)
        Xq, _ = _data(n=64, seed=2)
        np.testing.assert_array_equal(forest.predict(Xq), forest_predict(forest, Xq))
        np.testing.assert_array_equal(forest.predict(Xq[0]), forest_predict(forest, Xq[:1]))

    def test_gbm_predict_matches_sequential_sum(self):
        X, y = _data()
        gbm = GradientBoostingRegressor(n_estimators=30, subsample=0.7, seed=5).fit(X, y)
        Xq, _ = _data(n=64, seed=2)
        np.testing.assert_array_equal(gbm.predict(Xq), gbm_predict(gbm, Xq))

    def test_fitted_tree_keeps_no_generator(self):
        X, y = _data()
        forest = RandomForestRegressor(n_estimators=3).fit(X, y)
        assert not _has_numpy_random(pickle.dumps(forest))


class TestReductionOrder:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_row_mean_equals_per_forest_stack_mean(self, n_trees, seed):
        """``(knobs, trees).mean(axis=1)`` reduces each row like a ``(trees, 1)`` stack."""
        leaves = np.random.default_rng(seed).lognormal(0.0, 3.0, size=(16, n_trees))
        rowwise = leaves.mean(axis=1)
        for d in range(16):
            stacked = np.stack([leaves[d, t:t + 1] for t in range(n_trees)], axis=0)
            assert float(rowwise[d]).hex() == float(stacked.mean(axis=0)[0]).hex()


class TestACGAgainstScalarOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        app=st.sampled_from(APPS),
        datasize=st.floats(1e2, 1e10),
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([1, 7, 40]),
    )
    def test_region_and_generate_bit_identical(self, acg_pair, app, datasize, seed, n):
        acg, oracle = acg_pair
        got, want = acg.region(app, datasize), oracle.region(app, datasize)
        assert [(lo.hex(), hi.hex()) for lo, hi in got] == [
            (float(lo).hex(), float(hi).hex()) for lo, hi in want]
        rows = acg.generate(app, datasize, n, np.random.default_rng(seed))
        expected = oracle.generate(app, datasize, n, np.random.default_rng(seed))
        confs = SparkConf.from_matrix(rows)
        assert [_typed(c) for c in confs] == [_typed(c) for c in expected]
        want = np.stack([c.to_vector() for c in expected])
        assert [v.hex() for v in rows.ravel().tolist()] == [
            v.hex() for v in want.ravel().tolist()]

    @pytest.mark.parametrize("app", APPS)
    def test_predict_point_bit_identical(self, acg_pair, app):
        acg, oracle = acg_pair
        assert _typed(acg.predict_point(app, 3e6)) == _typed(oracle.predict_point(app, 3e6))

    def test_generate_leaves_the_stream_where_the_loop_did(self, acg_pair):
        acg, oracle = acg_pair
        a, b = np.random.default_rng(8), np.random.default_rng(8)
        acg.generate("PageRank", 2e6, 7, a)
        oracle.generate("PageRank", 2e6, 7, b)
        assert a.random() == b.random()


@pytest.fixture(scope="module")
def small_lite(small_corpus):
    cfg = LITEConfig(
        necs=NECSConfig(epochs=2, max_tokens=48, mlp_hidden=16, conv_filters=8),
        n_candidates=12,
    )
    return LITE(cfg).offline_train(small_corpus)


class TestCheckpoints:
    def _rankings(self, lite):
        out = []
        for cluster in (CLUSTER_A, CLUSTER_B, CLUSTER_C):
            for app in ("WordCount", "PageRank", "KMeans"):
                d = get_workload(app).data_spec("test").features()
                rec = lite.recommend(app, d, cluster, rng=np.random.default_rng(5))
                out.append([(_typed(c), t.hex()) for c, t in rec.ranking])
        return out

    def test_v7_node_graph_checkpoint_migrates_bit_identically(
        self, small_lite, small_corpus, tmp_path
    ):
        clone = pickle.loads(pickle.dumps(small_lite))
        acg = clone.candidate_generator
        oracle = ScalarACG(acg, small_corpus)
        del acg.nodes_, acg.roots_
        acg.__dict__.update(oracle.as_v7_state())
        blob = pickle.dumps({"format": "repro-lite", "version": 7, "lite": clone})
        assert _has_numpy_random(blob)   # per-tree generators, as v7 stored them
        path = tmp_path / "v7.pkl"
        path.write_bytes(blob)

        loaded = load_lite(path)
        assert "models_" not in vars(loaded.candidate_generator)
        for got, want in zip(loaded.candidate_generator.nodes_,
                             small_lite.candidate_generator.nodes_):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(loaded.candidate_generator.roots_,
                                      small_lite.candidate_generator.roots_)
        assert self._rankings(loaded) == self._rankings(small_lite)
        # Re-saved, the migrated system is a v8 checkpoint with no generators.
        again = save_lite(loaded, tmp_path / "v8.pkl")
        assert not _has_numpy_random(again.read_bytes())

    def test_saved_checkpoint_pickles_no_generator(self, small_lite, tmp_path):
        path = save_lite(small_lite, tmp_path / "lite.pkl")
        assert not _has_numpy_random(path.read_bytes())
        assert self._rankings(load_lite(path)) == self._rankings(small_lite)
