"""Tests for CART, random forest and gradient boosting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml import (
    DecisionTreeRegressor,
    GradientBoostingRegressor,
    RandomForestRegressor,
)


def step_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 3))
    y = np.where(X[:, 0] > 0.2, 5.0, -5.0) + 0.01 * rng.normal(size=n)
    return X, y


def linear_data(n=300, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 4))
    y = 2 * X[:, 0] - 3 * X[:, 1] + 0.05 * rng.normal(size=n)
    return X, y


class TestDecisionTree:
    def test_learns_step_function(self):
        X, y = step_data()
        tree = DecisionTreeRegressor(max_depth=3).fit(X, y)
        pred = tree.predict(X)
        assert np.abs(pred - y).mean() < 0.5

    def test_finds_correct_split_feature(self):
        X, y = step_data()
        tree = DecisionTreeRegressor(max_depth=1).fit(X, y)
        assert tree.nodes_.feature[0] == 0
        assert abs(tree.nodes_.threshold[0] - 0.2) < 0.1

    def test_depth_limit_respected(self):
        X, y = linear_data()
        tree = DecisionTreeRegressor(max_depth=2).fit(X, y)
        assert tree.depth() <= 2

    def test_constant_target_single_leaf(self):
        X = np.ones((10, 2))
        y = np.full(10, 3.0)
        tree = DecisionTreeRegressor().fit(X, y)
        assert len(tree.nodes_.value) == 1 and tree.nodes_.left[0] == -1
        np.testing.assert_allclose(tree.predict(X), 3.0)

    def test_min_samples_leaf(self):
        X, y = step_data(n=20)
        tree = DecisionTreeRegressor(min_samples_leaf=10).fit(X, y)
        assert tree.depth() <= 1

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTreeRegressor().predict(np.ones((1, 2)))

    def test_feature_count_checked(self):
        X, y = step_data()
        tree = DecisionTreeRegressor().fit(X, y)
        with pytest.raises(ValueError):
            tree.predict(np.ones((2, 7)))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(np.empty((0, 2)), np.empty(0))

    def test_1d_predict_input(self):
        X, y = step_data()
        tree = DecisionTreeRegressor().fit(X, y)
        assert tree.predict(X[0]).shape == (1,)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 6))
    def test_deeper_never_worse_on_train(self, depth):
        X, y = step_data(n=100, seed=3)
        shallow = DecisionTreeRegressor(max_depth=depth).fit(X, y)
        deep = DecisionTreeRegressor(max_depth=depth + 2).fit(X, y)
        err_s = ((shallow.predict(X) - y) ** 2).mean()
        err_d = ((deep.predict(X) - y) ** 2).mean()
        assert err_d <= err_s + 1e-9


class TestRandomForest:
    def test_beats_constant_predictor(self):
        X, y = linear_data()
        forest = RandomForestRegressor(n_estimators=15, max_depth=6).fit(X, y)
        mse = ((forest.predict(X) - y) ** 2).mean()
        assert mse < y.var() * 0.5

    def test_deterministic_given_seed(self):
        X, y = linear_data()
        a = RandomForestRegressor(n_estimators=5, seed=1).fit(X, y).predict(X[:10])
        b = RandomForestRegressor(n_estimators=5, seed=1).fit(X, y).predict(X[:10])
        np.testing.assert_allclose(a, b)

    def test_predict_std_nonnegative(self):
        X, y = linear_data()
        forest = RandomForestRegressor(n_estimators=8).fit(X, y)
        assert (forest.predict_std(X[:20]) >= 0).all()

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            RandomForestRegressor().predict(np.ones((1, 3)))

    def test_max_features_modes(self):
        X, y = linear_data(n=80)
        for mf in (None, "sqrt", "third", 2):
            RandomForestRegressor(n_estimators=3, max_features=mf).fit(X, y)

    def test_invalid_max_features(self):
        X, y = linear_data(n=50)
        with pytest.raises(ValueError):
            RandomForestRegressor(n_estimators=2, max_features="all").fit(X, y)


class TestGBM:
    def test_fits_linear_signal(self):
        X, y = linear_data()
        gbm = GradientBoostingRegressor(n_estimators=60, max_depth=3).fit(X, y)
        mse = ((gbm.predict(X) - y) ** 2).mean()
        assert mse < y.var() * 0.2

    def test_train_loss_decreases(self):
        X, y = linear_data()
        gbm = GradientBoostingRegressor(n_estimators=30).fit(X, y)
        assert gbm.train_losses_[-1] < gbm.train_losses_[0]

    def test_early_stopping_truncates(self):
        X, y = linear_data(n=120)
        X_val, y_val = linear_data(n=60, seed=9)
        gbm = GradientBoostingRegressor(
            n_estimators=300, early_stopping_rounds=5
        ).fit(X, y, eval_set=(X_val, y_val))
        assert len(gbm.trees_) < 300

    def test_subsample_validation(self):
        with pytest.raises(ValueError):
            GradientBoostingRegressor(subsample=0.0)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            GradientBoostingRegressor().predict(np.ones((1, 3)))

    def test_subsampled_still_learns(self):
        X, y = linear_data()
        gbm = GradientBoostingRegressor(n_estimators=40, subsample=0.6).fit(X, y)
        mse = ((gbm.predict(X) - y) ** 2).mean()
        assert mse < y.var() * 0.5
