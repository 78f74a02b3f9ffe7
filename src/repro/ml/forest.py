"""Random Forest regression (bagged CART trees with feature subsampling).

Two users:

- Adaptive Candidate Generation trains one forest per knob to map
  (datasize, application) -> a promising "mean value" (paper Eq. 6/7).
- The "RFR" competitor in Table VIII uses the same model as a point
  predictor of knob values.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..utils.rng import get_rng

from .tree import DecisionTreeRegressor, FlatTrees


class RandomForestRegressor:
    def __init__(
        self,
        n_estimators: int = 30,
        max_depth: int = 8,
        min_samples_leaf: int = 1,
        max_features: Optional[str] = "sqrt",
        seed: int = 0,
    ):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed
        #: All trees as one node-array set; tree ``t`` starts at ``roots_[t]``.
        self.nodes_: Optional[FlatTrees] = None
        self.roots_: np.ndarray = np.zeros(0, dtype=np.int64)
        self.n_features_: int = 0

    def _resolve_max_features(self, d: int) -> Optional[int]:
        if self.max_features is None:
            return None
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(d)))
        if self.max_features == "third":
            return max(1, d // 3)
        if isinstance(self.max_features, int):
            return min(d, self.max_features)
        raise ValueError(f"unknown max_features {self.max_features!r}")

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if len(X) == 0:
            raise ValueError("cannot fit on empty data")
        self.n_features_ = X.shape[1]
        rng = get_rng(self.seed)
        max_features = self._resolve_max_features(X.shape[1])
        trees = []
        n = len(X)
        for _ in range(self.n_estimators):
            idx = rng.integers(0, n, size=n)  # bootstrap sample
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=max_features,
                seed=int(rng.integers(0, 2**31)),
            )
            trees.append(tree.fit(X[idx], y[idx]).nodes_)
        self.nodes_, self.roots_ = FlatTrees.concat(trees)
        return self

    def _tree_predictions(self, X: np.ndarray) -> np.ndarray:
        """Per-tree predictions, shape ``(n_trees, n_rows)``."""
        if self.nodes_ is None:
            raise RuntimeError("forest is not fitted")
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.n_features_:
            raise ValueError(f"expected {self.n_features_} features, got {X.shape[1]}")
        n_trees, n_rows = len(self.roots_), len(X)
        leaves = self.nodes_.leaf_values(
            X, np.tile(np.arange(n_rows), n_trees), np.repeat(self.roots_, n_rows)
        )
        return leaves.reshape(n_trees, n_rows)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self._tree_predictions(X).mean(axis=0)

    def predict_std(self, X: np.ndarray) -> np.ndarray:
        """Std-dev of per-tree predictions — a cheap uncertainty estimate."""
        return self._tree_predictions(X).std(axis=0)
