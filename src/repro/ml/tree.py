"""CART regression tree (variance-reduction splits).

The building block for :mod:`repro.ml.forest` (Adaptive Candidate
Generation's per-knob RFR, paper Sec. IV-A) and :mod:`repro.ml.gbm`
(the LightGBM stand-in in Table VII).

A fitted tree is a :class:`FlatTrees`: parallel node arrays in preorder,
so prediction walks every row down at once, one level per step, and a
forest is the same arrays concatenated with one root offset per tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..utils.rng import get_rng


class FlatTrees(NamedTuple):
    """One or more CART trees as parallel node arrays.

    ``left[i] == -1`` marks a leaf; leaves keep ``feature == -1`` and
    ``threshold == 0.0``.  Every node carries its training-target mean in
    ``value``.
    """

    feature: np.ndarray    # int64 split feature
    threshold: np.ndarray  # float64, go left when ``x[feature] <= threshold``
    left: np.ndarray       # int64 child index, -1 at a leaf
    right: np.ndarray      # int64 child index, -1 at a leaf
    value: np.ndarray      # float64 node prediction

    @staticmethod
    def from_rows(rows: Sequence[list]) -> "FlatTrees":
        """Arrays from ``[feature, threshold, left, right, value]`` node rows."""
        feature, threshold, left, right, value = zip(*rows)
        return FlatTrees(
            np.array(feature, dtype=np.int64),
            np.array(threshold, dtype=np.float64),
            np.array(left, dtype=np.int64),
            np.array(right, dtype=np.int64),
            np.array(value, dtype=np.float64),
        )

    @staticmethod
    def concat(parts: Sequence["FlatTrees"]) -> Tuple["FlatTrees", np.ndarray]:
        """One array set for ``parts`` plus each part's node offset in it."""
        offsets = np.cumsum([0] + [len(p.value) for p in parts[:-1]])

        def shifted(children) -> np.ndarray:
            return np.concatenate(
                [np.where(c >= 0, c + off, -1) for off, c in zip(offsets, children)]
            )

        return FlatTrees(
            np.concatenate([p.feature for p in parts]),
            np.concatenate([p.threshold for p in parts]),
            shifted([p.left for p in parts]),
            shifted([p.right for p in parts]),
            np.concatenate([p.value for p in parts]),
        ), offsets

    def leaf_values(self, X: np.ndarray, rows: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """The leaf value reached by walking row ``rows[i]`` of ``X`` from node ``starts[i]``."""
        nodes = np.array(starts, dtype=np.int64)
        live = np.flatnonzero(self.left[nodes] >= 0)
        while live.size:
            at = nodes[live]
            go_left = X[rows[live], self.feature[at]] <= self.threshold[at]
            nodes[live] = np.where(go_left, self.left[at], self.right[at])
            live = live[self.left[nodes[live]] >= 0]
        return self.value[nodes]


@dataclass
class _Node:
    """Legacy tree node: the unpickle target for version-7 checkpoints only.

    :func:`repro.core.persistence.load_lite` flattens these graphs into
    :class:`FlatTrees` on load; nothing else builds or walks them.
    """

    prediction: float
    feature: int = -1
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None

    def flatten(self) -> FlatTrees:
        """This graph as preorder node arrays (root at index 0)."""
        rows: List[list] = []

        def visit(node: "_Node") -> int:
            rows.append([node.feature, node.threshold, -1, -1, node.prediction])
            idx = len(rows) - 1
            if node.left is not None:
                rows[idx][2] = visit(node.left)
                rows[idx][3] = visit(node.right)
            return idx

        visit(self)
        return FlatTrees.from_rows(rows)


class DecisionTreeRegressor:
    """Regression tree minimising squared error.

    Parameters
    ----------
    max_depth:
        Depth cap (root is depth 0).
    min_samples_split:
        Minimum samples to consider splitting a node.
    min_samples_leaf:
        Minimum samples in each child of a split.
    max_features:
        If set, the number of features randomly considered per split
        (the randomness that de-correlates forest members).
    seed:
        Seeds the generator ``fit`` draws feature subsets from; used only
        when ``max_features`` is set.  A fitted tree keeps no generator.
    """

    def __init__(
        self,
        max_depth: int = 8,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: Optional[int] = None,
        seed: int = 0,
    ):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed
        self.nodes_: Optional[FlatTrees] = None
        self.n_features_: int = 0

    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if len(X) != len(y):
            raise ValueError(f"X and y length mismatch: {len(X)} vs {len(y)}")
        if len(X) == 0:
            raise ValueError("cannot fit on empty data")
        self.n_features_ = X.shape[1]
        rng = get_rng(self.seed)
        rows: List[list] = []   # preorder [feature, threshold, left, right, value]

        def build(X: np.ndarray, y: np.ndarray, depth: int) -> int:
            rows.append([-1, 0.0, -1, -1, float(y.mean())])
            idx = len(rows) - 1
            if depth >= self.max_depth or len(y) < self.min_samples_split or np.ptp(y) == 0.0:
                return idx
            split = self._best_split(X, y, rng)
            if split is None:
                return idx
            feature, threshold = split
            rows[idx][:2] = split
            mask = X[:, feature] <= threshold
            rows[idx][2] = build(X[mask], y[mask], depth + 1)
            rows[idx][3] = build(X[~mask], y[~mask], depth + 1)
            return idx

        build(X, y, depth=0)
        self.nodes_ = FlatTrees.from_rows(rows)
        return self

    def _best_split(self, X: np.ndarray, y: np.ndarray, rng: np.random.Generator):
        n, d = X.shape
        features = np.arange(d)
        if self.max_features is not None and self.max_features < d:
            features = rng.choice(d, size=self.max_features, replace=False)

        best_gain = 1e-12
        best: Optional[tuple] = None
        total_sum = y.sum()
        total_sq = (y**2).sum()
        parent_sse = total_sq - total_sum**2 / n

        for feature in features:
            order = np.argsort(X[:, feature], kind="stable")
            xs = X[order, feature]
            ys = y[order]
            csum = np.cumsum(ys)
            csq = np.cumsum(ys**2)
            # Candidate split after position i (1-based sizes).
            for i in range(self.min_samples_leaf, n - self.min_samples_leaf + 1):
                if i < n and xs[i - 1] == xs[i]:
                    continue  # cannot split between equal values
                if i == n:
                    continue
                left_n, right_n = i, n - i
                left_sse = csq[i - 1] - csum[i - 1] ** 2 / left_n
                right_sum = total_sum - csum[i - 1]
                right_sse = (total_sq - csq[i - 1]) - right_sum**2 / right_n
                gain = parent_sse - left_sse - right_sse
                if gain > best_gain:
                    best_gain = gain
                    best = (int(feature), float((xs[i - 1] + xs[i]) / 2.0))
        return best

    # ------------------------------------------------------------------
    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.nodes_ is None:
            raise RuntimeError("tree is not fitted")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != self.n_features_:
            raise ValueError(f"expected {self.n_features_} features, got {X.shape[1]}")
        rows = np.arange(len(X))
        return self.nodes_.leaf_values(X, rows, np.zeros(len(X), dtype=np.int64))

    def depth(self) -> int:
        """Actual depth of the fitted tree."""
        if self.nodes_ is None:
            raise RuntimeError("tree is not fitted")
        depth = np.zeros(len(self.nodes_.value), dtype=np.int64)
        # Preorder: a parent's index is always below its children's.
        for i in np.flatnonzero(self.nodes_.left >= 0):
            depth[self.nodes_.left[i]] = depth[self.nodes_.right[i]] = depth[i] + 1
        return int(depth.max())
