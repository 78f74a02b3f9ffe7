"""Test-only oracle: the scalar ACG and ``_Node`` tree walk that flat arrays replaced.

Each tree here is a graph of :class:`repro.ml.tree._Node` built by the
original recursive fit, predicted one row at a time by following child
pointers.  The ACG oracle keeps one such forest per knob, predicts each
knob's center with its own ``np.stack(...).mean(axis=0)``, and samples
every candidate with per-knob scalar ``rng.uniform`` draws.  Production
code must produce bit-identical numbers from its node arrays and matrix
draws; nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.core.candidates import AdaptiveCandidateGenerator
from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import DecisionTreeRegressor, FlatTrees, _Node
from repro.sparksim.config import KNOB_SPECS, NUM_KNOBS, SparkConf
from repro.utils.rng import get_rng


# ----------------------------------------------------------------------
# Trees as node graphs
# ----------------------------------------------------------------------
def fit_nodes(splitter: DecisionTreeRegressor, X: np.ndarray, y: np.ndarray,
              rng: np.random.Generator, depth: int = 0) -> _Node:
    """The recursive ``_Node`` build, sharing ``splitter``'s split search."""
    node = _Node(prediction=float(y.mean()))
    if (depth >= splitter.max_depth or len(y) < splitter.min_samples_split
            or np.ptp(y) == 0.0):
        return node
    split = splitter._best_split(X, y, rng)
    if split is None:
        return node
    node.feature, node.threshold = split
    mask = X[:, node.feature] <= node.threshold
    node.left = fit_nodes(splitter, X[mask], y[mask], rng, depth + 1)
    node.right = fit_nodes(splitter, X[~mask], y[~mask], rng, depth + 1)
    return node


def to_nodes(nodes: FlatTrees, root: int) -> _Node:
    """The node graph of the tree rooted at ``root`` of a node-array set."""
    node = _Node(prediction=float(nodes.value[root]))
    if nodes.left[root] >= 0:
        node.feature = int(nodes.feature[root])
        node.threshold = float(nodes.threshold[root])
        node.left = to_nodes(nodes, int(nodes.left[root]))
        node.right = to_nodes(nodes, int(nodes.right[root]))
    return node


def walk(root: _Node, X: np.ndarray) -> np.ndarray:
    """Per-row pointer walk: the prediction path arrays replaced."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    out = np.empty(len(X))
    for i, row in enumerate(X):
        node = root
        while node.left is not None:
            node = node.left if row[node.feature] <= node.threshold else node.right
        out[i] = node.prediction
    return out


def tree_predict(tree: DecisionTreeRegressor, X: np.ndarray) -> np.ndarray:
    return walk(to_nodes(tree.nodes_, 0), X)


def forest_predict(forest: RandomForestRegressor, X: np.ndarray) -> np.ndarray:
    preds = np.stack([walk(to_nodes(forest.nodes_, r), X) for r in forest.roots_], axis=0)
    return preds.mean(axis=0)


def gbm_predict(gbm, X: np.ndarray) -> np.ndarray:
    out = np.full(len(np.atleast_2d(X)), gbm.base_)
    for tree in gbm.trees_:
        out = out + gbm.learning_rate * tree_predict(tree, X)
    return out


def fit_forest_nodes(X: np.ndarray, y: np.ndarray, n_estimators: int, max_depth: int,
                     seed: int) -> List[Tuple[_Node, np.random.Generator]]:
    """A default-parameter RFR as ``(root, per-tree generator)`` pairs."""
    template = RandomForestRegressor(n_estimators=n_estimators, max_depth=max_depth, seed=seed)
    splitter = DecisionTreeRegressor(
        max_depth=max_depth, min_samples_leaf=template.min_samples_leaf,
        max_features=template._resolve_max_features(X.shape[1]),
    )
    rng = get_rng(seed)
    out = []
    for _ in range(n_estimators):
        idx = rng.integers(0, len(X), size=len(X))
        tree_rng = get_rng(rng.integers(0, 2**31))
        out.append((fit_nodes(splitter, X[idx], y[idx], tree_rng), tree_rng))
    return out


# ----------------------------------------------------------------------
# The scalar ACG
# ----------------------------------------------------------------------
def scalar_from_vector(vector: Sequence[float]) -> SparkConf:
    """Per-knob clip then a validating ``SparkConf`` (bools in ``[0, 1]``)."""
    return SparkConf({spec.name: spec.clip(v) for spec, v in zip(KNOB_SPECS, vector)})


class ScalarACG:
    """One ``_Node`` forest per knob, walked and sampled one scalar at a time.

    Fitted from the same runs as ``acg`` (whose unchanged featuriser and
    sigmas it reuses), so its output must equal ``acg``'s bit for bit.
    """

    def __init__(self, acg: AdaptiveCandidateGenerator, runs):
        self.acg = acg
        good = acg._top_instances(runs)
        X = np.stack([acg.featurizer_.vector(r.app_name, r.data_features[0]) for r in good])
        knobs = np.stack([r.conf.to_vector() for r in good])
        self.n_features = X.shape[1]
        self.forests = [
            fit_forest_nodes(X, knobs[:, d], acg.n_estimators, acg.max_depth, acg.seed + d)
            for d in range(NUM_KNOBS)
        ]

    def centers(self, app_name: str, datasize_rows: float) -> List[float]:
        x = self.acg.featurizer_.vector(app_name, datasize_rows)[None, :]
        return [
            float(np.stack([walk(root, x) for root, _ in forest], axis=0).mean(axis=0)[0])
            for forest in self.forests
        ]

    def region(self, app_name: str, datasize_rows: float) -> List[Tuple[float, float]]:
        bounds = []
        for spec, center, sigma in zip(KNOB_SPECS, self.centers(app_name, datasize_rows),
                                       self.acg.sigma_):
            low = max(spec.low, center - sigma)
            high = min(spec.high, center + sigma)
            if low > high:
                low, high = spec.low, spec.high
            bounds.append((low, high))
        return bounds

    def predict_point(self, app_name: str, datasize_rows: float) -> SparkConf:
        return scalar_from_vector(np.array(self.centers(app_name, datasize_rows)))

    def generate(self, app_name: str, datasize_rows: float, n_candidates: int,
                 rng: np.random.Generator) -> List[SparkConf]:
        bounds = self.region(app_name, datasize_rows)
        return [
            scalar_from_vector(np.array([rng.uniform(low, high) for low, high in bounds]))
            for _ in range(n_candidates)
        ]

    def as_v7_state(self) -> dict:
        """The generator's forest attributes as a version-7 checkpoint held them."""
        forests = []
        for d, forest in enumerate(self.forests):
            trees = []
            for root, tree_rng in forest:
                tree = DecisionTreeRegressor.__new__(DecisionTreeRegressor)
                tree.__dict__.update(
                    max_depth=self.acg.max_depth, min_samples_split=2, min_samples_leaf=1,
                    max_features=max(1, int(np.sqrt(self.n_features))), rng=tree_rng,
                    _root=root, n_features_=self.n_features,
                )
                trees.append(tree)
            model = RandomForestRegressor.__new__(RandomForestRegressor)
            model.__dict__.update(
                n_estimators=self.acg.n_estimators, max_depth=self.acg.max_depth,
                min_samples_leaf=1, max_features="sqrt", seed=self.acg.seed + d, trees_=trees,
                n_features_=self.n_features,
            )
            forests.append(model)
        return {"models_": forests}
