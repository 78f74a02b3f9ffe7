"""Adaptive Candidate Generation (paper Sec. IV-A).

For every knob d, a Random Forest Regression model maps (input datasize,
application) to a promising "mean value" (Eq. 6).  The search region is
``[RFR - sigma_d, RFR + sigma_d]`` (Eq. 7) where ``sigma_d`` is the
standard deviation of knob d over the top-40 % fastest training instances.
Candidates are then sampled uniformly inside the region, so the recommender
only has to rank a small, promising set.

The 16 forests are kept as one :class:`~repro.ml.tree.FlatTrees` node-array
set, so a region is one vectorised walk of all 16 x ``n_estimators`` trees
and a batch of candidates is one ``(n, 16)`` uniform draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ml.forest import RandomForestRegressor
from ..ml.tree import FlatTrees
from ..sparksim.config import KNOB_HIGHS, KNOB_LOWS, NUM_KNOBS, SparkConf, canonical_matrix
from ..sparksim.eventlog import AppRun

TOP_FRACTION = 0.4  # paper: top 40 % instances with lowest execution time


@dataclass
class _AppFeaturizer:
    """One-hot application encoding + log datasize."""

    app_names: List[str]

    def vector(self, app_name: str, datasize_rows: float) -> np.ndarray:
        onehot = np.zeros(len(self.app_names))
        if app_name in self.app_names:
            onehot[self.app_names.index(app_name)] = 1.0
        return np.concatenate([[np.log1p(datasize_rows)], onehot])


class AdaptiveCandidateGenerator:
    """Per-knob RFR + sigma span region, sampled uniformly."""

    def __init__(self, n_estimators: int = 25, max_depth: int = 6, seed: int = 0):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.seed = seed
        #: Every knob's forest in one node-array set; knob ``d``'s trees
        #: start at ``roots_[d]`` (shape ``(NUM_KNOBS, n_estimators)``).
        self.nodes_: Optional[FlatTrees] = None
        self.roots_: np.ndarray = np.zeros((0, 0), dtype=np.int64)
        self.sigma_: np.ndarray = np.zeros(NUM_KNOBS)
        self.featurizer_: Optional[_AppFeaturizer] = None

    # ------------------------------------------------------------------
    def fit(self, runs: Sequence[AppRun]) -> "AdaptiveCandidateGenerator":
        """Fit from application-level runs (knob vectors + execution times)."""
        good = self._top_instances(runs)
        if not good:
            raise ValueError("no successful runs to fit candidate generation")
        self.featurizer_ = _AppFeaturizer(sorted({r.app_name for r in runs}))
        X = np.stack(
            [self.featurizer_.vector(r.app_name, r.data_features[0]) for r in good]
        )
        knob_matrix = np.stack([r.conf.to_vector() for r in good])
        self.sigma_ = knob_matrix.std(axis=0)
        # Guard degenerate spans: fall back to 10 % of the knob range.
        ranges = KNOB_HIGHS - KNOB_LOWS
        self.sigma_ = np.where(self.sigma_ < 1e-9, 0.1 * ranges, self.sigma_)

        forests = [
            RandomForestRegressor(
                n_estimators=self.n_estimators, max_depth=self.max_depth, seed=self.seed + d
            ).fit(X, knob_matrix[:, d])
            for d in range(NUM_KNOBS)
        ]
        self.nodes_, offsets = FlatTrees.concat([f.nodes_ for f in forests])
        self.roots_ = np.stack([off + f.roots_ for off, f in zip(offsets, forests)])
        return self

    @staticmethod
    def _top_instances(runs: Sequence[AppRun]) -> List[AppRun]:
        """Top-40 % fastest successful runs within each (app, datasize)."""
        groups: Dict[Tuple[str, float], List[AppRun]] = {}
        for run in runs:
            if run.success:
                groups.setdefault((run.app_name, float(run.data_features[0])), []).append(run)
        selected: List[AppRun] = []
        for members in groups.values():
            members.sort(key=lambda r: r.duration_s)
            keep = max(1, int(np.ceil(TOP_FRACTION * len(members))))
            selected.extend(members[:keep])
        return selected

    # ------------------------------------------------------------------
    def _centers(self, app_name: str, datasize_rows: float) -> np.ndarray:
        """Every knob's RFR prediction (Eq. 6): its trees' mean leaf value."""
        if self.nodes_ is None:
            raise RuntimeError("candidate generator is not fitted")
        x = self.featurizer_.vector(app_name, datasize_rows)[None, :]
        starts = self.roots_.ravel()
        leaves = self.nodes_.leaf_values(x, np.zeros(len(starts), dtype=np.int64), starts)
        # Reduce each knob's trees as one C-contiguous row: the summation
        # order of a per-forest ``(n_trees, 1)`` stack, so seeded regions
        # stay bit-identical to per-forest ``RandomForestRegressor.predict``.
        return leaves.reshape(self.roots_.shape).mean(axis=1)

    def region(self, app_name: str, datasize_rows: float) -> List[Tuple[float, float]]:
        """The per-knob search interval [center - sigma, center + sigma]."""
        centers = self._centers(app_name, datasize_rows)
        lows = np.maximum(KNOB_LOWS, centers - self.sigma_)
        highs = np.minimum(KNOB_HIGHS, centers + self.sigma_)
        empty = lows > highs
        lows = np.where(empty, KNOB_LOWS, lows)
        highs = np.where(empty, KNOB_HIGHS, highs)
        return list(zip(lows.tolist(), highs.tolist()))

    def predict_point(self, app_name: str, datasize_rows: float) -> SparkConf:
        """The bare-RFR competitor: round the per-knob centers to a conf."""
        return SparkConf.from_vector(self._centers(app_name, datasize_rows))

    def generate(
        self,
        app_name: str,
        datasize_rows: float,
        n_candidates: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Sample ``n_candidates`` canonical knob vectors inside the region.

        One ``(n, 16)`` draw consumes ``rng`` candidate-major, exactly like
        a per-candidate, per-knob loop of scalar draws.  The rows are
        :func:`~repro.sparksim.config.canonical_matrix` vectors; only the
        ones finally ranked become :class:`SparkConf` objects.
        """
        lows, highs = np.array(self.region(app_name, datasize_rows)).T
        return canonical_matrix(
            rng.uniform(lows, highs, size=(n_candidates, NUM_KNOBS))
        )
