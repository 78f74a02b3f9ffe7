"""Knob recommendation by ranking candidate configurations (paper Eq. 5).

Given the stage templates of an application (its stage-level codes and
DAGs), each candidate configuration is scored by summing NECS's predicted
stage times with the candidate's knob vector, the target data features and
the target environment substituted in; candidates are ranked ascending.

Two ranking paths exist:

- :meth:`KnobRecommender.rank` — the serving fast path.  The templates'
  code/DAG encodings (and their CNN/GCN embeddings) are computed once —
  they are candidate-invariant — and every candidate contributes only a
  numeric row, so ranking N candidates costs one embedding pass plus one
  batched tower-MLP forward over ``N * n_stages`` rows.
- :meth:`KnobRecommender.rank_per_instance` — the reference path that
  materialises one :class:`StageInstance` copy per (template, candidate)
  pair and re-encodes everything through ``NECSEstimator.predict``.  Kept
  for the equivalence test and the serving-latency benchmark baseline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace as dc_replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..obs import names as obsn
from ..sparksim.cluster import ClusterSpec
from ..sparksim.config import SparkConf
from .instances import StageInstance, numeric_feature_rows
from .necs import EncodedTemplates, NECSEstimator


@dataclass
class Recommendation:
    """Result of one online recommendation."""

    conf: SparkConf
    predicted_time_s: float
    ranking: List[Tuple[SparkConf, float]]   # (conf, predicted app time) ascending
    #: Wall-clock tuning overhead (paper Sec. V-I): ranking, plus candidate
    #: generation and the hostability filter when produced by
    #: ``LITE.recommend_many``.  Encode and probe costs are reported apart.
    overhead_s: float
    probe_overhead_s: float = 0.0            # cold-start instrumentation cost
    #: Whether the serving template cache served this call (None when the
    #: recommendation was produced by a bare ``rank`` without the cache).
    template_cache_hit: Optional[bool] = None
    #: Wall-clock spent re-encoding templates on a miss/invalidation —
    #: separate from ``overhead_s`` so a version-bump re-encode is not
    #: silently attributed to rank latency.
    encode_overhead_s: float = 0.0


def retarget_instances(
    templates: Sequence[StageInstance],
    conf: SparkConf,
    data_features: np.ndarray,
    cluster: ClusterSpec,
) -> List[StageInstance]:
    """Stage instances with knobs/data/env swapped to the target setting."""
    knobs = conf.to_vector()
    env = cluster.feature_vector()
    return [
        dc_replace(
            t,
            knobs=knobs.copy(),
            data_features=np.asarray(data_features, dtype=np.float64).copy(),
            env_features=env.copy(),
        )
        for t in templates
    ]


class KnobRecommender:
    """Rank candidate configurations with a fitted NECS estimator."""

    def __init__(self, estimator: NECSEstimator):
        self.estimator = estimator

    def rank(
        self,
        templates: Sequence[StageInstance],
        candidates: Sequence[SparkConf],
        data_features: np.ndarray,
        cluster: ClusterSpec,
        encoded: Optional[EncodedTemplates] = None,
        dtype: Optional[str] = None,
        fused: bool = True,
    ) -> Recommendation:
        """Serving fast path: encode templates once, score all candidates.

        ``encoded`` lets the caller (LITE) reuse a cached template encoding
        across calls; without it the templates are encoded here, which still
        amortises the code/DAG embeddings over all candidates.

        ``dtype``/``fused`` select the tower path (see
        ``NECSEstimator.predict_encoded``): the default is the fused
        serving-dtype kernel; ``dtype="float64"`` pins full precision and
        ``fused=False`` keeps the taped reference forward.
        """
        return self.rank_many(
            templates, [candidates], [data_features], cluster, encoded=encoded,
            dtype=dtype, fused=fused,
        )[0]

    def rank_many(
        self,
        templates: Sequence[StageInstance],
        candidate_lists: Sequence[Sequence[SparkConf]],
        data_features_list: Sequence[np.ndarray],
        cluster: ClusterSpec,
        encoded: Optional[EncodedTemplates] = None,
        dtype: Optional[str] = None,
        fused: bool = True,
    ) -> List[Recommendation]:
        """Rank several candidate lists against one template set at once.

        The micro-batching primitive: the templates are encoded (and their
        embeddings cast) once, then each list is scored by its own
        ``predict_encoded`` forward.  Per-list forwards, not one stacked
        batch, on purpose: BLAS kernel selection depends on the matmul's
        row count, and the float32 serving kernel is only bit-stable for
        *identical* shapes — so every query's tower forward must have
        exactly the shape a standalone :meth:`rank` over that list would
        issue.  That keeps each returned ranking bit-identical to the
        standalone call, which the service benchmark gates on.
        """
        if not candidate_lists:
            raise ValueError("no candidate lists to rank")
        if len(candidate_lists) != len(data_features_list):
            raise ValueError("one data_features row is required per candidate list")
        for candidates in candidate_lists:
            if not candidates:
                raise ValueError("no candidate configurations")
        with obs.span(obsn.SPAN_RANK) as sp:
            start = time.perf_counter()
            if encoded is None:
                if not templates:
                    raise ValueError("no stage templates for the application")
                encoded = self.estimator.encode_templates(templates)

            env = cluster.feature_vector()
            out: List[Recommendation] = []
            n_rows = 0
            for candidates, data_features in zip(
                candidate_lists, data_features_list
            ):
                numeric = numeric_feature_rows(
                    np.stack([conf.to_vector() for conf in candidates]),
                    data_features, env,
                )
                n_rows += int(numeric.shape[0])
                per_stage = self.estimator.predict_encoded(
                    encoded, numeric, dtype=dtype, fused=fused
                )
                out.append(self._build(candidates, per_stage.sum(axis=1), start))
            if sp:
                sp.set(n_queries=len(candidate_lists),
                       n_candidates=n_rows,
                       n_stages=encoded.n_stages)
            return out

    def rank_per_instance(
        self,
        templates: Sequence[StageInstance],
        candidates: Sequence[SparkConf],
        data_features: np.ndarray,
        cluster: ClusterSpec,
    ) -> Recommendation:
        """Reference path: one retargeted StageInstance per (stage, candidate)."""
        if not templates:
            raise ValueError("no stage templates for the application")
        if not candidates:
            raise ValueError("no candidate configurations")
        start = time.perf_counter()

        batch: List[StageInstance] = []
        for conf in candidates:
            batch.extend(retarget_instances(templates, conf, data_features, cluster))
        # dedup=False: this path exists to show what ranking costs without
        # template reuse, so it must not silently benefit from it.
        predictions = self.estimator.predict(batch, dedup=False)

        totals = predictions.reshape(len(candidates), len(templates)).sum(axis=1)
        return self._build(candidates, totals, start)

    @staticmethod
    def _build(
        candidates: Sequence[SparkConf], totals: np.ndarray, start: float
    ) -> Recommendation:
        order = np.argsort(totals, kind="stable")
        ranking = [(candidates[i], float(totals[i])) for i in order]
        overhead = time.perf_counter() - start
        best_conf, best_time = ranking[0]
        return Recommendation(
            conf=best_conf,
            predicted_time_s=best_time,
            ranking=ranking,
            overhead_s=overhead,
        )
