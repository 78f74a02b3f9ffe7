"""Knob recommendation by ranking candidate configurations (paper Eq. 5).

Given the stage templates of an application (its stage-level codes and
DAGs), each candidate configuration is scored by summing NECS's predicted
stage times with the candidate's knob vector, the target data features and
the target environment substituted in; candidates are ranked ascending.

The templates' code/DAG encodings (and their CNN/GCN embeddings) are
computed once — they are candidate-invariant — and every candidate
contributes only a numeric row, so ranking N candidates costs one
embedding pass plus one batched tower-MLP forward over ``N * n_stages``
rows.  The per-instance reference ranking (one retargeted
:class:`StageInstance` per template and candidate, re-encoded row by row)
lives in ``tests/necs_oracle.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace as dc_replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..obs import names as obsn
from ..sparksim.cluster import ClusterSpec
from ..sparksim.config import SparkConf, canonical_matrix
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
        candidates: np.ndarray,
        data_features: np.ndarray,
        cluster: ClusterSpec,
        encoded: Optional[EncodedTemplates] = None,
    ) -> Recommendation:
        """Serving fast path: encode templates once, score all candidates.

        ``candidates`` is an ``(n, 16)`` knob matrix, one candidate per row.
        It is passed through ``canonical_matrix`` (a no-op on ACG's rows)
        before scoring, so every ranked conf is exactly the vector NECS
        scored.

        ``encoded`` lets the caller (LITE) reuse a cached template encoding
        across calls; without it the templates are encoded here, which still
        amortises the code/DAG embeddings over all candidates.
        """
        return self.rank_many(
            templates, [candidates], [data_features], cluster, encoded=encoded,
        )[0]

    def rank_many(
        self,
        templates: Sequence[StageInstance],
        candidate_lists: Sequence[np.ndarray],
        data_features_list: Sequence[np.ndarray],
        cluster: ClusterSpec,
        encoded: Optional[EncodedTemplates] = None,
    ) -> List[Recommendation]:
        """Rank several candidate knob matrices against one template set.

        The micro-batching primitive: the templates are encoded (and their
        embeddings cast) once, then each matrix is scored by its own
        ``predict_encoded`` forward.  Per-list forwards, not one stacked
        batch, on purpose: BLAS kernel selection depends on the matmul's
        row count, and the float32 serving kernel is only bit-stable for
        *identical* shapes — so every query's tower forward must have
        exactly the shape a standalone :meth:`rank` over that list would
        issue.  That keeps each returned ranking bit-identical to the
        standalone call (``tests/serve/test_http.py`` checks the daemon's
        coalesced rankings against direct library calls).

        Each list's ``overhead_s`` runs from the end of the previous list
        (the first from the call's start, so an inline encode is charged
        to it), never across other queries' forwards.
        """
        if len(candidate_lists) == 0:
            raise ValueError("no candidate lists to rank")
        if len(candidate_lists) != len(data_features_list):
            raise ValueError("one data_features row is required per candidate list")
        for candidates in candidate_lists:
            if len(candidates) == 0:
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
                matrix = canonical_matrix(candidates)
                numeric = numeric_feature_rows(matrix, data_features, env)
                n_rows += int(numeric.shape[0])
                per_stage = self.estimator.predict_encoded(encoded, numeric)
                out.append(self._build(matrix, per_stage.sum(axis=1), start))
                start = time.perf_counter()
            if sp:
                sp.set(n_queries=len(candidate_lists),
                       n_candidates=n_rows,
                       n_stages=encoded.n_stages)
            return out

    @staticmethod
    def _build(
        candidates: np.ndarray, totals: np.ndarray, start: float
    ) -> Recommendation:
        """Order the knob rows by predicted time; only they become confs."""
        order = np.argsort(totals, kind="stable")
        ranking = list(zip(SparkConf.from_matrix(candidates[order]),
                           totals[order].tolist()))
        overhead = time.perf_counter() - start
        best_conf, best_time = ranking[0]
        return Recommendation(
            conf=best_conf,
            predicted_time_s=best_time,
            ranking=ranking,
            overhead_s=overhead,
        )
