"""LITE: the lightweight knob recommender system (paper Sec. II).

Ties everything together:

- **offline_train** — collect application runs on small datasizes, apply
  Stage-based Code Organization, train NECS, fit Adaptive Candidate
  Generation.
- **recommend** — for a (possibly never-seen) application on target data
  and environment: obtain stage templates (from the training corpus for
  warm-start applications, or from a cheap instrumented probe run on the
  smallest dataset for cold-start ones), generate candidates in the ACG
  region, rank them with NECS, return the best.
- **feedback** — accumulate target-domain runs; once a batch is collected,
  fine-tune NECS via Adaptive Model Update.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..utils.retry import RetryPolicy, retry_run
from ..utils.rng import derive

from .. import obs
from ..obs import names as obsn
from ..obs.drift import (
    REL_ERR_FLOOR_S,
    DriftStats,
    KeyedDriftMonitor,
    TaskSwitchDetector,
)
from ..sparksim.cluster import ClusterSpec
from ..sparksim.config import KNOB_NAMES, KNOB_SPECS, SparkConf, canonical_matrix
from ..sparksim.costmodel import hostable_mask
from ..sparksim.eventlog import AppRun
from .candidates import AdaptiveCandidateGenerator
from .instances import StageInstance, build_dataset, instances_from_run
from .necs import EncodedTemplates, NECSConfig, NECSEstimator
from .recommender import KnobRecommender, Recommendation
from .transfer import TransferConfig, TransferPlan, build_transfer_plan
from .update import AdaptiveModelUpdater, UpdateConfig


@dataclass
class LITEConfig:
    necs: NECSConfig = field(default_factory=NECSConfig)
    update: UpdateConfig = field(default_factory=UpdateConfig)
    n_candidates: int = 40
    feedback_batch_size: int = 20   # AMU runs when this many feedback runs arrive
    #: Drift-monitor shape (see :class:`repro.obs.drift.DriftMonitor`):
    #: rolling window of predicted-vs-actual stage times recorded by
    #: ``feedback``, summarised by ``drift_stats()``/``should_update()``.
    drift_window: int = 256
    drift_min_samples: int = 10
    drift_rel_err_threshold: float = 0.35
    drift_p_threshold: float = 0.01
    #: Per-app drift windows kept by the keyed monitor (LRU-evicted).
    drift_max_apps: int = 32
    #: Task-switch detection + transfer warm start (ATO-style, see
    #: :class:`repro.obs.drift.TaskSwitchDetector` and
    #: :mod:`repro.core.transfer`).  Default-off: with
    #: ``switch_detection=False`` the detector never observes and the
    #: feedback/update path is bit-identical to the pre-switch system.
    switch_detection: bool = False
    #: When a pending switch exists, trigger the warm-started update from
    #: inside ``feedback`` (set False to detect but drive updates manually).
    switch_auto_update: bool = True
    switch_context_window: int = 5
    switch_baseline_window: int = 20
    switch_min_baseline: int = 8
    switch_z_threshold: float = 4.0
    switch_std_floor: float = 0.02
    #: Transfer warm start: donors spliced into the post-switch update
    #: corpus.  ``transfer_top_k=0`` detects switches but retrains blind.
    transfer_top_k: int = 2
    transfer_max_instances: int = 200
    transfer_min_similarity: float = 0.0
    seed: int = 0


@dataclass
class RecommendQuery:
    """One recommendation request inside a :meth:`LITE.recommend_many` batch."""

    data_features: np.ndarray
    n_candidates: Optional[int] = None
    rng: Optional[np.random.Generator] = None


class LITE:
    """The end-to-end tuning system.

    Thread safety: one instance may serve concurrent ``recommend`` /
    ``feedback`` / ``stats`` callers (the multi-tenant daemon in
    :mod:`repro.serve` runs one LITE per tenant under a thread pool).
    All mutation of per-instance serving state — the template/encoding
    caches, the probe-overhead ledger, the recommendation substream
    counters and the feedback corpus — is serialised by ``self._lock``
    (an ``RLock``: ``feedback`` holds it across ``adaptive_update``).
    Default-rng recommendations draw from a per-application substream
    ``derive(seed, "recommend", app, call_index)`` so each tenant's
    ranking sequence is deterministic and independent of every other
    application's call volume or thread interleaving.
    """

    def __init__(self, config: LITEConfig = None):
        self.config = config or LITEConfig()
        self.estimator = NECSEstimator(self.config.necs)
        self.candidate_generator = AdaptiveCandidateGenerator(seed=self.config.seed)
        self.recommender = KnobRecommender(self.estimator)
        self._lock = threading.RLock()
        # Per-application call counters feeding the default-rng substreams:
        # building a fresh identically-seeded generator per recommend call
        # would make every default-rng recommendation sample the exact same
        # candidate set, and one shared advancing generator would make each
        # app's rankings depend on every *other* app's call history.
        self._recommend_seq: Dict[str, int] = {}
        self._templates: Dict[str, List[StageInstance]] = {}
        self._encoded: Dict[str, EncodedTemplates] = {}
        self._probe_overhead: Dict[str, float] = {}
        self._source_instances: List[StageInstance] = []
        self._feedback_runs: List[AppRun] = []
        self._feedback_instances: List[StageInstance] = []
        self._target_instances: List[StageInstance] = []
        self.drift = KeyedDriftMonitor(
            window=self.config.drift_window,
            min_samples=self.config.drift_min_samples,
            rel_err_threshold=self.config.drift_rel_err_threshold,
            p_threshold=self.config.drift_p_threshold,
            max_apps=self.config.drift_max_apps,
        )
        self.task_switch = TaskSwitchDetector(
            context_window=self.config.switch_context_window,
            baseline_window=self.config.switch_baseline_window,
            min_baseline=self.config.switch_min_baseline,
            z_threshold=self.config.switch_z_threshold,
            std_floor=self.config.switch_std_floor,
            max_apps=self.config.drift_max_apps,
        )
        #: Summary of the most recent transfer warm start (None until a
        #: switch-triggered update runs); surfaced by the serving stats.
        self.last_transfer: Optional[Dict[str, object]] = None
        self.trained = False

    # ------------------------------------------------------------------
    # Pickling: locks are per-process, not part of the model state.
    # ------------------------------------------------------------------
    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_lock", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.RLock()

    def clear_serving_caches(self) -> None:
        """Drop the per-app encoded-template caches.

        The serving registry calls this on tenant eviction so the LRU
        budget releases the encoder outputs, which dominate a hot
        tenant's memory footprint; the caches repopulate lazily on the
        next recommend.
        """
        with self._lock:
            self._encoded.clear()
            # The float32 tower snapshot is derived state too.
            self.estimator._serving_snapshot = None

    # ------------------------------------------------------------------
    # Offline phase
    # ------------------------------------------------------------------
    def offline_train(self, runs: Sequence[AppRun], verbose: bool = False) -> "LITE":
        """Train NECS and ACG from small-datasize training runs."""
        with obs.span(obsn.SPAN_OFFLINE_TRAIN) as sp:
            with obs.span(obsn.SPAN_FEATURISE) as fsp:
                instances = build_dataset(runs)
                if fsp:
                    fsp.set(n_runs=len(runs), n_instances=len(instances))
            if not instances:
                raise ValueError("training runs produced no stage instances")
            self.estimator.fit(instances, verbose=verbose)
            with obs.span(obsn.SPAN_ACG_FIT):
                self.candidate_generator.fit(list(runs))
            with self._lock:
                self._source_instances = instances
                self._templates = {}
                self._encoded = {}
                for run in runs:
                    if run.success:
                        current = self._templates.get(run.app_name)
                        # Keep the structurally richest run as the template
                        # source.
                        if current is None or run.num_stages > len(current):
                            self._templates[run.app_name] = instances_from_run(run)
            self.trained = True
            if sp:
                sp.set(n_runs=len(runs), n_instances=len(instances),
                       n_apps=len(self._templates))
        return self

    # ------------------------------------------------------------------
    # Stage templates (warm start / cold start)
    # ------------------------------------------------------------------
    def known_apps(self) -> List[str]:
        return sorted(self._templates)

    def stage_templates(self, app_name: str) -> List[StageInstance]:
        if app_name not in self._templates:
            raise KeyError(
                f"{app_name!r} has no stage templates; run cold_start_probe first"
            )
        return self._templates[app_name]

    def encoded_templates(self, app_name: str) -> EncodedTemplates:
        """Cached per-app template encoding for the serving fast path.

        Entries carry the estimator version they were encoded at, so any
        ``fit``/``adaptive_update`` (which bumps the version) makes them
        stale and they are re-encoded here on next use; replacing an app's
        templates (``cold_start_probe``) drops its entry directly.
        """
        return self._encoded_with_status(app_name)[0]

    def _encoded_with_status(
        self, app_name: str
    ) -> Tuple[EncodedTemplates, bool, float]:
        """``(encoded, cache_hit, encode_overhead_s)`` for one app.

        A cold encode warms the CNN/GCN template embeddings inside the
        timed section, so its full cost is attributed here (and recorded
        on the returned :class:`Recommendation`) instead of leaking into
        the first ``rank`` after a miss or a version-bump invalidation.

        The whole check-then-encode-then-insert runs under the instance
        lock: two concurrent misses for one app would otherwise both
        encode and clobber each other's insert.
        """
        with self._lock:
            cached = self._encoded.get(app_name)
            if cached is not None and cached.version == self.estimator.version:
                obs.counter(obsn.CTR_CACHE_HIT).inc()
                return cached, True, 0.0
            if cached is None:
                obs.counter(obsn.CTR_CACHE_MISS).inc()
            else:
                obs.counter(obsn.CTR_CACHE_INVALIDATION).inc()
            t0 = time.perf_counter()
            cached = self.estimator.encode_templates(self.stage_templates(app_name))
            # Fills the CNN/GCN embeddings *and* the serving-dtype cast +
            # tower snapshot, so the first rank after a miss pays nothing.
            self.estimator.warm_serving(cached)
            encode_s = time.perf_counter() - t0
            self._encoded[app_name] = cached
            return cached, False, encode_s

    def cold_start_probe(
        self,
        workload,
        cluster: ClusterSpec,
        seed: int = 0,
        fault_injector=None,
        retry: Optional[RetryPolicy] = None,
    ) -> float:
        """Run a never-seen application once on the smallest dataset with
        instrumentation to obtain stage-level codes and DAGs (Sec. IV Step 1).

        Returns the probe's simulated execution time (the extra tuning
        overhead the paper discusses in Sec. V-I), which is also carried
        into the next ``recommend`` for this app as ``probe_overhead_s``.
        Raises ``RuntimeError`` when both the default and the minimal safe
        configuration fail — a failed run has no stages to use as templates.

        ``fault_injector`` threads transient faults into the probe run;
        ``retry`` re-executes transiently-failed probes with budgeted
        exponential backoff, charging every attempt's execution time plus
        the (simulated) backoff delays to the probe overhead.  A truncated
        probe log is tolerated: the surviving stage prefix still seeds the
        template store, and the next successful full log (or re-probe)
        replaces it.
        """
        with obs.span(obsn.SPAN_COLD_START_PROBE) as sp:
            obs.counter(obsn.CTR_COLD_START_PROBES).inc()
            retry_rng = derive(self.config.seed, "probe-retry", workload.name)

            def probed(conf: SparkConf):
                outcome = retry_run(
                    lambda _attempt: workload.run(
                        conf, cluster, scale="train0", seed=seed,
                        fault_injector=fault_injector,
                    ),
                    retry, retry_rng,
                )
                return outcome.run, outcome.total_simulated_s

            run, probe_time = probed(SparkConf.default())
            if not run.success:
                # Defaults failed: probe with a minimal, safe configuration.
                safe = SparkConf({"spark.executor.instances": 1, "spark.executor.memory": 1})
                retry_run_, extra = probed(safe)
                probe_time += extra
                if not retry_run_.success:
                    raise RuntimeError(
                        f"cold-start probe failed twice for {workload.name!r} on "
                        f"cluster {cluster.name}: {run.failure_reason!r}, then "
                        f"{retry_run_.failure_reason!r} with the minimal configuration"
                    )
                run = retry_run_
            with self._lock:
                self._templates[workload.name] = instances_from_run(run)
                self._encoded.pop(workload.name, None)
                self._probe_overhead[workload.name] = probe_time
            if sp:
                sp.set(app=workload.name, probe_time_s=round(probe_time, 3))
        return probe_time

    # ------------------------------------------------------------------
    # Online phase
    # ------------------------------------------------------------------
    def recommend(
        self,
        app_name: str,
        data_features: np.ndarray,
        cluster: ClusterSpec,
        n_candidates: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> Recommendation:
        """Recommend knob values for an application on target data/cluster.

        A single call is exactly a one-element :meth:`recommend_many`
        batch, so serving-daemon micro-batches and direct library calls
        produce bit-identical rankings by construction.
        """
        return self.recommend_many(
            app_name,
            [RecommendQuery(data_features, n_candidates, rng)],
            cluster,
        )[0]

    def recommend_many(
        self,
        app_name: str,
        queries: Sequence[RecommendQuery],
        cluster: ClusterSpec,
    ) -> List[Recommendation]:
        """Answer several recommendation queries for one app in one forward.

        Candidate generation stays per-query (each query draws from its own
        RNG), but the template encoding is fetched once and every query's
        candidates are scored by a single ``predict_encoded`` call — the
        cross-request micro-batching primitive the serving daemon builds on.
        ``predict_encoded`` is row-wise bit-stable across batch sizes, so
        each query's ranking is identical to what a standalone
        :meth:`recommend` with the same RNG would return.
        """
        if not self.trained:
            raise RuntimeError("LITE must be trained before recommending")
        if not queries:
            raise ValueError("no recommendation queries")
        with obs.span(obsn.SPAN_RECOMMEND) as sp:
            obs.counter(obsn.CTR_RECOMMENDATIONS).inc(len(queries))
            prepared: List[Tuple[np.ndarray, int]] = []
            for q in queries:
                feats = np.atleast_1d(np.asarray(q.data_features, dtype=np.float64))
                if feats.size == 0:
                    raise ValueError(
                        f"data_features for {app_name!r} is empty; expected at "
                        "least the datasize feature"
                    )
                if q.n_candidates is None:
                    n = self.config.n_candidates
                else:
                    n = int(q.n_candidates)
                    if n < 1:
                        raise ValueError(
                            f"n_candidates must be >= 1, got {q.n_candidates!r}"
                        )
                prepared.append((feats, n))
            with self._lock:
                rngs: List[np.random.Generator] = []
                for q in queries:
                    if q.rng is not None:
                        rngs.append(q.rng)
                        continue
                    seq = self._recommend_seq.get(app_name, 0)
                    self._recommend_seq[app_name] = seq + 1
                    rngs.append(
                        derive(self.config.seed, "recommend", app_name, str(seq))
                    )
            per_query: List[np.ndarray] = []
            generate_s: List[float] = []
            n_hostable = n_fallback = 0
            for (feats, n), rng in zip(prepared, rngs):
                t0 = time.perf_counter()
                candidates = self.candidate_generator.generate(
                    app_name, float(feats[0]), n, rng
                )
                # Free submit-time validity check (what spark-submit/YARN
                # would reject immediately): drop candidates the cluster
                # cannot host.
                hostable = candidates[hostable_mask(candidates, cluster)]
                n_hostable += len(hostable)
                if len(hostable) == 0:
                    # The ACG region was learned on the training clusters and
                    # can sit entirely outside what this cluster hosts; never
                    # rank (and recommend) confs that would be rejected at
                    # submit time — widen to the full knob ranges instead.
                    hostable = self._sample_hostable(cluster, n, rng)
                    n_fallback += 1
                per_query.append(hostable)
                generate_s.append(time.perf_counter() - t0)
            templates = self.stage_templates(app_name)
            encoded, cache_hit, encode_s = self._encoded_with_status(app_name)
            recs = self.recommender.rank_many(
                templates, per_query, [p[0] for p in prepared], cluster,
                encoded=encoded,
            )
            with self._lock:
                probe_s = self._probe_overhead.pop(app_name, 0.0)
            for i, (rec, gen_s) in enumerate(zip(recs, generate_s)):
                # Candidate generation (region, sampling, hostable filter,
                # full-range fallback) is this query's own tuning cost.
                rec.overhead_s += gen_s
                # A cold encode (first use, or a fit/adaptive-update version
                # bump) is real serving latency but not ranking latency:
                # report it on its own field instead of folding it into
                # overhead_s.  In a batch both one-off costs belong to the
                # first query, mirroring what sequential calls would see.
                rec.template_cache_hit = cache_hit
                rec.encode_overhead_s = encode_s if i == 0 else 0.0
                # The first recommendation after a cold-start probe carries
                # the probe's cost (counting it on every call would
                # double-book it).
                rec.probe_overhead_s = probe_s if i == 0 else 0.0
            if sp:
                # n_hostable counts ACG rows that passed the mask; a query
                # whose region hosts nothing adds 0 there and 1 to n_fallback.
                sp.set(app=app_name, n_queries=len(queries),
                       n_candidates=sum(len(h) for h in per_query),
                       n_hostable=n_hostable, n_fallback=n_fallback,
                       cache_hit=cache_hit)
        return recs

    def _sample_hostable(
        self, cluster: ClusterSpec, n: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Full-range fallback sampling when the ACG region is unhostable.

        One capped draw of ``max(20n, 200)`` rows, one column per knob
        (bools from ``integers(0, 2)``, int knobs rounded), with the
        resource knobs additionally capped at the cluster's physical
        capacity.  Caps clip back into the legal knob range, so a cluster
        smaller than the smallest legal driver/executor still yields
        nothing and raises.  Returns the first ``n`` hostable rows.
        """
        draws = max(20 * n, 200)
        columns = []
        for spec in KNOB_SPECS:
            if spec.kind == "bool":
                columns.append(rng.integers(0, 2, size=draws).astype(np.float64))
            else:
                values = rng.uniform(spec.low, spec.high, size=draws)
                columns.append(np.rint(values) if spec.kind == "int" else values)
        matrix = np.column_stack(columns)
        caps = {
            "spark.driver.cores": float(cluster.cores_per_node),
            "spark.driver.memory": cluster.memory_gb_per_node,
            "spark.executor.cores": float(cluster.cores_per_node),
            # Headroom for the driver and off-heap overhead on the
            # (possibly only) node hosting both.
            "spark.executor.memory": cluster.memory_gb_per_node - 1.5,
            "spark.executor.memoryOverhead": 512.0,
        }
        for name, cap in caps.items():
            col = KNOB_NAMES.index(name)
            matrix[:, col] = np.minimum(matrix[:, col], cap)
        matrix = canonical_matrix(matrix)
        hostable = matrix[hostable_mask(matrix, cluster)][:n]
        if len(hostable) == 0:
            raise RuntimeError(
                f"no hostable configuration found for cluster {cluster.name}: "
                "every sampled candidate was rejected at submit time"
            )
        return hostable

    # ------------------------------------------------------------------
    # Feedback / adaptive model update
    # ------------------------------------------------------------------
    def feedback(self, run: AppRun, update_now: bool = False) -> bool:
        """Record a production run; fine-tune when a batch is complete.

        Every successful run also lands in the drift monitor: the
        estimator's predicted stage times (under the run's actual
        configuration, data and cluster) are paired with the observed
        stage times, so :meth:`drift_stats`/:meth:`should_update` always
        describe the most recent production window.

        Returns True when an adaptive update was performed.

        Runs with truncated event logs (transient fault: the log lost its
        trailing stages) still contribute their surviving stage instances
        to the feedback corpus, but are skipped by the drift monitor — a
        partial run's predicted-vs-actual pairs would compare against an
        incomplete picture of the application.
        """
        with obs.span(obsn.SPAN_FEEDBACK) as sp:
            obs.counter(obsn.CTR_FEEDBACK_RUNS).inc()
            with self._lock:
                if run.success:
                    instances = instances_from_run(run)
                    self._feedback_runs.append(run)
                    self._feedback_instances.extend(instances)
                    if getattr(run, "truncated", False):
                        obs.counter(obsn.CTR_FEEDBACK_TRUNCATED).inc()
                    else:
                        self._record_drift(instances)
                else:
                    obs.counter(obsn.CTR_FEEDBACK_FAILED).inc()
                ready = len(self._feedback_runs) >= self.config.feedback_batch_size
                updated = False
                # A detected task switch retrains immediately (warm-started)
                # instead of waiting out the batch: the old model is chasing
                # a regime that no longer exists.
                switch_pending = (
                    self.config.switch_detection
                    and self.config.switch_auto_update
                    and self.task_switch.pending(run.app_name)
                )
                # An explicit update request must retrain even when the current
                # batch is empty but earlier batches were retained: the caller
                # asked for a refresh of the model on everything seen so far.
                triggered = (
                    (ready and bool(self._feedback_instances))
                    or (update_now and bool(self._feedback_instances or self._target_instances))
                    or (switch_pending and bool(self._feedback_instances or self._target_instances))
                )
                if triggered:
                    plan: Optional[TransferPlan] = None
                    if switch_pending:
                        self.task_switch.consume(run.app_name)
                        if self.config.transfer_top_k > 0:
                            plan = self.build_transfer_plan(run.app_name)
                    # Fold the consumed batch into the retained feedback
                    # corpus, so each update trains on *all* production
                    # feedback seen so far — consuming a batch must not make
                    # the model forget earlier rounds.
                    self._target_instances.extend(self._feedback_instances)
                    self._feedback_runs = []
                    self._feedback_instances = []
                    self.adaptive_update(self._target_instances, transfer=plan)
                    obs.counter(obsn.CTR_UPDATES_TRIGGERED).inc()
                    updated = True
            if sp:
                sp.set(app=run.app_name, success=run.success, updated=updated)
            return updated

    def _record_drift(self, instances: Sequence[StageInstance]) -> None:
        """Pair predicted and actual stage times into the rolling windows.

        Pairs land in the aggregate window (the old global trigger) *and*
        the run's app window, so one tenant's shift cannot move another
        tenant's per-app stats.  When switch detection is enabled, the
        run's mean signed relative error additionally feeds the per-app
        :class:`TaskSwitchDetector` as one run-level signal.
        """
        if self.estimator.network is None:
            # Feedback can legally arrive before NECS is fitted (tests,
            # pure-accumulation callers); there is no prediction to drift.
            return
        app = instances[0].app_name if instances else None
        # Re-entrant under feedback()'s lock; taken again here so a direct
        # caller gets the same predict-vs-record consistency.
        with self._lock:
            predicted = self.estimator.predict(list(instances))
            actual = np.array([inst.stage_time_s for inst in instances])
            self.drift.record(predicted, actual, app=app)
            stats = self.drift.stats()
            if self.config.switch_detection and app is not None:
                signal = float(np.mean(
                    (predicted - actual) / np.maximum(np.abs(actual), REL_ERR_FLOOR_S)
                ))
                if self.task_switch.observe(app, signal):
                    obs.counter(obsn.CTR_SWITCH_DETECTED).inc()
        obs.gauge(obsn.GAUGE_DRIFT_N).set(stats.n)
        obs.gauge(obsn.GAUGE_DRIFT_SIGNED_ERR).set(stats.mean_signed_rel_err)
        obs.gauge(obsn.GAUGE_DRIFT_P).set(stats.wilcoxon_p)

    def drift_stats(self, app: Optional[str] = None) -> DriftStats:
        """Drift summary: the global aggregate, or one app's own window."""
        if app is None:
            return self.drift.stats()
        return self.drift.app_stats(app)

    def should_update(self, app: Optional[str] = None) -> bool:
        """True when the drift window says ``adaptive_update`` is worth it.

        With an ``app``, asks that app's own window — the per-tenant
        trigger; without one, keeps the old global-aggregate semantics.
        """
        return self.drift_stats(app).drifted

    def drift_state(self) -> Dict[str, object]:
        """JSON-able per-app drift + task-switch snapshot (serving stats)."""
        return {
            "aggregate": self.drift.stats().to_dict(),
            "by_app": {
                app: stats.to_dict()
                for app, stats in self.drift.stats_by_app().items()
            },
            "switch": {
                "enabled": bool(self.config.switch_detection),
                "by_app": self.task_switch.state_by_app(),
                "last_transfer": self.last_transfer,
            },
        }

    def build_transfer_plan(self, app_name: str) -> TransferPlan:
        """Rank donors and gather instances to warm-start ``app_name``.

        The donor corpus is everything the system has retained: the
        offline training instances plus all accumulated feedback (both
        the consumed ``_target_instances`` and the still-batching
        ``_feedback_instances``), grouped by app.
        """
        with self._lock:
            corpus: Dict[str, List[StageInstance]] = {}
            for inst in (
                self._source_instances
                + self._target_instances
                + self._feedback_instances
            ):
                corpus.setdefault(inst.app_name, []).append(inst)
            cfg = TransferConfig(
                top_k=self.config.transfer_top_k,
                max_instances=self.config.transfer_max_instances,
                min_similarity=self.config.transfer_min_similarity,
            )
            return build_transfer_plan(
                self.estimator, self._templates, corpus, app_name, cfg
            )

    def adaptive_update(
        self,
        target_instances: Sequence[StageInstance],
        transfer: Optional[TransferPlan] = None,
    ) -> None:
        """Adversarial fine-tuning against the accumulated source domain.

        Trains on exactly the given target instances (callers doing one-off
        domain migrations control their own corpus); batched production
        feedback arrives here through :meth:`feedback`, which passes the
        full retained feedback corpus.  A ``transfer`` plan warm-starts the
        fine-tune by splicing the donors' instances ahead of the target
        corpus (capped and similarity-weighted by the plan builder).  The
        update bumps the estimator version, invalidating cached template
        encodings; the drift window deliberately survives the update —
        post-update feedback pairs will show whether the refresh actually
        closed the gap.
        """
        with obs.span(obsn.SPAN_ADAPTIVE_UPDATE) as sp:
            with self._lock:
                target = list(target_instances)
                n_transfer = 0
                if transfer is not None and transfer.instances:
                    target = list(transfer.instances) + target
                    n_transfer = len(transfer.instances)
                    self.last_transfer = transfer.summary()
                # Serialised against recommend: the update bumps the
                # estimator version mid-flight, and a concurrent encode
                # against half-updated weights would poison the cache.
                updater = AdaptiveModelUpdater(self.estimator, self.config.update)
                updater.update(self._source_instances, target)
            if sp:
                sp.set(n_source=len(self._source_instances),
                       n_target=len(target_instances),
                       n_transfer=n_transfer)
