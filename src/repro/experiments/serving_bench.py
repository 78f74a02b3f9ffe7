"""Serving-latency benchmark: the recommendation fast path and its tower
variants.

The fast path encodes each stage template once and scores all candidates
with a single batched tower-MLP forward.  This module measures three
tower paths on the same trained system and the same candidate list,
reports p50/p95 rank latency and candidates/sec, and emits
``BENCH_serving.json`` — the number the paper's low-overhead online-tuning
claim (Sec. V-I) lives or dies on.

The three paths, fastest first:

- ``fast`` — the serving default: float32 tower snapshot + fused no-tape
  kernels (or the ``dtype`` override, e.g. ``--dtype float64``);
- ``fast_float64`` — fused kernels at full precision (the float32 opt-out);
- ``fast_taped`` — float64 through the autograd tape, i.e. the fast path
  before the fused kernels landed.  The 1.8x serving floor is measured
  against *this* path.

The 1.8x gate times ``predict_encoded`` itself — the call the float32
fused kernels replaced — not the whole ``rank``: candidate vector
building, numeric featurisation and sorting are identical on both sides,
and folding that shared overhead into the ratio both dilutes it and makes
it hostage to scheduler noise on a busy runner.  The whole-rank
``fast_taped`` stats stay in the report as context.

Two exactness gates ride along: ``totals_bit_identical`` demands the fused
float64 kernels reproduce the taped float64 forward bit-for-bit (fusing
must not change arithmetic), and ``dtype_equivalence`` holds the float32
default to the serving contract — identical top-k order and a bounded
relative error against float64.

The per-instance reference ranking lives in ``tests/necs_oracle.py``;
``benchmarks/test_serving_latency.py`` times it against ``rank`` and
asserts the speedup floor.  Used by ``repro bench-recommend`` (CLI).
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, Optional, Sequence, Union

import numpy as np

from ..core.lite import LITE, LITEConfig
from ..core.necs import NECSConfig
from ..core.recommender import numeric_feature_rows
from ..core.update import UpdateConfig
from ..sparksim.cluster import ClusterSpec, get_cluster
from ..utils.rng import get_rng
from .report import write_bench_report

DEFAULT_OUT = "BENCH_serving.json"

#: p50 floor for the float32+fused serving path over the taped float64
#: path it replaced.  The gate is not hardware-conditional: the win comes
#: from dtype width and tape elimination, not core count.
DTYPE_SPEEDUP_FLOOR = 1.8

#: Max relative error the float32 path may show against float64 totals.
DTYPE_REL_ERR_BOUND = 1e-5

#: Ranking prefix that must match exactly between float32 and float64.
DTYPE_TOPK = 10


def build_serving_lite(smoke: bool = False, seed: int = 0) -> LITE:
    """A small trained LITE with architecturally complete NECS.

    The benchmark needs realistic featurisation cost, not model quality, so
    the corpus is small; smoke mode shrinks everything further for CI.
    """
    from ..experiments.collect import collect_training_runs
    from ..workloads import get_workload

    apps = ("PageRank",) if smoke else ("WordCount", "PageRank", "KMeans")
    scales = ("train0",) if smoke else ("train0", "train1")
    necs = NECSConfig(
        epochs=1 if smoke else 4,
        max_tokens=64 if smoke else 120,
        conv_filters=8 if smoke else 24,
        mlp_hidden=24 if smoke else 64,
        gcn_hidden=8 if smoke else 12,
        seed=seed,
    )
    cfg = LITEConfig(necs=necs, update=UpdateConfig(epochs=1), seed=seed)
    runs = collect_training_runs(
        workloads=[get_workload(a) for a in apps],
        clusters=[get_cluster("C")],
        scales=scales,
        confs_per_cell=2 if smoke else 4,
        seed=seed,
    )
    return LITE(cfg).offline_train(runs)


def _stats(samples_s: Sequence[float], n_candidates: int) -> Dict[str, float]:
    arr = np.asarray(samples_s, dtype=np.float64)
    p50 = float(np.percentile(arr, 50))
    return {
        "p50_ms": p50 * 1e3,
        "p95_ms": float(np.percentile(arr, 95)) * 1e3,
        "mean_ms": float(arr.mean()) * 1e3,
        "candidates_per_s": n_candidates / p50 if p50 > 0 else float("inf"),
    }


def measure_serving_latency(
    lite: LITE,
    app_name: str,
    cluster: ClusterSpec,
    scale: str = "test",
    n_candidates: int = 40,
    repeats: int = 20,
    seed: int = 0,
    dtype: Optional[str] = None,
) -> Dict[str, object]:
    """Time the three serving paths on identical candidates.

    ``dtype`` overrides the serving dtype of the ``fast`` path only
    (``None`` = the trained config's default, float32); the comparison
    paths are pinned so the report always carries the same evidence.
    """
    from ..workloads import get_workload

    workload = get_workload(app_name)
    data = workload.data_spec(scale).features()
    templates = lite.stage_templates(workload.name)
    rng = get_rng(seed)
    candidates = lite.candidate_generator.generate(
        workload.name, float(data[0]), n_candidates, rng
    )
    rec = lite.recommender
    encoded = lite.encoded_templates(workload.name)
    dtype_name = dtype or getattr(lite.config.necs, "serving_dtype", "float32")

    def rank_fast():
        return rec.rank(templates, candidates, data, cluster,
                        encoded=encoded, dtype=dtype_name)

    def rank_f64():
        return rec.rank(templates, candidates, data, cluster,
                        encoded=encoded, dtype="float64")

    def rank_taped():
        return rec.rank(templates, candidates, data, cluster,
                        encoded=encoded, dtype="float64", fused=False)

    # Warm every path (the first fast call pays the one-off template
    # encoding and dtype-cast caches) and keep the warm results — the
    # correctness gates compare these, not re-ranked copies.
    fast0, f64_0, taped0 = rank_fast(), rank_f64(), rank_taped()

    def timed(fn) -> list:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return times

    fast = _stats(timed(rank_fast), n_candidates)
    f64 = _stats(timed(rank_f64), n_candidates)
    taped = _stats(timed(rank_taped), n_candidates)

    # The gated comparison: the tower forward alone, fused serving dtype
    # vs. the taped float64 forward it replaced, on identical inputs.
    est = lite.estimator
    numeric = numeric_feature_rows(
        np.stack([conf.to_vector() for conf in candidates]),
        data, cluster.feature_vector(),
    )
    pe_fast = _stats(
        timed(lambda: est.predict_encoded(encoded, numeric, dtype=dtype_name)),
        n_candidates,
    )
    pe_taped = _stats(
        timed(lambda: est.predict_encoded(
            encoded, numeric, dtype="float64", fused=False)),
        n_candidates,
    )
    speedup_vs_taped = pe_taped["p50_ms"] / pe_fast["p50_ms"]

    def order(res):
        return [c for c, _ in res.ranking]

    def totals(res):
        return np.array([t for _, t in res.ranking], dtype=np.float64)

    # Bit-identity is a float64 contract: fusing the kernels must not
    # change arithmetic; float32 is held to the (looser) dtype_equivalence
    # contract below instead.
    totals_equal = bool(np.array_equal(totals(f64_0), totals(taped0)))
    k = min(DTYPE_TOPK, n_candidates)
    f64_totals, fast_totals = totals(f64_0), totals(fast0)
    max_rel_err = float(
        np.abs(fast_totals - f64_totals).max() / np.abs(f64_totals).min()
    )
    gate_enforced = dtype_name == "float32"
    return {
        "app": workload.name,
        "cluster": cluster.name,
        "scale": scale,
        "n_candidates": n_candidates,
        "n_stages": len(templates),
        "repeats": repeats,
        "dtype": dtype_name,
        "fast": fast,
        "fast_float64": f64,
        "fast_taped": taped,
        "predict_encoded": {"fast": pe_fast, "taped": pe_taped},
        "speedup_p50_vs_taped": speedup_vs_taped,
        "speedup_vs_taped_floor": DTYPE_SPEEDUP_FLOOR,
        "speedup_vs_taped_enforced": gate_enforced,
        "speedup_vs_taped_ok": bool(
            not gate_enforced or speedup_vs_taped >= DTYPE_SPEEDUP_FLOOR
        ),
        "totals_bit_identical": totals_equal,
        "dtype_equivalence": {
            "dtype": dtype_name,
            "topk": k,
            "topk_identical": order(fast0)[:k] == order(f64_0)[:k],
            "max_rel_err": max_rel_err,
            "rel_err_bound": DTYPE_REL_ERR_BOUND,
            "within_tolerance": bool(max_rel_err <= DTYPE_REL_ERR_BOUND),
        },
    }


def run_serving_benchmark(
    n_candidates: int = 40,
    repeats: int = 20,
    smoke: bool = False,
    seed: int = 0,
    out: Optional[Union[str, Path]] = DEFAULT_OUT,
    lite: Optional[LITE] = None,
    app_name: str = "PageRank",
    cluster_name: str = "C",
    dtype: Optional[str] = None,
) -> Dict[str, object]:
    """Train (or reuse) a small system, measure all paths, emit JSON."""
    if smoke:
        n_candidates = min(n_candidates, 8)
        repeats = min(repeats, 3)
    if lite is None:
        lite = build_serving_lite(smoke=smoke, seed=seed)
    result = measure_serving_latency(
        lite,
        app_name,
        get_cluster(cluster_name),
        n_candidates=n_candidates,
        repeats=repeats,
        seed=seed,
        dtype=dtype,
    )
    result["smoke"] = smoke
    if out is not None:
        path = write_bench_report(
            out, "serving", result,
            config={
                "n_candidates": n_candidates, "repeats": repeats,
                "smoke": smoke, "seed": seed,
                "app": app_name, "cluster": cluster_name,
                "dtype": dtype,
            },
        )
        result["out"] = str(path)
    return result
