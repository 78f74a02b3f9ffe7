"""Serving fast-path latency (pre-encoded templates + single forward).

Ranking N candidates used to cost N full featurisation passes over the
same stage templates; the fast path encodes each template once and runs
one batched tower-MLP forward — now through a float32 snapshot of the
tower and fused no-tape kernels.  This benchmark measures the three tower
paths (float32 fused, float64 fused, float64 taped) on the acceptance
workload size (40 candidates x >= 5 stage templates), times the
per-instance reference ranking of ``tests/necs_oracle.py`` against the
same candidates, asserts the speedup floors, ranking equivalence and the
float32 serving contract, and records the numbers in
``BENCH_serving.json`` at the repository root.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.serving_bench import (
    DTYPE_SPEEDUP_FLOOR,
    build_serving_lite,
    run_serving_benchmark,
)
from repro.sparksim.cluster import get_cluster
from repro.utils.rng import get_rng
from repro.workloads import get_workload
from tests.necs_oracle import rank_per_instance

from conftest import print_table

SPEEDUP_FLOOR = 3.0
N_CANDIDATES, REPEATS, SEED, APP = 40, 15, 0, "PageRank"
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_serving.json"


@pytest.fixture(scope="module")
def lite():
    return build_serving_lite(seed=SEED)


@pytest.fixture(scope="module")
def serving_result(lite):
    return run_serving_benchmark(
        n_candidates=N_CANDIDATES, repeats=REPEATS, smoke=False, seed=SEED,
        out=OUT_PATH, lite=lite, app_name=APP,
    )


@pytest.fixture(scope="module")
def reference(lite, serving_result):
    """``rank`` (float32 and float64) and the oracle's per-instance ranking
    on the benchmark's candidates, with p50 timings of ``rank`` vs. oracle.

    Depends on ``serving_result`` so the report is always timed first: the
    oracle's large temporaries raise glibc's dynamic mmap threshold, which
    would speed up the report's taped arm if the oracle ran before it.
    """
    workload = get_workload(APP)
    cluster = get_cluster("C")
    data = workload.data_spec("test").features()
    templates = lite.stage_templates(workload.name)
    candidates = lite.candidate_generator.generate(
        workload.name, float(data[0]), N_CANDIDATES, get_rng(SEED)
    )
    rec, encoded = lite.recommender, lite.encoded_templates(workload.name)

    def rank(dtype=None):
        return rec.rank(templates, candidates, data, cluster,
                        encoded=encoded, dtype=dtype)

    def ref():
        return rank_per_instance(rec, templates, candidates, data, cluster)

    def p50_ms(fn):
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return float(np.percentile(times, 50)) * 1e3

    return {
        "fast": rank(), "float64": rank("float64"), "reference": ref(),
        "fast_p50_ms": p50_ms(rank), "reference_p50_ms": p50_ms(ref),
    }


def _order(res):
    return [c for c, _ in res.ranking]


def _totals(res):
    return np.array([t for _, t in res.ranking])


class TestServingLatency:
    def test_speedup_floor(self, serving_result, reference):
        fast, taped = serving_result["fast"], serving_result["fast_taped"]
        speedup = reference["reference_p50_ms"] / reference["fast_p50_ms"]
        print_table(
            "Serving latency: fast path vs. taped vs. per-instance oracle",
            ("path", "p50 ms", "p95 ms", "cand/s"),
            [
                ("fast (f32 fused)", f"{fast['p50_ms']:.2f}",
                 f"{fast['p95_ms']:.2f}", f"{fast['candidates_per_s']:.0f}"),
                ("taped (f64)", f"{taped['p50_ms']:.2f}",
                 f"{taped['p95_ms']:.2f}", f"{taped['candidates_per_s']:.0f}"),
                ("per-instance oracle", f"{reference['reference_p50_ms']:.2f}", "-", "-"),
            ],
        )
        print(f"speedup: {speedup:.1f}x (p50) vs per-instance, "
              f"{serving_result['speedup_p50_vs_taped']:.1f}x tower vs taped")
        assert serving_result["n_candidates"] == N_CANDIDATES
        assert serving_result["n_stages"] >= 5
        assert speedup >= SPEEDUP_FLOOR

    def test_dtype_speedup_floor_vs_taped(self, serving_result):
        # The PR-over-PR gate: the float32 fused tower forward must beat
        # the taped float64 forward it replaced by the serving floor.
        assert serving_result["dtype"] == "float32"
        assert serving_result["speedup_vs_taped_enforced"]
        assert serving_result["speedup_p50_vs_taped"] >= DTYPE_SPEEDUP_FLOOR
        assert serving_result["speedup_vs_taped_ok"]

    def test_rankings_equivalent(self, serving_result, reference):
        assert _order(reference["fast"]) == _order(reference["reference"])
        np.testing.assert_array_equal(
            _totals(reference["float64"]), _totals(reference["reference"]))
        assert serving_result["totals_bit_identical"]

    def test_float32_serving_contract(self, serving_result):
        eq = serving_result["dtype_equivalence"]
        assert eq["topk_identical"]
        assert eq["max_rel_err"] <= eq["rel_err_bound"]
        assert eq["within_tolerance"]

    def test_report_written(self, serving_result):
        report = json.loads(OUT_PATH.read_text())
        assert report["fast"]["p50_ms"] == serving_result["fast"]["p50_ms"]
        assert {"p50_ms", "p95_ms", "candidates_per_s"} <= set(report["fast"])
        assert {"fast", "taped"} <= set(report["predict_encoded"])
        assert report["dtype_equivalence"]["within_tolerance"]
