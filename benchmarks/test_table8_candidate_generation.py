"""Table VIII: evaluating Adaptive Candidate Generation.

(a) LITE's region-based generation vs. the bare RFR point prediction:
    the ETR and actual execution time of both on large jobs.
(b) ACG's sampling region vs. uniform random and Latin-hypercube sampling:
    the quality of the best candidate each sampling scheme offers the
    ranker (oracle-best within the sampled set), on cluster-C validation.

Shape assertions: the region beats the point prediction on mean ETR, and
ACG's candidate pools contain better configurations than uniform/LHS pools
of the same size.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.metrics import execution_time_reduction
from repro.sparksim import CLUSTER_C, EXECUTION_TIME_CAP_S, SparkConf
from repro.tuning.simple import lhs_configurations
from repro.workloads import all_workloads, get_workload

from conftest import print_table

APPS_A = ("WordCount", "PageRank", "KMeans", "Terasort", "SVM", "DecisionTree")
POOL = 16


def _time_of(wl, conf, scale, seed=1):
    run = wl.run(conf, CLUSTER_C, scale=scale, seed=seed)
    return min(run.duration_s, EXECUTION_TIME_CAP_S) if run.success else EXECUTION_TIME_CAP_S


@pytest.fixture(scope="module")
def part_a(lite_c):
    """LITE (region + NECS ranking) vs bare RFR point on large jobs."""
    rows = {}
    for name in APPS_A:
        wl = get_workload(name)
        data = wl.data_spec("test").features()
        rec = lite_c.recommend(name, data, CLUSTER_C, rng=np.random.default_rng(3))
        rfr_conf = lite_c.candidate_generator.predict_point(name, data[0])
        t_default = _time_of(wl, SparkConf.default(), "test")
        t_lite = _time_of(wl, rec.conf, "test")
        t_rfr = _time_of(wl, rfr_conf, "test")
        t_min = min(t_default, t_lite, t_rfr)
        rows[name] = {
            "t_lite": t_lite,
            "t_rfr": t_rfr,
            "etr_lite": execution_time_reduction(t_lite, t_default, t_min),
            "etr_rfr": execution_time_reduction(t_rfr, t_default, t_min),
        }
    return rows


@pytest.fixture(scope="module")
def part_b(lite_c):
    """Oracle-best candidate quality per sampling scheme (validation, C)."""
    out = {}
    rng = np.random.default_rng(5)
    for name in APPS_A:
        wl = get_workload(name)
        data = wl.data_spec("valid").features()
        pools = {
            "ACG": SparkConf.from_matrix(
                lite_c.candidate_generator.generate(name, data[0], POOL, rng)
            ),
            "Random": [SparkConf.random(rng) for _ in range(POOL)],
            "LHS": lhs_configurations(POOL, rng),
        }
        out[name] = {
            scheme: min(_time_of(wl, conf, "valid") for conf in pool)
            for scheme, pool in pools.items()
        }
    return out


class TestTable8a:
    def test_print(self, part_a, benchmark):
        rows = [
            [app, f"{r['t_rfr']:.0f}", f"{r['t_lite']:.0f}",
             f"{r['etr_rfr']:.2f}", f"{r['etr_lite']:.2f}"]
            for app, r in part_a.items()
        ]
        rows.append([
            "MEAN",
            f"{np.mean([r['t_rfr'] for r in part_a.values()]):.0f}",
            f"{np.mean([r['t_lite'] for r in part_a.values()]):.0f}",
            f"{np.mean([r['etr_rfr'] for r in part_a.values()]):.2f}",
            f"{np.mean([r['etr_lite'] for r in part_a.values()]):.2f}",
        ])
        print_table("Table VIII(a): RFR point vs LITE region",
                    ["app", "t RFR (s)", "t LITE (s)", "ETR RFR", "ETR LITE"], rows)
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    def test_region_beats_point(self, part_a):
        mean_lite = np.mean([r["etr_lite"] for r in part_a.values()])
        mean_rfr = np.mean([r["etr_rfr"] for r in part_a.values()])
        print(f"\nmean ETR: LITE={mean_lite:.3f} RFR={mean_rfr:.3f}")
        # Paper: the region is safer than the single risky point.
        assert mean_lite > mean_rfr


class TestTable8b:
    def test_print(self, part_b):
        rows = [
            [app] + [f"{times[s]:.1f}" for s in ("ACG", "Random", "LHS")]
            for app, times in part_b.items()
        ]
        print_table("Table VIII(b): oracle-best candidate time by sampling scheme",
                    ["app", "ACG", "Random", "LHS"], rows)

    def test_acg_pools_contain_better_candidates(self, part_b):
        wins = 0
        for app, times in part_b.items():
            best_other = min(times["Random"], times["LHS"])
            if times["ACG"] <= best_other * 1.05:
                wins += 1
        # The adapted region is competitive-or-better on most applications.
        assert wins >= len(part_b) - 2, part_b

    def test_acg_better_on_average(self, part_b):
        # ACG's shrunken region must stay competitive with exploring the
        # whole space — while only covering a fraction of it (the paper's
        # point is reduced tuning overhead at equal-or-better quality).
        acg = np.mean([t["ACG"] for t in part_b.values()])
        rand = np.mean([t["Random"] for t in part_b.values()])
        lhs = np.mean([t["LHS"] for t in part_b.values()])
        assert acg <= 1.15 * min(rand, lhs)
