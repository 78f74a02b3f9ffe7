"""Unit tests for the verdicts of ``compare.py``."""

import json

from compare import MIN_RUNS, load, pairs, verdict


def runs(values, seed=None):
    return [(i if seed is None else seed, v) for i, v in enumerate(values)]


def test_fewer_than_min_runs_is_unresolved_even_for_a_clear_gain():
    a, b = runs([10.0] * (MIN_RUNS - 1)), runs([5.0] * (MIN_RUNS - 1))
    assert verdict(a, b, 0.10, higher=False).startswith("unresolved")


def test_every_b_beating_every_a_is_better():
    a = runs([10.0 + 0.1 * i for i in range(MIN_RUNS)])
    b = runs([9.0 + 0.1 * i for i in range(MIN_RUNS)])
    assert verdict(a, b, 0.10, higher=False).startswith("better")


def test_median_worse_by_more_than_the_bound_is_worse():
    a = runs([10.0 + 0.01 * i for i in range(MIN_RUNS)])
    b = runs([11.5 + 0.01 * i for i in range(MIN_RUNS)])
    assert verdict(a, b, 0.10, higher=False).startswith("worse")
    assert verdict(b, a, 0.10, higher=True).startswith("worse")


def test_small_change_within_the_spread_is_same():
    values = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
    a = runs(values)
    b = runs([v * 1.001 for v in reversed(values)])
    assert verdict(a, b, 0.10, higher=False).startswith("same")


def test_runs_with_one_seed_are_all_kept_and_paired_in_order(tmp_path):
    path = tmp_path / "runs.json"
    path.write_text(json.dumps({"runs": [
        {"workload": "w", "seed": 7, "trace": False, "failed": 0, "attempted": 5,
         "metrics": {"p50_ms": {"value": float(i), "unit": "ms"}}}
        for i in range(3)
    ] + [{"workload": "w", "seed": 7, "trace": True, "failed": 0, "attempted": 5,
          "metrics": {"p50_ms": {"value": 99.0, "unit": "ms"}}}]}))
    values, failures = load(path)
    assert values["w"]["p50_ms"] == [(7, 0.0), (7, 1.0), (7, 2.0)]
    assert failures["w"] == [0, 15]
    assert pairs(values["w"]["p50_ms"], [(7, 5.0), (7, 6.0), (8, 1.0)]) == [(0.0, 5.0),
                                                                             (1.0, 6.0)]
