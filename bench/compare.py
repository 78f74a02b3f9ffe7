"""Compare two sets of benchmark runs against their regression bounds.

Usage::

    python3 bench/compare.py A.json B.json

``A.json`` holds the parent's runs and ``B.json`` the change's, both as
written by ``bench/run.py --out``: at least :data:`MIN_RUNS` untraced runs
of each workload on each side.  The metrics compared are the end-to-end
metrics of ``BENCHMARK.json``, which every workload reports, and each
workload's own metrics (``harness.OWN_METRICS``, bound
``harness.OWN_BOUND``).  One row per workload, one verdict per metric:

- ``unresolved``: either side has fewer than :data:`MIN_RUNS` runs, or
  the run-to-run spread of either side is wider than the bound and no
  other verdict below applies first;
- ``worse``: B's median is worse than A's by more than the bound;
- ``better``: every B run beats every A run, or B wins at least 9 in 10
  of the pairs and the medians differ by more than A's spread;
- ``same``: none of the above.

Runs are paired by seed, in file order, so two runs with one seed on
each side make two pairs.  A row also reads ``worse`` when B's share of
failed operations is above A's.  Exits 1 when anything is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

from harness import OWN_BOUND, OWN_METRICS

ROOT = Path(__file__).resolve().parents[1]
MIN_RUNS = 10

Runs = List[Tuple[int, float]]   # (seed, value) per run, in file order


def spread(values: List[float]) -> float:
    """Distance between the quartiles, as a share of the median."""
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(statistics.median(values))


def pairs(a: Runs, b: Runs) -> List[Tuple[float, float]]:
    """(A, B) value pairs: the k-th A and k-th B run of each seed."""
    by_seed: Dict[int, List[float]] = defaultdict(list)
    for seed, value in a:
        by_seed[seed].append(value)
    out = []
    for seed, value in b:
        if by_seed[seed]:
            out.append((by_seed[seed].pop(0), value))
    return out


def verdict(a: Runs, b: Runs, bound: float, higher: bool) -> str:
    """Verdict with the relative change of the median (positive is better)."""
    va, vb = [v for _, v in a], [v for _, v in b]
    if min(len(va), len(vb)) < MIN_RUNS:
        return f"unresolved (n={len(va)}/{len(vb)})"
    sign = 1.0 if higher else -1.0
    med_a, med_b = statistics.median(va), statistics.median(vb)
    gain = sign * (med_b - med_a) / abs(med_a)
    wins = [sign * (y - x) > 0 for x, y in pairs(a, b)]
    if gain < -bound:
        label = "worse"
    elif all(sign * (y - x) > 0 for x in va for y in vb):
        label = "better"
    elif max(spread(va), spread(vb)) > bound:
        label = "unresolved"
    elif wins and sum(wins) >= 0.9 * len(wins) and gain > spread(va):
        label = "better"
    else:
        label = "same"
    return f"{label} ({gain:+.1%}, n={len(va)}/{len(vb)})"


def load(path: Path) -> Tuple[Dict[str, Dict[str, Runs]], Dict[str, List[int]]]:
    """workload -> metric -> runs, and workload -> [failed, attempted].

    Traced runs are skipped: their end-to-end half is shorter.
    """
    values: Dict[str, Dict[str, Runs]] = defaultdict(lambda: defaultdict(list))
    failures: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
    for run in json.loads(path.read_text())["runs"]:
        if run["trace"]:
            continue
        for name, m in run["metrics"].items():
            values[run["workload"]][name].append((run["seed"], m["value"]))
        failures[run["workload"]][0] += run["failed"]
        failures[run["workload"]][1] += run["attempted"]
    return values, failures


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (a, fail_a), (b, fail_b) = load(Path(argv[0])), load(Path(argv[1]))
    worse = False
    for w in spec["workloads"]:
        name = w["name"]
        if name not in a or name not in b:
            print(f"{name:<16} missing from {'A' if name not in a else 'B'}")
            continue
        gated = [(m["name"], m["bound"], m["better"] == "higher") for m in spec["end_to_end"]]
        gated += [(m, OWN_BOUND, better == "higher")
                  for m, (_, better) in OWN_METRICS[name].items()]
        cells = []
        for metric, bound, higher in gated:
            v = verdict(a[name][metric], b[name][metric], bound, higher)
            worse |= v.startswith("worse")
            cells.append(f"{metric}: {v}")
        (fa, na), (fb, nb) = fail_a[name], fail_b[name]
        if fb * na > fa * nb:
            worse = True
            cells.append(f"failed ops: worse ({fa}/{na} -> {fb}/{nb})")
        print(f"{name:<16} " + "  ".join(cells))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
