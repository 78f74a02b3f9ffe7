"""Run the repository benchmark: four end-to-end LITE workloads.

Usage, from the repository root::

    python3 bench/run.py --workload NAME|all --seed N [--seconds S] [--trace 0|1] [--out FILE]

Every metric is printed with its name and unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics of ``BENCHMARK.json``, or with
``--trace 1`` its per-layer metrics).  ``--out`` appends the full result,
including each workload's own gated metrics and the printed extras, to a
JSON file that ``bench/compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    declared = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    results = []
    for name in names if args.workload == "all" else [args.workload]:
        result = harness.run_workload(name, args.seed, args.seconds, bool(args.trace))
        results.append(result)
        report(result)
    if args.out is not None:
        runs = json.loads(args.out.read_text())["runs"] if args.out.exists() else []
        runs += [r.to_dict() for r in results]
        args.out.write_text(json.dumps({"runs": runs}, indent=1) + "\n")

    metrics = {}
    for r in results:
        got = r.per_layer if args.trace else r.metrics
        prefix = "" if len(results) == 1 else r.workload + "/"
        for m in declared:
            value, unit = got[m["name"]]
            metrics[prefix + m["name"]] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": all(r.correct for r in results),
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": metrics,
    }))
    return 0


def report(r) -> None:
    tag = f"[{r.workload}]"
    for group in (r.metrics, r.extra, r.per_layer):
        for name, (value, unit) in group.items():
            print(f"{tag} {name} = {value:.6g} {unit}")
    print(f"{tag} attempted = {r.attempted}, failed = {r.failed}, correct = {r.correct}")
    for line in r.table:
        print(f"{tag} {line}")
    for error in r.errors[:10]:
        print(f"{tag} error: {error}")


if __name__ == "__main__":
    sys.exit(main())
