"""Command-line interface for the LITE reproduction.

Commands
--------
- ``train``      collect a training corpus and offline-train LITE
- ``recommend``  load a trained system and recommend knobs for one app
- ``workloads``  list the available spark-bench applications
- ``run``        execute one application under a configuration file
- ``lint``       static analysis: autograd lint + knobs + concurrency readiness
- ``check-model`` static shape/graph check of the NECS variants
- ``stats``      run an observable lifecycle and report the obs metrics
- ``trace``      run an observable lifecycle with tracing, print the span tree
- ``serve``      run the multi-tenant HTTP serving daemon over saved models
- ``bench-recommend`` serving-latency benchmark (fused vs. taped tower)
- ``bench-train`` training-throughput benchmark (fit and adaptive update)
- ``bench-obs``  observability-overhead benchmark (suppressed/disabled/enabled)
- ``bench-chaos`` fault-injection harness: the full lifecycle under chaos
- ``bench-service`` serving-daemon benchmark (throughput/p99/bit-identity)
- ``bench-adapt`` task-switch detection + transfer warm-start benchmark

Progress chatter goes to stderr through the shared ``repro.obs.log``
logger (``-v`` for debug detail, ``-q`` for warnings only); results —
tables and ``--json`` payloads — go to stdout, so piping stays clean.

Examples
--------
::

    python -m repro.cli workloads
    python -m repro.cli train --cluster C --out lite.pkl --apps WordCount PageRank
    python -m repro.cli recommend --model lite.pkl --app PageRank --scale test
    python -m repro.cli run --app WordCount --scale train0 --set spark.executor.cores=4
    python -m repro.cli stats --json
    python -m repro.cli trace --min-ms 1 --jsonl trace.jsonl
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

import numpy as np

from . import obs
from .utils.rng import get_rng

_LOG = obs.log.get("cli")
_result = obs.log.result


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__.splitlines()[0])
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="more progress detail on stderr (repeatable)")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="only warnings and errors on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p_workloads = sub.add_parser("workloads", help="list available applications")

    p_train = sub.add_parser("train", help="collect a corpus and train LITE")
    p_train.add_argument("--cluster", default="C", choices=("A", "B", "C"))
    p_train.add_argument("--apps", nargs="*", default=None,
                         help="application names (default: all 15)")
    p_train.add_argument("--confs-per-cell", type=int, default=6)
    p_train.add_argument("--epochs", type=int, default=12)
    p_train.add_argument("--seed", type=int, default=7)
    p_train.add_argument("--out", required=True, help="path for the saved model")

    p_rec = sub.add_parser("recommend", help="recommend knobs for an application")
    p_rec.add_argument("--model", required=True, help="saved LITE model (from train)")
    p_rec.add_argument("--app", required=True)
    p_rec.add_argument("--cluster", default="C", choices=("A", "B", "C"))
    p_rec.add_argument("--scale", default="test",
                       help="datasize scale name (train0..train3, valid, test)")
    p_rec.add_argument("--candidates", type=int, default=None)
    p_rec.add_argument("--seed", type=int, default=0)
    p_rec.add_argument("--json", action="store_true", help="machine-readable output")

    p_run = sub.add_parser("run", help="execute one application on the simulator")
    p_run.add_argument("--app", required=True)
    p_run.add_argument("--cluster", default="C", choices=("A", "B", "C"))
    p_run.add_argument("--scale", default="train0")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--set", action="append", default=[], metavar="KNOB=VALUE",
                       help="knob override, repeatable")

    p_lint = sub.add_parser(
        "lint",
        help="static analysis: lint + knobs + concurrency readiness "
             "(exit 1 on findings, 2 on analysis errors)")
    p_lint.add_argument("paths", nargs="*", default=[],
                        help="files/directories to lint (default: the repro package)")
    p_lint.add_argument("--select", default=None,
                        help="comma-separated rule IDs or families to restrict to "
                             "(e.g. REP101,REP103 or REP4xx)")
    p_lint.add_argument("--fail-on", default="warning",
                        choices=("info", "warning", "error"),
                        help="lowest severity that fails the run")
    p_lint.add_argument("--format", default="text", dest="format",
                        choices=("text", "json", "sarif"),
                        help="output format (sarif for CI code-scanning upload)")
    p_lint.add_argument("--json", action="store_true",
                        help="machine-readable output (alias for --format json)")
    p_lint.add_argument("--baseline", default=None,
                        help="analysis-baseline.json with accepted hazards "
                             "(default: auto-discovered at the repo root)")
    p_lint.add_argument("--no-baseline", action="store_true",
                        help="report findings the baseline would suppress")
    p_lint.add_argument("--self-test", action="store_true",
                        help="verify every REP40x rule fires on a seeded-hazard "
                             "fixture, then exit (0 ok / 2 broken analysis)")

    p_check = sub.add_parser(
        "check-model",
        help="statically shape-check the NECS variants without a forward pass")
    p_check.add_argument("--encoders", nargs="*",
                         default=["cnn", "lstm", "transformer", "none"],
                         choices=("cnn", "lstm", "transformer", "none"),
                         help="code-encoder variants to check")
    p_check.add_argument("--inject-fault", action="store_true",
                         help="seed a known shape mismatch (the checker must flag it)")
    p_check.add_argument("--json", action="store_true", help="machine-readable output")

    p_stats = sub.add_parser(
        "stats",
        help="run a train/serve/feedback/update lifecycle and report obs metrics")
    p_stats.add_argument("--seed", type=int, default=0)
    p_stats.add_argument("--full", action="store_true",
                         help="larger corpus/model (default: smoke-sized)")
    p_stats.add_argument("--out", default=None,
                         help="also write the metrics snapshot as JSON to this path")
    p_stats.add_argument("--url", default=None, metavar="http://host:port",
                         help="fetch and render a live daemon's /v1/stats "
                              "(incl. SLO burn rates) instead of running a "
                              "local lifecycle")
    p_stats.add_argument("--json", action="store_true", help="machine-readable output")

    p_trace = sub.add_parser(
        "trace",
        help="run the same lifecycle with tracing enabled and print the span tree")
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument("--full", action="store_true",
                         help="larger corpus/model (default: smoke-sized)")
    p_trace.add_argument("--min-ms", type=float, default=0.0,
                         help="hide spans shorter than this many milliseconds")
    p_trace.add_argument("--jsonl", default=None,
                         help="also export the spans as JSON-lines to this path")

    p_bench = sub.add_parser(
        "bench-recommend",
        help="measure rank latency: fused float32/float64 vs. taped tower")
    p_bench.add_argument("--model", default=None,
                         help="saved LITE model to benchmark (default: train a small one)")
    p_bench.add_argument("--app", default="PageRank")
    p_bench.add_argument("--cluster", default="C", choices=("A", "B", "C"))
    p_bench.add_argument("--candidates", type=int, default=40)
    p_bench.add_argument("--repeats", type=int, default=20)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--dtype", default=None, choices=("float32", "float64"),
                         help="serving dtype for the fast path "
                              "(default: the trained config's, float32)")
    p_bench.add_argument("--smoke", action="store_true",
                         help="tiny corpus/model and few repeats (CI gate)")
    p_bench.add_argument("--out", default="BENCH_serving.json",
                         help="where to write the JSON report")
    p_bench.add_argument("--json", action="store_true", help="machine-readable output")

    p_btrain = sub.add_parser(
        "bench-train",
        help="measure training throughput: fit and adaptive update inst/s")
    p_btrain.add_argument("--epochs", type=int, default=4)
    p_btrain.add_argument("--update-epochs", type=int, default=2)
    p_btrain.add_argument("--seed", type=int, default=0)
    p_btrain.add_argument("--smoke", action="store_true",
                          help="tiny corpus and few epochs (CI gate)")
    p_btrain.add_argument("--out", default="BENCH_training.json",
                          help="where to write the JSON report")
    p_btrain.add_argument("--json", action="store_true", help="machine-readable output")

    p_bobs = sub.add_parser(
        "bench-obs",
        help="measure obs overhead: suppressed baseline vs. disabled vs. enabled")
    p_bobs.add_argument("--candidates", type=int, default=40)
    p_bobs.add_argument("--repeats", type=int, default=15)
    p_bobs.add_argument("--seed", type=int, default=0)
    p_bobs.add_argument("--smoke", action="store_true",
                        help="tiny corpus/model (CI gate)")
    p_bobs.add_argument("--out", default="BENCH_obs.json",
                        help="where to write the JSON report")
    p_bobs.add_argument("--json", action="store_true", help="machine-readable output")

    p_serve = sub.add_parser(
        "serve",
        help="serve one or more saved LITE models over HTTP (multi-tenant)")
    p_serve.add_argument("--model", action="append", default=[],
                         metavar="NAME=PATH",
                         help="tenant checkpoint as name=path (repeatable)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8080,
                         help="port to bind (0 = OS-assigned)")
    p_serve.add_argument("--max-tenants", type=int, default=4,
                         help="models kept loaded at once (LRU beyond this)")
    p_serve.add_argument("--max-inflight", type=int, default=16,
                         help="concurrent requests before shedding with 503")
    p_serve.add_argument("--quota-rps", type=float, default=None,
                         help="per-tenant sustained request rate; exhausted "
                              "tenants get 429 (default: quotas disabled)")
    p_serve.add_argument("--quota-burst", type=float, default=8.0,
                         help="per-tenant token-bucket burst capacity")
    p_serve.add_argument("--audit-log", default=None, metavar="PATH",
                         help="append one JSONL audit record per request "
                              "(tenant, route, status, latency, trace id)")

    p_bsvc = sub.add_parser(
        "bench-service",
        help="benchmark the serving daemon: throughput, p99, bit-identical "
             "rankings, eviction and load shedding")
    p_bsvc.add_argument("--tenants", type=int, default=2)
    p_bsvc.add_argument("--requests", type=int, default=200)
    p_bsvc.add_argument("--threads", type=int, default=4)
    p_bsvc.add_argument("--candidates", type=int, default=8)
    p_bsvc.add_argument("--seed", type=int, default=0)
    p_bsvc.add_argument("--smoke", action="store_true",
                        help="tiny tenants and few requests (CI gate)")
    p_bsvc.add_argument("--out", default="BENCH_service.json",
                        help="where to write the JSON report")
    p_bsvc.add_argument("--json", action="store_true", help="machine-readable output")

    p_chaos = sub.add_parser(
        "bench-chaos",
        help="run the full lifecycle under injected faults and assert "
             "graceful degradation")
    p_chaos.add_argument("--seed", type=int, default=0)
    p_chaos.add_argument("--cluster", default="C", choices=("A", "B", "C"))
    p_chaos.add_argument("--smoke", action="store_true",
                         help="tiny corpus/model and short schedules (CI gate)")
    p_chaos.add_argument("--out", default="BENCH_chaos.json",
                         help="where to write the JSON report")
    p_chaos.add_argument("--json", action="store_true", help="machine-readable output")

    p_adapt = sub.add_parser(
        "bench-adapt",
        help="task-switch detection + transfer warm start: post-switch "
             "error of warm vs from-scratch updates")
    p_adapt.add_argument("--seed", type=int, default=0)
    p_adapt.add_argument("--cluster", default="C", choices=("A", "B", "C"))
    p_adapt.add_argument("--smoke", action="store_true",
                         help="tiny corpus/model and short schedules (CI gate)")
    p_adapt.add_argument("--out", default="BENCH_adapt.json",
                         help="where to write the JSON report")
    p_adapt.add_argument("--json", action="store_true", help="machine-readable output")
    return parser


def _parse_conf(overrides: List[str]):
    from .sparksim.config import KNOB_BY_NAME, SparkConf

    values = {}
    for item in overrides:
        if "=" not in item:
            raise SystemExit(f"--set expects KNOB=VALUE, got {item!r}")
        name, raw = item.split("=", 1)
        spec = KNOB_BY_NAME.get(name)
        if spec is None:
            raise SystemExit(f"unknown knob {name!r}")
        if spec.kind == "bool":
            value = raw.strip().lower() in ("1", "true", "yes", "on")
        elif spec.kind == "int":
            value = int(raw)
        else:
            value = float(raw)
        values[name] = value
    return SparkConf(values)


def cmd_workloads(_args) -> int:
    from .workloads import all_workloads

    _result(f"{'abbrev':8s} {'name':30s} {'rows@1x':>10s} {'iters':>5s}")
    for wl in all_workloads():
        _result(f"{wl.abbrev:8s} {wl.name:30s} {wl.base_rows:10.0f} {wl.iterations:5d}")
    return 0


def cmd_train(args) -> int:
    from .core.lite import LITE, LITEConfig
    from .core.necs import NECSConfig
    from .core.persistence import save_lite
    from .experiments.collect import collect_training_runs
    from .sparksim.cluster import get_cluster
    from .workloads import get_workload

    cluster = get_cluster(args.cluster)
    workloads = [get_workload(n) for n in args.apps] if args.apps else None
    _LOG.info("collecting training runs on cluster %s...", cluster.name)
    t0 = time.time()
    runs = collect_training_runs(
        workloads=workloads, clusters=[cluster],
        confs_per_cell=args.confs_per_cell, seed=args.seed,
    )
    ok = sum(r.success for r in runs)
    _LOG.info("  %d runs (%d successful) in %.1fs", len(runs), ok, time.time() - t0)

    _LOG.info("training NECS + adaptive candidate generation...")
    t0 = time.time()
    lite = LITE(LITEConfig(necs=NECSConfig(epochs=args.epochs), seed=args.seed))
    lite.offline_train(runs, verbose=args.verbose > 0)
    _LOG.info("  trained in %.1fs (final loss %.4f)",
              time.time() - t0, lite.estimator.train_losses_[-1])
    path = save_lite(lite, args.out)
    _result(f"saved to {path}")
    return 0


def cmd_recommend(args) -> int:
    from .core.persistence import load_lite
    from .sparksim.cluster import get_cluster
    from .workloads import get_workload

    lite = load_lite(args.model)
    cluster = get_cluster(args.cluster)
    workload = get_workload(args.app)
    if workload.name not in lite.known_apps():
        _LOG.info("%s is new to this model: running a cold-start probe...",
                  workload.name)
        probe = lite.cold_start_probe(workload, cluster, seed=args.seed)
        _LOG.info("  probe took %.1f simulated seconds", probe)
    data = workload.data_spec(args.scale).features()
    rec = lite.recommend(
        workload.name, data, cluster,
        n_candidates=args.candidates, rng=get_rng(args.seed),
    )
    if args.json:
        _result(json.dumps({
            "app": workload.name,
            "cluster": cluster.name,
            "scale": args.scale,
            "conf": {k: v for k, v in rec.conf.as_dict().items()},
            "predicted_time_s": rec.predicted_time_s,
            "ranking_overhead_s": rec.overhead_s,
            "probe_overhead_s": rec.probe_overhead_s,
            "template_cache_hit": rec.template_cache_hit,
            "encode_overhead_s": rec.encode_overhead_s,
        }, indent=2, default=str))
    else:
        _result(f"recommended configuration for {workload.name} "
                f"({args.scale} on cluster {cluster.name}):")
        for knob, value in sorted(rec.conf.as_dict().items()):
            _result(f"  {knob} = {value}")
        cache = "hit" if rec.template_cache_hit else "cold encode"
        _result(f"predicted time: {rec.predicted_time_s:.1f}s "
                f"(sampled and ranked {len(rec.ranking)} candidates in {rec.overhead_s * 1e3:.0f} ms, "
                f"template cache: {cache})")
    return 0


def cmd_run(args) -> int:
    from .sparksim.cluster import get_cluster
    from .workloads import get_workload

    conf = _parse_conf(args.set)
    workload = get_workload(args.app)
    run = workload.run(conf, get_cluster(args.cluster), scale=args.scale, seed=args.seed)
    status = "OK" if run.success else f"FAILED ({run.failure_reason})"
    _result(f"{workload.name} @ {args.scale} on cluster {args.cluster}: {status}")
    _result(f"  simulated time: {run.duration_s:.1f}s over {run.num_stages} stages "
            f"({run.num_jobs} jobs, {run.skipped_stages} skipped stages)")
    return 0 if run.success else 1


def cmd_lint(args) -> int:
    from .analysis import run_lint
    from .analysis.runner import AnalysisError

    if args.self_test:
        from .analysis.selftest import run_self_test

        ok, lines = run_self_test()
        _result("\n".join(lines))
        return 0 if ok else 2

    select = [s.strip() for s in args.select.split(",")] if args.select else None
    fmt = "json" if args.json else args.format
    try:
        report = run_lint(
            args.paths or None, select=select,
            baseline=args.baseline, use_baseline=not args.no_baseline,
        )
    except (FileNotFoundError, ValueError, AnalysisError, SyntaxError) as exc:
        # Exit 2: the analysis could not run — CI must not read this as
        # either "clean" (0) or "dirty code" (1).
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    if fmt == "sarif":
        _result(report.format_sarif())
    elif fmt == "json":
        _result(report.format_json())
    else:
        _result(report.format_text())
    return report.exit_code(fail_on=args.fail_on)


def cmd_check_model(args) -> int:
    from .analysis import run_check_model

    report = run_check_model(encoders=args.encoders, inject_fault=args.inject_fault)
    _result(report.format_json() if args.json else report.format_text())
    return report.exit_code(fail_on="warning")


def _run_observed_lifecycle(args):
    """One full lifecycle (shared by stats/trace).

    Callers reset obs state first — stats wants fresh counters, trace
    additionally enables tracing, and a reset here would turn it back off.
    """
    from .experiments.lifecycle import run_lifecycle

    _LOG.info("running a %s train/serve/feedback/update lifecycle...",
              "full" if args.full else "smoke")
    t0 = time.time()
    summary = run_lifecycle(smoke=not args.full, seed=args.seed)
    _LOG.info("  lifecycle done in %.1fs", time.time() - t0)
    return summary


def _render_metrics(snapshot) -> None:
    """Print the counters/gauges/histograms sections of a metrics snapshot."""
    counters = {k: v for k, v in snapshot.items() if v["type"] == "counter"}
    gauges = {k: v for k, v in snapshot.items() if v["type"] == "gauge"}
    hists = {k: v for k, v in snapshot.items() if v["type"] == "histogram"}
    _result("counters:")
    for name, m in sorted(counters.items()):
        _result(f"  {name:44s} {m['value']:10d}")
    _result("gauges:")
    for name, m in sorted(gauges.items()):
        _result(f"  {name:44s} {m['value']:14.4f}")
    _result("histograms (seconds):")
    for name, m in sorted(hists.items()):
        _result(f"  {name:44s} n={m['count']:<6d} p50={m['p50']:.4g} "
                f"p95={m['p95']:.4g} p99={m['p99']:.4g}")


def _render_slo(slo) -> None:
    """Print a daemon's SLO evaluation (the /v1/stats "slo" block)."""
    alerting = slo.get("alerting") or []
    _result("slo:")
    for name, s in sorted(slo.get("slos", {}).items()):
        flag = "ALERTING" if s["alerting"] else "ok"
        _result(f"  {name:28s} target={s['target']:.4g} "
                f"good={s['good_total']} bad={s['bad_total']} "
                f"worst_burn={s['worst_burn_rate']:.2f} "
                f"budget_left={s['error_budget_remaining']:.2%} [{flag}]")
        for w in s["windows"]:
            _result(f"    {w['window']:8s} long {w['long_s']:g}s "
                    f"burn={w['long']['burn_rate']:.2f} | short {w['short_s']:g}s "
                    f"burn={w['short']['burn_rate']:.2f} "
                    f"(threshold {w['threshold']:g})")
    _result(f"  worst burn rate: {slo.get('worst_burn_rate', 0.0):.2f}; "
            f"alerting: {', '.join(alerting) if alerting else 'none'}")


def _stats_from_url(args) -> int:
    """Render a live daemon's /v1/stats instead of running a lifecycle."""
    import urllib.request

    from .utils.atomic import atomic_write_text

    url = args.url.rstrip("/") + "/v1/stats"
    _LOG.info("fetching %s ...", url)
    with urllib.request.urlopen(url, timeout=30) as resp:
        body = json.loads(resp.read().decode("utf-8"))
    if args.out:
        atomic_write_text(args.out, json.dumps(body, indent=2, default=str) + "\n")
        _LOG.info("stats written to %s", args.out)
    if args.json:
        _result(json.dumps(body, indent=2, default=str))
        return 0
    reg = body.get("registry", {})
    _result(f"daemon {args.url}: inflight {body.get('inflight')}/"
            f"{body.get('max_inflight')}, tenants loaded "
            f"{reg.get('loaded', reg)}")
    _result(f"trace id: {body.get('trace_id')}")
    _render_metrics(body.get("metrics", {}))
    if "slo" in body:
        _render_slo(body["slo"])
    return 0


def cmd_stats(args) -> int:
    if args.url:
        return _stats_from_url(args)
    obs.reset()
    summary = _run_observed_lifecycle(args)
    snapshot = obs.metrics_snapshot()
    if args.out:
        obs.export_metrics_json(args.out)
        _LOG.info("metrics snapshot written to %s", args.out)
    if args.json:
        _result(json.dumps(
            {"lifecycle": summary, "metrics": snapshot}, indent=2, default=str))
        return 0
    _render_metrics(snapshot)
    d = summary["drift"]
    _result(f"drift window: n={d['n']} signed_rel_err={d['mean_signed_rel_err']:+.3f} "
            f"wilcoxon_p={d['wilcoxon_p']:.3g} drifted={d['drifted']}")
    return 0


def cmd_trace(args) -> int:
    obs.reset()
    obs.enable_tracing()
    try:
        summary = _run_observed_lifecycle(args)
    finally:
        obs.disable_tracing()
    if args.jsonl:
        path = obs.export_trace_jsonl(args.jsonl)
        _LOG.info("%d spans exported to %s", len(obs.get_tracer()), path)
    _result(obs.format_trace_tree(min_duration_s=args.min_ms / 1e3))
    _result(f"\n{len(obs.get_tracer())} spans; adaptive update triggered: "
            f"{summary['adaptive_update_triggered']}")
    return 0


def cmd_bench_recommend(args) -> int:
    from .experiments.serving_bench import build_serving_lite, run_serving_benchmark

    if args.model:
        from .core.persistence import load_lite

        lite = load_lite(args.model)
    else:
        _LOG.info("training a small benchmark system...")
        lite = build_serving_lite(smoke=args.smoke, seed=args.seed)
    result = run_serving_benchmark(
        n_candidates=args.candidates, repeats=args.repeats, smoke=args.smoke,
        seed=args.seed, out=args.out, lite=lite,
        app_name=args.app, cluster_name=args.cluster, dtype=args.dtype,
    )
    eq = result["dtype_equivalence"]
    if args.json:
        _result(json.dumps(result, indent=2))
    else:
        fast, taped = result["fast"], result["fast_taped"]
        _result(f"serving latency for {result['app']} "
                f"({result['n_candidates']} candidates x {result['n_stages']} stages, "
                f"{result['repeats']} repeats, dtype {result['dtype']}):")
        _result(f"  fast path:      p50 {fast['p50_ms']:8.2f} ms  p95 {fast['p95_ms']:8.2f} ms  "
                f"{fast['candidates_per_s']:10.0f} cand/s")
        _result(f"  taped float64:  p50 {taped['p50_ms']:8.2f} ms  p95 {taped['p95_ms']:8.2f} ms  "
                f"{taped['candidates_per_s']:10.0f} cand/s")
        _result(f"  speedup: {result['speedup_p50_vs_taped']:.1f}x tower forward vs taped "
                f"(floor {result['speedup_vs_taped_floor']}x, "
                f"ok: {result['speedup_vs_taped_ok']})")
        _result(f"  fused float64 totals bit-identical to taped: "
                f"{result['totals_bit_identical']}; "
                f"top-{eq['topk']} identical: {eq['topk_identical']} "
                f"(max rel err {eq['max_rel_err']:.1e})")
        _result(f"wrote {result['out']}")
    ok = result["totals_bit_identical"] and eq["within_tolerance"]
    return 0 if ok else 1


def cmd_bench_train(args) -> int:
    from .experiments.train_bench import run_training_benchmark

    _LOG.info("collecting corpus and timing fit + adaptive update...")
    result = run_training_benchmark(
        epochs=args.epochs, update_epochs=args.update_epochs,
        smoke=args.smoke, seed=args.seed, out=args.out,
    )
    if args.json:
        _result(json.dumps(result, indent=2))
    else:
        fit, upd = result["fit"], result["update"]
        _result(f"training throughput on {result['n_train_instances']} instances "
                f"({result['n_unique_templates']} unique templates, "
                f"dedup factor {result['dedup_factor']:.1f}):")
        _result(f"  fit     {fit['inst_per_s']:8.0f} inst/s   ({fit['seconds']:.3f} s)")
        _result(f"  update  {upd['inst_per_s']:8.0f} inst/s   ({upd['seconds']:.3f} s)")
        _result(f"wrote {result['out']}")
    return 0


def cmd_bench_obs(args) -> int:
    from .experiments.obs_bench import run_obs_benchmark

    _LOG.info("training a small system and timing the three obs states...")
    result = run_obs_benchmark(
        n_candidates=args.candidates, repeats=args.repeats, smoke=args.smoke,
        seed=args.seed, out=args.out,
    )
    if args.json:
        _result(json.dumps(result, indent=2))
    else:
        _result(f"obs overhead vs. suppressed baseline "
                f"({result['n_candidates']} candidates, "
                f"{result['n_train_instances']} train instances):")
        for op in ("rank", "fit"):
            r = result[op]
            _result(f"  {op:5s} base {r['suppressed_ms']:8.3f} ms   "
                    f"disabled {100 * r['overhead_disabled']:+6.2f}% "
                    f"(best {100 * r['best_overhead_disabled']:+6.2f}%)   "
                    f"enabled {100 * r['overhead_enabled']:+6.2f}% "
                    f"(best {100 * r['best_overhead_enabled']:+6.2f}%)")
        lab = result["labeled"]
        _result(f"  label base {lab['unlabeled_us_per_op']:8.3f} us/op   "
                f"labeled {lab['labeled_us_per_op']:8.3f} us/op "
                f"({lab['labeled_over_unlabeled']:.1f}x, "
                f"budget < {lab['budget_us']:.0f} us)")
        _result(f"  budgets: disabled < {100 * result['budget']['disabled_max']:.0f}%, "
                f"enabled < {100 * result['budget']['enabled_max']:.0f}%  "
                f"-> within budget: {result['within_budget']}")
        _result(f"wrote {result['out']}")
    return 0 if result["within_budget"] else 1


def cmd_serve(args) -> int:
    from .serve import LiteService, ModelRegistry, ServiceConfig, make_server

    checkpoints = {}
    for item in args.model:
        if "=" not in item:
            raise SystemExit(f"--model expects NAME=PATH, got {item!r}")
        name, path = item.split("=", 1)
        checkpoints[name] = path
    if not checkpoints:
        raise SystemExit("serve needs at least one --model NAME=PATH tenant")
    config = ServiceConfig(
        host=args.host, port=args.port,
        max_tenants=args.max_tenants, max_inflight=args.max_inflight,
        quota_rps=args.quota_rps, quota_burst=args.quota_burst,
        audit_log=args.audit_log,
    )
    service = LiteService(ModelRegistry(checkpoints, max_tenants=args.max_tenants),
                          config)
    server = make_server(service)
    host, port = server.server_address[:2]
    _result(f"serving {len(checkpoints)} tenant(s) on http://{host}:{port} "
            f"(POST /v1/recommend, POST /v1/feedback, GET /v1/stats, "
            f"GET /v1/metrics, GET /v1/health)")
    if args.audit_log:
        _result(f"audit log: {args.audit_log}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        _LOG.info("shutting down")
    finally:
        server.server_close()
        service.close()
    return 0


def cmd_bench_service(args) -> int:
    from .experiments.service_bench import run_service_benchmark

    _LOG.info("training tenant checkpoints and driving the daemon...")
    result = run_service_benchmark(
        n_tenants=args.tenants, n_requests=args.requests,
        threads=args.threads, n_candidates=args.candidates,
        smoke=args.smoke, seed=args.seed, out=args.out,
    )
    if args.json:
        _result(json.dumps(result, indent=2))
    else:
        lat = result["latency"]
        _result(f"serving daemon, {result['n_tenants']} tenants, "
                f"{result['n_requests']} requests x {result['threads']} threads:")
        _result(f"  throughput {result['throughput_rps']:8.1f} req/s   "
                f"p50 {lat['p50_ms']:7.1f} ms   p99 {lat['p99_ms']:7.1f} ms")
        _result(f"  overload: {result['overload']['rejections']}/"
                f"{result['overload']['burst']} shed with Retry-After")
        for name, ok in sorted(result["checks"].items()):
            _result(f"  [{'ok' if ok else 'FAIL'}] {name}")
        _result(f"wrote {result['out']}")
    return 0 if result["ok"] else 1


def cmd_bench_chaos(args) -> int:
    from .experiments.chaos import ChaosError, run_chaos

    _LOG.info("running the lifecycle under fault injection...")
    try:
        result = run_chaos(
            smoke=args.smoke, seed=args.seed, cluster_name=args.cluster,
            out=args.out,
        )
    except ChaosError as exc:
        _LOG.error("%s", exc)
        return 1
    if args.json:
        _result(json.dumps(result, indent=2, default=str))
    else:
        counts = result["fault_counts"]
        _result(f"chaos lifecycle on cluster {result['cluster']} "
                f"({'smoke' if result['smoke'] else 'full'}):")
        _result(f"  faults injected: "
                + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
        _result(f"  corpus: {result['n_corpus_success']}/{result['n_corpus_runs']} "
                f"runs successful under faults; feedback "
                f"{result['n_feedback_success']}/{result['n_feedback_runs']} "
                f"successful")
        _result(f"  exhausted retry stayed bounded: "
                f"{result['exhausted_retry']['attempts']} attempts, "
                f"{result['exhausted_retry']['backoff_s']:.1f}s backoff "
                f"(budget {result['retry_policy']['backoff_budget_s']:.0f}s)")
        for name, ok in result["checks"].items():
            _result(f"  [{'ok' if ok else 'FAIL'}] {name}")
        _result(f"wrote {result['out']}")
    return 0 if result["ok"] else 1


def cmd_bench_adapt(args) -> int:
    from .experiments.adapt_bench import AdaptBenchError, run_adapt_benchmark

    _LOG.info("running the task-switch / transfer warm-start scenario...")
    try:
        result = run_adapt_benchmark(
            smoke=args.smoke, seed=args.seed, cluster_name=args.cluster,
            out=args.out,
        )
    except AdaptBenchError as exc:
        _LOG.error("%s", exc)
        return 1
    if args.json:
        _result(json.dumps(result, indent=2, default=str))
    else:
        errs = result["post_switch_mean_abs_rel_err"]
        imp = result["improvement"]
        _result(f"adapt scenario on cluster {result['cluster']} "
                f"({'smoke' if result['smoke'] else 'full'}):")
        _result(f"  switch detected after "
                f"{result['switch']['detected_after_runs']} post-switch runs "
                f"(context window {result['switch']['context_window']})")
        _result(f"  post-switch mean |rel err| over {result['n_eval_runs']} "
                f"held-out runs:")
        _result(f"    pre-update   {errs['pre_update']:.3f}")
        _result(f"    from-scratch {errs['from_scratch']:.3f}")
        _result(f"    warm start   {errs['warm_start']:.3f} "
                f"({imp['warm_vs_scratch']:+.1%} vs from-scratch)")
        for name, ok in result["checks"].items():
            _result(f"  [{'ok' if ok else 'FAIL'}] {name}")
        _result(f"wrote {result['out']}")
    return 0 if result["ok"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    obs.log.setup(-1 if args.quiet else args.verbose)
    handlers = {
        "workloads": cmd_workloads,
        "train": cmd_train,
        "recommend": cmd_recommend,
        "run": cmd_run,
        "lint": cmd_lint,
        "check-model": cmd_check_model,
        "stats": cmd_stats,
        "trace": cmd_trace,
        "serve": cmd_serve,
        "bench-recommend": cmd_bench_recommend,
        "bench-service": cmd_bench_service,
        "bench-train": cmd_bench_train,
        "bench-obs": cmd_bench_obs,
        "bench-chaos": cmd_bench_chaos,
        "bench-adapt": cmd_bench_adapt,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
