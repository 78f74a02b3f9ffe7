"""The process that hosts LITE during a benchmark run.

``host.py lib DIR`` / ``host.py serve DIR N MAX_TENANTS`` loads the tenant
checkpoints ``DIR/t{i}.pkl`` and answers JSON-line commands on stdin:
``lib`` runs the library loop in this process, ``serve`` runs
``repro.serve.make_server`` and reports its port.

The recommendation checks live here because the library loop runs here;
the load generator imports them for the HTTP workloads.
"""

from __future__ import annotations

import json
import resource
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.sparksim.cluster import ClusterSpec, get_cluster  # noqa: E402
from repro.sparksim.config import KNOB_NAMES, SparkConf  # noqa: E402
from repro.sparksim.costmodel import SparkJobError, plan_executors  # noqa: E402

#: An undersized cluster: no configuration in any learned ACG region fits
#: on it, so every recommendation here takes the full-range fallback.
TINY = ClusterSpec("tiny", num_nodes=1, cores_per_node=16, cpu_ghz=2.9,
                   memory_gb_per_node=4.0, memory_mts=2666.0, network_gbps=1.0)

N_CANDIDATES = 40


def cluster(name: str) -> ClusterSpec:
    return TINY if name == TINY.name else get_cluster(name)


def features(app: str, scale: str) -> List[float]:
    from repro.workloads import get_workload

    return get_workload(app).data_spec(scale).features().tolist()


def rec_to_dict(rec) -> Dict[str, object]:
    return {
        "conf": rec.conf.as_dict(),
        "predicted_time_s": rec.predicted_time_s,
        "ranking": [[conf.as_dict(), t] for conf, t in rec.ranking],
    }


def ranking_errors(rec: Dict[str, object], cluster_spec: ClusterSpec) -> List[str]:
    """Why a recommendation is wrong; empty when it passes every check.

    The ranking must be sorted by predicted time with ``conf`` at its
    head, and every ranked config must name every knob, lie inside the
    knob ranges and pass ``plan_executors`` on the target cluster.
    """
    ranking = rec.get("ranking") or []
    if len(ranking) == 0:
        return ["empty ranking"]
    errors = []
    times = [t for _, t in ranking]
    if any(b < a for a, b in zip(times, times[1:])):
        errors.append("ranking not sorted by predicted time")
    if rec.get("conf") != ranking[0][0] or rec.get("predicted_time_s") != times[0]:
        errors.append("conf is not ranking[0]")
    for values, _ in ranking:
        if set(values) != set(KNOB_NAMES):
            errors.append("ranked config does not name every knob")
            break
        try:
            conf = SparkConf(values)
        except (KeyError, ValueError) as exc:
            errors.append(f"ranked config out of range: {exc}")
            break
        if conf.as_dict() != values:
            errors.append("ranked config has non-integral integer knobs")
            break
        try:
            plan_executors(conf, cluster_spec)
        except SparkJobError as exc:
            errors.append(f"ranked config unhostable on {cluster_spec.name}: {exc}")
            break
    return errors


def usage() -> Dict[str, float]:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    # ru_maxrss is the peak resident set (VmHWM) in KiB on Linux.
    return {"cpu_s": ru.ru_utime + ru.ru_stime, "peak_rss_mb": ru.ru_maxrss / 1024.0}


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
class Host:
    def __init__(self, lite=None):
        self.lite = lite
        self.server = None
        self.recorder = None

    def trace(self, _msg) -> Dict[str, object]:
        import spans

        from repro.obs.context import TRACE_HEADER

        self.recorder = spans.Recorder(id_base=1 << 40)
        missing = spans.install(self.recorder)
        if self.server is not None:
            spans.install_http(self.recorder, self.server.RequestHandlerClass, TRACE_HEADER)
        return {"missing": missing}

    def spans(self, msg) -> Dict[str, object]:
        import spans

        spans.write_jsonl(Path(msg["path"]), list(self.recorder.spans))
        return {"counts": dict(self.recorder.counts)}

    def usage(self, _msg) -> Dict[str, float]:
        return usage()

    @staticmethod
    def _query(q):
        return q["app"], features(q["app"], q["scale"]), cluster(q["cluster"]), q["seed"]

    def recommend(self, msg) -> Dict[str, object]:
        from repro.utils.rng import get_rng

        out = []
        for q in msg["queries"]:
            app, feats, spec, seed = self._query(q)
            rec = self.lite.recommend(app, feats, spec, N_CANDIDATES, get_rng(seed))
            out.append(rec_to_dict(rec))
        return {"recs": out}

    def loop(self, msg) -> Dict[str, object]:
        """Closed loop, one caller: recommend back to back until the deadline.

        Each call is checked after its timer stops, so checks cost wall
        time but never latency.
        """
        from repro.utils.rng import get_rng

        queries = [self._query(q) for q in msg["queries"]]
        recorder = self.recorder
        lat_ms: List[float] = []
        done_s: List[float] = []
        errors: List[str] = []
        failed = 0
        start = time.perf_counter()
        deadline = start + float(msg["seconds"])
        i = 0
        while time.perf_counter() < deadline:
            app, feats, spec, seed = queries[i % len(queries)]
            rng = get_rng(seed)
            t0 = time.perf_counter()
            try:
                if recorder is None:
                    rec = self.lite.recommend(app, feats, spec, N_CANDIDATES, rng)
                else:
                    rec = recorder.timed("op", self.lite.recommend, trace_id=str(i),
                                         args=(app, feats, spec, N_CANDIDATES, rng))
            except (KeyError, ValueError, RuntimeError) as exc:
                failed += 1
                errors.append(f"recommend raised {type(exc).__name__}: {exc}")
                i += 1
                continue
            t1 = time.perf_counter()
            lat_ms.append((t1 - t0) * 1e3)
            done_s.append(t1 - start)
            bad = ranking_errors(rec_to_dict(rec), spec)
            if bad:
                failed += 1
                errors.extend(bad)
            i += 1
        return {"lat_ms": lat_ms, "done_s": done_s, "attempted": i, "failed": failed,
                "errors": errors[:5]}


def _serve(host: Host, ckpt_dir: Path, n_tenants: int, max_tenants: int) -> None:
    from repro.serve import LiteService, ModelRegistry, ServiceConfig, make_server

    checkpoints = {f"t{i}": ckpt_dir / f"t{i}.pkl" for i in range(n_tenants)}
    service = LiteService(ModelRegistry(checkpoints, max_tenants=max_tenants),
                          ServiceConfig(max_tenants=max_tenants))
    server = make_server(service)
    host.server = server
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        _command_loop(host, {"port": server.server_address[1]})
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=10)


def _command_loop(host: Host, ready: Dict[str, object]) -> None:
    """Answer one JSON line per command line until ``stop`` or EOF."""
    _reply(ready)
    for line in sys.stdin:
        msg = json.loads(line)
        if msg["cmd"] == "stop":
            _reply(usage())
            return
        _reply(getattr(host, msg["cmd"])(msg))


def _reply(obj: Dict[str, object]) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main(argv: List[str]) -> int:
    role, ckpt_dir = argv[0], Path(argv[1])
    if role == "lib":
        from repro.core.persistence import load_lite

        _command_loop(Host(load_lite(ckpt_dir / "t0.pkl")), {"ready": True})
        return 0
    if role == "serve":
        _serve(Host(), ckpt_dir, int(argv[2]), int(argv[3]))
        return 0
    print(f"unknown role {role!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
