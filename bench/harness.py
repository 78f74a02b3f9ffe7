"""The four workloads, driven from outside the system under test.

LITE runs in a child process (``host.py``).  The library workload runs
its loop there; the HTTP workloads run ``repro.serve.make_server`` there
and this process sends the load over at most two persistent keep-alive
``http.client`` connections, one thread each.  Inputs come from the run's
seed; the tenants' models are trained with fixed seeds, so a seed changes
the traffic, never the model.
"""

from __future__ import annotations

import http.client
import itertools
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

import spans as sp
from host import N_CANDIDATES, TINY, cluster, features, rec_to_dict, ranking_errors

from repro.core.persistence import load_lite, save_lite
from repro.experiments.serving_bench import build_serving_lite
from repro.obs.context import TRACE_HEADER
from repro.sparksim.config import SparkConf
from repro.utils.rng import get_rng
from repro.workloads import get_workload

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "bench" / "out"
APPS = ("WordCount", "PageRank", "KMeans")

#: Set-ups per run; ``setup_s`` is their median.
N_SETUPS = 5
#: Seeded determinism probes per run (library vs. a fresh ``load_lite``).
N_DETERMINISM = 16
#: Fixed recommendation seed and simulator seed of the speedup check.
SPEEDUP_SEED, SIM_SEED = 1000, 7


# ----------------------------------------------------------------------
# Processes and connections
# ----------------------------------------------------------------------
class HostProcess:
    """A ``host.py`` child answering one JSON line per command."""

    def __init__(self, *args: object):
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "bench" / "host.py"), *map(str, args)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        self.ready = self._read()

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"host process exited with code {self.proc.wait()}")
        return json.loads(line)

    def call(self, cmd: str, **fields) -> dict:
        self.proc.stdin.write(json.dumps({"cmd": cmd, **fields}) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def stop(self) -> dict:
        usage = self.call("stop")
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        return usage

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream and not stream.closed:
                stream.close()


@dataclass
class Op:
    kind: str                 # "recommend" | "feedback"
    query: dict
    status: int
    body: bytes
    start: float
    end: float


class Client:
    """One persistent keep-alive connection to the daemon."""

    _ids = itertools.count()

    def __init__(self, port: int, recorder: Optional[sp.Recorder] = None):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        self.recorder = recorder

    def send(self, kind: str, query: dict, payload: dict) -> Op:
        body = json.dumps(payload).encode()
        trace_id = f"b{next(self._ids)}"
        headers = {"Content-Type": "application/json", TRACE_HEADER: trace_id}
        start = time.perf_counter()
        try:
            self.conn.request("POST", f"/v1/{kind}", body=body, headers=headers)
            resp = self.conn.getresponse()
            status, raw = resp.status, resp.read()
        except (OSError, http.client.HTTPException) as exc:
            self.conn.close()
            status, raw = 0, str(exc).encode()
        end = time.perf_counter()
        if self.recorder is not None:
            self.recorder.record("op" if kind == "recommend" else "op.feedback",
                                 start, end, trace_id)
        return Op(kind, query, status, raw, start, end)

    def recommend(self, query: dict) -> Op:
        return self.send("recommend", query, recommend_payload(query))

    def close(self) -> None:
        self.conn.close()


def recommend_payload(q: dict) -> dict:
    return {"tenant": q["tenant"], "app": q["app"], "cluster": q["cluster"],
            "data_features": features(q["app"], q["scale"]),
            "n_candidates": N_CANDIDATES, "seed": q["seed"]}


def run_threads(*targets: Callable[[], None]) -> None:
    threads = [threading.Thread(target=t) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def query_stream(rng: random.Random, tenants: int, clusters: str, tiny_every: int = 0,
                 scales: Tuple[str, ...] = ("test",)) -> Iterator[dict]:
    """Endless seeded queries; every ``tiny_every``-th targets :data:`TINY`."""
    for i in itertools.count():
        tiny = tiny_every and i % tiny_every == tiny_every - 1
        yield {"tenant": f"t{i % tenants}", "app": rng.choice(APPS),
               "scale": rng.choice(scales),
               "cluster": TINY.name if tiny else rng.choice(clusters),
               "seed": rng.randrange(1 << 31)}


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
#: Windows a measured phase is cut into for ``p50_ms``; see :meth:`Phase.p50_ms`.
N_WINDOWS = 10


@dataclass
class Phase:
    """What one measured phase saw."""

    lat_ms: List[float] = field(default_factory=list)    # closed-loop recommends
    done_s: List[float] = field(default_factory=list)    # their completion times
    span_s: float = 0.0      # length of the closed loop lat_ms covers
    ops: List[Op] = field(default_factory=list)          # HTTP ops to check
    attempted: int = 0                                   # library ops
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    open_lat_ms: List[float] = field(default_factory=list)  # from due time
    late_ms: List[float] = field(default_factory=list)      # send - due

    @property
    def n_ops(self) -> int:
        return self.attempted + len(self.ops)

    def p50_ms(self) -> float:
        """Median latency of the fastest of :data:`N_WINDOWS` equal windows.

        The host shares its CPUs: a fixed loop runs 1.0 to 1.6 times its
        best speed from one second to the next, and memory-heavy work such
        as ``load_lite`` slows twice as much.  The least-disturbed window
        tracks the program, not its neighbours, as ``timeit`` takes the
        fastest repeat.
        """
        windows: List[List[float]] = [[] for _ in range(N_WINDOWS)]
        for t, lat in zip(self.done_s, self.lat_ms):
            windows[min(int(t / self.span_s * N_WINDOWS), N_WINDOWS - 1)].append(lat)
        return min(pct(w, 50) for w in windows if w)


@dataclass
class Ctx:
    """A running host plus the state that carries across phases."""

    workload: "Workload"
    seed: int
    host: HostProcess
    ckpt_dir: Path
    clients: List[Client] = field(default_factory=list)
    streams: List[Iterator[dict]] = field(default_factory=list)
    rng: random.Random = None
    recorder: Optional[sp.Recorder] = None

    @property
    def client(self) -> Optional[Client]:
        """The connection for sequential requests, if the host serves HTTP."""
        return self.clients[0] if self.clients else None


def lib_phase(ctx: Ctx, seconds: float) -> Phase:
    """Closed loop in the host, one caller; 1 query in 8 goes to TINY."""
    queries = list(itertools.islice(ctx.streams[0], 4096))
    r = ctx.host.call("loop", queries=queries, seconds=seconds)
    return Phase(lat_ms=r["lat_ms"], done_s=r["done_s"], span_s=seconds,
                 attempted=r["attempted"], failed=r["failed"], errors=r["errors"])


#: Upper bound of the uniform pause between closed-loop requests.  A
#: keep-alive response stalls until the client's delayed-ACK timer fires
#: on a kernel tick; sending right after each response would lock every
#: request to the tick grid and quantise latency in whole ticks (4 ms at
#: HZ=250), so a pause spanning at least one tick randomises the phase.
THINK_MAX_S = 0.010


def closed_loop(clients: List[Client], streams: List[Iterator[dict]], seconds: float,
                phase: Phase, rng: random.Random) -> None:
    """Each client sends, pauses briefly, sends again until the deadline."""
    start = time.perf_counter()
    deadline = start + seconds
    per_client: List[List[Op]] = [[] for _ in clients]

    def worker(client: Client, stream: Iterator[dict], out: List[Op],
               think: random.Random) -> Callable[[], None]:
        def run() -> None:
            while time.perf_counter() < deadline:
                out.append(client.recommend(next(stream)))
                time.sleep(think.uniform(0.0, THINK_MAX_S))
        return run

    run_threads(*(worker(c, s, o, random.Random(rng.random()))
                  for c, s, o in zip(clients, streams, per_client)))
    for out in per_client:
        phase.ops.extend(out)
        phase.lat_ms.extend((op.end - op.start) * 1e3 for op in out)
        phase.done_s.extend(op.end - start for op in out)
    phase.span_s = time.perf_counter() - start


def http_phase(ctx: Ctx, seconds: float) -> Phase:
    """Open loop at 16 rps (Poisson), then a closed loop on both connections.

    Open-loop latency runs from each request's due time, so a stall also
    charges the requests queued behind it.  Whether a keep-alive response
    stalls depends on how long its connection sat idle, so open-loop
    percentiles swing with the arrival draw; the gated percentiles and
    throughput come from the closed loop, which runs twice as long.
    """
    phase = Phase()
    open_s = seconds / 3
    offsets, t = [], 0.0
    while True:
        t += ctx.rng.expovariate(16.0)
        if t >= open_s:
            break
        offsets.append(t)
    queries = list(itertools.islice(ctx.streams[0], len(offsets)))
    results: List[Optional[Tuple[Op, float]]] = [None] * len(offsets)
    next_index = itertools.count()
    start = time.perf_counter() + 0.05

    def worker(client: Client) -> Callable[[], None]:
        def run() -> None:
            while True:
                i = next(next_index)
                if i >= len(offsets):
                    return
                due = start + offsets[i]
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                results[i] = (client.recommend(queries[i]), due)
        return run

    run_threads(*(worker(c) for c in ctx.clients))
    for op, due in results:
        phase.ops.append(op)
        phase.open_lat_ms.append((op.end - due) * 1e3)
        phase.late_ms.append(max(0.0, op.start - due) * 1e3)
    closed_loop(ctx.clients, ctx.streams, seconds - open_s, phase, ctx.rng)
    return phase


def churn_phase(ctx: Ctx, seconds: float) -> Phase:
    """Closed loop on one connection, round-robin over 6 tenants."""
    phase = Phase()
    closed_loop(ctx.clients[:1], ctx.streams[:1], seconds, phase, ctx.rng)
    return phase


FEEDBACK_RATE = 4.0   # feedback cycles per second on connection B


def feedback_phase(ctx: Ctx, seconds: float) -> Phase:
    """Connection B paces recommend→feedback cycles; A reads alongside."""
    phase = Phase()
    n_cycles = int(FEEDBACK_RATE * seconds)
    cycle_ops: List[Op] = []
    start = time.perf_counter()

    def writer() -> None:
        client, stream = ctx.clients[1], ctx.streams[1]
        for k in range(n_cycles):
            due = start + k / FEEDBACK_RATE
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            phase.late_ms.append(max(0.0, time.perf_counter() - due) * 1e3)
            q = next(stream)
            rec = client.recommend(q)
            cycle_ops.append(rec)
            if rec.status != 200:
                continue
            conf = json.loads(rec.body)["conf"]
            cycle_ops.append(client.send("feedback", q, {
                "tenant": q["tenant"], "app": q["app"], "cluster": q["cluster"],
                "scale": "test", "seed": q["seed"], "conf": conf,
            }))

    reader = Phase()
    run_threads(writer, lambda: closed_loop(ctx.clients[:1], ctx.streams[:1], seconds,
                                            reader, ctx.rng))
    phase.lat_ms, phase.done_s, phase.span_s = reader.lat_ms, reader.done_s, reader.span_s
    phase.ops = reader.ops + cycle_ops
    return phase


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in ``BENCHMARK.json``."""

    name: str
    tenants: int
    max_tenants: int
    serve: bool
    phase: Callable[[Ctx, float], Phase]
    clients: int
    streams: Callable[[random.Random], List[Iterator[dict]]]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "lib-recommend",
        tenants=1, max_tenants=1, serve=False, phase=lib_phase, clients=0,
        streams=lambda rng: [query_stream(random.Random(rng.random()), 1, "ABC",
                                          tiny_every=8, scales=("train1", "test"))],
    ),
    Workload(
        "http-recommend",
        tenants=2, max_tenants=2, serve=True, phase=http_phase, clients=2,
        streams=lambda rng: [query_stream(random.Random(rng.random()), 2, "BC")
                             for _ in range(2)],
    ),
    Workload(
        "tenant-churn",
        tenants=6, max_tenants=2, serve=True, phase=churn_phase, clients=1,
        streams=lambda rng: [query_stream(random.Random(rng.random()), 6, "BC")],
    ),
    Workload(
        "feedback-loop",
        tenants=1, max_tenants=1, serve=True, phase=feedback_phase, clients=2,
        # The write stream ignores the seed: the post-update model, and with
        # it speedup_vs_default, is then a fingerprint of the update path.
        streams=lambda rng: [query_stream(random.Random(rng.random()), 1, "BC"),
                             query_stream(random.Random(0), 1, "BC")],
    ),
)}


# ----------------------------------------------------------------------
# Set-up, checks and the speedup measure
# ----------------------------------------------------------------------
def train(w: Workload, ckpt_dir: Path) -> float:
    """Train tenants ``t0..`` with fixed seeds and checkpoint them; return seconds.

    Training runs here, not in the host, so the host's peak RSS is the
    serving footprint.
    """
    t0 = time.perf_counter()
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    for i in range(w.tenants):
        save_lite(build_serving_lite(seed=i), ckpt_dir / f"t{i}.pkl")
    return time.perf_counter() - t0


def start_host(w: Workload, ckpt_dir: Path) -> HostProcess:
    """Start the host on the checkpoints and warm every app.

    Warm calls go to the tenants the registry keeps resident.
    """
    warm = [{"tenant": f"t{t}", "app": app, "scale": "test", "cluster": "C", "seed": 0}
            for t in range(min(w.tenants, w.max_tenants)) for app in APPS]
    if w.serve:
        host = HostProcess("serve", ckpt_dir, w.tenants, w.max_tenants)
    else:
        host = HostProcess("lib", ckpt_dir)
    client = Client(host.ready["port"]) if w.serve else None
    try:
        for q, (status, _) in zip(warm, served(host, client, warm)):
            if status != 200:
                raise RuntimeError(f"warm-up recommend {q} returned {status}")
    except BaseException:
        host.kill()
        raise
    finally:
        if client is not None:
            client.close()
    return host


def set_up(w: Workload, ckpt_dir: Path) -> Tuple[List[float], HostProcess]:
    """Start the host ``N_SETUPS`` times on trained checkpoints; keep the last."""
    times = []
    for k in range(N_SETUPS):
        t0 = time.perf_counter()
        host = start_host(w, ckpt_dir)
        times.append(time.perf_counter() - t0)
        if k < N_SETUPS - 1:
            try:
                host.stop()
            finally:
                host.kill()
    return times, host


def served(host: HostProcess, client: Optional[Client],
           queries: List[dict]) -> List[Tuple[int, Optional[dict]]]:
    """Recommend each query through the system under test, sequentially.

    Over HTTP when a ``client`` is given, else by the library host.
    """
    if client is None:
        return [(200, rec) for rec in host.call("recommend", queries=queries)["recs"]]
    out = []
    for q in queries:
        op = client.recommend(q)
        out.append((op.status, json.loads(op.body) if op.status == 200 else None))
    return out


def determinism(ctx: Ctx) -> Tuple[int, List[str]]:
    """Seeded recommends must equal, bit for bit, a fresh ``load_lite`` call."""
    w = ctx.workload
    rng = random.Random(ctx.seed + 1)
    queries = [{"tenant": f"t{i % w.tenants}", "app": APPS[i % 3], "scale": "test",
                "cluster": "BC"[i % 2], "seed": rng.randrange(1 << 31)}
               for i in range(N_DETERMINISM)]
    lites = {}
    errors = []
    for q, (status, got) in zip(queries, served(ctx.host, ctx.client, queries)):
        tenant = q["tenant"] if w.serve else "t0"
        if tenant not in lites:
            lites[tenant] = load_lite(ctx.ckpt_dir / f"{tenant}.pkl")
        want = rec_to_dict(lites[tenant].recommend(
            q["app"], features(q["app"], q["scale"]), cluster(q["cluster"]),
            N_CANDIDATES, get_rng(q["seed"])))
        if status != 200 or {k: got[k] for k in want} != want:
            errors.append(f"seeded recommend {q} differs from the library call")
    return len(queries), errors


def speedup(ctx: Ctx) -> Tuple[float, int, List[str]]:
    """Geometric mean of sim(default) / sim(recommended), 3 apps x A, B, C."""
    queries = [{"tenant": "t0", "app": app, "scale": "test", "cluster": c,
                "seed": SPEEDUP_SEED + i}
               for i, (app, c) in enumerate(itertools.product(APPS, "ABC"))]
    logs, errors = [], []
    for q, (status, rec) in zip(queries, served(ctx.host, ctx.client, queries)):
        if status != 200:
            errors.append(f"speedup recommend {q} returned {status}")
            continue
        w, spec = get_workload(q["app"]), cluster(q["cluster"])
        base = w.run(SparkConf.default(), spec, scale="test", seed=SIM_SEED)
        tuned = w.run(SparkConf(rec["conf"]), spec, scale="test", seed=SIM_SEED)
        if not (base.success and tuned.success):
            errors.append(f"speedup run failed for {q}")
            continue
        logs.append(math.log(base.duration_s / tuned.duration_s))
    value = math.exp(sum(logs) / len(logs)) if logs else float("nan")
    return value, len(queries), errors


def check_ops(ops: List[Op]) -> List[str]:
    """One reason per failed HTTP op."""
    bad = []
    for op in ops:
        if op.status != 200:
            bad.append(f"{op.kind} returned {op.status}: {op.body[:200]!r}")
            continue
        body = json.loads(op.body)
        if op.kind == "recommend":
            errors = ranking_errors(body, cluster(op.query["cluster"]))
            if errors:
                bad.append("; ".join(errors))
        elif not isinstance(body.get("updated"), bool):
            bad.append("feedback response lacks a boolean 'updated'")
    return bad


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def pct(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else float("nan")


#: Metrics gated on some workloads only: name -> (unit, better).  The
#: end-to-end metrics of ``BENCHMARK.json`` are reported by every workload;
#: these either mean something on one workload only or hold their bound
#: on some (``p90_ms`` swings past it on ``tenant-churn``).  ``compare.py``
#: gates them with :data:`OWN_BOUND`.
OWN_METRICS: Dict[str, Dict[str, Tuple[str, str]]] = {
    "lib-recommend": {"p90_ms": ("ms", "lower")},
    "http-recommend": {"p90_ms": ("ms", "lower"), "throughput_rps": ("req/s", "higher")},
    "tenant-churn": {},
    "feedback-loop": {"p90_ms": ("ms", "lower"), "feedback_p50_ms": ("ms", "lower")},
}
OWN_BOUND = 0.10


def feedback_ms(phase: Phase) -> Tuple[List[float], List[float]]:
    """Latencies of feedback requests without and with an adaptive update."""
    plain, upd = [], []
    for op in phase.ops:
        if op.kind == "feedback" and op.status == 200:
            updated = json.loads(op.body)["updated"]
            (upd if updated else plain).append((op.end - op.start) * 1e3)
    return plain, upd


def e2e_metrics(workload: str, setup: List[float], phase: Phase, peak_rss_mb: float,
                speedup_value: float) -> Dict[str, Tuple[float, str]]:
    """``BENCHMARK.json``'s end-to-end metrics plus the workload's own."""
    lat = phase.lat_ms
    own = {
        # Over the whole phase: on lib-recommend a window holds too few
        # fallback queries to place the 90th percentile.
        "p90_ms": pct(lat, 90),
        "throughput_rps": len(lat) / phase.span_s,
        "feedback_p50_ms": pct(feedback_ms(phase)[0], 50),
    }
    out = {
        "setup_s": (statistics.median(setup), "s"),
        "p50_ms": (phase.p50_ms(), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "speedup_vs_default": (speedup_value, "x"),
    }
    for name, (unit, _) in OWN_METRICS[workload].items():
        out[name] = (own[name], unit)
    return out


def extra_metrics(phase: Phase) -> Dict[str, Tuple[float, str]]:
    """Printed and kept by ``--out``, never gated: too few samples or too noisy."""
    lat = phase.lat_ms
    out = {"samples": (float(len(lat)), "count"),
           "p95_ms": (pct(lat, 95), "ms"),
           "p99_ms": (pct(lat, 99), "ms")}
    if phase.open_lat_ms:
        out["open.samples"] = (float(len(phase.open_lat_ms)), "count")
        out["open.p50_ms"] = (pct(phase.open_lat_ms, 50), "ms")
        out["open.p90_ms"] = (pct(phase.open_lat_ms, 90), "ms")
    if phase.late_ms:
        out["gen.late_p99_ms"] = (pct(phase.late_ms, 99), "ms")
    upd = feedback_ms(phase)[1]
    if upd:
        out["updates"] = (float(len(upd)), "count")
        out["update_p50_ms"] = (pct(upd, 50), "ms")
    return out


#: Layers every workload exercises, reported as self ms per recommend.
PER_OP_LAYERS = ("recommend", "acg.region", "acg.sample", "hostable",
                 "rank.featurise", "necs.forward", "rank")
#: Layers only some workloads exercise, reported as a share of traced time.
SHARE_LAYERS = {
    "serve.transport": ("op", "op.feedback"),
    "serve.http": ("serve.http",),
    "serve.service": ("serve.service",),
    "serve.batch.wait": ("serve.batch.wait",),
    "registry.load": ("registry.load",),
    "necs.encode": ("necs.encode", "necs.embed"),
    "acg.fallback": ("acg.fallback",),
    "feedback": ("feedback",),
    "drift.predict": ("drift.predict",),
    "sim.run": ("sim.run",),
    "update": ("update",),
}
ROOTS = ("op", "op.feedback")


@dataclass
class Trace:
    """Merged client and host spans of a traced phase, with their budget."""

    spans: List[sp.Span]
    counts: Dict[str, int]
    serve: bool
    budget: Dict[str, sp.LayerTime] = field(init=False)

    def __post_init__(self) -> None:
        self.budget = sp.latency_budget(self.spans)

    def unattributed_s(self) -> float:
        """Root time no named layer accounts for.

        In the library loop that is the root's self time.  Over HTTP the
        root's self time is the transport layer, measured as client time
        minus the daemon's handler span; a request whose handler span did
        not join by trace id counts as unattributed whole.
        """
        if not self.serve:
            return sum(self.budget[n].self_s for n in ROOTS if n in self.budget)
        roots = [s for s in self.spans if s.name in ROOTS]
        joined = {s.parent for s in self.spans if s.name == "serve.http"}
        return sum(s.end - s.start for s in roots if s.id not in joined)

    def read_during_update_ms(self) -> float:
        updates = [(s.start, s.end) for s in self.spans if s.name == "update"]
        lat = [(s.end - s.start) * 1e3 for s in self.spans if s.name == "op"
               and any(s.start < e and b < s.end for b, e in updates)]
        return pct(lat, 50)


def layer_metrics(trace: Trace, cpu_ms_per_op: float,
                  overhead_ratio: float) -> Tuple[Dict[str, Tuple[float, str]], float]:
    """The per-layer metrics, and the share of traced time named layers cover."""
    b = trace.budget
    zero = sp.LayerTime(0, 0.0, 0.0)
    get = lambda name: b.get(name, zero)  # noqa: E731
    n_rec = max(get("op").count, 1)
    root_s = sum(get(n).total_s for n in ROOTS) or float("nan")
    coverage = 1.0 - trace.unattributed_s() / root_s
    out: Dict[str, Tuple[float, str]] = {"op.ms": (get("op").total_s / n_rec * 1e3, "ms")}
    for name in PER_OP_LAYERS:
        key = name + (".self.ms" if name in ("recommend", "rank") else ".ms")
        out[key] = (get(name).self_s / n_rec * 1e3, "ms")
    out["server.cpu_ms_per_op"] = (cpu_ms_per_op, "ms")
    for layer, names in SHARE_LAYERS.items():
        if layer == "serve.transport" and not trace.serve:
            out[layer + ".share"] = (0.0, "ratio")
            continue
        out[layer + ".share"] = (sum(get(n).self_s for n in names) / root_s, "ratio")
    checks = get("hostable").count
    submits = get("serve.batch.wait").count
    n_ops = sum(get(n).count for n in ROOTS)
    out.update({
        "acg.fallback.calls": (float(get("acg.fallback").count), "count"),
        "hostable.ratio": (1.0 - trace.counts.get("hostable.raised", 0) / checks
                           if checks else 0.0, "ratio"),
        "necs.encode.calls": (float(get("necs.encode").count), "count"),
        "cache.hit_ratio": (1.0 - get("necs.encode").count / max(get("recommend").count, 1),
                            "ratio"),
        "registry.load.calls": (float(get("registry.load").count), "count"),
        "registry.hit_ratio": (1.0 - get("registry.load").count / max(n_ops, 1), "ratio"),
        "serve.coalesced_ratio": ((submits - get("recommend").count) / submits
                                  if submits else 0.0, "ratio"),
        "update.calls": (float(get("update").count), "count"),
        "update.rows": (float(trace.counts.get("update.rows", 0)), "count"),
        "trace.coverage": (coverage, "ratio"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    })
    return out, coverage


def layer_table(trace: Trace) -> List[str]:
    """Self time per span name, biggest first (the printed budget)."""
    b = trace.budget
    root_s = sum(b[n].total_s for n in ROOTS if n in b) or float("nan")
    n_rec = max(b["op"].count if "op" in b else 0, 1)
    rows = [f"  {'layer':<20} {'calls':>8} {'self ms/op':>11} {'share':>7}"]
    for name, lt in sorted(b.items(), key=lambda kv: -kv[1].self_s):
        label = name
        if name in ROOTS:
            label = "serve.transport" if trace.serve else "unattributed"
            label += "" if name == "op" else " (fb)"
        rows.append(f"  {label:<20} {lt.count:>8} {lt.self_s / n_rec * 1e3:>11.3f} "
                    f"{lt.self_s / root_s:>7.1%}")
    return rows


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
@dataclass
class Result:
    workload: str
    seed: int
    seconds: float
    trace: bool
    attempted: int
    failed: int
    errors: List[str]
    metrics: Dict[str, Tuple[float, str]]
    extra: Dict[str, Tuple[float, str]]
    per_layer: Dict[str, Tuple[float, str]]
    table: List[str]

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.errors

    def to_dict(self) -> dict:
        pack = lambda d: {k: {"value": v, "unit": u} for k, (v, u) in d.items()}  # noqa: E731
        return {"workload": self.workload, "seed": self.seed, "seconds": self.seconds,
                "trace": self.trace, "correct": self.correct,
                "attempted": self.attempted, "failed": self.failed,
                "errors": self.errors[:20], "metrics": pack(self.metrics),
                "extra": pack(self.extra), "per_layer": pack(self.per_layer),
                "cpu_count": os.cpu_count()}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Result:
    """Set up, check determinism, measure, check every output, stop.

    A traced run measures two halves on one host: untraced, then with the
    layer wrappers installed, so the traced/untraced p50 ratio is the
    tracing overhead.  End-to-end metrics always come from the untraced
    part.
    """
    w = WORKLOADS[name]
    OUT.mkdir(parents=True, exist_ok=True)
    ckpt_dir = OUT / f"{name}-{os.getpid()}"
    host: Optional[HostProcess] = None
    ctx: Optional[Ctx] = None
    try:
        train_s = train(w, ckpt_dir)
        setup_times, host = set_up(w, ckpt_dir)
        rng = random.Random(seed)
        ctx = Ctx(w, seed, host, ckpt_dir, rng=rng, streams=w.streams(rng))
        if w.serve:
            ctx.clients = [Client(host.ready["port"]) for _ in range(w.clients)]
        attempted, errors = determinism(ctx)
        failed = len(errors)
        cpu0 = host.call("usage")["cpu_s"]
        phases = [w.phase(ctx, seconds / 2 if trace else seconds)]
        cpu_ms_per_op = (host.call("usage")["cpu_s"] - cpu0) * 1e3 / max(phases[0].n_ops, 1)
        per_layer: Dict[str, Tuple[float, str]] = {}
        table: List[str] = []
        extra: Dict[str, Tuple[float, str]] = {}
        if trace:
            # A layer whose callable a refactor renamed would read 0 and
            # look like a gain, so a stale layer map fails the run.
            missing = host.call("trace")["missing"]
            attempted += len(sp.LAYERS)
            failed += len(missing)
            errors += [f"layer callable {m} no longer exists" for m in missing]
            ctx.recorder = sp.Recorder()
            for client in ctx.clients:
                client.recorder = ctx.recorder
                # Reconnect: a handler thread already waiting on the old
                # connection would serve its next request unwrapped.
                client.close()
            phases.append(w.phase(ctx, seconds / 2))
            server_path = OUT / f"{name}.server.jsonl"
            counts = host.call("spans", path=str(server_path))["counts"]
            child = sp.read_jsonl(server_path)
            server_path.unlink()
            merged = ctx.recorder.spans + sp.adopt_by_trace(ctx.recorder.spans, child)
            sp.write_jsonl(OUT / f"{name}.trace.jsonl", merged)
            tr = Trace(merged, counts, w.serve)
            overhead = pct(phases[1].lat_ms, 50) / pct(phases[0].lat_ms, 50)
            per_layer, coverage = layer_metrics(tr, cpu_ms_per_op, overhead)
            attempted += 1
            if coverage < 0.9:
                failed += 1
                errors.append(f"named layers cover {coverage:.1%} of traced time (< 90%)")
            table = layer_table(tr)
            extra["read.during_update.ms"] = (tr.read_during_update_ms(), "ms")
        for phase in phases:
            bad = check_ops(phase.ops)
            attempted += phase.n_ops
            failed += phase.failed + len(bad)
            errors += phase.errors + bad
        speed, n_speed, speed_errors = speedup(ctx)
        attempted += n_speed
        failed += len(speed_errors)
        errors += speed_errors
        peak = host.stop()["peak_rss_mb"]
        extra.update(extra_metrics(phases[0]))
        extra["train_s"] = (train_s, "s")
        extra["error_rate"] = (failed / attempted, "ratio")
        return Result(name, seed, seconds, trace, attempted, failed, errors,
                      e2e_metrics(name, setup_times, phases[0], peak, speed),
                      extra, per_layer, table)
    finally:
        if ctx is not None:
            for client in ctx.clients:
                client.close()
        if host is not None:
            host.kill()
        shutil.rmtree(ckpt_dir, ignore_errors=True)
