"""Analytical, knob-sensitive stage cost model.

This is the simulator's stand-in for physical Spark clusters.  It converts
a stage's *logical* work (:class:`~repro.sparksim.dag.StageMetrics`) plus a
configuration and a cluster into seconds, reproducing the qualitative knob
behaviour the paper's Fig. 1 demonstrates:

- interior optima in ``spark.default.parallelism`` (task overhead vs.
  wave parallelism vs. per-task memory pressure);
- the cores×memory interaction (more concurrent tasks per executor divide
  the executor's execution memory, causing spill and GC penalties);
- shuffle knobs (``file.buffer``, ``maxSizeInFlight``, compression) that
  trade CPU for I/O with datasize-dependent break-evens;
- hard failure regions (executors that cannot be hosted, grouping stages
  whose working set explodes, driver result-size violations).

Everything is deterministic given (metrics, conf, cluster, seed); a small
lognormal noise term models run-to-run variance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..utils.rng import get_rng

from .cluster import ClusterSpec
from .config import KNOB_NAMES, SparkConf
from .dag import StageMetrics


class SparkJobError(RuntimeError):
    """An application-level failure (OOM, result-size violation...)."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class CostParams:
    """Calibration constants of the cost model (all times in seconds)."""

    cpu_ns_per_record_op: float = 2600.0     # ns of CPU per record-op at 1 GHz
    disk_bw_gbps: float = 0.30               # per-node storage read bandwidth (GB/s)
    disk_write_bw_gbps: float = 0.22
    cache_bw_gbps: float = 2.5               # block-cache read bandwidth (GB/s)
    mem_expansion: float = 2.5               # deserialized / on-disk size ratio
    compress_ratio: float = 0.38             # compressed / raw shuffle bytes
    compress_cpu_ns_per_byte: float = 1.4    # compression CPU at 1 GHz
    task_overhead_s: float = 0.006           # executor-side launch+teardown
    dispatch_ms_per_task: float = 7.0        # driver-side dispatch (per core)
    stage_overhead_s: float = 0.08
    job_overhead_s: float = 0.25
    gc_coeff: float = 3.0
    spill_coeff: float = 2.2
    skew_factor: float = 0.22                # longest-task slack in final wave
    inflight_ref_mb: float = 48.0
    buffer_ref_kb: float = 32.0
    oom_working_set_ratio: float = 24.0      # fail grouping stages above this
    noise_sigma: float = 0.03
    min_task_ms: float = 2.0


DEFAULT_COST_PARAMS = CostParams()


@dataclass
class ExecutorPlan:
    """Resolved executor placement for a (conf, cluster) pair."""

    executors: int
    cores_per_executor: int
    heap_gb: float
    total_slots: int
    slots_per_node: float

    @property
    def execution_mem_gb_total(self) -> float:
        return self.executors * self.heap_gb


def plan_executors(conf: SparkConf, cluster: ClusterSpec) -> ExecutorPlan:
    """Place executors on the cluster, capping by per-node cores and memory.

    Raises :class:`SparkJobError` when not a single executor can be hosted
    (e.g. executor memory larger than node memory).
    """
    exec_cores = int(conf["spark.executor.cores"])
    heap_gb = float(conf["spark.executor.memory"])
    overhead_gb = float(conf["spark.executor.memoryOverhead"]) / 1024.0
    footprint_gb = heap_gb + overhead_gb

    driver_cores = int(conf["spark.driver.cores"])
    driver_mem_gb = float(conf["spark.driver.memory"])
    # The driver occupies resources on one node.
    node_mem = cluster.memory_gb_per_node
    node_cores = cluster.cores_per_node
    if driver_mem_gb > node_mem or driver_cores > node_cores:
        raise SparkJobError("driver-too-large")

    per_node_by_cores = node_cores // exec_cores
    per_node_by_mem = int(node_mem // footprint_gb)
    per_node = min(per_node_by_cores, per_node_by_mem)
    # First node also hosts the driver.
    first_node = min(
        (node_cores - driver_cores) // exec_cores,
        int((node_mem - driver_mem_gb) // footprint_gb),
    )
    hostable = max(0, first_node) + per_node * (cluster.num_nodes - 1)
    if hostable <= 0:
        raise SparkJobError("executors-unhostable")

    executors = min(int(conf["spark.executor.instances"]), hostable)
    total_slots = executors * exec_cores
    return ExecutorPlan(
        executors=executors,
        cores_per_executor=exec_cores,
        heap_gb=heap_gb,
        total_slots=total_slots,
        slots_per_node=total_slots / cluster.num_nodes,
    )


_EXEC_CORES, _EXEC_MEM, _EXEC_OVERHEAD, _DRIVER_CORES, _DRIVER_MEM = (
    KNOB_NAMES.index(name) for name in (
        "spark.executor.cores", "spark.executor.memory",
        "spark.executor.memoryOverhead", "spark.driver.cores", "spark.driver.memory",
    )
)


def hostable_mask(matrix: np.ndarray, cluster: ClusterSpec) -> np.ndarray:
    """``(n,)`` bool: which rows :func:`plan_executors` would place.

    ``matrix`` holds canonical knob vectors (``canonical_matrix`` rows).
    Row ``i`` is True exactly when ``plan_executors`` on the conf built
    from it does not raise: the same packing arithmetic, one column at a
    time.  Core counts divide as int64 (``//`` floors like Python ints);
    memory divides as float64 through ``np.floor_divide``, which rounds
    like Python's float ``//``, so boundary footprints agree bit for bit.
    """
    exec_cores = matrix[:, _EXEC_CORES].astype(np.int64)
    footprint_gb = matrix[:, _EXEC_MEM] + matrix[:, _EXEC_OVERHEAD] / 1024.0
    driver_cores = matrix[:, _DRIVER_CORES].astype(np.int64)
    driver_mem_gb = matrix[:, _DRIVER_MEM]
    node_mem = cluster.memory_gb_per_node
    node_cores = cluster.cores_per_node
    driver_fits = (driver_mem_gb <= node_mem) & (driver_cores <= node_cores)

    per_node = np.minimum(
        node_cores // exec_cores,
        np.floor_divide(node_mem, footprint_gb).astype(np.int64),
    )
    first_node = np.minimum(
        (node_cores - driver_cores) // exec_cores,
        np.floor_divide(node_mem - driver_mem_gb, footprint_gb).astype(np.int64),
    )
    hostable = np.maximum(0, first_node) + per_node * (cluster.num_nodes - 1)
    return driver_fits & (hostable > 0)


class StageCostModel:
    """Convert stage metrics into a duration plus runtime statistics."""

    def __init__(self, params: CostParams = DEFAULT_COST_PARAMS):
        self.params = params

    # ------------------------------------------------------------------
    def stage_time(
        self,
        metrics: StageMetrics,
        conf: SparkConf,
        cluster: ClusterSpec,
        cached_bytes_total: float = 0.0,
        noise_seed: Optional[int] = None,
    ) -> Tuple[float, Dict[str, float]]:
        """Seconds for one stage plus an "inner status" stats dict.

        Raises :class:`SparkJobError` for configurations that would kill the
        application (grouping OOM, driver result-size breach, driver OOM).
        """
        p = self.params
        plan = plan_executors(conf, cluster)

        # ---------------- driver-side result checks ----------------
        result_mb = metrics.result_bytes / 1e6
        if result_mb > float(conf["spark.driver.maxResultSize"]):
            raise SparkJobError("result-size-exceeded")
        if result_mb / 1024.0 > 0.6 * float(conf["spark.driver.memory"]):
            raise SparkJobError("driver-oom")

        tasks = max(1, int(metrics.num_tasks))
        gb = 1e9

        # ---------------- per-task memory budget ----------------
        usable = float(conf["spark.memory.fraction"]) * plan.heap_gb
        storage_reserved = usable * float(conf["spark.memory.storageFraction"])
        cache_demand_gb = (
            cached_bytes_total * p.mem_expansion / gb / max(plan.executors, 1)
        )
        cache_fit = min(1.0, storage_reserved / cache_demand_gb) if cache_demand_gb > 0 else 1.0
        # Execution memory: the non-storage share plus whatever of the
        # reserved storage pool the cache does not actually occupy.
        storage_used = min(cache_demand_gb, storage_reserved)
        execution_gb = usable - storage_used
        # Unified memory splits execution memory across the tasks actually
        # running concurrently in the executor, not across idle slots.
        active_per_executor = max(
            1, min(plan.cores_per_executor, int(np.ceil(tasks / plan.executors)))
        )
        execution_per_task = max(execution_gb / active_per_executor, 1e-4)

        raw_stage_bytes = (
            metrics.input_bytes
            + metrics.cache_read_bytes
            + metrics.shuffle_read_bytes
        )
        expansion = p.mem_expansion * (0.7 if bool(conf["spark.rdd.compress"]) else 1.0)
        working_set_gb = raw_stage_bytes * expansion / gb / tasks
        pressure = working_set_gb / execution_per_task

        if metrics.oom_risky and pressure > p.oom_working_set_ratio:
            raise SparkJobError("executor-oom")

        spill_ratio = max(0.0, pressure - 1.0)
        heap_per_task = plan.heap_gb / active_per_executor
        gc_factor = 1.0 + p.gc_coeff * max(0.0, working_set_gb / heap_per_task - 0.45) ** 2
        gc_factor = min(gc_factor, 6.0)

        # ---------------- CPU time ----------------
        cpu_seconds = metrics.cpu_work * p.cpu_ns_per_record_op / 1e9 / cluster.cpu_ghz
        # Memory speed mildly scales record processing (sub-linear effect).
        cpu_seconds *= float(np.sqrt(2400.0 / max(cluster.memory_mts, 1.0)))

        shuffle_compress = bool(conf["spark.shuffle.compress"])
        spill_compress = bool(conf["spark.shuffle.spill.compress"])
        comp_cpu = 0.0
        shuffle_wire_write = metrics.shuffle_write_bytes
        shuffle_wire_read = metrics.shuffle_read_bytes
        if shuffle_compress:
            comp_cpu += (
                (metrics.shuffle_write_bytes + metrics.shuffle_read_bytes)
                * p.compress_cpu_ns_per_byte
                / 1e9
                / cluster.cpu_ghz
            )
            shuffle_wire_write *= p.compress_ratio
            shuffle_wire_read *= p.compress_ratio

        # ---------------- I/O time ----------------
        # Storage/network contention comes from tasks actually running.
        concurrent_per_node = max(1.0, min(plan.total_slots, tasks) / cluster.num_nodes)
        disk_bw_task = p.disk_bw_gbps * gb / concurrent_per_node
        disk_write_bw_task = p.disk_write_bw_gbps * gb / concurrent_per_node
        cache_bw_task = p.cache_bw_gbps * gb / concurrent_per_node

        input_io = metrics.input_bytes / disk_bw_task
        cache_miss = 1.0 - cache_fit
        cache_io = (
            metrics.cache_read_bytes * cache_fit / cache_bw_task
            + metrics.cache_read_bytes * cache_miss / disk_bw_task * 2.5
        )
        output_io = metrics.output_bytes / disk_write_bw_task

        buffer_kb = float(conf["spark.shuffle.file.buffer"])
        buffer_penalty = 1.0 + 0.25 * max(0.0, np.log2(p.buffer_ref_kb / buffer_kb))
        shuffle_write_io = shuffle_wire_write / disk_write_bw_task * buffer_penalty

        inflight_mb = float(conf["spark.reducer.maxSizeInFlight"])
        stall = 1.0 + 0.18 * max(0.0, np.log2(p.inflight_ref_mb / inflight_mb))
        if cluster.num_nodes > 1:
            net_bw_task = cluster.network_gbps / 8.0 * gb / concurrent_per_node
            remote_frac = 1.0 - 1.0 / cluster.num_nodes
            shuffle_read_io = (
                shuffle_wire_read * remote_frac / net_bw_task
                + shuffle_wire_read * (1.0 - remote_frac) / disk_bw_task
            ) * stall
        else:
            shuffle_read_io = shuffle_wire_read / disk_bw_task * stall

        # External sort/aggregation semantics: when the working set exceeds
        # execution memory the data is spilled roughly once, plus extra
        # merge passes logarithmic in the over-subscription (merge fan-out
        # ~8) — not proportional to the pressure itself.
        if spill_ratio > 0.0:
            merge_passes = 1.0 + np.log(max(pressure, 1.0)) / np.log(8.0)
        else:
            merge_passes = 0.0
        spill_bytes = raw_stage_bytes * merge_passes
        if spill_compress:
            spill_wire = spill_bytes * p.compress_ratio
            comp_cpu += spill_bytes * p.compress_cpu_ns_per_byte / 1e9 / cluster.cpu_ghz
        else:
            spill_wire = spill_bytes
        spill_io = p.spill_coeff * spill_wire * 2.0 / disk_write_bw_task  # write + re-read

        cache_write_io = metrics.cache_write_bytes * cache_fit / cache_bw_task

        total_io = (
            input_io + cache_io + output_io + shuffle_write_io + shuffle_read_io
            + spill_io + cache_write_io
        )
        total_cpu = (cpu_seconds + comp_cpu) * gc_factor

        # ---------------- schedule into waves ----------------
        work_seconds = total_cpu + total_io
        per_task = work_seconds / tasks + p.task_overhead_s
        per_task = max(per_task, p.min_task_ms / 1e3)
        waves = int(np.ceil(tasks / plan.total_slots))
        last_wave_tasks = tasks - (waves - 1) * plan.total_slots
        # Straggler model: skewed stages have task-time imbalance that only
        # finer granularity (more, smaller tasks per slot) amortises.  With
        # g = tasks/slots, the makespan inflates by ~ skew / sqrt(g): at
        # g=1 one hot task defines the stage; at g>>1 the scheduler
        # rebalances around stragglers.
        granularity = tasks / plan.total_slots
        skew_penalty = 1.0 + metrics.skew / np.sqrt(max(granularity, 0.2))
        stage_seconds = ((waves - 1) * per_task + per_task * (
            1.0 + p.skew_factor * min(1.0, last_wave_tasks / plan.total_slots)
        )) * skew_penalty
        dispatch = tasks * p.dispatch_ms_per_task / 1e3 / int(conf["spark.driver.cores"])
        stage_seconds += dispatch + p.stage_overhead_s

        if noise_seed is not None:
            rng = get_rng(noise_seed)
            stage_seconds *= float(np.exp(rng.normal(0.0, p.noise_sigma)))

        utilization = min(1.0, tasks / plan.total_slots) if waves == 1 else (
            1.0 - (plan.total_slots - last_wave_tasks) / (waves * plan.total_slots)
        )
        stats = {
            "duration_s": stage_seconds,
            "tasks": float(tasks),
            "waves": float(waves),
            "utilization": float(utilization),
            "spill_ratio": float(spill_ratio),
            "gc_factor": float(gc_factor),
            "pressure": float(pressure),
            "cache_fit": float(cache_fit),
            "shuffle_read_mb": metrics.shuffle_read_bytes / 1e6,
            "shuffle_write_mb": metrics.shuffle_write_bytes / 1e6,
            "input_mb": metrics.input_bytes / 1e6,
            "cpu_seconds": float(total_cpu),
            "io_seconds": float(total_io),
            "executors": float(plan.executors),
            "slots": float(plan.total_slots),
        }
        return float(stage_seconds), stats
