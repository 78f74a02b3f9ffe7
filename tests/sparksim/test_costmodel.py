"""Tests for the analytical cost model: knob responses and failure modes."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sparksim import CLUSTER_A, CLUSTER_B, CLUSTER_C, KNOB_NAMES, NUM_KNOBS, SparkConf
from repro.sparksim.cluster import ClusterSpec
from repro.sparksim.config import KNOB_HIGHS, KNOB_LOWS, canonical_matrix
from repro.sparksim.costmodel import (
    DEFAULT_COST_PARAMS,
    SparkJobError,
    StageCostModel,
    hostable_mask,
    plan_executors,
)
from repro.sparksim.dag import StageMetrics


def metrics(**kwargs) -> StageMetrics:
    base = dict(input_bytes=200e6, cpu_work=5e6, num_tasks=32)
    base.update(kwargs)
    return StageMetrics(**base)


def conf_with(**kwargs) -> SparkConf:
    values = {
        "spark.executor.instances": 8,
        "spark.executor.cores": 4,
        "spark.executor.memory": 2,
    }
    for key, value in kwargs.items():
        values["spark." + key] = value
    return SparkConf(values)


MODEL = StageCostModel()


class TestExecutorPlanning:
    def test_caps_by_node_cores(self):
        plan = plan_executors(conf_with(**{"executor.cores": 16, "executor.instances": 64}), CLUSTER_C)
        # 16-core nodes: at most 1 executor per node by cores (minus driver node).
        assert plan.executors <= CLUSTER_C.num_nodes

    def test_caps_by_node_memory(self):
        plan = plan_executors(conf_with(**{"executor.memory": 8, "executor.instances": 64}), CLUSTER_C)
        # 16 GB nodes fit one 8GB+overhead executor each.
        assert plan.executors <= CLUSTER_C.num_nodes

    def test_unhostable_raises(self):
        with pytest.raises(SparkJobError, match="unhostable"):
            plan_executors(conf_with(**{"executor.memory": 32}), CLUSTER_C)

    def test_driver_too_large(self):
        from repro.sparksim.cluster import ClusterSpec

        tiny = ClusterSpec("T", num_nodes=2, cores_per_node=4, cpu_ghz=2.0,
                           memory_gb_per_node=8.0, memory_mts=2400, network_gbps=1.0)
        conf = SparkConf({"spark.driver.memory": 16, "spark.executor.memory": 1})
        with pytest.raises(SparkJobError, match="driver-too-large"):
            plan_executors(conf, tiny)

    def test_slots(self):
        plan = plan_executors(conf_with(), CLUSTER_C)
        assert plan.total_slots == plan.executors * 4


class TestKnobResponses:
    def test_deterministic_without_seed(self):
        t1, _ = MODEL.stage_time(metrics(), conf_with(), CLUSTER_C)
        t2, _ = MODEL.stage_time(metrics(), conf_with(), CLUSTER_C)
        assert t1 == t2

    def test_noise_is_small_and_seeded(self):
        t0, _ = MODEL.stage_time(metrics(), conf_with(), CLUSTER_C)
        t1, _ = MODEL.stage_time(metrics(), conf_with(), CLUSTER_C, noise_seed=1)
        t2, _ = MODEL.stage_time(metrics(), conf_with(), CLUSTER_C, noise_seed=1)
        assert t1 == t2
        assert abs(t1 - t0) / t0 < 0.25

    def test_more_data_takes_longer(self):
        small, _ = MODEL.stage_time(metrics(input_bytes=1e8, cpu_work=1e6), conf_with(), CLUSTER_C)
        large, _ = MODEL.stage_time(metrics(input_bytes=1e10, cpu_work=1e8), conf_with(), CLUSTER_C)
        assert large > small * 5

    def test_parallelism_interior_optimum(self):
        # Sweeping task counts: both extremes are worse than the middle.
        work = metrics(input_bytes=2e9, cpu_work=2e8)
        times = {}
        for tasks in (1, 32, 4096):
            m = metrics(input_bytes=2e9, cpu_work=2e8, num_tasks=tasks)
            times[tasks], _ = MODEL.stage_time(m, conf_with(), CLUSTER_C)
        assert times[32] < times[1]
        assert times[32] < times[4096]

    def test_memory_pressure_spills(self):
        tight = conf_with(**{"executor.memory": 1})
        roomy = conf_with(**{"executor.memory": 8, "executor.instances": 3})
        m = metrics(input_bytes=30e9, cpu_work=1e7, num_tasks=64)
        t_tight, s_tight = MODEL.stage_time(m, tight, CLUSTER_C)
        t_roomy, s_roomy = MODEL.stage_time(m, roomy, CLUSTER_C)
        assert s_tight["spill_ratio"] > s_roomy["spill_ratio"]

    def test_shuffle_compression_tradeoff_depends_on_size(self):
        # Compression should help for big shuffles (I/O bound).
        on = conf_with(**{"shuffle.compress": True})
        off = conf_with(**{"shuffle.compress": False})
        big = metrics(shuffle_write_bytes=20e9, input_bytes=1e6, cpu_work=1e5)
        t_on, _ = MODEL.stage_time(big, on, CLUSTER_C)
        t_off, _ = MODEL.stage_time(big, off, CLUSTER_C)
        assert t_on < t_off

    def test_small_file_buffer_penalised(self):
        small_buf = conf_with(**{"shuffle.file.buffer": 16})
        big_buf = conf_with(**{"shuffle.file.buffer": 256})
        m = metrics(shuffle_write_bytes=10e9)
        t_small, _ = MODEL.stage_time(m, small_buf, CLUSTER_C)
        t_big, _ = MODEL.stage_time(m, big_buf, CLUSTER_C)
        assert t_small > t_big

    def test_inflight_stall_penalised(self):
        low = conf_with(**{"reducer.maxSizeInFlight": 8})
        high = conf_with(**{"reducer.maxSizeInFlight": 128})
        m = metrics(shuffle_read_bytes=10e9)
        t_low, _ = MODEL.stage_time(m, low, CLUSTER_C)
        t_high, _ = MODEL.stage_time(m, high, CLUSTER_C)
        assert t_low > t_high

    def test_faster_cpu_helps_cpu_bound_stage(self):
        # Same single-executor layout: cluster A's faster clock (3.2 vs 2.9
        # GHz) must win on a purely CPU-bound stage.
        m = metrics(input_bytes=1e6, cpu_work=1e9)
        t_c_single, _ = MODEL.stage_time(m, conf_with(**{"executor.instances": 1}), CLUSTER_C)
        t_a_single, _ = MODEL.stage_time(m, conf_with(**{"executor.instances": 1}), CLUSTER_A)
        assert t_a_single < t_c_single

    def test_dispatch_scales_with_driver_cores(self):
        m = metrics(num_tasks=4096, input_bytes=1e6, cpu_work=1e5)
        slow, _ = MODEL.stage_time(m, conf_with(**{"driver.cores": 1}), CLUSTER_C)
        fast, _ = MODEL.stage_time(m, conf_with(**{"driver.cores": 8}), CLUSTER_C)
        assert fast < slow


class TestFailures:
    def test_result_size_exceeded(self):
        conf = conf_with(**{"driver.maxResultSize": 64})
        with pytest.raises(SparkJobError, match="result-size-exceeded"):
            MODEL.stage_time(metrics(result_bytes=1e9), conf, CLUSTER_C)

    def test_driver_oom(self):
        conf = conf_with(**{"driver.maxResultSize": 4096, "driver.memory": 1})
        with pytest.raises(SparkJobError, match="driver-oom"):
            MODEL.stage_time(metrics(result_bytes=3e9), conf, CLUSTER_C)

    def test_grouping_oom_at_extreme_pressure(self):
        conf = conf_with(**{"executor.cores": 16, "executor.memory": 1})
        m = metrics(input_bytes=8e12, num_tasks=4, oom_risky=True)
        with pytest.raises(SparkJobError, match="executor-oom"):
            MODEL.stage_time(m, conf, CLUSTER_C)

    def test_non_grouping_stage_spills_instead(self):
        conf = conf_with(**{"executor.cores": 16, "executor.memory": 1})
        m = metrics(input_bytes=8e12, num_tasks=4, oom_risky=False)
        duration, stats = MODEL.stage_time(m, conf, CLUSTER_C)
        assert stats["spill_ratio"] > 1.0


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        input_gb=st.floats(0.01, 100),
        tasks=st.integers(1, 2048),
        cores=st.integers(1, 8),
        mem=st.integers(1, 8),
    )
    def test_time_always_positive_and_finite(self, input_gb, tasks, cores, mem):
        conf = conf_with(**{"executor.cores": cores, "executor.memory": mem})
        m = metrics(input_bytes=input_gb * 1e9, num_tasks=tasks)
        try:
            duration, stats = MODEL.stage_time(m, conf, CLUSTER_C)
        except SparkJobError:
            return  # legal failure region
        assert np.isfinite(duration) and duration > 0
        assert stats["waves"] >= 1

    @settings(max_examples=20, deadline=None)
    @given(scale=st.floats(1.5, 50))
    def test_monotone_in_cpu_work(self, scale):
        base = metrics(cpu_work=1e7)
        scaled = metrics(cpu_work=1e7 * scale)
        t1, _ = MODEL.stage_time(base, conf_with(), CLUSTER_C)
        t2, _ = MODEL.stage_time(scaled, conf_with(), CLUSTER_C)
        assert t2 >= t1


# ----------------------------------------------------------------------
# hostable_mask: plan_executors' packing over a whole knob matrix
# ----------------------------------------------------------------------
#: The benchmark's undersized cluster, the serving tests' 2-node one, and
#: a node smaller than the smallest legal driver.
NAMED_CLUSTERS = (
    CLUSTER_A, CLUSTER_B, CLUSTER_C,
    ClusterSpec("tiny", num_nodes=1, cores_per_node=16, cpu_ghz=2.9,
                memory_gb_per_node=4.0, memory_mts=2666.0, network_gbps=1.0),
    ClusterSpec("tiny2", num_nodes=2, cores_per_node=4, cpu_ghz=2.0,
                memory_gb_per_node=4.0, memory_mts=2400.0, network_gbps=1.0),
    ClusterSpec("hopeless", num_nodes=1, cores_per_node=1, cpu_ghz=1.0,
                memory_gb_per_node=0.5, memory_mts=2400.0, network_gbps=1.0),
)
_COL = {name.split(".", 1)[1]: KNOB_NAMES.index(name) for name in KNOB_NAMES}

clusters = st.one_of(
    st.sampled_from(NAMED_CLUSTERS),
    st.builds(
        lambda nodes, cores, mem: ClusterSpec("drawn", nodes, cores, 2.0, mem, 2400.0, 1.0),
        st.integers(1, 8),
        st.integers(1, 32),
        st.one_of(st.integers(1, 64).map(float), st.floats(0.25, 80.0)),
    ),
)


@st.composite
def cluster_and_matrix(draw):
    """A cluster and canonical knob rows, every other row forced to a boundary."""
    cluster = draw(clusters)
    n = draw(st.integers(1, 24))
    unit = np.array(draw(st.lists(
        st.lists(st.floats(0.0, 1.0), min_size=NUM_KNOBS, max_size=NUM_KNOBS),
        min_size=n, max_size=n,
    )))
    matrix = KNOB_LOWS + unit * (KNOB_HIGHS - KNOB_LOWS)
    edge = matrix[::2]
    case = draw(st.sampled_from(
        ["random", "exact-footprint", "driver-fills-node", "executor-wider-than-node"]))
    if case == "exact-footprint":
        # k executors fill node memory exactly, up to float rounding.
        heap, overhead_mb = draw(st.integers(1, 32)), draw(st.integers(256, 4096))
        k = draw(st.integers(1, 8))
        cluster = replace(cluster, memory_gb_per_node=k * (heap + overhead_mb / 1024.0))
        edge[:, _COL["executor.memory"]] = heap
        edge[:, _COL["executor.memoryOverhead"]] = overhead_mb
    elif case == "driver-fills-node":
        cluster = replace(cluster, cores_per_node=draw(st.integers(1, 8)),
                          memory_gb_per_node=float(draw(st.integers(1, 16))))
        edge[:, _COL["driver.cores"]] = cluster.cores_per_node
        edge[:, _COL["driver.memory"]] = cluster.memory_gb_per_node
    elif case == "executor-wider-than-node":
        cluster = replace(cluster, cores_per_node=draw(st.integers(1, 15)))
        edge[:, _COL["executor.cores"]] = draw(st.integers(cluster.cores_per_node + 1, 16))
    return cluster, canonical_matrix(matrix)


def _scalar_hostable(matrix, cluster):
    out = []
    for conf in SparkConf.from_matrix(matrix):
        try:
            plan_executors(conf, cluster)
        except SparkJobError:
            out.append(False)
        else:
            out.append(True)
    return out


class TestHostableMask:
    @settings(max_examples=300, deadline=None)
    @given(cluster_and_matrix())
    def test_mask_equals_scalar_plan_executors(self, case):
        cluster, matrix = case
        mask = hostable_mask(matrix, cluster)
        assert mask.dtype == np.bool_ and mask.shape == (len(matrix),)
        assert mask.tolist() == _scalar_hostable(matrix, cluster)

    @pytest.mark.parametrize("cluster", NAMED_CLUSTERS, ids=lambda c: c.name)
    def test_mask_on_a_large_uniform_draw(self, cluster):
        rng = np.random.default_rng(3)
        matrix = canonical_matrix(rng.uniform(KNOB_LOWS, KNOB_HIGHS, size=(2000, NUM_KNOBS)))
        assert hostable_mask(matrix, cluster).tolist() == _scalar_hostable(matrix, cluster)

    def test_boundaries(self):
        """Exact memory fit, a driver filling the node, a too-wide executor."""
        node = ClusterSpec("n", num_nodes=1, cores_per_node=4, cpu_ghz=2.0,
                           memory_gb_per_node=4.0, memory_mts=2400.0, network_gbps=1.0)
        base = SparkConf({"spark.driver.memory": 1, "spark.driver.cores": 1,
                          "spark.executor.cores": 1}).to_vector()
        rows = np.tile(base, (4, 1))
        # 1 GB heap + 512 MB overhead: 1 GB driver leaves exactly 2 executors.
        rows[0, _COL["executor.memoryOverhead"]] = 512
        # The driver takes the whole node; nothing is left for executors.
        rows[1, _COL["driver.memory"]] = 4
        # 2 GB heap + 1024 MB overhead = 3 GB: fits 4 - 1 GB exactly.
        rows[2, _COL["executor.memory"]] = 2
        rows[2, _COL["executor.memoryOverhead"]] = 1024
        # An executor wider than the node.
        rows[3, _COL["executor.cores"]] = 5
        assert hostable_mask(rows, node).tolist() == [True, False, True, False]
        assert hostable_mask(rows, node).tolist() == _scalar_hostable(rows, node)
