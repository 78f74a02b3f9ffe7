"""The small trained LITE that the latency benchmark and the tests share.

``bench/`` (the four-workload latency benchmark), the serving-daemon
tests, ``examples/seeded_fingerprint.py`` and the observability-overhead
benchmark all build their system through :func:`build_serving_lite`, so
they measure and check the same model.
"""

from __future__ import annotations

from ..core.lite import LITE, LITEConfig
from ..core.necs import NECSConfig
from ..core.update import UpdateConfig
from ..sparksim.cluster import get_cluster


def build_serving_lite(smoke: bool = False, seed: int = 0) -> LITE:
    """A small trained LITE with architecturally complete NECS.

    The benchmark needs realistic featurisation cost, not model quality, so
    the corpus is small; smoke mode shrinks everything further for CI.
    """
    from ..experiments.collect import collect_training_runs
    from ..workloads import get_workload

    apps = ("PageRank",) if smoke else ("WordCount", "PageRank", "KMeans")
    scales = ("train0",) if smoke else ("train0", "train1")
    necs = NECSConfig(
        epochs=1 if smoke else 4,
        max_tokens=64 if smoke else 120,
        conv_filters=8 if smoke else 24,
        mlp_hidden=24 if smoke else 64,
        gcn_hidden=8 if smoke else 12,
        seed=seed,
    )
    cfg = LITEConfig(necs=necs, update=UpdateConfig(epochs=1), seed=seed)
    runs = collect_training_runs(
        workloads=[get_workload(a) for a in apps],
        clusters=[get_cluster("C")],
        scales=scales,
        confs_per_cell=2 if smoke else 4,
        seed=seed,
    )
    return LITE(cfg).offline_train(runs)
