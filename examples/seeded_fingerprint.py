#!/usr/bin/env python
"""Print a byte-exact fingerprint of LITE's seeded outputs.

For two seeds it trains the small serving benchmark system, prints its
training losses as ``float.hex``, the seeded ``recommend`` totals for
WordCount/PageRank/KMeans on clusters A/B/C at scale ``test``, then the
same totals after a feedback-triggered adaptive update.  Run it on two
checkouts and compare the outputs: a refactor that claims bit-identical
training and ranking must print the same bytes.

Run:  PYTHONPATH=src python examples/seeded_fingerprint.py > out.txt
"""

import hashlib

import numpy as np

from repro.experiments.serving_bench import build_serving_lite
from repro.sparksim.cluster import get_cluster
from repro.utils.rng import get_rng
from repro.workloads import get_workload

APPS = ("WordCount", "PageRank", "KMeans")
CLUSTERS = ("A", "B", "C")


def print_totals(lite, tag):
    for app in APPS:
        data = get_workload(app).data_spec("test").features()
        for name in CLUSTERS:
            rec = lite.recommend(app, data, get_cluster(name), n_candidates=20,
                                 rng=get_rng(11))
            totals = " ".join(t.hex() for _, t in rec.ranking)
            print(tag, app, name, rec.predicted_time_s.hex(), totals)


def weights_digest(lite) -> str:
    state = lite.estimator.network.state_dict()
    digest = hashlib.sha256()
    for key in sorted(state):
        digest.update(key.encode())
        digest.update(np.ascontiguousarray(state[key]).tobytes())
    return digest.hexdigest()


for seed in (0, 1):
    lite = build_serving_lite(seed=seed)
    print("seed", seed, "losses", [float(x).hex() for x in lite.estimator.train_losses_])
    print_totals(lite, f"s{seed}-pre")
    cluster = get_cluster("C")
    updated = False
    for i, app in enumerate(APPS):
        workload = get_workload(app)
        data = workload.data_spec("test").features()
        conf = lite.recommend(app, data, cluster, n_candidates=8, rng=get_rng(i)).conf
        run = workload.run(conf, cluster, scale="test", seed=i)
        updated |= lite.feedback(run, update_now=(i == len(APPS) - 1))
    print("seed", seed, "updated", updated)
    print("seed", seed, "weights", weights_digest(lite))
    print_totals(lite, f"s{seed}-post")
