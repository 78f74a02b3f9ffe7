"""Training throughput (the NECS engine vs. the per-row reference loops).

One optimizer step used to encode every batch row's code and push each DAG
through the GCN one graph at a time; the engine encodes each unique stage
template once, packs all graphs into one block-diagonal propagation, and
gathers embeddings back to batch order.  This benchmark records the
engine's numbers in ``BENCH_training.json`` at the repository root, times
the per-row loops of ``tests/necs_oracle.py`` on the same corpus, and
asserts the speedup floors AND that the loss curves still match (a fast
path that trains a different model is a bug).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.necs import NECSConfig, NECSEstimator
from repro.core.update import AdaptiveModelUpdater, UpdateConfig
from repro.experiments.train_bench import (
    _best_of,
    build_training_corpus,
    run_training_benchmark,
)
from tests import necs_oracle as oracle

from conftest import print_table

FIT_SPEEDUP_FLOOR = 5.0
UPDATE_SPEEDUP_FLOOR = 2.0
#: Loss curves and predictions of the engine and the oracle must agree to
#: this tolerance for the benchmark to count.
LOSS_TOLERANCE = 1e-6
EPOCHS, UPDATE_EPOCHS, SEED, REPEATS = 4, 2, 0, 5
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_training.json"


def _rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    scale = float(np.abs(a).max()) or 1.0
    return float(np.abs(a - b).max()) / scale


@pytest.fixture(scope="module")
def training_result():
    return run_training_benchmark(
        epochs=EPOCHS, update_epochs=UPDATE_EPOCHS, smoke=False, seed=SEED,
        out=OUT_PATH, repeats=REPEATS,
    )


@pytest.fixture(scope="module")
def oracle_result():
    """The per-row loops on the engine's corpus, timed the same way."""
    train, target = build_training_corpus(smoke=False, seed=SEED + 7)
    cfg = NECSConfig(epochs=EPOCHS, seed=SEED)
    ucfg = UpdateConfig(epochs=UPDATE_EPOCHS, seed=SEED)
    ref, fit_s = _best_of(lambda: oracle.fit(NECSEstimator(cfg), train), REPEATS)
    fast = NECSEstimator(cfg).fit(train)
    probe = train[:64]
    pred_diff = _rel_diff(oracle.predict(ref, probe), fast.predict(probe))
    loss_diff = float(np.abs(
        np.array(ref.train_losses_) - np.array(fast.train_losses_)).max())
    _, upd_s = _best_of(lambda: oracle.update(ref, train, target, ucfg), REPEATS)
    # Give ``fast`` the same number of update rounds, so the two final
    # models stay comparable.
    for _ in range(REPEATS):
        AdaptiveModelUpdater(fast, ucfg).update(train, target)
    tgt_probe = target[:64]
    post_diff = _rel_diff(oracle.predict(ref, tgt_probe), fast.predict(tgt_probe))
    return {
        "fit_s": fit_s,
        "update_s": upd_s,
        "loss_curve_max_abs_diff": loss_diff,
        "pred_max_rel_diff": pred_diff,
        "post_update_pred_max_rel_diff": post_diff,
    }


class TestTrainingThroughput:
    def test_fit_speedup_floor(self, training_result, oracle_result):
        fit, upd = training_result["fit"], training_result["update"]
        fit_x = oracle_result["fit_s"] / fit["seconds"]
        upd_x = oracle_result["update_s"] / upd["seconds"]
        n, n_upd = (training_result["n_train_instances"],
                    training_result["n_train_instances"]
                    + training_result["n_target_instances"])
        print_table(
            "Training throughput: engine vs. per-row oracle",
            ("phase", "oracle inst/s", "engine inst/s", "speedup"),
            [
                ("fit", f"{n * EPOCHS / oracle_result['fit_s']:.0f}",
                 f"{fit['inst_per_s']:.0f}", f"{fit_x:.2f}x"),
                ("update", f"{n_upd * UPDATE_EPOCHS / oracle_result['update_s']:.0f}",
                 f"{upd['inst_per_s']:.0f}", f"{upd_x:.2f}x"),
            ],
        )
        print(f"dedup factor: {training_result['dedup_factor']:.1f} "
              f"({training_result['n_unique_templates']} templates for "
              f"{n} instances)")
        assert fit_x >= FIT_SPEEDUP_FLOOR
        assert upd_x >= UPDATE_SPEEDUP_FLOOR

    def test_dedup_factor_realistic(self, training_result):
        # Many configurations per cell -> many instances per template; if
        # this drops to ~1 the corpus no longer exercises the dedup engine.
        assert training_result["dedup_factor"] >= 4.0

    def test_trained_models_equivalent(self, oracle_result):
        assert oracle_result["loss_curve_max_abs_diff"] <= LOSS_TOLERANCE
        assert oracle_result["pred_max_rel_diff"] <= LOSS_TOLERANCE
        assert oracle_result["post_update_pred_max_rel_diff"] <= LOSS_TOLERANCE

    def test_report_written(self, training_result):
        report = json.loads(OUT_PATH.read_text())
        assert report["fit"] == training_result["fit"]
        assert {"seconds", "inst_per_s"} <= set(report["fit"])
        assert {"seconds", "inst_per_s"} <= set(report["update"])
        assert report["n_unique_templates"] == training_result["n_unique_templates"]
        assert report["meta"]["cpu_count"] >= 1
