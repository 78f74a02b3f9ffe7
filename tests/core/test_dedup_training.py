"""Template-deduplicated training must reproduce per-row training exactly.

The single training engine is a pure performance rewrite of the per-row
loops in ``tests/necs_oracle.py``: it draws the same RNG sequence, sees the
same batches, and must therefore walk the same optimization trajectory.
These tests fit the same corpus both ways and compare loss curves,
predictions, embeddings, and the adaptively-updated models.
"""

import numpy as np
import pytest

from repro.core.necs import NECSConfig, NECSEstimator
from repro.core.update import AdaptiveModelUpdater, UpdateConfig
from tests import necs_oracle as oracle

FAST = NECSConfig(epochs=3, max_tokens=96, mlp_hidden=48, conv_filters=16, seed=0)


@pytest.fixture(scope="module")
def engines(small_instances):
    corpus = small_instances[:240]
    return (
        oracle.fit(NECSEstimator(FAST), corpus),
        NECSEstimator(FAST).fit(corpus),
        corpus,
    )


class TestDedupEncoding:
    def test_templates_deduplicate(self, small_instances):
        est = NECSEstimator(FAST)
        est.tokenizer.fit([i.code_tokens for i in small_instances])
        est.dag_encoder.fit([i.dag_labels for i in small_instances])
        enc = est._encode_dedup(small_instances, fit=True)
        assert enc.n_unique < len(small_instances)
        assert enc.dedup_factor > 1.0
        assert enc.template_index.shape == (len(small_instances),)
        assert enc.template_index.max() == enc.n_unique - 1

    def test_dedup_is_exact(self, small_instances):
        # Rows mapped to one template must have byte-identical naive encodings.
        est = NECSEstimator(FAST)
        est.tokenizer.fit([i.code_tokens for i in small_instances])
        est.dag_encoder.fit([i.dag_labels for i in small_instances])
        enc = est._encode_dedup(small_instances, fit=True)
        _, code_ids, graphs = oracle.encode_rows(est, small_instances)
        width = enc.code_ids.shape[1]
        for row in range(0, len(small_instances), 17):
            slot = enc.template_index[row]
            np.testing.assert_array_equal(enc.code_ids[slot], code_ids[row][:width])
            assert not code_ids[row][width:].any()
            np.testing.assert_array_equal(enc.graphs[slot][0], graphs[row][0])
            np.testing.assert_array_equal(enc.graphs[slot][1], graphs[row][1])

    def test_trimming_keeps_a_pad_window(self, small_instances):
        est = NECSEstimator(FAST)
        est.tokenizer.fit([i.code_tokens for i in small_instances])
        enc_ids = est.tokenizer.encode_batch(
            [i.code_tokens for i in small_instances[:20]]
        )
        trimmed = est._trim_code_padding(enc_ids)
        longest = int((enc_ids != 0).sum(axis=1).max())
        assert trimmed.shape[1] == min(enc_ids.shape[1], longest + FAST.kernel_size)
        # Every row still ends in at least kernel_size pads (one all-pad
        # window), so the CNN max pool sees the same candidate set.
        assert not trimmed[:, -FAST.kernel_size :].any() or trimmed.shape[1] == enc_ids.shape[1]


class TestTrainingEquivalence:
    def test_loss_curves_match(self, engines):
        naive, fast, _ = engines
        np.testing.assert_allclose(
            naive.train_losses_, fast.train_losses_, rtol=0.0, atol=1e-6
        )

    def test_predictions_match(self, engines):
        naive, fast, corpus = engines
        probe = corpus[:64]
        p_naive = oracle.predict(naive, probe)
        p_fast = fast.predict(probe)
        np.testing.assert_allclose(p_fast, p_naive, rtol=1e-6)
        # The engine's inference path agrees with per-row inference on the
        # same model — same model, same numbers.
        np.testing.assert_allclose(oracle.predict(fast, probe), p_fast, rtol=1e-6)

    def test_embeddings_match(self, engines):
        naive, fast, corpus = engines
        h_naive = oracle.feature_embeddings(naive, corpus[:32])
        h_fast = fast.feature_embeddings(corpus[:32])
        np.testing.assert_allclose(h_fast, h_naive, rtol=1e-5, atol=1e-8)

    def test_adaptive_update_matches(self, engines, small_instances):
        naive, fast, corpus = engines
        target = small_instances[-60:]
        cfg = UpdateConfig(epochs=1, seed=0)
        history = oracle.update(naive, corpus, target, cfg)
        updater = AdaptiveModelUpdater(fast, cfg)
        updater.update(corpus, target)
        for want, got in zip(history, updater.history_):
            assert got["pred_loss"] == pytest.approx(want["pred_loss"], rel=0.0, abs=1e-6)
            assert got["disc_loss"] == pytest.approx(want["disc_loss"], rel=0.0, abs=1e-6)
        p_naive = oracle.predict(naive, target[:40])
        p_fast = fast.predict(target[:40])
        np.testing.assert_allclose(p_fast, p_naive, rtol=1e-6)
