"""The float32 serving tower and fused inference kernels.

Three layers of guarantee, strongest first:

- fused float64 == taped float64, *bit for bit* — the fused kernel runs
  the same matmul/add/activation sequence without building a tape;
- float32 vs float64 ``predict_encoded``: bounded relative error, and
  the same ranking except between candidates whose float64 totals are
  within that bound (the dtype-equivalence contract the serving
  benchmark gates on);
- plumbing: snapshot invalidation on version bumps, cast-cache reuse,
  pickle safety (thread-local scratch buffers must not leak into
  checkpoints), and explicit-dtype validation.
"""

import pickle
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.instances import numeric_feature_rows
from repro.core.serving_dtype import (
    DEFAULT_SERVING_DTYPE,
    TowerSnapshot,
    cast_array,
    resolve_dtype,
)
from repro.experiments.serving_bench import DTYPE_REL_ERR_BOUND
from repro.nn.fused import fused_forward
from repro import nn
from repro.utils.rng import get_rng

N_FEATURES = 26   # knobs + data + env width used by the test corpus


@pytest.fixture(scope="module")
def encoded(fitted_necs, small_instances):
    pagerank = [i for i in small_instances if i.app_name == "PageRank"]
    return fitted_necs.encode_templates(pagerank[: min(6, len(pagerank))])


def _rows(seed, n=10):
    rng = get_rng(seed)
    return np.abs(rng.normal(size=(n, N_FEATURES))) + 0.01


class TestResolveDtype:
    def test_default(self):
        assert resolve_dtype(None) == DEFAULT_SERVING_DTYPE

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="float16"):
            resolve_dtype("float16")

    def test_cast_array_is_noop_for_float64(self):
        arr = np.ones(3)
        assert cast_array(arr, "float64") is arr
        assert cast_array(None, "float32") is None
        assert cast_array(arr, "float32").dtype == np.float32


class TestFusedKernel:
    def test_fused_matches_taped_bitwise(self):
        mlp = nn.MLP(8, 16, 1, depth=3, rng=get_rng(0))
        x = get_rng(1).normal(size=(32, 8))
        taped = mlp(nn.Tensor(x)).numpy()
        fused = mlp.forward_inference(x)
        np.testing.assert_array_equal(taped, fused)

    def test_fused_all_activations(self):
        for act in ("relu", "tanh", "sigmoid", None):
            mlp = nn.MLP(4, 8, 2, depth=2, rng=get_rng(2),
                         activation=act or "relu", out_activation=act)
            x = get_rng(3).normal(size=(5, 4))
            np.testing.assert_array_equal(
                mlp(nn.Tensor(x)).numpy(), mlp.forward_inference(x)
            )

    def test_buffer_reuse_stays_correct(self):
        mlp = nn.MLP(6, 12, 1, depth=2, rng=get_rng(4))
        layers = mlp.inference_layers()
        buffers = {}
        x1, x2 = get_rng(5).normal(size=(7, 6)), get_rng(6).normal(size=(7, 6))
        out1 = np.array(fused_forward(layers, x1, buffers))
        out2 = np.array(fused_forward(layers, x2, buffers))
        np.testing.assert_array_equal(out1, mlp(nn.Tensor(x1)).numpy())
        np.testing.assert_array_equal(out2, mlp(nn.Tensor(x2)).numpy())


class TestPredictEncodedEquivalence:
    def test_fused_float64_bit_identical_to_taped(self, fitted_necs, encoded):
        rows = _rows(0)
        taped = fitted_necs.predict_encoded(encoded, rows, fused=False)
        fused = fitted_necs.predict_encoded(encoded, rows, dtype="float64")
        np.testing.assert_array_equal(taped, fused)

    def test_float32_output_is_float64(self, fitted_necs, encoded):
        out = fitted_necs.predict_encoded(encoded, _rows(1), dtype="float32")
        assert out.dtype == np.float64

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @example(seed=7081)   # near-tied pairs swap between the two orders
    @example(seed=2333)
    def test_float32_topk_and_rel_error(self, fitted_necs, encoded, seed):
        rows = _rows(seed, n=12)
        full = fitted_necs.predict_encoded(encoded, rows, dtype="float64")
        fast = fitted_necs.predict_encoded(encoded, rows, dtype="float32")
        # Same ranking by total predicted time, except that float32 may
        # swap candidates whose float64 totals are within the dtype bound.
        total = full.sum(axis=1)
        order64 = np.argsort(total, kind="stable")
        order32 = np.argsort(fast.sum(axis=1), kind="stable")
        a, b = total[order64], total[order32]
        tied = np.abs(a - b) <= DTYPE_REL_ERR_BOUND * np.maximum(np.abs(a), np.abs(b))
        assert np.all((order64 == order32) | tied), (order64, order32)
        rel = np.abs(fast - full) / np.maximum(np.abs(full), 1e-30)
        assert rel.max() < 1e-5

    def test_explicit_float32_with_taped_path_rejected(self, fitted_necs, encoded):
        with pytest.raises(ValueError, match="fused"):
            fitted_necs.predict_encoded(
                encoded, _rows(2), dtype="float32", fused=False
            )

    def test_config_dtype_is_the_default(self, fitted_necs, encoded):
        assert fitted_necs.config.serving_dtype == "float32"
        rows = _rows(3)
        np.testing.assert_array_equal(
            fitted_necs.predict_encoded(encoded, rows),
            fitted_necs.predict_encoded(encoded, rows, dtype="float32"),
        )


class TestSnapshotLifecycle:
    def test_snapshot_reused_across_calls(self, fitted_necs, encoded):
        fitted_necs.predict_encoded(encoded, _rows(4))
        snap = fitted_necs._serving_snapshot
        assert snap is not None
        fitted_necs.predict_encoded(encoded, _rows(5))
        assert fitted_necs._serving_snapshot is snap

    def test_version_bump_invalidates_snapshot(self, fitted_necs, small_instances):
        # Private pickled copy: bumping the shared session fixture's version
        # would stale-out every other test's cached encodings.
        est = pickle.loads(pickle.dumps(fitted_necs))
        pagerank = [i for i in small_instances if i.app_name == "PageRank"][:4]
        enc = est.encode_templates(pagerank)
        est.predict_encoded(enc, _rows(6))
        assert est._serving_snapshot is not None
        est.bump_version()
        assert est._serving_snapshot is None
        # A stale encoding is still rejected before any fast-path work.
        with pytest.raises(ValueError, match="stale"):
            est.predict_encoded(enc, _rows(7))

    def test_cast_cache_filled_once(self, fitted_necs, encoded):
        fitted_necs.predict_encoded(encoded, _rows(8), dtype="float32")
        h32 = encoded.h_code_cast
        assert h32 is not None and h32.dtype == np.float32
        fitted_necs.predict_encoded(encoded, _rows(9), dtype="float32")
        assert encoded.h_code_cast is h32

    def test_estimator_pickles_with_live_snapshot(
        self, fitted_necs, small_instances, encoded
    ):
        # TowerSnapshot holds thread-local scratch state; pickling must
        # drop it (it is derived) rather than crash or serialise it.
        fitted_necs.predict_encoded(encoded, _rows(10))
        assert fitted_necs._serving_snapshot is not None
        clone = pickle.loads(pickle.dumps(fitted_necs))
        assert clone._serving_snapshot is None
        # The clone rebuilds its snapshot lazily and predicts identically.
        pagerank = [i for i in small_instances if i.app_name == "PageRank"]
        templates = pagerank[: min(6, len(pagerank))]
        rows = _rows(11)
        np.testing.assert_array_equal(
            fitted_necs.predict_encoded(encoded, rows),
            clone.predict_encoded(clone.encode_templates(templates), rows),
        )


class TestTowerSnapshotThreading:
    def test_concurrent_forwards_are_consistent(self):
        mlp = nn.MLP(6, 12, 1, depth=2, rng=get_rng(7))
        snap = TowerSnapshot(mlp, "float32", version=0)
        x = get_rng(8).normal(size=(16, 6))
        expected = snap.forward(x)
        results = [None] * 8
        def work(i):
            for _ in range(20):
                results[i] = snap.forward(x)
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for r in results:
            np.testing.assert_array_equal(r, expected)
