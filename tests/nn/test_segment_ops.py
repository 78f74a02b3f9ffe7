"""Tests for the batched-training ops: ``gather``, ``segment_max``, and the
block-diagonal GCN batching built on them.

The training engine's correctness rests on three claims, each checked
here: the new autograd ops match finite differences (with ``segment_max``
ties split exactly like ``Tensor.max``), the packed propagation is
numerically identical to encoding one graph at a time (forward values to
1e-10, and parameter gradients too; the per-graph path is the oracle in
``tests/necs_oracle.py``), and a pack built once keeps matching
``forward_batch`` built per call.
"""

import numpy as np
import pytest

from repro import nn
from repro.nn.gcn import GCNEncoder, block_diagonal, normalized_adjacency, pack_graphs
from repro.nn.tensor import Tensor, gather, segment_max
from repro.utils.rng import get_rng
from tests.necs_oracle import forward_batch_pergraph


def numeric_grad(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of scalar-valued f at x."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    g = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = f(x)
        flat[i] = orig - eps
        down = f(x)
        flat[i] = orig
        g[i] = (up - down) / (2 * eps)
    return grad


def check_scalar_fn(fn, data, rtol=1e-4, atol=1e-6, eps=1e-6):
    """fn maps a Tensor to a scalar Tensor; compare backward() to FD."""
    x = Tensor(data.copy(), requires_grad=True)
    fn(x).backward()

    def f(arr):
        return float(fn(Tensor(arr)).data)

    expected = numeric_grad(f, data.copy(), eps=eps)
    np.testing.assert_allclose(x.grad, expected, rtol=rtol, atol=atol)


def random_graph(rng, n_nodes, dim):
    feats = rng.normal(size=(n_nodes, dim))
    adj = (rng.random((n_nodes, n_nodes)) < 0.4).astype(float)
    np.fill_diagonal(adj, 0.0)
    return feats, normalized_adjacency(adj)


class TestGather:
    def test_forward_selects_rows(self):
        x = Tensor(np.arange(12.0).reshape(4, 3))
        out = gather(x, np.array([2, 0, 2]))
        np.testing.assert_array_equal(out.numpy(), x.numpy()[[2, 0, 2]])

    def test_duplicate_indices_accumulate_gradient(self):
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        gather(x, np.array([1, 1, 1, 0])).sum().backward()
        np.testing.assert_array_equal(x.grad, [[1.0, 1.0], [3.0, 3.0], [0.0, 0.0]])

    def test_finite_difference(self):
        rng = get_rng(3)
        idx = np.array([0, 2, 2, 1, 0])

        def fn(t):
            return (gather(t, idx) ** 2).sum()

        check_scalar_fn(fn, rng.normal(size=(3, 4)))

    def test_out_of_range_raises(self):
        x = Tensor(np.zeros((3, 2)))
        with pytest.raises(IndexError):
            gather(x, np.array([0, 3]))


class TestSegmentMax:
    def test_matches_per_segment_max(self):
        rng = get_rng(4)
        data = rng.normal(size=(7, 5))
        seg = np.array([0, 0, 1, 1, 1, 2, 2])
        out = segment_max(Tensor(data), seg, 3).numpy()
        for s in range(3):
            np.testing.assert_array_equal(out[s], data[seg == s].max(axis=0))

    def test_tie_gradient_matches_tensor_max(self):
        # Two equal maxima in one segment: grad must split equally, the
        # same convention Tensor.max(axis=0) uses on the per-graph path.
        data = np.array([[1.0], [1.0], [0.0]])
        x = Tensor(data.copy(), requires_grad=True)
        segment_max(x, np.array([0, 0, 0]), 1).sum().backward()
        ref = Tensor(data.copy(), requires_grad=True)
        ref.max(axis=0).sum().backward()
        np.testing.assert_array_equal(x.grad, ref.grad)

    def test_finite_difference(self):
        rng = get_rng(5)
        seg = np.array([0, 0, 0, 1, 1, 2, 2, 2])

        def fn(t):
            return (segment_max(t, seg, 3) * 1.5).sum()

        # Distinct values so FD does not straddle a tie.
        data = rng.permutation(np.linspace(-2.0, 2.0, 8 * 3)).reshape(8, 3)
        check_scalar_fn(fn, data)

    def test_rejects_unsorted_or_gappy_ids(self):
        x = Tensor(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            segment_max(x, np.array([0, 1, 0, 1]), 2)  # unsorted
        with pytest.raises(ValueError):
            segment_max(x, np.array([0, 0, 2, 2]), 3)  # segment 1 empty
        with pytest.raises(ValueError):
            segment_max(x, np.array([0, 0, 1, 1]), 3)  # last segment empty


class TestBlockDiagonal:
    def test_layout(self):
        a = np.full((2, 2), 1.0)
        b = np.full((3, 3), 2.0)
        out = block_diagonal([a, b])
        assert out.shape == (5, 5)
        np.testing.assert_array_equal(out[:2, :2], a)
        np.testing.assert_array_equal(out[2:, 2:], b)
        assert out[:2, 2:].sum() == 0.0 and out[2:, :2].sum() == 0.0


class TestBatchedGCNEquivalence:
    @pytest.fixture()
    def graphs(self):
        rng = get_rng(6)
        return [random_graph(rng, n, 7) for n in (3, 5, 2, 4)]

    @pytest.fixture()
    def encoder(self):
        return GCNEncoder(7, 6, 2, get_rng(7))

    def test_forward_identical(self, graphs, encoder):
        batched = encoder.forward_batch(graphs).numpy()
        pergraph = forward_batch_pergraph(
            encoder, [(Tensor(v), a) for v, a in graphs]
        ).numpy()
        np.testing.assert_allclose(batched, pergraph, rtol=0.0, atol=1e-10)

    def test_parameter_gradients_identical(self, graphs, encoder):
        w = np.ones((4, 6))  # mix pooled rows so every graph contributes
        (encoder.forward_batch(graphs) * Tensor(w)).sum().backward()
        grads_batched = [p.grad.copy() for p in encoder.parameters()]
        for p in encoder.parameters():
            p.zero_grad()
        (
            forward_batch_pergraph(encoder, [(Tensor(v), a) for v, a in graphs])
            * Tensor(w)
        ).sum().backward()
        for gb, p in zip(grads_batched, encoder.parameters()):
            np.testing.assert_allclose(gb, p.grad, rtol=1e-12, atol=1e-12)

    def test_packed_matches_forward_batch(self, graphs, encoder):
        pack = pack_graphs(graphs)
        np.testing.assert_array_equal(
            encoder.forward_packed(pack).numpy(), encoder.forward_batch(graphs).numpy()
        )

    def test_single_graph_batch(self, encoder):
        rng = get_rng(8)
        v, a = random_graph(rng, 4, 7)
        batched = encoder.forward_batch([(v, a)]).numpy()
        single = encoder.forward(Tensor(v), a).numpy()
        np.testing.assert_allclose(batched[0], single, rtol=0.0, atol=1e-10)

    def test_empty_batch_raises(self, encoder):
        with pytest.raises(ValueError):
            encoder.forward_batch([])
        with pytest.raises(ValueError):
            pack_graphs([])
