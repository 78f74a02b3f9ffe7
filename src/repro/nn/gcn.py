"""Graph Convolutional Network for DAG-scheduler encoding (paper Sec. III-E).

Implements the propagation rule

    H^{l+1} = ReLU( D^{-1/2} (A + I) D^{-1/2} H^l W^l )

followed by a global max-pool over nodes to obtain the scheduler
representation ``h_DAG`` (Eq. 2).
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from .layers import Dense
from .module import Module
from .tensor import Tensor, concat, segment_max


def normalized_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """Return ``D^{-1/2} (A + I) D^{-1/2}`` for a (possibly directed) DAG.

    The adjacency is symmetrised first — graph convolution propagates
    information both along and against edge direction, which is what we want
    for stage DAGs where both producers and consumers matter.
    """
    adjacency = np.asarray(adjacency, dtype=np.float64)
    if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
        raise ValueError(f"adjacency must be square, got {adjacency.shape}")
    n = adjacency.shape[0]
    sym = np.maximum(adjacency, adjacency.T)
    a_hat = sym + np.eye(n)
    degree = a_hat.sum(axis=1)
    d_inv_sqrt = 1.0 / np.sqrt(np.maximum(degree, 1e-12))
    return a_hat * d_inv_sqrt[:, None] * d_inv_sqrt[None, :]


def block_diagonal(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Dense block-diagonal matrix from square blocks.

    One propagation over the packed matrix equals per-block propagation:
    every off-block entry is an exact zero, so each packed row's matmul
    accumulates the same terms (plus exact-zero additions) as the
    per-graph matmul.
    """
    sizes = [np.asarray(b).shape[0] for b in blocks]
    total = sum(sizes)
    out = np.zeros((total, total))
    offset = 0
    for block, n in zip(blocks, sizes):
        out[offset : offset + n, offset : offset + n] = block
        offset += n
    return out


class GraphPack(NamedTuple):
    """A batch of ragged graphs packed for one-shot propagation.

    Graph structure is weight-independent, so a pack built once (e.g. for
    the unique stage templates of a training corpus) is reused across every
    optimizer step; only the conv-layer weights change between steps.
    """

    features: np.ndarray     #: (sum |V_g|, in_features) packed node features
    prop: np.ndarray         #: block-diagonal normalized adjacency
    segment_ids: np.ndarray  #: (sum |V_g|,) row -> graph id, sorted
    n_graphs: int


def pack_graphs(graphs: Sequence[Tuple]) -> GraphPack:
    """Pack ``(node_features, norm_adjacency)`` pairs for ``forward_packed``."""
    if not graphs:
        raise ValueError("cannot pack an empty graph batch")
    feats = [
        v.numpy() if isinstance(v, Tensor) else np.asarray(v, dtype=np.float64)
        for v, _ in graphs
    ]
    sizes = [f.shape[0] for f in feats]
    return GraphPack(
        features=np.concatenate(feats, axis=0),
        prop=block_diagonal([a for _, a in graphs]),
        segment_ids=np.repeat(np.arange(len(graphs)), sizes),
        n_graphs=len(graphs),
    )


class GCNEncoder(Module):
    """Encode one DAG ``(V, A)`` to a fixed-size vector.

    Parameters
    ----------
    in_features:
        Node feature dimension (one-hot over atomic operations + oov).
    hidden:
        Output dimension of every graph-convolution layer.
    num_layers:
        Number of propagation steps.
    """

    def __init__(self, in_features: int, hidden: int, num_layers: int, rng: np.random.Generator):
        super().__init__()
        self.layers: List[Dense] = []
        prev = in_features
        for _ in range(num_layers):
            self.layers.append(Dense(prev, hidden, rng, bias=False))
            prev = hidden
        self.out_dim = hidden

    def forward(self, node_features: Tensor, norm_adjacency: np.ndarray) -> Tensor:
        """``node_features``: (|V|, in_features); returns (hidden,)."""
        prop = Tensor(norm_adjacency)
        h = node_features
        for layer in self.layers:
            h = (prop @ layer(h)).relu()
        return h.max(axis=0)

    def forward_batch(self, graphs: Sequence[Tuple]) -> Tensor:
        """Encode ``(node_features, norm_adjacency)`` pairs in one pass.

        Returns a ``(len(graphs), hidden)`` tensor.  Graphs are ragged, so
        node features are packed row-wise into one matrix, the normalized
        adjacencies into one block-diagonal propagation matrix, and each
        conv layer runs as a single matmul chain over every node of every
        graph; per-graph pooling is a ``segment_max``.  One optimizer step
        therefore records a handful of large tape nodes instead of dozens
        of per-graph tapes, while staying numerically equivalent to calling
        :meth:`forward` once per graph (the propagation is exact, pooling
        is exact, and only BLAS batch-shape effects at the 1e-15 level can
        differ in the dense layers).
        """
        if not graphs:
            raise ValueError("forward_batch needs at least one graph")
        feats = [v if isinstance(v, Tensor) else Tensor(v) for v, _ in graphs]
        sizes = [f.shape[0] for f in feats]
        prop = Tensor(block_diagonal([a for _, a in graphs]))
        segment_ids = np.repeat(np.arange(len(graphs)), sizes)
        h = feats[0] if len(feats) == 1 else concat(feats, axis=0)
        return self._propagate(h, prop, segment_ids, len(graphs))

    def forward_packed(self, pack: GraphPack) -> Tensor:
        """Encode a prebuilt :class:`GraphPack` (packed once, run per step).

        The pack's node features are constants (one-hot labels), so the
        training loop amortises all packing work — concatenation, the
        block-diagonal propagation matrix, segment ids — across every
        optimizer step of a fit.
        """
        return self._propagate(
            Tensor(pack.features), Tensor(pack.prop), pack.segment_ids, pack.n_graphs
        )

    def _propagate(
        self, h: Tensor, prop: Tensor, segment_ids: np.ndarray, n_graphs: int
    ) -> Tensor:
        for layer in self.layers:
            h = (prop @ layer(h)).relu()
        return segment_max(h, segment_ids, n_graphs)
