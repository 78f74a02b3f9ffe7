"""Test-only oracle: the per-row NECS paths the single training engine replaced.

Here every batch row is encoded on its own (full-width code ids, one DAG
per row), and the training loops push every DAG through the GCN one graph
at a time.  The fit
and adaptive-update loops reuse the production ``NECSNetwork``,
``nn.Adam``, ``get_rng`` streams and ``DomainDiscriminator``, and differ
from ``NECSEstimator.fit`` / ``AdaptiveModelUpdater.update`` only in that
feature path.  The engine's template-deduplicated, packed-GCN trajectory
can therefore be checked against them epoch by epoch, and the benchmarks
time them as the pre-batching baseline.  Nothing under ``src/`` imports
this module.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import nn
from repro.core.instances import StageInstance
from repro.core.necs import NECSEstimator, NECSNetwork
from repro.core.recommender import KnobRecommender, Recommendation, retarget_instances
from repro.core.update import DomainDiscriminator, UpdateConfig
from repro.sparksim.cluster import ClusterSpec
from repro.sparksim.config import SparkConf
from repro.utils.rng import get_rng

Graphs = Optional[List[Tuple[np.ndarray, np.ndarray]]]


# ----------------------------------------------------------------------
# Per-row features
# ----------------------------------------------------------------------
def encode_rows(
    est: NECSEstimator, instances: Sequence[StageInstance], fit: bool = False
) -> Tuple[np.ndarray, Optional[np.ndarray], Graphs]:
    """``(numeric, code_ids, graphs)`` with one entry per instance."""
    numeric = np.stack([est._numeric_raw(i) for i in instances])
    if fit:
        est.numeric_scaler.fit(numeric)
    numeric = est.numeric_scaler.transform(numeric)
    code_ids = None
    if est.config.code_encoder != "none":
        code_ids = est.tokenizer.encode_batch([i.code_tokens for i in instances])
    graphs = None
    if est.config.use_dag:
        graphs = [est.dag_encoder.encode(i.dag_labels, i.dag_edges) for i in instances]
    return numeric, code_ids, graphs


def forward_batch_pergraph(gcn: nn.GCNEncoder, graphs: Sequence[Tuple]) -> nn.Tensor:
    """Encode one graph at a time and stack: ``(len(graphs), hidden)``."""
    return nn.stack(
        [gcn.forward(v if isinstance(v, nn.Tensor) else nn.Tensor(v), a) for v, a in graphs],
        axis=0,
    )


def _features(net: NECSNetwork, numeric, code_ids, graphs, per_graph: bool = True) -> nn.Tensor:
    """``concat(numeric, h_code, h_DAG)`` with one code row and one DAG per
    batch row; ``per_graph=False`` runs those DAGs through the network's
    block-diagonal GCN instead of one graph at a time."""
    parts = [nn.Tensor(numeric)]
    if net.config.code_encoder != "none":
        parts.append(net._encode_code(code_ids))
    if net.config.use_dag:
        parts.append(
            forward_batch_pergraph(net.gcn, graphs) if per_graph
            else net._encode_dags(graphs)
        )
    return nn.concat(parts, axis=-1) if len(parts) > 1 else parts[0]


def forward(net: NECSNetwork, numeric, code_ids, graphs, per_graph: bool = True) -> nn.Tensor:
    return net.mlp(_features(net, numeric, code_ids, graphs, per_graph)).reshape(-1)


def forward_with_embedding(net: NECSNetwork, numeric, code_ids, graphs):
    taps = net.mlp.hidden_embeddings(_features(net, numeric, code_ids, graphs))
    pred = net.mlp.layers[-1](taps[-1]).reshape(-1)
    return pred, nn.concat(taps, axis=-1)


def _rows(numeric, code_ids, graphs, idx):
    return (
        numeric[idx],
        code_ids[idx] if code_ids is not None else None,
        [graphs[i] for i in idx] if graphs is not None else None,
    )


# ----------------------------------------------------------------------
# Fit, predict, embed, update
# ----------------------------------------------------------------------
def fit(est: NECSEstimator, instances: Sequence[StageInstance]) -> NECSEstimator:
    """``NECSEstimator.fit`` with per-row features; fits ``est`` in place."""
    cfg = est.config
    if cfg.code_encoder != "none":
        est.tokenizer.fit([i.code_tokens for i in instances])
    if cfg.use_dag:
        est.dag_encoder.fit([i.dag_labels for i in instances])
    numeric, code_ids, graphs = encode_rows(est, instances, fit=True)
    targets = est._encode_targets(instances, fit=True)
    est.network = NECSNetwork(
        cfg,
        vocab_size=est.tokenizer.vocab_size if cfg.code_encoder != "none" else 0,
        dag_dim=est.dag_encoder.dim if cfg.use_dag else 0,
        numeric_dim=numeric.shape[1],
    )
    params = est.network.parameters()
    optimizer = nn.Adam(params, lr=cfg.lr)
    rng = get_rng(cfg.seed + 1)
    n = len(targets)
    est.train_losses_ = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        batches = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            pred = forward(est.network, *_rows(numeric, code_ids, graphs, idx))
            loss = nn.mse_loss(pred, targets[idx])
            optimizer.zero_grad()
            loss.backward()
            nn.clip_grad_norm(params, cfg.grad_clip)
            optimizer.step()
            epoch_loss += loss.item()
            batches += 1
        est.train_losses_.append(epoch_loss / max(batches, 1))
    est.bump_version()
    return est


def predict(est: NECSEstimator, instances: Sequence[StageInstance]) -> np.ndarray:
    """Predicted stage seconds, encoding each chunk of rows from scratch.

    Each chunk's DAGs go through the block-diagonal GCN: per-graph
    propagation differs from it in the last ulp (BLAS picks kernels by
    matrix shape), and :func:`rank_per_instance` must match the fused
    float64 ranking bit for bit.
    """
    out = np.empty(len(instances))
    bs = max(est.config.batch_size, 64)
    with est._eval_mode():
        for start in range(0, len(instances), bs):
            chunk = instances[start : start + bs]
            out[start : start + len(chunk)] = forward(
                est.network, *encode_rows(est, chunk), per_graph=False
            ).numpy()
    return np.expm1(out * est._y_std + est._y_mean)


def feature_embeddings(est: NECSEstimator, instances: Sequence[StageInstance]) -> np.ndarray:
    with est._eval_mode():
        _, h = forward_with_embedding(est.network, *encode_rows(est, instances))
    return h.numpy()


def update(
    est: NECSEstimator,
    source: Sequence[StageInstance],
    target: Sequence[StageInstance],
    config: UpdateConfig = UpdateConfig(),
) -> List[dict]:
    """``AdaptiveModelUpdater.update`` with per-row features; returns its
    per-epoch history and updates ``est`` in place."""
    net = est.network
    rng = get_rng(config.seed)
    combined = list(source) + list(target)
    n_src, n_tgt = len(source), len(target)
    numeric, code_ids, graphs = encode_rows(est, combined)
    all_y = est._encode_targets(combined)

    _, h0 = forward_with_embedding(net, *_rows(numeric, code_ids, graphs, np.array([0])))
    disc = DomainDiscriminator(h0.shape[1], config.disc_hidden, rng)
    net_params = net.parameters()
    disc_params = disc.parameters()
    opt_model = nn.Adam(net_params, lr=config.lr)
    opt_disc = nn.Adam(disc_params, lr=config.disc_lr)

    half = max(2, config.batch_size // 2)
    steps = max(1, (n_src + n_tgt) // config.batch_size)
    history = []
    for epoch in range(config.epochs):
        epoch_pred, epoch_disc = 0.0, 0.0
        for _ in range(steps):
            si = rng.integers(0, n_src, size=min(half, n_src))
            ti = rng.integers(0, n_tgt, size=min(half, n_tgt))
            rows = np.concatenate([si, ti + n_src])
            features = _rows(numeric, code_ids, graphs, rows)
            labels = np.concatenate([np.ones(len(si)), np.zeros(len(ti))])
            for _ in range(config.disc_steps):
                _, h = forward_with_embedding(net, *features)
                d_loss = nn.bce_loss(disc(h.detach()), labels)
                opt_disc.zero_grad()
                d_loss.backward()
                opt_disc.step()
            pred, h = forward_with_embedding(net, *features)
            pred_loss = nn.mse_loss(pred, all_y[rows])
            confusion = nn.bce_loss(disc(h), labels)
            total = pred_loss - config.adversarial_weight * confusion
            opt_model.zero_grad()
            total.backward()
            for p in disc_params:
                p.zero_grad()
            nn.clip_grad_norm(net_params, est.config.grad_clip)
            opt_model.step()
            epoch_pred += pred_loss.item()
            epoch_disc += d_loss.item()
        history.append(
            {"epoch": epoch, "pred_loss": epoch_pred / steps, "disc_loss": epoch_disc / steps}
        )
    est.bump_version()
    return history


# ----------------------------------------------------------------------
# Ranking
# ----------------------------------------------------------------------
def rank_per_instance(
    recommender: KnobRecommender,
    templates: Sequence[StageInstance],
    candidates: np.ndarray,
    data_features: np.ndarray,
    cluster: ClusterSpec,
) -> Recommendation:
    """Rank with one retargeted StageInstance per (candidate, stage), each
    re-encoded row by row — no template reuse at all.  ``candidates`` is a
    knob matrix, one candidate per row, as ``KnobRecommender.rank`` takes."""
    if not templates:
        raise ValueError("no stage templates for the application")
    if len(candidates) == 0:
        raise ValueError("no candidate configurations")
    start = time.perf_counter()
    batch: List[StageInstance] = []
    for conf in SparkConf.from_matrix(candidates):
        batch.extend(retarget_instances(templates, conf, data_features, cluster))
    totals = predict(recommender.estimator, batch).reshape(
        len(candidates), len(templates)
    ).sum(axis=1)
    return recommender._build(candidates, totals, start)
