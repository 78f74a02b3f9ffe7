"""Adaptive Model Update: adversarial fine-tuning of NECS (paper Sec. IV-B).

Training instances (small input data) form the *source* domain; online
tuning feedback (large input data) forms the *target* domain.  A
discriminator MLP tries to tell the domains apart from NECS's hidden
feature embeddings h_i; NECS is fine-tuned to minimise prediction error on
both domains *and* to make the embeddings domain-invariant (Eq. 8's
minimax), so the estimator transfers to large jobs.

Implementation: alternating updates.  Each round first trains the
discriminator on detached embeddings (maximise its accuracy), then updates
NECS with ``L_p - lambda * L_D`` (fool the discriminator while staying
accurate) — the standard adversarial-adaptation recipe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..utils.rng import get_rng

from .. import nn, obs
from ..obs import names as obsn
from .instances import StageInstance
from .necs import NECSEstimator


@dataclass(frozen=True)
class UpdateConfig:
    epochs: int = 10
    batch_size: int = 32
    lr: float = 1e-3
    disc_lr: float = 2e-3
    disc_hidden: int = 32
    adversarial_weight: float = 0.3   # lambda on the confusion term
    disc_steps: int = 1
    seed: int = 0


class DomainDiscriminator(nn.Module):
    """MLP with sigmoid output: P(h is from the source domain)."""

    def __init__(self, in_features: int, hidden: int, rng: np.random.Generator):
        super().__init__()
        self.l1 = nn.Dense(in_features, hidden, rng, activation="relu")
        self.l2 = nn.Dense(hidden, hidden // 2, rng, activation="relu")
        self.out = nn.Dense(hidden // 2, 1, rng, activation="sigmoid")

    def forward(self, h: nn.Tensor) -> nn.Tensor:
        return self.out(self.l2(self.l1(h))).reshape(-1)


class AdaptiveModelUpdater:
    """Fine-tunes a fitted :class:`NECSEstimator` with target feedback."""

    def __init__(self, estimator: NECSEstimator, config: UpdateConfig = UpdateConfig()):
        if estimator.network is None:
            raise ValueError("estimator must be fitted before adaptive update")
        self.estimator = estimator
        self.config = config
        self.discriminator: Optional[DomainDiscriminator] = None
        self.history_: List[dict] = []

    # ------------------------------------------------------------------
    def update(
        self,
        source: Sequence[StageInstance],
        target: Sequence[StageInstance],
    ) -> NECSEstimator:
        """Run the adversarial fine-tuning and return the updated estimator."""
        with obs.span(obsn.SPAN_NECS_UPDATE) as sp:
            est = self._update_impl(source, target)
            obs.counter(obsn.CTR_UPDATE_ROUNDS).inc()
            if self.history_:
                obs.gauge(obsn.GAUGE_UPDATE_PRED_LOSS).set(self.history_[-1]["pred_loss"])
                obs.gauge(obsn.GAUGE_UPDATE_DISC_LOSS).set(self.history_[-1]["disc_loss"])
            if sp:
                sp.set(n_source=len(source), n_target=len(target),
                       epochs=self.config.epochs)
            return est

    def _update_impl(
        self,
        source: Sequence[StageInstance],
        target: Sequence[StageInstance],
    ) -> NECSEstimator:
        """The adversarial fine-tuning loop behind :meth:`update`.

        The combined source+target corpus is featurised exactly once per
        ``update`` (not per epoch or per step) with template-deduplicated
        encoding, and its graphs are packed once.  Every step then encodes
        the full unique-template set through the CNN/GCN and gathers batch
        rows out by template index — see ``NECSEstimator._train_loop``.
        """
        if not source or not target:
            raise ValueError("both source and target instances are required")
        cfg = self.config
        est = self.estimator
        net = est.network
        rng = get_rng(cfg.seed)

        combined = list(source) + list(target)
        n_src, n_tgt = len(source), len(target)
        enc = est._encode_dedup(combined)
        pack = nn.pack_graphs(enc.graphs) if enc.graphs is not None else None
        all_y = est._encode_targets(combined)

        def batch_features(rows: np.ndarray):
            """(numeric, code_ids, graphs, template_index) for batch rows."""
            return enc.numeric[rows], enc.code_ids, pack, enc.template_index[rows]

        # Probe embedding width.
        _, h0 = net.forward_with_embedding(*batch_features(np.array([0])))
        self.discriminator = DomainDiscriminator(h0.shape[1], cfg.disc_hidden, rng)

        net_params = net.parameters()
        disc_params = self.discriminator.parameters()
        opt_model = nn.Adam(net_params, lr=cfg.lr)
        opt_disc = nn.Adam(disc_params, lr=cfg.disc_lr)

        half = max(2, cfg.batch_size // 2)
        steps = max(1, (n_src + n_tgt) // cfg.batch_size)

        for epoch in range(cfg.epochs):
            epoch_pred, epoch_disc = 0.0, 0.0
            for _ in range(steps):
                si = rng.integers(0, n_src, size=min(half, n_src))
                ti = rng.integers(0, n_tgt, size=min(half, n_tgt))
                rows = np.concatenate([si, ti + n_src])
                features = batch_features(rows)
                y = all_y[rows]
                labels = np.concatenate([np.ones(len(si)), np.zeros(len(ti))])

                # -------- discriminator step (on detached embeddings) ----
                for _ in range(cfg.disc_steps):
                    _, h = net.forward_with_embedding(*features)
                    h_const = h.detach()
                    d_prob = self.discriminator(h_const)
                    d_loss = nn.bce_loss(d_prob, labels)
                    opt_disc.zero_grad()
                    d_loss.backward()
                    opt_disc.step()

                # -------- NECS step: accurate + domain-confusing ---------
                pred, h = net.forward_with_embedding(*features)
                pred_loss = nn.mse_loss(pred, y)
                d_prob = self.discriminator(h)
                confusion = nn.bce_loss(d_prob, labels)
                total = pred_loss - cfg.adversarial_weight * confusion
                opt_model.zero_grad()
                # Freeze discriminator parameters during the model step.
                total.backward()
                for p in disc_params:
                    p.zero_grad()
                nn.clip_grad_norm(net_params, est.config.grad_clip)
                opt_model.step()

                epoch_pred += pred_loss.item()
                epoch_disc += d_loss.item()
            self.history_.append(
                {"epoch": epoch, "pred_loss": epoch_pred / steps, "disc_loss": epoch_disc / steps}
            )
        # Weights changed in place: cached template encodings are now stale.
        est.bump_version()
        return est

    # ------------------------------------------------------------------
    def domain_accuracy(
        self, source: Sequence[StageInstance], target: Sequence[StageInstance]
    ) -> float:
        """Discriminator accuracy on held instances (0.5 = fully confused)."""
        if self.discriminator is None:
            raise RuntimeError("update() has not been run")
        est = self.estimator
        h_src = est.feature_embeddings(list(source))
        h_tgt = est.feature_embeddings(list(target))
        p_src = self.discriminator(nn.Tensor(h_src)).numpy()
        p_tgt = self.discriminator(nn.Tensor(h_tgt)).numpy()
        correct = (p_src >= 0.5).sum() + (p_tgt < 0.5).sum()
        return float(correct) / (len(p_src) + len(p_tgt))
