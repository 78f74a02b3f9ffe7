"""Loss functions used across LITE and the neural baselines."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error; ``target`` is a constant array."""
    target_t = target if isinstance(target, Tensor) else Tensor(target)
    diff = pred - target_t
    return (diff * diff).mean()


def mae_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean absolute error via a smooth |x| = sqrt(x^2 + eps)."""
    target_t = target if isinstance(target, Tensor) else Tensor(target)
    diff = pred - target_t
    return ((diff * diff + 1e-12) ** 0.5).mean()


def bce_loss(prob: Tensor, target: np.ndarray, eps: float = 1e-7) -> Tensor:
    """Binary cross-entropy on probabilities in (0, 1)."""
    target_t = target if isinstance(target, Tensor) else Tensor(target)
    p = prob.clip(eps, 1.0 - eps)
    return -(target_t * p.log() + (1.0 - target_t) * (1.0 - p).log()).mean()


def bce_with_logits(logits: Tensor, target: np.ndarray) -> Tensor:
    """Numerically-stable BCE on raw logits.

    Uses ``max(x, 0) - x*t + log(1 + exp(-|x|))``.
    """
    target_t = target if isinstance(target, Tensor) else Tensor(target)
    abs_neg = -(logits * logits + 1e-24) ** 0.5  # -|x| smooth
    relu_x = logits.relu()
    return (relu_x - logits * target_t + (abs_neg.exp() + 1.0).log()).mean()


def huber_loss(pred: Tensor, target: np.ndarray, delta: float = 1.0) -> Tensor:
    """Huber loss (smooth L1) for robust regression (used by DDPG critic)."""
    target_t = target if isinstance(target, Tensor) else Tensor(target)
    diff = pred - target_t
    abs_diff = (diff * diff + 1e-12) ** 0.5
    quadratic = 0.5 * (diff * diff)
    linear = delta * (abs_diff - 0.5 * delta)
    # Read-only branch mask: .numpy() keeps the comparison off the tape.
    mask = abs_diff.numpy() <= delta
    from .tensor import where

    return where(mask, quadratic, linear).mean()
