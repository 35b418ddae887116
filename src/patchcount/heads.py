"""Regression heads (Token and GAP variants) and the L1 training loss."""

from __future__ import annotations

from dataclasses import dataclass

from .ndtensor import Tensor, absolute, gelu, linear, mean, reshape, slice_axis


@dataclass
class HeadParams:
    """Two-linear-layer count head with GELU between."""

    variant: str  # "token" or "gap"
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


def gap_pool(z):
    """Global average pool over the token axis: [B, N, D] -> [B, D]."""
    return mean(z, axis=1)


def token_pool(z):
    """Take the regression token's final state: [B, N+1, D] -> [B, D]."""
    tok = slice_axis(z, 1, 0, 1)
    return reshape(tok, (z.shape[0], z.shape[-1]))


def regress(pooled, head):
    """Pooled features [B, D] -> raw predicted counts [B].

    Raw (possibly negative) values feed the loss; clamp at zero only when
    reporting final counts.
    """
    h = gelu(linear(pooled, head.w1, head.b1))
    out = linear(h, head.w2, head.b2)
    return reshape(out, (pooled.shape[0],))


def l1_loss(preds, targets):
    """Mean absolute error between predictions and ground-truth counts."""
    if isinstance(targets, Tensor):
        t = targets
    else:
        t = Tensor(targets)
    if preds.shape != t.shape:
        raise ValueError(f"prediction/target length mismatch: {preds.shape} vs {t.shape}")
    if preds.shape[0] == 0:
        raise ValueError("empty batch")
    return mean(absolute(preds - t))
