"""Regression heads (Token and GAP variants) and the L1 training loss."""

from __future__ import annotations

from .ndtensor import absolute, add, mean, mlp, reshape, slice_axis, smul


def gap_pool(z):
    """Global average pool over the token axis: [B, N, D] -> [B, D]."""
    return mean(z, axis=1)


def token_pool(z):
    """Take the regression token's final state: [B, N+1, D] -> [B, D]."""
    tok = slice_axis(z, 1, 0, 1)
    return reshape(tok, (z.shape[0], z.shape[-1]))


def regress(pooled, params):
    """Pooled features [B, D] -> raw predicted counts [B], via head.w1 ... head.b2.

    Raw (possibly negative) values feed the loss; clamp at zero only when
    reporting final counts.
    """
    out = mlp(pooled, *(params["head." + n] for n in ("w1", "b1", "w2", "b2")))
    return reshape(out, (pooled.shape[0],))


def l1_loss(preds, targets):
    """Mean absolute error between predicted and ground-truth count Tensors."""
    if preds.shape != targets.shape:
        raise ValueError(f"prediction/target length mismatch: {preds.shape} vs {targets.shape}")
    if preds.shape[0] == 0:
        raise ValueError("empty batch")
    return mean(absolute(add(preds, smul(targets, -1.0))))
