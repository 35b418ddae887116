"""Evaluation metrics, full-image prediction, attention maps, run logging."""

from __future__ import annotations

import math

import numpy as np

from . import patchio
from .ndtensor import no_grad
from .model import HEAD_TOKEN, batch_predictions


def mae_mse(preds, gts):
    """MAE and root-form MSE over per-image count errors.

    MSE here is sqrt(mean(|P - G|^2)): the root is part of the metric's
    definition in this codebase, despite the name.
    """
    preds = np.asarray(preds, dtype=np.float64)
    gts = np.asarray(gts, dtype=np.float64)
    if preds.shape != gts.shape:
        raise ValueError(f"length mismatch: {preds.shape} vs {gts.shape}")
    if preds.size == 0:
        raise ValueError("empty input")
    err = np.abs(preds - gts)
    return float(err.mean()), float(math.sqrt((err ** 2).mean()))


def predict_image(img, params, cfg):
    """Predict a full image's count as the sum of its tile predictions.

    The image is tiled by ``patchio.fit_to_grid``, the same rule training
    uses. Clamped at zero; a non-finite sum raises FloatingPointError rather
    than clamping to zero.
    """
    batch = patchio.make_batch([(patchio.fit_to_grid(img, cfg.image_size), 0.0)],
                               cfg.patch_size)
    with no_grad():
        preds = batch_predictions(params, cfg, batch)
    total = float(preds.data[0])
    if not math.isfinite(total):
        raise FloatingPointError(f"non-finite prediction {total!r}")
    return max(0.0, total)


def evaluate(pairs, params, cfg):
    """Per-image predictions plus aggregate MAE/MSE over a dataset.

    ``pairs`` is read once, so it may be an iterator that decodes each
    image just before it is scored.
    """
    preds, gts = [], []
    for img, count in pairs:
        preds.append(predict_image(img, params, cfg))
        gts.append(count)
    mae, mse = mae_mse(preds, gts)
    return preds, gts, mae, mse


def write_eval_report(names, preds, gts, path):
    """TSV report: one line per image, MAE/MSE footer."""
    mae, mse = mae_mse(preds, gts)
    with open(path, "w") as fh:
        fh.write("image\tpred\tgt\n")
        for name, p, g in zip(names, preds, gts):
            fh.write(f"{name}\t{p:.4f}\t{g:g}\n")
        fh.write(f"MAE\t{mae:.6f}\n")
        fh.write(f"MSE\t{mse:.6f}\n")
    return mae, mse


def attention_map(weights, cfg):
    """Distill one layer's [B, H, S, S] weights into one [g, g] float32 patch-grid map.

    Reads tile 0 with all heads averaged. The Token variant takes the
    regression-token query row over the patch keys; the GAP variant takes
    the per-key mean over all query rows. The map is min-max normalized to
    [0, 1]; a constant map normalizes to all zeros.
    """
    avg = weights[0].mean(axis=0)  # single-image contract, heads averaged
    if cfg.head_variant == HEAD_TOKEN:
        row = avg[0, 1:]  # regression-token query over patch keys
    else:
        row = avg.mean(axis=0)
    g = cfg.image_size // cfg.patch_size
    grid = row.reshape(g, g)
    lo, hi = grid.min(), grid.max()
    if hi - lo <= 0:
        norm = np.zeros_like(grid)
    else:
        norm = (grid - lo) / (hi - lo)
    return norm.astype(np.float32)


class ConvergenceLog:
    """Append-only per-epoch TSV: epoch, train loss, eval MAE."""

    HEADER = "epoch\ttrain_loss\teval_mae\n"

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "w")
        self._fh.write(self.HEADER)
        self._fh.flush()

    def record(self, epoch, train_loss, eval_mae=float("nan")):
        self._fh.write(f"{epoch}\t{train_loss:.6f}\t{eval_mae:.6f}\n")
        self._fh.flush()

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
