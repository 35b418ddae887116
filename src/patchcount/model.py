"""Model configuration, parameter initialization, and the full forward pass.

Parameters live in a flat name -> Tensor dict so the optimizer and the
checkpoint format can treat every learnable array uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import embedder, encoder, heads
from .ndtensor import Tensor, _recording, layer_norm, reshape, sum_axis

HEAD_TOKEN = "token"
HEAD_GAP = "gap"

DENOM_MODEL_DIM = "model_dim"
DENOM_HEAD_DIM = "head_dim"


@dataclass
class ModelConfig:
    """Architecture constants. Defaults are the full-scale settings."""

    image_size: int = 384
    patch_size: int = 16
    dim: int = 768
    heads: int = 12
    layers: int = 12
    head_variant: str = HEAD_GAP
    hidden_dim: int | None = None  # regression-head width; defaults to dim
    attn_denominator: str = DENOM_MODEL_DIM
    final_ln: bool = False

    def __post_init__(self):
        if self.hidden_dim is None:
            self.hidden_dim = self.dim
        for name in ("image_size", "patch_size", "dim", "heads", "layers", "hidden_dim"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be an int >= 1, got {value!r}")
        if not isinstance(self.final_ln, bool):
            raise ValueError(f"final_ln must be a bool, got {self.final_ln!r}")
        if self.image_size % self.patch_size:
            raise ValueError(
                f"image size {self.image_size} not divisible by patch size {self.patch_size}")
        if self.dim % self.heads:
            raise ValueError(f"dim {self.dim} not divisible by heads {self.heads}")
        if self.head_variant not in (HEAD_TOKEN, HEAD_GAP):
            raise ValueError(f"unknown head variant {self.head_variant!r}")
        if self.attn_denominator not in (DENOM_MODEL_DIM, DENOM_HEAD_DIM):
            raise ValueError(f"unknown attention denominator {self.attn_denominator!r}")

    @property
    def seq_len(self):
        """N: number of patch tokens per tile."""
        return (self.image_size // self.patch_size) ** 2

    @property
    def patch_dim(self):
        return self.patch_size * self.patch_size * 3

    @property
    def attn_scale(self):
        denom = self.dim if self.attn_denominator == DENOM_MODEL_DIM else self.dim // self.heads
        return 1.0 / np.sqrt(denom)


def param_shapes(cfg):
    """Every learnable array's name and shape, in init and checkpoint order."""
    d, hid = cfg.dim, cfg.hidden_dim
    with_token = cfg.head_variant == HEAD_TOKEN
    shapes = {
        "embed.proj": (cfg.patch_dim, d),
        "embed.pos": (cfg.seq_len + (1 if with_token else 0), d),
    }
    if with_token:
        shapes["embed.reg_token"] = (1, d)
    for l in range(cfg.layers):
        p = f"layer{l}."
        shapes.update({
            p + "ln1.gamma": (d,), p + "ln1.beta": (d,),
            p + "w_q": (d, d), p + "w_k": (d, d), p + "w_v": (d, d),
            p + "w_o": (d, d),
            p + "ln2.gamma": (d,), p + "ln2.beta": (d,),
            p + "mlp.w1": (d, 4 * d), p + "mlp.b1": (4 * d,),
            p + "mlp.w2": (4 * d, d), p + "mlp.b2": (d,),
        })
    if cfg.final_ln:
        shapes["final_ln.gamma"] = (d,)
        shapes["final_ln.beta"] = (d,)
    shapes.update({"head.w1": (d, hid), "head.b1": (hid,),
                   "head.w2": (hid, 1), "head.b2": (1,)})
    return shapes


def init_params(cfg, seed):
    """Initialize every learnable array; truncated-normal(0, 0.02) projections.

    LayerNorm gains start at one, biases and the regression token at zero.
    Arrays are drawn in ``param_shapes`` order, so the order is the seed's
    contract.
    """
    rng = np.random.default_rng(seed)

    def tn(shape):
        # truncated normal at 2 sigma, std 0.02
        a = rng.standard_normal(size=shape)
        while True:
            bad = np.abs(a) > 2.0
            if not bad.any():
                break
            a[bad] = rng.standard_normal(size=int(bad.sum()))
        return (a * 0.02).astype(np.float32)

    params = {}
    for name, shape in param_shapes(cfg).items():
        if name.endswith(".gamma"):
            data = np.ones(shape, dtype=np.float32)
        elif name.endswith((".beta", ".b1", ".b2", ".reg_token")):
            data = np.zeros(shape, dtype=np.float32)
        else:
            data = tn(shape)
        params[name] = Tensor(data, requires_grad=True)
    return params


def grad_check_model(cfg, seed=0, samples_per_param=None, h=1e-3):
    """Finite-difference check of the whole model's gradients.

    Builds a one-image synthetic batch, takes the L1 loss as a function of
    each parameter tensor in turn, and returns the worst relative error.
    ``samples_per_param`` caps the coordinates checked per tensor (seeded
    subsample); None checks every coordinate.
    """
    from . import patchio
    from .heads import l1_loss
    from .ndtensor import grad_check

    params = init_params(cfg, seed)
    spec = patchio.SynthSpec(side=cfg.image_size, count_min=5, count_max=5,
                             dot_radius=max(1.0, cfg.image_size / 32), seed=seed)
    batch = patchio.make_batch(patchio.synth_generate(spec, 1), cfg.patch_size)
    labels = Tensor(batch.labels)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for p in params.values():
        def f(_p):
            preds, _ = forward(params, cfg, batch.data)
            return l1_loss(preds, labels)

        sample = None
        if samples_per_param is not None and p.data.size > samples_per_param:
            sample = sorted(rng.choice(p.data.size, samples_per_param,
                                       replace=False).tolist())
        worst = max(worst, grad_check(f, p, h=h, sample=sample))
    return worst


def embed(params, cfg, patches):
    """Patch sequences [B, N, K*K*3] -> position-embedded tokens [B, S, D].

    The Token variant's regression token is prepended first, so S = N + 1.
    """
    x = patches if isinstance(patches, Tensor) else Tensor(patches)
    e = embedder.linear_embed(x, params["embed.proj"])
    if cfg.head_variant == HEAD_TOKEN:
        e = embedder.prepend_reg_token(e, params["embed.reg_token"])
    return embedder.add_position(e, params["embed.pos"])


def forward(params, cfg, patches, record_attention=False):
    """Patch sequences [B, N, K*K*3] -> raw per-tile counts [B].

    Returns (predictions, attention records). Predictions are raw head
    outputs; clamp at zero only when reporting final counts.

    No attention crosses tiles, so when no graph is recorded and no record
    is asked for, the encoder runs one tile at a time and each result is
    written over that tile's rows of the array ``embed`` just made: the
    pass holds one tile's activations, with the same float32 operations.
    """
    z = embed(params, cfg, patches)
    if record_attention or _recording((z, *params.values())):
        z, records = encoder.encode(z, params, cfg.layers, cfg.heads, cfg.attn_scale,
                                    record_attention)
    else:
        records, out = [], z.data
        for t in range(z.shape[0]):
            zt = encoder.encode(Tensor(z.data[t:t + 1], dtype=z.data.dtype), params,
                                cfg.layers, cfg.heads, cfg.attn_scale)[0].data
            if zt.dtype != out.dtype:  # a float64 encoder weight, as grad_check sets
                out = np.empty(z.shape, zt.dtype)
            out[t:t + 1] = zt
        z = Tensor(out, dtype=out.dtype)
    if cfg.final_ln:
        z = layer_norm(z, params["final_ln.gamma"], params["final_ln.beta"])
    if cfg.head_variant == HEAD_GAP:
        pooled = heads.gap_pool(z)
    else:
        pooled = heads.token_pool(z)
    preds = heads.regress(pooled, params)
    return preds, records


def batch_predictions(params, cfg, batch):
    """Forward a PatchBatch into per-image predictions (tile sums)."""
    preds, records = forward(params, cfg, batch.data)
    t = batch.tiles_per_image
    if t > 1:
        preds = sum_axis(reshape(preds, (batch.batch, t)), 1)
    return preds, records
