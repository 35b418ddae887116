"""Model configuration, parameter initialization, and the full forward pass.

Parameters live in a flat name -> Tensor dict so the optimizer and the
checkpoint format can treat every learnable array uniformly.
"""

from __future__ import annotations

import collections
import ctypes
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import embedder, encoder, heads
from .ndtensor import (Tensor, _recording, concat, layer_norm, no_grad, reshape,
                       slice_axis, sum_axis)

HEAD_TOKEN = "token"
HEAD_GAP = "gap"

DENOM_MODEL_DIM = "model_dim"
DENOM_HEAD_DIM = "head_dim"

# Threads that score a no-grad forward's tiles, one per usable core, up to
# two. Each holds one tile's activations.
TILE_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8  # glibc mallopt parameters


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


def _layer_shapes(p, d):
    """One encoder layer's arrays in param_shapes: name (with prefix ``p``)
    and shape, at width ``d``."""
    return {
        p + "ln1.gamma": (d,), p + "ln1.beta": (d,),
        p + "w_q": (d, d), p + "w_k": (d, d), p + "w_v": (d, d),
        p + "w_o": (d, d),
        p + "ln2.gamma": (d,), p + "ln2.beta": (d,),
        p + "mlp.w1": (d, 4 * d), p + "mlp.b1": (4 * d,),
        p + "mlp.w2": (4 * d, d), p + "mlp.b2": (d,),
    }


# how many arrays param_shapes lists for each encoder layer
LAYER_ARRAYS = len(_layer_shapes("", 1))


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
        shapes.update(_layer_shapes(f"layer{l}.", d))
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
    contract. Every draw goes into one float64 scratch sized to the largest
    array, and 0.02 times it is rounded straight into the float32 array.
    """
    rng = np.random.default_rng(seed)
    shapes = param_shapes(cfg)
    scratch = np.empty(max(math.prod(shape) for shape in shapes.values()))

    def tn(shape):
        # truncated normal at 2 sigma, std 0.02: out-of-range draws are
        # redrawn in ascending index order until none is left
        flat = scratch[:math.prod(shape)]
        rng.standard_normal(out=flat)
        out_of_range = flat > 2.0
        out_of_range |= flat < -2.0
        bad = np.flatnonzero(out_of_range)
        del out_of_range
        while bad.size:
            redraw = rng.standard_normal(size=bad.size)
            flat[bad] = redraw
            bad = bad[np.abs(redraw) > 2.0]
        data = np.empty(shape, dtype=np.float32)
        np.multiply(flat, 0.02, out=data.reshape(-1), casting="unsafe")
        return data

    params = {}
    for name, shape in shapes.items():
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
    errs = []
    for p in params.values():
        def f(_p):
            preds, _ = forward(params, cfg, batch.data)
            return l1_loss(preds, labels)

        sample = None
        if samples_per_param is not None and p.data.size > samples_per_param:
            sample = sorted(rng.choice(p.data.size, samples_per_param,
                                       replace=False).tolist())
        errs.append(grad_check(f, p, h=h, sample=sample))
    return float(np.max(errs))  # a NaN error carries through


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

    Returns (predictions, [B, H, S, S] attention weights per layer if asked for).
    Predictions are raw head outputs; clamp at zero only when reporting final counts.

    No attention crosses tiles, so when no graph is recorded and no record
    is asked for, each tile is embedded, encoded and pooled on its own
    (``_score_tiles``) and only the pooled rows meet, in ``heads.regress``:
    the pass holds one tile's activations per thread, with the same float32
    operations.
    """
    _malloc_policy()
    x = patches if isinstance(patches, Tensor) else Tensor(patches)
    weights = []
    if record_attention or _recording((x, *params.values())):
        pooled = features(params, cfg, x, (lambda _, __, w: weights.append(w))
                          if record_attention else None)
    else:
        rows = np.concatenate(_score_tiles(params, cfg, x))
        pooled = Tensor(rows, dtype=rows.dtype)  # float64 rows stay float64
    return heads.regress(pooled, params), weights


def features(params, cfg, x, observe=None):
    """Patches [B, N, K*K*3] -> pooled [B, D]: embed, encode (observed), final LN, pool."""
    # embed's output goes straight to encode, which drops it after layer 0
    z = encoder.encode(embed(params, cfg, x), params, cfg.layers, cfg.heads,
                       cfg.attn_scale, observe)
    if cfg.final_ln:
        z = layer_norm(z, params["final_ln.gamma"], params["final_ln.beta"])
    return heads.gap_pool(z) if cfg.head_variant == HEAD_GAP else heads.token_pool(z)


def _score_tiles(params, cfg, x):
    """Every tile's pooled row, in tile order, scored on TILE_WORKERS threads.

    The tiles, a lone one too, run on a pool of up to TILE_WORKERS threads.
    Tile t + workers is handed to the pool only once tile t's row is back,
    so the pool holds one task per thread, not one per tile. Errors are
    raised in tile order, so the lowest failing tile's is; by then at most
    workers - 1 tiles past it have been handed to the pool, and they finish
    before it is raised. OpenBLAS is held at one thread meanwhile, so each
    thread keeps to its core and every GEMM gives the bytes it gives at one
    thread; a tile's bytes then depend on neither the worker count nor the
    BLAS thread count. Without a BLAS thread-count symbol the pool has one
    thread, which runs the tiles at the process's BLAS setting.
    """
    n = x.shape[0]

    def score_tile(t):
        with no_grad():  # grad mode is per thread
            return features(params, cfg, Tensor(x.data[t:t + 1], dtype=x.data.dtype)).data

    blas = _blas_thread_control()
    get_threads, set_threads = blas or (lambda: None, lambda _: None)
    before = get_threads()
    set_threads(1)
    try:
        workers = min(TILE_WORKERS, n) if blas else 1
        rows, running = [], collections.deque()
        with ThreadPoolExecutor(workers) as pool:
            for t in range(n):
                running.append(pool.submit(score_tile, t))
                if len(running) == workers:
                    rows.append(running.popleft().result())
            rows.extend(f.result() for f in running)
        return rows
    finally:
        set_threads(before)


@functools.cache
def _blas_thread_control():
    """(get, set) for the thread count of numpy's OpenBLAS, or None.

    The symbols are those of numpy's wheels (scipy-openblas, ILP64), looked
    up through numpy's own extension module, so they belong to the BLAS
    library numpy loaded.
    """
    try:
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)
        get_threads = lib.scipy_openblas_get_num_threads64_
        set_threads = lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get_threads.argtypes, get_threads.restype = (), ctypes.c_int
    set_threads.argtypes, set_threads.restype = (ctypes.c_int,), None
    return get_threads, set_threads


@functools.cache
def _malloc_policy():
    """Set glibc's malloc policy for the rest of the process, once.

    - One arena (M_ARENA_MAX 1): otherwise a tile pool thread gets an arena
      of its own, whose freed activations stay mapped (perfbench paper-eval
      peaked at 458 MB RSS against 441 MB, on a 2-core Xeon).
    - A trim threshold of 1 GiB: otherwise the heap top is given back
      when a train step's arrays are freed and faulted in again on the next
      step (about 1,500 minor faults per toy step). A paper step frees a
      heap top close to 256 MiB (its graph alone is 244 MiB), so at a
      threshold of 256 MiB it is left to chance whether a step's top is
      given back and faulted in again (about 50,000 minor faults when it
      is). Freed pages that stay mapped raise no high-water mark of RSS.
    - An mmap threshold of 32 MiB, glibc's ceiling on 64-bit: setting the
      trim threshold switches off the dynamic mmap threshold, which would
      stay at 128 KiB and map, then fault in, every mid-size array afresh.

    Where libc has no ``mallopt`` this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_ARENA_MAX, 1)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)


def batch_predictions(params, cfg, batch):
    """Forward a PatchBatch into per-image predictions (tile sums)."""
    preds, _ = forward(params, cfg, batch.data)
    if batch.data.shape[0] == batch.batch:  # one tile per image
        return preds
    sums, start = [], 0
    for n in batch.tiles:
        sums.append(reshape(sum_axis(slice_axis(preds, 0, start, start + n), 0), (1,)))
        start += n
    return concat(sums, 0)
