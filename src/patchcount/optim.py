"""Adam with decoupled weight decay, the training loop, and checkpoints.

Checkpoint layout (all integers 32-bit little-endian):
  magic "TCWD" | version=1 | json_len | json config block | array_count |
  per array: name_len, name utf-8, rank, dims..., float32 payload.
Optimizer moments are stored as "<param>.m" / "<param>.v"; the step
counter lives in the JSON block. Loading reads only the parameters; each
moment stays in the file until it is first used.
"""

from __future__ import annotations

import json
import math
import os
import struct
from collections.abc import Mapping
from dataclasses import dataclass, field, asdict

import numpy as np

from . import encoder, ndtensor, patchio
from . import model as model_mod
from .heads import l1_loss
from .model import batch_predictions  # also traced under this name by perfbench
from .ndtensor import MissingGradError, Tensor, backward, no_grad
from .patchio import finite_real

MAGIC = b"TCWD"
VERSION = 1
_MAX_RANK = 64  # numpy's limit on ndarray dimensions


class CheckpointError(ValueError):
    """Malformed, truncated, or mismatched checkpoint file."""


@dataclass
class AdamState:
    """First/second-moment buffers plus hyperparameters.

    ``m`` and ``v`` map each parameter name to its buffer: dicts from
    ``init_adam``, read-on-first-use mappings from ``load_checkpoint``.
    """

    lr: float = 1e-5
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 1e-4
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("lr", "beta1", "beta2", "eps", "weight_decay"):
            if not finite_real(value := getattr(self, name)):
                raise ValueError(f"adam {name} must be a finite number, got {value!r}")
        if not (self.lr >= 0 and self.eps > 0):  # lr 0 is a step that moves nothing
            raise ValueError(f"adam lr must be >= 0 and eps > 0, got {self.lr!r} and {self.eps!r}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError(f"adam beta1 and beta2 must be in [0, 1), got "
                             f"{self.beta1!r} and {self.beta2!r}")
        if self.weight_decay < 0:
            raise ValueError(f"adam weight_decay must be >= 0, got {self.weight_decay!r}")
        if isinstance(self.t, bool) or not isinstance(self.t, int) or not 0 <= self.t < 2 ** 63:
            raise ValueError(f"adam t must be an int in [0, 2**63), got {self.t!r}")


_ADAM_KEYS = ("lr", "beta1", "beta2", "eps", "weight_decay", "t")


@dataclass
class TrainConfig:
    """Training-run settings; defaults follow the full-scale recipe."""

    batch_size: int = 24
    epochs: int = 10
    seed: int = 0
    lr: float = 1e-5
    weight_decay: float = 1e-4
    augment: bool = True
    checkpoint_every: int = 0  # epochs; 0 = only at the end

    def __post_init__(self):
        for name, low in (("batch_size", 1), ("epochs", 0), ("seed", 0),
                          ("checkpoint_every", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < low:
                raise ValueError(f"{name} must be an int >= {low}, got {value!r}")
        if not (finite_real(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr!r}")
        if not (finite_real(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay!r}")
        if not isinstance(self.augment, bool):
            raise ValueError(f"augment must be a bool, got {self.augment!r}")


def init_adam(params, lr=1e-5, weight_decay=1e-4):
    state = AdamState(lr=lr, weight_decay=weight_decay)
    for name, p in params.items():
        state.m[name] = np.zeros_like(p.data)
        state.v[name] = np.zeros_like(p.data)
    return state


def _adam_update(state, t):
    """Returns ``update(name, p)``, which applies Adam step ``t`` of
    ``state`` to parameter ``p`` from ``p.grad``; ``state.t`` is the caller's.

    Decay is applied as theta -= lr * wd * theta before the Adam delta.
    Each parameter is updated in place one block at a time, through two
    block-sized scratch buffers, so its parameter, gradient and moment
    slices and the scratch stay in L2 across all of the block's passes;
    each float32 operation keeps the operands and order of
    m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
    p -= lr * (m/bc1) / (sqrt(v/bc2) + eps).
    """
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    decay = np.float32(state.lr * state.weight_decay)
    # six float32 arrays share a block: p, g, m, v and the two scratch slices
    block = max(ndtensor._BLOCK_BYTES // (6 * 4), 1)

    def update(name, p):
        grad, mom, vel = p.grad, state.m[name], state.v[name]
        # per call, so a step inside backward holds no scratch between updates
        scratch = np.empty((2, min(p.data.size, block)), dtype=np.float32)
        # basic indices, so the writes to p.data, m and v land whatever
        # their memory layout
        for i in ndtensor._blocks(p.shape, 6 * 4, 0):
            w, g, m, v = p.data[i], grad[i], mom[i], vel[i]
            a = scratch[0, :w.size].reshape(w.shape)
            b = scratch[1, :w.size].reshape(w.shape)
            if state.weight_decay:
                np.multiply(decay, w, out=a)
                w -= a
            m *= state.beta1
            np.multiply(1.0 - state.beta1, g, out=a)
            m += a
            v *= state.beta2
            np.multiply(1.0 - state.beta2, g, out=a)
            a *= g
            v += a
            np.divide(v, bc2, out=a)
            np.sqrt(a, out=a)
            a += state.eps
            np.divide(m, bc1, out=b)
            b /= a
            b *= state.lr
            w -= b

    return update


def adam_step(params, state):
    """One bias-corrected Adam update with decoupled weight decay (see
    _adam_update), from the gradients that every ``p.grad`` holds.

    Every gradient is checked before anything changes, so a missing one
    leaves the parameters and the state as they were. For a caller that
    accumulates gradients; ``train_step`` updates each parameter inside
    backward instead.
    """
    for name, p in params.items():
        if p.grad is None:
            raise MissingGradError(f"parameter {name!r} has no gradient")
    update = _adam_update(state, state.t + 1)
    for name, p in params.items():
        update(name, p)
    state.t += 1


def train_step(batch, params, cfg, state):
    """Forward, L1 loss, then backward with the Adam step fused into it.
    Returns the pre-step loss.

    Each parameter gets its update (the arithmetic of ``adam_step``) as
    soon as backward has made its gradient final, and the gradient is
    dropped then, so the whole set of gradients is never alive at once and
    no parameter holds one after the step. A parameter the loss does not
    reach raises MissingGradError before anything changes. A failure once
    backward's rules run (a MemoryError, say) leaves a partly applied step:
    the updated parameters and their moments have moved, the rest and
    ``state.t`` have not, so the parameters and state are unfit to train on.
    """
    if batch.batch == 0:
        raise ValueError("empty batch")
    # the old gradients go before the forward pass builds its graph
    for p in params.values():
        p.zero_grad()
    preds = batch_predictions(params, cfg, batch)
    loss = l1_loss(preds, Tensor(batch.labels))
    loss_val = float(loss.data)
    if not np.isfinite(loss_val):
        del preds, loss  # the recorded graph goes before the diagnostic pass
        stats, bad = [], []

        def note(name, z):
            peak = float(np.abs(z.data).max())
            stats.append(f"{name}={peak:.3e}")
            if not math.isfinite(peak):
                bad.append(name)

        with no_grad():  # and no attention record: only the activations are noted
            z = model_mod.embed(params, cfg, batch.data)
            note("embed", z)
            for layer in range(cfg.layers):
                z, _ = encoder.encoder_layer(z, params, layer, cfg.heads, cfg.attn_scale)
                note(f"layer{layer}", z)
        raise FloatingPointError(
            "non-finite training loss; max |activation| per layer: " + ", ".join(stats)
            + "; first non-finite: " + (bad[0] if bad else "after the last layer"))
    update = _adam_update(state, state.t + 1)

    def step(name):
        p = params[name]
        update(name, p)
        p.grad = None

    backward(loss, ready=(params, step))
    state.t += 1
    return loss_val


def train(pairs, cfg, tcfg, epoch_callback=None, checkpoint_path=None):
    """Seeded training over (image, count) pairs; returns (params, state, per-step losses).

    ``pairs`` is a sequence, such as a ``patchio.Dataset``; each batch's
    pairs are looked up as the batch is built, so a dataset that decodes on
    lookup holds one batch of images at a time.
    ``epoch_callback(epoch, mean_epoch_loss, params)`` fires after every
    epoch with the live parameters (used for convergence logging and eval
    hooks). An empty ``pairs``, or a ``checkpoint_path`` whose directory
    does not exist, raises before any step or checkpoint write.
    A checkpoint is saved every ``checkpoint_every`` epochs before the last,
    and once at the end.
    """
    if len(pairs) == 0:
        raise ValueError("no training pairs")
    if checkpoint_path and not os.path.isdir(os.path.dirname(os.path.abspath(checkpoint_path))):
        raise OSError(f"the directory of checkpoint {checkpoint_path!r} does not exist")
    params = model_mod.init_params(cfg, tcfg.seed)
    state = init_adam(params, lr=tcfg.lr, weight_decay=tcfg.weight_decay)
    rng = np.random.default_rng(tcfg.seed + 1)
    losses = []
    n = len(pairs)
    for epoch in range(tcfg.epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, tcfg.batch_size):
            idx = order[start : start + tcfg.batch_size]
            # resized copies live only until make_batch has cut them
            batch = patchio.make_batch(
                [(patchio.fit_to_grid(img, cfg.image_size), count)
                 for img, count in (pairs[i] for i in idx)],
                cfg.patch_size, rng=rng if tcfg.augment else None)
            loss = train_step(batch, params, cfg, state)
            epoch_losses.append(loss)
        losses.extend(epoch_losses)
        if epoch_callback is not None:
            epoch_callback(epoch, float(np.mean(epoch_losses)), params)
        if checkpoint_path and tcfg.checkpoint_every and epoch + 1 < tcfg.epochs and \
                (epoch + 1) % tcfg.checkpoint_every == 0:
            save_checkpoint(params, state, cfg, checkpoint_path)
    if checkpoint_path:
        save_checkpoint(params, state, cfg, checkpoint_path)
    return params, state, losses


# ---------------------------------------------------------------------------
# checkpoint persistence
# ---------------------------------------------------------------------------

def _write_array(fh, name, arr):
    """Write one array record: the header, then the float32 payload straight
    from the array's buffer (a float32 C-order array is not copied)."""
    encoded = name.encode()
    fh.write(struct.pack(f"<I{len(encoded)}sI{arr.ndim}I",
                         len(encoded), encoded, arr.ndim, *arr.shape))
    fh.write(memoryview(np.ascontiguousarray(arr, dtype="<f4")).cast("B"))


def save_checkpoint(params, state, cfg, path):
    """Write model + optimizer state atomically and durably: a tmp file,
    flushed and fsynced, then renamed over ``path``, so a crash leaves the
    old file or the whole new one."""
    config_block = {
        "model": asdict(cfg),
        "adam": {k: getattr(state, k) for k in _ADAM_KEYS},
    }
    blob = json.dumps(config_block).encode()
    arrays = [(name, p.data) for name, p in params.items()]
    arrays += [(name + ".m", state.m[name]) for name in params]
    arrays += [(name + ".v", state.v[name]) for name in params]
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", len(arrays)))
        for name, arr in arrays:
            _write_array(fh, name, arr)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


class _Reader:
    """Reads from an open checkpoint, each checked first against the bytes
    left after the current position, so a forged length or shape cannot
    allocate more than the file holds. ``stamp`` tells one version of the
    file from another: replacing, resizing or rewriting it changes the
    stamp (unless a same-size rewrite lands within one tick of the
    filesystem's clock)."""

    def __init__(self, fh):
        st = os.fstat(fh.fileno())
        self.fh = fh
        self.stamp = (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)
        self.size = self.left = st.st_size

    def _claim(self, n, what):
        if n > self.left:
            raise CheckpointError(f"truncated checkpoint while reading {what}")
        self.left -= n

    def take(self, n, what):
        self._claim(n, what)
        out = self.fh.read(n)
        if len(out) != n:
            raise CheckpointError(f"truncated checkpoint while reading {what}")
        return out

    def skip(self, n, what):
        self._claim(n, what)
        self.fh.seek(n, os.SEEK_CUR)

    def seek(self, offset):
        """Move to ``offset`` bytes from the start of the file."""
        self.fh.seek(offset)
        self.left = self.size - offset

    def u32(self, what):
        return struct.unpack("<I", self.take(4, what))[0]

    def array(self, dims, what):
        """A fresh, writable float32 array read straight from the file."""
        self._claim(4 * math.prod(dims), what)
        arr = np.empty(dims, dtype="<f4")
        if self.fh.readinto(arr.reshape(-1).view(np.uint8)) != arr.nbytes:
            raise CheckpointError(f"truncated checkpoint while reading {what}")
        return arr


class _LazyMoments(Mapping):
    """Adam moment buffers left in a checkpoint file until first use.

    Each buffer is read into its own array on first lookup and kept; the
    file must still be the version that was loaded, or the lookup raises
    CheckpointError rather than read other bytes.
    """

    def __init__(self, path, stamp, where):
        self._path, self._stamp, self._where = path, stamp, where  # name -> (offset, dims)
        self._arrays = {}

    def __getitem__(self, name):
        arr = self._arrays.get(name)
        if arr is None:
            offset, dims = self._where[name]
            with open(self._path, "rb") as fh:
                r = _Reader(fh)
                if r.stamp != self._stamp:
                    raise CheckpointError(
                        f"checkpoint {self._path!r} changed since it was loaded")
                r.seek(offset)
                arr = self._arrays[name] = r.array(dims, f"moment of {name!r}")
        return arr

    def __iter__(self):
        return iter(self._where)

    def __len__(self):
        return len(self._where)


def load_checkpoint(path, expected_cfg=None):
    """Read a checkpoint; returns (params, AdamState, ModelConfig).

    The file is walked once into a table of every array's payload offset
    and dims, and the whole table is checked against the config's shapes
    before any payload is read. Then each parameter is read from the file
    into its own final buffer; no copy of the whole file is held. The Adam
    moments are only located: ``state.m``/``state.v`` read each one on
    first use, after checking that the file has not changed since. With
    ``expected_cfg`` given, a variant or architecture mismatch raises
    instead of returning a partially-compatible model.
    """
    path = os.path.abspath(path)
    with open(path, "rb") as fh:
        r = _Reader(fh)
        if r.take(4, "magic") != MAGIC:
            raise CheckpointError(f"bad magic, not a {MAGIC.decode()} checkpoint")
        version = r.u32("version")
        if version != VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        raw = r.take(r.u32("config length"), "config block")
        try:
            blob = json.loads(raw)
            cfg = model_mod.ModelConfig(**blob["model"])
            state = AdamState(**{k: blob["adam"][k] for k in _ADAM_KEYS})
            if state.lr == 0:  # train saves none: TrainConfig.lr > 0
                raise ValueError("adam lr must be > 0 in a checkpoint")
        except (ValueError, TypeError, KeyError, OverflowError, RecursionError) as exc:
            raise CheckpointError(f"malformed config block: {exc!r}") from exc
        # each layer's arrays, each with .m and .v, every record >= 12 bytes
        if 36 * model_mod.LAYER_ARRAYS * cfg.layers > r.left:
            raise CheckpointError(f"truncated checkpoint: {cfg.layers} layers cannot fit "
                                  f"in the {r.left} bytes left")
        shapes = model_mod.param_shapes(cfg)
        if expected_cfg is not None and asdict(cfg) != asdict(expected_cfg):
            raise CheckpointError(
                f"checkpoint config {asdict(cfg)} does not match expected "
                f"{asdict(expected_cfg)}")

        named = {key for name in shapes for key in (name, name + ".m", name + ".v")}
        where = {}  # name -> (payload offset, dims)
        for _ in range(r.u32("array count")):
            try:
                name = r.take(r.u32("name length"), "array name").decode()
            except UnicodeDecodeError as exc:
                raise CheckpointError(f"array name is not UTF-8: {exc}") from exc
            if name not in named:
                raise CheckpointError(
                    f"array {name!r} is not in the shape table of the checkpoint's config")
            if name in where:
                raise CheckpointError(f"array {name!r} is listed twice")
            rank = r.u32("rank")
            if rank > _MAX_RANK:
                raise CheckpointError(f"array {name!r} has rank {rank}, over {_MAX_RANK}")
            dims = tuple(r.u32("dim") for _ in range(rank))
            where[name] = (fh.tell(), dims)
            r.skip(4 * math.prod(dims), f"array {name!r} payload")

        for name, shape in shapes.items():
            for key in (name, name + ".m", name + ".v"):
                if key not in where:
                    raise CheckpointError(f"checkpoint missing array {key!r}")
                if where[key][1] != shape:
                    raise CheckpointError(
                        f"array {key!r} has shape {where[key][1]}, config implies {shape}")
        params = {}
        for name, shape in shapes.items():
            r.seek(where[name][0])
            params[name] = Tensor(r.array(shape, f"array {name!r} payload"), requires_grad=True)
    state.m = _LazyMoments(path, r.stamp, {n: where[n + ".m"] for n in shapes})
    state.v = _LazyMoments(path, r.stamp, {n: where[n + ".v"] for n in shapes})
    return params, state, cfg
