"""Independent float64 forward pass of the GAP-head model in plain numpy.

Used to check the program's raw per-tile predictions. It shares no code
with the program: it reads only the flat parameter dict (name -> array)
and the patch sequences the program was given.
"""

from __future__ import annotations

import math

import numpy as np

LN_EPS = 1e-6
GELU_C = 0.044715


def _layer_norm(x, gamma, beta):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return gamma * (x - mu) / np.sqrt(var + LN_EPS) + beta


def _gelu(x):
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + GELU_C * x * x * x)))


def _softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def forward_gap(params, patches, layers, heads, attn_scale):
    """Raw per-sequence predictions [B] for pre-LN ViT layers and a GAP head.

    ``params`` maps parameter names to arrays; ``patches`` is [B, N, P].
    Everything is computed in float64.
    """
    def p(name):  # converted on use, so no float64 copy of the model is held
        return np.asarray(params[name], dtype=np.float64)

    z = np.asarray(patches, dtype=np.float64) @ p("embed.proj") + p("embed.pos")
    b, s, d = z.shape
    dh = d // heads
    for l in range(layers):
        w = lambda key: p(f"layer{l}.{key}")  # noqa: E731
        h = _layer_norm(z, w("ln1.gamma"), w("ln1.beta"))
        q, k, v = (
            (h @ w(key)).reshape(b, s, heads, dh).transpose(0, 2, 1, 3)
            for key in ("w_q", "w_k", "w_v"))
        attn = _softmax(q @ k.transpose(0, 1, 3, 2) * attn_scale)
        merged = (attn @ v).transpose(0, 2, 1, 3).reshape(b, s, d)
        z = z + merged @ w("w_o")
        h = _layer_norm(z, w("ln2.gamma"), w("ln2.beta"))
        z = z + _gelu(h @ w("mlp.w1") + w("mlp.b1")) @ w("mlp.w2") + w("mlp.b2")
    pooled = z.mean(axis=1)
    hidden = _gelu(pooled @ p("head.w1") + p("head.b1"))
    return (hidden @ p("head.w2") + p("head.b2")).reshape(b)
