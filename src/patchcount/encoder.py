"""Transformer encoder: pre-LN multi-head self-attention and MLP blocks.

Each layer computes

    Z' = MSA(LN(Z)) + Z
    Z  = MLP(LN(Z')) + Z'

with no dropout and no final LN by default. The heads of a layer run as
one batched attention over [B, H, S, D/H] tensors. An observer passed to
``encode`` sees each layer's output and its attention weights.

Weights are read by name from the flat params dict that
``model.param_shapes`` defines: ``layer{l}.w_q``, ``layer{l}.mlp.w1``, ...
"""

from __future__ import annotations

from .ndtensor import add, attention, layer_norm, matmul, merge_heads, mlp, split_heads


def scaled_attention(q, k, v, scale, record=False):
    """softmax(Q K^T * scale) V, batched over any leading axes (heads included).

    Returns (output, attention weights as numpy or None). Without a record
    no pass holds the probabilities whole, unless they fit in one block: a
    recorded pass keeps each row's max and sum, and backward rebuilds the
    probabilities block by block (see ndtensor.attention). A record is the
    probabilities themselves, which no operation writes, and backward reads
    them.
    """
    return attention(q, k, v, scale, keep=record)


def msa(z, params, layer, n_heads, scale, record=False):
    """Multi-head self-attention; returns (output, [B, H, S, S] weights or None)."""
    p = f"layer{layer}."
    q, k, v = (split_heads(matmul(z, params[p + w]), n_heads) for w in ("w_q", "w_k", "w_v"))
    del z  # without a graph, the LN output is freed before attention
    out, weights = scaled_attention(q, k, v, scale, record=record)
    return matmul(merge_heads(out), params[p + "w_o"]), weights


def mlp_block(z, params, layer):
    """The pre-LN MLP branch: layer norm, then two linear layers (D -> 4D ->
    D) with GELU between, biases included, as one ndtensor.mlp call. A
    recorded pass keeps no 4D-wide GELU output that spans more than one
    block. Without a graph, mlp holds the only reference to the LN output,
    which is built inline as a plain positional argument (a ``*`` call
    would hold it in the call's tuple), and frees it before the 4D-wide
    GELU."""
    p = f"layer{layer}."
    return mlp(layer_norm(z, params[p + "ln2.gamma"], params[p + "ln2.beta"]),
               params[p + "mlp.w1"], params[p + "mlp.b1"],
               params[p + "mlp.w2"], params[p + "mlp.b2"])


def encoder_layer(z, params, layer, n_heads, scale, record=False):
    """Pre-LN attention then pre-LN MLP block, each with a residual; returns (Z, weights)."""
    p = f"layer{layer}."
    attn_out, weights = msa(layer_norm(z, params[p + "ln1.gamma"], params[p + "ln1.beta"]),
                            params, layer, n_heads, scale, record)
    z = add(attn_out, z)
    del attn_out  # freed before the MLP block, as above
    z = add(mlp_block(z, params, layer), z)
    return z, weights


def encode(z, params, n_layers, n_heads, scale, observe=None):
    """Apply encoder layers 0..n_layers-1 in order; returns Z_L. ``observe(layer,
    z, weights)``, if given, sees each layer's output and [B, H, S, S] weights."""
    for layer in range(n_layers):
        z, weights = encoder_layer(z, params, layer, n_heads, scale, observe is not None)
        if observe is not None:
            observe(layer, z, weights)
            del weights  # not held through the next layer
    return z
