"""Transformer encoder: pre-LN multi-head self-attention and MLP blocks.

Each layer computes

    Z' = MSA(LN(Z)) + Z
    Z  = MLP(LN(Z')) + Z'

with no dropout and no final LN by default. The heads of a layer run as
one batched attention over the [B, S, D] projections, each head a view of
its feature slice. An observer passed to ``encode`` sees each layer's
output and its attention weights.

Weights are read by name from the flat params dict that
``model.param_shapes`` defines: ``layer{l}.w_q``, ``layer{l}.mlp.w1``, ...
"""

from __future__ import annotations

from .ndtensor import add, attention, layer_norm, matmul, mlp


def scaled_attention(q, k, v, n_heads, scale, w, record=False):
    """softmax(Q K^T * scale) V per head of the [B, S, D] Q, K and V, the
    [B, S, D] merged heads times the output projection ``w``.

    Returns (output, [B, H, S, S] attention weights as numpy or None).
    Without a record no pass holds the probabilities whole: a recorded
    pass keeps each row's max and sum, and backward rebuilds the
    probabilities block by block, and with them the heads that ``w``'s
    gradient reads (see ndtensor.attention). A record is the
    probabilities themselves, which no operation writes; backward does
    not read it.
    """
    return attention(q, k, v, n_heads, scale, w, keep=record)


def msa(z, params, layer, n_heads, scale, record=False):
    """Multi-head self-attention; returns (output, [B, H, S, S] weights or None).

    The [B, S, D] projections Q, K and V go to ndtensor.attention as
    they are; it splits them into heads as views and applies the output
    projection w_o in the same call. A recorded pass keeps x-hat (in
    layer_norm) and each attention row's softmax max and sum, and no LN
    output, Q, K, V, probabilities or merged heads: attention's rule
    rebuilds Q, K and V from x-hat with the forward's GEMMs (see
    ndtensor.matmul), the probabilities from those, and the heads from
    the probabilities and V.
    """
    p = f"layer{layer}."
    q, k, v = (matmul(z, params[p + w]) for w in ("w_q", "w_k", "w_v"))
    del z  # the LN output is freed before attention; a graph keeps no copy of it
    return scaled_attention(q, k, v, n_heads, scale, params[p + "w_o"], record)


def mlp_block(z, params, layer):
    """The pre-LN MLP branch: layer norm, then two linear layers (D -> 4D ->
    D) with GELU between, biases included, as one ndtensor.mlp call. mlp
    holds the only reference to the LN output, which is built inline as a
    plain positional argument (a ``*`` call would hold it in the call's
    tuple), and frees it before the 4D-wide GELU. A recorded pass keeps
    x-hat (in layer_norm) and the output, and no LN output, h or GELU(h):
    backward rebuilds them."""
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
