"""Transformer encoder: pre-LN multi-head self-attention and MLP blocks.

Each layer computes

    Z' = MSA(LN(Z)) + Z
    Z  = MLP(LN(Z')) + Z'

with no dropout and no final LN by default. The heads of a layer run as
one batched attention over [B, H, S, D/H] tensors. Attention weights can
be captured per layer and head for map extraction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ndtensor import (Tensor, add, attention, attention_probs, gelu, layer_norm,
                       linear, matmul, merge_heads, split_heads)


@dataclass
class LayerParams:
    """One encoder layer's weights; Q/K/V stored as full [D, D] blocks."""

    ln1_gamma: Tensor
    ln1_beta: Tensor
    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    w_o: Tensor
    ln2_gamma: Tensor
    ln2_beta: Tensor
    mlp_w1: Tensor
    mlp_b1: Tensor
    mlp_w2: Tensor
    mlp_b2: Tensor


@dataclass
class AttentionRecord:
    """Row-stochastic attention weights [B, S, S] for one layer and head."""

    layer: int
    head: int
    weights: object  # numpy array, detached from the graph


def scaled_attention(q, k, v, scale, record=False):
    """softmax(Q K^T * scale) V, batched over any leading axes (heads included).

    Returns (output, attention weights as numpy or None). Without a record
    the probabilities are kept only for backward, so an eval pass never
    holds them whole (see ndtensor.attention).
    """
    if not record:
        return attention(q, k, v, scale), None
    attn = attention_probs(q, k, scale)
    return matmul(attn, v), attn.data.copy()


def msa(z, layer, n_heads, scale, layer_idx=0, record=False):
    """Multi-head self-attention: m parallel heads, concatenated, re-projected."""
    q, k, v = (split_heads(matmul(z, w), n_heads) for w in (layer.w_q, layer.w_k, layer.w_v))
    out, weights = scaled_attention(q, k, v, scale, record=record)
    records = [AttentionRecord(layer=layer_idx, head=h, weights=weights[:, h])
               for h in range(n_heads)] if record else []
    return matmul(merge_heads(out), layer.w_o), records


def mlp_block(z, layer):
    """Two linear layers (D -> 4D -> D) with GELU between, biases included."""
    h = gelu(linear(z, layer.mlp_w1, layer.mlp_b1))
    return linear(h, layer.mlp_w2, layer.mlp_b2)


def encoder_layer(z, layer, n_heads, scale, layer_idx=0, record=False):
    """Pre-LN attention block then pre-LN MLP block, each with a residual."""
    attn_out, records = msa(layer_norm(z, layer.ln1_gamma, layer.ln1_beta),
                            layer, n_heads, scale, layer_idx, record)
    z = add(attn_out, z)
    z = add(mlp_block(layer_norm(z, layer.ln2_gamma, layer.ln2_beta), layer), z)
    return z, records


def encode(z, layers, n_heads, scale, record=False):
    """Apply all encoder layers in order; returns (Z_L, attention records)."""
    all_records = []
    for idx, layer in enumerate(layers):
        z, records = encoder_layer(z, layer, n_heads, scale, idx, record)
        all_records.extend(records)
    return z, all_records
