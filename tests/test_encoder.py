"""Encoder tests: attention, multi-head merge, MLP, layer wiring.

The oracle here is a direct numpy re-evaluation of the attention and
layer formulas, written independently of the autodiff primitives.
"""

import contextlib
import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from patchcount import encoder, ndtensor, optim, patchio
from patchcount.encoder import encode, encoder_layer, mlp_block, msa, scaled_attention
from patchcount.model import ModelConfig
from patchcount.ndtensor import (Tensor, backward, concat, matmul,
                                 mean, mul, no_grad, slice_axis, smul, softmax_rows,
                                 split_heads, transpose_last)


def t(data):
    return Tensor(np.asarray(data, dtype=np.float32))


def np_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def np_layer_norm(x, gamma, beta, eps=1e-6):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return gamma * (x - mu) / np.sqrt(var + eps) + beta


def np_gelu(x):
    return 0.5 * x * (1 + np.tanh(math.sqrt(2 / math.pi) * (x + 0.044715 * x ** 3)))


def _layer(d, l, w):
    """One layer's params-dict entries, named as model.param_shapes names them."""
    p = f"layer{l}."
    return {
        p + "ln1.gamma": t(np.ones(d)), p + "ln1.beta": t(np.zeros(d)),
        p + "w_q": w(d, d), p + "w_k": w(d, d), p + "w_v": w(d, d), p + "w_o": w(d, d),
        p + "ln2.gamma": t(np.ones(d)), p + "ln2.beta": t(np.zeros(d)),
        p + "mlp.w1": w(d, 4 * d), p + "mlp.b1": w(4 * d),
        p + "mlp.w2": w(4 * d, d), p + "mlp.b2": w(d)}


def make_layer(rng, d, scale=0.1, l=0):
    return _layer(d, l, lambda *shape: t(rng.normal(scale=scale, size=shape).astype(np.float32)))


def make_layers(rng, n, d, scale=0.1):
    params = {}
    for l in range(n):
        params.update(make_layer(rng, d, scale, l))
    return params


def zero_layer(d):
    return _layer(d, 0, lambda *shape: t(np.zeros(shape)))


class TestScaledAttention:
    def test_single_token(self):
        rng = np.random.default_rng(0)
        q = t(rng.normal(size=(1, 1, 4)))
        k = t(rng.normal(size=(1, 1, 4)))
        v = t(rng.normal(size=(1, 1, 4)))
        out, weights = scaled_attention(q, k, v, 0.5, record=True)
        npt.assert_allclose(weights, [[[1.0]]])
        npt.assert_allclose(out.data, v.data, rtol=1e-6)

    def test_zero_query_uniform(self):
        rng = np.random.default_rng(1)
        k = t(rng.normal(size=(1, 3, 4)))
        v = t(rng.normal(size=(1, 3, 4)))
        out, weights = scaled_attention(t(np.zeros((1, 3, 4))), k, v, 0.5,
                                        record=True)
        npt.assert_allclose(weights, np.full((1, 3, 3), 1 / 3), atol=1e-7)
        expected = np.broadcast_to(v.data.mean(axis=1, keepdims=True), (1, 3, 4))
        npt.assert_allclose(out.data, expected, rtol=1e-5)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(2)
        q = rng.normal(size=(1, 3, 4)).astype(np.float32)
        k = rng.normal(size=(1, 3, 4)).astype(np.float32)
        v = rng.normal(size=(1, 3, 4)).astype(np.float32)
        scale = 1 / math.sqrt(4)
        out, _ = scaled_attention(t(q), t(k), t(v), scale)
        expected = np_softmax(q @ k.transpose(0, 2, 1) * scale) @ v
        npt.assert_allclose(out.data, expected, rtol=1e-5, atol=1e-6)


# one [S, S] matrix of the B=2, H=3, S=37 attention below per block
SMALL_BUDGET = 37 * 37 * 4


class TestFusedNoGradAttention:
    @pytest.mark.parametrize("budget", [None, SMALL_BUDGET])
    def test_bitwise_equal_to_probs_then_matmul(self, monkeypatch, budget):
        rng = np.random.default_rng(17)
        q, k, v = (split_heads(t(rng.normal(scale=2.0, size=(2, 37, 24))), 3)
                   for _ in range(3))
        scale = 1.0 / np.sqrt(24.0)  # a numpy float64, as ModelConfig.attn_scale is
        expected = matmul(softmax_rows(smul(matmul(q, transpose_last(k)), scale)), v).data
        if budget is not None:
            monkeypatch.setattr(ndtensor, "_BLOCK_BYTES", budget)
        with no_grad():
            out, weights = scaled_attention(q, k, v, scale)
        assert weights is None
        assert np.array_equal(out.data, expected)


def _toy_run(head):
    """20 toy train steps: (loss trace, every parameter and moment)."""
    cfg = ModelConfig(image_size=64, patch_size=8, dim=64, heads=4, layers=2,
                      hidden_dim=64, head_variant=head)
    pairs = patchio.synth_generate(patchio.SynthSpec(side=64, count_min=0, count_max=30,
                                                     seed=5), 32)
    tcfg = optim.TrainConfig(batch_size=8, epochs=5, seed=3, lr=1e-2)
    params, state, losses = optim.train(pairs, cfg, tcfg)
    arrays = [p.data for p in params.values()]
    arrays += list(state.m.values()) + list(state.v.values())
    return np.array(losses), arrays


@pytest.mark.parametrize("head", ["gap", "token"])
def test_toy_training_same_bytes_in_blocks(monkeypatch, head):
    whole = _toy_run(head)
    monkeypatch.setattr(ndtensor, "_BLOCK_BYTES", 4096)
    blocked = _toy_run(head)
    assert len(whole[0]) == 20
    assert whole[0].tobytes() == blocked[0].tobytes()
    assert len(whole[1]) == len(blocked[1])
    assert all(a.tobytes() == b.tobytes() for a, b in zip(whole[1], blocked[1]))


class TestMSA:
    def test_single_head_identity_projection(self):
        rng = np.random.default_rng(3)
        d = 4
        layer = make_layer(rng, d)
        layer["layer0.w_o"] = t(np.eye(d))
        z = t(rng.normal(size=(2, 3, d)).astype(np.float32))
        out, _ = msa(z, layer, 0, 1, 0.5)
        q = np.matmul(z.data, layer["layer0.w_q"].data)
        k = np.matmul(z.data, layer["layer0.w_k"].data)
        v = np.matmul(z.data, layer["layer0.w_v"].data)
        expected = np_softmax(q @ k.transpose(0, 2, 1) * 0.5) @ v
        npt.assert_allclose(out.data, expected, rtol=1e-5, atol=1e-6)

    def test_equals_per_head_concat(self):
        rng = np.random.default_rng(4)
        d, m = 8, 4
        dh = d // m
        layer = make_layer(rng, d)
        z = t(rng.normal(size=(1, 5, d)).astype(np.float32))
        out, _ = msa(z, layer, 0, m, 0.25)
        q = np.matmul(z.data, layer["layer0.w_q"].data)
        k = np.matmul(z.data, layer["layer0.w_k"].data)
        v = np.matmul(z.data, layer["layer0.w_v"].data)
        heads = []
        for h in range(m):
            sl = slice(h * dh, (h + 1) * dh)
            a = np_softmax(q[..., sl] @ k[..., sl].transpose(0, 2, 1) * 0.25)
            heads.append(a @ v[..., sl])
        expected = np.concatenate(heads, axis=-1) @ layer["layer0.w_o"].data
        npt.assert_allclose(out.data, expected, rtol=1e-5, atol=1e-6)

    def test_zero_values_annihilate(self):
        rng = np.random.default_rng(5)
        layer = make_layer(rng, 4)
        layer["layer0.w_v"] = t(np.zeros((4, 4)))
        z = t(rng.normal(size=(1, 3, 4)).astype(np.float32))
        out, _ = msa(z, layer, 0, 2, 0.5)
        npt.assert_array_equal(out.data, np.zeros((1, 3, 4)))

    def test_records_shape(self):
        rng = np.random.default_rng(6)
        layer = make_layer(rng, 4, l=1)
        z = t(rng.normal(size=(2, 3, 4)).astype(np.float32))
        _, weights = msa(z, layer, 1, 2, 0.5, record=True)
        assert weights.shape == (2, 2, 3, 3)  # [B, H, S, S]


def per_head_msa(z, layer, n_heads, scale):
    """Unfused reference: a slice/softmax_rows/matmul chain per head, then concat."""
    dh = z.shape[-1] // n_heads
    q, k, v = (matmul(z, layer[f"layer0.{w}"]) for w in ("w_q", "w_k", "w_v"))
    outs, weights = [], []
    for h in range(n_heads):
        q_h, k_h, v_h = (slice_axis(x, -1, h * dh, (h + 1) * dh) for x in (q, k, v))
        attn = softmax_rows(smul(matmul(q_h, transpose_last(k_h)), scale))
        outs.append(matmul(attn, v_h))
        weights.append(attn.data)
    return matmul(concat(outs, axis=-1), layer["layer0.w_o"]), weights


class TestFusedMSA:
    def test_bitwise_equal_to_per_head_composition(self):
        rng = np.random.default_rng(16)
        b, s, d, m = 2, 7, 16, 4
        base = make_layer(rng, d, scale=0.5)
        z0 = rng.normal(size=(b, s, d)).astype(np.float32)
        w_loss = Tensor(rng.normal(size=(b, s, d)).astype(np.float32))
        scale = 1.0 / np.sqrt(5.0)  # a numpy float64, as ModelConfig.attn_scale is
        runs = []
        for fused in (True, False):
            layer = {name: Tensor(p.data.copy(), requires_grad=True)
                     for name, p in base.items()}
            z = Tensor(z0.copy(), requires_grad=True)
            if fused:
                out, weights = msa(z, layer, 0, m, scale, record=True)
                weights = [weights[:, h] for h in range(m)]
            else:
                out, weights = per_head_msa(z, layer, m, scale)
            backward(mean(mul(out, w_loss)))
            grads = [z.grad] + [layer[f"layer0.{n}"].grad for n in ("w_q", "w_k", "w_v", "w_o")]
            runs.append((out.data, weights, grads))
        (out_f, weights_f, grads_f), (out_r, weights_r, grads_r) = runs
        assert np.array_equal(out_f, out_r)
        assert len(weights_f) == m
        assert all(np.array_equal(a, b) for a, b in zip(weights_f, weights_r))
        for a, b in zip(grads_f, grads_r):
            assert np.array_equal(a, b)


class TestMLP:
    def test_zero_weights(self):
        z = t(np.random.default_rng(7).normal(size=(1, 3, 4)))
        out = mlp_block(z, zero_layer(4), 0)
        npt.assert_array_equal(out.data, np.zeros((1, 3, 4)))

    def test_hidden_width_is_4d(self):
        d = 4
        layer = zero_layer(d)
        assert layer["layer0.mlp.w1"].shape == (d, 4 * d)
        assert layer["layer0.mlp.w2"].shape == (4 * d, d)

    def test_identity_padded_reduces_to_gelu(self):
        d = 4
        layer = zero_layer(d)
        w1 = np.zeros((d, 4 * d), dtype=np.float32)
        w1[:, :d] = np.eye(d)
        w2 = np.zeros((4 * d, d), dtype=np.float32)
        w2[:d, :] = np.eye(d)
        layer["layer0.mlp.w1"] = t(w1)
        layer["layer0.mlp.w2"] = t(w2)
        z = t(np.random.default_rng(8).normal(size=(2, 3, d)).astype(np.float32))
        out = mlp_block(z, layer, 0)  # the branch's layer norm comes first
        npt.assert_allclose(out.data, np_gelu(np_layer_norm(z.data, 1.0, 0.0)),
                            rtol=1e-5, atol=1e-6)

    def test_no_grad_frees_the_layer_norm_output_before_the_gelu(self, monkeypatch):
        # h and the LN output are both live while h is made, and h and the
        # output while the second GEMM runs (each GEMM adds about 34 KB of
        # numpy scratch here); an LN output kept past the first GEMM would
        # add a third [S, D] array to the second
        d, s = 64, 512
        monkeypatch.setattr(ndtensor, "_BLOCK_BYTES", 16 << 10)
        layer = make_layer(np.random.default_rng(9), d)
        z = t(np.random.default_rng(10).normal(size=(1, s, d)))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            with no_grad():
                out = mlp_block(z, layer, 0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        hidden, rows = s * 4 * d * 4, out.data.nbytes
        assert peak <= hidden + rows + rows // 2, \
            f"peak {peak} B; h is {hidden} B, an [S, D] array {rows} B"


class TestEncoderLayer:
    def test_zero_weights_is_identity(self):
        z = t(np.random.default_rng(9).normal(size=(2, 3, 4)).astype(np.float32))
        out, _ = encoder_layer(z, zero_layer(4), 0, 2, 0.5)
        npt.assert_array_equal(out.data, z.data)

    def test_matches_hand_trace(self):
        rng = np.random.default_rng(10)
        d = 4
        layer = make_layer(rng, d, scale=0.3)
        z = rng.normal(size=(1, 2, d)).astype(np.float32)
        out, _ = encoder_layer(t(z), layer, 0, 1, 0.5)

        # independent step-by-step trace of the pre-LN layer
        w = {name[len("layer0."):]: p.data for name, p in layer.items()}
        zn = np_layer_norm(z, w["ln1.gamma"], w["ln1.beta"])
        q = zn @ w["w_q"]
        k = zn @ w["w_k"]
        v = zn @ w["w_v"]
        attn = np_softmax(q @ k.transpose(0, 2, 1) * 0.5) @ v
        z1 = attn @ w["w_o"] + z
        z1n = np_layer_norm(z1, w["ln2.gamma"], w["ln2.beta"])
        hidden = np_gelu(z1n @ w["mlp.w1"] + w["mlp.b1"])
        z2 = hidden @ w["mlp.w2"] + w["mlp.b2"] + z1
        npt.assert_allclose(out.data, z2, rtol=1e-5, atol=1e-6)

    def test_shape_preserved(self):
        rng = np.random.default_rng(11)
        layer = make_layer(rng, 8)
        z = t(rng.normal(size=(3, 5, 8)).astype(np.float32))
        out, _ = encoder_layer(z, layer, 0, 4, 0.25)
        assert out.shape == z.shape


class TestEncode:
    def test_empty_composition(self):
        z = t(np.random.default_rng(12).normal(size=(1, 3, 4)))
        seen = []
        out = encode(z, {}, 0, 2, 0.5, lambda *args: seen.append(args))
        npt.assert_array_equal(out.data, z.data)
        assert seen == []

    def test_paper_scale_config_accepted(self):
        cfg = ModelConfig()  # 12 layers, 12 heads, D=768, K=16
        assert cfg.seq_len == 576
        assert cfg.dim % cfg.heads == 0

    def test_record_count(self):
        rng = np.random.default_rng(13)
        params = make_layers(rng, 3, 4)
        z = t(rng.normal(size=(2, 3, 4)).astype(np.float32))
        seen = []
        out = encode(z, params, 3, 2, 0.5, lambda *args: seen.append(args))
        assert [layer for layer, _, _ in seen] == [0, 1, 2]
        assert all(w.shape == (2, 2, 3, 3) for _, _, w in seen)
        assert seen[-1][1] is out

    def test_attention_rows_stochastic(self):
        rng = np.random.default_rng(14)
        params = make_layers(rng, 2, 8, scale=0.5)
        z = t(rng.normal(size=(2, 5, 8)).astype(np.float32))
        weights = []
        encode(z, params, 2, 4, 0.25, lambda _, __, w: weights.append(w))
        assert len(weights) == 2
        for w in weights:
            npt.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-6)
            assert ((w >= 0) & (w <= 1)).all()

    def test_observer_gets_the_probabilities_attention_returned(self, monkeypatch):
        made = []
        real = encoder.attention
        monkeypatch.setattr(encoder, "attention",
                            lambda *args, **kwargs: made.append(real(*args, **kwargs)) or made[-1])
        rng = np.random.default_rng(16)
        params = make_layers(rng, 2, 8)
        z = Tensor(rng.normal(size=(2, 5, 8)).astype(np.float32), requires_grad=True)
        for grad in (False, True):  # no operation writes them, recorded or not
            made.clear()
            seen = []
            with contextlib.nullcontext() if grad else no_grad():
                encode(z, params, 2, 4, 0.25, lambda _, __, w: seen.append(w))
            assert len(seen) == len(made) == 2
            assert all(out.requires_grad == grad and w is p for w, (out, p) in zip(seen, made))

    def test_permutation_equivariance_without_positions(self):
        rng = np.random.default_rng(15)
        params = make_layers(rng, 2, 8, scale=0.3)
        z = rng.normal(size=(1, 6, 8)).astype(np.float32)
        perm = rng.permutation(6)
        out = encode(t(z), params, 2, 2, 0.25)
        out_p = encode(t(z[:, perm]), params, 2, 2, 0.25)
        npt.assert_allclose(out_p.data, out.data[:, perm], rtol=1e-5, atol=1e-6)


class TestModelGradients:
    def test_two_layer_encoder_grad_check(self):
        from patchcount.model import grad_check_model
        cfg = ModelConfig(image_size=16, patch_size=8, dim=8, heads=2, layers=2,
                          hidden_dim=8, head_variant="gap")
        err = grad_check_model(cfg, seed=0)
        assert err < 5e-3

    def test_token_variant_grad_check(self):
        from patchcount.model import grad_check_model
        cfg = ModelConfig(image_size=16, patch_size=8, dim=8, heads=2, layers=2,
                          hidden_dim=8, head_variant="token")
        err = grad_check_model(cfg, seed=0)
        assert err < 5e-3
