"""Adam, training-step, and checkpoint persistence tests."""

import ctypes
import hashlib
import io
import json
import os
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from patchcount import encoder, evalviz, model, ndtensor, optim, patchio
from patchcount.model import ModelConfig, init_params, param_shapes
from patchcount.ndtensor import Tensor, no_grad
from patchcount.optim import (CheckpointError, MissingGradError,
                              TrainConfig, adam_step, init_adam,
                              load_checkpoint, save_checkpoint, train,
                              train_step)

TOY = dict(image_size=16, patch_size=8, dim=8, heads=2, layers=1, hidden_dim=8)


def tiny_batch(n=4, seed=0, side=16):
    spec = patchio.SynthSpec(side=side, count_min=2, count_max=6, seed=seed)
    return patchio.make_batch(patchio.synth_generate(spec, n), 8)


class TestAdamStep:
    def test_zero_grad_zero_decay_fixed_point(self):
        p = Tensor(np.array([1.0, -2.0], dtype=np.float32), requires_grad=True)
        params = {"p": p}
        state = init_adam(params, lr=1e-3, weight_decay=0.0)
        p.grad = np.zeros(2, dtype=np.float32)
        before = p.data.copy()
        adam_step(params, state)
        npt.assert_array_equal(p.data, before)
        assert state.t == 1

    def test_first_step_magnitude(self):
        p = Tensor(np.array([0.0], dtype=np.float32), requires_grad=True)
        params = {"p": p}
        state = init_adam(params, lr=1e-3, weight_decay=0.0)
        p.grad = np.array([1.0], dtype=np.float32)
        adam_step(params, state)
        # bias-corrected first update is -lr * g / (|g| + eps)
        npt.assert_allclose(p.data, [-1e-3], rtol=1e-4)

    def test_decoupled_decay_only(self):
        # hand value: theta <- 1 - lr*wd = 1 - 1e-9; that delta is below
        # float32 resolution, so the stored result is float32(1 - 1e-9)
        p = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
        params = {"p": p}
        state = init_adam(params, lr=1e-5, weight_decay=1e-4)
        p.grad = np.array([0.0], dtype=np.float32)
        adam_step(params, state)
        npt.assert_array_equal(p.data, np.float32(1.0 - 1e-9))

    def test_decoupled_decay_observable_scale(self):
        p = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
        params = {"p": p}
        state = init_adam(params, lr=1e-2, weight_decay=1e-1)
        p.grad = np.array([0.0], dtype=np.float32)
        adam_step(params, state)
        npt.assert_allclose(p.data, [1.0 - 1e-3], rtol=1e-6)

    def test_missing_grad_names_parameter(self):
        p = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        params = {"w_q": p}
        state = init_adam(params)
        with pytest.raises(MissingGradError, match="w_q"):
            adam_step(params, state)

    def test_missing_grad_changes_nothing(self):
        rng = np.random.default_rng(1)
        params = {n: Tensor(rng.normal(size=(3, 2)).astype(np.float32), requires_grad=True)
                  for n in ("a", "b", "c")}
        state = init_adam(params, lr=1e-2, weight_decay=1e-1)
        for p in params.values():
            p.grad = rng.normal(size=(3, 2)).astype(np.float32)
        adam_step(params, state)  # moments and t away from their initial values
        params["b"].grad = None  # "a", earlier in the dict, still has one
        before = {n: (p.data.copy(), state.m[n].copy(), state.v[n].copy())
                  for n, p in params.items()}
        with pytest.raises(MissingGradError, match="'b'"):
            adam_step(params, state)
        assert state.t == 1
        for n, p in params.items():
            npt.assert_array_equal(p.data, before[n][0])
            npt.assert_array_equal(state.m[n], before[n][1])
            npt.assert_array_equal(state.v[n], before[n][2])

    def test_in_place_matches_plain_formula_bitwise(self):
        rng = np.random.default_rng(2)
        shapes = {"w": (40, 30), "b": (30,), "s": (1,)}
        params = {n: Tensor(rng.normal(size=sh).astype(np.float32), requires_grad=True)
                  for n, sh in shapes.items()}
        state = init_adam(params, lr=1e-2, weight_decay=1e-1)
        ref = {n: (p.data.copy(), np.zeros(p.shape, np.float32), np.zeros(p.shape, np.float32))
               for n, p in params.items()}
        for t in range(1, 4):
            for n, p in params.items():
                p.grad = rng.normal(size=p.shape).astype(np.float32)
                ref[n] = _adam_formula(*ref[n], p.grad, t, 1e-2, 1e-1)
            adam_step(params, state)
        for n, p in params.items():
            assert np.array_equal(p.data, ref[n][0])
            assert np.array_equal(state.m[n], ref[n][1])
            assert np.array_equal(state.v[n], ref[n][2])

    # block boundaries: 32768 floats is one block of a 1-D parameter, and a
    # [768, 3072] one goes in blocks of 10 rows
    @pytest.mark.parametrize("shape", [(1,), (32767,), (32768,), (32769,), (768, 3072)])
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
    def test_blocked_step_equals_whole_array_formula(self, shape, weight_decay):
        rng = np.random.default_rng(len(shape) + shape[0])
        p = Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)
        params = {"p": p}
        state = init_adam(params, lr=1e-2, weight_decay=weight_decay)
        w, m, v = p.data.copy(), state.m["p"].copy(), state.v["p"].copy()
        for t in (1, 2):
            p.grad = rng.normal(size=shape).astype(np.float32)
            w, m, v = _adam_formula(w, m, v, p.grad, t, 1e-2, weight_decay)
            adam_step(params, state)
        assert np.array_equal(p.data, w)
        assert np.array_equal(state.m["p"], m) and np.array_equal(state.v["p"], v)

    def test_updates_land_in_non_contiguous_arrays(self, monkeypatch):
        # a flat reshape of these would be a copy, and the update would be lost
        monkeypatch.setattr(ndtensor, "_BLOCK_BYTES", 7 * 24)
        rng = np.random.default_rng(3)
        data = np.asfortranarray(rng.normal(size=(6, 5)).astype(np.float32))
        p = Tensor(data, requires_grad=True)
        assert p.data is data and not data.flags.c_contiguous
        params = {"p": p}
        state = init_adam(params, lr=1e-2, weight_decay=1e-1)
        m, v = state.m["p"], state.v["p"]
        assert not m.flags.c_contiguous
        p.grad = rng.normal(size=(5, 6)).astype(np.float32).T
        expected = _adam_formula(data.copy(), m.copy(), v.copy(), p.grad, 1, 1e-2, 1e-1)
        adam_step(params, state)
        assert p.data is data and state.m["p"] is m and state.v["p"] is v
        for got, want in zip((data, m, v), expected):
            assert np.array_equal(got, want)

    def test_step_on_lazily_loaded_moments(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ndtensor, "_BLOCK_BYTES", 5 * 24)  # several blocks each
        rng = np.random.default_rng(4)
        cfg = ModelConfig(**TOY, head_variant="token")
        params = init_params(cfg, 0)
        state = init_adam(params, lr=1e-2, weight_decay=1e-4)
        for p in params.values():
            p.grad = rng.normal(size=p.shape).astype(np.float32)
        adam_step(params, state)  # moments away from zero
        path = str(tmp_path / "m.tcwd")
        save_checkpoint(params, state, cfg, path)
        loaded, lstate, _ = load_checkpoint(path)
        expected = {}
        for name, p in loaded.items():
            p.grad = rng.normal(size=p.shape).astype(np.float32)
            expected[name] = _adam_formula(params[name].data, state.m[name], state.v[name],
                                           p.grad, 2, 1e-2, 1e-4)
        adam_step(loaded, lstate)
        for name, p in loaded.items():
            for got, want in zip((p.data, lstate.m[name], lstate.v[name]), expected[name]):
                assert np.array_equal(got, want), name

    @pytest.mark.parametrize("steps_before", [0, 1])
    def test_negative_zero_gradient_moves_no_bit(self, steps_before):
        # a size-1 batch axis is dropped by indexing, which keeps a -0.0 that
        # the sum made +0.0; Adam gives the same bits for both
        rng = np.random.default_rng(5)
        data = rng.normal(size=64).astype(np.float32)
        data[:4] = (0.0, -0.0, 0.0, -0.0)
        grads = [rng.normal(size=64).astype(np.float32) for _ in range(steps_before)]
        final = rng.normal(size=64).astype(np.float32)
        out = []
        for zero in (0.0, -0.0):
            last = final.copy()
            last[::2] = zero
            p = Tensor(data.copy(), requires_grad=True)
            state = init_adam({"p": p}, lr=1e-2, weight_decay=1e-1)
            for g in grads + [last]:
                p.grad = g
                adam_step({"p": p}, state)
            out.append([a.view(np.uint32).copy() for a in (p.data, state.m["p"], state.v["p"])])
        for plus, minus in zip(*out):
            assert np.array_equal(plus, minus)

    def test_nonzero_grad_moves_every_coordinate(self):
        rng = np.random.default_rng(0)
        p = Tensor(rng.normal(size=8).astype(np.float32), requires_grad=True)
        params = {"p": p}
        state = init_adam(params, lr=1e-3, weight_decay=0.0)
        p.grad = rng.normal(size=8).astype(np.float32)
        assert (p.grad != 0).all()
        before = p.data.copy()
        adam_step(params, state)
        assert (p.data != before).all()


def _adam_formula(w, m, v, g, t, lr, wd, b1=0.9, b2=0.999, eps=1e-8):
    """One Adam step with decoupled decay, as whole-array float32 expressions."""
    bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    if wd:
        w = w - np.float32(lr * wd) * w
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * g * g
    return w - lr * ((m / bc1) / (np.sqrt(v / bc2) + eps)), m, v


class TestTrainStep:
    def test_deterministic(self):
        batch = tiny_batch()
        cfg = ModelConfig(**TOY, head_variant="gap")
        losses = []
        for _ in range(2):
            params = init_params(cfg, 3)
            state = init_adam(params, lr=1e-3)
            losses.append(train_step(batch, params, cfg, state))
        assert losses[0] == losses[1]

    def test_lr_zero_constant_loss(self):
        batch = tiny_batch()
        cfg = ModelConfig(**TOY, head_variant="gap")
        params = init_params(cfg, 3)
        state = init_adam(params, lr=0.0, weight_decay=0.0)
        losses = [train_step(batch, params, cfg, state) for _ in range(3)]
        assert losses[0] == losses[1] == losses[2]

    def test_grads_cleared_before_forward(self, monkeypatch):
        batch = tiny_batch()
        cfg = ModelConfig(**TOY, head_variant="gap")
        params = init_params(cfg, 3)
        state = init_adam(params, lr=1e-3)
        train_step(batch, params, cfg, state)
        # a step leaves no gradient, so plant stale ones, as a caller's own
        # backward would leave them
        for p in params.values():
            p.grad = np.ones_like(p.data)
        cleared = []
        real = optim.batch_predictions

        def spy(*args, **kwargs):
            cleared.append(all(p.grad is None for p in params.values()))
            return real(*args, **kwargs)

        monkeypatch.setattr(optim, "batch_predictions", spy)
        train_step(batch, params, cfg, state)
        assert cleared == [True]

    def test_non_finite_loss_names_max_activation_per_layer(self):
        batch = tiny_batch()
        cfg = ModelConfig(**TOY, head_variant="token")
        params = init_params(cfg, 3)
        params["head.b2"].data[:] = np.nan
        expected = []  # embed, then each encoder layer, as plain no-grad calls
        with no_grad():
            z = model.embed(params, cfg, batch.data)
            expected.append(("embed", float(np.abs(z.data).max())))
            for layer in range(cfg.layers):
                z, _ = encoder.encoder_layer(z, params, layer, cfg.heads, cfg.attn_scale)
                expected.append((f"layer{layer}", float(np.abs(z.data).max())))
        assert [name for name, _ in expected] == ["embed", "layer0"]
        assert all(np.isfinite(v) and v > 0 for _, v in expected)
        with pytest.raises(FloatingPointError, match="max \\|activation\\| per layer: "
                           + ", ".join(f"{k}={v:.3e}" for k, v in expected)):
            train_step(batch, params, cfg, init_adam(params))

    @pytest.mark.parametrize("where,first", [
        ("embed.proj", "embed"), ("layer0.w_q", "layer0"), ("layer1.mlp.w2", "layer1"),
        ("layer2.ln1.gamma", "layer2"), ("head.w1", "after the last layer")])
    def test_non_finite_loss_names_the_first_non_finite_layer(self, where, first):
        batch = tiny_batch()
        cfg = ModelConfig(**dict(TOY, layers=3), head_variant="gap")
        params = init_params(cfg, 3)
        params[where].data[0] = np.nan
        with pytest.raises(FloatingPointError, match=f"; first non-finite: {first}$"):
            train_step(batch, params, cfg, init_adam(params))

    def test_non_finite_loss_diagnostic_keeps_no_attention_probabilities(self, monkeypatch):
        keeps = []
        real = encoder.attention

        def attention(*args, **kwargs):
            keeps.append(kwargs.get("keep", False))
            return real(*args, **kwargs)

        monkeypatch.setattr(encoder, "attention", attention)
        batch = tiny_batch()
        cfg = ModelConfig(**dict(TOY, layers=3), head_variant="gap")
        params = init_params(cfg, 3)
        params["head.w1"].data[0] = np.nan
        with pytest.raises(FloatingPointError, match="; first non-finite: after the last layer$"):
            train_step(batch, params, cfg, init_adam(params))
        assert keeps == [False] * 6  # the training pass's three layers, then the diagnostic's

    def test_loss_decreases_on_fixed_batch(self):
        batch = tiny_batch()
        cfg = ModelConfig(**TOY, head_variant="gap")
        params = init_params(cfg, 3)
        state = init_adam(params, lr=1e-2, weight_decay=0.0)
        losses = [train_step(batch, params, cfg, state) for _ in range(50)]
        assert losses[-1] < losses[0]


def _backward_then_adam_step(batch, params, cfg, state):
    """train_step as two passes: every gradient from backward, then adam_step."""
    for p in params.values():
        p.zero_grad()
    loss = optim.l1_loss(optim.batch_predictions(params, cfg, batch), Tensor(batch.labels))
    ndtensor.backward(loss)
    adam_step(params, state)
    return float(loss.data)


class TestFusedTrainStep:
    """train_step updates each parameter inside backward, as soon as its
    gradient is final."""

    def test_no_parameter_holds_a_gradient_after_the_step(self):
        cfg = ModelConfig(**TOY, head_variant="token")
        params = init_params(cfg, 3)
        train_step(tiny_batch(), params, cfg, init_adam(params, lr=1e-3))
        assert all(p.grad is None for p in params.values())

    def test_unreached_parameter_raises_and_changes_nothing(self):
        cfg = ModelConfig(**TOY, head_variant="gap")
        params = init_params(cfg, 3)
        state = init_adam(params, lr=1e-2, weight_decay=1e-1)
        train_step(tiny_batch(), params, cfg, state)  # moments and t away from their start
        params["unused"] = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        state.m["unused"], state.v["unused"] = np.zeros(3, np.float32), np.zeros(3, np.float32)
        before = {n: (p.data.copy(), state.m[n].copy(), state.v[n].copy())
                  for n, p in params.items()}
        with pytest.raises(MissingGradError, match="'unused'"):
            train_step(tiny_batch(seed=1), params, cfg, state)
        assert state.t == 1
        for n, p in params.items():
            npt.assert_array_equal(p.data, before[n][0])
            npt.assert_array_equal(state.m[n], before[n][1])
            npt.assert_array_equal(state.v[n], before[n][2])

    @pytest.mark.parametrize("final_ln", [False, True])
    @pytest.mark.parametrize("head", ["gap", "token"])
    def test_each_update_finds_at_most_two_gradients_held(self, monkeypatch, head, final_ln):
        # a gradient goes with its update, right after its last rule, so an
        # update finds at most its own gradient and its rule's partner's (a
        # linear's weight and bias, a layer norm's gamma and beta) held
        cfg = ModelConfig(**TOY, head_variant=head, final_ln=final_ln)
        params = init_params(cfg, 3)
        spec = patchio.SynthSpec(side=24, count_min=2, count_max=6, seed=4)
        pairs = patchio.synth_generate(spec, 2) + patchio.synth_generate(replace(spec, side=16), 2)
        batch = patchio.make_batch([(patchio.fit_to_grid(img, 16), c) for img, c in pairs], 8)
        assert batch.tiles == (6, 6, 1, 1)
        held, real = [], optim._adam_update

        def counted(state, t):
            update = real(state, t)

            def counted_update(name, p):
                held.append(sum(q.grad is not None for q in params.values()))
                update(name, p)

            return counted_update

        monkeypatch.setattr(optim, "_adam_update", counted)
        train_step(batch, params, cfg, init_adam(params, lr=1e-3))
        assert len(held) == len(params) and max(held) <= 2, held

    # the default budget keeps every toy array whole; 256 bytes splits the
    # MLP hidden, the attention matrices and Adam's updates into blocks
    @pytest.mark.parametrize("budget", [None, 256])
    @pytest.mark.parametrize("head", ["gap", "token"])
    def test_bit_equal_to_backward_then_adam_step(self, monkeypatch, head, budget):
        if budget is not None:
            monkeypatch.setattr(ndtensor, "_BLOCK_BYTES", budget)
        cfg = ModelConfig(**dict(TOY, layers=2), head_variant=head)
        runs = []
        for step in (train_step, _backward_then_adam_step):
            params = init_params(cfg, 3)
            state = init_adam(params, lr=1e-2, weight_decay=1e-1)
            losses = [step(tiny_batch(seed=s), params, cfg, state) for s in range(3)]
            runs.append((losses, params, state))
        (losses, params, state), (ref_losses, ref_params, ref_state) = runs
        assert losses == ref_losses and state.t == ref_state.t == 3
        for n, p in params.items():
            for got, want in ((p.data, ref_params[n].data), (state.m[n], ref_state.m[n]),
                              (state.v[n], ref_state.v[n])):
                assert got.dtype == want.dtype and np.array_equal(got, want), n


class TestTrainLoop:
    def test_seeded_reproducibility(self):
        pairs = patchio.synth_generate(
            patchio.SynthSpec(side=16, count_min=0, count_max=5, seed=1), 8)
        cfg = ModelConfig(**TOY, head_variant="gap")
        tcfg = TrainConfig(batch_size=4, epochs=2, seed=5, lr=1e-3)
        _, _, losses_a = train(pairs, cfg, tcfg)
        _, _, losses_b = train(pairs, cfg, tcfg)
        assert losses_a == losses_b

    def test_trains_on_the_patches_predict_image_scores(self, monkeypatch):
        seen, forward = [], model.forward

        def spy(params, cfg, patches, **kw):
            seen.append(np.array(patches))
            return forward(params, cfg, patches, **kw)

        monkeypatch.setattr(model, "forward", spy)
        img = np.random.default_rng(3).random((500, 900, 3)).astype(np.float32)
        cfg = ModelConfig(**TOY_PROFILE, head_variant="gap")
        train([(img, 4.0)], cfg, TrainConfig(batch_size=1, epochs=1, augment=False, lr=1e-3))
        evalviz.predict_image(img, init_params(cfg, 0), cfg)
        assert len(seen) == 2 and seen[0].shape == (6, 64, 192)
        assert np.array_equal(seen[0], seen[1])

    # (epochs, checkpoint_every) -> epochs whose end saves; the last save is the final one
    @pytest.mark.parametrize("epochs, every, saved_after", [
        (2, 1, [0, 1]), (3, 2, [1, 2]), (2, 0, [1]), (0, 1, [None])])
    def test_checkpoint_written_once_per_due_epoch(self, tmp_path, monkeypatch,
                                                  epochs, every, saved_after):
        events, save = [], optim.save_checkpoint
        monkeypatch.setattr(optim, "save_checkpoint",
                            lambda *a: events.append("save") or save(*a))
        pairs = patchio.synth_generate(patchio.SynthSpec(side=16, count_max=5, seed=1), 4)
        path = str(tmp_path / "m.tcwd")
        train(pairs, ModelConfig(**TOY, head_variant="gap"),
              TrainConfig(batch_size=4, epochs=epochs, checkpoint_every=every, lr=1e-3),
              epoch_callback=lambda epoch, *_: events.append(epoch),
              checkpoint_path=path)
        # each save follows the end of the epoch it records
        assert [events[i - 1] if i else None for i, e in enumerate(events) if e == "save"] \
            == saved_after
        assert events.count("save") == len(saved_after)
        assert load_checkpoint(path)[1].t == epochs

    def test_no_pairs_raises_before_any_save(self, tmp_path):
        path = str(tmp_path / "m.tcwd")
        cfg = ModelConfig(**TOY, head_variant="gap")
        with pytest.raises(ValueError, match="no training pairs"):
            train([], cfg, TrainConfig(epochs=2), checkpoint_path=path)
        assert os.listdir(tmp_path) == []


_STEP_FAULTS = """
import resource, sys
import numpy as np
from patchcount import model, optim, patchio
cfg = model.ModelConfig(image_size=64, patch_size=8, dim=64, heads=4, layers=2,
                        hidden_dim=64, head_variant="token")
pairs = patchio.synth_generate(patchio.SynthSpec(side=64, count_max=30, seed=3), 8)
params = model.init_params(cfg, 3)
state = optim.init_adam(params, lr=1e-2)
rng = np.random.default_rng(3)
faults = 0
for step in range(25):
    batch = patchio.make_batch(pairs, cfg.patch_size, rng=rng)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    optim.train_step(batch, params, cfg, state)
    if step >= 5:
        faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
sys.stdout.write(str(faults / 20))
"""


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except OSError:
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="libc has no mallopt")
def test_toy_step_makes_no_page_faults_after_warm_up():
    # without the malloc policy glibc trims the heap top after every step and
    # faults it in again on the next: about 1,500 minor faults per toy step
    src = os.path.dirname(os.path.dirname(os.path.abspath(model.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", _STEP_FAULTS], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert float(run.stdout) <= 50


class TestCheckpoint:
    def _trained(self, tmp_path, variant="gap"):
        cfg = ModelConfig(**TOY, head_variant=variant)
        params = init_params(cfg, 3)
        state = init_adam(params, lr=1e-3)
        batch = tiny_batch()
        for _ in range(3):
            train_step(batch, params, cfg, state)
        return cfg, params, state, batch

    def test_roundtrip_bit_exact(self, tmp_path):
        cfg, params, state, _ = self._trained(tmp_path)
        path = str(tmp_path / "m.tcwd")
        save_checkpoint(params, state, cfg, path)
        params2, state2, cfg2 = load_checkpoint(path)
        assert cfg2 == cfg
        assert state2.t == state.t
        for name in params:
            npt.assert_array_equal(params2[name].data, params[name].data)
            npt.assert_array_equal(state2.m[name], state.m[name])
            npt.assert_array_equal(state2.v[name], state.v[name])

    def test_corrupt_magic_rejected(self, tmp_path):
        cfg, params, state, _ = self._trained(tmp_path)
        path = str(tmp_path / "m.tcwd")
        save_checkpoint(params, state, cfg, path)
        blob = bytearray(open(path, "rb").read())
        blob[0] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_bad_version_rejected(self, tmp_path):
        cfg, params, state, _ = self._trained(tmp_path)
        path = str(tmp_path / "m.tcwd")
        save_checkpoint(params, state, cfg, path)
        blob = bytearray(open(path, "rb").read())
        blob[4] = 99
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_truncation_rejected(self, tmp_path):
        cfg, params, state, _ = self._trained(tmp_path)
        path = str(tmp_path / "m.tcwd")
        save_checkpoint(params, state, cfg, path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_variant_mismatch_rejected(self, tmp_path):
        cfg, params, state, _ = self._trained(tmp_path, variant="token")
        path = str(tmp_path / "m.tcwd")
        save_checkpoint(params, state, cfg, path)
        gap_cfg = ModelConfig(**TOY, head_variant="gap")
        with pytest.raises(CheckpointError):
            load_checkpoint(path, expected_cfg=gap_cfg)

    def test_resume_matches_uninterrupted(self, tmp_path):
        cfg, params, state, batch = self._trained(tmp_path)
        path = str(tmp_path / "m.tcwd")
        save_checkpoint(params, state, cfg, path)

        straight = [train_step(batch, params, cfg, state) for _ in range(10)]
        params2, state2, cfg2 = load_checkpoint(path)
        resumed = [train_step(batch, params2, cfg2, state2) for _ in range(10)]
        assert straight == resumed
        for name in params:
            npt.assert_array_equal(params2[name].data, params[name].data)

    def test_saved_bytes_pinned(self, tmp_path):
        # pins format v1 byte for byte: any change to the layout, the array
        # order or the config block changes this digest
        cfg = ModelConfig(**TOY, head_variant="gap")
        params = init_params(cfg, 0)
        path = str(tmp_path / "m.tcwd")
        save_checkpoint(params, init_adam(params, lr=1e-3), cfg, path)
        assert hashlib.sha256(open(path, "rb").read()).hexdigest() == \
            "3206c6391ab2887e2e2e054279e753152606195c57764cafea1800b0c5c37966"

    def test_save_fsyncs_the_whole_file_before_the_rename(self, tmp_path, monkeypatch):
        cfg = ModelConfig(**TOY, head_variant="gap")
        params = init_params(cfg, 0)
        path = str(tmp_path / "m.tcwd")
        events, fsync, rename = [], os.fsync, os.replace

        def spy_fsync(fd):
            events.append(("fsync", os.fstat(fd).st_size))  # flushed first
            fsync(fd)

        def spy_replace(src, dst):
            events.append(("replace", os.path.getsize(src)))
            rename(src, dst)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)
        save_checkpoint(params, init_adam(params, lr=1e-3), cfg, path)
        size = os.path.getsize(path)
        assert events == [("fsync", size), ("replace", size)]

    def test_loaded_arrays_writable_contiguous_float32(self, tmp_path):
        cfg, params, state, _ = self._trained(tmp_path, variant="token")
        path = str(tmp_path / "m.tcwd")
        save_checkpoint(params, state, cfg, path)
        params2, state2, _ = load_checkpoint(path)
        arrays = [p.data for p in params2.values()]
        arrays += list(state2.m.values()) + list(state2.v.values())
        assert len(arrays) == 3 * len(params)
        for a in arrays:
            assert a.dtype == np.float32
            assert a.flags.writeable and a.flags.c_contiguous and a.flags.owndata


TOY_PROFILE = dict(image_size=64, patch_size=8, dim=64, heads=4, layers=2, hidden_dim=64)


def _saved(tmp_path, cfg_kw=TOY):
    cfg = ModelConfig(**cfg_kw, head_variant="gap")
    params = init_params(cfg, 0)
    path = str(tmp_path / "m.tcwd")
    save_checkpoint(params, init_adam(params, lr=1e-3), cfg, path)
    return path


def _config_offset(blob):
    """Byte offset just past the config block (where the array count sits)."""
    return 12 + struct.unpack("<I", blob[8:12])[0]


def _with_config(blob, block):
    return (blob[:8] + struct.pack("<I", len(block)) + block
            + blob[_config_offset(blob):])


def _edit_config(blob, edit):
    block = json.loads(blob[12:_config_offset(blob)])
    edit(block)
    return _with_config(blob, json.dumps(block).encode())


def _first_array(blob):
    """Offsets of the first array's name length, name and rank fields."""
    at = _config_offset(blob) + 4
    name_len = struct.unpack("<I", blob[at:at + 4])[0]
    return at, at + 4, at + 4 + name_len


MALFORMED = {
    "unknown_model_key": lambda b: _edit_config(b, lambda c: c["model"].update(bogus=1)),
    "missing_adam_block": lambda b: _edit_config(b, lambda c: c.pop("adam")),
    "non_dict_model": lambda b: _edit_config(b, lambda c: c.update(model=[1, 2])),
    "missing_adam_key": lambda b: _edit_config(b, lambda c: c["adam"].pop("t")),
    "non_int_layers": lambda b: _edit_config(b, lambda c: c["model"].update(layers="1")),
    "negative_layers": lambda b: _edit_config(b, lambda c: c["model"].update(layers=-1)),
    "float_dim": lambda b: _edit_config(b, lambda c: c["model"].update(dim=8.0)),
    "non_bool_final_ln": lambda b: _edit_config(b, lambda c: c["model"].update(final_ln=0)),
    "bad_json": lambda b: _with_config(b, b"{not json"),
    "non_utf8_config": lambda b: _with_config(b, b'{"model": "\xff"}'),
    "non_object_config": lambda b: _with_config(b, b"[]"),
    "deep_nesting": lambda b: _with_config(b, b"[" * 100000),
    "string_lr_fractional_t": lambda b: _edit_config(b, lambda c: c["adam"].update(lr="fast", t=-3.5)),
    "zero_lr": lambda b: _edit_config(b, lambda c: c["adam"].update(lr=0.0)),
    "infinite_lr": lambda b: _edit_config(b, lambda c: c["adam"].update(lr=float("inf"))),
    "int_overflowing_lr": lambda b: _edit_config(b, lambda c: c["adam"].update(lr=10 ** 400)),
    "bool_lr": lambda b: _edit_config(b, lambda c: c["adam"].update(lr=True)),
    "nan_eps": lambda b: _edit_config(b, lambda c: c["adam"].update(eps=float("nan"))),
    "negative_eps": lambda b: _edit_config(b, lambda c: c["adam"].update(eps=-1e-8)),
    "beta1_one": lambda b: _edit_config(b, lambda c: c["adam"].update(beta1=1.0)),
    "negative_beta2": lambda b: _edit_config(b, lambda c: c["adam"].update(beta2=-0.5)),
    "negative_weight_decay": lambda b: _edit_config(
        b, lambda c: c["adam"].update(weight_decay=-1e-4)),
    "negative_t": lambda b: _edit_config(b, lambda c: c["adam"].update(t=-1)),
    "float_t": lambda b: _edit_config(b, lambda c: c["adam"].update(t=2.0)),
    "bool_t": lambda b: _edit_config(b, lambda c: c["adam"].update(t=True)),
    "huge_t": lambda b: _edit_config(b, lambda c: c["adam"].update(t=2 ** 63)),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_config_block_raises_checkpoint_error(tmp_path, case):
    path = _saved(tmp_path)
    blob = open(path, "rb").read()
    open(path, "wb").write(MALFORMED[case](blob))
    with pytest.raises(CheckpointError, match="malformed config block"):
        load_checkpoint(path)


def test_non_utf8_array_name_raises_checkpoint_error(tmp_path):
    path = _saved(tmp_path)
    blob = bytearray(open(path, "rb").read())
    _, name_at, _ = _first_array(blob)
    blob[name_at] = 0xFF
    open(path, "wb").write(bytes(blob))
    with pytest.raises(CheckpointError, match="UTF-8"):
        load_checkpoint(path)


def test_array_not_in_shape_table_raises_checkpoint_error(tmp_path):
    # a config edited to fewer layers used to load, dropping layer1.*
    path = _saved(tmp_path, TOY_PROFILE)
    blob = open(path, "rb").read()
    open(path, "wb").write(_edit_config(blob, lambda c: c["model"].update(layers=1)))
    with pytest.raises(CheckpointError, match="'layer1.ln1.gamma' is not in the shape table"):
        load_checkpoint(path)


def _record(name, arr):
    """One array record as save_checkpoint writes it, as bytes."""
    buf = io.BytesIO()
    optim._write_array(buf, name, arr)
    return buf.getvalue()


@pytest.mark.parametrize("name", ["embed.proj", "embed.proj.m"])
def test_array_listed_twice_raises_checkpoint_error(tmp_path, name):
    # a second copy at the end of the file used to load, the last copy winning
    path = _saved(tmp_path)
    blob = open(path, "rb").read()
    at = _config_offset(blob)
    count = struct.unpack("<I", blob[at:at + 4])[0]
    extra = _record(name, np.ones(param_shapes(ModelConfig(**TOY))["embed.proj"]))
    open(path, "wb").write(blob[:at] + struct.pack("<I", count + 1) + blob[at + 4:] + extra)
    with pytest.raises(CheckpointError, match=f"{name!r} is listed twice"):
        load_checkpoint(path)


@pytest.mark.parametrize("cut_off", [True, False],
                         ids=["last_moment_cut_off", "last_moment_wrong_shape"])
def test_array_table_checked_before_any_payload_is_read(tmp_path, monkeypatch, cut_off):
    # the last array record is the last parameter's .v
    name, shape = list(param_shapes(ModelConfig(**TOY, head_variant="gap")).items())[-1]
    path = _saved(tmp_path)
    blob = open(path, "rb").read()
    at = _config_offset(blob)
    count = struct.unpack("<I", blob[at:at + 4])[0]
    last = len(_record(name + ".v", np.zeros(shape)))
    if cut_off:
        count, record, expect = count - 1, b"", f"checkpoint missing array '{name}.v'"
    else:
        record = _record(name + ".v", np.zeros((2, *shape)))
        expect = f"array '{name}.v' has shape"
    open(path, "wb").write(blob[:at] + struct.pack("<I", count) + blob[at + 4:-last] + record)
    reads, array = [], optim._Reader.array
    monkeypatch.setattr(optim._Reader, "array",
                        lambda self, dims, what: reads.append(what) or array(self, dims, what))
    with pytest.raises(CheckpointError, match=expect):
        load_checkpoint(path)
    assert reads == []


def test_rank_over_64_raises_checkpoint_error(tmp_path):
    path = _saved(tmp_path)
    blob = open(path, "rb").read()
    _, _, rank_at = _first_array(blob)
    rank = struct.unpack("<I", blob[rank_at:rank_at + 4])[0]
    header = struct.pack("<I", 70) + struct.pack("<I", 1) * 70
    open(path, "wb").write(blob[:rank_at] + header + blob[rank_at + 4 + 4 * rank:])
    with pytest.raises(CheckpointError, match="rank 70"):
        load_checkpoint(path)


def _load_peak(path):
    """Bytes allocated at the peak of one load_checkpoint, above the start."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            out = load_checkpoint(path)
        except CheckpointError as exc:
            out = exc
        return tracemalloc.get_traced_memory()[1] - base, out
    finally:
        tracemalloc.stop()


def test_load_peak_close_to_file_size(tmp_path):
    path = _saved(tmp_path, TOY_PROFILE)
    size = os.path.getsize(path)
    peak, out = _load_peak(path)
    assert isinstance(out, tuple)
    assert peak <= 1.25 * size, f"peak {peak} B for a {size} B file"


def test_load_peak_under_half_file_size(tmp_path):
    # the parameters are a third of the file; the moments stay in it
    path = _saved(tmp_path, TOY_PROFILE)
    size = os.path.getsize(path)
    peak, out = _load_peak(path)
    assert isinstance(out, tuple)
    assert peak <= 0.5 * size, f"peak {peak} B for a {size} B file"


def _saved_other(tmp_path, seed):
    """Another checkpoint of the same size as _saved's, with other values."""
    cfg = ModelConfig(**TOY_PROFILE, head_variant="gap")
    params = init_params(cfg, seed)
    state = init_adam(params, lr=1e-3)
    for name in params:
        state.m[name] += 1.0
    path = str(tmp_path / f"other{seed}.tcwd")
    save_checkpoint(params, state, cfg, path)
    return path


def test_moments_iterate_in_shape_table_order(tmp_path):
    path = _saved(tmp_path, TOY_PROFILE)
    params, state, cfg = load_checkpoint(path)
    names = list(param_shapes(cfg))
    assert list(params) == names
    for moments in (state.m, state.v):
        assert list(moments) == names and len(moments) == len(names)
        assert "bogus" not in moments


def test_moment_read_after_file_replaced_raises(tmp_path):
    path = _saved(tmp_path, TOY_PROFILE)
    _, state, cfg = load_checkpoint(path)
    first, *rest = param_shapes(cfg)
    kept = state.m[first]
    os.replace(_saved_other(tmp_path, 1), path)
    assert state.m[first] is kept  # read before the swap, so kept
    for moments in (state.m, state.v):
        with pytest.raises(CheckpointError, match="changed since it was loaded"):
            moments[rest[0]]


def test_moment_read_after_file_rewritten_in_place_raises(tmp_path):
    path = _saved(tmp_path, TOY_PROFILE)
    _, state, cfg = load_checkpoint(path)
    before = os.stat(path)
    other = open(_saved_other(tmp_path, 1), "rb").read()
    assert len(other) == before.st_size
    with open(path, "r+b") as fh:
        fh.write(other)
    # on a filesystem with coarse timestamps a rewrite within one clock
    # tick keeps the old mtime; a writer one second later moves it
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns + 10 ** 9))
    assert os.stat(path).st_ino == before.st_ino
    with pytest.raises(CheckpointError, match="changed since it was loaded"):
        state.v[next(iter(param_shapes(cfg)))]


def test_cut_inside_last_moment_is_truncation_at_load(tmp_path):
    path = _saved(tmp_path, TOY_PROFILE)
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:-2])
    with pytest.raises(CheckpointError, match="truncated checkpoint while reading "
                                              "array 'head.b2.v' payload"):
        load_checkpoint(path)


def _forge_u32(blob, at):
    return blob[:at] + struct.pack("<I", 2 ** 31) + blob[at + 4:]


def _forge_dims(blob):
    _, _, rank_at = _first_array(blob)
    for i in range(struct.unpack("<I", blob[rank_at:rank_at + 4])[0]):
        blob = _forge_u32(blob, rank_at + 4 + 4 * i)
    return blob


FORGED = {
    "config_length": lambda b: _forge_u32(b, 8),
    "name_length": lambda b: _forge_u32(b, _first_array(b)[0]),
    "dims": _forge_dims,
    "layers": lambda b: _edit_config(b, lambda c: c["model"].update(layers=20000)),
}


@pytest.mark.parametrize("field", sorted(FORGED))
def test_forged_size_is_truncation_without_allocating_it(tmp_path, field):
    path = _saved(tmp_path, TOY_PROFILE)
    blob = open(path, "rb").read()
    open(path, "wb").write(FORGED[field](blob))
    size = os.path.getsize(path)
    peak, out = _load_peak(path)
    assert isinstance(out, CheckpointError) and "truncated" in str(out), out
    assert peak < size, f"peak {peak} B for a {size} B file"


@pytest.mark.parametrize("field, value", [
    ("batch_size", 2.0), ("batch_size", True),
    ("epochs", -2), ("epochs", 1.5),
    ("checkpoint_every", -1), ("checkpoint_every", True),
    ("lr", 0.0), ("lr", -1e-3), ("lr", float("nan")), ("lr", float("inf")),
    ("weight_decay", -1e-4), ("weight_decay", float("nan")), ("weight_decay", float("inf")),
    ("seed", "3"), ("seed", 1.5), ("seed", -1), ("seed", True),
    ("lr", True), ("weight_decay", True), ("augment", "no"), ("augment", 1),
    ("lr", "0.1"), ("weight_decay", None),
    pytest.param("lr", 10 ** 400, id="lr-10**400"),
    pytest.param("weight_decay", 10 ** 400, id="weight_decay-10**400"),
])
def test_train_config_rejects_bad_type_or_range(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        TrainConfig(**{field: value})


def test_train_config_accepts_zero_epochs_and_decay():
    tcfg = TrainConfig(epochs=0, checkpoint_every=0, weight_decay=0.0)
    assert (tcfg.epochs, tcfg.checkpoint_every, tcfg.weight_decay) == (0, 0, 0.0)


@pytest.mark.parametrize("field, value", [
    ("lr", float("nan")), ("lr", -1e-3), ("lr", "0.1"), ("weight_decay", float("inf")),
])
def test_init_adam_rejects_what_adam_step_cannot_use(field, value):
    params = init_params(ModelConfig(**TOY, head_variant="gap"), 0)
    with pytest.raises(ValueError, match=f"^adam {field} must"):
        init_adam(params, **{field: value})


def test_param_shapes_names_twelve_arrays_a_layer():
    # load_checkpoint's layer bound counts model.LAYER_ARRAYS arrays a
    # layer, each with .m and .v: the count param_shapes adds per layer
    cfg = ModelConfig(**TOY, head_variant="gap")
    one, two = (len(param_shapes(replace(cfg, layers=n))) for n in (1, 2))
    assert two - one == model.LAYER_ARRAYS == 12


def test_layer_bound_takes_the_count_from_model(tmp_path, monkeypatch):
    path = _saved(tmp_path, TOY_PROFILE)
    load_checkpoint(path)
    monkeypatch.setattr(model, "LAYER_ARRAYS", os.path.getsize(path))
    with pytest.raises(CheckpointError, match="layers cannot fit"):
        load_checkpoint(path)
