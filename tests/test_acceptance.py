"""Acceptance suite: one test per criterion, one printed line per result.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines. The toy-scale training runs are shared across criteria
via a module-scoped fixture (two ~1-minute runs).
"""

import math
import os
import time

import numpy as np
import pytest

from patchcount import patchio
from patchcount.evalviz import (ConvergenceLog, attention_map, mae_mse,
                                predict_image)
from patchcount.model import (ModelConfig, forward, grad_check_model,
                              init_params)
from patchcount.ndtensor import no_grad
from patchcount.optim import (init_adam, load_checkpoint, save_checkpoint,
                              train, train_step, TrainConfig)

TOY = dict(image_size=64, patch_size=8, dim=64, heads=4, layers=2,
           hidden_dim=64)
TRAIN_SEED = 11
DATA_SEED = 42
HELD_SEED = 1042
EPOCHS = 500
BATCH = 8
LR = 1e-2


def train_config(seed):
    """The shared toy training run's settings, at training seed ``seed``."""
    return TrainConfig(batch_size=BATCH, epochs=EPOCHS, seed=seed, lr=LR,
                       weight_decay=1e-4, augment=False)


def smoothed_rises(losses):
    """Epoch-to-epoch rises of the 20-epoch moving average of the mean epoch
    loss of an EPOCHS-epoch run, and the slack criterion 5 allows each one.
    """
    epoch_losses = np.asarray(losses).reshape(EPOCHS, -1).mean(axis=1)
    ma = np.convolve(epoch_losses, np.ones(20) / 20, mode="valid")
    # stochastic L1/Adam oscillates at the floor by ~lr per step, so
    # "nonincreasing" is enforced up to 2% of the initial smoothed loss
    return np.diff(ma), 0.02 * ma[0]


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _toy_cfg(variant):
    return ModelConfig(**TOY, head_variant=variant)


def _synth(seed, n, **over):
    spec = patchio.SynthSpec(side=64, count_min=0, count_max=30,
                             dot_radius=2.0, noise_amp=0.1, seed=seed, **over)
    return patchio.synth_generate(spec, n)


@pytest.fixture(scope="module")
def train_pairs():
    return _synth(DATA_SEED, 32)


@pytest.fixture(scope="module")
def held_pairs():
    return _synth(HELD_SEED, 64)


@pytest.fixture(scope="module")
def trained(train_pairs):
    """Both head variants trained on the shared 32-image set, shared seed."""
    out = {}
    for variant in ("gap", "token"):
        cfg = _toy_cfg(variant)
        start = time.monotonic()
        params, state, losses = train(train_pairs, cfg, train_config(TRAIN_SEED))
        out[variant] = {"cfg": cfg, "params": params, "state": state,
                        "losses": np.asarray(losses),
                        "runtime": time.monotonic() - start}
    return out


def test_criterion_1_gradient_correctness():
    start = time.monotonic()
    worst = 0.0
    for variant in ("gap", "token"):
        err = grad_check_model(_toy_cfg(variant), seed=0, samples_per_param=8)
        worst = max(worst, err)
    elapsed = time.monotonic() - start
    _report(1, worst < 5e-3 and elapsed < 300,
            f"max rel err {worst:.2e} (< 5e-3), runtime {elapsed:.0f}s (< 300s)")


def test_criterion_2_shape_contract():
    img = np.random.default_rng(0).random((768, 1152, 3)).astype(np.float32)
    tiles = patchio.split_tiles(img)
    seqs = [patchio.patchify(t, 16) for t in tiles]
    shapes_ok = len(seqs) == 6 and all(s.shape == (576, 768) for s in seqs)
    rebuilt = [patchio.unpatchify(s, 384, 384, 16) for s in seqs]
    rows = [np.concatenate(rebuilt[r * 3 : (r + 1) * 3], axis=1) for r in range(2)]
    bit_exact = np.array_equal(np.concatenate(rows, axis=0), img)
    _report(2, shapes_ok and bit_exact,
            "6 sequences of [576, 768] with bit-exact round trip")


def test_criterion_3_permutation_properties():
    rng = np.random.default_rng(1)
    ok = True
    details = []
    for variant in ("gap", "token"):
        cfg = _toy_cfg(variant)
        params = init_params(cfg, 0)
        x = rng.normal(size=(1, cfg.seq_len, cfg.patch_dim)).astype(np.float32)
        perm = rng.permutation(cfg.seq_len)
        saved_pos = params["embed.pos"].data.copy()
        params["embed.pos"].data[:] = 0.0
        with no_grad():
            a, _ = forward(params, cfg, x)
            b, _ = forward(params, cfg, x[:, perm])
        rel = abs(float(b.data[0]) - float(a.data[0])) / max(1e-12, abs(float(a.data[0])))
        ok &= rel < 1e-5
        details.append(f"{variant} rel change {rel:.1e}")

        params["embed.pos"].data[:] = saved_pos
        with no_grad():
            c, _ = forward(params, cfg, x)
            d, _ = forward(params, cfg, x[:, perm])
        ok &= float(c.data[0]) != float(d.data[0])
    _report(3, ok, "; ".join(details) + "; learned positions break invariance")


def test_criterion_4_attention_stochasticity():
    rng = np.random.default_rng(2)
    cfg = ModelConfig(image_size=32, patch_size=8, dim=16, heads=4, layers=2,
                      hidden_dim=16, head_variant="gap")
    worst = 0.0
    for i in range(100):
        params = init_params(cfg, i)
        x = rng.normal(scale=rng.uniform(0.1, 3.0),
                       size=(1, cfg.seq_len, cfg.patch_dim)).astype(np.float32)
        with no_grad():
            _, weights = forward(params, cfg, x, record_attention=True)
        for w in weights:
            worst = max(worst, float(np.abs(w.sum(axis=-1) - 1.0).max()))
            assert ((w >= 0) & (w <= 1)).all()
    _report(4, worst < 1e-6, f"100-pass fuzz, worst row-sum error {worst:.1e}")


def test_criterion_5_overfit_convergence(trained, train_pairs):
    ok = True
    details = []
    for variant in ("gap", "token"):
        run = trained[variant]
        preds = [predict_image(img, run["params"], run["cfg"])
                 for img, _ in train_pairs]
        mae, _ = mae_mse(preds, [c for _, c in train_pairs])
        rises, slack = smoothed_rises(run["losses"])
        monotone = bool((rises <= slack).all())
        ok &= mae < 1.5 and run["runtime"] < 600 and monotone
        worst = int(np.argmax(rises))
        details.append(f"{variant}: train MAE {mae:.3f} (<1.5), "
                       f"{run['runtime']:.0f}s (<600s), smoothed-curve "
                       f"nonincreasing={monotone}, worst rise "
                       f"{rises[worst]:.3f} @ epoch {worst} "
                       f"(slack {slack:.3f})")
    _report(5, ok, "; ".join(details))


def test_criterion_6_generalization_sanity(trained, train_pairs, held_pairs):
    run = trained["gap"]
    preds = [predict_image(img, run["params"], run["cfg"])
             for img, _ in held_pairs]
    gts = [c for _, c in held_pairs]
    mae, _ = mae_mse(preds, gts)
    const = float(np.mean([c for _, c in train_pairs]))
    const_mae, _ = mae_mse([const] * len(gts), gts)
    improvement = 1.0 - mae / const_mae
    _report(6, improvement >= 0.30,
            f"held-out MAE {mae:.2f} vs constant-mean {const_mae:.2f}: "
            f"{100 * improvement:.0f}% better (>= 30%)")


def test_criterion_7_head_comparison_report(trained, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("headcmp")
    finals = {}
    for variant in ("gap", "token"):
        run = trained[variant]
        epoch_losses = run["losses"].reshape(EPOCHS, -1).mean(axis=1)
        path = out_dir / f"convergence_{variant}.tsv"
        with ConvergenceLog(str(path)) as log:
            for e, loss in enumerate(epoch_losses):
                log.record(e, float(loss))
        finals[variant] = epoch_losses
    emitted = all((out_dir / f"convergence_{v}.tsv").exists()
                  for v in ("gap", "token"))

    plot = out_dir / "convergence.png"
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
        fig, ax = plt.subplots()
        for variant, curve in finals.items():
            ax.plot(curve, label=variant)
        ax.set_xlabel("epoch")
        ax.set_ylabel("train L1 loss")
        ax.legend()
        fig.savefig(plot)
        plt.close(fig)
    except ImportError:
        plot = None

    # reported, not gated: whether GAP converges faster and ends lower here
    gap_end = finals["gap"][-20:].mean()
    token_end = finals["token"][-20:].mean()
    half_gap = int(np.argmax(finals["gap"] < finals["gap"][0] / 10))
    half_tok = int(np.argmax(finals["token"] < finals["token"][0] / 10))
    print(f"\n  head comparison (toy scale, informational): GAP final "
          f"{gap_end:.3f} vs Token final {token_end:.3f}; epochs to 10x loss "
          f"reduction: GAP {half_gap}, Token {half_tok}; plot: {plot}")
    _report(7, emitted, f"convergence logs emitted to {out_dir}")


def test_criterion_8_metric_oracle():
    mae, mse = mae_mse([3.0, 4.0], [0.0, 0.0])
    _report(8, mae == 3.5 and mse == math.sqrt(12.5),
            f"errors [3,4] -> MAE {mae}, MSE {mse} (= sqrt(12.5))")


def test_criterion_9_persistence(train_pairs, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("ckpt") / "m.tcwd")
    cfg = _toy_cfg("gap")
    params = init_params(cfg, 1)
    state = init_adam(params, lr=1e-3)
    batch = patchio.make_batch(train_pairs[:4], cfg.patch_size)
    for _ in range(3):
        train_step(batch, params, cfg, state)
    save_checkpoint(params, state, cfg, path)

    params2, state2, cfg2 = load_checkpoint(path)
    exact = all(np.array_equal(params2[n].data, params[n].data) for n in params)
    exact &= state2.t == state.t

    straight = [train_step(batch, params, cfg, state) for _ in range(10)]
    resumed = [train_step(batch, params2, cfg2, state2) for _ in range(10)]
    traj = straight == resumed and all(
        np.array_equal(params2[n].data, params[n].data) for n in params)
    _report(9, exact and traj,
            "round trip bit-exact; resumed trajectory matches for 10 steps")


def test_criterion_10_attention_localization(trained):
    run = trained["gap"]
    cfg = run["cfg"]
    quad = patchio.synth_generate(
        patchio.SynthSpec(side=64, count_min=8, count_max=16, dot_radius=2.0,
                          noise_amp=0.1, seed=99, region=(0.0, 0.5, 0.0, 0.5)),
        16)
    fracs = []
    for img, _ in quad:
        batch = patchio.make_batch([(img, 0.0)], cfg.patch_size)
        with no_grad():
            _, weights = forward(run["params"], cfg, batch.data,
                                 record_attention=True)
        grid = attention_map(weights[-1], cfg)
        k = grid.size // 4
        thresh = np.sort(grid.ravel())[-k]
        mask = grid >= thresh
        total = grid[mask].sum()
        g = grid.shape[0] // 2
        in_quad = grid[:g, :g][mask[:g, :g]].sum()
        fracs.append(in_quad / total if total > 0 else 0.0)
    mean_frac = float(np.mean(fracs))
    _report(10, mean_frac > 0.5,
            f"top-quartile attention mass in dot quadrant: {mean_frac:.2f} "
            f"(> 0.5, averaged over 16 images)")
