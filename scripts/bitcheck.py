"""Print sha256 digests of training and scoring outputs, to show that a
change moves no bit.

    OPENBLAS_NUM_THREADS=1 python3 scripts/bitcheck.py
    OPENBLAS_NUM_THREADS=2 python3 scripts/bitcheck.py

Run it at both thread counts on the parent commit and on the change, from
the repository root; every line must match between the two trees. Lines:

- toy-train-<head>: 38 epochs of the toy profile (64 synthetic 64x64
  images, batch 8, lr 1e-2, augmentation on, seed 3), over the first 300
  step losses and every parameter and Adam moment after the 304 steps.
  Each toy array is one block, and a toy step rebuilds in backward what
  a paper step does (the layer norm outputs, Q, K, V, the probabilities,
  the merged heads, the MLP's h and GELU(h)), so these lines check every
  rebuild against the forward's bits;
- cli-train-token: the checkpoint that ``patchcount train --profile toy
  --head token`` (3 epochs, batch 4, seed 3) writes for a synthesized set
  of six 64x64 images and four 48x48 ones, which ``fit_to_grid`` cuts into
  six tiles each. The script's own ``src`` runs the command, so copying
  the script into another checkout checks that checkout's CLI;
- paper-eval-<head>: the six tile predictions of a no-grad forward of the
  paper config (init_params seed 71) on one 480x640 synthetic image;
- paper-train-<head>: 3 one-tile train steps of the paper config
  (init_params seed 71, lr 1e-5, one 384x384 synthetic image), over the
  losses and every parameter and Adam moment after them. The Token digest
  differs between 1 and 2 BLAS threads (the recorded attention at S = 577
  runs at the process's BLAS setting), so compare each thread count with
  itself;
- attnmap-<head>: the PGM that ``patchcount attnmap`` writes for a toy
  checkpoint (init_params seed 3) and a 48x64 synthetic PPM, run through
  the script's own ``src`` as cli-train-token is;
- paper-attn-<head>: the last layer's attention weights from a no-grad
  ``model.features`` pass with an observer, at the paper config
  (init_params seed 71), on one 384x384 synthetic tile. The Token weights
  differ between 1 and 2 BLAS threads (the observed pass runs the whole
  batch at the process's BLAS setting), so compare each thread count
  with itself.

The paper lines need about 1.2 GB of memory (a run at 2 BLAS threads
peaked at 1,118 MB of RSS, since a train step's graph keeps no layer norm
output, no Q, K, V or merged heads, and neither the MLP's hidden layer
nor its GELU, and the step never holds a whole set of gradients) and a
minute or so of CPU.
"""

import hashlib
import os
import subprocess
import sys
import tempfile

import numpy as np

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

from patchcount import model, optim, patchio  # noqa: E402
from patchcount.ndtensor import no_grad  # noqa: E402

TOY = dict(image_size=64, patch_size=8, dim=64, heads=4, layers=2, hidden_dim=64)


def digest(losses, params, state):
    h = hashlib.sha256(np.asarray(losses, dtype=np.float64).tobytes())
    for name, p in params.items():
        for arr in (p.data, state.m[name], state.v[name]):
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def toy_train(head):
    pairs = patchio.synth_generate(patchio.SynthSpec(side=64, count_max=30, seed=3), 64)
    cfg = model.ModelConfig(**TOY, head_variant=head)
    tcfg = optim.TrainConfig(batch_size=8, epochs=38, seed=3, lr=1e-2)
    params, state, losses = optim.train(pairs, cfg, tcfg)
    return digest(losses[:300], params, state)


def cli_train_token():
    with tempfile.TemporaryDirectory() as tmp:
        data, ckpt = os.path.join(tmp, "data"), os.path.join(tmp, "m.tcwd")
        pairs = patchio.synth_generate(patchio.SynthSpec(side=64, count_max=20, seed=5), 6)
        pairs += patchio.synth_generate(patchio.SynthSpec(side=48, count_max=20, seed=6), 4)
        patchio.write_dataset(pairs, data)
        subprocess.run([sys.executable, "-m", "patchcount.cli", "train", "--data", data,
                        "--out", ckpt, "--profile", "toy", "--head", "token",
                        "--epochs", "3", "--batch-size", "4", "--seed", "3"],
                       env=dict(os.environ, PYTHONPATH=SRC), check=True,
                       stdout=subprocess.DEVNULL)
        with open(ckpt, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()


def paper_eval(head):
    cfg = model.ModelConfig(head_variant=head)
    params = model.init_params(cfg, 71)
    img, _ = patchio.synth_generate(patchio.SynthSpec(side=640, dot_radius=8.0, seed=71), 1)[0]
    batch = patchio.make_batch([(patchio.fit_to_grid(img[:480], cfg.image_size), 0.0)],
                               cfg.patch_size)
    with no_grad():
        preds, _ = model.forward(params, cfg, batch.data)
    assert preds.shape == (6,)
    return hashlib.sha256(preds.data.tobytes()).hexdigest()


def attnmap(head):
    cfg = model.ModelConfig(**TOY, head_variant=head)
    params = model.init_params(cfg, 3)
    with tempfile.TemporaryDirectory() as tmp:
        ckpt, img, pgm = (os.path.join(tmp, n) for n in ("m.tcwd", "x.ppm", "map.pgm"))
        optim.save_checkpoint(params, optim.init_adam(params), cfg, ckpt)
        pixels, _ = patchio.synth_generate(patchio.SynthSpec(side=64, count_max=20, seed=7), 1)[0]
        patchio.save_ppm(pixels[:48], img)
        subprocess.run([sys.executable, "-m", "patchcount.cli", "attnmap", "--checkpoint", ckpt,
                        "--image", img, "--out", pgm],
                       env=dict(os.environ, PYTHONPATH=SRC), check=True,
                       stdout=subprocess.DEVNULL)
        with open(pgm, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()


def paper_attn(head):
    cfg = model.ModelConfig(head_variant=head)
    params = model.init_params(cfg, 71)
    pairs = patchio.synth_generate(patchio.SynthSpec(side=384, dot_radius=8.0, seed=71), 1)
    last = {}
    with no_grad():
        model.features(params, cfg, patchio.make_batch(pairs, cfg.patch_size).data,
                       lambda _, __, w: last.update(weights=w))
    return hashlib.sha256(np.ascontiguousarray(last["weights"]).tobytes()).hexdigest()


def paper_train(head):
    cfg = model.ModelConfig(head_variant=head)
    params = model.init_params(cfg, 71)
    state = optim.init_adam(params, lr=1e-5)
    pairs = patchio.synth_generate(patchio.SynthSpec(side=384, dot_radius=8.0, seed=71), 1)
    rng = np.random.default_rng(72)
    losses = [optim.train_step(patchio.make_batch(pairs, cfg.patch_size, rng=rng),
                               params, cfg, state) for _ in range(3)]
    return digest(losses, params, state)


def main():
    print(f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")
    for head in (model.HEAD_GAP, model.HEAD_TOKEN):
        print(f"toy-train-{head}\t{toy_train(head)}", flush=True)
    print(f"cli-train-token\t{cli_train_token()}", flush=True)
    for head in (model.HEAD_GAP, model.HEAD_TOKEN):
        print(f"paper-eval-{head}\t{paper_eval(head)}", flush=True)
    for head in (model.HEAD_GAP, model.HEAD_TOKEN):
        print(f"paper-train-{head}\t{paper_train(head)}", flush=True)
    for head in (model.HEAD_GAP, model.HEAD_TOKEN):
        print(f"attnmap-{head}\t{attnmap(head)}", flush=True)
    for head in (model.HEAD_GAP, model.HEAD_TOKEN):
        print(f"paper-attn-{head}\t{paper_attn(head)}", flush=True)


if __name__ == "__main__":
    main()
