"""The three closed-loop, single-client workloads and their correctness checks.

Every workload drives the program through its public modules, looked up
by attribute at call time so that the tracer's patches are seen:

- ``toy-train``: toy profile, Token head, augmentation on. Many small ops,
  so per-node Python dispatch and elementwise primitives dominate.
- ``paper-train``: paper config, GAP head, one 384x384 tile per step, then
  one checkpoint save. Large GEMMs, Adam over 86M parameters, and the
  retained autodiff graph dominate.
- ``paper-eval``: the paper config loaded from a checkpoint written
  beforehand, scoring PPM files from disk. Forward only, at six tiles per
  image, with decode and resize on the per-image path.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass

import numpy as np

from patchcount import evalviz, model, optim, patchio
from patchcount.ndtensor import no_grad
import reference
import tracing

PACKAGE = "patchcount"

# Raw float32 tile predictions against the float64 reference forward:
# |program - reference| <= REF_TOL * max(1, |reference|).
REF_TOL = 1e-4
# predict_image against max(0, float32 sum of its raw tile predictions).
SUM_TOL = 1e-6
# The eval checkpoint's count head. Its output weights are scaled so that
# the encoder moves each tile's prediction by O(1): at initialisation
# scale it moves it by about 0.03, which REF_TOL would not resolve. Its
# bias is then set so that a probe tile predicts EVAL_TILE_TARGET, which
# keeps predictions positive, so the clamp at zero is not what the checks
# see.
EVAL_HEAD_W2_SCALE = 100.0
EVAL_TILE_TARGET = 3.0


@dataclass
class Workload:
    name: str
    kind: str  # "train" or "eval"
    cfg: model.ModelConfig
    lr: float
    batch_size: int
    image_side: tuple  # (min, max) side of the synthetic images
    count_max: int
    dot_radius: float
    n_images: int
    setup_repeats: int
    warmup: int
    restart_every: int = 0  # restart from a new init_params every this many steps


TOY_CFG = model.ModelConfig(image_size=64, patch_size=8, dim=64, heads=4, layers=2,
                            hidden_dim=64, head_variant=model.HEAD_TOKEN)
PAPER_CFG = model.ModelConfig()
# Stand-in for the paper config in the smoke test: same code paths, tiny sizes.
TINY_CFG = model.ModelConfig(image_size=32, patch_size=8, dim=16, heads=2, layers=1)


def workloads(scale):
    paper = PAPER_CFG if scale == "full" else TINY_CFG
    side = paper.image_size
    eval_side = (480, 720) if scale == "full" else (96, 160)
    return {
        "toy-train": Workload("toy-train", "train", TOY_CFG, lr=1e-2, batch_size=8,
                              image_side=(64, 64), count_max=30, dot_radius=2.0,
                              n_images=64,
                              setup_repeats=25 if scale == "full" else 3,
                              warmup=5, restart_every=64),
        "paper-train": Workload("paper-train", "train", paper, lr=1e-5, batch_size=1,
                                image_side=(side, side), count_max=100,
                                dot_radius=max(1.0, side / 64), n_images=4,
                                setup_repeats=3, warmup=1),
        "paper-eval": Workload("paper-eval", "eval", paper, lr=1e-5, batch_size=1,
                               image_side=eval_side, count_max=100,
                               dot_radius=max(1.0, eval_side[0] / 96), n_images=3,
                               setup_repeats=3, warmup=1),
    }


def synth_pairs(wl, seed):
    """(image, count) pairs for a workload; square sides drawn from the seed."""
    rng = np.random.default_rng(seed)
    pairs = []
    for i in range(wl.n_images):
        side = int(rng.integers(wl.image_side[0], wl.image_side[1] + 1))
        spec = patchio.SynthSpec(side=side, count_min=0, count_max=wl.count_max,
                                 dot_radius=wl.dot_radius, seed=seed * 1000 + i)
        pairs.extend(patchio.synth_generate(spec, 1))
    return pairs


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(arr):
    a = np.ascontiguousarray(arr)
    return (a.dtype.str, a.shape, hashlib.sha256(a.view(np.uint8)).hexdigest())


class Run:
    """State of one workload run: timings, failures, checks, trace."""

    def __init__(self, wl, seed, seconds, trace, work_dir):
        self.wl, self.seed, self.seconds, self.trace = wl, seed, seconds, trace
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.first_error = None
        self.checks = {}  # name -> (passed, detail)
        self.setup_s = []
        self.item_ms = []
        self.traced_ms = []
        self.timed_wall_s = 0.0
        self.extra = {}
        self.tracer = None
        self.between = None  # called before each item, outside its timing

    def check(self, name, passed, detail=""):
        self.checks[name] = (bool(passed), detail)

    def attempt(self, fn, tracer=None, root=None):
        """Run one step or image; a raise or non-finite result is a failure."""
        if self.between is not None:
            self.between()
        self.attempted += 1
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.begin(root)
        try:
            fn()
        except Exception:  # one failed step must not end the run
            self.failed += 1
            if self.first_error is None:
                self.first_error = traceback.format_exc()
            return None
        finally:
            if tracer is not None:
                tracer.end()
        return (time.perf_counter() - t0) * 1e3

    def loop(self, fn, seconds, out, tracer=None, root=None):
        """Closed loop: the next item starts when the previous one ends."""
        t0 = time.perf_counter()
        while True:
            ms = self.attempt(fn, tracer, root)
            if ms is not None:
                out.append(ms)
            if time.perf_counter() - t0 >= seconds:
                return time.perf_counter() - t0

    def measure(self, fn, root, warm=None):
        """Warm up, then time items untraced, then (with trace) traced."""
        for _ in range(self.wl.warmup):
            self.attempt(warm or fn)
        if not self.trace:
            self.timed_wall_s = self.loop(fn, self.seconds, self.item_ms)
            return
        self.timed_wall_s = self.loop(fn, self.seconds / 2, self.item_ms)
        self.tracer.install(PACKAGE, HOOKS)
        try:
            self.loop(fn, self.seconds / 2, self.traced_ms, self.tracer, root)
        finally:
            self.tracer.uninstall()

    def set_up(self, fn, st):
        """Time set-up ``setup_repeats`` times (once when tracing).

        The previous repeat's state is dropped before the clock starts.
        """
        for _ in range(1 if self.trace else self.wl.setup_repeats):
            st.clear()
            t0 = time.perf_counter()
            self.traced("bench.setup", fn)
            self.setup_s.append(time.perf_counter() - t0)

    def traced(self, root, fn):
        """Run set-up or save work once, under a root span when tracing."""
        if not self.trace:
            return fn()
        self.tracer.install(PACKAGE, HOOKS)
        self.tracer.begin(root)
        try:
            return fn()
        finally:
            self.tracer.end()
            self.tracer.uninstall()


def _matmul_flops(tracer, args, kwargs, result):
    tracer.count("ndtensor.matmul.gflop", 2.0 * result.data.size * args[0].shape[-1] / 1e9)


def _adam_bytes(tracer, args, kwargs, result):
    params = args[0]
    tracer.count("optim.adam_step.mb", 4 * sum(p.data.nbytes for p in params.values()) / 1e6)


def _decoded(tracer, args, kwargs, result):
    tracer.count("patchio.decoded_mb", result.nbytes / 1e6)


def _tiles(tracer, args, kwargs, result):
    batch = args[2]
    tracer.count("evalviz.tiles_per_image", batch.data.shape[0] / batch.batch)


def _ckpt_size(tracer, args, kwargs, result):
    path = args[3] if len(args) > 3 else args[0]
    tracer.count("optim.checkpoint_mb", os.path.getsize(path) / 1e6)


HOOKS = {
    "ndtensor.matmul": _matmul_flops,
    "optim.adam_step": _adam_bytes,
    "patchio.load_ppm": _decoded,
    "optim.batch_predictions": _tiles,
    "optim.save_checkpoint": _ckpt_size,
    "optim.load_checkpoint": _ckpt_size,
}

COUNTERS = {"patchio.decoded_mb": "MB", "ndtensor.matmul.gflop": "GFLOP",
            tracing.NODES: "count", "optim.adam_step.mb": "MB", "optim.checkpoint_mb": "MB",
            "evalviz.tiles_per_image": "count"}


# ---------------------------------------------------------------------------
# training workloads
# ---------------------------------------------------------------------------

def run_train(run, out_dir):
    wl, cfg = run.wl, run.wl.cfg
    pairs = synth_pairs(wl, run.seed)
    st = {}

    def setup(cycle=0):
        params = model.init_params(cfg, run.seed * 1000 + cycle)
        st["params"], st["state"] = params, optim.init_adam(params, lr=wl.lr)

    run.set_up(setup, st)

    rng = np.random.default_rng(run.seed + 1)
    order = []
    losses = []

    # The toy step's cost depends on the training trajectory (gelu's cost
    # grows with activation size), so a run that simply went on would reach
    # a later, slower stretch the faster the program is, and one trajectory
    # per run makes runs differ by seed. The toy workload therefore restarts
    # from a new init seed every ``restart_every`` steps: every run measures
    # the same stretch, averaged over a few trajectories.
    attempts = [0]

    def between():
        if wl.restart_every and attempts[0] and attempts[0] % wl.restart_every == 0:
            setup(attempts[0] // wl.restart_every)
        attempts[0] += 1

    run.between = between

    def step():
        idx = [order.pop() if order else None for _ in range(wl.batch_size)]
        for j, i in enumerate(idx):
            if i is None:
                order.extend(rng.permutation(len(pairs)).tolist())
                idx[j] = order.pop()
        batch = patchio.make_batch([pairs[i] for i in idx], cfg.patch_size, rng=rng)
        loss = optim.train_step(batch, st["params"], cfg, st["state"])
        losses.append(loss)
        if not math.isfinite(loss):
            raise FloatingPointError(f"non-finite loss {loss!r}")

    run.measure(step, "bench.step")
    run.check("losses_finite", all(math.isfinite(x) for x in losses),
              f"{len(losses)} losses")
    path = os.path.join(out_dir, f"{wl.name}_seed{run.seed}_trace{int(run.trace)}_losses.tsv")
    with open(path, "w") as fh:
        fh.write("step\tloss\n")
        fh.writelines(f"{i}\t{x!r}\n" for i, x in enumerate(losses))
    run.extra["loss_trace"] = os.path.relpath(path)

    ckpt = os.path.join(run.work_dir, "train.tcwd")
    t0 = time.perf_counter()
    run.traced("bench.save", lambda: optim.save_checkpoint(
        st["params"], st["state"], cfg, ckpt))
    run.extra["ckpt_save_s"] = time.perf_counter() - t0
    run.extra["checkpoint_mb"] = os.path.getsize(ckpt) / 1e6
    run.extra["peak_rss_mb"] = peak_rss_mb()

    # Bit-exact round trip, compared by digest so that the saved and loaded
    # copies are never both in memory: the check must not raise peak RSS.
    params, state = st.pop("params"), st.pop("state")
    want = {n: digest(p.data) for n, p in params.items()}
    want.update({n + ".m": digest(a) for n, a in state.m.items()})
    want.update({n + ".v": digest(a) for n, a in state.v.items()})
    want_t = state.t
    del params, state
    params, state, loaded_cfg = optim.load_checkpoint(ckpt, expected_cfg=cfg)
    got = {n: digest(p.data) for n, p in params.items()}
    got.update({n + ".m": digest(a) for n, a in state.m.items()})
    got.update({n + ".v": digest(a) for n, a in state.v.items()})
    bad = sorted(n for n in want.keys() | got.keys() if want.get(n) != got.get(n))
    run.check("checkpoint_round_trip", not bad and state.t == want_t and loaded_cfg == cfg,
              f"{len(want)} arrays, mismatched: {bad[:3]}")
    del params, state
    run.extra["peak_rss_after_checks_mb"] = peak_rss_mb()


# ---------------------------------------------------------------------------
# evaluation workload
# ---------------------------------------------------------------------------

def source_digest(src):
    """sha256 over the program's source files, in name order."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def write_eval_fixture(wl, seed, work_dir, cache_dir):
    """Write the eval PPM images, and the checkpoint unless cached; returns paths.

    Runs in its own process, so its memory does not count toward the
    workload's peak RSS. The checkpoint does not depend on the seed, so it
    is written once per program source and config and kept in
    ``cache_dir``; cached checkpoints of older sources are removed.
    """
    cfg_key = hashlib.sha256(json.dumps([asdict(wl.cfg), EVAL_HEAD_W2_SCALE,
                                         EVAL_TILE_TARGET]).encode())
    prefix = f"eval-{cfg_key.hexdigest()[:12]}-"
    ckpt = os.path.join(cache_dir, prefix
                        + source_digest(os.path.dirname(model.__file__))[:12] + ".tcwd")
    if not os.path.exists(ckpt):
        os.makedirs(cache_dir, exist_ok=True)
        for old in os.listdir(cache_dir):
            if old.startswith(prefix):
                os.remove(os.path.join(cache_dir, old))
        params = model.init_params(wl.cfg, 0)
        params["head.w2"].data *= EVAL_HEAD_W2_SCALE
        probe, _ = patchio.synth_generate(patchio.SynthSpec(side=wl.cfg.image_size), 1)[0]
        seq = patchio.patchify(patchio.normalize(probe), wl.cfg.patch_size)[None]
        with no_grad():
            raw = float(model.forward(params, wl.cfg, seq)[0].data[0])
        params["head.b2"].data[...] = EVAL_TILE_TARGET - raw
        optim.save_checkpoint(params, optim.init_adam(params, lr=wl.lr), wl.cfg, ckpt)
    images = []
    for i, (img, count) in enumerate(synth_pairs(wl, seed)):
        path = os.path.join(work_dir, f"eval_{i:02d}.ppm")
        patchio.save_ppm(img, path)
        images.append(path)
    return {"checkpoint": ckpt, "images": images}


def run_eval(run, run_py, scale, cache_dir):
    wl, cfg = run.wl, run.wl.cfg
    manifest_path = os.path.join(run.work_dir, "manifest.json")
    subprocess.run([sys.executable, run_py, "--fixture", wl.name, "--seed", str(run.seed),
                    "--scale", scale, "--work-dir", run.work_dir, "--cache-dir", cache_dir,
                    "--manifest", manifest_path], check=True)
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    run.extra["checkpoint_mb"] = os.path.getsize(manifest["checkpoint"]) / 1e6

    st = {}

    def setup():
        st["params"], _, _ = optim.load_checkpoint(manifest["checkpoint"], expected_cfg=cfg)

    run.set_up(setup, st)
    params = st["params"]

    # Raw tile predictions of the last forward, taken from model.forward as
    # predict_image calls it; the cost is one Python call per image.
    captured = []
    real_forward = model.forward

    def capture(params, cfg, patches, **kw):
        preds, records = real_forward(params, cfg, patches, **kw)
        captured[:] = [(patches, preds.data.copy())]
        return preds, records

    images = manifest["images"]
    preds = []

    def score():
        img = patchio.load_ppm(images[len(preds) % len(images)])
        pred = evalviz.predict_image(img, params, cfg)
        preds.append(pred)
        if not math.isfinite(pred):
            raise FloatingPointError(f"non-finite prediction {pred!r}")

    def warm():
        # One tile-size crop runs every layer once at a sixth of an image's cost.
        img = patchio.load_ppm(images[0])[:cfg.image_size, :cfg.image_size]
        if not math.isfinite(evalviz.predict_image(img, params, cfg)):
            raise FloatingPointError("non-finite prediction")

    undo = tracing.patch_everywhere(PACKAGE, {real_forward: capture})
    try:
        run.measure(score, "bench.image", warm=warm)
    finally:
        tracing.unpatch(undo)
    run.extra["peak_rss_mb"] = peak_rss_mb()

    run.check("predictions_finite", all(math.isfinite(p) for p in preds),
              f"{len(preds)} predictions")
    if not captured:
        run.check("tile_capture", False, "predict_image did not call model.forward")
    else:
        patches, tiles = captured[0]
        total = max(0.0, float(tiles.sum(dtype=np.float32)))
        run.check("tiles_per_image", len(tiles) == 6, f"{len(tiles)} tiles")
        run.check("tiles_finite", bool(np.all(np.isfinite(tiles))), str(tiles.tolist()))
        run.check("predict_equals_clamped_tile_sum",
                  abs(preds[-1] - total) <= SUM_TOL * (1.0 + float(np.abs(tiles).sum())),
                  f"predict_image {preds[-1]!r}, max(0, sum of tiles) {total!r}")
        k = run.seed % len(tiles)
        ref = float(reference.forward_gap({n: p.data for n, p in params.items()},
                                          patches[k:k + 1], cfg.layers, cfg.heads,
                                          cfg.attn_scale)[0])
        err = abs(float(tiles[k]) - ref)
        run.check("tile_matches_float64_reference", err <= REF_TOL * max(1.0, abs(ref)),
                  f"tile {k}: program {float(tiles[k])!r}, reference {ref!r}, "
                  f"|diff| {err:.3e}, tol {REF_TOL} * max(1, |ref|)")
    run.extra["peak_rss_after_checks_mb"] = peak_rss_mb()
