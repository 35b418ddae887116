"""Parameter shape table, initialization, and forward-pass tests."""

import concurrent.futures
import hashlib
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

import patchcount
from patchcount import encoder, model, ndtensor, patchio
from patchcount.model import ModelConfig, forward, init_params, param_shapes
from patchcount.ndtensor import Tensor, backward, mean, no_grad, reshape, sum_axis

TOY = dict(image_size=64, patch_size=8, dim=64, heads=4, layers=2, hidden_dim=64)

VARIANTS = {
    "gap": dict(TOY, head_variant="gap"),
    "token": dict(TOY, head_variant="token"),
    "token_final_ln": dict(TOY, head_variant="token", hidden_dim=32, final_ln=True),
}

# sha256 over (name, shape, bytes) of init_params(cfg, 0), in order, taken
# before init_params was rebuilt on param_shapes: the table must not move
# a single draw.
INIT_SHA256 = {
    "gap": "5ce5a9639f4f830f06af56ebafb57c3d90d13d3f0e941cf2612d0f05935e095d",
    "token": "49918e79e9d14aa94284fc4f5876fd8283800578b70619f4c6f32597ae5c86ca",
    "token_final_ln": "d4e07409d2e1e73e36c37b20aa334549f0ffa35dac19f5b33a09d3edfd5ec30b",
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_shape_table_matches_init_params_in_order(variant):
    cfg = ModelConfig(**VARIANTS[variant])
    for seed in (0, 5):
        got = {n: p.shape for n, p in init_params(cfg, seed).items()}
        assert list(param_shapes(cfg).items()) == list(got.items())


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_init_params_bits_pinned(variant):
    h = hashlib.sha256()
    for n, p in init_params(ModelConfig(**VARIANTS[variant]), 0).items():
        h.update(n.encode() + b"\0" + str(p.data.shape).encode() + p.data.tobytes())
    assert h.hexdigest() == INIT_SHA256[variant]


def test_init_params_holds_one_float64_scratch():
    # the head's w1 is the largest array, and drawn late: init holds the
    # parameters, one float64 scratch of its size and two boolean masks of
    # it, not a float64 draw, |draw| and a float32 copy per array
    cfg = ModelConfig(image_size=16, patch_size=8, dim=32, heads=2, layers=2, hidden_dim=2048)
    largest = max(math.prod(s) for s in param_shapes(cfg).values())
    assert largest == math.prod(param_shapes(cfg)["head.w1"])
    init_params(cfg, 0)  # a first call in a process also makes numpy's one-time state
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        params = init_params(cfg, 0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    held = sum(p.data.nbytes for p in params.values())
    assert peak <= held + 10 * largest + 65536, \
        f"init peaked {peak - held} B above its {held} B of parameters"


def test_paper_scale_parameter_count():
    shapes = param_shapes(ModelConfig())
    assert shapes["embed.pos"] == (576, 768)
    assert shapes["layer11.mlp.w1"] == (768, 3072)
    assert sum(math.prod(s) for s in shapes.values()) == 86_641_153


@pytest.mark.parametrize("field, value", [
    ("image_size", 0), ("patch_size", 0), ("dim", -8), ("dim", 8.0), ("heads", 0),
    ("layers", -1), ("layers", True), ("layers", "2"), ("hidden_dim", 8.0),
    ("final_ln", 1), ("final_ln", "false")])
def test_config_rejects_bad_type_or_range(field, value):
    with pytest.raises(ValueError, match=field):
        ModelConfig(**dict(TOY, **{field: value}))


def _patches(cfg, tiles, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(tiles, cfg.seq_len, cfg.patch_dim)).astype(np.float32)


def test_grad_check_model_keeps_a_nan_error(monkeypatch):
    # the first tensor's error is NaN: a running max would drop it
    errs = iter([math.nan] + [1e-4] * 100)
    monkeypatch.setattr(ndtensor, "grad_check", lambda *a, **k: next(errs))
    cfg = ModelConfig(image_size=16, patch_size=8, dim=8, heads=2, layers=1, hidden_dim=8)
    assert math.isnan(model.grad_check_model(cfg, samples_per_param=1))


@pytest.mark.parametrize("head", ["gap", "token"])
@pytest.mark.parametrize("tiles", [1, 3, 6])
def test_no_grad_forward_bits_equal_recorded(head, tiles):
    # tile by tile without a graph, all tiles at once with one
    cfg = ModelConfig(**dict(TOY, head_variant=head))
    params, patches = init_params(cfg, 1), _patches(cfg, tiles)
    recorded, _ = forward(params, cfg, patches)
    assert recorded.requires_grad
    with no_grad():
        plain, _ = forward(params, cfg, patches)
    assert not plain.requires_grad
    assert plain.data.dtype == np.float32
    assert np.array_equal(plain.data, recorded.data)


@pytest.mark.parametrize("sides", [[(128, 192), (128, 192)], [(128, 192), (64, 64), (128, 192)]],
                         ids=["6+6", "6+1+6"])
def test_batch_predictions_sum_each_images_tiles(sides):
    cfg = ModelConfig(**dict(TOY, head_variant="gap"))
    params = init_params(cfg, 1)
    rng = np.random.default_rng(2)
    batch = patchio.make_batch([(rng.random(s + (3,)).astype(np.float32), 1.0) for s in sides],
                               cfg.patch_size)
    preds = model.batch_predictions(params, cfg, batch)
    tiles, _ = forward(params, cfg, batch.data)
    ends = np.cumsum(batch.tiles)
    expected = [tiles.data[e - n:e].sum(axis=0) for n, e in zip(batch.tiles, ends)]
    assert preds.data.dtype == np.float32 and np.array_equal(preds.data, expected)
    if len(set(batch.tiles)) == 1:  # the bytes of a reshape to [images, tiles] summed
        per_image = sum_axis(reshape(tiles, (batch.batch, batch.tiles[0])), 1)
        assert np.array_equal(preds.data, per_image.data)
    backward(mean(preds))
    assert all(p.grad is not None for p in params.values())


def test_head_dim_denominator_scales_by_one_head_width():
    # ViT's own scale, 1/sqrt(D/heads); the default divides by the model width
    cfg = ModelConfig(**TOY, attn_denominator="head_dim")
    assert cfg.attn_scale == 1.0 / math.sqrt(cfg.dim // cfg.heads) == 0.25
    assert ModelConfig(**TOY).attn_scale == 1.0 / math.sqrt(cfg.dim) == 0.125


@pytest.mark.parametrize("head", ["gap", "token"])
def test_head_dim_denominator_gradients(head):
    cfg = ModelConfig(image_size=16, patch_size=8, dim=8, heads=2, layers=2, hidden_dim=8,
                      head_variant=head, attn_denominator="head_dim")
    assert cfg.attn_scale == 0.5
    assert model.grad_check_model(cfg, seed=0) < 5e-3


@pytest.mark.parametrize("widened", ["all", "layer1.w_q"])
def test_float64_weights_keep_float64_output(widened):
    # grad_check's high-precision pass widens one parameter to float64
    cfg = ModelConfig(**TOY)
    params, patches = init_params(cfg, 1), _patches(cfg, 6)
    for name, p in params.items():
        if widened in ("all", name):
            p.data = p.data.astype(np.float64)
    recorded, _ = forward(params, cfg, patches)
    with no_grad():
        plain, _ = forward(params, cfg, patches)
    assert plain.data.dtype == np.float64
    assert np.array_equal(plain.data, recorded.data)


def _no_grad_forward_peak(params, cfg, patches):
    """Bytes allocated at the peak of one no-grad forward, above its input."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        with no_grad():
            forward(params, cfg, patches)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_no_grad_forward_holds_one_tile_of_activations(monkeypatch):
    # one worker, so one tile is in flight at a time; the pool's own cost
    # is the next test's
    monkeypatch.setattr(model, "TILE_WORKERS", 1)
    cfg = ModelConfig(**TOY)
    params = init_params(cfg, 1)
    one = _no_grad_forward_peak(params, cfg, _patches(cfg, 1))
    six = _no_grad_forward_peak(params, cfg, _patches(cfg, 6))
    tokens = 6 * cfg.seq_len * cfg.dim * 4  # one [6, S, D] float32 array
    assert six <= one + 2 * tokens, f"6 tiles {six} B, 1 tile {one} B, [6, S, D] {tokens} B"


def _hold_first_gelus(monkeypatch, action=None):
    """Make the first two ``_gelu_rows`` calls, one per worker's first MLP,
    wait for each other with GELU(h), each tile's widest activation, live,
    so both tiles are in flight at once at their peak; ``action`` runs
    once, while both wait. Returns the barrier and the count of waits left."""
    barrier = threading.Barrier(2, action=action, timeout=30)
    lock, waits = threading.Lock(), [2]
    real = ndtensor._gelu_rows

    def gelu_rows(*args, **kwargs):
        out = real(*args, **kwargs)
        with lock:
            wait, waits[0] = waits[0] > 0, waits[0] - 1
        if wait:
            barrier.wait()
        return out

    monkeypatch.setattr(ndtensor, "_gelu_rows", gelu_rows)
    return barrier, waits


def test_tile_pool_holds_one_tile_of_activations_per_worker(monkeypatch):
    monkeypatch.setattr(model, "TILE_WORKERS", 2)
    cfg = ModelConfig(**TOY)
    params = init_params(cfg, 1)
    one = _no_grad_forward_peak(params, cfg, _patches(cfg, 1))
    barrier, waits = _hold_first_gelus(monkeypatch)
    six = _no_grad_forward_peak(params, cfg, _patches(cfg, 6))
    assert waits[0] < 0 and not barrier.broken
    # two tiles' activations and what the pool holds besides them, which
    # has read up to 36 KB, well under one [6, S, D] array (98 KB); a
    # third tile in flight would not fit
    tokens = 6 * cfg.seq_len * cfg.dim * 4
    assert six <= 2 * one + tokens, f"6 tiles {six} B, 1 tile {one} B, [6, S, D] {tokens} B"


def test_tile_pool_holds_one_task_per_worker_whatever_the_tile_count(monkeypatch):
    # counted once the calling thread has handed the pool all it will and
    # waits for a result: a pool that had every tile submitted at once
    # would hold a Future for each tile not yet run
    monkeypatch.setattr(model, "TILE_WORKERS", 2)
    cfg = ModelConfig(**TOY)
    params = init_params(cfg, 1)
    futures, waiting = weakref.WeakSet(), threading.Event()
    init, result = concurrent.futures.Future.__init__, concurrent.futures.Future.result
    monkeypatch.setattr(concurrent.futures.Future, "__init__",
                        lambda self: futures.add(self) or init(self))
    monkeypatch.setattr(concurrent.futures.Future, "result",
                        lambda self, timeout=None: waiting.set() or result(self, timeout))
    live = {}
    for tiles in (2, 12):
        waiting.clear()

        def count():
            assert waiting.wait(30)
            live[tiles] = len(futures)

        barrier, waits = _hold_first_gelus(monkeypatch, count)
        with no_grad():
            forward(params, cfg, _patches(cfg, tiles))
        assert waits[0] < 0 and not barrier.broken
    assert 2 <= live[12] <= live[2], live


@pytest.mark.parametrize("record", [False, True])
def test_forward_leaves_patches_unchanged(record):
    cfg = ModelConfig(**TOY)
    params, patches = init_params(cfg, 1), _patches(cfg, 3)
    before = patches.copy()
    with no_grad():
        forward(params, cfg, patches, record_attention=record)
    assert np.array_equal(patches, before)
    as_tensor = Tensor(patches)
    with no_grad():
        forward(params, cfg, as_tensor)
    assert as_tensor.data is patches
    assert np.array_equal(patches, before)


@pytest.fixture(params=["workers1", "workers2", "no_blas_symbol"])
def tile_pool(request, monkeypatch):
    """The no-grad tile pool with one or two threads, or one thread without BLAS control."""
    if request.param == "no_blas_symbol":
        monkeypatch.setattr(model, "_blas_thread_control", lambda: None)
    else:
        monkeypatch.setattr(model, "TILE_WORKERS", int(request.param[-1]))
    return request.param


@pytest.mark.parametrize("head", ["gap", "token"])
@pytest.mark.parametrize("final_ln", [False, True])
@pytest.mark.parametrize("tiles", [1, 3, 6])
def test_tile_pool_bits_equal_recorded(tile_pool, head, final_ln, tiles):
    cfg = ModelConfig(**dict(TOY, head_variant=head, final_ln=final_ln))
    params, patches = init_params(cfg, 1), _patches(cfg, tiles)
    recorded, _ = forward(params, cfg, patches)
    with no_grad():
        plain, _ = forward(params, cfg, patches)
    assert plain.data.tobytes() == recorded.data.tobytes()


def test_tile_pool_stress_more_workers_than_cores(monkeypatch):
    # every tile's row must land in its own slot while threads switch often
    monkeypatch.setattr(model, "TILE_WORKERS", 4)
    cfg = ModelConfig(**TOY)
    params, patches = init_params(cfg, 1), _patches(cfg, 7)
    recorded, _ = forward(params, cfg, patches)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            with no_grad():
                plain, _ = forward(params, cfg, patches)
            assert plain.data.tobytes() == recorded.data.tobytes()
    finally:
        sys.setswitchinterval(interval)


def _blas_or_skip():
    blas = model._blas_thread_control()
    if blas is None:
        pytest.skip("numpy's BLAS exposes no thread-count symbol")
    return blas


@pytest.fixture
def blas_at_two():
    """BLAS set to 2 threads for the test, so a hold at 1 is visible."""
    get_threads, set_threads = _blas_or_skip()
    before = get_threads()
    set_threads(2)
    try:
        yield get_threads
    finally:
        set_threads(before)


@pytest.mark.parametrize("workers, tiles", [(1, 1), (1, 6), (2, 1), (2, 3), (2, 6)])
def test_tile_pool_runs_tiles_on_workers_at_one_blas_thread(monkeypatch, blas_at_two,
                                                            workers, tiles):
    monkeypatch.setattr(model, "TILE_WORKERS", workers)
    in_flight = min(workers, tiles)
    # the first `in_flight` tiles meet here, so they must all be running at once
    barrier = threading.Barrier(in_flight, timeout=30)
    seen = []  # (tile input, thread, BLAS threads) per encoded tile
    real = encoder.encode

    def encode(z, *args, **kwargs):
        seen.append((z.data.tobytes(), threading.get_ident(), blas_at_two()))
        if len(seen) <= in_flight:
            barrier.wait()
        return real(z, *args, **kwargs)

    monkeypatch.setattr(encoder, "encode", encode)
    cfg = ModelConfig(**TOY)
    with no_grad():
        forward(init_params(cfg, 1), cfg, _patches(cfg, tiles))
    assert len({z for z, _, _ in seen}) == len(seen) == tiles
    assert {b for _, _, b in seen} == {1}
    # every tile runs on one of the pool's threads, a lone tile and one worker too
    threads = {t for _, t, _ in seen}
    assert threading.get_ident() not in threads and len(threads) == in_flight
    assert blas_at_two() == 2


def test_without_blas_symbol_one_pool_thread_runs_every_tile(monkeypatch):
    monkeypatch.setattr(model, "_blas_thread_control", lambda: None)
    monkeypatch.setattr(model, "TILE_WORKERS", 2)
    threads = []
    real = encoder.encode

    def encode(z, *args, **kwargs):
        threads.append(threading.get_ident())
        return real(z, *args, **kwargs)

    monkeypatch.setattr(encoder, "encode", encode)
    cfg = ModelConfig(**TOY)
    with no_grad():
        forward(init_params(cfg, 1), cfg, _patches(cfg, 3))
    assert len(threads) == 3 and len(set(threads)) == 1
    assert threads[0] != threading.get_ident()


def test_pool_threads_record_no_graph(monkeypatch):
    monkeypatch.setattr(model, "TILE_WORKERS", 2)
    recording = []
    real = encoder.encode

    def encode(z, params, *args, **kwargs):
        recording.append(ndtensor._recording((z, *params.values())))
        out = real(z, params, *args, **kwargs)
        recording.append(out.requires_grad)
        return out

    monkeypatch.setattr(encoder, "encode", encode)
    cfg = ModelConfig(**TOY)
    params = init_params(cfg, 1)
    with no_grad():
        forward(params, cfg, _patches(cfg, 6))
    assert recording == [False] * 12
    assert all(p.grad is None for p in params.values())


@pytest.mark.parametrize("workers, tiles, bad_tiles", [
    pytest.param(2, 6, {2}, id="2"), pytest.param(2, 6, {3}, id="3"),
    pytest.param(2, 6, {2, 3}, id="2_and_3"), pytest.param(1, 6, {3}, id="workers1"),
    pytest.param(2, 1, {0}, id="lone_tile")])
def test_tile_failure_restores_blas_and_joins_pool(monkeypatch, blas_at_two, workers, tiles,
                                                   bad_tiles):
    monkeypatch.setattr(model, "TILE_WORKERS", workers)
    cfg = ModelConfig(**TOY)
    params, patches = init_params(cfg, 1), _patches(cfg, tiles)
    with no_grad():
        embedded = [model.embed(params, cfg, patches[t:t + 1]).data for t in range(tiles)]
    raised_on, started = [], []
    real = encoder.encode

    def encode(z, *args, **kwargs):
        t = next(t for t, e in enumerate(embedded) if np.array_equal(z.data, e))
        started.append(t)
        if t in bad_tiles:
            raised_on.append(threading.get_ident())
            raise FloatingPointError(f"tile {t}")
        return real(z, *args, **kwargs)

    monkeypatch.setattr(encoder, "encode", encode)
    threads = threading.active_count()
    first = min(bad_tiles)
    with no_grad(), pytest.raises(FloatingPointError, match=f"tile {first}$"):
        forward(params, cfg, patches)
    assert raised_on and threading.get_ident() not in raised_on  # pool threads
    # no tile starts once the failure is seen: past the first bad tile,
    # only the ones the other workers had already taken run
    assert max(started) <= first + workers - 1, started
    assert blas_at_two() == 2
    assert threading.active_count() == threads


_TOKEN_TILES = """
import sys
from patchcount import model, patchio
from patchcount.ndtensor import no_grad
cfg = model.ModelConfig(image_size=384, patch_size=16, dim=64, heads=1, layers=1,
                        hidden_dim=64, head_variant="token")
spec = patchio.SynthSpec(side=600, count_min=20, count_max=40, dot_radius=3.0, seed=3)
img = patchio.synth_generate(spec, 1)[0][0]
batch = patchio.make_batch([(patchio.fit_to_grid(img, cfg.image_size), 0.0)], cfg.patch_size)
with no_grad():
    preds, _ = model.forward(model.init_params(cfg, 0), cfg, batch.data)
sys.stdout.write(preds.data.tobytes().hex())
"""


def test_no_grad_token_bytes_independent_of_blas_threads():
    # S = 577: attention's P.V GEMM gives other bytes at 2 BLAS threads
    src = os.path.dirname(os.path.dirname(os.path.abspath(patchcount.__file__)))
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", _TOKEN_TILES], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        out.append(run.stdout)
    assert len(out[0]) == 2 * 6 * 4  # six float32 tile predictions
    assert out[0] == out[1]
