"""Config schema and end-to-end command tests."""

import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import patchcount
from patchcount import cli, evalviz, model, optim, patchio
from patchcount.cli import ConfigError, main, parse_config
from patchcount.model import ModelConfig, init_params
from patchcount.optim import init_adam, save_checkpoint


class TestParseConfig:
    def test_defaults_are_full_scale(self, tmp_path):
        f = tmp_path / "c.json"
        f.write_text("{}")
        cfg, tcfg = parse_config(str(f))
        assert cfg.patch_size == 16 and cfg.dim == 768
        assert cfg.layers == 12 and cfg.heads == 12
        assert cfg.seq_len == 576
        assert tcfg.batch_size == 24
        assert tcfg.lr == 1e-5 and tcfg.weight_decay == 1e-4

    def test_toy_overrides(self):
        cfg, tcfg = parse_config(None, {"layers": 2, "dim": 64, "heads": 4,
                                        "patch": 8, "image": 64})
        assert (cfg.layers, cfg.dim, cfg.heads) == (2, 64, 4)
        assert cfg.seq_len == 64

    def test_divisibility_error(self):
        with pytest.raises(ConfigError, match="divisible"):
            parse_config(None, {"dim": 65, "heads": 4})

    def test_unknown_key(self, tmp_path):
        f = tmp_path / "c.json"
        f.write_text(json.dumps({"learning_rate": 0.1}))
        with pytest.raises(ConfigError, match="learning_rate"):
            parse_config(str(f))

    def test_type_mismatch(self, tmp_path):
        f = tmp_path / "c.json"
        f.write_text(json.dumps({"layers": "twelve"}))
        with pytest.raises(ConfigError, match="layers"):
            parse_config(str(f))

    @pytest.mark.parametrize("text, expect", [('{"lr": 1' + "0" * 400 + "}", "float range"),
                                              ("{not json", "not valid JSON"),
                                              ('{"lr": "\xff"}', "not valid JSON")],
                             ids=["huge_int_lr", "bad_json", "non_utf8"])
    def test_unreadable_value_or_file(self, tmp_path, text, expect):
        f = tmp_path / "c.json"
        f.write_bytes(text.encode("latin-1"))
        with pytest.raises(ConfigError, match=expect):
            parse_config(str(f))

    def test_file_then_override_precedence(self, tmp_path):
        f = tmp_path / "c.json"
        f.write_text(json.dumps({"dim": 128, "heads": 4}))
        cfg, _ = parse_config(str(f), {"dim": 64})
        assert cfg.dim == 64 and cfg.heads == 4


class TestCommands:
    def test_synth_writes_dataset(self, tmp_path, capsys):
        out = str(tmp_path / "data")
        rc = main(["synth", "--out", out, "--n", "6", "--side", "32",
                   "--count-max", "5", "--seed", "7"])
        assert rc == 0
        assert len([f for f in os.listdir(out) if f.endswith(".ppm")]) == 6
        assert os.path.exists(os.path.join(out, "labels.tsv"))

    def test_synth_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (a, b):
            main(["synth", "--out", out, "--n", "3", "--side", "16", "--seed", "9"])
        for name in os.listdir(a):
            assert open(os.path.join(a, name), "rb").read() == \
                open(os.path.join(b, name), "rb").read()

    def test_gradcheck_toy_passes(self, capsys):
        rc = main(["gradcheck", "--profile", "toy", "--samples", "2", "--seed", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "gradcheck\tpass" in out

    def test_gradcheck_fails_above_threshold(self, capsys):
        rc = main(["gradcheck", "--profile", "toy", "--samples", "2",
                   "--seed", "0", "--threshold", "1e-12"])
        assert rc == 1

    def test_unknown_config_key_exits_nonzero(self, tmp_path, capsys):
        f = tmp_path / "c.json"
        f.write_text(json.dumps({"bogus": 1}))
        rc = main(["gradcheck", "--config", str(f)])
        assert rc == 1
        assert "error\t" in capsys.readouterr().err

    def test_train_eval_infer_attnmap_pipeline(self, tmp_path, capsys):
        data = str(tmp_path / "data")
        main(["synth", "--out", data, "--n", "4", "--side", "16",
              "--count-max", "3", "--seed", "5"])
        ckpt = str(tmp_path / "m.tcwd")
        log = str(tmp_path / "conv.tsv")
        rc = main(["train", "--data", data, "--out", ckpt, "--log", log,
                   "--image", "16", "--patch", "8", "--dim", "8", "--heads", "2",
                   "--layers", "1", "--hidden-dim", "8", "--epochs", "2",
                   "--batch-size", "2", "--seed", "3", "--lr", "1e-3"])
        assert rc == 0
        assert os.path.exists(ckpt)
        assert len(open(log).read().splitlines()) == 3  # header + 2 epochs

        report = str(tmp_path / "report.tsv")
        rc = main(["eval", "--checkpoint", ckpt, "--data", data, "--out", report])
        assert rc == 0
        lines = open(report).read().splitlines()
        assert lines[0] == "image\tpred\tgt" and lines[-2].startswith("MAE\t")

        img = os.path.join(data, sorted(os.listdir(data))[0])
        capsys.readouterr()
        rc = main(["infer", "--checkpoint", ckpt, "--image", img])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("count\t")
        assert float(out.split("\t")[1]) >= 0.0

        pgm = str(tmp_path / "map.pgm")
        rc = main(["attnmap", "--checkpoint", ckpt, "--image", img, "--out", pgm])
        assert rc == 0
        grid = patchio.load_pgm(pgm)
        assert grid.shape == (2, 2)

    def test_identical_invocations_identical_checkpoints(self, tmp_path):
        data = str(tmp_path / "data")
        main(["synth", "--out", data, "--n", "4", "--side", "16",
              "--count-max", "3", "--seed", "5"])
        blobs = []
        for tag in ("a", "b"):
            ckpt = str(tmp_path / f"{tag}.tcwd")
            rc = main(["train", "--data", data, "--out", ckpt, "--image", "16",
                       "--patch", "8", "--dim", "8", "--heads", "2",
                       "--layers", "1", "--hidden-dim", "8", "--epochs", "2",
                       "--batch-size", "2", "--seed", "3", "--lr", "1e-3"])
            assert rc == 0
            blobs.append(open(ckpt, "rb").read())
        assert blobs[0] == blobs[1]

    def test_checkpoint_bytes_independent_of_blas_threads(self, tmp_path):
        data = str(tmp_path / "data")
        main(["synth", "--out", data, "--n", "16", "--side", "64",
              "--count-max", "20", "--seed", "5"])
        src = os.path.dirname(os.path.dirname(os.path.abspath(patchcount.__file__)))
        blobs = []
        for threads in ("1", "2"):
            ckpt = str(tmp_path / f"t{threads}.tcwd")
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            out = subprocess.run(
                [sys.executable, "-m", "patchcount.cli", "train", "--data", data,
                 "--out", ckpt, "--profile", "toy", "--epochs", "3", "--batch-size", "8",
                 "--seed", "3", "--lr", "1e-2"],
                env=env, capture_output=True, text=True, timeout=300)
            assert out.returncode == 0, out.stderr
            blobs.append(open(ckpt, "rb").read())
        assert blobs[0] == blobs[1]

    def test_missing_checkpoint_exits_nonzero(self, tmp_path, capsys):
        rc = main(["infer", "--checkpoint", str(tmp_path / "nope.tcwd"),
                   "--image", str(tmp_path / "nope.ppm")])
        assert rc == 1

    def test_failed_train_leaves_no_checkpoint(self, tmp_path):
        ckpt = str(tmp_path / "m.tcwd")
        rc = main(["train", "--data", str(tmp_path / "missing"), "--out", ckpt,
                   "--profile", "toy", "--epochs", "1", "--seed", "0"])
        assert rc == 1
        assert not os.path.exists(ckpt)


def _edit_model(path, changes):
    blob = open(path, "rb").read()
    end = 12 + struct.unpack("<I", blob[8:12])[0]
    block = json.loads(blob[12:end])
    block["model"].update(changes)
    raw = json.dumps(block).encode()
    open(path, "wb").write(blob[:8] + struct.pack("<I", len(raw)) + raw + blob[end:])


# config block edits per case
EDITS = {"unknown_model_key": {"bogus": 1}, "negative_layers": {"layers": -1},
         "float_dim": {"dim": 8.0}, "dropped_final_ln": {"final_ln": False}}


@pytest.mark.parametrize("case, expect", [("unknown_model_key", "malformed config block"),
                                          ("negative_layers", "malformed config block"),
                                          ("float_dim", "malformed config block"),
                                          ("dropped_final_ln", "not in the shape table"),
                                          ("nan_head_b2", "non-finite prediction")])
def test_infer_bad_checkpoint_exits_1_with_error(tmp_path, capsys, case, expect):
    cfg = ModelConfig(image_size=16, patch_size=8, dim=8, heads=2, layers=1, hidden_dim=8,
                      final_ln=case == "dropped_final_ln")
    params = init_params(cfg, 0)
    if case == "nan_head_b2":
        params["head.b2"].data[:] = np.nan
    ckpt = str(tmp_path / "m.tcwd")
    save_checkpoint(params, init_adam(params), cfg, ckpt)
    if case in EDITS:
        _edit_model(ckpt, EDITS[case])
    img = str(tmp_path / "x.ppm")
    patchio.save_ppm(np.zeros((16, 16, 3), dtype=np.float32), img)
    capsys.readouterr()
    rc = main(["infer", "--checkpoint", ckpt, "--image", img])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error\t") and expect in captured.err


def _tiny_checkpoint(tmp_path):
    cfg = ModelConfig(image_size=16, patch_size=8, dim=8, heads=2, layers=1, hidden_dim=8)
    params = init_params(cfg, 0)
    ckpt = str(tmp_path / "m.tcwd")
    save_checkpoint(params, init_adam(params), cfg, ckpt)
    return ckpt


def test_eval_nan_label_exits_1_with_error(tmp_path, capsys):
    data = str(tmp_path / "data")
    main(["synth", "--out", data, "--n", "2", "--side", "16", "--seed", "5"])
    labels = os.path.join(data, "labels.tsv")
    lines = open(labels).read().splitlines()
    lines[1] = lines[1].split("\t")[0] + "\tnan"
    open(labels, "w").write("\n".join(lines) + "\n")
    ckpt = _tiny_checkpoint(tmp_path)
    capsys.readouterr()
    rc = main(["eval", "--checkpoint", ckpt, "--data", data])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error\t") and "labels.tsv line 2" in captured.err


@pytest.mark.parametrize("command", ["eval", "gradcheck"])
def test_deeply_nested_json_exits_1_with_error(tmp_path, capsys, command):
    deep = b"[" * 100000
    if command == "eval":
        ckpt = _tiny_checkpoint(tmp_path)
        blob = open(ckpt, "rb").read()
        end = 12 + struct.unpack("<I", blob[8:12])[0]
        open(ckpt, "wb").write(blob[:8] + struct.pack("<I", len(deep)) + deep + blob[end:])
        argv = ["eval", "--checkpoint", ckpt, "--data", str(tmp_path)]
        expect = "malformed config block"
    else:
        config = tmp_path / "deep.json"
        config.write_bytes(deep)
        argv = ["gradcheck", "--config", str(config)]
        expect = "not valid JSON"
    capsys.readouterr()
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error\t") and expect in captured.err


def test_train_negative_epochs_exits_1_with_error(tmp_path, capsys):
    data = str(tmp_path / "data")
    main(["synth", "--out", data, "--n", "2", "--side", "64", "--seed", "5"])
    ckpt = str(tmp_path / "m.tcwd")
    capsys.readouterr()
    rc = main(["train", "--data", data, "--out", ckpt, "--profile", "toy",
               "--epochs", "-2"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error\t") and "epochs must be" in captured.err
    assert not os.path.exists(ckpt)


def test_train_into_missing_directory_exits_1_before_any_step(tmp_path, capsys, monkeypatch):
    data = str(tmp_path / "data")
    main(["synth", "--out", data, "--n", "2", "--side", "16", "--seed", "5"])
    steps, train_step = [], optim.train_step
    monkeypatch.setattr(optim, "train_step", lambda *a: steps.append(1) or train_step(*a))
    ckpt = str(tmp_path / "nodir" / "m.tcwd")
    capsys.readouterr()
    rc = main(["train", "--data", data, "--out", ckpt, "--image", "16", "--patch", "8",
               "--dim", "8", "--heads", "2", "--layers", "1", "--hidden-dim", "8",
               "--epochs", "1", "--batch-size", "2"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error\t") and repr(ckpt) in captured.err
    assert steps == []
    assert sorted(os.listdir(tmp_path)) == ["data"]


def test_train_reads_eval_data_only_with_log(tmp_path, monkeypatch):
    data, ev = str(tmp_path / "data"), str(tmp_path / "ev")
    main(["synth", "--out", data, "--n", "4", "--side", "16", "--seed", "5"])
    main(["synth", "--out", ev, "--n", "20", "--side", "16", "--seed", "6"])
    calls = []
    load_ppm = patchio.load_ppm
    monkeypatch.setattr(patchio, "load_ppm", lambda path: calls.append(path) or load_ppm(path))
    flags = ["--data", data, "--eval-data", ev, "--out", str(tmp_path / "m.tcwd"),
             "--image", "16", "--patch", "8", "--dim", "8", "--heads", "2",
             "--layers", "1", "--hidden-dim", "8", "--epochs", "1", "--batch-size", "2"]
    assert main(["train"] + flags) == 0
    assert len(calls) == 4
    calls.clear()
    log = str(tmp_path / "conv.tsv")
    assert main(["train"] + flags + ["--log", log]) == 0
    assert len(calls) == 24
    mae = float(open(log).read().splitlines()[1].split("\t")[2])
    assert np.isfinite(mae)


def test_synth_negative_count_min_exits_1_and_writes_nothing(tmp_path, capsys):
    out = str(tmp_path / "data")
    rc = main(["synth", "--out", out, "--n", "3", "--count-min", "-5", "--count-max", "2"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error\t") and "count_min must be" in captured.err
    assert not os.path.exists(out)


# (side, images) per part: with the toy profile's 64-pixel tile, a 64x64
# image is one tile and a 48x48 image six, so the mixed set's one batch
# holds both
@pytest.mark.parametrize("parts", [[(48, 2)], [(64, 4), (48, 4)]], ids=["48", "64+48"])
def test_train_and_eval_accept_the_same_image_sizes(tmp_path, capsys, parts):
    data, ckpt = tmp_path / "data", str(tmp_path / "m.tcwd")
    data.mkdir()
    lines = []
    for side, n in parts:
        part = tmp_path / f"side{side}"
        assert main(["synth", "--out", str(part), "--n", str(n), "--side", str(side),
                     "--seed", "5"]) == 0
        for name, count in patchio.read_labels(str(part)):
            (data / f"{side}_{name}").write_bytes((part / name).read_bytes())
            lines.append(f"{side}_{name}\t{count:g}\n")
    (data / "labels.tsv").write_text("".join(lines))
    assert main(["train", "--data", str(data), "--out", ckpt, "--profile", "toy",
                 "--epochs", "1", "--seed", "0"]) == 0
    assert main(["eval", "--checkpoint", ckpt, "--data", str(data)]) == 0


def test_standardize_is_an_unknown_config_key(tmp_path, capsys):
    data, f = str(tmp_path / "data"), tmp_path / "c.json"
    main(["synth", "--out", data, "--n", "2", "--side", "64", "--seed", "5"])
    f.write_text(json.dumps({"standardize": False}))
    capsys.readouterr()
    rc = main(["train", "--data", data, "--out", str(tmp_path / "m.tcwd"),
               "--config", str(f), "--profile", "toy", "--epochs", "1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error\t") and "'standardize'" in captured.err


@pytest.mark.parametrize("n", ["0", "-1"])
def test_synth_n_below_one_exits_1_and_writes_nothing(tmp_path, capsys, n):
    out = str(tmp_path / "data")
    rc = main(["synth", "--out", out, "--n", n])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error\t") and "n_images must be" in captured.err
    assert not os.path.exists(out)


def _moment_payloads(blob):
    """(start, end) of every .m/.v array's payload in a checkpoint's bytes."""
    at = 12 + struct.unpack("<I", blob[8:12])[0]
    count, at = struct.unpack("<I", blob[at:at + 4])[0], at + 4
    spans = []
    for _ in range(count):
        n = struct.unpack("<I", blob[at:at + 4])[0]
        name, at = blob[at + 4:at + 4 + n].decode(), at + 4 + n
        rank, at = struct.unpack("<I", blob[at:at + 4])[0], at + 4
        dims = struct.unpack(f"<{rank}I", blob[at:at + 4 * rank])
        at += 4 * rank
        end = at + 4 * int(np.prod(dims))
        if name.endswith((".m", ".v")):
            spans.append((at, end))
        at = end
    assert at == len(blob)
    return spans


def test_infer_never_reads_the_moments(tmp_path, capsys, monkeypatch):
    ckpt = _tiny_checkpoint(tmp_path)
    blob = bytearray(open(ckpt, "rb").read())
    spans = _moment_payloads(bytes(blob))
    for start, end in spans:
        blob[start:end] = np.full((end - start) // 4, np.nan, "<f4").tobytes()
    open(ckpt, "wb").write(bytes(blob))
    img = str(tmp_path / "x.ppm")
    patchio.save_ppm(np.full((16, 16, 3), 0.5, dtype=np.float32), img)
    reads = []
    array = optim._Reader.array
    monkeypatch.setattr(optim._Reader, "array",
                        lambda self, dims, what: reads.append(what) or array(self, dims, what))
    capsys.readouterr()
    rc = main(["infer", "--checkpoint", ckpt, "--image", img])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert len(reads) == len(spans) // 2  # the parameters, and nothing else
    assert captured.out.startswith("count\t")
    assert np.isfinite(float(captured.out.split("\t")[1]))


@pytest.mark.parametrize("command", ["infer", "attnmap"])
@pytest.mark.parametrize("size", ["0 0", "0 5", "5 0"])
def test_zero_size_image_exits_1_with_error(tmp_path, capsys, command, size):
    ckpt = _tiny_checkpoint(tmp_path)
    img = tmp_path / "e.ppm"
    img.write_bytes(f"P6\n{size}\n255\n".encode())
    out = tmp_path / "a.pgm"
    capsys.readouterr()
    rc = main([command, "--checkpoint", ckpt, "--image", str(img)]
              + (["--out", str(out)] if command == "attnmap" else []))
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error\t") and "empty image" in captured.err
    assert not out.exists()


def test_eval_decodes_each_image_just_before_scoring_it(tmp_path, capsys, monkeypatch):
    data, ckpt = str(tmp_path / "data"), _tiny_checkpoint(tmp_path)
    main(["synth", "--out", data, "--n", "4", "--side", "20", "--seed", "5"])
    # the report and metrics of scoring the whole decoded dataset at once
    params, _, cfg = optim.load_checkpoint(ckpt)
    labels = patchio.read_labels(data)
    pairs = [(patchio.load_ppm(os.path.join(data, n)), c) for n, c in labels]
    preds, gts, mae, mse = evalviz.evaluate(pairs, params, cfg)
    expected = str(tmp_path / "expected.tsv")
    evalviz.write_eval_report([n for n, _ in labels], preds, gts, expected)
    events = []
    load_ppm, predict_image = patchio.load_ppm, evalviz.predict_image
    monkeypatch.setattr(patchio, "load_ppm",
                        lambda path: events.append("load") or load_ppm(path))
    monkeypatch.setattr(evalviz, "predict_image",
                        lambda *a: events.append("score") or predict_image(*a))
    monkeypatch.setattr(patchio, "read_labels",
                        lambda d, read=patchio.read_labels: events.append("labels") or read(d))
    capsys.readouterr()
    report = str(tmp_path / "report.tsv")
    assert main(["eval", "--checkpoint", ckpt, "--data", data, "--out", report]) == 0
    assert events == ["labels"] + ["load", "score"] * 4
    assert open(report, "rb").read() == open(expected, "rb").read()
    assert capsys.readouterr().out == f"MAE\t{mae:.4f}\nMSE\t{mse:.4f}\n"


@pytest.mark.parametrize("head", ["gap", "token"])
def test_attnmap_of_a_nan_weight_exits_1_with_error(tmp_path, capsys, head):
    # one NaN in the last layer's w_q makes its attention weights NaN: the
    # map must not be written as a PGM of zeros
    cfg = ModelConfig(image_size=16, patch_size=8, dim=8, heads=2, layers=2, hidden_dim=8,
                      head_variant=head)
    params = init_params(cfg, 4)
    params["layer1.w_q"].data[0, 0] = np.nan
    ckpt = str(tmp_path / "m.tcwd")
    save_checkpoint(params, init_adam(params), cfg, ckpt)
    img = str(tmp_path / "x.ppm")
    patchio.save_ppm(np.random.default_rng(2).random((24, 24, 3)).astype(np.float32), img)
    pgm = tmp_path / "map.pgm"
    capsys.readouterr()
    rc = main(["attnmap", "--checkpoint", ckpt, "--image", img, "--out", str(pgm)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error\t") and "non-finite" in captured.err
    assert not pgm.exists()


@pytest.mark.parametrize("head", ["gap", "token"])
def test_attnmap_keeps_only_the_last_layer(tmp_path, capsys, monkeypatch, head):
    cfg = ModelConfig(image_size=16, patch_size=8, dim=8, heads=2, layers=3, hidden_dim=8,
                      head_variant=head)
    params = init_params(cfg, 4)
    ckpt = str(tmp_path / "m.tcwd")
    save_checkpoint(params, init_adam(params), cfg, ckpt)
    img = str(tmp_path / "x.ppm")
    patchio.save_ppm(np.random.default_rng(2).random((24, 24, 3)).astype(np.float32), img)
    # the map of the last layer of a recording forward over the same one-tile batch
    tile = patchio.resize_bilinear(patchio.load_ppm(img), 16, 16)
    _, weights = model.forward(params, cfg, patchio.make_batch([(tile, 0.0)], 8).data,
                               record_attention=True)
    assert len(weights) == 3
    expected = tmp_path / "expected.pgm"
    patchio.save_pgm(evalviz.attention_map(weights[-1], cfg), str(expected))
    seen = []
    real = evalviz.attention_map
    monkeypatch.setattr(evalviz, "attention_map",
                        lambda w, c: seen.append(w.copy()) or real(w, c))
    pgm = tmp_path / "map.pgm"
    capsys.readouterr()
    assert main(["attnmap", "--checkpoint", ckpt, "--image", img, "--out", str(pgm)]) == 0
    assert len(seen) == 1
    assert np.array_equal(seen[0], weights[-1])
    assert pgm.read_bytes() == expected.read_bytes()


def test_train_decodes_each_batch_just_before_its_step(tmp_path, monkeypatch):
    data = str(tmp_path / "data")
    main(["synth", "--out", data, "--n", "5", "--side", "16", "--seed", "5"])
    events = []
    load_ppm, train_step = patchio.load_ppm, optim.train_step
    monkeypatch.setattr(patchio, "load_ppm",
                        lambda path: events.append("load") or load_ppm(path))
    monkeypatch.setattr(optim, "train_step",
                        lambda *a: events.append("step") or train_step(*a))
    assert main(["train", "--data", data, "--out", str(tmp_path / "m.tcwd"),
                 "--image", "16", "--patch", "8", "--dim", "8", "--heads", "2",
                 "--layers", "1", "--hidden-dim", "8", "--epochs", "2",
                 "--batch-size", "2"]) == 0
    epoch = ["load", "load", "step"] * 2 + ["load", "step"]
    assert events == epoch * 2


def test_train_truncated_image_exits_1_and_writes_no_checkpoint(tmp_path, capsys):
    data, ckpt, config = tmp_path / "data", str(tmp_path / "m.tcwd"), tmp_path / "c.json"
    main(["synth", "--out", str(data), "--n", "6", "--side", "16", "--seed", "5"])
    bad = data / "img_00004.ppm"
    bad.write_bytes(bad.read_bytes()[:-10])
    config.write_text(json.dumps({"checkpoint_every": 1}))  # a save after every epoch
    capsys.readouterr()
    rc = main(["train", "--data", str(data), "--out", ckpt, "--config", str(config),
               "--image", "16", "--patch", "8", "--dim", "8", "--heads", "2",
               "--layers", "1", "--hidden-dim", "8", "--epochs", "2", "--batch-size", "2"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error\t") and "truncated payload" in captured.err
    assert sorted(os.listdir(tmp_path)) == ["c.json", "data"]


@pytest.mark.parametrize("flags, expect", [
    (["--radius", "nan"], "dot_radius must be"), (["--radius", "inf"], "dot_radius must be"),
    (["--noise", "nan"], "noise_amp must be"), (["--noise", "-1"], "noise_amp must be")],
    ids=["radius_nan", "radius_inf", "noise_nan", "noise_negative"])
def test_synth_bad_radius_or_noise_exits_1_and_writes_nothing(tmp_path, capsys, flags,
                                                              expect):
    out = str(tmp_path / "data")
    rc = main(["synth", "--out", out, "--n", "2", "--side", "16"] + flags)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error\t") and expect in captured.err
    assert not os.path.exists(out)


@pytest.mark.parametrize("flags, expect", [
    (["--samples", "0"], "no coordinate"), (["--h", "nan"], "finite and > 0"),
    (["--h", "inf"], "finite and > 0")], ids=["samples_0", "h_nan", "h_inf"])
def test_gradcheck_that_checks_nothing_exits_1(capsys, flags, expect):
    rc = main(["gradcheck", "--profile", "toy", "--layers", "1", "--dim", "16",
               "--heads", "2", "--image", "16", "--patch", "8", "--hidden-dim", "8"] + flags)
    captured = capsys.readouterr()
    assert rc == 1
    assert "gradcheck\tpass" not in captured.out
    assert captured.err.startswith("error\t") and expect in captured.err


def test_gradcheck_nan_error_fails(monkeypatch, capsys):
    # a NaN error for the second head must not be dropped by a max
    errs = iter([1e-4, float("nan")])
    monkeypatch.setattr(cli, "grad_check_model", lambda *a, **k: next(errs))
    assert main(["gradcheck", "--profile", "toy"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "gradcheck\tfail\tnan"
