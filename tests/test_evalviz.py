"""Metrics, full-image prediction, attention maps, and logging tests."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from patchcount import model, patchio
from patchcount.evalviz import (ConvergenceLog, attention_map, mae_mse,
                                predict_image, write_eval_report)
from patchcount.model import ModelConfig, init_params


class TestMaeMse:
    def test_zero_on_equal(self):
        assert mae_mse([1.0, 2.0], [1.0, 2.0]) == (0.0, 0.0)

    def test_hand_values(self):
        mae, mse = mae_mse([3.0, 4.0], [0.0, 0.0])
        assert mae == 3.5
        assert mse == math.sqrt(12.5)

    def test_single_image_collapse(self):
        mae, mse = mae_mse([7.0], [0.0])
        assert mae == mse == 7.0

    def test_mae_le_mse_property(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = rng.integers(1, 30)
            p, g = rng.normal(size=n) * 10, rng.normal(size=n) * 10
            mae, mse = mae_mse(p, g)
            assert mae <= mse + 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mae_mse([], [])


def constant_head_model(cfg, value):
    """Zero weights everywhere; head output bias fixed to `value`."""
    params = init_params(cfg, 0)
    for name, p in params.items():
        if not name.endswith(("gamma",)):
            p.data[:] = 0.0
    params["head.b2"].data[:] = value
    return params


class TestPredictImage:
    def test_constant_model_six_tiles(self):
        cfg = ModelConfig(image_size=384, patch_size=16, dim=8, heads=2,
                          layers=1, hidden_dim=8)
        params = constant_head_model(cfg, 2.5)
        img = np.random.default_rng(1).random((500, 900, 3)).astype(np.float32)
        count = predict_image(img, params, cfg)
        npt.assert_allclose(count, 6 * 2.5, rtol=1e-5)

    def test_negative_clamped(self):
        cfg = ModelConfig(image_size=384, patch_size=16, dim=8, heads=2,
                          layers=1, hidden_dim=8)
        params = constant_head_model(cfg, -1.0)
        img = np.zeros((768, 1152, 3), dtype=np.float32)
        assert predict_image(img, params, cfg) == 0.0

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_raises_not_clamped(self, value):
        cfg = ModelConfig(image_size=64, patch_size=8, dim=8, heads=2,
                          layers=1, hidden_dim=8)
        params = constant_head_model(cfg, value)
        img = np.zeros((64, 64, 3), dtype=np.float32)
        with pytest.raises(FloatingPointError, match="non-finite"):
            predict_image(img, params, cfg)

    def test_toy_path_single_tile(self):
        cfg = ModelConfig(image_size=64, patch_size=8, dim=8, heads=2,
                          layers=1, hidden_dim=8)
        params = constant_head_model(cfg, 3.0)
        img = np.zeros((64, 64, 3), dtype=np.float32)
        npt.assert_allclose(predict_image(img, params, cfg), 3.0, rtol=1e-5)

    def test_one_forward_per_image_with_all_six_tiles(self, monkeypatch):
        # the benchmark reads an image's tile predictions off this one call
        cfg = ModelConfig(image_size=64, patch_size=8, dim=8, heads=2,
                          layers=1, hidden_dim=8)
        params = init_params(cfg, 2)
        calls = []
        real = model.forward

        def spy(params, cfg, patches, **kw):
            calls.append(patches.shape[0])
            return real(params, cfg, patches, **kw)

        monkeypatch.setattr(model, "forward", spy)
        for shape in ((100, 80, 3), (128, 192, 3)):
            predict_image(np.zeros(shape, dtype=np.float32), params, cfg)
        assert calls == [6, 6]

    def test_deterministic(self):
        cfg = ModelConfig(image_size=64, patch_size=8, dim=8, heads=2,
                          layers=1, hidden_dim=8)
        params = init_params(cfg, 2)
        img = np.random.default_rng(3).random((64, 64, 3)).astype(np.float32)
        assert predict_image(img, params, cfg) == predict_image(img, params, cfg)


class TestAttentionMap:
    def _cfg(self, variant="gap"):
        return ModelConfig(image_size=16, patch_size=8, dim=8, heads=2,
                           layers=1, hidden_dim=8, head_variant=variant)

    def test_uniform_attention_degenerates_to_zeros(self):
        cfg = self._cfg()
        uniform = np.full((1, 2, 4, 4), 0.25, dtype=np.float32)
        grid = attention_map(uniform, cfg)
        npt.assert_array_equal(grid, np.zeros((2, 2)))

    def test_single_token_map(self):
        cfg = ModelConfig(image_size=8, patch_size=8, dim=8, heads=1,
                          layers=1, hidden_dim=8)
        grid = attention_map(np.ones((1, 1, 1, 1), dtype=np.float32), cfg)
        npt.assert_array_equal(grid, np.zeros((1, 1)))

    def test_token_variant_uses_token_row(self):
        cfg = self._cfg("token")
        w = np.zeros((1, 1, 5, 5), dtype=np.float32)  # 4 patches + reg token
        w[0, 0, 0] = [0.0, 0.7, 0.1, 0.1, 0.1]  # token's query row
        grid = attention_map(w, cfg)
        assert grid[0, 0] == 1.0  # patch 1 is the max after min-max
        assert grid.shape == (2, 2)


class TestExportPgm:
    """Attention maps are written by patchio.save_pgm."""

    def test_all_zero_payload(self, tmp_path):
        path = tmp_path / "z.pgm"
        patchio.save_pgm(np.zeros((2, 2), dtype=np.float32), str(path))
        assert path.read_bytes().endswith(bytes(4))

    def test_hand_rounded_bytes(self, tmp_path):
        grid = np.array([[0.0, 1.0], [0.5, 0.25]], dtype=np.float32)
        path = tmp_path / "m.pgm"
        patchio.save_pgm(grid, str(path))
        assert path.read_bytes()[-4:] == bytes([0, 255, 128, 64])

    def test_roundtrip_within_quantization(self, tmp_path):
        grid = np.random.default_rng(4).random((3, 5)).astype(np.float32)
        path = tmp_path / "r.pgm"
        patchio.save_pgm(grid, str(path))
        back = patchio.load_pgm(str(path))
        npt.assert_allclose(back, grid, atol=0.5 / 255 + 1e-7)


class TestLogsAndReports:
    def test_convergence_log_lines(self, tmp_path):
        path = str(tmp_path / "log.tsv")
        with ConvergenceLog(path) as log:
            for e in range(3):
                log.record(e, 1.0 - 0.1 * e, 2.0)
        lines = open(path).read().splitlines()
        assert lines[0] == "epoch\ttrain_loss\teval_mae"
        assert len(lines) == 4

    def test_eval_report_format(self, tmp_path):
        path = str(tmp_path / "report.tsv")
        write_eval_report(["a.ppm", "b.ppm"], [3.0, 4.0], [0.0, 0.0], path)
        lines = open(path).read().splitlines()
        assert lines[0] == "image\tpred\tgt"
        assert lines[-2].startswith("MAE\t3.5")
        assert lines[-1].startswith(f"MSE\t{math.sqrt(12.5):.4f}"[:8])
