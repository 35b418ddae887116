"""Regression head and L1 loss tests, including permutation properties."""

import numpy as np
import numpy.testing as npt
import pytest

from patchcount.heads import gap_pool, l1_loss, regress
from patchcount.model import ModelConfig, forward, init_params
from patchcount.ndtensor import Tensor


def t(data):
    return Tensor(np.asarray(data, dtype=np.float32))


class TestGapPool:
    def test_identical_tokens(self):
        tok = np.random.default_rng(0).normal(size=4).astype(np.float32)
        z = t(np.tile(tok, (1, 3, 1)))
        npt.assert_allclose(gap_pool(z).data[0], tok, rtol=1e-6)

    def test_mean_of_basis(self):
        z = t([[[1.0, 0.0], [0.0, 1.0]]])
        npt.assert_allclose(gap_pool(z).data, [[0.5, 0.5]])

    def test_permutation_invariant_bit_exact(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(2, 6, 4)).astype(np.float32)
        # mean over tokens is reordering-insensitive only up to float
        # summation order; identical data in permuted order sums pairwise
        npt.assert_allclose(gap_pool(t(z)).data,
                            gap_pool(t(z[:, ::-1])).data, rtol=1e-6)


class TestRegress:
    def _head(self, d, hid, **over):
        base = dict(w1=t(np.zeros((d, hid))), b1=t(np.zeros(hid)),
                    w2=t(np.zeros((hid, 1))), b2=t(np.zeros(1)))
        base.update(over)
        return {f"head.{name}": w for name, w in base.items()}

    def test_constant_head(self):
        head = self._head(3, 4, b2=t([7.0]))
        out = regress(t(np.random.default_rng(2).normal(size=(5, 3))), head)
        npt.assert_allclose(out.data, np.full(5, 7.0))

    def test_zero_input_gives_bias(self):
        head = self._head(3, 4, w2=t(np.ones((4, 1))), b2=t([2.5]))
        out = regress(t(np.zeros((2, 3))), head)
        npt.assert_allclose(out.data, [2.5, 2.5])  # gelu(0) = 0

    def test_hand_traced_two_dim(self):
        # w1 = I, w2 = [1, -1], b1 = 0, b2 = 0.5 on input [1, 2]
        head = self._head(2, 2, w1=t(np.eye(2)), w2=t([[1.0], [-1.0]]),
                          b2=t([0.5]))
        out = regress(t([[1.0, 2.0]]), head)
        g = lambda x: 0.5 * x * (1 + np.tanh(np.sqrt(2 / np.pi) * (x + 0.044715 * x ** 3)))
        expected = g(1.0) - g(2.0) + 0.5
        npt.assert_allclose(out.data, [expected], rtol=1e-5)


class TestL1Loss:
    def test_zero_on_equal(self):
        p = t([1.0, 2.0, 3.0])
        assert float(l1_loss(p, t([1.0, 2.0, 3.0])).data) == 0.0

    def test_hand_arithmetic(self):
        loss = l1_loss(t([2.0, 10.0]), t([5.0, 10.0]))
        npt.assert_allclose(float(loss.data), 1.5)

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=5), rng.normal(size=5)
        assert float(l1_loss(t(a), t(b)).data) == float(l1_loss(t(b), t(a)).data)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            l1_loss(t([1.0]), t([1.0, 2.0]))

    def test_empty_batch(self):
        with pytest.raises(ValueError):
            l1_loss(t(np.zeros(0)), t(np.zeros(0)))


class TestPermutationProperties:
    def _patches(self, cfg, seed):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(1, cfg.seq_len, cfg.patch_dim)).astype(np.float32)

    def test_gap_invariant_with_zero_positions(self):
        cfg = ModelConfig(image_size=32, patch_size=8, dim=16, heads=4,
                          layers=2, hidden_dim=16, head_variant="gap")
        params = init_params(cfg, 0)
        params["embed.pos"].data[:] = 0.0
        x = self._patches(cfg, 4)
        perm = np.random.default_rng(5).permutation(cfg.seq_len)
        a, _ = forward(params, cfg, x)
        b, _ = forward(params, cfg, x[:, perm])
        npt.assert_allclose(b.data, a.data, rtol=1e-5, atol=1e-7)

    def test_token_invariant_with_zero_positions(self):
        cfg = ModelConfig(image_size=32, patch_size=8, dim=16, heads=4,
                          layers=2, hidden_dim=16, head_variant="token")
        params = init_params(cfg, 0)
        params["embed.pos"].data[:] = 0.0
        x = self._patches(cfg, 6)
        perm = np.random.default_rng(7).permutation(cfg.seq_len)
        a, _ = forward(params, cfg, x)
        b, _ = forward(params, cfg, x[:, perm])
        npt.assert_allclose(b.data, a.data, rtol=1e-5, atol=1e-7)

    def test_positions_break_invariance(self):
        cfg = ModelConfig(image_size=32, patch_size=8, dim=16, heads=4,
                          layers=2, hidden_dim=16, head_variant="gap")
        params = init_params(cfg, 0)
        x = self._patches(cfg, 8)
        a, _ = forward(params, cfg, x)
        changed = False
        rng = np.random.default_rng(9)
        for _ in range(4):
            perm = rng.permutation(cfg.seq_len)
            b, _ = forward(params, cfg, x[:, perm])
            if float(b.data[0]) != float(a.data[0]):
                changed = True
                break
        assert changed, "learned positions should make some permutation matter"
